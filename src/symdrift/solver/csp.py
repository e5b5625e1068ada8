"""Finite-domain ordering puzzles: objects assigned to distinct positions.

Every solution is found by filtering all permutations of the positions, in
lexicographic order; `MAX_OBJECTS` bounds that at 8! = 40,320 candidates.
An option is chosen only when it holds in all of them.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

from ..errors import AmbiguousOptions, CSPSpecError, NoEntailedOption, Unsatisfiable
from .verdict import OPTION, Verdict

LEFT_OF = "LeftOf"
RIGHT_OF = "RightOf"
AT_POSITION = "AtPosition"
ADJACENT = "Adjacent"
NOT_AT_POSITION = "NotAtPosition"

_KINDS = {LEFT_OF, RIGHT_OF, AT_POSITION, ADJACENT, NOT_AT_POSITION}

MAX_OBJECTS = 8


class Constraint(NamedTuple):
    kind: str
    args: tuple  # (obj, obj) for relational kinds, (obj, position) for positional


class Option(NamedTuple):
    """A candidate answer: the named object sits at the named position."""
    obj: str
    position: int


class CSPSpec:
    __slots__ = ("objects", "constraints")

    def __init__(self, objects: list[str], constraints: list[Constraint] | None = None) -> None:
        self.objects = objects
        self.constraints = [] if constraints is None else constraints

    @property
    def positions(self) -> range:
        return range(1, len(self.objects) + 1)

    def validate(self) -> "CSPSpec":
        if not self.objects:
            raise CSPSpecError("no objects declared")
        if len(self.objects) > MAX_OBJECTS:
            raise CSPSpecError(f"{len(self.objects)} objects exceeds the {MAX_OBJECTS} limit")
        if len(set(self.objects)) != len(self.objects):
            raise CSPSpecError("duplicate object names")
        for c in self.constraints:
            if c.kind not in _KINDS:
                raise CSPSpecError(f"unknown constraint kind {c.kind!r}")
            if c.kind in (LEFT_OF, RIGHT_OF, ADJACENT):
                a, b = c.args
                for obj in (a, b):
                    if obj not in self.objects:
                        raise CSPSpecError(f"constraint references undeclared object {obj!r}")
            else:
                obj, pos = c.args
                if obj not in self.objects:
                    raise CSPSpecError(f"constraint references undeclared object {obj!r}")
                if not isinstance(pos, int) or pos not in self.positions:
                    raise CSPSpecError(f"position {pos!r} outside 1..{len(self.objects)}")
        return self


def _holds(c: Constraint, pos: dict[str, int]) -> bool:
    if c.kind == LEFT_OF:
        return pos[c.args[0]] < pos[c.args[1]]
    if c.kind == RIGHT_OF:
        return pos[c.args[0]] > pos[c.args[1]]
    if c.kind == ADJACENT:
        return abs(pos[c.args[0]] - pos[c.args[1]]) == 1
    obj, target = c.args
    if c.kind == AT_POSITION:
        return pos[obj] == target
    return pos[obj] != target


def iter_solutions(spec: CSPSpec):
    """Yield every assignment of distinct positions that satisfies the
    constraints, in lexicographic order of the objects' positions, of a spec
    `solve_csp` has validated."""
    for perm in permutations(spec.positions):
        pos = dict(zip(spec.objects, perm))
        if all(_holds(c, pos) for c in spec.constraints):
            yield pos


def solve_csp(spec: CSPSpec, options: list[Option]) -> Verdict:
    """Return the single option that holds in every solution.

    Raises Unsatisfiable when no assignment satisfies the constraints,
    AmbiguousOptions when several options are entailed, and NoEntailedOption
    when none is. A malformed spec or option is a CSPSpecError before any
    search.
    """
    spec.validate()
    for opt in options:
        if opt.obj not in spec.objects:
            raise CSPSpecError(f"option references undeclared object {opt.obj!r}")
        if opt.position not in spec.positions:
            raise CSPSpecError(f"option position {opt.position} outside 1..{len(spec.objects)}")
    solutions = list(iter_solutions(spec))
    if not solutions:
        raise Unsatisfiable("constraints admit no assignment")
    entailed = [
        i for i, opt in enumerate(options)
        if all(sol[opt.obj] == opt.position for sol in solutions)
    ]
    if len(entailed) > 1:
        raise AmbiguousOptions(f"options {entailed} all hold in every solution")
    if not entailed:
        raise NoEntailedOption("no option holds in every solution")
    return Verdict(OPTION, option_index=entailed[0], steps=len(solutions))
