"""Lexical resources: synonym lexicon, paraphrase table, word vectors.

File formats (the lexicons are TSV with `#` comments allowed; a vector row
is split on whitespace, and every row has the same number of values):

    synonyms.tsv     lemma <TAB> pos <TAB> syn1,syn2,... <TAB> hypernym?
    paraphrases.tsv  phrase <TAB> paraphrase <TAB> score
    vectors.txt      token v1 v2 ... vd   (one line per token)

An empty synonym cell is written `-`. The bundled defaults cover the synthetic
generator's vocabulary; callers point at their own files for anything else.
"""

from __future__ import annotations

from importlib import resources as importlib_resources
from pathlib import Path

from ..errors import ResourceMissing
from ..textproc import lemmatize, word_lemmas


def _read_rows(path: str | Path, n_cols: int, optional_last: bool = False) -> list[list[str]]:
    p = Path(path)
    if not p.exists():
        raise ResourceMissing(f"lexicon file not found: {p}")
    rows = []
    for raw in p.read_text(encoding="utf-8").splitlines():
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cols = line.split("\t")
        want = n_cols - 1 if optional_last else n_cols
        if len(cols) < want:
            raise ResourceMissing(f"malformed row in {p}: {line!r}")
        rows.append(cols)
    return rows


class SynonymLexicon:
    """Synonym rows plus the transitive closure over their groups.

    The closure (`representative`) treats two lemmas as equivalent when any
    chain of synonym rows connects them, regardless of part of speech.
    """

    def __init__(self) -> None:
        self._synonyms: dict[tuple[str, str], list[str]] = {}
        self._hypernyms: dict[str, str] = {}
        self._parent: dict[str, str] = {}

    @staticmethod
    def load(path: str | Path) -> "SynonymLexicon":
        lex = SynonymLexicon()
        for cols in _read_rows(path, 4, optional_last=True):
            lemma, pos = cols[0].strip().lower(), cols[1].strip().upper()
            syns = [s.strip().lower() for s in cols[2].split(",")
                    if s.strip() and s.strip() != "-"]
            lex._synonyms[(lemma, pos)] = syns
            for syn in syns:
                lex._union(lemma, syn)
                # Tokenizing a substituted synonym must land back in the same
                # group even when the suffix stripper shortens it.
                lex._union(syn, lemmatize(syn))
            lex._find(lemma)
            if len(cols) >= 4 and cols[3].strip():
                lex._hypernyms[lemma] = cols[3].strip().lower()
        return lex

    def _find(self, w: str) -> str:
        self._parent.setdefault(w, w)
        root = w
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[w] != root:
            self._parent[w], w = root, self._parent[w]
        return root

    def _union(self, a: str, b: str) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            # Deterministic: smaller string wins as root.
            lo, hi = sorted((ra, rb))
            self._parent[hi] = lo

    def link(self, a: str, b: str) -> None:
        """Join two lemmas into one equivalence group (used for hypernym
        links when building oracles)."""
        self._union(a, b)

    def synonyms(self, lemma: str, pos: str) -> list[str]:
        return list(self._synonyms.get((lemma.lower(), pos.upper()), []))

    def hypernym(self, lemma: str) -> str | None:
        return self._hypernyms.get(lemma.lower())

    def representative(self, lemma: str) -> str:
        w = lemma.lower()
        if w not in self._parent:
            return w
        return self._find(w)

    def entries(self) -> list[tuple[str, str]]:
        return sorted(self._synonyms)

    def clone(self) -> "SynonymLexicon":
        out = SynonymLexicon()
        out._synonyms = dict(self._synonyms)
        out._hypernyms = dict(self._hypernyms)
        out._parent = dict(self._parent)
        return out


class ParaphraseTable:
    def __init__(self, rows: dict[tuple[str, ...], list[tuple[str, float]]]):
        self._rows = rows

    @staticmethod
    def load(path: str | Path) -> "ParaphraseTable":
        rows: dict[tuple[str, ...], list[tuple[str, float]]] = {}
        for phrase, paraphrase, score in _read_rows(path, 3):
            key = tuple(word_lemmas(phrase))
            rows.setdefault(key, []).append((paraphrase.strip(), float(score)))
        for options in rows.values():
            options.sort(key=lambda pair: (-pair[1], pair[0]))
        return ParaphraseTable(rows)

    def paraphrases(self, lemmas: tuple[str, ...]) -> list[tuple[str, float]]:
        return list(self._rows.get(lemmas, []))


class WordVectors:
    def __init__(self, vectors: dict[str, tuple[float, ...]]):
        self._vectors = vectors

    @staticmethod
    def load(path: str | Path) -> "WordVectors":
        p = Path(path)
        if not p.exists():
            raise ResourceMissing(f"vector file not found: {p}")
        lines = [line for line in p.read_text(encoding="utf-8").splitlines() if line.strip()]
        width = len(lines[0].split()) if lines else 0
        vectors: dict[str, tuple[float, ...]] = {}
        for line in lines:
            token, *values = line.split()
            try:
                vectors[token.lower()] = tuple(map(float, values))
            except ValueError:
                values = None
            if values is None or len(values) + 1 != width:
                raise ResourceMissing(f"malformed row in {p}: {line!r}")
        return WordVectors(vectors)

    def get(self, token: str) -> tuple[float, ...] | None:
        return self._vectors.get(token.lower())

    @property
    def dim(self) -> int:
        return len(next(iter(self._vectors.values()), ()))


class Resources:
    __slots__ = ("synonyms", "paraphrases", "vectors")

    def __init__(self, synonyms: SynonymLexicon, paraphrases: ParaphraseTable,
                 vectors: WordVectors | None = None) -> None:
        self.synonyms = synonyms
        self.paraphrases = paraphrases
        self.vectors = vectors

    @staticmethod
    def load(synonyms_path: str | Path | None = None,
             paraphrases_path: str | Path | None = None,
             vectors_path: str | Path | None = None) -> "Resources":
        base = importlib_resources.files("symdrift") / "data"
        return Resources(
            synonyms=SynonymLexicon.load(synonyms_path or base / "synonyms.tsv"),
            paraphrases=ParaphraseTable.load(paraphrases_path or base / "paraphrases.tsv"),
            vectors=WordVectors.load(vectors_path) if vectors_path else None,
        )
