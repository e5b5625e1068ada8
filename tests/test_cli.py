"""CLI subcommands, exit codes, and artifact wiring."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from symdrift.diversify.pipeline import DiversifyConfig, diversify_problem
from symdrift.diversify.resources import Resources
from symdrift.harness.cli import EXIT_DATA, EXIT_OK, EXIT_REMOTE, EXIT_USAGE, main
from symdrift.harness.config import (
    SyntheticConfig,
    TranslatorConfig,
    read_config_file,
    synthetic_config_from,
    translator_config_from,
)
from symdrift.harness.datasets import load_dataset, save_dataset


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv: str) -> int:
    return main(list(argv))


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, workdir, capsys):
        assert run("frobnicate") == EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self, workdir):
        assert run("diversify") == EXIT_USAGE

    def test_missing_input_file_is_data_error(self, workdir, capsys):
        assert run("diversify", "--in", "absent.jsonl", "--out", "x.jsonl") == EXIT_DATA

    @pytest.mark.parametrize("command", ["diversify", "evaluate"])
    @pytest.mark.parametrize("field, value, text", [
        ("gold_concepts", [[0, 1]], "bad gold_concepts row [0, 1]"),
        ("provenance", {"kind": [[0, 1]]}, "bad provenance row [0, 1]"),
        ("sentences", "Anne is kind.", "sentences must be a list of strings"),
        ("options", "AB", "options must be a list of strings"),
        ("gold_concepts", ["0124"], "bad gold_concepts row '0124'"),
        ("gold_concepts", [[0, 1.7, 2, 5]], "bad gold_concepts row [0, 1.7, 2, 5]"),
        ("gold_concepts", [[0, True, 2, "kind"]], "bad gold_concepts row [0, True, 2, 'kind']"),
        ("gold_concepts", "0124", "gold_concepts must be a list of rows"),
        ("provenance", {"kind": [[0, 0, 4.0, "Anne"]]}, "bad provenance row [0, 0, 4.0, 'Anne']"),
        ("id", ["x"], "id must be a string or an integer, got ['x']"),
        ("id", None, "id must be a string or an integer, got None"),
        ("base_id", None, "base_id must be a string or an integer, got None"),
    ], ids=["gold_concepts", "provenance", "sentences", "options", "gold_concepts_string_row",
            "gold_concepts_float", "gold_concepts_bool", "gold_concepts_string",
            "provenance_float", "id_list", "id_null", "base_id_null"])
    def test_malformed_problem_line_is_data_error(self, workdir, capsys, command, field,
                                                  value, text):
        run("generate", "--n", "2", "--seed", "1", "--out", "p.jsonl")
        source = "p.jsonl"
        if field in ("provenance", "base_id"):
            run("diversify", "--in", "p.jsonl", "--out", "d.jsonl")
            source = "d.jsonl"
        first, second = Path(source).read_text().splitlines()
        bad = json.loads(second)
        bad[field] = value
        Path("bad.jsonl").write_text(first + "\n" + json.dumps(bad) + "\n")
        capsys.readouterr()
        assert run(command, "--in", "bad.jsonl", "--out", "out") == EXIT_DATA
        err = capsys.readouterr().err
        assert text in err and "(line 2)" in err
        assert not Path("out").exists()

    def test_integer_ids_load_as_text(self, workdir, capsys):
        run("generate", "--n", "2", "--seed", "1", "--out", "p.jsonl")
        rows = [json.loads(line) for line in Path("p.jsonl").read_text().splitlines()]
        for number, row in enumerate(rows):
            row["id"] = number
        Path("ints.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert run("diversify", "--in", "ints.jsonl", "--out", "d.jsonl") == EXIT_OK
        diversified = [json.loads(line) for line in Path("d.jsonl").read_text().splitlines()]
        assert [row["base_id"] for row in diversified] == ["0", "1"]
        for row in diversified:
            row["base_id"] = int(row["base_id"])
        Path("d_ints.jsonl").write_text("".join(json.dumps(row) + "\n" for row in diversified))
        assert run("evaluate", "--in", "d_ints.jsonl", "--translator", "gold",
                   "--out", "run") == EXIT_OK
        records = [json.loads(line) for line in Path("run/records.jsonl").read_text().splitlines()]
        assert [r["problem_id"] for r in records] == ["0", "1"]

    def test_remote_translator_without_endpoint(self, workdir, monkeypatch, capsys):
        monkeypatch.delenv("SYMDRIFT_LLM_ENDPOINT", raising=False)
        Path("p.jsonl").write_text(json.dumps({
            "id": "a", "sentences": ["Anne is kind."], "question": "Is Anne kind?",
            "answer": "true", "task_kind": "proofwriter"}) + "\n")
        code = run("evaluate", "--in", "p.jsonl", "--translator", "llm",
                   "--out", "rundir")
        assert code == EXIT_REMOTE

    @pytest.mark.parametrize("body", [b"[]", b'"hi"', b'{"text": "x", "usage": null}'],
                             ids=["list", "string", "null_usage"])
    def test_malformed_reply_is_remote_error(self, workdir, monkeypatch, capsys, body):
        """A reply that is JSON but not the protocol's object ends the run
        as a remote-service error, not a traceback."""
        import urllib.request

        from symdrift.harness import client

        monkeypatch.setenv("SYMDRIFT_LLM_ENDPOINT", "http://localhost:1/chat")
        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda request, timeout: io.BytesIO(body))
        monkeypatch.setattr(client, "BACKOFF_S", 0.0)
        Path("p.jsonl").write_text(json.dumps({
            "id": "a", "sentences": ["Anne is kind."], "question": "Is Anne kind?",
            "answer": "true", "task_kind": "proofwriter"}) + "\n")
        assert run("evaluate", "--in", "p.jsonl", "--translator", "llm",
                   "--out", "rundir") == EXIT_REMOTE
        assert "remote service error: endpoint failed after 3 attempts" \
            in capsys.readouterr().err

    def test_oracle_outage_is_remote_error(self, workdir, monkeypatch, capsys):
        from symdrift.harness import cli

        from .helpers import StubClient

        monkeypatch.setenv("SYMDRIFT_LLM_ENDPOINT", "http://localhost:1/chat")
        monkeypatch.setattr(cli, "HttpChatClient",
                            lambda endpoint, key: StubClient(["garbled"] * 100))
        run("generate", "--n", "3", "--seed", "1", "--out", "p.jsonl")
        Path("run.cfg").write_text("translator.oracle = llm\n")
        assert run("evaluate", "--in", "p.jsonl", "--translator", "naive",
                   "--mental", "on", "--config", "run.cfg", "--out", "rundir") == EXIT_REMOTE
        assert "unparseable equiv reply" in capsys.readouterr().err

    def test_vector_scorer_without_vector_file_is_data_error(self, workdir, capsys):
        run("generate", "--n", "2", "--seed", "4", "--out", "p.jsonl")
        for source in ("p.jsonl", "absent.jsonl"):
            assert run("diversify", "--in", source, "--scorer", "vectors",
                       "--out", "d.jsonl") == EXIT_DATA
            assert "resources.vectors" in capsys.readouterr().err
        assert not Path("d.jsonl").exists()
        Path("vectors.txt").write_text("anne 1 0\nkind 0 1\n")
        Path("run.cfg").write_text("resources.vectors = vectors.txt\n")
        assert run("diversify", "--in", "p.jsonl", "--scorer", "vectors",
                   "--config", "run.cfg", "--out", "d.jsonl") == EXIT_OK

    @pytest.mark.parametrize("rows, bad", [
        ("anne 1 0\nkind 0\n", "kind 0"),
        ("anne 1 0\nkind 0 x\n", "kind 0 x"),
    ], ids=["ragged", "not-a-number"])
    def test_malformed_vector_file_is_data_error(self, workdir, capsys, rows, bad):
        """A vector row with another width than the first, or a value that
        is not a number, is refused with the file and the row."""
        run("generate", "--n", "2", "--seed", "4", "--out", "p.jsonl")
        Path("vectors.txt").write_text(rows)
        Path("run.cfg").write_text("resources.vectors = vectors.txt\n")
        capsys.readouterr()
        assert run("diversify", "--in", "p.jsonl", "--scorer", "vectors",
                   "--config", "run.cfg", "--out", "d.jsonl") == EXIT_DATA
        assert f"data error: malformed row in vectors.txt: {bad!r}" in capsys.readouterr().err
        assert not Path("d.jsonl").exists()

    def test_remote_scorer_is_usage_error(self, workdir, capsys):
        run("generate", "--n", "2", "--seed", "4", "--out", "p.jsonl")
        assert run("diversify", "--in", "p.jsonl", "--scorer", "remote",
                   "--out", "d.jsonl") == EXIT_USAGE
        assert not Path("d.jsonl").exists()

    def test_theta_out_of_range_is_usage_error_before_the_input_is_read(
            self, workdir, monkeypatch, capsys):
        from symdrift.harness import cli

        def refuse(*args, **kwargs):
            raise AssertionError("input read before --theta was checked")

        Path("empty.jsonl").write_text("")
        monkeypatch.setattr(cli, "load_dataset", refuse)
        assert run("diversify", "--in", "empty.jsonl", "--theta", "1.5",
                   "--out", "o.jsonl") == EXIT_USAGE
        assert "error: theta must be in (0, 1], got 1.5" in capsys.readouterr().err
        assert not Path("o.jsonl").exists()

    @pytest.mark.parametrize("argv", [
        ("solve", "--records", "r.jsonl", "--problems", "p.jsonl"),
        ("evaluate", "--in", "p.jsonl"),
        ("sweep", "--in", "p.jsonl"),
    ], ids=lambda argv: argv[0])
    def test_misspelt_solver_is_usage_error_before_the_input_is_read(
            self, workdir, monkeypatch, capsys, argv):
        from symdrift.harness import cli

        def refuse(*args, **kwargs):
            raise AssertionError("input read before --solver was checked")

        for name in ("load_dataset", "read_records"):
            monkeypatch.setattr(cli, name, refuse)
        assert run(*argv, "--solver", "bogus", "--out", "out") == EXIT_USAGE
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not Path("out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_engine_not_paired_with_the_task_is_data_error(self, workdir, capsys, command):
        run("generate", "--n", "2", "--seed", "1", "--out", "p.jsonl")
        capsys.readouterr()
        assert run(command, "--in", "p.jsonl", "--solver", "csp", "--out", "out") == EXIT_DATA
        assert "solver 'csp' is not paired with 'proofwriter'" in capsys.readouterr().err

    def test_generate_zero_problems_is_usage_error(self, workdir, capsys):
        assert run("generate", "--n", "0", "--out", "p.jsonl") == EXIT_USAGE
        assert not Path("p.jsonl").exists()

    @pytest.mark.parametrize("plain", [5, 0])
    def test_sweep_refuses_diversified_input(self, workdir, capsys, plain):
        run("generate", "--n", "5", "--seed", "4", "--out", "p.jsonl")
        run("diversify", "--in", "p.jsonl", "--out", "d.jsonl")
        lines = Path("p.jsonl").read_text().splitlines()[:plain]
        lines += Path("d.jsonl").read_text().splitlines()
        Path("mixed.jsonl").write_text("\n".join(lines) + "\n")
        assert run("sweep", "--in", "mixed.jsonl", "--translator", "naive",
                   "--levels", "0,1.0", "--out", "curve.csv") == EXIT_DATA
        assert "is already diversified" in capsys.readouterr().err
        assert not Path("curve.csv").exists()

    def test_help_is_ok(self, workdir):
        assert run("--help") == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ("generate", "--n", "3"),
        ("diversify", "--in", "p.jsonl"),
        ("translate", "--in", "p.jsonl"),
        ("solve", "--records", "r.jsonl", "--problems", "p.jsonl"),
        ("evaluate", "--in", "p.jsonl"),
    ], ids=lambda argv: argv[0])
    def test_missing_out_fails_before_any_work(self, workdir, monkeypatch, capsys, argv):
        from symdrift.harness import cli

        def refuse(*args, **kwargs):
            raise AssertionError("input read before --out was checked")

        for name in ("load_dataset", "generate_synthetic", "read_records"):
            monkeypatch.setattr(cli, name, refuse)
        assert run(*argv) == EXIT_DATA
        assert "--out is required for this subcommand" in capsys.readouterr().err


class TestPipelineCommands:
    def test_generate_diversify_evaluate(self, workdir, capsys):
        assert run("generate", "--n", "4", "--seed", "1", "--out", "p.jsonl") == EXIT_OK
        assert run("diversify", "--in", "p.jsonl", "--out", "d.jsonl") == EXIT_OK
        assert run("evaluate", "--in", "d.jsonl", "--translator", "naive",
                   "--out", "run1") == EXIT_OK
        for name in ("config", "records.jsonl", "report", "traces.jsonl"):
            assert (workdir / "run1" / name).exists()
        report = json.loads((workdir / "run1" / "report").read_text())
        assert report["n_records"] == 4

    def test_translate_then_solve(self, workdir):
        run("generate", "--n", "3", "--seed", "2", "--out", "p.jsonl")
        assert run("translate", "--in", "p.jsonl", "--translator", "naive",
                   "--out", "records.jsonl") == EXIT_OK
        assert run("solve", "--records", "records.jsonl", "--problems", "p.jsonl",
                   "--out", "solved.jsonl") == EXIT_OK
        rows = [json.loads(l) for l in Path("solved.jsonl").read_text().splitlines()]
        assert all(row["verdict"] for row in rows)

    @pytest.mark.parametrize("flags", [
        ("--translator", "naive", "--mental", "off"),
        ("--translator", "naive", "--mental", "on"),
        ("--translator", "gold", "--solver", "resolution"),
        ("--translator", "gold", "--solver", "enumerate"),
        ("--translator", "split-adversary"),
    ])
    def test_translate_then_solve_reproduces_evaluate(self, workdir, capsys, flags):
        run("generate", "--n", "6", "--seed", "1", "--out", "p.jsonl")
        run("diversify", "--in", "p.jsonl", "--seed", "1", "--out", "d.jsonl")
        solver = flags[2:] if flags[2:3] == ("--solver",) else ()
        translate_flags = flags[:2] if solver else flags
        assert run("evaluate", "--in", "d.jsonl", *flags, "--out", "run") == EXIT_OK
        assert run("translate", "--in", "d.jsonl", *translate_flags,
                   "--out", "t.jsonl") == EXIT_OK
        assert run("solve", "--records", "t.jsonl", "--problems", "d.jsonl", *solver,
                   "--out", "s.jsonl") == EXIT_OK
        assert Path("s.jsonl").read_bytes() == Path("run/records.jsonl").read_bytes()
        assert run("solve", "--records", "s.jsonl", "--problems", "d.jsonl", *solver,
                   "--out", "s2.jsonl") == EXIT_OK
        assert Path("s2.jsonl").read_bytes() == Path("s.jsonl").read_bytes()

    def test_translate_records_missing_gold_as_parse_error(self, workdir, capsys):
        Path("p.jsonl").write_text(json.dumps({
            "id": "a", "sentences": ["Anne is kind."], "question": "Is Anne kind?",
            "answer": "true", "task_kind": "proofwriter"}) + "\n")
        assert run("translate", "--in", "p.jsonl", "--translator", "gold",
                   "--out", "t.jsonl") == EXIT_OK
        row = json.loads(Path("t.jsonl").read_text())
        assert row["program"] is None and "lacks gold logic" in row["parse_error"]

    def test_gold_resolution_records_are_pinned(self, workdir, capsys):
        """`records.jsonl` stores each verdict's `steps`, so any change to
        the prover's clause order, dedup key or subsumption shows here."""
        run("generate", "--n", "60", "--seed", "1", "--out", "p.jsonl")
        assert run("evaluate", "--in", "p.jsonl", "--translator", "gold",
                   "--solver", "resolution", "--seed", "1", "--out", "run") == EXIT_OK
        digest = hashlib.sha256(Path("run/records.jsonl").read_bytes()).hexdigest()
        assert digest == "fa5a6bb55ab3dec094cb810253bcb14c99142ac8eea7c809ececa2c12cf27c57"

    def test_gold_enumerate_records_are_pinned(self, workdir, capsys):
        """Plain problems are wrapped as intensity-0 diversifications before
        the gold program is solved over a small Herbrand domain; the concept
        sites that wrap finds land in each record's SDS fields."""
        Path("oracle.cfg").write_text("synthetic.n_constants = 3\n"
                                      "synthetic.n_predicates = 5\nsynthetic.depth = 3\n")
        run("generate", "--n", "60", "--seed", "1", "--config", "oracle.cfg",
            "--out", "p.jsonl")
        assert run("evaluate", "--in", "p.jsonl", "--translator", "gold",
                   "--solver", "enumerate", "--seed", "1", "--out", "run") == EXIT_OK
        digest = hashlib.sha256(Path("run/records.jsonl").read_bytes()).hexdigest()
        assert digest == "ab67e69ad363a5a3a1e9f2f2fb35720c75618a9809257b48be43deb020217d0f"

    @pytest.mark.parametrize("mental, digests", [
        ("on", {"records.jsonl": "e540979beaa4b70e17e2670056b290d27b552f5895c62ecd7664bc1942ac32c1",
                "traces.jsonl": "1c45725c794218c1dd8242ee1c0b1100f43b7bca287f9238ec01325910552bd7"}),
        ("off", {"records.jsonl": "e4cf561ff27638676892af9ee2dd615f92acdbfe0ecdff50d016a26f58105383"}),
    ])
    def test_naive_records_are_pinned(self, workdir, capsys, mental, digests):
        """Template proposals, table routing, the span ledger and alignment
        all land in these files, so a moved byte on the naive path shows here."""
        run("generate", "--n", "60", "--seed", "1", "--out", "p.jsonl")
        run("diversify", "--in", "p.jsonl", "--intensity", "full", "--seed", "1",
            "--out", "d.jsonl")
        assert run("evaluate", "--in", "d.jsonl", "--translator", "naive",
                   "--mental", mental, "--seed", "1", "--out", "run") == EXIT_OK
        for name, digest in digests.items():
            assert hashlib.sha256(Path("run", name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("solver, digest", [
        ("cwa", "8d9bbdafe279501bdf6a3271b534a02cb823844b6873e3cd93b388b5b5a54799"),
        ("resolution", "917639359621deaa7adc275a0cdc411c9f663248eb01cce33fd36704884067c3"),
    ])
    def test_split_adversary_records_are_pinned(self, workdir, capsys, solver, digest):
        """Per-surface symbol names, the rebuilt program and its ledger all
        land in `records.jsonl`, as do the verdict's `steps`."""
        run("generate", "--n", "60", "--seed", "1", "--out", "p.jsonl")
        run("diversify", "--in", "p.jsonl", "--intensity", "full", "--seed", "1",
            "--out", "d.jsonl")
        assert run("evaluate", "--in", "d.jsonl", "--translator", "split-adversary",
                   "--solver", solver, "--seed", "1", "--out", "run") == EXIT_OK
        assert hashlib.sha256(Path("run/records.jsonl").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("mental", ["off", "on"])
    def test_non_horn_translation_is_a_parse_error(self, workdir, capsys, mental):
        """A closed-world program with a negated fact fails its world's check:
        that problem's record has a parse error and the run goes on."""
        rows = [
            {"id": "neg", "sentences": ["Anne is not kind.", "All kind people are smart.",
                                        "Bob is kind."],
             "question": "Is Bob smart?", "answer": "true", "task_kind": "proofwriter"},
            {"id": "ok", "sentences": ["Bob is kind.", "All kind people are smart."],
             "question": "Is Bob smart?", "answer": "true", "task_kind": "proofwriter"},
        ]
        Path("p.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
        flags = ("--translator", "naive", "--mental", mental)
        assert run("evaluate", "--in", "p.jsonl", *flags, "--out", "run") == EXIT_OK
        assert run("translate", "--in", "p.jsonl", *flags, "--out", "t.jsonl") == EXIT_OK
        for path in ("run/records.jsonl", "t.jsonl"):
            neg, ok = (json.loads(line) for line in Path(path).read_text().splitlines())
            assert neg["program"] is None
            assert neg["parse_error"] == "premise is not a fact or Horn implication: ~Kind(Anne)"
            assert ok["parse_error"] is None and ok["program"] is not None
        report = json.loads(Path("run/report").read_text())
        assert report["histogram"]["ParseError"] == 1
        assert report["histogram"]["Correct"] == 1

    def test_diversify_output_is_pinned(self, workdir, capsys):
        """Any change to tokenizing, lemmatizing, similarity scoring or rule
        rewriting that moves a byte of the diversified set shows here."""
        run("generate", "--n", "60", "--seed", "1", "--out", "p.jsonl")
        assert run("diversify", "--in", "p.jsonl", "--intensity", "full",
                   "--seed", "1", "--out", "d.jsonl") == EXIT_OK
        digest = hashlib.sha256(Path("d.jsonl").read_bytes()).hexdigest()
        assert digest == "36dea6bbc27749943750393afe5d80265c95106b34b8ba229b944bede417ab7d"

    def test_passthrough_output_is_pinned(self, workdir, capsys):
        """At intensity 0 the text is kept and the provenance lists the
        rewrite sites: any change to concept windows, their precedence or
        the no-repeats flag moves a byte here."""
        run("generate", "--n", "60", "--seed", "1", "--out", "p.jsonl")
        assert run("diversify", "--in", "p.jsonl", "--intensity", "0",
                   "--seed", "1", "--out", "d.jsonl") == EXIT_OK
        digest = hashlib.sha256(Path("d.jsonl").read_bytes()).hexdigest()
        assert digest == "3e6c8225a4f7856781dfbfcf63cca55e6bb05e09b4896b047c3bff81b2e7fb34"

    @pytest.mark.parametrize("seed, digest", [
        (1, "993107cf39afa1285c9a9aaa6de1d8e2ed7e25e5dae34cbcff14c5df501607bc"),
        (7, "c78593c7254f7db3fff791fec554f3efbaea3183d7bd16e8fff6cb93aab53a82"),
    ])
    def test_generate_output_is_pinned(self, workdir, capsys, seed, digest):
        """Each sentence, its gold formula and its gold concept spans come
        from one fill of a world form; a change to the forms, the fill or
        the order of draws moves a byte here."""
        assert run("generate", "--n", "1000", "--seed", str(seed), "--out", "p.jsonl") == EXIT_OK
        assert hashlib.sha256(Path("p.jsonl").read_bytes()).hexdigest() == digest

    def test_diversify_output_does_not_depend_on_seed(self, workdir, capsys):
        run("generate", "--n", "20", "--seed", "1", "--out", "p.jsonl")
        for seed in ("1", "2"):
            assert run("diversify", "--in", "p.jsonl", "--seed", seed,
                       "--out", f"d{seed}.jsonl") == EXIT_OK
        assert Path("d1.jsonl").read_bytes() == Path("d2.jsonl").read_bytes()
        capsys.readouterr()
        assert run("diversify", "--help") == EXIT_OK
        assert "output does not depend on it" in " ".join(capsys.readouterr().out.split())

    def test_sds_command(self, workdir, capsys):
        run("generate", "--n", "3", "--seed", "3", "--out", "p.jsonl")
        run("diversify", "--in", "p.jsonl", "--out", "d.jsonl")
        run("evaluate", "--in", "d.jsonl", "--translator", "naive", "--out", "run1")
        capsys.readouterr()
        assert run("sds", "--records", "run1/records.jsonl") == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert "sds" in payload and payload["concepts"] > 0

    def test_sds_command_on_an_unmeasured_set(self, workdir, capsys):
        """Records whose concepts were all left unaligned have no dispersion:
        `sds` prints null, as `evaluate`'s report does, and counts every
        concept as dropped."""
        run("generate", "--n", "3", "--seed", "3", "--out", "p.jsonl")
        run("diversify", "--in", "p.jsonl", "--out", "d.jsonl")
        run("evaluate", "--in", "d.jsonl", "--translator", "naive", "--out", "run1")
        rows = [json.loads(line) for line in Path("run1/records.jsonl").read_text().splitlines()]
        for row in rows:
            row["alignment"] = {concept: [] for concept in row["alignment"]}
        Path("unaligned.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        concepts = sum(len(row["alignment"]) for row in rows)
        assert concepts > 0
        capsys.readouterr()
        assert run("sds", "--records", "unaligned.jsonl", "--out", "sds.json") == EXIT_OK
        expected = {"sds": None, "concepts": concepts, "drifted_concepts": 0,
                    "dropped_concepts": concepts}
        assert json.loads(capsys.readouterr().out) == expected
        assert json.loads(Path("sds.json").read_text()) == expected

    def test_sweep_csv(self, workdir):
        run("generate", "--n", "3", "--seed", "4", "--out", "p.jsonl")
        assert run("sweep", "--in", "p.jsonl", "--translator", "naive",
                   "--levels", "0,1.0", "--out", "curve.csv") == EXIT_OK
        lines = Path("curve.csv").read_text().splitlines()
        assert lines[0] == "level,k_mean,accuracy,sds"
        assert len(lines) == 3

    def test_intensity_grammar_shared_by_diversify_and_sweep(self, workdir, capsys):
        run("generate", "--n", "6", "--seed", "4", "--out", "p.jsonl")
        assert run("diversify", "--in", "p.jsonl", "--intensity", "1.0",
                   "--out", "d.jsonl") == EXIT_OK
        rows = [json.loads(l) for l in Path("d.jsonl").read_text().splitlines()]
        diversify_k = sum(row["intensity"] for row in rows) / len(rows)
        assert run("sweep", "--in", "p.jsonl", "--translator", "naive",
                   "--levels", "1.0", "--out", "curve.csv") == EXIT_OK
        level, sweep_k = Path("curve.csv").read_text().splitlines()[1].split(",")[:2]
        assert level == "1.0"
        assert float(sweep_k) == diversify_k > 1

    @pytest.mark.parametrize("argv", [
        ("evaluate", "--translator", "naive", "--mental", "on", "--out", "run"),
        ("sweep", "--translator", "naive", "--mental", "on", "--levels", "0,0.5,1.0",
         "--out", "curve.csv"),
    ], ids=["evaluate", "sweep"])
    def test_lexicons_load_once_per_run(self, workdir, monkeypatch, argv):
        """A run over plain problems reads the lexicons once, in the CLI,
        however many problems it normalizes or levels it rewrites at."""
        run("generate", "--n", "6", "--seed", "1", "--out", "p.jsonl")
        loads = []
        load = Resources.load

        def counting_load(*args, **kwargs):
            loads.append(args)
            return load(*args, **kwargs)

        monkeypatch.setattr(Resources, "load", staticmethod(counting_load))
        assert run(argv[0], "--in", "p.jsonl", *argv[1:]) == EXIT_OK
        assert len(loads) == 1

    def test_library_config_reads_the_cli_intensity(self, workdir, capsys):
        """`DiversifyConfig(intensity=0.5)` gives what `diversify
        --intensity 0.5` gives, problem for problem."""
        run("generate", "--n", "12", "--seed", "4", "--out", "p.jsonl")
        assert run("diversify", "--in", "p.jsonl", "--intensity", "0.5",
                   "--out", "d.jsonl") == EXIT_OK
        cfg = DiversifyConfig(intensity=0.5, resources=Resources.load())
        save_dataset("lib.jsonl", [diversify_problem(p, cfg) for p in load_dataset("p.jsonl")])
        cli_rows = Path("d.jsonl").read_text().splitlines()
        assert Path("lib.jsonl").read_text().splitlines() == cli_rows
        assert 0 < sum(json.loads(row)["intensity"] for row in cli_rows) < \
            sum(len(json.loads(row)["problem"]["sentences"]) for row in cli_rows)

    @pytest.mark.parametrize("argv", [
        ("diversify", "--intensity", "1.5"),
        ("diversify", "--intensity", "-1"),
        ("diversify", "--intensity", "half"),
        ("sweep", "--levels", "0,2.0"),
        ("sweep", "--levels", "0,,1"),
    ])
    def test_bad_intensity_is_usage_error(self, workdir, argv):
        run("generate", "--n", "2", "--seed", "4", "--out", "p.jsonl")
        assert run(*argv, "--in", "p.jsonl", "--out", "out") == EXIT_USAGE

    def test_compare_and_export(self, workdir, capsys):
        run("generate", "--n", "4", "--seed", "5", "--out", "p.jsonl")
        run("diversify", "--in", "p.jsonl", "--out", "d.jsonl")
        run("evaluate", "--in", "d.jsonl", "--translator", "split-adversary",
            "--out", "before")
        run("evaluate", "--in", "d.jsonl", "--translator", "naive",
            "--mental", "on", "--out", "after")
        capsys.readouterr()
        assert run("compare", "--before", "before", "--after", "after") == EXIT_OK
        counts = json.loads(capsys.readouterr().out)
        assert sum(counts.values()) >= 0
        assert run("export-sft", "--run", "after", "--out", "sft.jsonl") == EXIT_OK
        assert Path("sft.jsonl").exists()

    def test_determinism_across_invocations(self, workdir):
        run("generate", "--n", "4", "--seed", "6", "--out", "p.jsonl")
        run("diversify", "--in", "p.jsonl", "--out", "d.jsonl")
        run("evaluate", "--in", "d.jsonl", "--translator", "naive", "--out", "runA")
        run("evaluate", "--in", "d.jsonl", "--translator", "naive", "--out", "runB")
        assert (workdir / "runA" / "report").read_bytes() == \
            (workdir / "runB" / "report").read_bytes()

    def test_config_file_drives_generation(self, workdir):
        Path("run.cfg").write_text("synthetic.n_problems = 7\nsynthetic.depth = 3\n")
        assert run("generate", "--config", "run.cfg", "--out", "p.jsonl") == EXIT_OK
        assert len(Path("p.jsonl").read_text().splitlines()) == 7
        assert run("generate", "--config", "run.cfg", "--n", "2", "--out", "p.jsonl") == EXIT_OK
        assert len(Path("p.jsonl").read_text().splitlines()) == 2


@pytest.fixture(scope="module")
def naive_runs(tmp_path_factory):
    """The 60-problem seed-1 set, fully diversified, evaluated by the naive
    translator without and with the table; each run's stdout is kept."""
    root = tmp_path_factory.mktemp("naive_runs")
    stdout = {}

    def quiet(*argv: str) -> str:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert run(*argv) == EXIT_OK
        return buffer.getvalue()

    quiet("generate", "--n", "60", "--seed", "1", "--out", str(root / "p.jsonl"))
    quiet("diversify", "--in", str(root / "p.jsonl"), "--intensity", "full",
          "--seed", "1", "--out", str(root / "d.jsonl"))
    for mental in ("off", "on"):
        stdout[mental] = quiet("evaluate", "--in", str(root / "d.jsonl"),
                               "--translator", "naive", "--mental", mental,
                               "--seed", "1", "--out", str(root / f"run_{mental}"))
    return root, stdout


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestRunLayerPins:
    """The writers of a run's report and config, of `evaluate`'s text report,
    and of the `sds`, `compare`, `sweep` and `export-sft` outputs."""

    def test_mental_run_report_and_config_are_pinned(self, naive_runs):
        root, _ = naive_runs
        assert _sha256(root / "run_on" / "report") == \
            "20fcc2354eec376e00469d4c5065b6f75005d2f458379074e01e84c9c7bb178c"
        assert _sha256(root / "run_on" / "config") == \
            "84b5d8fba8682c7152fc37753b0576546ae440a782a679747d175733808bbc41"

    def test_evaluate_text_report_is_pinned(self, naive_runs):
        _, stdout = naive_runs
        assert hashlib.sha256(stdout["on"].encode("utf-8")).hexdigest() == \
            "db603fbcbb0e9adac8f5b81f40f521a859164430b552739c263e810af5fdb377"

    @pytest.mark.parametrize("argv, digest", [
        (("sds", "--records", "{root}/run_on/records.jsonl"),
         "b34fc580aa4d8d38691adfaade5a9029fc48e78c6665765a65c2c1bc9a422abc"),
        (("compare", "--before", "{root}/run_off", "--after", "{root}/run_on"),
         "cff1f9fd9d771b1253e68d806ee825ce910e85b00f6673b85e54a14b576d27e0"),
        (("sweep", "--in", "{root}/p.jsonl", "--translator", "naive", "--levels", "0,1.0"),
         "5f41fd91f6e9d17f449228c40097978eb2d855a1ffbcfeffad07c6ed1ef216a6"),
    ], ids=["sds", "compare", "sweep"])
    def test_printed_output_is_pinned(self, workdir, capsys, naive_runs, argv, digest):
        """What these subcommands print is what they write to `--out`."""
        root, _ = naive_runs
        capsys.readouterr()
        assert run(*(arg.format(root=root) for arg in argv), "--out", "out") == EXIT_OK
        assert capsys.readouterr().out == Path("out").read_text(encoding="utf-8")
        assert _sha256(Path("out")) == digest

    def test_export_sft_output_is_pinned(self, workdir, capsys, naive_runs):
        root, _ = naive_runs
        assert run("export-sft", "--run", str(root / "run_on"), "--out", "sft.jsonl") == EXIT_OK
        assert _sha256(Path("sft.jsonl")) == \
            "4acfe44fd78ddafbc026e7665d1feef13a46f8070c122cba5329c45537b3978f"


class TestSettingsAndInputs:
    """A flag sets its config key, a config key is checked, and a JSONL input
    that is missing or malformed is a data error in every subcommand."""

    @staticmethod
    def _run_config(run_dir: str) -> dict[str, str]:
        lines = Path(run_dir, "config").read_text().splitlines()
        return dict(line.split(" = ", 1) for line in lines)

    def test_config_keys_drive_evaluate_and_flags_beat_them(self, workdir, capsys):
        run("generate", "--n", "3", "--seed", "1", "--out", "p.jsonl")
        Path("run.cfg").write_text("translator.kind = naive\ntranslator.mental = on\n")
        assert run("evaluate", "--in", "p.jsonl", "--config", "run.cfg",
                   "--out", "by_file") == EXIT_OK
        assert run("evaluate", "--in", "p.jsonl", "--config", "run.cfg",
                   "--translator", "gold", "--mental", "off", "--out", "by_flags") == EXIT_OK
        by_file, by_flags = self._run_config("by_file"), self._run_config("by_flags")
        assert (by_file["translator.kind"], by_file["translator.mental"]) == ("naive", "on")
        assert (by_flags["translator.kind"], by_flags["translator.mental"]) == ("gold", "off")

    def test_llm_oracle_sends_the_run_temperature(self, workdir, monkeypatch, capsys):
        from symdrift.harness import cli

        from .helpers import StubClient

        stub = StubClient(responder=lambda prompt: "no")
        monkeypatch.setenv("SYMDRIFT_LLM_ENDPOINT", "http://localhost:1/chat")
        monkeypatch.setattr(cli, "HttpChatClient", lambda endpoint, key: stub)
        run("generate", "--n", "3", "--seed", "1", "--out", "p.jsonl")
        Path("run.cfg").write_text("translator.oracle = llm\ntranslator.temperature = 0.7\n")
        assert run("evaluate", "--in", "p.jsonl", "--translator", "naive", "--mental", "on",
                   "--config", "run.cfg", "--out", "run") == EXIT_OK
        assert stub.temperatures and set(stub.temperatures) == {0.7}
        assert self._run_config("run")["translator.temperature"] == "0.7"

    def test_config_defaults_are_the_dataclass_defaults(self):
        assert translator_config_from({}) == TranslatorConfig()
        for seed in (0, 3):
            assert synthetic_config_from({}, seed) == SyntheticConfig(seed=seed)
        assert translator_config_from({"translator.mental": "on", "translator.prompt_dir": "",
                                       "translator.shots": "2"}) == \
            TranslatorConfig(mental=True, shots=2)

    def test_unknown_config_key_is_data_error(self, workdir, capsys):
        Path("run.cfg").write_text("# misspelt\nsynthetic.n_problem = 3\n")
        assert run("generate", "--config", "run.cfg", "--out", "p.jsonl") == EXIT_DATA
        err = capsys.readouterr().err
        assert "synthetic.n_problem" in err and "(line 2)" in err
        assert not Path("p.jsonl").exists()

    @pytest.mark.parametrize("command", ["sds", "solve"])
    def test_missing_or_malformed_records_are_data_errors(self, workdir, capsys, command):
        run("generate", "--n", "2", "--seed", "1", "--out", "p.jsonl")
        run("translate", "--in", "p.jsonl", "--out", "t.jsonl")
        first = Path("t.jsonl").read_text().splitlines()[0]
        Path("bad.jsonl").write_text(first + "\n{not json\n")
        extra = ("--problems", "p.jsonl", "--out", "s.jsonl") if command == "solve" else ()
        capsys.readouterr()
        assert run(command, "--records", "absent.jsonl", *extra) == EXIT_DATA
        assert "absent.jsonl" in capsys.readouterr().err
        assert run(command, "--records", "bad.jsonl", *extra) == EXIT_DATA
        assert "(line 2)" in capsys.readouterr().err
        assert not Path("s.jsonl").exists()

    def test_derivations_config_key_is_refused(self, workdir, capsys):
        """The derivational level and its lexicon file are gone, so a
        well-formed derivations file is refused like any unknown key."""
        run("generate", "--n", "2", "--seed", "1", "--out", "p.jsonl")
        Path("derivations.tsv").write_text("kind\tADJ\tNOUN\tkindness\n")
        Path("run.cfg").write_text("resources.derivations = derivations.tsv\n")
        capsys.readouterr()
        assert run("evaluate", "--in", "p.jsonl", "--config", "run.cfg",
                   "--out", "run") == EXIT_DATA
        assert "unknown config key 'resources.derivations'" in capsys.readouterr().err
        assert not Path("run").exists()

    @pytest.mark.parametrize("mental", ["off", "on"])
    def test_shows_premise_is_a_parse_error(self, workdir, capsys, mental):
        """The naive reader reads no "X shows A." form."""
        row = {"id": "shows", "sentences": ["Anne shows kindness."],
               "question": "Is Anne kind?", "answer": "true", "task_kind": "proofwriter"}
        Path("p.jsonl").write_text(json.dumps(row) + "\n")
        assert run("evaluate", "--in", "p.jsonl", "--translator", "naive",
                   "--mental", mental, "--out", "run") == EXIT_OK
        (record,) = (json.loads(line) for line in Path("run/records.jsonl").read_text().splitlines())
        assert record["program"] is None
        assert record["parse_error"] == "no template matches unit 0: 'Anne shows kindness.'"

    def test_llm_oracle_without_the_table_needs_no_endpoint(self, workdir, monkeypatch, capsys):
        monkeypatch.delenv("SYMDRIFT_LLM_ENDPOINT", raising=False)
        run("generate", "--n", "2", "--seed", "1", "--out", "p.jsonl")
        Path("run.cfg").write_text("translator.oracle = llm\n")
        assert run("evaluate", "--in", "p.jsonl", "--translator", "naive", "--mental", "off",
                   "--config", "run.cfg", "--out", "run") == EXIT_OK
        assert self._run_config("run")["translator.oracle"] == "llm"

    def test_json_line_that_is_not_a_record_is_data_error(self, workdir, capsys):
        Path("r.jsonl").write_text('{}\n')
        assert run("sds", "--records", "r.jsonl") == EXIT_DATA
        err = capsys.readouterr().err
        assert "missing field 'problem_id'" in err and "(line 1)" in err
        Path("run").mkdir()
        Path("run", "traces.jsonl").write_text(
            '{"correct": false}\n{"correct": true, "table": "", "program": "p"}\n')
        assert run("export-sft", "--run", "run", "--out", "sft.jsonl") == EXIT_DATA
        err = capsys.readouterr().err
        assert "missing field 'instruction'" in err and "(line 2)" in err
        assert not Path("sft.jsonl").exists()

    def test_mental_in_config_file_is_on_or_off(self, workdir, capsys):
        run("generate", "--n", "2", "--seed", "1", "--out", "p.jsonl")
        Path("run.cfg").write_text("translator.kind = naive\ntranslator.mental = true\n")
        capsys.readouterr()
        assert run("evaluate", "--in", "p.jsonl", "--config", "run.cfg",
                   "--out", "run") == EXIT_DATA
        err = capsys.readouterr().err
        assert "translator.mental" in err and "(line 2)" in err
        assert not Path("run").exists()

    @pytest.mark.parametrize("command", ["generate", "diversify", "evaluate", "sds",
                                         "compare", "export-sft"])
    @pytest.mark.parametrize("line, text", [
        ("translator.shots = many",
         "translator.shots: invalid literal for int() with base 10: 'many'"),
        ("translator.mental = maybe", "translator.mental: expected 'on' or 'off', got 'maybe'"),
        ("synthetic.negation_rate = some",
         "synthetic.negation_rate: could not convert string to float: 'some'"),
        ("synthetic.depth = 9", "synthetic.depth: depth must be within 1..5"),
        ("translator.kind = bogus", "translator.kind: unknown translator kind 'bogus'"),
    ], ids=["int", "flag", "float", "depth_range", "kind_range"])
    def test_config_value_that_does_not_read_is_data_error(self, workdir, capsys, command,
                                                           line, text):
        """A value is read as its key's type and range-checked by its settings
        class when the file is read, so every subcommand refuses it alike,
        naming the key and the line."""
        run("generate", "--n", "2", "--seed", "1", "--out", "p.jsonl")
        run("evaluate", "--in", "p.jsonl", "--translator", "naive", "--out", "run")
        Path("run.cfg").write_text(f"# settings\n{line}\n")
        argv = {"generate": ("generate",),
                "diversify": ("diversify", "--in", "p.jsonl"),
                "evaluate": ("evaluate", "--in", "p.jsonl"),
                "sds": ("sds", "--records", "run/records.jsonl"),
                "compare": ("compare", "--before", "run", "--after", "run"),
                "export-sft": ("export-sft", "--run", "run")}[command]
        capsys.readouterr()
        assert run(*argv, "--config", "run.cfg", "--out", "out") == EXIT_DATA
        err = capsys.readouterr().err
        assert text in err and "(line 2)" in err
        assert not Path("out").exists()

    @pytest.mark.parametrize("command", ["translate", "evaluate", "sweep"])
    @pytest.mark.parametrize("kind", ["gold", "split-adversary"])
    @pytest.mark.parametrize("source", ["flags", "file"])
    def test_mental_with_a_translator_that_reads_no_table_is_usage_error(
            self, workdir, capsys, command, kind, source):
        """`gold` and `split-adversary` take no oracle, so `--mental on` would
        change a run's config but none of its records: the pair is refused
        before the input is read, though each key passes its own check."""
        pair = (f"translator.kind = {kind}", "translator.mental = on")
        Path("run.cfg").write_text("\n".join(pair) + "\n")
        flags = (("--translator", kind, "--mental", "on") if source == "flags"
                 else ("--config", "run.cfg"))
        assert read_config_file("run.cfg") == {"translator.kind": kind, "translator.mental": "on"}
        assert run(command, "--in", "absent.jsonl", *flags, "--out", "out") == EXIT_USAGE
        assert f"mental applies only to the naive and llm translators, not '{kind}'" \
            in capsys.readouterr().err
        assert not Path("out").exists()
        with pytest.raises(ValueError, match="mental applies only"):
            TranslatorConfig(kind=kind, mental=True)

    @pytest.mark.parametrize("argv, text", [
        (("evaluate", "--in", "p.jsonl", "--translator", "bogus"),
         "unknown translator kind 'bogus'"),
        (("generate", "--n", "0"), "all counts must be positive"),
    ], ids=["translator", "n"])
    def test_flag_value_out_of_range_is_usage_error(self, workdir, capsys, argv, text):
        run("generate", "--n", "2", "--seed", "1", "--out", "p.jsonl")
        capsys.readouterr()
        assert run(*argv, "--out", "out") == EXIT_USAGE
        assert text in capsys.readouterr().err
        assert not Path("out").exists()

    @pytest.mark.parametrize("command", ["sds", "solve", "compare"])
    @pytest.mark.parametrize("rows, text", [
        ([[0, 1.5, 2, "X"], "0124"], "bad span_symbols row [0, 1.5, 2, 'X']"),
        (["0124"], "bad span_symbols row '0124'"),
        ([[0, True, 2, "X"]], "bad span_symbols row [0, True, 2, 'X']"),
        ("0124", "span_symbols must be a list of rows"),
    ], ids=["float", "string_row", "bool", "string"])
    def test_malformed_span_symbols_are_data_errors(self, workdir, capsys, command, rows,
                                                    text):
        """A record's span ledger is read as the problem span fields are:
        three ints, then a string."""
        run("generate", "--n", "2", "--seed", "1", "--out", "p.jsonl")
        run("evaluate", "--in", "p.jsonl", "--translator", "naive", "--out", "run")
        first, second = Path("run/records.jsonl").read_text().splitlines()
        bad = json.loads(second)
        bad["span_symbols"] = rows
        Path("bad").mkdir()
        Path("bad/records.jsonl").write_text(first + "\n" + json.dumps(bad) + "\n")
        argv = {"sds": ("sds", "--records", "bad/records.jsonl"),
                "solve": ("solve", "--records", "bad/records.jsonl", "--problems", "p.jsonl"),
                "compare": ("compare", "--before", "run", "--after", "bad")}[command]
        capsys.readouterr()
        assert run(*argv, "--out", "out") == EXIT_DATA
        err = capsys.readouterr().err
        assert text in err and "(line 2)" in err
        assert not Path("out").exists()

    @pytest.mark.parametrize("again", [False, True])
    def test_loaded_input_is_unfrozen_when_main_returns(self, workdir, capsys, monkeypatch,
                                                        again):
        """The input and resources a command freezes out of the collector
        are handed back to it on success, and on a data error raised after
        the freeze (diversifying a diversified set)."""
        import gc

        run("generate", "--n", "2", "--seed", "1", "--out", "p.jsonl")
        if again:
            run("diversify", "--in", "p.jsonl", "--out", "p.jsonl")
        frozen = []
        real_freeze = gc.freeze

        def freeze():
            real_freeze()
            frozen.append(gc.get_freeze_count())

        monkeypatch.setattr(gc, "freeze", freeze)
        code = run("diversify", "--in", "p.jsonl", "--out", "d.jsonl")
        assert code == (EXIT_DATA if again else EXIT_OK)
        assert len(frozen) == 1 and frozen[0] > 0
        assert gc.get_freeze_count() == 0
