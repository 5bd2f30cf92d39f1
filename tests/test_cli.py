"""Command-line front end: reports, exit codes, dumps."""

import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PROGRAMS_DIR
from nonterm import cli, detect
from nonterm.cli import RunConfig, main, run
from nonterm.program import DerivationStatus, parse_program
from nonterm.terms import Symbol, Var


def run_cli(*inputs, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    config = RunConfig(inputs=tuple(Path(i) for i in inputs), **kwargs)
    code = run(config, out, err)
    return code, out.getvalue(), err.getvalue()


class TestCountRelations:
    """The `relations` column counts the distinct root symbols of rule heads."""

    def test_running_example(self, ex_program):
        assert len(ex_program.head_symbols()) == 4

    def test_single_fact(self):
        assert len(parse_program("p(0).").head_symbols()) == 1

    def test_counts_heads_not_symbols(self):
        p = parse_program("p(X) :- q(s(X)).")
        assert len(p.head_symbols()) == 1


class TestNameTables:
    def test_a_second_pass_adds_no_names(self):
        # Symbols and variables are interned for the life of the process,
        # so a pass must reuse the names the one before it made: program
        # names, and the fresh names every search draws from one sequence.
        paths = sorted(PROGRAMS_DIR.glob("*.pl"))
        config = RunConfig(inputs=tuple(paths))

        def one_pass():
            for path in paths:
                cli.analyze_file(path, config, io.StringIO())
            return len(Symbol._table), len(Var._table)

        assert one_pass() == one_pass()


class TestNoCycles:
    def test_a_pass_leaves_no_cyclic_garbage(self):
        # Every object a search makes is freed by reference counting, so
        # the cyclic collector has nothing to pause queries for.  The
        # settings cover the proved, fixpoint, multi-slot, validation and
        # trace paths.
        paths = sorted(PROGRAMS_DIR.glob("*.pl"))
        configs = [RunConfig(inputs=()), RunConfig(inputs=(), validate_steps=50, trace=True)]

        def one_pass():
            for config in configs:
                for path in paths:
                    cli.analyze_file(path, config, io.StringIO())

        one_pass()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            one_pass()
            assert gc.collect() == 0
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()


class TestRun:
    def test_single_proven_file(self):
        code, out, err = run_cli(PROGRAMS_DIR / "while-gt-add.pl")
        assert code == 0
        assert "while-gt-add (8, 4)" in out
        assert "while(s(s(0)),s(0))" in out
        assert "Proven" in out

    def test_unknown_file_shows_question_mark(self):
        code, out, _ = run_cli(PROGRAMS_DIR / "islist-grow.pl")
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("islist-grow")][0]
        assert "?" in row and "Unknown" in row

    def test_corpus_directory(self):
        code, out, _ = run_cli(PROGRAMS_DIR)
        assert code == 0
        lines = out.splitlines()
        # lexicographic file order
        names = [l.split()[0] for l in lines[1:]]
        assert names == sorted(names)
        assert sum("Proven" in l for l in lines) == 7
        assert sum("Unknown" in l for l in lines) == 2

    def test_json_fields(self):
        code, out, _ = run_cli(PROGRAMS_DIR / "while-gt-add.pl", as_json=True)
        assert code == 0
        rows = json.loads(out)
        (row,) = rows
        assert row["status"] == "Proven"
        assert row["witness"] == "while(s(s(0)),s(0))"
        assert row["alpha"] == "1" and row["k"] == 1 and row["n"] == 1
        assert row["mode"] == "while(i,i)"
        assert row["rules"] == 8 and row["relations"] == 4

    def test_missing_file_fails(self):
        code, _, err = run_cli("no-such-file.pl")
        assert code == 1
        assert "no such file" in err

    def test_parse_error_single_file(self, tmp_path):
        bad = tmp_path / "bad.pl"
        bad.write_text("p(X :- q.")
        code, _, err = run_cli(bad)
        assert code == 1
        assert "error" in err

    def test_parse_error_in_corpus_skips_file(self, tmp_path):
        (tmp_path / "a-bad.pl").write_text("p(X :- q.")
        (tmp_path / "b-good.pl").write_text("%query: f(i).\nf(X) :- f(s(X)).")
        code, out, err = run_cli(tmp_path)
        assert code == 1  # error reported ...
        assert "b-good" in out  # ... but the rest was analyzed
        assert "a-bad" in err

    def test_deep_term_in_corpus_is_analysed(self, tmp_path):
        # Far deeper than the interpreter's recursion limit: parsing and
        # every later step are iterative.
        deep = "s(" * 3000 + "0" + ")" * 3000
        (tmp_path / "deep.pl").write_text(f"%query: f(i).\nf(s(X)) :- f(X).\nf({deep}).\n")
        (tmp_path / "grow.pl").write_text((PROGRAMS_DIR / "grow.pl").read_text())
        # Far longer a body than the recursion limit: each prefix's
        # selections are walked in one loop.
        body = ", ".join(["q(X)"] * 2000)
        (tmp_path / "wide.pl").write_text(
            f"%query: p(i).\np(X) :- {body}, p(X).\nq(a).\nq(s(X)) :- q(X).\n"
        )
        code, out, err = run_cli(tmp_path, as_json=True)
        assert (code, err) == (0, "")
        rows = {r["program"]: r for r in json.loads(out)}
        assert rows["deep"]["status"] == "Unknown-fixpoint"
        assert (rows["wide"]["status"], rows["wide"]["witness"]) == ("Proven", "p(a)")
        assert rows["grow"]["status"] == "Proven"

    @staticmethod
    def _corpus_with_bad_files(tmp_path):
        (tmp_path / "a-latin1.pl").write_bytes(b"%query: f(i).\nf(X) :- f(s(X)). % \xff\n")
        (tmp_path / "b-dir.pl").mkdir()
        (tmp_path / "grow.pl").write_text((PROGRAMS_DIR / "grow.pl").read_text())

    def test_unreadable_files_in_corpus_are_skipped(self, tmp_path):
        self._corpus_with_bad_files(tmp_path)
        code, out, err = run_cli(tmp_path)
        assert code == 1
        assert f"error: {tmp_path / 'a-latin1.pl'}: 'utf-8' codec can't decode" in err
        assert f"error: {tmp_path / 'b-dir.pl'}: " in err
        assert "Traceback" not in err
        row = [l for l in out.splitlines() if l.startswith("grow")][0]
        assert "Proven" in row

    def test_failed_files_get_error_rows(self, tmp_path, monkeypatch):
        self._corpus_with_bad_files(tmp_path)
        (tmp_path / "c-syntax.pl").write_text("p(X :- q.")
        (tmp_path / "d-deep.pl").write_text("%query: f(i).\nf(0).\n")
        real_parse = cli.parse_program

        def parse(text, name):
            # No step recurses on term depth any more; a RecursionError
            # would still give the file an Error row.
            if name == "d-deep":
                raise RecursionError("maximum recursion depth exceeded")
            return real_parse(text, name)

        monkeypatch.setattr(cli, "parse_program", parse)
        code, out, err = run_cli(tmp_path, as_json=True)
        assert code == 1
        rows = {r["program"]: r for r in json.loads(out)}
        assert set(rows) == {"a-latin1", "b-dir", "c-syntax", "d-deep", "grow"}
        for name in ("a-latin1", "b-dir", "c-syntax", "d-deep"):
            row = rows[name]
            assert row["status"] == "Error"
            assert (row["rules"], row["relations"], row["mode"], row["witness"]) == (None,) * 4
            assert f"error: {tmp_path / (name + '.pl')}: {row['reason']}\n" in err
        assert rows["d-deep"]["reason"] == "term nesting too deep"
        assert rows["grow"]["status"] == "Proven"
        assert "Traceback" not in err

    def test_error_row_in_table(self, tmp_path):
        bad = tmp_path / "bad.pl"
        bad.write_text("p(X :- q.")
        code, out, _ = run_cli(bad)
        assert code == 1
        (row,) = [l for l in out.splitlines() if l.startswith("bad")]
        assert row.split() == ["bad", "(?,", "?)", "-", "?", "0", "0", "Error"]

    def test_unreadable_files_are_skipped_by_dumps(self, tmp_path):
        self._corpus_with_bad_files(tmp_path)
        code, out, err = run_cli(tmp_path, dump_initial=True)
        assert code == 1
        assert f"error: {tmp_path / 'a-latin1.pl'}: " in err
        assert f"error: {tmp_path / 'b-dir.pl'}: " in err
        assert "% grow\n" in out

    def test_validation_failure_fails_run(self, monkeypatch):
        # A witness the interpreter lets terminate is not an Unknown: it
        # gets its own status and the run fails.
        monkeypatch.setattr(
            detect, "derive_bounded", lambda *_: DerivationStatus(reached_bound=False)
        )
        code, out, _ = run_cli(PROGRAMS_DIR / "while-lt.pl", validate_steps=300, as_json=True)
        assert code == 1
        (row,) = json.loads(out)
        assert row["status"] == "Validation-failed"
        assert row["reason"] == "validation-failed"
        assert row["witness"] is None

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # A BOM-prefixed copy parses like the plain file, in analysis and dumps.
        src = PROGRAMS_DIR / "while-gt-add.pl"
        bom = tmp_path / src.name
        bom.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        rows = []
        for path in (src, bom):
            code, out, err = run_cli(path, as_json=True)
            assert code == 0 and err == ""
            (row,) = json.loads(out)
            del row["time_ms"]
            rows.append(row)
        assert rows[0] == rows[1] and rows[0]["status"] == "Proven"
        dumps = [run_cli(path, dump_initial=True) for path in (src, bom)]
        assert dumps[0] == dumps[1] and dumps[0][0] == 0

    def test_empty_directory(self, tmp_path):
        code, out, _ = run_cli(tmp_path)
        assert code == 0
        assert out.count("\n") == 1  # header only

    def test_no_query_directive_notes(self, tmp_path):
        f = tmp_path / "quiet.pl"
        f.write_text("p(0).")
        code, out, err = run_cli(f)
        assert code == 0
        assert "no %query" in err

    def test_one_row_per_query(self, tmp_path):
        f = tmp_path / "two.pl"
        f.write_text(
            "%query: f(i).\n%query: g(i).\n"
            "f(X) :- f(s(X)).\n"
            "g(s(X)) :- g(X).\ng(0).\n"
        )
        code, out, _ = run_cli(f, as_json=True)
        assert code == 0
        rows = json.loads(out)
        assert [(r["mode"], r["status"] == "Proven") for r in rows] == [
            ("f(i)", True),
            ("g(i)", False),
        ]

    def test_zero_arity_query_as_written(self, tmp_path):
        f = tmp_path / "zero.pl"
        f.write_text("%query: p.\np :- p.\n")
        code, out, _ = run_cli(f, as_json=True)
        assert code == 0
        row = json.loads(out)[0]
        assert (row["mode"], row["status"], row["witness"]) == ("p", "Proven", "p")
        code, out, _ = run_cli(f)
        # The row reads: program, (#rules, #rel), mode, witness, ...
        assert out.splitlines()[1].split()[3] == "p"

    def test_determinism_modulo_time(self):
        _, out1, _ = run_cli(PROGRAMS_DIR / "while-gt-add.pl", as_json=True)
        _, out2, _ = run_cli(PROGRAMS_DIR / "while-gt-add.pl", as_json=True)
        rows1, rows2 = json.loads(out1), json.loads(out2)
        for r in rows1 + rows2:
            del r["time_ms"]
        assert rows1 == rows2

    def test_validate_flag(self):
        code, out, _ = run_cli(
            PROGRAMS_DIR / "while-lt.pl", validate_steps=300, as_json=True
        )
        assert code == 0
        assert json.loads(out)[0]["validated"] is True

    def test_columns_count_the_whole_file(self, tmp_path):
        # h and k are outside f's cone; the rules and relations still count them.
        src = tmp_path / "cut.pl"
        src.write_text("%query: f(i).\nf(X) :- f(s(X)).\nh(X) :- f(X).\nk(0).\nk(s(X)) :- k(X).\n")
        code, out, _ = run_cli(src, as_json=True)
        assert code == 0
        row = json.loads(out)[0]
        assert (row["rules"], row["relations"], row["status"]) == (4, 3, "Proven")
        assert row["witness"] == "f(0)"

    def test_timeout_status(self, tmp_path):
        # An unprovable saturation under a tiny wall clock reports a timeout.
        # The len control stores a new family every round, so only the
        # clock can stop it.
        src = tmp_path / "len.pl"
        src.write_text("%query: len(i,i).\nlen(nil,0).\nlen(cons(X,L),s(N)) :- len(L,N).\n")
        code, out, _ = run_cli(
            src,
            timeout=0.001,
            max_iterations=10_000,
            as_json=True,
        )
        assert code == 0
        status = json.loads(out)[0]["status"]
        assert status in ("Unknown-timeout", "Unknown-cap")


class TestDumps:
    def test_dump_initial(self):
        code, out, _ = run_cli(PROGRAMS_DIR / "while-gt-add.pl", dump_initial=True)
        assert code == 0
        # The open gt seed, its variables fresh, which no program can spell.
        assert "gt(s(#1)^(1n+1)(_0'),s(#1)^(1n+1)(_1')) => gt(_0',_1')" in out.splitlines()

    def test_dump_binunf(self):
        code, out, _ = run_cli(PROGRAMS_DIR / "while-gt-add.pl", dump_binunf=2)
        assert code == 0
        lines = out.splitlines()
        # One clause of each kind: a fact, and a rule with one body atom.
        assert "gt(s(X),0)." in lines
        assert "gt(s(X),s(Y)) :- gt(X,Y)." in lines
        assert "while(s(" in out


class TestMain:
    def test_argument_parsing(self, capsys):
        code = main([str(PROGRAMS_DIR / "while-lt.pl"), "--json", "--max-iter", "4"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["status"] == "Proven"

    def test_runs_as_a_module(self):
        src = Path(cli.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "nonterm", str(PROGRAMS_DIR / "grow.pl")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "Proven" in done.stdout

    @pytest.mark.parametrize("flag", ["--max-iter", "--max-rules", "--validate", "--dump-binunf"])
    def test_negative_budget_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([str(PROGRAMS_DIR / "while-lt.pl"), flag, "-1"])
        assert exc.value.code == 2
        assert f"{flag} must not be negative" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_non_positive_timeout_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([str(PROGRAMS_DIR / "while-lt.pl"), "--timeout", value])
        assert exc.value.code == 2
        assert "--timeout must be positive" in capsys.readouterr().err

    def test_trace_goes_to_stderr(self, capsys, tmp_path):
        code = main([str(PROGRAMS_DIR / "grow.pl"), "--trace"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.splitlines()[0] == "goal: f/1; cone: f (1 of 1 predicates)"
        assert "seed:" in captured.err or "round" in captured.err
        # mul calls add, but the loop never calls mul: it is left out.
        src = tmp_path / "loop.pl"
        src.write_text(
            "%query: while(i,i).\n"
            "while(X, Y) :- gt(X, Y), add(X, Y, Z), while(Z, s(Y)).\n"
            "gt(s(X), 0).\ngt(s(X), s(Y)) :- gt(X, Y).\n"
            "add(X, 0, X).\nadd(X, s(Y), s(Z)) :- add(X, Y, Z).\n"
            "mul(X, 0, 0).\nmul(X, s(Y), Z) :- mul(X, Y, W), add(W, X, Z).\n"
        )
        assert main([str(src), "--trace"]) == 0
        first = capsys.readouterr().err.splitlines()[0]
        assert first == "goal: while/2; cone: while, gt, add (3 of 4 predicates)"
