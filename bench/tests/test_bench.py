"""Tests of the benchmark's own code: generator, gate, tracer and runner.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gate  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import nonterm  # noqa: E402
from nonterm import cli  # noqa: E402


def analyze(case: gen.Case, tmp_path: Path, max_iter: int = 10):
    path = gen.write_corpus([case], tmp_path)[0]
    config = cli.RunConfig(inputs=(path,), timeout=run.WALL_CLOCK_S, max_iterations=max_iter)
    return cli.analyze_file(path, config, io.StringIO())


def find(workload: str, name: str, seed: int = 1) -> gen.Case:
    return next(c for c in gen.generate(workload, seed) if c.name == name)


# --- generator -------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_identical_bytes(workload, tmp_path):
    first = gen.write_corpus(gen.generate(workload, 7), tmp_path / "a")
    second = gen.write_corpus(gen.generate(workload, 7), tmp_path / "b")
    assert [p.name for p in first] == [p.name for p in second]
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_seeds_change_texts_not_strata(workload):
    a = {c.name: c for c in gen.generate(workload, 1)}
    b = {c.name: c for c in gen.generate(workload, 2)}
    assert a.keys() == b.keys()
    assert any(a[n].text != b[n].text for n in a)
    for n in a:
        assert (a[n].family, a[n].truth) == (b[n].family, b[n].truth)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_every_case_parses_with_one_query(workload):
    for c in gen.generate(workload, 3):
        program = nonterm.parse_program(c.text, c.name)
        assert len(program.queries) == 1, c.name
        assert c.truth in (gen.DIVERGING, gen.TERMINATING)
        assert c.why and c.argument and c.samples


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_recorded_truth_holds_in_the_interpreter(workload):
    """Diverging samples run on; terminating samples exhaust their tree."""
    for c in gen.generate(workload, 5):
        program = nonterm.parse_program(c.text, c.name)
        for sample in c.samples:
            forever = gate.runs_forever(program, gate.parse_query(sample))
            assert forever == (c.truth == gen.DIVERGING), (c.name, sample)


# --- gate ------------------------------------------------------------------


def test_gate_accepts_a_checked_proof(tmp_path):
    c = find("proven-corpus", "while-gt-add")
    rows = analyze(c, tmp_path)
    assert rows[0].status == "Proven"
    assert gate.judge(c, rows) == []


def test_gate_flags_a_forged_witness(tmp_path):
    c = find("proven-corpus", "while-gt-add")
    rows = analyze(c, tmp_path)
    outcome = rows[0].outcome
    # while(0, s(0)) fails gt at once and ends through le: a finite tree.
    forged = dataclasses.replace(outcome.witness, term=gate.parse_query("while(0,s(0))"))
    row = dataclasses.replace(
        rows[0], witness="while(0,s(0))", outcome=dataclasses.replace(outcome, witness=forged)
    )
    problems = gate.judge(c, [row])
    assert len(problems) == 1 and "stops within" in problems[0]


def test_gate_flags_proven_on_a_terminating_control(tmp_path):
    c = find("proven-corpus", "while-gt-add")
    rows = analyze(c, tmp_path)
    mislabeled = dataclasses.replace(c, truth=gen.TERMINATING)
    problems = gate.judge(mislabeled, rows)
    assert any("terminating control" in p for p in problems)


@pytest.mark.parametrize("reason", ["timeout", "validation-failed"])
def test_gate_classifies_from_the_reason_not_the_status(reason, tmp_path):
    c = find("unknown-saturation", "shrink-a1k1")
    rows = analyze(c, tmp_path, max_iter=2)
    assert rows[0].status == "Unknown-cap" and gate.judge(c, rows) == []
    outcome = dataclasses.replace(rows[0].outcome, reason=reason)
    # The status column folds validation-failed into Unknown-cap; the gate must not.
    row = dataclasses.replace(rows[0], outcome=outcome)
    assert gate.judge(c, [row])


def test_gate_flags_a_crash():
    c = find("unknown-saturation", "shrink-a1k1")
    assert gate.judge(c, RecursionError("deep term"))


# --- tracer ----------------------------------------------------------------


def test_tracer_accounts_every_second_once(tmp_path):
    c = find("clash-heavy", "clash-le-step")
    tracer = layers.Tracer()
    tracer.install()
    try:
        rows = analyze(c, tmp_path, max_iter=2)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["cli.analyze_file_calls"] == 1
    assert summary["program.parse_calls"] == 1
    assert summary["detect.prove_calls"] == 1
    assert tracer.tally["unfold.rounds"] == 2
    assert summary["unfold.add_calls"] > summary["unfold.add_fail"] > 0
    assert summary["powers.pattern_mgu_fail"] > 0
    total = sum(v for k, v in summary.items() if k.endswith("_self_s"))
    root = tracer.end[0] - tracer.start[0]
    assert total == pytest.approx(root, rel=1e-9)
    assert rows[0].status == "Unknown-cap"


def test_tracer_uninstall_restores_every_binding():
    import nonterm.powers
    import nonterm.unfold

    before = nonterm.unfold.pattern_mgu
    tracer = layers.Tracer()
    tracer.install()
    assert nonterm.unfold.pattern_mgu is not before
    assert nonterm.unfold.pattern_mgu is nonterm.powers.pattern_mgu
    tracer.uninstall()
    assert nonterm.unfold.pattern_mgu is before is nonterm.powers.pattern_mgu
    assert not hasattr(nonterm.unfold.PatternRuleSet.add, "__wrapped__")


# --- runner ----------------------------------------------------------------


def test_percentiles():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50.0) == 50.0
    assert run.percentile(values, 90.0) == 90.0
    assert run.tail_percentile(100, 99.0) == 90.0
    assert run.tail_percentile(1000, 99.0) == 99.0
    assert run.tail_percentile(5, 99.0) == 50.0


def test_runner_fails_changed_repeats_and_every_repeat_of_a_bad_row(tmp_path):
    from nonterm import detect

    cases = [find("proven-corpus", "while-gt-add"), find("unknown-saturation", "shrink-a1k1")]
    runner = run.Runner(cli, cases, gen.write_corpus(cases, tmp_path), max_iter=3)
    runner.reference_pass(detect)
    assert runner.stats[1].iterations == 3
    runner.timed_pass([])
    runner.score(1, RuntimeError("changed"))
    records, failed = runner.judge(gate)
    assert failed == 1 and records[1]["rounds"] == 3
    assert runner.proven_diverging == runner.diverging == 1

    runner.cases = [dataclasses.replace(cases[0], truth=gen.TERMINATING), cases[1]]
    records, failed = runner.judge(gate)
    assert failed == 2 and records[0]["problems"]


def test_nominal_speed_removes_a_slowdown_seen_by_the_probes():
    nominal = run.NOMINAL_PROBE_S
    # The machine runs at half speed from t = 10 on: probes and queries alike.
    probes = [(t, nominal * (2.0 if t >= 10 else 1.0)) for t in range(20)]
    samples = [(t + 0.5, 0.004 * (2.0 if t >= 10 else 1.0)) for t in range(20)]
    scaled = run.at_nominal_speed(samples, probes)
    assert scaled[:8] == pytest.approx([0.004] * 8)
    assert scaled[12:] == pytest.approx([0.004] * 8)


def test_speed_probe_measures_something():
    assert 0.0 < run.speed_probe() < 5.0


def _traced_run(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "unknown-saturation",
         "--seed", "4", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=170,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly_across_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    first, second = _traced_run("1"), _traced_run("2")
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for name, metric in first["metrics"].items():
        if metric["unit"] in ("count", "ratio") and name not in ("trace.overhead_ratio",):
            assert metric["value"] == second["metrics"][name]["value"], name
