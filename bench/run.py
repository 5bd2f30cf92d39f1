"""Benchmark of the nonterm prover: one workload, one seed, one run.

    python3 bench/run.py --workload proven-corpus --seed 1 --seconds 30 --trace 0

The run generates the workload's corpus from the seed (`gen.py`), times a
fresh process that imports `nonterm` and parses the corpus (`setup_s`),
and runs one untimed reference pass whose rows are checked by the
correctness gate (`gate.py`) and written to `records.jsonl`.  It then
runs whole passes over the corpus in a single-threaded closed loop, one
query after the other through `nonterm.cli.analyze_file`, until
`--seconds` have passed.  Every timed row must repeat its reference row.
Query and set-up times are reported at a nominal machine speed measured by
a speed probe run between them (see PROBE_EVERY_S); raw query times are
printed as well.

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes (`layers.py`) and prints the
per-layer metrics.  Metric names and units come from BENCHMARK.json.  The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Outputs go to bench/out/<workload>-s<seed>/.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Far above any query, so only the round cap decides where a run stops and
# verdicts do not depend on machine speed.
WALL_CLOCK_S = 3600.0
SETUP_REPEATS = 11
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# The host's speed drifts by about 20% over seconds to minutes, whatever
# runs inside this process.  A fixed probe (`speed_probe`) runs every
# PROBE_EVERY_S between timed queries, and each query's time is scaled to
# a nominal machine on which the probe takes NOMINAL_PROBE_S, using the
# median of the PROBE_WINDOW probes nearest in time.  Raw times are printed
# too.
PROBE_EVERY_S = 0.25
PROBE_WINDOW = 5
PROBE_ROUNDS = 300
NOMINAL_PROBE_S = 0.011

SETUP_CODE = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import nonterm
for p in sorted(Path(sys.argv[2]).glob("*.pl")):
    nonterm.parse_program(p.read_text(encoding="utf-8"), p.stem)
"""


def import_prover():
    """Import `nonterm` from this checkout's source tree, nowhere else."""
    if not (SRC / "nonterm" / "__init__.py").is_file():
        raise SystemExit(f"error: prover source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import nonterm

    if Path(nonterm.__file__).resolve().parent != SRC / "nonterm":
        raise SystemExit(f"error: imported nonterm from {nonterm.__file__}, not {SRC}")
    return nonterm


def measure_setup(corpus: Path) -> float:
    """Median seconds, at nominal speed, for a fresh interpreter to import
    nonterm and parse the corpus."""
    spawns, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append((perf_counter(), speed_probe()))
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(corpus)],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        spawns.append((t0, perf_counter() - t0))
    return statistics.median(at_nominal_speed(spawns, probes))


def speed_probe() -> float:
    """Seconds a fixed tuple-and-dict workload takes now, garbage collector off.

    It shares no code with the prover, and with the collector off its cost
    does not grow with the prover's heap.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        seen: dict = {}
        for i in range(PROBE_ROUNDS):
            stack = [(i % 7, ("f", i))]
            while stack:
                depth, term = stack.pop()
                if (depth, term) in seen:
                    continue
                seen[(depth, term)] = len(seen)
                if depth:
                    stack.append((depth - 1, ("s", term)))
                    stack.append((depth - 1, ("g", term, i & 3)))
            if len(seen) > 4096:
                seen.clear()
        return perf_counter() - t0
    finally:
        gc.enable()


def at_nominal_speed(samples: list[tuple[float, float]], probes: list[tuple[float, float]]) -> list[float]:
    """Each (start, seconds) sample's seconds on the nominal machine.

    `probes` are (start, seconds) of speed probes in time order, at least one.
    """
    starts = [t for t, _ in probes]
    out = []
    for t0, dt in samples:
        j = bisect.bisect(starts, t0)
        lo = max(0, min(j - PROBE_WINDOW // 2, len(probes) - PROBE_WINDOW))
        near = [p for _, p in probes[lo:lo + PROBE_WINDOW]]
        out.append(dt * NOMINAL_PROBE_S / statistics.median(near))
    return out


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int, wanted: float) -> float:
    """`wanted`, or the highest lower percentile with ten samples beyond it."""
    for pct in sorted((p for p in PERCENTILES if p <= wanted), reverse=True):
        if n - math.ceil(pct / 100.0 * n) >= 10:
            return pct
    return PERCENTILES[0]


def signature(rows) -> tuple:
    """What a repeated query must reproduce exactly."""
    if isinstance(rows, BaseException):
        return ("raised", type(rows).__name__)
    return tuple(
        (r.status, r.outcome.reason if r.outcome else None, r.witness, r.unfolded) for r in rows
    )


class Runner:
    """Runs a workload's queries and checks each repeat against its reference row."""

    def __init__(self, cli, cases, paths, max_iter: int):
        self.cli = cli
        self.cases = cases
        self.paths = paths
        self.config = cli.RunConfig(
            inputs=tuple(paths), timeout=WALL_CLOCK_S, max_iterations=max_iter
        )
        self.err = io.StringIO()
        self.reference: list = []  # rows (or exception) of the untimed first pass
        self.stats: list = []  # UnfoldStats of the first pass
        self.probes: list[tuple[float, float]] = []
        self.attempts = [0] * len(cases)
        self.mismatches = [0] * len(cases)
        self.proven_diverging = 0
        self.diverging = 0

    def query(self, i: int):
        try:
            # Looked up on the module each time, so a traced run sees the wrapper.
            return self.cli.analyze_file(self.paths[i], self.config, self.err)
        except Exception as exc:  # a crash is a failed query, not a dead run
            return exc

    def reference_pass(self, detect) -> None:
        """Untimed first pass; also warms up imports and caches."""
        for i in range(len(self.cases)):
            stats = []
            saturate = detect.saturate

            def hooked(*args, **kwargs):
                result = saturate(*args, **kwargs)
                stats.append(result[1])
                return result

            detect.saturate = hooked
            try:
                self.reference.append(self.query(i))
            finally:
                detect.saturate = saturate
            self.stats.append(stats[-1] if stats else None)

    def timed_pass(self, samples: list[tuple[float, float]]) -> float:
        """One closed-loop pass with speed probes between queries.

        Appends (start, seconds) per query; returns the seconds spent in
        queries, probes excluded.
        """
        busy = 0.0
        for i in range(len(self.cases)):
            if not self.probes or perf_counter() - self.probes[-1][0] >= PROBE_EVERY_S:
                self.probes.append((perf_counter(), speed_probe()))
            t0 = perf_counter()
            rows = self.query(i)
            dt = perf_counter() - t0
            samples.append((t0, dt))
            busy += dt
            self.score(i, rows)
        return busy

    def score(self, i: int, rows) -> None:
        self.attempts[i] += 1
        if signature(rows) != signature(self.reference[i]):
            self.mismatches[i] += 1
        if self.cases[i].truth == "diverging":
            self.diverging += 1
            if not isinstance(rows, BaseException) and rows and rows[0].status == "Proven":
                self.proven_diverging += 1

    def judge(self, gate) -> tuple[list[dict], int]:
        """Gate the reference rows; returns the records and the failed attempts.

        An attempt fails when its query's reference row fails the gate or
        when it does not repeat that row.
        """
        records, failed = [], 0
        for i, case in enumerate(self.cases):
            problems = gate.judge(case, self.reference[i])
            failed += self.attempts[i] if problems else self.mismatches[i]
            records.append(record(case, self.reference[i], self.stats[i], problems))
        return records, failed


def record(case, rows, stats, problems) -> dict:
    out = {"program": case.name, "family": case.family, "truth": case.truth}
    if isinstance(rows, BaseException) or len(rows) != 1:
        out.update(error=repr(rows), problems=problems)
        return out
    row = rows[0]
    w = row.outcome.witness if row.outcome else None
    out.update(
        mode=row.mode,
        verdict=row.status,
        reason=row.outcome.reason if row.outcome else None,
        witness=None if w is None else row.witness,
        n=None if w is None else w.n,
        k=None if w is None else w.data.k,
        alpha=None if w is None else str(w.data.alpha),
        unfolded=row.unfolded,
        time_ms=row.time_ms,
        rounds=None if stats is None else stats.iterations,
        stop=None if stats is None else stats.stop,
        problems=problems,
    )
    return out


def end_to_end(runner: Runner, wl, seconds: float, notes: list[str]) -> dict:
    setup_s = measure_setup(runner.paths[0].parent)
    samples: list[tuple[float, float]] = []
    passes = 0
    t_start = perf_counter()
    while not passes or perf_counter() - t_start < seconds:
        runner.timed_pass(samples)
        passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = sorted(dt * 1000.0 for _, dt in samples)
    nominal = at_nominal_speed(samples, runner.probes)
    ms = sorted(dt * 1000.0 for dt in nominal)
    n = len(ms)
    tail = tail_percentile(n, wl.tail_pct)
    probe = statistics.median(p for _, p in runner.probes)
    notes += [
        f"{passes} passes of {len(runner.cases)} queries: {n} samples",
        f"verdict_ms_tail is p{tail:g}; percentiles are over all {n} samples",
        f"times are at nominal speed: speed probe median {probe * 1000:.3f} ms over "
        f"{len(runner.probes)} probes, nominal {NOMINAL_PROBE_S * 1000:g} ms",
        f"raw: verdict_ms_p50 {percentile(raw, 50.0):.4f} ms, verdict_ms_tail "
        f"{percentile(raw, tail):.4f} ms, queries_per_s {n / (sum(raw) / 1000.0):.4f} 1/s",
        "queries_per_s is the samples over their summed nominal seconds",
        f"setup_s is the median of {SETUP_REPEATS} fresh processes, at nominal speed",
    ]
    return {
        "setup_s": setup_s,
        "verdict_ms_p50": percentile(ms, 50.0),
        "verdict_ms_tail": percentile(ms, tail),
        "queries_per_s": n / sum(nominal),
        "decided_share": runner.proven_diverging / runner.diverging if runner.diverging else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(runner: Runner, seconds: float, work: Path, notes: list[str]) -> dict:
    import layers

    tracer = layers.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    windows: list[dict] = []
    t_start = perf_counter()
    while not traced or perf_counter() - t_start < seconds:
        plain.append(runner.timed_pass([]))
        first = tracer.spans()
        tally = dict(tracer.tally)
        tracer.install()
        try:
            t0 = perf_counter()
            for i in range(len(runner.cases)):
                tracer.query_id = sum(runner.attempts)
                runner.score(i, runner.query(i))
            traced.append(perf_counter() - t0)
        finally:
            tracer.uninstall()
        window = tracer.summary(first, tracer.spans())
        window.update((k, v - tally[k]) for k, v in tracer.tally.items())
        windows.append(window)
        if len(windows) == 1:
            tracer.write_spans(work / "spans.tsv", first, tracer.spans())

    counts = windows[0]
    for w in windows[1:]:
        if any(w[k] != counts[k] for k in counts if not k.endswith("_self_s")):
            notes.append("warning: counts differ between traced passes")
    out = {k: v for k, v in counts.items() if not k.endswith("_self_s")}
    for k in counts:
        if k.endswith("_self_s"):
            out[k] = statistics.median(w[k] for w in windows)
    adds = out["unfold.add_calls"]
    out["unfold.duplicates"] = out["unfold.add_fail"]
    out["unfold.stored"] = adds - out["unfold.add_fail"]
    out["unfold.store_ratio"] = out["unfold.stored"] / adds if adds else 0.0
    mgus = out["powers.pattern_mgu_calls"]
    out["powers.pattern_mgu_ok_ratio"] = (mgus - out["powers.pattern_mgu_fail"]) / mgus if mgus else 0.0
    out["detect.pump_hits"] = out["detect.match_pumping_calls"] - out["detect.match_pumping_fail"]
    out["trace.spans"] = tracer.spans() / len(windows)
    out["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    notes.append(
        f"{len(windows)} traced and {len(plain)} untraced passes; counts are per pass, "
        "self seconds the median per pass"
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the nonterm prover.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    nonterm = import_prover()
    import gate
    import gen
    from nonterm import cli, detect

    if args.workload not in gen.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    wl = gen.WORKLOADS[args.workload]
    cases = gen.generate(wl.name, args.seed)
    work = OUT / f"{wl.name}-s{args.seed}"
    paths = gen.write_corpus(cases, work / "corpus")

    runner = Runner(cli, cases, paths, wl.max_iter)
    runner.reference_pass(detect)
    notes = [f"nonterm {nonterm.__version__}, workload {wl.name}, seed {args.seed}, "
             f"{len(cases)} queries, --max-iter {wl.max_iter}"]
    if args.trace:
        values = per_layer(runner, args.seconds, work, notes)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(runner, wl, args.seconds, notes)
        wanted = spec["end_to_end"]

    # The gate replays witnesses, so it runs after the timed passes and
    # after peak memory was read.
    records, failed = runner.judge(gate)
    with open(work / "records.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    attempted = sum(runner.attempts)
    values["ok_share"] = 1.0 - failed / attempted
    for rec in records:
        for problem in rec["problems"]:
            notes.append(f"FAILED {rec['program']}: {problem}")
    if runner.err.getvalue():
        notes.append("prover notes: " + runner.err.getvalue().strip())

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{wl.name} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
