"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/repeat.py --workload proven-corpus clash-heavy --seeds 1-10 --seconds 30 [--trace 1]

For every workload and metric it prints the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread: the
distance between the quartiles as a share of the median.  Each run's last
output line is appended to --log (JSON lines), so two sets of runs can be
compared afterwards; --baseline merges the summary into a JSON file under
the key `<workload>/trace<0|1>`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results: list[dict]) -> dict[str, dict]:
    """Median, quartiles and spread (quartile distance over median) per metric."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Repeat the benchmark over seeds.")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log", type=Path, default=BENCH / "out" / "repeat.jsonl")
    ap.add_argument("--baseline", type=Path, help="merge the summary into this JSON file")
    args = ap.parse_args(argv)

    args.log.parent.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in args.workload:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(workload=workload, seed=seed, trace=args.trace)
            with open(args.log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(result) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            results.append(result)
            ok = ok and result["correct"]
        print(f"{workload}, {len(results)} seeds, {args.seconds} s each")
        summary = summarize(results)
        for name, m in summary.items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.2%}"
            print(f"{name:36s} median {m['median']:12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} spread {spread}")
        if args.baseline:
            data = json.loads(args.baseline.read_text(encoding="utf-8")) if args.baseline.exists() else {}
            data[f"{workload}/trace{args.trace}"] = {
                "seeds": args.seeds, "seconds": args.seconds, "metrics": summary,
            }
            args.baseline.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
