"""The command line's outputs over the bundled programs, byte for byte.

Each case runs `cli.run` in-process over `programs/` and compares what it
writes with a file under `tests/golden/`: the JSON report with
`--validate 200` (the `time_ms` field removed), `--dump-initial`,
`--dump-binunf 2` and the `--trace` stream.  A change that means to keep
every verdict, witness, seed and derived family must leave them as they
are.  A change that means to alter them regenerates the files and says
why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

from nonterm.cli import RunConfig, run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
PROGRAMS = ROOT / "programs"


def _json_without_time(out: str, err: str) -> str:
    rows = json.loads(out)
    for row in rows:
        row.pop("time_ms")
    return json.dumps(rows, indent=2) + "\n"


# Golden file -> (run settings, the text compared, read off stdout and stderr).
CASES = {
    "json-validate-200.json": (dict(as_json=True, validate_steps=200), _json_without_time),
    "dump-initial.txt": (dict(dump_initial=True), lambda out, err: out),
    "dump-binunf-2.txt": (dict(dump_binunf=2), lambda out, err: out),
    "trace.txt": (dict(trace=True), lambda out, err: err),
}


def render(name: str) -> str:
    settings, read = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    assert run(RunConfig(inputs=(PROGRAMS,), **settings), out, err) == 0
    return read(out.getvalue(), err.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden_output(name):
    assert render(name) == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        (GOLDEN / name).write_text(render(name), encoding="utf-8")
        sys.stdout.write(f"wrote {GOLDEN / name}\n")
