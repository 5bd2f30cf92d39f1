"""Command-line front end: analyze programs and report per-query rows.

One row per (program, query directive): the witness found (or "?"), the
number of unfolded rules, elapsed time, and a status; a file that cannot
be read or parsed gets one row with status Error.  Directories are
analyzed in lexicographic order of their .pl files.  Debug flags dump the
seed pattern rules or a bounded binary unfolding instead of analyzing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, TextIO

from .binrules import clause, saturate as binary_saturate
from .detect import ProofOutcome, prove
from .pattern import initial_rules
from .program import ParseError, parse_program
from .record import Record
from .terms import render
from .unfold import UnfoldBudget


class RunConfig(Record):
    """The command line's settings, one field per option."""

    __slots__ = (
        "inputs", "timeout", "max_iterations", "max_rules", "validate_steps",
        "as_json", "trace", "dump_binunf", "dump_initial",
    )

    def __init__(
        self,
        inputs: tuple[Path, ...],
        timeout: float = 10.0,
        max_iterations: int = 10,
        max_rules: int = 100_000,
        validate_steps: int = 0,
        as_json: bool = False,
        trace: bool = False,
        dump_binunf: Optional[int] = None,
        dump_initial: bool = False,
    ):
        self.inputs, self.timeout, self.max_iterations = inputs, timeout, max_iterations
        self.max_rules, self.validate_steps, self.as_json = max_rules, validate_steps, as_json
        self.trace, self.dump_binunf, self.dump_initial = trace, dump_binunf, dump_initial


class ReportRow(Record):
    """One row of the report: a (program, query) pair, or a file that was
    not analysed.  rules and relations are None on an Error row, whose
    file was not parsed, and error says why."""

    __slots__ = (
        "program", "rules", "relations", "mode", "witness",
        "unfolded", "time_ms", "status", "outcome", "error",
    )

    def __init__(
        self,
        program: str,
        rules: Optional[int],
        relations: Optional[int],
        mode: Optional[str],
        witness: str,
        unfolded: int,
        time_ms: float,
        status: str,
        outcome: Optional[ProofOutcome] = None,
        error: Optional[str] = None,
    ):
        self.program, self.rules, self.relations, self.mode = program, rules, relations, mode
        self.witness, self.unfolded, self.time_ms, self.status = witness, unfolded, time_ms, status
        self.outcome, self.error = outcome, error

    @classmethod
    def failed_file(cls, path: Path, message: str) -> "ReportRow":
        """The row of a file that could not be read or parsed."""
        return cls(path.stem, None, None, None, "?", 0, 0.0, _ERROR, error=message)

    def to_dict(self) -> dict:
        witness = self.outcome.witness if self.outcome else None
        return {
            "program": self.program,
            "rules": self.rules,
            "relations": self.relations,
            "mode": self.mode,
            "status": self.status,
            "witness": None if self.witness == "?" else self.witness,
            "unfolded": self.unfolded,
            "time_ms": round(self.time_ms, 3),
            "n": witness.n if witness else None,
            "alpha": str(witness.data.alpha) if witness else None,
            "k": witness.data.k if witness else None,
            "reason": self.outcome.reason if self.outcome else self.error,
            "validated": self.outcome.validated if self.outcome else None,
        }


# A witness the interpreter did not keep alive: the theory or the code is
# wrong, so such a row fails the run.
_VALIDATION_FAILED = "Validation-failed"
# A file that could not be read or parsed; it also fails the run.
_ERROR = "Error"

_STATUS = {
    "timeout": "Unknown-timeout",
    "fixpoint": "Unknown-fixpoint",
    "iteration-cap": "Unknown-cap",
    "rule-cap": "Unknown-cap",
    "validation-failed": _VALIDATION_FAILED,
}


def analyze_file(path: Path, config: RunConfig, err: TextIO) -> list[ReportRow]:
    text = path.read_text(encoding="utf-8-sig")
    program = parse_program(text, path.stem)
    budget = UnfoldBudget(
        wall_clock=config.timeout,
        max_iterations=config.max_iterations,
        max_rules=config.max_rules,
    )
    rows = []
    if not program.queries:
        err.write(f"note: {path} declares no %query directive; nothing to analyze\n")
    for query in program.queries:
        outcome = prove(
            program,
            query,
            budget,
            validate_steps=config.validate_steps,
            trace=err if config.trace else None,
        )
        if outcome.proven:
            status = "Proven"
            witness = render(outcome.witness.term)
        else:
            status = _STATUS[outcome.reason]
            witness = "?"
        rows.append(
            ReportRow(
                program=program.name,
                rules=len(program.rules),
                relations=len(program.head_symbols()),
                mode=str(query),
                witness=witness,
                unfolded=outcome.unfolded,
                time_ms=outcome.time_ms,
                status=status,
                outcome=outcome,
            )
        )
    return rows


def _collect(inputs: tuple[Path, ...]) -> tuple[list[Path], list[str]]:
    files: list[Path] = []
    errors: list[str] = []
    for p in inputs:
        if p.is_dir():
            files.extend(sorted(p.glob("*.pl")))
        elif p.exists():
            files.append(p)
        else:
            errors.append(f"no such file: {p}")
    return files, errors


def _print_table(rows: list[ReportRow], out: TextIO) -> None:
    header = ("Program (#rules, #rel)", "Mode", "Witness", "#unf", "Time(ms)", "Status")

    def count(n: Optional[int]) -> str:
        return "?" if n is None else str(n)

    cells = [
        (
            f"{r.program} ({count(r.rules)}, {count(r.relations)})",
            r.mode or "-",
            r.witness,
            str(r.unfolded),
            str(int(r.time_ms)),
            r.status,
        )
        for r in rows
    ]
    widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h) for i, h in enumerate(header)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out.write(fmt.format(*header).rstrip() + "\n")
    for c in cells:
        out.write(fmt.format(*c).rstrip() + "\n")


# What one unreadable or unanalysable file may raise; the others still run.
_FILE_ERRORS = (ParseError, RecursionError, UnicodeDecodeError, OSError)


def _file_error(path: Path, exc: Exception, err: TextIO) -> str:
    """Report a file that could not be analysed; returns the message.

    No step recurses on the depth of a term nor on the length of a clause
    body; should one still exceed the interpreter's recursion limit, the
    file is reported like a parse error.
    """
    message = "term nesting too deep" if isinstance(exc, RecursionError) else str(exc)
    err.write(f"error: {path}: {message}\n")
    return message


def run(config: RunConfig, out: Optional[TextIO] = None, err: Optional[TextIO] = None) -> int:
    """Analyze all inputs; 0 when every file was processed, 1 on any error
    or on a witness that failed validation."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    files, errors = _collect(config.inputs)
    for e in errors:
        err.write(f"error: {e}\n")

    if config.dump_initial or config.dump_binunf is not None:
        for path in files:
            try:
                program = parse_program(path.read_text(encoding="utf-8-sig"), path.stem)
            except _FILE_ERRORS as exc:
                errors.append(_file_error(path, exc, err))
                continue
            out.write(f"% {path.stem}\n")
            if config.dump_initial:
                for rule in initial_rules(program):
                    out.write(f"{rule}\n")
            else:
                for rule in binary_saturate(program, config.dump_binunf):
                    out.write(f"{clause(rule)}\n")
        return 1 if errors else 0

    rows: list[ReportRow] = []
    for path in files:
        try:
            rows.extend(analyze_file(path, config, err))
        except _FILE_ERRORS as exc:
            message = _file_error(path, exc, err)
            errors.append(message)
            rows.append(ReportRow.failed_file(path, message))
    if config.as_json:
        json.dump([r.to_dict() for r in rows], out, indent=2)
        out.write("\n")
    else:
        _print_table(rows, out)
    failed = any(r.status == _VALIDATION_FAILED for r in rows)
    return 1 if errors or failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nonterm",
        description="Prove non-termination of pure logic programs.",
    )
    parser.add_argument("inputs", nargs="+", type=Path, help="program files or directories of .pl files")
    parser.add_argument("--timeout", type=float, default=10.0, metavar="SECS", help="wall-clock budget for each query's seeding, search and --validate run (default 10)")
    parser.add_argument("--max-iter", type=int, default=10, metavar="N", help="unfolding rounds per query (default 10)")
    parser.add_argument("--max-rules", type=int, default=100_000, metavar="N", help="cap on generated rules (default 100000)")
    parser.add_argument("--validate", type=int, default=0, metavar="STEPS", help="re-run each witness in the interpreter for STEPS steps, within --timeout (0 disables)")
    parser.add_argument("--json", action="store_true", help="emit rows as a JSON array")
    parser.add_argument("--trace", action="store_true", help="stream generated pattern rules to stderr")
    parser.add_argument("--dump-initial", action="store_true", help="print the seed pattern rules and exit")
    parser.add_argument("--dump-binunf", type=int, default=None, metavar="DEPTH", help="print a bounded binary unfolding and exit")
    args = parser.parse_args(argv)
    if not args.timeout > 0:  # also rejects nan, which no deadline passes
        parser.error("--timeout must be positive")
    for flag, value in (
        ("--max-iter", args.max_iter),
        ("--max-rules", args.max_rules),
        ("--validate", args.validate),
        ("--dump-binunf", args.dump_binunf),
    ):
        if value is not None and value < 0:
            parser.error(f"{flag} must not be negative")
    config = RunConfig(
        inputs=tuple(args.inputs),
        timeout=args.timeout,
        max_iterations=args.max_iter,
        max_rules=args.max_rules,
        validate_steps=args.validate,
        as_json=args.json,
        trace=args.trace,
        dump_binunf=args.dump_binunf,
        dump_initial=args.dump_initial,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
