"""Correctness gate: judges each query's row against the generator's truth.

A row fails when the query raised or produced no row, when it stopped on
the wall clock (`Unknown-timeout`), when it says `Proven` on a program
known to terminate, or when its witness does not run for `REPLAY_STEPS`
steps in the bounded interpreter.  Rows are classified from
`ProofOutcome.reason`, not from the report's status column, which folds
`validation-failed` into `Unknown-cap`.
"""

from __future__ import annotations

from nonterm.program import Program, derive_bounded, parse_program
from nonterm.terms import Term

from gen import TERMINATING, Case

REPLAY_STEPS = 200
# Stop reasons of an honest Unknown: a round or rule budget ran out, or
# saturation reached a fixpoint.
HONEST_UNKNOWN = frozenset({"iteration-cap", "rule-cap", "fixpoint"})


def parse_query(text: str) -> Term:
    """A ground query written as a term, e.g. `while(s(0),0)`."""
    return parse_program(f"{text}.", "<query>").rules[0].head


def runs_forever(program: Program, query: Term, steps: int = REPLAY_STEPS) -> bool:
    """Some derivation from `query` reaches `steps` steps."""
    return derive_bounded(program, (query,), steps).reached_bound


def judge(case: Case, rows) -> list[str]:
    """Problems with one query's result; empty when the row is acceptable.

    `rows` is what `cli.analyze_file` returned, or the exception it raised.
    """
    if isinstance(rows, BaseException):
        return [f"raised {type(rows).__name__}: {rows}"]
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"]
    outcome = rows[0].outcome
    if outcome is None:
        return ["row carries no outcome"]
    if not outcome.proven:
        if outcome.reason not in HONEST_UNKNOWN:
            return [f"unknown with stop reason {outcome.reason!r}"]
        return []
    problems = []
    if case.truth == TERMINATING:
        problems.append(f"Proven on a terminating control ({case.argument})")
    if outcome.witness is None:
        problems.append("Proven without a witness")
    elif not runs_forever(parse_program(case.text, case.name), outcome.witness.term):
        problems.append(f"witness {rows[0].witness} stops within {REPLAY_STEPS} steps")
    return problems
