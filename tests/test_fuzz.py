"""Differential fuzzing of the whole prover over random programs.

Each drawn program (`conftest.logic_programs`) is proved on its query: the
run must not raise, a `Proven` witness must survive 200 interpreter steps,
and the verdict and witness must not change when one clause is written
twice or the clause variables are renamed.  Throughout, the search's store
is checked against the expansions of its families: it stores only simple
families, and a family it drops is, at every sampled index, a variant of
the covering family's instance at the index the cover names.  Every family
it stores is checked against the program: its instances at n = 0..2, and
0..3 for an induced family (`unfold.induce`), are derivable binary rules
(the `binrules` oracle) or reach their right side (`calls_bounded`).

Tier-1 draws FUZZ_EXAMPLES programs, about 10 s.  For a change to
unification, seeding or the store, run thousands:

    NONTERM_FUZZ_EXAMPLES=3000 PYTHONPATH=src python -m pytest tests/test_fuzz.py
"""

import os
import re
import time
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import calls_bounded, logic_programs
from nonterm import unfold
from nonterm.binrules import saturate as binary_saturate
from nonterm.detect import prove
from nonterm.powers import is_simple
from nonterm.program import derive_bounded, parse_program
from nonterm.terms import canonical_key, match
from nonterm.unfold import PatternRuleSet, UnfoldBudget

FUZZ_EXAMPLES = int(os.environ.get("NONTERM_FUZZ_EXAMPLES", "200"))

# Small caps keep a run to milliseconds, so that it ends at its round or
# family cap, and its verdict is a function of the program alone; a run
# the clock cuts short takes no part in a comparison.
BUDGET = UnfoldBudget(wall_clock=2.0, max_iterations=4, max_rules=25)


def _variant(a, b):
    return canonical_key((a.lhs, a.rhs)) == canonical_key((b.lhs, b.rhs))


_add = PatternRuleSet.add
induce = unfold.induce


def _checked_add(self, rule, on_subsumed=None):
    """`PatternRuleSet.add`, with what it stores and drops checked."""
    found = self._cover(rule)
    stored = _add(self, rule, on_subsumed)
    assert stored == (found is None)
    if stored:
        assert is_simple(rule.lhs) and is_simple(rule.rhs), rule
    else:
        kind, held, k = found
        if kind == "instance":
            assert _variant(rule, held.at(k)), (rule, held, k)
        else:
            assert all(_variant(rule.at(n), held.at(n + k)) for n in range(3)), (rule, held, k)
    return stored


def check_families(program, stored, induced):
    """Every stored family's instances at n = 0..2, and at n = 0..3 for an
    induced one, are derivable: binary rules of the bounded oracle, or,
    past its bounds, rules whose right side some call from their left side
    reaches.  Families of the goal's cone are families of the program."""
    oracle = binary_saturate(program, 6, 500) if stored else None
    for family in stored:
        for n in range(4 if id(family) in induced else 3):
            inst = family.at(n)
            if oracle.contains_variant(inst):
                continue
            calls = calls_bounded(program, inst.lhs, 8)
            assert any(match(inst.rhs, got) is not None for got in calls), (family, n)


def answer(text, interpret=False):
    """The verdict on the program's query, with the witness and why the
    search stopped; None when the clock cut the run short.

    With `interpret`, every family the search stores must pass
    `check_families`, and a `Proven` witness must survive 200 interpreter
    steps.  The interpreter may search a finite subtree for long before it
    reaches the loop, so a run its clock cuts short shows nothing."""
    program = parse_program(text)
    stored, induced = [], set()

    def recorded_add(self, rule, on_subsumed=None):
        kept = _checked_add(self, rule, on_subsumed)
        if kept:
            stored.append(rule)
        return kept

    def recorded_induce(*args):
        family = induce(*args)
        if family is not None:
            induced.add(id(family))
        return family

    with mock.patch.object(PatternRuleSet, "add", recorded_add), mock.patch.object(
        unfold, "induce", recorded_induce
    ):
        out = prove(program, program.queries[0], BUDGET)
    if out.reason == "timeout":
        return None
    if interpret:
        check_families(program, stored, induced)
    if not out.proven:
        return "unknown", out.reason, out.unfolded
    w = out.witness
    if interpret:
        run = derive_bounded(program, (w.term,), 200, time.monotonic() + 0.25)
        assert run.reached_bound or run.timed_out, (text, w)
    return "proven", str(w), w.n, w.data.k, str(w.rule)


def rename_variables(text):
    """The program with every clause variable renamed."""
    return re.sub(r"\b([A-Z])\b", r"Renamed\1", text)


@settings(
    max_examples=FUZZ_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(logic_programs(), st.data())
# A guarded loop, Proven, with its clause written twice.
@example("%query: p(i).\np(X) :- q(X), p(s(X)).\nq(0).\nq(s(X)) :- q(X).", None)
# A seed's clause and its fact written twice.
@example("%query: p(i).\np(X) :- q(X), p(X).\nq(s(X)) :- q(X).\nq(0).", None)
# Families with the same shapes, one more general than the other, stored
# in both orders: the store keeps all four.
@example(
    "%query: p(i).\np(f(X,X)) :- r(X).\np(f(X,Y)) :- r(X), r(Y).\n"
    "p(g(f(X,Y))) :- r(X), r(Y).\np(g(f(X,X))) :- r(X).\nr(s(X)) :- r(X).\nr(Z).",
    None,
)
# The loop's family would hold s^n(g^n(0)), a power inside a power, which
# the search drops.
@example("%query: p(i).\np(X) :- q(X,Y), r(Y), p(X).\nq(s(X),Z) :- q(X,Z).\nq(Z,Z).\nr(g(X)) :- r(X).\nr(0).", None)
# A terminating loop whose second family grows its first by a ground
# layer: the search stores their induced family in round 2.
@example("%query: p(i,i).\np(s(X),Y) :- p(X,s(Y)).\np(0,Y).", None)
def test_random_programs(text, data):
    want = answer(text, interpret=True)
    renamed = rename_variables(text)
    got = answer(renamed)
    if None not in (want, got):
        # Fresh names come from the search, so even the rule reads the same.
        assert got == want, (text, renamed)
    lines = text.splitlines()
    picks = range(1, len(lines)) if data is None else [data.draw(st.integers(1, len(lines) - 1))]
    for i in picks:
        got = answer("\n".join([*lines[: i + 1], *lines[i:]]))
        if None not in (want, got):
            # The copy's seeds and its derived families are variants, which
            # the store drops: the same verdict, witness and number of
            # families, though their fresh names may differ.
            assert got[:-1] == want[:-1] if want[0] == "proven" else got == want, (text, i)
