"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import random
import time
from fractions import Fraction

from conftest import (
    PROGRAMS_DIR,
    Family,
    calls_bounded,
    fam,
    family_subst_at,
    pattern_substitution,
    random_simple_pattern,
    random_simple_subst,
    reference_power_form,
    seeded,
    subst,
    subst_at,
    term,
)
from nonterm.binrules import saturate as binary_saturate
from nonterm.detect import check_pumps, ground_constant, match_pumping, prove, witness_from
from nonterm.pattern import PatternRule, initial_rules, pattern_rule_key
from nonterm.powers import expand_at, pattern_form, pattern_mgu
from nonterm.program import derive_bounded, parse_program
from nonterm.terms import EPSILON, apply, match, mgu, render, term_vars
from nonterm.unfold import UnfoldBudget, saturate

POSITIVE_PROGRAMS = [
    "and-isnat.pl",
    "count-up.pl",
    "grow.pl",
    "isnat-loop.pl",
    "while-gt-add.pl",
    "while-gt-step2.pl",
    "while-lt.pl",
]
NEGATIVE_PROGRAMS = ["islist-grow.pl", "shrink.pl"]


def load(name: str):
    path = PROGRAMS_DIR / name
    return parse_program(path.read_text(), path.stem)


def report(n: int, text: str) -> None:
    print(f"criterion {n}: PASS — {text}")


def proof_and_prefix(program):
    """Run the prover while recording every rule stored before the hit."""
    collected = []
    query = program.queries[0]

    def collect(rule):
        collected.append(rule)
        data = match_pumping(rule)
        if data is None:
            return False
        w = witness_from(rule, data, ground_constant(program))
        return w.term.symbol == query.predicate and check_pumps(rule, data, w.n)

    base, source = seeded(program)
    _, stats = saturate(program, base, UnfoldBudget(), on_rule=collect, source=source)
    return collected, stats


def test_criterion_1_running_example_proof():
    program = load("while-gt-add.pl")
    t0 = time.monotonic()
    out = prove(program, program.queries[0], UnfoldBudget())
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    assert out.proven
    w = out.witness
    assert w.data.alpha == Fraction(1)
    assert w.data.k == 1
    # witness must be while(s^{m+1}(0), s^m(0)) for some m >= 1
    t = w.term
    assert t.symbol.name == "while"

    def tower_height(u):
        h = 0
        while u.symbol.name == "s":
            h += 1
            u = u.args[0]
        assert u == term("0")
        return h

    hi, lo = tower_height(t.args[0]), tower_height(t.args[1])
    assert hi == lo + 1 and lo >= 1
    report(1, f"witness {render(t)}, alpha=1, k=1, {elapsed * 1000:.0f} ms")


def test_criterion_2_witness_validation():
    times = []
    for name in POSITIVE_PROGRAMS:
        program = load(name)
        out = prove(program, program.queries[0], UnfoldBudget())
        assert out.proven, name
        w = out.witness
        t0 = time.monotonic()
        status = derive_bounded(program, (w.term,), 1000)
        assert status.reached_bound, name
        for shift in (0, 1, 2):
            assert check_pumps(w.rule, w.data, w.n + shift * w.data.k), (name, shift)
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, name
        times.append(elapsed)
    report(
        2,
        f"{len(POSITIVE_PROGRAMS)} witnesses hold 1000 steps, max {max(times):.2f} s",
    )


def test_criterion_3_unification_reproduction():
    body = [term("gt(X,Y)"), term("add(X,Y,Z)"), term("while(Z,s(Y))")]
    seeds = [
        Family(term("gt(X1,Y1)"), subst(X1="s(X1)", Y1="s(Y1)"), subst(X1="s(X1)", Y1="0")),
        Family(term("add(X2,Y2,Z2)"), subst(Y2="s(Y2)", Z2="s(Z2)"), subst(Y2="0", Z2="X2")),
        Family(term("while(X3,Y3)")),
    ]
    got = pattern_mgu(body, [f.power() for f in seeds])
    assert got is not None
    rho = subst(X="s(X)", Y="s(Y)", Z="s(s(Z))", X2="s(X2)", X3="s(s(X3))", Y3="s(Y3)")
    nu = subst(X="s(X1)", Y="0", Z="s(X1)", X2="s(X1)", X3="s(X1)", Y3="s(0)")
    assert pattern_substitution(got) == (rho, nu)
    # the family evaluates to a most general unifier at every index
    for n in range(6):
        theta_n = subst_at(got, n)
        assert theta_n == family_subst_at(rho, nu, n)
        ln = tuple(body)
        rn = tuple(f.at(n) for f in seeds)
        assert apply(ln, theta_n) == apply(rn, theta_n)
        classical = mgu(ln, rn)
        assert classical is not None
        vs = sorted(term_vars(ln + rn), key=lambda v: v.name)
        ours = tuple(apply(v, theta_n) for v in vs)
        other = tuple(apply(v, classical) for v in vs)
        assert match(other, ours) is not None and match(ours, other) is not None
    report(3, "three-atom unfolding substitution reproduced exactly; mgu at n=0..5")


def test_criterion_4_family_equivalences_randomized():
    rng = random.Random(411)
    terms_checked = 0
    substs_checked = 0
    while terms_checked < 1000:
        f = random_simple_pattern(rng)
        u = reference_power_form(*f)
        assert u is not None
        for n in range(6):
            assert f.at(n) == expand_at(u, n)
        terms_checked += 1
    while substs_checked < 1000:
        theta = random_simple_subst(rng)
        got = pattern_form(theta)
        assert got is not None
        sigma, mu = pattern_substitution(got)
        for n in range(6):
            assert subst_at(theta, n) == subst_at(got, n) == family_subst_at(sigma, mu, n)
        substs_checked += 1
    report(4, "1000 pattern terms and 1000 substitutions agree with their power forms")


def test_criterion_5_unfolding_soundness_sampled():
    t0 = time.monotonic()
    programs = ["while-gt-add.pl", "while-lt.pl", "count-up.pl", "isnat-loop.pl", "and-isnat.pl"]
    total = 0
    for name in programs:
        program = load(name)
        collected, stats = proof_and_prefix(program)
        assert stats.stop == "proved", name
        oracle = binary_saturate(program, 8)
        for rule in collected:
            total += 1
            for n in range(3):
                inst = rule.at(n)
                if oracle.contains_variant(inst):
                    continue
                # interpreter fallback: the family's call is reachable
                calls = calls_bounded(program, inst.lhs, 60)
                assert any(match(inst.rhs, got) is not None for got in calls), (
                    name,
                    str(rule),
                    n,
                )
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(5, f"{total} pre-proof rules certified on {len(programs)} programs in {elapsed:.1f} s")


def test_criterion_6_seed_rule_reproduction():
    program = load("while-gt-add.pl")
    sigma2 = subst(X="s(X)", Y="s(Y)")
    expected = [
        PatternRule(fam("gt(X,Y)", sigma2, subst(X="s(X)", Y="0")), EPSILON),
        PatternRule(fam("gt(s(X),s(Y))", sigma2), term("gt(X,Y)")),
        PatternRule(fam("add(X,Y,Z)", subst(Y="s(Y)", Z="s(Z)"), subst(Y="0", Z="X")), EPSILON),
        PatternRule(fam("add(X,s(Y),s(Z))", subst(Y="s(Y)", Z="s(Z)")), term("add(X,Y,Z)")),
        PatternRule(fam("le(X,Y)", sigma2, subst(X="0", Y="X")), EPSILON),
        PatternRule(fam("le(s(X),s(Y))", sigma2), term("le(X,Y)")),
    ]
    got = {pattern_rule_key(r) for r in initial_rules(program)}
    assert got == {pattern_rule_key(r) for r in expected}
    report(6, "seed set is exactly the six expected rule families")


def test_criterion_7_negative_control():
    program = load("islist-grow.pl")
    out = prove(program, program.queries[0], UnfoldBudget())
    assert not out.proven
    report(7, f"growing-list program stays Unknown ({out.reason})")


def test_criterion_8_corpus_behavior():
    worst = 0.0
    for name in POSITIVE_PROGRAMS:
        program = load(name)
        out = prove(program, program.queries[0], UnfoldBudget())
        assert out.proven, name
        assert out.time_ms < 10_000, name
        worst = max(worst, out.time_ms)
    for name in NEGATIVE_PROGRAMS:
        program = load(name)
        out = prove(program, program.queries[0], UnfoldBudget())
        assert not out.proven, name
    report(
        8,
        f"{len(POSITIVE_PROGRAMS)} positives proven (slowest {worst:.0f} ms), "
        f"{len(NEGATIVE_PROGRAMS)} controls Unknown",
    )
