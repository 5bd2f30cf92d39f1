"""Pattern-unfolding engine: candidate generation, budgets, soundness."""

import io
import random
import re
import sys
from dataclasses import replace
from functools import reduce
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    F,
    G,
    G_WRAPS_ITSELF,
    NIL,
    PROGRAMS_DIR,
    S,
    ZERO,
    Family,
    apart,
    assert_apart,
    calls_bounded,
    check_correct_sampled,
    fam,
    induced_by,
    random_simple_pattern,
    random_term,
    recursive_programs,
    reference_initial_rules,
    seeded,
    self_wrapping_programs,
    shift,
    step,
    step_candidates,
    subst,
    term,
)
from nonterm import powers, unfold
from nonterm.binrules import saturate as binary_saturate
from nonterm.detect import check_pumps, ground_constant, match_pumping, prove, witness_from
from nonterm.pattern import PatternRule, cover, identity_rules, initial_rules, pattern_rule_key
from nonterm.powers import (
    PowerSymbol,
    expand_at,
    instance_root,
    is_simple,
    normalize,
    pattern_mgu,
)
from nonterm.program import Rule, parse_program
from nonterm.terms import (
    EPSILON,
    HOLE,
    App,
    Subst,
    Symbol,
    Var,
    VarSource,
    apply,
    canonical_key,
    concrete_power,
    fresh_renaming,
    match,
    mgu,
    plug,
    render,
    strip_power,
    term_vars,
)
from nonterm.unfold import (
    PatternRuleSet,
    UnfoldBudget,
    _attempts,
    _by_root,
    rename_pattern_rule,
    saturate,
)

# A while loop guarded by gt and mul, with an le exit, over the whole
# gt/add/mul/le library.
WHILE_MUL_LE = """
%query: while(i,i).
while(X, Y) :- gt(X, Y), mul(X, Y, Z), while(Z, s(Y)).
while(X, Y) :- le(X, Y).
gt(s(X), 0).
gt(s(X), s(Y)) :- gt(X, Y).
add(X, 0, X).
add(X, s(Y), s(Z)) :- add(X, Y, Z).
mul(X, 0, 0).
mul(X, s(Y), Z) :- mul(X, Y, W), add(W, X, Z).
le(0, X).
le(s(X), s(Y)) :- le(X, Y).
"""

# A loop whose unfoldings mostly clash in the unifier.
CLASHING_LOOP = """
%query: while(i,i).
while(X, Y) :- gt(X, Y), add(X, Y, Z), gt(Z, X), while(Z, s(Y)).
gt(s(X), 0).
gt(s(X), s(Y)) :- gt(X, Y).
add(X, 0, X).
add(X, s(Y), s(Z)) :- add(X, Y, Z).
"""

PROGRAM_SOURCES = {
    **{p.stem: p.read_text() for p in sorted(PROGRAMS_DIR.glob("*.pl"))},
    "while-mul-le": WHILE_MUL_LE,
}

# The running example's closing gt seed family, gt(s^(n+1)(X), s^n(0)) => e.
GT_CLOSING = fam("gt(X,Y)", subst(X="s(X)", Y="s(Y)"), subst(X="s(X)", Y="0"))


def concrete_unfold(rule, prefix_len, instances):
    """The classical one-step unfolding of the first `prefix_len` atoms of
    a program rule's body by the given binary rules, renamed apart: their
    heads' mgu with the body prefix, applied to the rule head and the
    last rule's body.  None when they do not unify."""
    avoid = set(rule.vars())
    source = VarSource("_c")
    picked = []
    for inst in instances:
        renamed = rename_pattern_rule(inst, fresh_renaming(inst.vars(), avoid, source))
        picked.append(renamed)
        avoid |= renamed.vars()
    theta = mgu(tuple(r.lhs for r in picked), tuple(rule.body[:prefix_len]))
    if theta is None:
        return None
    return PatternRule(apply(rule.head, theta), apply(picked[-1].rhs, theta))


def is_variant(a, b) -> bool:
    return canonical_key((a.lhs, a.rhs)) == canonical_key((b.lhs, b.rhs))


def keys(rules) -> list:
    """The families up to renaming, in order."""
    return [pattern_rule_key(r) for r in rules]


class TestIdentityPatternRules:
    def test_one_per_symbol(self, ex_program):
        rules = identity_rules(ex_program.symbols, VarSource())
        assert len(rules) == len(ex_program.symbols)

    def test_shape(self, ex_program):
        # Each identity's variables are fresh ones of the source, and no
        # two identities share one.
        source = VarSource()
        rules = {r.lhs.symbol.name: r for r in identity_rules(ex_program.symbols, source)}
        w = rules["while"]
        assert w.lhs == w.rhs and is_variant(w, PatternRule(term("while(X1,X2)"), term("while(X1,X2)")))
        assert rules["0"].lhs == term("0")
        held = [v for r in rules.values() for v in r.lhs.args]
        assert len(set(held)) == len(held) and set(held) <= source.made


class TestRenaming:
    def test_disjoint_and_equivalent(self):
        rule = PatternRule(GT_CLOSING, EPSILON)
        ren = fresh_renaming(rule.vars(), rule.vars(), VarSource())
        renamed = rename_pattern_rule(rule, ren)
        assert not renamed.vars() & rule.vars()
        # The power terms themselves are variants; so is every instance.
        assert renamed.lhs == apply(rule.lhs, ren)
        assert match(rule.lhs, renamed.lhs) is not None
        assert match(renamed.lhs, rule.lhs) is not None
        assert renamed.rhs == EPSILON
        for n in range(3):
            a = rule.at(n)
            b = renamed.at(n)
            assert match(a.lhs, b.lhs) is not None
            assert match(b.lhs, a.lhs) is not None


class TestRuleSet:
    def test_variant_deduplication(self):
        a = PatternRule(GT_CLOSING, EPSILON)
        b = rename_pattern_rule(a, Subst({Var("X"): Var("U"), Var("Y"): Var("V")}))
        rules = PatternRuleSet([a])
        assert not rules.add(b)
        assert rules.contains_variant(b)

    def test_equivalent_families_collide(self):
        # mu layers that normalization absorbs yield the same stored family.
        a = PatternRule(fam("X", subst(X="s(X)"), subst(X="s(0)")), EPSILON)
        b = PatternRule(fam("s(X)", subst(X="s(X)"), subst(X="0")), EPSILON)
        rules = PatternRuleSet([a])
        assert not rules.add(b)

    def test_rejects_non_simple(self):
        # A power of s inside a power of g: no single tower per position.
        # The search's entry refuses it, on either side, before storing
        # anything; the store itself takes the shape as given.
        s_ctx = App(Symbol("s", 1), (HOLE,))
        g_ctx = App(Symbol("g", 1), (HOLE,))
        inner = App(PowerSymbol(s_ctx, 1, 0), (term("0"),))
        nested = App(PowerSymbol(g_ctx, 1, 0), (inner,))
        program = parse_program("g(s(X)) :- g(X).\ng(0).")
        good = PatternRule(term("g(0)"), EPSILON)
        for bad in (PatternRule(nested, EPSILON), PatternRule(term("g(0)"), nested)):
            seen = []
            with pytest.raises(ValueError, match="non-simple"):
                saturate(program, [good, bad], on_rule=lambda r: seen.append(r))
            assert seen == []


class TestStep:
    def test_single_application_includes_seed_and_projections(self, ex_program):
        base, source = seeded(ex_program)
        first = step(ex_program, base, PatternRuleSet(), source)
        for rule in base:
            assert first.contains_variant(rule)
        # first-atom projections via identity rules
        assert any(
            r.lhs.symbol.name == "while" and r.rhs.symbol.name == "gt"
            for r in first
        )
        # no empty-bodied pool rules yet, so deeper prefixes cannot close
        assert not any(
            r.lhs.symbol.name == "while" and r.rhs.symbol.name == "add"
            for r in first
        )

    def test_second_application_reaches_deeper_prefixes(self, ex_program):
        base, source = seeded(ex_program)
        first = step(ex_program, base, PatternRuleSet(), source)
        second = step(ex_program, base, first, source)
        assert any(
            r.lhs.symbol.name == "while" and r.rhs.symbol.name == "while"
            for r in second
        )


class TestSaturation:
    def test_loop_rule_appears_within_two_rounds(self, ex_program):
        base, source = seeded(ex_program)
        rules, stats = saturate(ex_program, base, UnfoldBudget(max_iterations=2), source=source)
        rho = subst(X="s(X)", Y="s(Y)", Z="s(s(Z))", X2="s(X2)", X3="s(s(X3))", Y3="s(Y3)")
        nu = subst(X="s(X1)", Y="0", Z="s(X1)", X2="s(X1)", X3="s(X1)", Y3="s(0)")
        target = PatternRule(fam("while(X,Y)", rho, nu), fam("while(X3,Y3)", rho, nu))
        assert rules.contains_variant(target)
        assert stats.iterations == 2

    def test_empty_seed_still_projects_with_identities(self, ex_program):
        rules, _ = saturate(ex_program, [], UnfoldBudget(max_iterations=1))
        # first-atom projections arise from identity rules alone
        assert any(
            r.lhs.symbol.name == "while" and r.rhs.symbol.name == "gt"
            for r in rules
        )

    def test_empty_program_fixpoint(self):
        rules, stats = saturate(parse_program(""), [], UnfoldBudget())
        assert len(rules) == 0
        assert stats.stop == "fixpoint"

    def test_rule_cap_zero_keeps_seed_only(self, ex_program):
        base, source = seeded(ex_program)
        rules, stats = saturate(ex_program, base, UnfoldBudget(max_rules=0), source=source)
        assert stats.stop == "rule-cap"
        assert len(rules) == len(base)
        assert stats.generated == 0

    def test_iteration_cap_reported(self, ex_program):
        base, source = seeded(ex_program)
        _, stats = saturate(ex_program, base, UnfoldBudget(max_iterations=1), source=source)
        assert stats.stop == "iteration-cap"

    def test_callback_short_circuits(self, ex_program):
        seen = []

        def stop_after_three(rule):
            seen.append(rule)
            return len(seen) == 3

        base, source = seeded(ex_program)
        _, stats = saturate(
            ex_program, base, UnfoldBudget(), on_rule=stop_after_three, source=source
        )
        assert stats.stop == "proved"
        assert len(seen) == 3

    def test_trace_lines(self, ex_program):
        out = io.StringIO()
        base, source = seeded(ex_program)
        saturate(ex_program, base, UnfoldBudget(max_iterations=1), trace=out, source=source)
        text = out.getvalue()
        assert "seed:" in text
        assert "round 1:" in text

    def test_monotone_accumulation(self, ex_program):
        base, source = seeded(ex_program)
        one, _ = saturate(ex_program, base, UnfoldBudget(max_iterations=1), source=source)
        two, _ = saturate(ex_program, base, UnfoldBudget(max_iterations=2), source=source)
        for rule in one:
            assert two.contains_variant(rule)


class TestGuards:
    PROGRAM = "f(Y) :- g(Y), h(Y)."

    def _pools(self, pinned_mu: bool):
        closer = PatternRule(fam("g(s(X1))", subst(X1="s(X1)")), EPSILON)
        follower = PatternRule(
            term("h(X3)"), fam("k(X3)", Subst(), subst(X3="0") if pinned_mu else Subst())
        )
        return [closer, follower]

    def test_non_commuting_selection_is_emitted(self):
        # The shared body variable Y puts X3 on an s-tower, while the
        # follower's right side pins X3 to a constant.  In the paper's
        # notation the two substitution families do not commute; over power
        # terms the unfolding is exact, so it is emitted.
        program = parse_program(self.PROGRAM)
        pools = self._pools(pinned_mu=True)
        got = list(step_candidates(program, pools, [], VarSource()))
        assert len(got) == 1
        rule, (_, prefix_len, combo) = got[0]
        assert prefix_len == 2 and combo == tuple(pools)
        assert canonical_key((rule.lhs, rule.rhs)) == canonical_key(
            (fam("f(s(X))", subst(X="s(X)")), term("k(0)"))
        )
        for n in range(5):
            want = concrete_unfold(program.rules[0], 2, [r.at(n) for r in pools])
            assert want is not None
            assert is_variant(rule.at(n), want), n

    def test_commuting_variant_is_kept(self):
        program = parse_program(self.PROGRAM)
        got = list(step_candidates(program, self._pools(pinned_mu=False), [], VarSource()))
        assert len(got) == 1
        rule, _ = got[0]
        assert canonical_key((rule.lhs, rule.rhs)) == canonical_key(
            (fam("f(s(X))", subst(X="s(X)")), fam("k(s(X))", subst(X="s(X)")))
        )

    def test_prefix_rules_must_close(self, ex_program):
        # with no empty-bodied rules available, only single-atom prefixes
        # unfold, so nothing with the 3-atom body of the first rule reaches
        # its third atom
        rules, _ = saturate(ex_program, [], UnfoldBudget(max_iterations=3))
        assert not any(
            r.lhs.symbol.name == "while" and r.rhs.symbol.name == "while"
            for r in rules
        )


class TestShapeGuard:
    """`_derive` keeps a derived family when both of its sides are simple,
    whatever shape the unifier's bindings have, and drops it otherwise."""

    # The unifier binds X to g(s^n(0)), a power under a plain symbol.
    POWER_UNDER_PLAIN = """
    %query: p(i).
    p(X) :- q(X).
    q(g(s(Y))) :- q(g(Y)).
    q(g(0)).
    """

    # The unifier gives the head p(s^n(f^n(0))), a power inside a power.
    NESTED_HEAD = """
    %query: p(i).
    p(X) :- r(X,Z), q(Z).
    r(s(A),B) :- r(A,B).
    r(W,W).
    q(f(C)) :- q(C).
    q(0).
    """

    def _goal_families(self, source):
        program = parse_program(source)
        goal = Symbol("p", 1)
        base, source = seeded(program, goal)
        rules, stats = saturate(program, base, goal=goal, source=source)
        assert stats.stop == "fixpoint"
        return program, [r for r in rules if r.lhs.symbol == goal]

    def test_binding_with_a_power_under_a_plain_symbol_gives_a_family(self):
        program, got = self._goal_families(self.POWER_UNDER_PLAIN)
        assert [str(r) for r in got] == ["p(g(s(#1)^(1n+0)(0))) => ε"]
        oracle = binary_saturate(program, 8)
        assert check_correct_sampled(got[0], program, 3, 8, oracle)

    def test_head_with_a_power_inside_a_power_is_dropped(self):
        _, got = self._goal_families(self.NESTED_HEAD)
        assert got == []


class TestSoundnessSampled:
    def test_generated_rules_describe_derivable_families(self, ex_program):
        # Every rule generated before the proof fires describes, at each
        # sampled index, a derivable binary rule (oracle membership) or at
        # least a reachable call (interpreter fallback).
        base, source = seeded(ex_program)
        collected = []

        def collect(rule):
            collected.append(rule)
            return False

        saturate(ex_program, base, UnfoldBudget(max_iterations=2), on_rule=collect, source=source)
        oracle = binary_saturate(ex_program, 8)
        for rule in collected:
            for n in range(3):
                inst = rule.at(n)
                if oracle.contains_variant(inst):
                    continue
                calls = calls_bounded(ex_program, inst.lhs, 60)
                assert any(match(inst.rhs, got) is not None for got in calls), (
                    f"{rule} at {n} not certified"
                )


def naive_saturate(program, base, rounds, source):
    """Reference for `saturate`: every round offers every selection over
    the whole pool, without the semi-naive skip, and stores the family a
    stored one induces right after it."""
    stored = PatternRuleSet(base)
    patid = identity_rules(program.symbols, source)
    generated = 0
    for _ in range(rounds):
        grew = False
        for candidate, provenance in step_candidates(program, list(stored), patid, source):
            if stored.add(candidate):
                generated += 1
                grew = True
                family = induced_by(program, provenance, candidate, patid, source)
                if family is not None and stored.add(family):
                    generated += 1
        if not grew:
            return stored, generated, "fixpoint"
    return stored, generated, "iteration-cap"


class TestSemiNaive:
    @pytest.mark.parametrize("name", sorted(PROGRAM_SOURCES))
    def test_same_as_full_enumeration(self, name):
        # Most of these reach a fixpoint within 12 rounds; only the growing
        # loops (grow, islist-grow, while-mul-le) are cut by the cap.
        program = parse_program(PROGRAM_SOURCES[name], name)
        rounds = 12
        base, source = seeded(program)
        budget = UnfoldBudget(wall_clock=3600.0, max_iterations=rounds)
        rules, stats = saturate(program, base, budget, source=source)
        ref, generated, stop = naive_saturate(program, base, rounds, source)
        assert [pattern_rule_key(r) for r in rules] == [pattern_rule_key(r) for r in ref]
        assert stats.generated == generated
        assert stats.stop == stop

    def test_rule_cap_at_exact_count(self):
        # A cap equal to the number of families saturation finds binds
        # nowhere: no further new family ever asks to be stored.  The
        # running example reaches a fixpoint within 3 rounds; this loop
        # over the whole library still grows in round 3.
        program = parse_program(WHILE_MUL_LE, "while-mul-le")
        base, source = seeded(program)
        _, generated, stop = naive_saturate(program, base, 3, source)
        assert stop == "iteration-cap"
        budget = UnfoldBudget(max_iterations=3, max_rules=generated)
        _, stats = saturate(program, base, budget, source=source)
        assert (stats.stop, stats.generated) == ("iteration-cap", generated)
        budget = UnfoldBudget(max_iterations=3, max_rules=generated - 1)
        _, stats = saturate(program, base, budget, source=source)
        assert (stats.stop, stats.generated) == ("rule-cap", generated - 1)


# q gets 70 closing families q(s^n(0), a_i) => e.  In the three-atom
# prefix, a first pick binds Y to some a_j, and then every closing family
# fails on q(Y, Z), an inner slot: runs of 70 failed unifications.
MANY_CLOSERS = (
    "%query: f(i).\nf(X) :- q(X, Y), q(Y, Z), f(Z).\nq(s(X), Y) :- q(X, Y).\n"
    + "".join(f"q(0, a{i}).\n" for i in range(70))
)


class TestDeadline:
    def test_failed_unifications_are_counted(self, monkeypatch):
        # Pass the deadline on the first call of the longest run of failing
        # unifications, inner slots of the join included: saturation reads
        # the clock at each selection, so it must stop within 1 more call.
        program = parse_program(MANY_CLOSERS)
        base, source = seeded(program)
        budget = UnfoldBudget(wall_clock=10.0, max_iterations=1)
        outcomes = []
        real_unify, real_mgu = unfold.unify, unfold.pattern_mgu

        def counting_unify(bindings, pairs):
            extended = real_unify(bindings, pairs)
            outcomes.append(extended is not None)
            return extended

        def counting_mgu(left, right, bindings=None):
            theta = real_mgu(left, right, bindings)
            outcomes.append(theta is not None)
            return theta

        monkeypatch.setattr(unfold, "unify", counting_unify)
        monkeypatch.setattr(unfold, "pattern_mgu", counting_mgu)
        saturate(program, base, budget, source=source)
        assert True in outcomes
        longest, start, run = 0, 0, 0
        for idx, ok in enumerate(outcomes):
            run = 0 if ok else run + 1
            if run > longest:
                longest, start = run, idx - run + 1
        assert longest > 64

        outcomes.clear()
        clock = SimpleNamespace(monotonic=lambda: 0.0 if len(outcomes) <= start else 1e9)
        monkeypatch.setattr(unfold, "time", clock)
        _, stats = saturate(program, base, budget, source=source)
        assert stats.stop == "timeout"
        assert len(outcomes) - (start + 1) <= 1

    def test_long_seed_list_is_cut(self, monkeypatch):
        # The clock passes the deadline right after saturation reads it to
        # set one: of the 71 seeds, none is stored, since the read before
        # the first stops the run, and nothing is unfolded.
        program = parse_program(MANY_CLOSERS)
        base, source = seeded(program)
        assert len(base) == 71
        reads = []

        def monotonic():
            reads.append(None)
            return 0.0 if len(reads) == 1 else 1e9

        monkeypatch.setattr(unfold, "time", SimpleNamespace(monotonic=monotonic))
        stored, stats = saturate(program, base, UnfoldBudget(wall_clock=10.0), source=source)
        assert stats.stop == "timeout" and stats.generated == 0
        assert list(stored) == [] and len(reads) == 2

    def test_slot_lists_are_cut(self, monkeypatch):
        # No family has the root of a body atom (no `q` predicate has one,
        # and the recursive `r` rule's own seeds are left out of its slot),
        # so all 41 slot lists are empty and the step yields nothing: the
        # reads before them are its only reads.  A clock that counts its
        # own reads passes the deadline at the read before one of them,
        # and that read must end the run.
        lines = ["%query: p(i)."]
        lines += [f"p(X) :- q{i}(c{i}, nil)." for i in range(40)]
        lines += ["r(C, s(X)) :- r(C, X)."]
        lines += [f"r(c{j}, 0)." for j in range(40)]
        program = parse_program("\n".join(lines))
        goal = program.queries[0].predicate
        base = initial_rules(program, goal)
        reads = 0

        def monotonic():
            nonlocal reads
            reads += 1
            return float(reads)

        monkeypatch.setattr(unfold, "time", SimpleNamespace(monotonic=monotonic))
        stored, stats = saturate(program, base, UnfoldBudget(wall_clock=1e9), goal=goal)
        # One read sets the deadline, one comes before each of the 40
        # seeds and each of the 41 slot lists, and one ends the round.
        assert len(base) == 40 and len(stored) == 40
        assert stats.stop == "fixpoint" and stats.generated == 0
        assert reads == 1 + 40 + 41 + 1
        # The deadline is 1 + 60: read 62, before the 21st slot list, is
        # the first past it.  It ends the step, and the read after the
        # round ends the run, with no further slot list.
        reads = 0
        _, stats = saturate(program, base, UnfoldBudget(wall_clock=60.0), goal=goal)
        assert stats.stop == "timeout" and stats.generated == 0
        assert reads == 62 + 1


class TestExactness:
    @pytest.mark.parametrize("name", sorted(p.stem for p in PROGRAMS_DIR.glob("*.pl")))
    def test_families_are_concrete_compositions(self, name):
        # Each family an attempted selection derives is, at every sampled
        # index, a variant of the classical unfolding of the selected
        # families' instances at that index.  So is each family a
        # selection `_attempts` leaves out derives (`own_seed_picks`),
        # built here over explicit slots.
        program = parse_program(PROGRAM_SOURCES[name], name)
        seeds, source = seeded(program)
        stored = PatternRuleSet(seeds)
        patid = identity_rules(program.symbols, source)

        def check(attempts):
            """The families derived, each checked at n = 0..3."""
            rules = []
            for rule, (rule_idx, prefix_len, combo) in attempts:
                if rule is None:
                    continue
                for n in range(4):
                    want = concrete_unfold(
                        program.rules[rule_idx], prefix_len, [r.at(n) for r in combo]
                    )
                    assert want is not None, (rule, n)
                    assert is_variant(rule.at(n), want), (rule, n)
                rules.append(rule)
            return rules

        checked = 0
        seeds = list(stored)
        for rule_idx, rule in enumerate(program.rules):
            slots = [own_seed_picks(rule, seeds, patid)]
            attempts = unfold._join(rule, (rule_idx, 1), slots, source, None)
            checked += len(check(attempts))
        new = None
        for _ in range(3):
            snapshot = list(stored)
            for rule in check(_attempts(program, snapshot, patid, source, new)):
                checked += 1
                stored.add(rule)
            new = {id(r) for r in list(stored)[len(snapshot):]}
        assert checked > 0


# Power symbols over two contexts, s(#1) and f(#1, 0), at several slopes
# and offsets: the first two meet in the unifier, and any other two clash.
_S_CTX = App(S, (HOLE,))
_F_CTX = App(F, (HOLE, ZERO))
_POWERS = [
    PowerSymbol(_S_CTX, 1, 0),
    PowerSymbol(_S_CTX, 1, 1),
    PowerSymbol(_S_CTX, 2, 0),
    PowerSymbol(_F_CTX, 1, 0),
]


def _power_terms(names):
    leaves = st.sampled_from([*(Var(n) for n in names), ZERO, NIL])

    def extend(sub):
        return st.one_of(
            st.builds(lambda sym, a: App(sym, (a,)), st.sampled_from([S, G, *_POWERS]), sub),
            st.builds(lambda a, b: App(F, (a, b)), sub, sub),
        )

    return st.recursive(leaves, extend, max_leaves=6)


class TestRootGroups:
    @settings(max_examples=300, deadline=None)
    @given(lhss=st.lists(_power_terms("XYZ"), max_size=8), atom=_power_terms("XUV"))
    @example(lhss=[Var("X"), App(S, (ZERO,)), App(G, (Var("Y"),))], atom=Var("U"))
    @example(lhss=[App(S, (Var("X"),)), Var("Y"), App(_POWERS[0], (ZERO,))], atom=App(G, (NIL,)))
    def test_root_groups_keep_every_rule_that_unifies(self, lhss, atom):
        # A slot list is the pool's group for the atom's root, and
        # `terms.unify` decides the rest: every rule whose left side,
        # renamed apart, unifies with the atom must be in the group, in
        # pool order.  A body atom is never a power.
        if isinstance(atom, App) and atom.symbol.is_power:
            return
        rules = [PatternRule(lhs, EPSILON) for lhs in lhss]

        def meets(r):
            ren = fresh_renaming(r.vars(), term_vars(atom), VarSource())
            return unfold.unify({}, [(apply(r.lhs, ren), atom)]) is not None

        want = [id(r) for r in rules if meets(r)]
        assert [id(r) for r in _by_root(rules)(atom) if meets(r)] == want


def own_seed_picks(rule, pool, patid):
    """The picks `_attempts` leaves out of a program rule's slots: the
    seed families built from that very rule, and the identities when its
    open seed is in the pool.  Unfolding the rule with one of them gives
    back a seed shifted by one, or the open seed's instance at 0."""
    own = [pr for pr in pool if pr.source is rule]
    if any(not pr.rhs_is_epsilon() for pr in own):
        own.extend(patid)
    return own


def full_renaming_attempts(program, pool, patid, source, new, own_seeds=False):
    """Reference for `_attempts`: slots filtered by root symbol only, and
    every selected family renamed apart before the unifier sees it.
    Yields each derived family with its provenance (rule index, prefix
    length, picks).  Selections with a pick from `own_seed_picks` are left
    out, as `_attempts` leaves them out; with `own_seeds`, only those are
    made."""

    def root(t):
        return t.symbol if isinstance(t, App) else None

    def compatible(candidates, atom):
        want = root(atom)
        return [r for r in candidates if want is None or root(r.lhs) in (None, want)]

    eps_rules = [r for r in pool if r.rhs_is_epsilon()]
    all_rules = [*pool, *patid]
    noneps_rules = [r for r in all_rules if not r.rhs_is_epsilon()]
    for rule_idx, rule in enumerate(program.rules):
        m = len(rule.body)
        omitted = {id(pr) for pr in own_seed_picks(rule, pool, patid)}
        for i in range(1, m + 1):
            slots = [compatible(eps_rules, rule.body[j]) for j in range(i - 1)]
            slots.append(compatible(all_rules if i == m else noneps_rules, rule.body[i - 1]))
            for combo in product(*slots):
                if new is not None and not any(id(pr) in new for pr in combo):
                    continue
                if any(id(pr) in omitted for pr in combo) != own_seeds:
                    continue
                avoid = set(rule.vars())
                picked = []
                for pr in combo:
                    renamed = rename_pattern_rule(pr, fresh_renaming(pr.vars(), avoid, source))
                    picked.append(renamed)
                    avoid |= renamed.vars()
                theta = pattern_mgu([p.lhs for p in picked], rule.body[:i])
                if theta is None:
                    continue
                rhs = normalize(apply(picked[-1].rhs, theta))
                if is_simple(rhs):
                    yield PatternRule(normalize(apply(rule.head, theta)), rhs), (rule_idx, i, combo)


def full_renaming_saturate(program, base, rounds):
    """Reference for `saturate` without budgets, semi-naive like it, with
    the same induction step.  It renames every pick apart, so it needs no
    namespace of its own."""
    stored = PatternRuleSet(base)
    source = VarSource("_f")
    patid = identity_rules(program.symbols, source)
    generated, new = 0, None
    for _ in range(rounds):
        snapshot = list(stored)
        for candidate, provenance in full_renaming_attempts(program, snapshot, patid, source, new):
            if stored.add(candidate):
                generated += 1
                family = induced_by(program, provenance, candidate, patid, source)
                if family is not None and stored.add(family):
                    generated += 1
        if len(stored) == len(snapshot):
            return stored, generated, "fixpoint"
        new = {id(r) for r in list(stored)[len(snapshot):]}
    return stored, generated, "iteration-cap"


# The body calls g twice, so a selection may close both calls with the
# same family; the second copy must get its own variables.  No other pick
# is renamed.
CALLS_TWICE = """
%query: f(i).
f(A) :- g(A, B), g(B, C), f(C).
g(s(X), Y) :- g(X, Y).
g(0, Y).
"""


class TestSameAsFullRenaming:
    SOURCES = {**PROGRAM_SOURCES, "clashing-loop": CLASHING_LOOP, "calls-twice": CALLS_TWICE}

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_same_stored_sequence(self, name):
        program = parse_program(self.SOURCES[name], name)
        base, source = seeded(program)
        budget = UnfoldBudget(wall_clock=3600.0, max_iterations=8)
        rules, stats = saturate(program, base, budget, source=source)
        ref, generated, stop = full_renaming_saturate(program, base, 8)
        assert [pattern_rule_key(r) for r in rules] == [pattern_rule_key(r) for r in ref]
        assert stats.generated == generated
        assert stats.stop == stop

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_same_derivations_each_round(self, name):
        # Over the same pool, each round derives the same families from
        # the same selections, in the same order, as the reference: slot
        # lists rebuilt from the pool and the pruned join drop only
        # selections that derive nothing.  The selections both leave out,
        # a rule unfolded with its own seeds, derive only families the
        # pool already covers.
        program = parse_program(self.SOURCES[name], name)
        seeds, source = seeded(program)
        patid = identity_rules(program.symbols, source)
        stored = PatternRuleSet(seeds)
        if any(r.source is not None for r in stored):
            omitted = full_renaming_attempts(
                program, list(stored), patid, VarSource("_o"), None, own_seeds=True
            )
            assert next(omitted, None) is not None
        new = None
        for _ in range(6):
            snapshot = list(stored)
            # Picks by position: pool index, or identity as -1, -2, ...
            pos = {id(r): j for j, r in enumerate(snapshot)}
            pos.update((id(r), -1 - j) for j, r in enumerate(patid))

            def derived(attempts):
                return [
                    (rule_idx, i, tuple(pos[id(r)] for r in combo), pattern_rule_key(rule), rule)
                    for rule, (rule_idx, i, combo) in attempts
                    if rule is not None
                ]

            got = derived(_attempts(program, snapshot, patid, source, new))
            want = derived(full_renaming_attempts(program, snapshot, patid, VarSource("_f"), new))
            assert [d[:4] for d in got] == [d[:4] for d in want]
            covered = PatternRuleSet(snapshot)
            omitted = full_renaming_attempts(
                program, snapshot, patid, VarSource("_o"), new, own_seeds=True
            )
            for rule, provenance in omitted:
                assert covered.contains_variant(rule), (rule, provenance)
            for *_, rule in got:
                stored.add(rule)
            if len(stored) == len(snapshot):
                return
            new = {id(r) for r in list(stored)[len(snapshot):]}


# Three controls that never pump: each round unfolds the family the round
# before stored, one layer larger.  len and app grow by a layer that holds
# a variable, and run to the round cap; shift grows by a ground one, which
# induction closes after round 3 (`unfold.induce`).
CAP_CONTROLS = {
    "len": "%query: len(i,i).\nlen(nil, 0).\nlen(cons(X, L), s(N)) :- len(L, N).\n",
    "app": "%query: app(i,i,i).\napp(nil, L, L).\n"
    "app(cons(X, L1), L2, cons(X, L3)) :- app(L1, L2, L3).\n",
    "shift": "%query: f(i,i).\nf(s(X), Y) :- f(X, s(Y)).\nf(0, Y).\n",
}

_VARIABLE = re.compile(r"\b[A-Z_][A-Za-z0-9_]*")


def _spelled_fresh(text: str) -> str:
    """The program with its variables renamed _0, _1, ..., in order of
    first occurrence: the names a `VarSource` hands out first, without
    the prime that keeps them from a program.  Comments, the query
    directives among them, are kept as they are."""
    names: dict[str, str] = {}

    def rename(m):
        return names.setdefault(m.group(), f"_{len(names)}")

    lines = []
    for line in text.splitlines():
        code, percent, comment = line.partition("%")
        lines.append(_VARIABLE.sub(rename, code) + percent + comment)
    return "\n".join(lines) + "\n"


class TestFreshFamilies:
    """Every family the search holds has its own fresh variables, which no
    program can spell: a seed gets them as it is built (`power_form`), an
    identity from the search's source, and a derived family as it is built
    (`unfold._derive`).  So a pick is renamed only when the same non-ground
    family is already in the selection."""

    @staticmethod
    def counted_renames(monkeypatch) -> list:
        renamed = []
        real = unfold.rename_pattern_rule

        def counting(rule, ren):
            renamed.append(rule)
            return real(rule, ren)

        monkeypatch.setattr(unfold, "rename_pattern_rule", counting)
        return renamed

    @pytest.mark.parametrize("name", sorted(CAP_CONTROLS))
    def test_cap_controls_rename_nothing(self, monkeypatch, name):
        renamed = self.counted_renames(monkeypatch)
        program = parse_program(CAP_CONTROLS[name], name)
        budget = UnfoldBudget(wall_clock=3600.0, max_iterations=8)
        outcome = prove(program, program.queries[0], budget)
        want = ("fixpoint", 3) if name == "shift" else ("iteration-cap", 8)
        assert (outcome.status, outcome.reason, outcome.unfolded) == ("unknown", *want)
        assert renamed == []

    def test_a_second_pick_is_still_renamed(self, monkeypatch):
        # A pick is renamed exactly when the same non-ground family is
        # already in its selection, once per prefix the join walks: never
        # for meeting the program rule, nor for another seed of the g rule.
        # The g rule's closing seed is renamed only where it closes both
        # calls.
        renamed = self.counted_renames(monkeypatch)
        program = parse_program(CALLS_TWICE, "calls-twice")
        seeds, source = seeded(program)
        patid = identity_rules(program.symbols, source)
        stored = PatternRuleSet(seeds)
        twice, new = [], None
        for _ in range(4):
            snapshot = list(stored)
            # The round's prefixes that end with a second pick of a family.
            prefixes = {}
            for rule, (rule_idx, i, combo) in _attempts(program, snapshot, patid, source, new):
                for j, r in enumerate(combo):
                    if r.vars() and any(q is r for q in combo[:j]):
                        prefixes[(rule_idx, i, *map(id, combo[: j + 1]))] = r
                if rule is not None:
                    stored.add(rule)
            twice += prefixes.values()
            new = {id(r) for r in list(stored)[len(snapshot):]}
        assert len(stored) > len(seeds)
        # `_derive` fills each rule's variables from its walk, and seeding
        # from its own.
        assert all(r.vars() == term_vars((r.lhs, r.rhs)) for r in stored)
        assert twice and sorted(map(id, renamed)) == sorted(map(id, twice))

    SOURCES = {**PROGRAM_SOURCES, "calls-twice": CALLS_TWICE}

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_same_answers_with_fresh_spelled_variables(self, name):
        # Program variables spelled as fresh names were before they took a
        # prime meet no fresh variable, and every answer stays as it was.
        text = self.SOURCES[name]
        spelled = _spelled_fresh(text)
        assert re.search(r"\b_0\b", spelled)
        budget = UnfoldBudget(wall_clock=3600.0, max_iterations=8)
        answers = []
        for src in (text, spelled):
            program = parse_program(src, name)
            answers.append(
                [
                    (o.status, o.reason, o.unfolded, str(o.witness))
                    for o in (prove(program, q, budget) for q in program.queries)
                ]
            )
        assert answers[0] and answers[0] == answers[1]


# shrink with its recursive clause written twice.
NREV = (
    "%query: rev(i,i).\nrev(nil, nil).\n"
    "rev(cons(X, Xs), R) :- rev(Xs, R1), app(R1, cons(X, nil), R).\n"
    "app(nil, L, L).\napp(cons(X, L1), L2, cons(X, L3)) :- app(L1, L2, L3).\n"
)


class TestInduction:
    """A family that a one-atom rule grows by one ground layer per round is
    closed by induction (`unfold.induce`): its induced family holds every
    later one, so the search reaches a fixpoint."""

    @staticmethod
    def goal_saturate(text, rounds, on_rule=None):
        program = parse_program(text)
        goal = program.queries[0].predicate
        base, source = seeded(program, goal)
        budget = UnfoldBudget(wall_clock=3600.0, max_iterations=rounds)
        rules, stats = saturate(program, base, budget, on_rule, goal=goal, source=source)
        return program, list(rules), stats

    @pytest.mark.parametrize("rounds", [3, 40])
    def test_shift_induces_one_family_and_ends_at_a_fixpoint(self, rounds):
        program, rules, stats = self.goal_saturate(CAP_CONTROLS["shift"], rounds)
        assert (stats.stop, stats.iterations, stats.generated, stats.induced) == ("fixpoint", 3, 3, 1)
        first, second, family = rules
        assert is_variant(first, PatternRule(term("f(s(X),Y)"), term("f(X,s(Y))")))
        assert is_variant(second, PatternRule(term("f(s(s(X)),Y)"), term("f(X,s(s(Y)))")))
        # f(s^(n+1)(X),Y) => f(X,s^(n+1)(Y)), with fresh variables.
        grown = PowerSymbol(App(S, (HOLE,)), 1, 1)
        x, y = sorted(family.vars(), key=lambda v: v.name)
        assert family == PatternRule(App(F, (App(grown, (x,)), y)), App(F, (x, App(grown, (y,)))))
        # Its instance at 0 is the family it was induced from, at 1 the one
        # that grew it, and every instance is a derivable binary rule.
        assert is_variant(family.at(0), first) and is_variant(family.at(1), second)
        assert check_correct_sampled(family, program, 3, 8)

    def test_covered_rules_still_meet_on_rule(self):
        # Round 3 derives the next concrete family, the induced family's
        # instance at 2: the store drops it, but the detector sees it, as
        # it would have seen it stored without induction.  The rule is
        # never unfolded with the induced family, whose source it is: that
        # gives the family shifted by one, as the check in round 2 found.
        seen = []
        program, rules, stats = self.goal_saturate(CAP_CONTROLS["shift"], 8, seen.append)
        family = rules[2]
        assert family.source is program.rules[0]
        assert seen[:3] == rules and len(seen) == 4
        assert cover(family, seen[3]) == ("instance", 2)
        assert stats.subsumed == 1

    @pytest.mark.parametrize("name", ["len", "app", "nrev"])
    def test_a_layer_holding_a_variable_proposes_nothing(self, monkeypatch, name):
        # len's and app's rules hold a head variable their body lacks, the
        # element of the list cell each call adds, and nrev's own rule has
        # two body atoms: no rule of theirs ever proposes a family.
        proposed = []
        real = unfold._propose
        monkeypatch.setattr(unfold, "_propose", lambda *args: proposed.append(args) or real(*args))
        _, _, stats = self.goal_saturate({**CAP_CONTROLS, "nrev": NREV}[name], 8)
        assert (stats.stop, stats.induced, proposed) == ("iteration-cap", 0, [])

    def test_a_proposal_stops_where_the_families_part_otherwise(self, monkeypatch):
        # The first position reads the layer s; the second, g against h,
        # peels no s layer, and the walk ends there: the third, s(Z)
        # against s(s(Z)), is never read.
        program = parse_program("p(s(X), Y, s(Z)) :- p(X, Y, Z).\n")
        source = VarSource()
        pick, derived = apart(
            [
                PatternRule(term("p(X,g(Y),s(Z))"), term("p(X,Y,Z)")),
                PatternRule(term("p(s(X),h(Y),s(s(Z)))"), term("p(X,Y,Z)")),
            ],
            source,
        )
        peeled = []
        real = unfold.strip_power
        monkeypatch.setattr(unfold, "strip_power", lambda u, c: peeled.append(u) or real(u, c))
        assert unfold._propose(pick, derived, source, program.rules[0]) is None
        assert [str(u) for u in peeled] == [str(derived.lhs.args[1])]

    def test_a_family_whose_unfolding_is_no_shift_is_refused(self):
        # F' grows F by one s layer at both positions, so the proposal is
        # G = f(s^(n+1)(X),Y) => f(X,s^(n+1)(Y)); but the rule wraps Y in g,
        # so unfolding it with G gives f(s^(n+2)(X),Y) => f(X,s^(n+1)(g(Y))),
        # which is no shift of G, and G is refused.
        program = parse_program("f(s(X), Y) :- f(X, g(Y)).\n")
        source = VarSource()
        pick, derived = apart(
            [
                PatternRule(term("f(s(X),Y)"), term("f(X,s(Y))")),
                PatternRule(term("f(s(s(X)),Y)"), term("f(X,s(s(Y)))")),
            ],
            source,
        )
        assert unfold._propose(pick, derived, source, program.rules[0]) is not None
        assert unfold.induce(program.rules[0], pick, derived, source) is None
        # The same pair under the rule that does grow it is closed.
        shift_rule = parse_program("f(s(X), Y) :- f(X, s(Y)).\n").rules[0]
        assert unfold.induce(shift_rule, pick, derived, source) is not None

    def test_a_family_with_a_power_is_not_grown(self):
        # Its instance at 0 would have no power, so it cannot be the pick.
        program = parse_program(CAP_CONTROLS["shift"])
        source = VarSource()
        family = self.goal_saturate(CAP_CONTROLS["shift"], 3)[1][2]
        (pick,) = apart([family], source)
        assert unfold.induce(program.rules[0], pick, _shifted(pick, 1), source) is None


SHRINK_TWICE = "%query: f(i).\nf(s(X)) :- f(X).\nf(s(X)) :- f(X).\nf(0).\n"


class TestOneNamespace:
    """A search draws every variable from one source: no two families it
    holds share a variable, and none shares one with the program, so only
    a family picked twice in one selection is renamed.  Saturation refuses
    a base family that breaks this, as `PatternRuleSet.add` refuses a
    family that is not simple."""

    SOURCES = {**PROGRAM_SOURCES, "calls-twice": CALLS_TWICE, "shrink-twice": SHRINK_TWICE}

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_stored_families_are_apart(self, name):
        program = parse_program(self.SOURCES[name], name)
        base, source = seeded(program)
        budget = UnfoldBudget(wall_clock=3600.0, max_iterations=6)
        stored, _ = saturate(program, base, budget, source=source)
        assert len(stored) > 0
        assert_apart(list(stored), program)

    OPEN = PatternRule(fam("f(X)", subst(X="s(X)")), term("f(X)"))

    def test_base_family_with_program_names_is_refused(self):
        program = parse_program(SHRINK_TWICE)
        with pytest.raises(ValueError, match="renamed apart"):
            saturate(program, [self.OPEN], UnfoldBudget(max_iterations=1), source=VarSource())

    def test_base_families_sharing_a_variable_are_refused(self):
        program = parse_program(SHRINK_TWICE)
        source = VarSource()
        [open_] = apart([self.OPEN], source)
        closing = PatternRule(open_.rhs, EPSILON)
        budget = UnfoldBudget(max_iterations=1)
        for ok in ([open_], [closing]):
            saturate(program, ok, budget, source=source)
        with pytest.raises(ValueError, match="renamed apart"):
            saturate(program, [open_, closing], budget, source=source)
        # Fresh names of another source are refused too.
        with pytest.raises(ValueError, match="renamed apart"):
            saturate(program, [open_], budget, source=VarSource())


# One layer of a ground context: one symbol over the hole, with ground
# arguments or the hole repeated.
_ONE_LAYERS = [
    App(S, (HOLE,)),
    App(G, (HOLE,)),
    App(F, (HOLE, ZERO)),
    App(F, (NIL, HOLE)),
    App(F, (HOLE, HOLE)),
]


def _ground_contexts():
    """One or two layers, such as s(#1), f(#1,#1) or s(g(#1)), taken once
    or twice, such as s(g(s(g(#1))))."""
    layers = st.lists(st.sampled_from(_ONE_LAYERS), min_size=1, max_size=2)
    return st.builds(
        lambda ls, k: concrete_power(reduce(plug, ls), k, HOLE),
        layers,
        st.integers(1, 2),
    )


@st.composite
def own_seed_programs(draw):
    """p(L1(W1(X1)),..) :- p(L1(X1),..), a linear one-atom recursive rule
    where W_k is a random ground context or nothing (at least one is
    not) and L_k an optional layer in both, and one or two facts whose
    arguments are towers of W_k over a small base."""
    m = draw(st.integers(1, 3))
    xs = [Var(f"X{k}") for k in range(1, m + 1)]
    wraps = [draw(st.one_of(st.none(), _ground_contexts())) for _ in xs]
    if all(w is None for w in wraps):
        wraps[0] = draw(_ground_contexts())
    layers = [draw(st.sampled_from([None, *_ONE_LAYERS[:4]])) for _ in xs]

    def layered(layer, t):
        return t if layer is None else plug(layer, t)

    p = Symbol("p", m)
    grown = [x if w is None else plug(w, x) for w, x in zip(wraps, xs)]
    head = App(p, tuple(layered(l, g) for l, g in zip(layers, grown)))
    body = App(p, tuple(layered(l, x) for l, x in zip(layers, xs)))
    lines = [f"%query: p({','.join('i' for _ in xs)}).", f"{render(head)} :- {render(body)}."]
    bases = st.sampled_from([ZERO, NIL, App(G, (ZERO,)), Var("Y")])
    for _ in range(draw(st.integers(1, 2))):
        args = []
        for l, w in zip(layers, wraps):
            k = draw(st.integers(0, 2))
            args.append(layered(l, concrete_power(w if w is not None else HOLE, k, draw(bases))))
        lines.append(f"{render(App(p, tuple(args)))}.")
    return "\n".join(lines)


class TestOwnSeeds:
    """A seed family is its recursive rule unfolded n times with itself,
    so unfolding the rule once more with that seed gives back the seed
    shifted by one, and unfolding it with the identity gives back the open
    seed's instance at 0: the selections `_attempts` leaves out.

    When a layer of the body is the power's own context, `normalize` has
    folded it into the seed's power, and the unifier, to which a power is
    opaque, does not peel it off again: that selection derives nothing."""

    @settings(max_examples=150, deadline=None)
    @given(own_seed_programs())
    @example("%query: p(i).\np(s(g(X))) :- p(X).\np(0).")
    @example("%query: p(i,i).\np(f(X,X),Y) :- p(X,Y).\np(f(0,0),s(0)).\np(0,Y).")
    def test_unfolding_with_an_own_seed_gives_it_back(self, text):
        program = parse_program(text)
        rec = program.rules[0]
        base, source = seeded(program)
        seeds = [r for r in base if r.source is rec]
        open_ = [r for r in seeds if not r.rhs_is_epsilon()]
        assert len(open_) == 1 and len(seeds) > 1

        def unfold_with(pick):
            slots = [[pick]]
            [(got, _)] = unfold._join(rec, (0, 1), slots, source, None)
            return got

        has_layer = not all(isinstance(a, Var) for a in rec.body[0].args)
        for seed in seeds:
            got = unfold_with(seed)
            if got is None:
                assert has_layer, seed
                continue
            assert is_variant(got, _shifted(seed, 1))
            drops = []
            assert not PatternRuleSet([seed]).add(got, lambda *args: drops.append(args[2:]))
            assert drops == [("shift", 1)]
        pred = rec.body[0].symbol
        [identity] = [r for r in identity_rules(program.symbols, source) if r.lhs.symbol == pred]
        got = unfold_with(identity)
        assert not (got.lhs.powered or got.rhs.powered)
        assert is_variant(got.at(0), open_[0].at(0))
        drops = []
        assert not PatternRuleSet(open_).add(got, lambda *args: drops.append(args[2:]))
        assert drops == [("instance", 0)]


def _random_rule(rng):
    """A random simple family: two skeletons under one sigma and mu, or a
    closing family (right side epsilon).  Exponents stay small: a context
    with two holes doubles the term per step."""
    f = random_simple_pattern(rng, max_exp=2)
    if rng.random() < 0.3:
        return PatternRule(f.power(), EPSILON)
    rhs = random_term(rng, 2, sorted(term_vars(f.skeleton), key=lambda v: v.name))
    return PatternRule(f.power(), Family(rhs, f.sigma, f.mu).power())


def _shifted(rule, d):
    return PatternRule(shift(rule.lhs, d), shift(rule.rhs, d))


class TestSubsumption:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3))
    def test_shift_has_the_same_base(self, seed, d):
        rule = _random_rule(random.Random(seed))
        moved = _shifted(rule, d)
        # Shifted back down by d, it is the family again, and it shares the
        # family's shapes, so it lands in its bucket.
        assert pattern_rule_key(_shifted(moved, -d)) == pattern_rule_key(rule)
        assert (moved.lhs._shape, moved.rhs._shape) == (rule.lhs._shape, rule.rhs._shape)
        if not (rule.lhs.powered or rule.rhs.powered):
            assert is_variant(moved, rule)
            return
        assert not is_variant(moved, rule)
        assert cover(rule, moved) == ("shift", d) and cover(moved, rule) is None
        drops = []
        rules = PatternRuleSet([rule])
        assert not rules.add(moved, lambda *args: drops.append(args))
        assert drops == [(moved, rule, "shift", d)]
        assert rules.contains_variant(moved)
        # The other way round, the less shifted family is stored too.
        rules = PatternRuleSet([moved])
        assert rules.add(rule)
        assert list(rules) == [moved, rule]

    def test_the_least_shift_stored_is_reported(self):
        # gt(s^(n+1)(X), s^n(0)) => e, stored at shifts 3 and then 1: a
        # shift by 5 is reported against the later, less shifted family.
        family = PatternRule(GT_CLOSING, EPSILON)
        three, one = _shifted(family, 3), _shifted(family, 1)
        rules = PatternRuleSet([three, one])
        assert list(rules) == [three, one]
        drops = []
        assert not rules.add(_renamed(_shifted(family, 5)), lambda *args: drops.append(args[1:]))
        assert drops == [(one, "shift", 4)]
        # A variant of a stored family that a less shifted one joined
        # later is reported as a shift of that one.
        two = _shifted(family, 2)
        rules = PatternRuleSet([two, family])
        drops = []
        assert not rules.add(_renamed(two), lambda *args: drops.append(args[1:]))
        assert drops == [(family, "shift", 2)]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 2))
    def test_dropped_instances_are_stored_instances(self, seed, d):
        rule = _random_rule(random.Random(seed))
        drops = []
        rules = PatternRuleSet([rule])
        rules.add(_shifted(rule, d), lambda *args: drops.append(args))
        for dropped, held, kind, k in drops:
            assert kind == "shift"
            for n in range(3):
                assert is_variant(dropped.at(n), held.at(n + k))

    SOURCES = {**PROGRAM_SOURCES, "clashing-loop": CLASHING_LOOP}

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_saturation_drops_only_covered_families(self, name):
        # Each family saturation drops as subsumed is, at every sampled n,
        # a variant of the covering family's instance at n + k (a shift),
        # or of its instance at k (an instance drop, which has no power).
        program = parse_program(self.SOURCES[name], name)
        drops = []

        def record(*args):
            drops.append(args)

        stored = PatternRuleSet()
        seeds, source = seeded(program)
        for rule in seeds:
            stored.add(rule, record)
        patid = identity_rules(program.symbols, source)
        new = None
        for _ in range(4):
            snapshot = list(stored)
            for rule, provenance in _attempts(program, snapshot, patid, source, new):
                if rule is not None and stored.add(rule, record):
                    family = induced_by(program, provenance, rule, patid, source)
                    if family is not None:
                        stored.add(family, record)
            new = {id(r) for r in list(stored)[len(snapshot):]}
        for dropped, held, kind, k in drops:
            if kind == "instance":
                assert not (dropped.lhs.powered or dropped.rhs.powered)
                assert is_variant(dropped.at(0), held.at(k)), (dropped, held, k)
                continue
            assert kind == "shift" and k > 0
            for n in range(4):
                assert is_variant(dropped.at(n), held.at(n + k)), (dropped, held, k)

    # The second copy of shrink's recursive clause built no seed, so it is
    # unfolded with the closing seed, the open seed and the identity: the
    # first two give their own shift by one, the last the open seed's
    # instance at 0.  Every variable is a fresh one of the search: the
    # open seed has _0' (the second clause's open seed, a variant the
    # store drops, took _1'), the identities of s and f have _2' and
    # _3', and the two derived families _4' and _5'.  No pick is renamed.
    SHRINK_LINES = [
        "subsumed: f(s(#1)^(1n+1)(0)) => ε  (shift 1 of f(s(#1)^(1n+0)(0)) => ε)",
        "subsumed: f(s(#1)^(1n+2)(_4')) => f(_4')  (shift 1 of f(s(#1)^(1n+1)(_0')) => f(_0'))",
        "subsumed: f(s(_5')) => f(_5')  (instance n=0 of f(s(#1)^(1n+1)(_0')) => f(_0'))",
    ]

    def test_counted_and_traced(self):
        out = io.StringIO()
        program = parse_program(SHRINK_TWICE, "shrink-twice")
        base, source = seeded(program)
        _, stats = saturate(program, base, UnfoldBudget(max_iterations=3), trace=out, source=source)
        lines = [l for l in out.getvalue().splitlines() if l.startswith("subsumed:")]
        assert stats.subsumed == len(lines)
        assert lines == self.SHRINK_LINES
        # Written once, the clause is the source of both seeds, and none
        # of these selections is made.
        program = parse_program((PROGRAMS_DIR / "shrink.pl").read_text(), "shrink")
        out = io.StringIO()
        base, source = seeded(program)
        _, stats = saturate(program, base, UnfoldBudget(max_iterations=3), trace=out, source=source)
        assert stats.subsumed == 0 and "subsumed:" not in out.getvalue()

    def test_shrink_reaches_a_fixpoint(self):
        # Round 1 gives only shifts of the two seeds and f(s(X)) => f(X),
        # the open seed's instance at 0; all are dropped (or, on shrink,
        # not built), so saturation stops at a fixpoint whatever the cap.
        # It stores each distinct seed once: the second clause's two seeds
        # are variants of the first's, which the store drops silently.
        shrink = (PROGRAMS_DIR / "shrink.pl").read_text()
        for text, want in ((shrink, []), (SHRINK_TWICE, self.SHRINK_LINES)):
            program = parse_program(text)
            for rounds in range(1, 7):
                out = io.StringIO()
                base, source = seeded(program)
                budget = UnfoldBudget(max_iterations=rounds)
                rules, stats = saturate(program, base, budget, trace=out, source=source)
                assert (stats.generated, stats.stop, stats.iterations) == (0, "fixpoint", 1)
                distinct = list(dict.fromkeys(keys(base)))
                assert keys(rules) == distinct
                assert len(rules) == len(distinct) == 2
                lines = [l for l in out.getvalue().splitlines() if l.startswith("subsumed:")]
                assert lines == want


def _renamed(rule):
    return rename_pattern_rule(rule, fresh_renaming(rule.vars(), rule.vars(), VarSource("_r")))


def _first_power_path(t):
    """Argument positions from t's root to its leftmost outermost power."""
    path = []
    while not t.symbol.is_power:
        i = next(i for i, a in enumerate(t.args) if a.powered)
        path.append(i)
        t = t.args[i]
    return path, t


def _replace_at(t, path, new):
    if not path:
        return new
    args = list(t.args)
    args[path[0]] = _replace_at(args[path[0]], path[1:], new)
    return App(t.symbol, tuple(args))


def _near_instances(rule, n):
    """Power-free rules close to rule.at(n): itself renamed, and with the
    subterm under the first power (of the left side if it has one) grown
    or cut by one layer of its context, put under another symbol, or over
    another argument."""
    on_left = rule.lhs.powered
    path, node = _first_power_path(rule.lhs if on_left else rule.rhs)
    c, u = node.symbol.context, node.args[0]
    tower = expand_at(node, n)
    k = node.symbol.a * n + node.symbol.b
    others = [plug(c, tower), App(G, (tower,)), concrete_power(c, k, NIL if u != NIL else ZERO)]
    if k > 0:
        others.append(concrete_power(c, k - 1, u))
    inst = rule.at(n)
    out = [_renamed(inst)]
    for t in others:
        if on_left:
            out.append(PatternRule(_replace_at(inst.lhs, path, t), inst.rhs))
        else:
            out.append(PatternRule(inst.lhs, _replace_at(inst.rhs, path, t)))
    return out


def _depth(t):
    """The height of t, each shared subterm visited once."""
    heights = {}
    stack = [t]
    while stack:
        u = stack[-1]
        args = u.args if isinstance(u, App) else ()
        pending = [a for a in args if id(a) not in heights]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        heights[id(u)] = 1 + max((heights[id(a)] for a in args), default=0)
    return heights[id(t)]


def _size_at(t, m, memo):
    """The number of nodes, as a tree, of t's instance at index m, counted
    without building it: a tower of k layers of a context of |c| nodes, h
    of them holes, over u has h^k |u| + (|c| - h)(1 + h + ... + h^(k-1))."""
    if id(t) not in memo:
        if isinstance(t, Var):
            size = 1
        elif t.symbol.is_power:
            c, k = t.symbol.context, t.symbol.a * m + t.symbol.b
            n, h = _size_at(c, m, memo), _holes(c)
            layers = k if h == 1 else (h**k - 1) // (h - 1)
            size = h**k * _size_at(t.args[0], m, memo) + (n - h) * layers
        else:
            size = 1 + sum(_size_at(a, m, memo) for a in t.args)
        memo[id(t)] = size
    return memo[id(t)]


def _holes(c):
    return 1 if c == HOLE else sum(_holes(a) for a in c.args)


def _is_instance(rule, family):
    """Whether the power-free rule is a variant of the family's instance at
    some index, by brute force.  Each layer of a power's context adds to
    the height along its hole, so no instance past the rule's height can
    be one; nor can one of another size, which is counted first."""

    def size(r, m):
        return _size_at(r.lhs, m, {}) + _size_at(r.rhs, m, {})

    inst, want = rule.at(0), size(rule, 0)
    height = max(_depth(inst.lhs), _depth(inst.rhs))
    return any(
        size(family, m) == want and is_variant(inst, family.at(m)) for m in range(height + 1)
    )


def written_twice(program, i):
    """The program with its rule i written twice, the copy right after it:
    a second `Rule`, equal to the first but not the same object."""
    rules = list(program.rules)
    rules.insert(i + 1, Rule(rules[i].head, rules[i].body))
    return replace(program, rules=tuple(rules))


class TestVariantSeeds:
    """Seeding lists every variant seed, and the search's store drops it:
    a program with a fact or a clause written twice stores the families of
    the program written once, in the same rounds and order, with or
    without a goal."""

    def families(self, program, goal=None):
        seeds, source = seeded(program, goal)
        budget = UnfoldBudget(wall_clock=3600.0, max_iterations=4)
        rules, stats = saturate(program, seeds, budget, goal=goal, source=source)
        stored_seeds = [r for r in seeds if any(r is kept for kept in rules)]
        return seeds, stored_seeds, (keys(rules), stats.generated, stats.iterations, stats.stop)

    @pytest.mark.parametrize("name", sorted(PROGRAM_SOURCES))
    def test_rule_written_twice(self, name):
        program = parse_program(PROGRAM_SOURCES[name], name)
        for goal in (None, program.queries[0].predicate):
            seeds, _, want = self.families(program, goal)
            for i, rule in enumerate(program.rules):
                twice = written_twice(program, i)
                more, stored, got = self.families(twice, goal)
                assert got == want, (rule, goal)
                # The copy's variant seeds were listed, and none was stored.
                if goal is None:
                    assert keys(more) == keys(reference_initial_rules(twice))
                assert all(r.source is not twice.rules[i + 1] for r in stored), rule

    def test_fact_and_clause_written_twice(self, ex_program):
        # On the running example, the second copy of the fact gt(s(X), 0)
        # adds one closing seed, and of gt's recursive clause both seeds.
        seeds, _, want = self.families(ex_program)
        fact = next(i for i, r in enumerate(ex_program.rules) if str(r) == "gt(s(X),0).")
        clause = fact + 1
        assert not ex_program.rules[fact].body and len(ex_program.rules[clause].body) == 1
        for i, extra in ((fact, 1), (clause, 2)):
            more, stored, got = self.families(written_twice(ex_program, i))
            assert len(more) == len(seeds) + extra and got == want
            assert keys(stored) == list(dict.fromkeys(keys(more)))

    def test_variant_seed_under_a_smaller_shift(self):
        # The fact f(0) closes f at a smaller shift than f(s(0)).  The
        # second clause's f(s(0)) seed is a variant of the first's, but the
        # newest stored family that covers it is f(0)'s, one shift down, so
        # it is counted and traced as that shift; what is stored does not
        # change.
        program = parse_program("%query: f(i).\nf(s(X)) :- f(X).\nf(s(0)).\nf(0).\n")
        twice = written_twice(program, 0)
        assert self.families(twice)[2] == self.families(program)[2]
        seeds, source = seeded(twice)
        out = io.StringIO()
        budget = UnfoldBudget(max_iterations=0)
        rules, stats = saturate(twice, seeds, budget, trace=out, source=source)
        assert keys(rules) == keys(seeds[:3])
        lines = [l for l in out.getvalue().splitlines() if l.startswith("subsumed:")]
        assert lines == ["subsumed: f(s(#1)^(1n+1)(0)) => ε  (shift 1 of f(s(#1)^(1n+0)(0)) => ε)"]
        assert stats.subsumed == 1


class TestInstanceSubsumption:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 5))
    def test_renamed_instance_is_covered_and_dropped(self, seed, n):
        rule = _random_rule(random.Random(seed))
        inst = _renamed(rule.at(n))
        rules = PatternRuleSet([rule])
        assert rules.contains_variant(inst)
        drops = []
        assert not rules.add(inst, lambda *args: drops.append(args))
        assert list(rules) == [rule]
        if rule.lhs.powered or rule.rhs.powered:
            assert drops == [(inst, rule, "instance", n)]
        else:
            assert drops == []  # a variant

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 4))
    def test_covered_exactly_when_a_variant_of_an_instance(self, seed, n):
        # Near misses -- one context layer more or less at the first
        # power, another base term, another symbol above it -- are stored
        # unless they happen to be a variant of an instance of a stored
        # family, checked here by brute force.  Two random families are
        # stored, and each meets the near misses of both: it may be rooted
        # at another symbol, have its only power on the right, or have none.
        rng = random.Random(seed)
        families = [_random_rule(rng), _random_rule(rng)]
        if rng.random() < 0.5:
            # The second family's left side at one index, its right side
            # at every index: its only power, if any, is on the right.
            lhs, rhs = families[1].lhs, families[1].rhs
            families[1] = PatternRule(expand_at(lhs, rng.randint(0, 2)), rhs)
        for near in families:
            if not (near.lhs.powered or near.rhs.powered):
                continue
            for candidate in _near_instances(near, n):
                want = any(_is_instance(candidate, family) for family in families)
                rules = PatternRuleSet(families)
                assert rules.contains_variant(candidate) == want, (families, candidate)
                assert rules.add(candidate) != want

    def test_off_by_one_layer_or_base_is_stored(self):
        # gt(s^(n+1)(X), s^n(0)) => e.
        closing = PatternRule(GT_CLOSING, EPSILON)
        rules = PatternRuleSet([closing])
        assert not rules.add(PatternRule(term("gt(s(s(s(X))),s(s(0)))"), EPSILON))
        for stored in (
            "gt(s(s(s(X))),s(0))",  # one s too few on the right
            "gt(s(s(s(X))),s(s(s(0))))",  # one s too many on the right
            "gt(X,0)",  # below the family's least instance
            "gt(s(s(s(0))),s(s(0)))",  # another base term: an instance of X only
            "gt(s(s(s(X))),s(s(nil)))",  # another base on the right
        ):
            assert rules.add(PatternRule(term(stored), EPSILON)), stored

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(_power_terms("XYZ"), min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
    def test_canonical_key_is_renaming_invariant(self, parts, seed):
        # The instance check compares keys, so a key must be the same
        # exactly for variants: under any injective renaming it is
        # unchanged, and two sequences share a key only when each matches
        # the other.
        parts = tuple(parts)
        rng = random.Random(seed)
        names = [f"V{i}" for i in range(6)]
        rng.shuffle(names)
        vs = sorted(term_vars(parts), key=lambda v: v.name)
        ren = Subst({v: Var(names[i]) for i, v in enumerate(vs)})
        renamed = apply(parts, ren)
        assert canonical_key(renamed) == canonical_key(parts)
        merged = apply(parts, Subst({v: vs[0] for v in vs}))
        variants = match(parts, merged) is not None and match(merged, parts) is not None
        assert (canonical_key(merged) == canonical_key(parts)) == variants


class TestKeysOnShapeHits:
    """Seeding and saturation build no canonical key: a family is compared
    with the stored ones that share its shapes (`unfold.PatternRuleSet`),
    and with those that have a power, by `pattern.cover`, which reads both
    where they part and builds neither a key nor an instance."""

    @staticmethod
    def counted_keys(monkeypatch) -> list:
        # Patched in every module that binds it, as `TestDeadline` patches
        # `unfold.unify`, so a key built anywhere is counted.
        keyed = []
        real = canonical_key

        def counting(parts):
            keyed.append(parts)
            return real(parts)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("nonterm") and vars(module).get("canonical_key") is real:
                monkeypatch.setattr(module, "canonical_key", counting)
        return keyed

    def test_bundled_programs_build_no_key(self, monkeypatch):
        keyed = self.counted_keys(monkeypatch)
        proved = 0
        for path in sorted(PROGRAMS_DIR.glob("*.pl")):
            program = parse_program(path.read_text(), path.stem)
            for query in program.queries:
                proved += prove(program, query).proven
        assert proved > 0 and keyed == []

    def test_covered_families_are_still_refused(self, monkeypatch):
        # SHRINK_TWICE derives shifts and an instance of its seeds, which
        # share their shapes or have no power: they are refused as before,
        # and no key is built for them.
        keyed = self.counted_keys(monkeypatch)
        out = io.StringIO()
        program = parse_program(SHRINK_TWICE, "shrink-twice")
        base, source = seeded(program)
        _, stats = saturate(program, base, UnfoldBudget(max_iterations=3), trace=out, source=source)
        lines = [l for l in out.getvalue().splitlines() if l.startswith("subsumed:")]
        assert lines == TestSubsumption.SHRINK_LINES and stats.subsumed == 3
        assert keyed == []


# The gt/le/add/mul library of the clash loops.
ARITH_LIBRARY = """
gt(s(X), 0).
gt(s(X), s(Y)) :- gt(X, Y).
le(0, X).
le(s(X), s(Y)) :- le(X, Y).
add(X, 0, X).
add(X, s(Y), s(Z)) :- add(X, Y, Z).
mul(X, 0, 0).
mul(X, s(Y), Z) :- mul(X, Y, W), add(W, X, Z).
"""


def _while_loop(rule):
    return parse_program(f"%query: while(i,i).\n{rule}\n{ARITH_LIBRARY}")


class TestOffsets:
    def test_add_gt_is_proven(self):
        # add closes with Z = s^(n+0)(X) and gt needs s^(n+1)(W): two
        # powers of s that differ in offset only.
        program = _while_loop("while(X, Y) :- add(X, Y, Z), gt(Z, Y), while(Z, s(Y)).")
        out = prove(program, program.queries[0], UnfoldBudget(max_iterations=3), validate_steps=2000)
        assert out.proven and out.validated
        assert str(out.witness) == "while(s(0),0)"

    @pytest.mark.parametrize(
        "rule",
        [
            "while(X, Y) :- gt(X, Y), add(Y, Y, Z), while(X, s(Y)).",
            "while(X, Y) :- gt(X, Y), mul(Y, Y, Z), while(X, s(Y)).",
            "while(X, Y) :- le(s(Y), X), while(X, s(Y)).",
        ],
        ids=["gt-step", "gt-mul-step", "le-step"],
    )
    def test_terminating_controls_stay_unknown(self, rule):
        program = _while_loop(rule)
        budget = UnfoldBudget(wall_clock=600.0, max_iterations=20)
        out = prove(program, program.queries[0], budget)
        assert not out.proven
        assert out.reason == "fixpoint"


# While loops over the gt/add/mul/le library: proven, diverging but out of
# reach, and terminating.  Each leaves some library predicate out of its
# cone, and each calls predicates that grow families of their own.
WHILE_LOOPS = {
    "gt-add": "while(X, Y) :- gt(X, Y), add(X, Y, Z), while(Z, s(Y)).",
    "add-gt": "while(X, Y) :- add(X, Y, Z), gt(Z, Y), while(Z, s(Y)).",
    "gt-add-gtx": "while(X, Y) :- gt(X, Y), add(X, Y, Z), gt(Z, X), while(Z, s(Y)).",
    "le-add-le": "while(X, Y) :- le(s(Y), X), add(X, Y, Z), le(s(Y), Z), while(Z, s(Y)).",
    "gt-mul": "while(X, Y) :- gt(X, Y), mul(X, Y, Z), while(Z, s(Y)).",
    "le-add": "while(X, Y) :- le(s(X), Y), add(X, Y, Z), while(X, Z).",
    "gt-step": "while(X, Y) :- gt(X, Y), add(Y, Y, Z), while(X, s(Y)).",
    "gt-mul-step": "while(X, Y) :- gt(X, Y), mul(Y, Y, Z), while(X, s(Y)).",
    "le-step": "while(X, Y) :- le(s(Y), X), while(X, s(Y)).",
}


def _leads_to_goal(rule, goal):
    """Epsilon on the right, or an atom whose instances are all goal atoms:
    a power there is one of its own context, at an offset of at least 1."""
    rhs = rule.rhs
    if rule.rhs_is_epsilon():
        return True
    if isinstance(rhs, App) and rhs.symbol.is_power:
        return rhs.symbol.b >= 1 and rhs.symbol.context.symbol == goal
    return isinstance(rhs, App) and rhs.symbol == goal


def full_saturation_prove(program, query, budget):
    """Reference for `prove`: the whole program saturated without a goal,
    stopping at the first stored rule that pumps with a witness on the
    query's predicate."""
    constant = ground_constant(program)
    found = []

    def on_rule(rule):
        data = match_pumping(rule)
        if data is None:
            return False
        w = witness_from(rule, data, constant)
        if w.term.symbol != query.predicate or not check_pumps(rule, data, w.n):
            return False
        found.append(w)
        return True

    base, source = seeded(program)
    _, stats = saturate(program, base, budget, on_rule=on_rule, source=source)
    return (found[0] if found else None), stats


class TestGoalDirected:
    """With a goal, seeding builds exactly the seeds without one that have
    epsilon or a goal atom on the right, and saturating them stores exactly
    the families a run without a goal stores with epsilon or an instance of
    a goal atom on the right, in the same order, and the prover's answers
    do not change."""

    def check_useful_families(self, program, rounds):
        goal = program.queries[0].predicate
        base, source = seeded(program)
        assert keys(base) == keys(reference_initial_rules(program))
        # Seeding with the goal builds exactly the seeds that lead to it,
        # up to their fresh names.
        seeds, seed_source = seeded(program, goal)
        assert keys(seeds) == keys([r for r in base if _leads_to_goal(r, goal)])
        budget = UnfoldBudget(wall_clock=3600.0, max_iterations=rounds)
        full, full_stats = saturate(program, base, budget, source=source)
        kept, stats = saturate(program, seeds, budget, goal=goal, source=seed_source)
        want = [pattern_rule_key(r) for r in full if _leads_to_goal(r, goal)]
        assert [pattern_rule_key(r) for r in kept] == want
        assert stats.generated <= full_stats.generated
        if full_stats.stop == "fixpoint":
            assert stats.stop == "fixpoint"

    def check_same_answers(self, program, rounds):
        query = program.queries[0]
        budget = UnfoldBudget(wall_clock=3600.0, max_iterations=rounds)
        ref, ref_stats = full_saturation_prove(program, query, budget)
        out = prove(program, query, budget)
        assert out.proven == (ref is not None)
        if ref is not None:
            w = out.witness
            assert (str(w), w.n, w.data.k, w.data.alpha) == (
                str(ref), ref.n, ref.data.k, ref.data.alpha
            )
        else:
            assert out.reason in (ref_stats.stop, "fixpoint")
        assert out.unfolded <= ref_stats.generated

    @settings(max_examples=100, deadline=None)
    @given(recursive_programs())
    @example("%query: p(i).\np(X0) :- q(X0), p(s(X0)).\nq(0).\nq(s(X)) :- q(X).")
    # The guard closes only through r, which p reaches through q.
    @example("%query: p(i).\np(X0) :- q(X0), p(s(X0)).\nq(X) :- r(X).\nr(0).\nr(s(X)) :- r(X).")
    # The goal as a context: the right side p(p(p^n(0))) is a power of p.
    @example("%query: p(i).\np(X0) :- q(X0), r(p(X0)).\nr(X) :- p(X).\nq(p(X)) :- q(X).\nq(0).")
    # Facts of p and q interleaved with a variable-headed fact: each seed
    # still pairs a recursive rule with its predicate's facts in order.
    @example("%query: p(i).\np(s(X0)) :- p(X0).\nq(s(X)) :- q(X).\np(s(s(0))).\nX.\nq(0).\np(0).\nq(s(0)).")
    def test_random_recursive_programs(self, text):
        program = parse_program(text)
        self.check_useful_families(program, 4)
        self.check_same_answers(program, 4)

    @settings(max_examples=60, deadline=None)
    @given(self_wrapping_programs())
    @example(G_WRAPS_ITSELF)
    def test_goal_wrapping_itself(self, text):
        # The goal's own towers fold into powers of the goal: a family may
        # have one at the root of either side.
        program = parse_program(text)
        self.check_useful_families(program, 4)
        self.check_same_answers(program, 4)

    def test_base_family_with_a_power_of_the_goal_on_the_right(self):
        # g(#1)^(1n+1)(0) is a goal atom at every index and leads to the
        # goal; at offset 0, the instance at 0 is the argument, an h atom,
        # which does not.
        program = parse_program(G_WRAPS_ITSELF)
        goal = program.queries[0].predicate
        g = App(goal, (HOLE,))
        kept = PatternRule(App(PowerSymbol(g, 1, 1), (ZERO,)), App(PowerSymbol(g, 1, 2), (ZERO,)))
        dropped = PatternRule(term("h(0)"), App(PowerSymbol(g, 1, 0), (term("h(0)"),)))
        assert instance_root(kept.rhs) == goal and _leads_to_goal(kept, goal)
        assert instance_root(dropped.rhs) is None and not _leads_to_goal(dropped, goal)
        budget = UnfoldBudget(max_iterations=0)
        rules, _ = saturate(program, [kept], budget, goal=goal)
        assert list(rules) == [kept]

    @pytest.mark.parametrize("name", sorted(WHILE_LOOPS))
    def test_while_loops(self, name):
        program = _while_loop(WHILE_LOOPS[name])
        self.check_useful_families(program, 6)
        self.check_same_answers(program, 6)

    @pytest.mark.parametrize("name", sorted(PROGRAM_SOURCES))
    def test_bundled_programs(self, name):
        program = parse_program(PROGRAM_SOURCES[name], name)
        self.check_useful_families(program, 6)
        self.check_same_answers(program, 6)
