"""Pattern-unfolding engine: candidate generation, budgets, soundness."""

import io
import random
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
    calls_bounded,
    check_correct_sampled,
    fam,
    random_simple_pattern,
    random_term,
    recursive_programs,
    reference_initial_rules,
    self_wrapping_programs,
    step,
    step_candidates,
    subst,
    term,
)
from nonterm import powers, unfold
from nonterm.binrules import BinaryRule, canonical_key
from nonterm.binrules import saturate as binary_saturate
from nonterm.detect import check_pumps, ground_constant, match_pumping, prove, witness_from
from nonterm.pattern import PatternRule, initial_rules, pattern_rule_key, rule_base
from nonterm.powers import (
    PowerSymbol,
    expand_at,
    is_simple,
    normalize,
    pattern_mgu,
    shift,
)
from nonterm.program import parse_program
from nonterm.terms import (
    EPSILON,
    HOLE,
    App,
    Subst,
    Symbol,
    Var,
    VarSource,
    apply,
    concrete_power,
    fresh_renaming,
    match,
    mgu,
    plug,
    strip_power,
    term_vars,
)
from nonterm.unfold import (
    PatternRuleSet,
    UnfoldBudget,
    _attempts,
    _clashes,
    _toward,
    identity_pattern_rules,
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
        renamed = inst.rename(fresh_renaming(inst.vars(), avoid, source))
        picked.append(renamed)
        avoid |= renamed.vars()
    theta = mgu(tuple(r.head for r in picked), tuple(rule.body[:prefix_len]))
    if theta is None:
        return None
    return BinaryRule(apply(rule.head, theta), apply(picked[-1].body, theta))


def is_variant(a, b) -> bool:
    return canonical_key((a.head, a.body)) == canonical_key((b.head, b.body))


class TestIdentityPatternRules:
    def test_one_per_symbol(self, ex_program):
        rules = identity_pattern_rules(ex_program)
        assert len(rules) == len(ex_program.symbols)

    def test_shape(self, ex_program):
        rules = {r.lhs.symbol.name: r for r in identity_pattern_rules(ex_program)}
        w = rules["while"]
        assert w.lhs == w.rhs == term("while(X1,X2)")
        assert rules["0"].lhs == term("0")


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
            assert match(a.head, b.head) is not None
            assert match(b.head, a.head) is not None


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
        s_ctx = App(Symbol("s", 1), (HOLE,))
        g_ctx = App(Symbol("g", 1), (HOLE,))
        inner = App(PowerSymbol(s_ctx, 1, 0), (term("0"),))
        bad = PatternRule(App(PowerSymbol(g_ctx, 1, 0), (inner,)), EPSILON)
        with pytest.raises(ValueError):
            PatternRuleSet([bad])


class TestStep:
    def test_single_application_includes_seed_and_projections(self, ex_program):
        base = initial_rules(ex_program)
        first = step(ex_program, base, PatternRuleSet())
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
        base = initial_rules(ex_program)
        first = step(ex_program, base, PatternRuleSet())
        second = step(ex_program, base, first)
        assert any(
            r.lhs.symbol.name == "while" and r.rhs.symbol.name == "while"
            for r in second
        )


class TestSaturation:
    def test_loop_rule_appears_within_two_rounds(self, ex_program):
        base = initial_rules(ex_program)
        rules, stats = saturate(ex_program, base, UnfoldBudget(max_iterations=2))
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
        base = initial_rules(ex_program)
        rules, stats = saturate(ex_program, base, UnfoldBudget(max_rules=0))
        assert stats.stop == "rule-cap"
        assert len(rules) == len(base)
        assert stats.generated == 0

    def test_iteration_cap_reported(self, ex_program):
        _, stats = saturate(ex_program, initial_rules(ex_program), UnfoldBudget(max_iterations=1))
        assert stats.stop == "iteration-cap"

    def test_callback_short_circuits(self, ex_program):
        seen = []

        def stop_after_three(rule):
            seen.append(rule)
            return len(seen) == 3

        _, stats = saturate(
            ex_program, initial_rules(ex_program), UnfoldBudget(), on_rule=stop_after_three
        )
        assert stats.stop == "proved"
        assert len(seen) == 3

    def test_trace_lines(self, ex_program):
        out = io.StringIO()
        saturate(ex_program, initial_rules(ex_program), UnfoldBudget(max_iterations=1), trace=out)
        text = out.getvalue()
        assert "seed:" in text
        assert "round 1:" in text

    def test_monotone_accumulation(self, ex_program):
        base = initial_rules(ex_program)
        one, _ = saturate(ex_program, base, UnfoldBudget(max_iterations=1))
        two, _ = saturate(ex_program, base, UnfoldBudget(max_iterations=2))
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
        rules, stats = saturate(program, initial_rules(program, goal), goal=goal)
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
        base = initial_rules(ex_program)
        collected = []

        def collect(rule):
            collected.append(rule)
            return False

        saturate(ex_program, base, UnfoldBudget(max_iterations=2), on_rule=collect)
        oracle = binary_saturate(ex_program, 8)
        for rule in collected:
            for n in range(3):
                inst = rule.at(n)
                if oracle.contains_variant(inst):
                    continue
                calls = calls_bounded(ex_program, inst.head, 60)
                assert any(match(inst.body, got) is not None for got in calls), (
                    f"{rule} at {n} not certified"
                )


def naive_saturate(program, base, rounds):
    """Reference for `saturate`: every round offers every selection over
    the whole pool, without the semi-naive skip."""
    stored = PatternRuleSet(base)
    patid = identity_pattern_rules(program)
    source = VarSource()
    generated = 0
    for _ in range(rounds):
        grew = False
        for candidate, _ in step_candidates(program, list(stored), patid, source):
            if stored.add(candidate):
                generated += 1
                grew = True
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
        base = initial_rules(program)
        budget = UnfoldBudget(wall_clock=3600.0, max_iterations=rounds)
        rules, stats = saturate(program, base, budget)
        ref, generated, stop = naive_saturate(program, base, rounds)
        assert [pattern_rule_key(r) for r in rules] == [pattern_rule_key(r) for r in ref]
        assert stats.generated == generated
        assert stats.stop == stop

    def test_rule_cap_at_exact_count(self):
        # A cap equal to the number of families saturation finds binds
        # nowhere: no further new family ever asks to be stored.  The
        # running example reaches a fixpoint within 3 rounds; this loop
        # over the whole library still grows in round 3.
        program = parse_program(WHILE_MUL_LE, "while-mul-le")
        base = initial_rules(program)
        _, generated, stop = naive_saturate(program, base, 3)
        assert stop == "iteration-cap"
        budget = UnfoldBudget(max_iterations=3, max_rules=generated)
        _, stats = saturate(program, base, budget)
        assert (stats.stop, stats.generated) == ("iteration-cap", generated)
        budget = UnfoldBudget(max_iterations=3, max_rules=generated - 1)
        _, stats = saturate(program, base, budget)
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
        # unifications, inner slots of the join included: saturation must
        # stop within 64 more calls.
        program = parse_program(MANY_CLOSERS)
        base = initial_rules(program)
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
        saturate(program, base, budget)
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
        _, stats = saturate(program, base, budget)
        assert stats.stop == "timeout"
        assert len(outcomes) - (start + 1) <= 64


class TestExactness:
    @pytest.mark.parametrize("name", sorted(p.stem for p in PROGRAMS_DIR.glob("*.pl")))
    def test_families_are_concrete_compositions(self, name):
        # Each family an attempted selection derives is, at every sampled
        # index, a variant of the classical unfolding of the selected
        # families' instances at that index.
        program = parse_program(PROGRAM_SOURCES[name], name)
        stored = PatternRuleSet(initial_rules(program))
        patid = identity_pattern_rules(program)
        source = VarSource()
        new = None
        checked = 0
        for _ in range(3):
            snapshot = list(stored)
            for rule, (rule_idx, prefix_len, combo) in _attempts(
                program, snapshot, patid, source, new
            ):
                if rule is None:
                    continue
                checked += 1
                for n in range(4):
                    want = concrete_unfold(
                        program.rules[rule_idx], prefix_len, [r.at(n) for r in combo]
                    )
                    assert want is not None, (rule, n)
                    assert is_variant(rule.at(n), want), (rule, n)
                stored.add(rule)
            new = {id(r) for r in list(stored)[len(snapshot):]}
        assert checked > 0


# Power symbols over two contexts, s(#1) and f(#1, 0), at several slopes
# and offsets: distinct symbols, each opaque to the unifier.
_S_CTX = App(S, (HOLE,))
_F_CTX = App(F, (HOLE, ZERO))
_POWERS = [
    PowerSymbol(_S_CTX, 1, 0),
    PowerSymbol(_S_CTX, 1, 1),
    PowerSymbol(_S_CTX, 2, 0),
    PowerSymbol(_F_CTX, 1, 0),
]
_PAIR = Symbol("p", 2)


def _power_terms(names):
    leaves = st.sampled_from([*(Var(n) for n in names), ZERO, NIL])

    def extend(sub):
        return st.one_of(
            st.builds(lambda sym, a: App(sym, (a,)), st.sampled_from([S, G, *_POWERS]), sub),
            st.builds(lambda a, b: App(F, (a, b)), sub, sub),
        )

    return st.recursive(leaves, extend, max_leaves=6)


class TestClashFilter:
    @settings(max_examples=300, deadline=None)
    @given(
        lhs=_power_terms("XYZ"),
        atom=_power_terms("XUV"),
        extra=st.tuples(_power_terms("XYZ"), _power_terms("XUV")),
    )
    @example(
        lhs=App(_POWERS[0], (Var("X"),)),
        atom=App(S, (Var("U"),)),
        extra=(Var("X"), Var("U")),
    )
    @example(
        lhs=App(F, (Var("X"), App(_POWERS[1], (ZERO,)))),
        atom=App(F, (App(S, (Var("U"),)), App(_POWERS[2], (Var("V"),)))),
        extra=(Var("Y"), Var("V")),
    )
    # Two powers of s at slope 1, offsets 0 and 1: the filter lets them
    # through, and the power-level unifier peels them to X = s(U).
    @example(
        lhs=App(_POWERS[0], (App(S, (Var("X"),)),)),
        atom=App(_POWERS[1], (Var("U"),)),
        extra=(Var("X"), Var("U")),
    )
    @example(
        lhs=App(F, (App(_POWERS[1], (Var("X"),)), ZERO)),
        atom=App(F, (App(_POWERS[0], (ZERO,)), NIL)),
        extra=(Var("Y"), Var("V")),
    )
    def test_rejected_pairs_never_unify(self, lhs, atom, extra):
        # The filter looks at the stored family, before renaming; whatever
        # the other equations of a selection, a rejected pair fails, for
        # the plain unifier and for the power-level one the join uses.
        if not _clashes(lhs, atom):
            return
        avoid = term_vars(atom) | term_vars(extra[1])
        ren = fresh_renaming(term_vars(lhs) | term_vars(extra[0]), avoid, VarSource())
        lhs, left = apply(lhs, ren), apply(extra[0], ren)
        assert mgu(lhs, atom) is None
        assert unfold.unify({}, [(lhs, atom), (left, extra[1])]) is None
        assert unfold.unify({}, [(left, extra[1]), (lhs, atom)]) is None
        assert pattern_mgu([lhs, left], [atom, extra[1]]) is None

    def test_offsets_do_not_clash(self):
        # Same context and slope: not rejected, whatever the arguments.
        x_power = App(_POWERS[0], (Var("X"),))
        assert not _clashes(x_power, App(_POWERS[1], (ZERO,)))
        assert not _clashes(App(_POWERS[1], (NIL,)), App(_POWERS[0], (ZERO,)))
        assert unfold.unify({}, [(x_power, App(_POWERS[1], (ZERO,)))]) is not None
        # Another slope or context still clashes.
        assert _clashes(x_power, App(_POWERS[2], (Var("U"),)))
        assert _clashes(x_power, App(_POWERS[3], (Var("U"),)))

    def test_clash_below_the_root(self):
        power = App(_POWERS[0], (Var("X"),))
        assert _clashes(App(_PAIR, (power, ZERO)), App(_PAIR, (App(S, (Var("U"),)), ZERO)))
        assert _clashes(App(_PAIR, (Var("X"), ZERO)), App(_PAIR, (Var("U"), NIL)))
        assert not _clashes(App(_PAIR, (power, ZERO)), App(_PAIR, (Var("U"), Var("V"))))
        assert not _clashes(App(_PAIR, (Var("X"), Var("X"))), App(_PAIR, (ZERO, NIL)))


def full_renaming_attempts(program, pool, patid, source, new):
    """Reference for `_attempts`: slots filtered by root symbol only, and
    every selected family renamed apart before the unifier sees it.
    Yields each derived family with its provenance (rule index, prefix
    length, picks)."""

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
        for i in range(1, m + 1):
            slots = [compatible(eps_rules, rule.body[j]) for j in range(i - 1)]
            slots.append(compatible(all_rules if i == m else noneps_rules, rule.body[i - 1]))
            for combo in product(*slots):
                if new is not None and not any(id(pr) in new for pr in combo):
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
    """Reference for `saturate` without budgets, semi-naive like it."""
    stored = PatternRuleSet(base)
    patid = identity_pattern_rules(program)
    source = VarSource()
    generated, new = 0, None
    for _ in range(rounds):
        snapshot = list(stored)
        for candidate, _ in full_renaming_attempts(program, snapshot, patid, source, new):
            if stored.add(candidate):
                generated += 1
        if len(stored) == len(snapshot):
            return stored, generated, "fixpoint"
        new = {id(r) for r in list(stored)[len(snapshot):]}
    return stored, generated, "iteration-cap"


# The body calls g twice, so a selection may close both calls with the
# same family; the second copy must get its own variables.  The f rule
# shares no variable name with the g families, so nothing else renames them.
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
        base = initial_rules(program)
        budget = UnfoldBudget(wall_clock=3600.0, max_iterations=8)
        rules, stats = saturate(program, base, budget)
        ref, generated, stop = full_renaming_saturate(program, base, 8)
        assert [pattern_rule_key(r) for r in rules] == [pattern_rule_key(r) for r in ref]
        assert stats.generated == generated
        assert stats.stop == stop

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_same_derivations_each_round(self, name):
        # Over the same pool, each round derives the same families from
        # the same selections, in the same order, as the reference: slot
        # lists rebuilt from the pool and the pruned join drop only
        # selections that derive nothing.
        program = parse_program(self.SOURCES[name], name)
        patid = identity_pattern_rules(program)
        stored = PatternRuleSet(initial_rules(program))
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

            got = derived(_attempts(program, snapshot, patid, VarSource(), new))
            want = derived(full_renaming_attempts(program, snapshot, patid, VarSource("_f"), new))
            assert [d[:4] for d in got] == [d[:4] for d in want]
            for *_, rule in got:
                stored.add(rule)
            if len(stored) == len(snapshot):
                return
            new = {id(r) for r in list(stored)[len(snapshot):]}


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
        base, k = rule_base(rule)
        moved_base, moved_k = rule_base(moved)
        assert pattern_rule_key(moved_base) == pattern_rule_key(base)
        if not (rule.lhs.powered or rule.rhs.powered):
            assert moved_k == k == 0
            return
        assert moved_k == k + d
        drops = []
        rules = PatternRuleSet([rule])
        assert not rules.add(moved, lambda *args: drops.append(args))
        assert drops == [(moved, rule, "shift", d)]
        assert rules.contains_variant(moved)
        # The other way round, the less shifted family is stored too.
        rules = PatternRuleSet([moved])
        assert rules.add(rule)
        assert list(rules) == [moved, rule]

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
        for rule in initial_rules(program):
            stored.add(rule, record)
        patid = identity_pattern_rules(program)
        source, new = VarSource(), None
        for _ in range(4):
            snapshot = list(stored)
            for rule, _ in _attempts(program, snapshot, patid, source, new):
                if rule is not None:
                    stored.add(rule, record)
            new = {id(r) for r in list(stored)[len(snapshot):]}
        for dropped, held, kind, k in drops:
            if kind == "instance":
                assert not (dropped.lhs.powered or dropped.rhs.powered)
                assert is_variant(dropped.at(0), held.at(k)), (dropped, held, k)
                continue
            assert kind == "shift" and k > 0
            for n in range(4):
                assert is_variant(dropped.at(n), held.at(n + k)), (dropped, held, k)

    def test_counted_and_traced(self):
        program = parse_program((PROGRAMS_DIR / "shrink.pl").read_text(), "shrink")
        out = io.StringIO()
        _, stats = saturate(program, initial_rules(program), UnfoldBudget(max_iterations=3), trace=out)
        lines = [l for l in out.getvalue().splitlines() if l.startswith("subsumed:")]
        assert stats.subsumed == len(lines) > 0
        # The open seed f(s^(n+1)(X)) => f(X), unfolded with itself, is its
        # own shift by one.
        assert "subsumed: f(s(#1)^(1n+2)(_0)) => f(_0)  (shift 1 of f(s(#1)^(1n+1)(X)) => f(X))" in lines


    def test_shrink_reaches_a_fixpoint(self):
        # Round 1 gives only shifts of the two seeds and f(s(X)) => f(X),
        # the open seed's instance at 0; all are dropped, so saturation
        # stops at a fixpoint whatever the round cap.
        program = parse_program((PROGRAMS_DIR / "shrink.pl").read_text(), "shrink")
        base = initial_rules(program)
        for rounds in range(1, 7):
            out = io.StringIO()
            rules, stats = saturate(program, base, UnfoldBudget(max_iterations=rounds), trace=out)
            assert (stats.generated, stats.stop, stats.iterations) == (0, "fixpoint", 1)
            assert len(rules) == len(base)
            assert "subsumed: f(s(X)) => f(X)  (instance n=0 of f(s(#1)^(1n+1)(X)) => f(X))" in (
                out.getvalue().splitlines()
            )


def _concrete(binary):
    """A binary rule as a power-free pattern rule."""
    return PatternRule(binary.head, binary.body)


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
    out = [_renamed(_concrete(inst))]
    for t in others:
        if on_left:
            out.append(PatternRule(_replace_at(inst.head, path, t), inst.body))
        else:
            out.append(PatternRule(inst.head, _replace_at(inst.body, path, t)))
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
    height = max(_depth(inst.head), _depth(inst.body))
    return any(
        size(family, m) == want and is_variant(inst, family.at(m)) for m in range(height + 1)
    )


class TestInstanceSubsumption:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 5))
    def test_renamed_instance_is_covered_and_dropped(self, seed, n):
        rule = _random_rule(random.Random(seed))
        inst = _renamed(_concrete(rule.at(n)))
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

    _, stats = saturate(program, initial_rules(program), budget, on_rule=on_rule)
    return (found[0] if found else None), stats


class TestGoalDirected:
    """With a goal, saturation stores exactly the families a run without
    one stores with epsilon or an instance of a goal atom on the right, in
    the same order, and the prover's answers do not change."""

    def check_useful_families(self, program, rounds):
        goal = program.queries[0].predicate
        base = initial_rules(program)
        assert base == reference_initial_rules(program)
        # Seeding with the goal builds exactly the seeds saturation keeps.
        seeds = initial_rules(program, goal)
        assert seeds == [r for r in base if _toward(goal, r)]
        budget = UnfoldBudget(wall_clock=3600.0, max_iterations=rounds)
        full, full_stats = saturate(program, base, budget)
        kept, stats = saturate(program, base, budget, goal=goal)
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
        # g(#1)^(1n+1)(0) is a goal atom at every index and is kept; at
        # offset 0, the instance at 0 is the argument, an h atom.
        program = parse_program(G_WRAPS_ITSELF)
        goal = program.queries[0].predicate
        g = App(goal, (HOLE,))
        kept = PatternRule(App(PowerSymbol(g, 1, 1), (ZERO,)), App(PowerSymbol(g, 1, 2), (ZERO,)))
        dropped = PatternRule(term("h(0)"), App(PowerSymbol(g, 1, 0), (term("h(0)"),)))
        budget = UnfoldBudget(max_iterations=0)
        rules, _ = saturate(program, [kept, dropped], budget, goal=goal)
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
