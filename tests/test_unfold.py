"""Pattern-unfolding engine: candidate generation, budgets, soundness."""

import io
from types import SimpleNamespace

import pytest

from conftest import PROGRAMS_DIR, subst, term
from nonterm import unfold
from nonterm.binrules import saturate as binary_saturate
from nonterm.pattern import (
    EPSILON_PATTERN,
    NOT_COMPUTED,
    PatternRule,
    PatternTerm,
    initial_rules,
    lift,
    pattern_rule_key,
    pterm,
)
from nonterm.powers import power_form
from nonterm.program import calls_bounded, parse_program
from nonterm.terms import Subst, Var, VarSource, match
from nonterm.unfold import (
    PatternRuleSet,
    UnfoldBudget,
    _step_candidates,
    identity_pattern_rules,
    rename_pattern_rule,
    saturate,
    step,
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


class TestIdentityPatternRules:
    def test_one_per_symbol(self, ex_program):
        rules = identity_pattern_rules(ex_program)
        assert len(rules) == len(ex_program.symbols)

    def test_shape(self, ex_program):
        rules = {r.lhs.skeleton.symbol.name: r for r in identity_pattern_rules(ex_program)}
        w = rules["while"]
        assert w.lhs == w.rhs
        assert not w.lhs.subst.sigma and not w.lhs.subst.mu
        assert rules["0"].lhs.skeleton == term("0")


class TestRenaming:
    def test_disjoint_and_equivalent(self):
        rule = PatternRule(
            pterm(term("gt(X,Y)"), subst(X="s(X)", Y="s(Y)"), subst(X="s(X)", Y="0")),
            EPSILON_PATTERN,
        )
        src = VarSource()
        from nonterm.terms import fresh_renaming

        ren = fresh_renaming(rule.vars(), rule.vars(), src)
        renamed = rename_pattern_rule(rule, ren)
        assert not renamed.vars() & rule.vars()
        for n in range(3):
            a = rule.at(n)
            b = renamed.at(n)
            assert match(a.head, b.head) is not None
            assert match(b.head, a.head) is not None


class TestRuleSet:
    def test_variant_deduplication(self):
        a = PatternRule(
            pterm(term("gt(X,Y)"), subst(X="s(X)", Y="s(Y)"), subst(X="s(X)", Y="0")),
            EPSILON_PATTERN,
        )
        b = rename_pattern_rule(a, Subst({Var("X"): Var("U"), Var("Y"): Var("V")}))
        rules = PatternRuleSet([a])
        assert not rules.add(b)
        assert rules.contains_variant(b)

    def test_equivalent_families_collide(self):
        # mu layers that normalization absorbs yield the same stored family.
        a = PatternRule(pterm(Var("X"), subst(X="s(X)"), subst(X="s(0)")), EPSILON_PATTERN)
        b = PatternRule(pterm(term("s(X)"), subst(X="s(X)"), subst(X="0")), EPSILON_PATTERN)
        rules = PatternRuleSet([a])
        assert not rules.add(b)

    def test_rejects_non_simple(self):
        import pytest

        bad = PatternRule(pterm(term("g(X)"), subst(X="f(X,Y)"), Subst()), EPSILON_PATTERN)
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
            r.lhs.skeleton.symbol.name == "while" and r.rhs.skeleton.symbol.name == "gt"
            for r in first
        )
        # no empty-bodied pool rules yet, so deeper prefixes cannot close
        assert not any(
            r.lhs.skeleton.symbol.name == "while" and r.rhs.skeleton.symbol.name == "add"
            for r in first
        )

    def test_second_application_reaches_deeper_prefixes(self, ex_program):
        base = initial_rules(ex_program)
        first = step(ex_program, base, PatternRuleSet())
        second = step(ex_program, base, first)
        assert any(
            r.lhs.skeleton.symbol.name == "while" and r.rhs.skeleton.symbol.name == "while"
            for r in second
        )


class TestSaturation:
    def test_loop_rule_appears_within_two_rounds(self, ex_program):
        base = initial_rules(ex_program)
        rules, stats = saturate(ex_program, base, UnfoldBudget(max_iterations=2))
        rho = subst(X="s(X)", Y="s(Y)", Z="s(s(Z))", X2="s(X2)", X3="s(s(X3))", Y3="s(Y3)")
        nu = subst(X="s(X1)", Y="0", Z="s(X1)", X2="s(X1)", X3="s(X1)", Y3="s(0)")
        target = PatternRule(
            pterm(term("while(X,Y)"), rho, nu), pterm(term("while(X3,Y3)"), rho, nu)
        )
        assert rules.contains_variant(target)
        assert stats.iterations == 2

    def test_empty_seed_still_projects_with_identities(self, ex_program):
        rules, _ = saturate(ex_program, [], UnfoldBudget(max_iterations=1))
        # first-atom projections arise from identity rules alone
        assert any(
            r.lhs.skeleton.symbol.name == "while" and r.rhs.skeleton.symbol.name == "gt"
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
    def _pools(self, pinned_mu: bool):
        closer = PatternRule(
            pterm(term("g(s(X1))"), subst(X1="s(X1)"), Subst()), EPSILON_PATTERN
        )
        follower = PatternRule(
            lift(term("h(X3)")),
            pterm(term("k(X3)"), Subst(), subst(X3="0") if pinned_mu else Subst()),
        )
        return [closer, follower]

    def test_non_commuting_selection_is_dropped(self):
        # The shared body variable Y forces X3 onto an s-tower in sigma,
        # while the follower's mu pins X3 to a constant: s(0) != 0, the two
        # do not commute, so the full-prefix unfolding is not emitted.
        program = parse_program("f(Y) :- g(Y), h(Y).")
        got = list(_step_candidates(program, self._pools(pinned_mu=True), [], VarSource()))
        assert got == []

    def test_commuting_variant_is_kept(self):
        program = parse_program("f(Y) :- g(Y), h(Y).")
        got = list(_step_candidates(program, self._pools(pinned_mu=False), [], VarSource()))
        assert len(got) == 1
        rule, _ = got[0]
        assert rule.lhs.skeleton == term("f(Y)")
        assert rule.rhs.skeleton.symbol.name == "k"

    def test_prefix_rules_must_close(self, ex_program):
        # with no empty-bodied rules available, only single-atom prefixes
        # unfold, so nothing with the 3-atom body of the first rule reaches
        # its third atom
        rules, _ = saturate(ex_program, [], UnfoldBudget(max_iterations=3))
        assert not any(
            r.lhs.skeleton.symbol.name == "while" and r.rhs.skeleton.symbol.name == "while"
            for r in rules
        )


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
        for candidate, _ in _step_candidates(program, list(stored), patid, source):
            if stored.add(candidate):
                generated += 1
                grew = True
        if not grew:
            return stored, generated, "fixpoint"
    return stored, generated, "iteration-cap"


class TestSemiNaive:
    # Full enumeration over these pools takes minutes at 12 rounds (the
    # prover stops them in round 2 or 3), so they run fewer.  The running
    # example (`ex_program`) is while-gt-add.
    ROUNDS = {"and-isnat": 6, "while-gt-add": 6, "while-gt-step2": 6}

    @pytest.mark.parametrize("name", sorted(PROGRAM_SOURCES))
    def test_same_as_full_enumeration(self, name):
        program = parse_program(PROGRAM_SOURCES[name], name)
        rounds = self.ROUNDS.get(name, 12)
        base = initial_rules(program)
        budget = UnfoldBudget(wall_clock=3600.0, max_iterations=rounds)
        rules, stats = saturate(program, base, budget)
        ref, generated, stop = naive_saturate(program, base, rounds)
        assert [pattern_rule_key(r) for r in rules] == [pattern_rule_key(r) for r in ref]
        assert stats.generated == generated
        assert stats.stop == stop

    def test_rule_cap_at_exact_count(self, ex_program):
        # A cap equal to the number of families saturation finds binds
        # nowhere: no further new family ever asks to be stored.
        base = initial_rules(ex_program)
        _, generated, stop = naive_saturate(ex_program, base, 3)
        assert stop == "iteration-cap"
        budget = UnfoldBudget(max_iterations=3, max_rules=generated)
        _, stats = saturate(ex_program, base, budget)
        assert (stats.stop, stats.generated) == ("iteration-cap", generated)
        budget = UnfoldBudget(max_iterations=3, max_rules=generated - 1)
        _, stats = saturate(ex_program, base, budget)
        assert (stats.stop, stats.generated) == ("rule-cap", generated - 1)


class TestPowerFormMemo:
    def test_memo_equals_fresh_computation(self, monkeypatch):
        program = parse_program(WHILE_MUL_LE)
        copies = []

        def recording_rename(rule, ren):
            copy = rename_pattern_rule(rule, ren)
            copies.append(copy)
            return copy

        monkeypatch.setattr(unfold, "rename_pattern_rule", recording_rename)
        rules, _ = saturate(program, initial_rules(program), UnfoldBudget(max_iterations=4))
        assert copies
        for rule in [*rules, *copies]:
            for side in (rule.lhs, rule.rhs):
                assert side.power_memo is not NOT_COMPUTED
                fresh = PatternTerm(side.skeleton, side.subst)
                assert fresh.power_memo is NOT_COMPUTED
                assert power_form(side) == power_form(fresh)

    def test_computed_once(self):
        p = pterm(term("gt(X,Y)"), subst(X="s(X)", Y="s(Y)"), subst(X="s(X)", Y="0"))
        assert power_form(p) is power_form(p)
        assert p == PatternTerm(p.skeleton, p.subst)


class TestDeadline:
    def test_failed_unifications_are_counted(self, monkeypatch):
        # Pass the deadline on the first call of the longest run of failing
        # pattern_mgu calls: saturation must stop within 64 more calls.
        program = parse_program(CLASHING_LOOP)
        base = initial_rules(program)
        budget = UnfoldBudget(wall_clock=10.0, max_iterations=3)
        outcomes = []
        real_mgu = unfold.pattern_mgu

        def counting_mgu(left, right):
            theta = real_mgu(left, right)
            outcomes.append(theta is not None)
            return theta

        monkeypatch.setattr(unfold, "pattern_mgu", counting_mgu)
        saturate(program, base, budget)
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
