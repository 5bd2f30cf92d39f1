"""Rule families over power terms, and the seed-rule extraction."""

import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    PROGRAMS_DIR,
    SEED_FILLERS,
    SEED_LAYERS,
    SEED_WRAPS,
    Family,
    assert_apart,
    check_correct_sampled,
    fam,
    reference_initial_rules,
    respell,
    subst,
    term,
)
from nonterm.binrules import saturate
from nonterm.detect import match_pumping
from nonterm.pattern import PatternRule, cover, initial_rules, pattern_rule_key
from nonterm.powers import PowerSymbol, expand_at
from nonterm.program import derive_bounded, parse_program
from nonterm.terms import EPSILON, HOLE, App, Symbol, Var, concrete_power


class TestEvaluation:
    def test_substitution_family(self):
        # sigma^n . mu with sigma the double successor map and mu the seed.
        f = Family(term("gt(X,Y)"), subst(X="s(X)", Y="s(Y)"), subst(X="s(X)", Y="0"))
        u = f.power()
        for n, want in [
            (0, "gt(s(X),0)"),
            (1, "gt(s(s(X)),s(0))"),
            (3, "gt(s(s(s(s(X)))),s(s(s(0))))"),
        ]:
            assert expand_at(u, n) == term(want) == f.at(n)

    def test_empty_family_is_identity(self):
        for n in (0, 1, 4):
            assert expand_at(term("f(X,Y)"), n) == term("f(X,Y)")

    def test_single_binding_power(self):
        assert expand_at(fam("X", subst(X="s(X)")), 3) == term("s(s(s(X)))")

    def test_index_zero_is_mu(self):
        assert expand_at(fam("X", subst(X="s(X)"), subst(X="g(Y)")), 0) == term("g(Y)")

    def test_loop_head_families(self):
        # p(n) = while(s^{n+2}(X), s^{n+1}(0));  q(n) = while(s^{2n+3}(X), s^{n+2}(0))
        sigma = subst(X="s(X)", Y="s(Y)")
        mu = subst(X="s(X)", Y="0")
        p = fam("while(s(X),s(Y))", sigma, mu)
        q = fam("while(s(s(X)),s(s(Y)))", subst(X="s(s(X))", Y="s(Y)"), mu)
        assert expand_at(p, 0) == term("while(s(s(X)),s(0))")
        assert expand_at(p, 1) == term("while(s(s(s(X))),s(s(0)))")
        assert expand_at(q, 0) == term("while(s(s(s(X))),s(s(0)))")
        assert expand_at(q, 1) == term("while(s(s(s(s(s(X))))),s(s(s(0))))")

    def test_epsilon_stays_empty(self):
        assert PatternRule(term("f(X)"), EPSILON).at(5).rhs == EPSILON

    def test_rule_instances(self):
        sigma = subst(X="s(X)", Y="s(Y)")
        mu = subst(X="s(X)", Y="0")
        r = PatternRule(
            fam("while(s(X),s(Y))", sigma, mu),
            fam("while(s(s(X)),s(s(Y)))", subst(X="s(s(X))", Y="s(Y)"), mu),
        )
        inst = r.at(0)
        assert inst == PatternRule(term("while(s(s(X)),s(0))"), term("while(s(s(s(X))),s(s(0)))"))
        assert not (inst.lhs.powered or inst.rhs.powered)


class TestCover:
    # gt(s^(n+1)(X), s^n(0)) => e.
    CLOSING = PatternRule(fam("gt(X,Y)", subst(X="s(X)", Y="s(Y)"), subst(X="s(X)", Y="0")), EPSILON)
    # f(s^(n+1)(X), s^n(Y)) => f(X, Y).
    OPEN = PatternRule(fam("f(s(X),Y)", subst(X="s(X)", Y="s(Y)")), term("f(X,Y)"))

    def test_variant(self):
        renamed = PatternRule(fam("f(s(U),V)", subst(U="s(U)", V="s(V)")), term("f(U,V)"))
        assert cover(self.OPEN, renamed) == ("shift", 0)
        plain = PatternRule(term("f(X,g(Y))"), term("f(Y,X)"))
        assert cover(plain, PatternRule(term("f(A,g(B))"), term("f(B,A)"))) == ("shift", 0)
        # An instance in the sense of a substitution is not a variant.
        assert cover(plain, PatternRule(term("f(A,g(A))"), term("f(A,A)"))) is None
        assert cover(PatternRule(term("f(A,g(A))"), term("f(A,A)")), plain) is None

    def test_shift(self):
        sigma = subst(X="s(X)", Y="s(Y)")
        # gt(s^(n+3)(X), s^(n+2)(0)) => e is the family at n + 2.
        shifted = PatternRule(fam("gt(X,Y)", sigma, subst(X="s(s(s(X)))", Y="s(s(0))")), EPSILON)
        assert cover(self.CLOSING, shifted) == ("shift", 2)
        assert cover(shifted, self.CLOSING) is None
        # One power shifted and the other not is no shift.
        lopsided = PatternRule(fam("gt(X,Y)", sigma, subst(X="s(s(s(X)))", Y="0")), EPSILON)
        assert cover(self.CLOSING, lopsided) is None
        # Nor is a power met by concrete layers where the index fits.
        fixed = PatternRule(fam("gt(X,Y)", subst(X="s(X)"), subst(X="s(s(X))", Y="s(0)")), EPSILON)
        assert cover(self.CLOSING, fixed) is None

    def test_instance(self):
        assert cover(self.CLOSING, PatternRule(term("gt(s(s(s(Z))),s(s(0)))"), EPSILON)) == ("instance", 2)
        assert cover(self.OPEN, PatternRule(term("f(s(s(A)),s(B))"), term("f(A,B)"))) == ("instance", 1)
        for other in (
            "gt(s(s(s(Z))),s(0))",  # the two powers disagree on n
            "gt(s(s(0)),s(0))",  # a ground term where X stands
            "gt(s(s(s(Z))),s(s(nil)))",  # another base
            "gt(Z,0)",  # below the least instance
        ):
            assert cover(self.CLOSING, PatternRule(term(other), EPSILON)) is None, other
        # The right side must agree too.
        assert cover(self.OPEN, PatternRule(term("f(s(s(A)),s(B))"), term("f(B,A)"))) is None
        assert cover(self.OPEN, PatternRule(term("f(s(s(A)),s(B))"), EPSILON)) is None

    def test_shared_towers_are_read_once(self):
        # p(f(#1,#1)^2000(X)) as `concrete_power` builds it has 2000 nodes
        # and 2^2000 leaves; it is read as a DAG.
        c, p = App(Symbol("f", 2), (HOLE, HOLE)), Symbol("p", 1)
        x = Var("X")
        t = App(p, (concrete_power(c, 2000, x),))
        assert match_pumping(PatternRule(t, t)) is not None
        assert cover(PatternRule(t, t), PatternRule(t, t)) == ("shift", 0)
        family = PatternRule(App(p, (App(PowerSymbol(c, 1, 0), (x,)),)), App(p, (x,)))
        assert cover(family, PatternRule(t, App(p, (x,)))) == ("instance", 2000)


class TestInitialRules:
    def expected_rules(self):
        sigma_gt = subst(X="s(X)", Y="s(Y)")
        return [
            PatternRule(fam("gt(X,Y)", sigma_gt, subst(X="s(X)", Y="0")), EPSILON),
            PatternRule(fam("gt(s(X),s(Y))", sigma_gt), term("gt(X,Y)")),
            PatternRule(
                fam("add(X,Y,Z)", subst(Y="s(Y)", Z="s(Z)"), subst(Y="0", Z="X")), EPSILON
            ),
            PatternRule(fam("add(X,s(Y),s(Z))", subst(Y="s(Y)", Z="s(Z)")), term("add(X,Y,Z)")),
            PatternRule(fam("le(X,Y)", sigma_gt, subst(X="0", Y="X")), EPSILON),
            PatternRule(fam("le(s(X),s(Y))", sigma_gt), term("le(X,Y)")),
        ]

    def test_exact_seed_set(self, ex_program):
        got = {pattern_rule_key(r) for r in initial_rules(ex_program)}
        want = {pattern_rule_key(r) for r in self.expected_rules()}
        assert got == want

    def test_growing_list_pair_is_skipped(self, islist_program):
        # The would-be context cons(X, #1) captures a variable.
        assert initial_rules(islist_program) == []

    def test_no_pairs_in_trivial_program(self):
        assert initial_rules(parse_program("p(0). p(s(X)).")) == []

    def test_repeated_head_variables_are_skipped(self):
        # The body matches the head by X -> s(X) all the same; a body that
        # repeats a variable gives no seed, in the prover and the reference.
        p = parse_program("q(s(X),s(X)) :- q(X,X). q(0,0).")
        assert initial_rules(p) == reference_initial_rules(p) == []

    def test_variable_the_head_keeps_is_not_raised(self):
        # The body p(X,Y) matches the head by X -> s(X) alone: Y matched to
        # Y gets no binding, so only X is raised to a power.
        p = parse_program("%query: p(i,i).\np(s(X),Y) :- p(X,Y).\np(0,Y).\n")
        want = ["p(s(#1)^(1n+0)(0),_2') => ε", "p(s(#1)^(1n+1)(_0'),_1') => p(_0',_1')"]
        assert [str(r) for r in initial_rules(p)] == want
        assert [str(r) for r in initial_rules(p, p.queries[0].predicate)] == want

    def test_closing_families_reach_success(self, ex_program):
        # Each seed family with an empty right side really ends in success.
        for rule in initial_rules(ex_program):
            if not rule.rhs_is_epsilon():
                continue
            for n in range(3):
                status = derive_bounded(ex_program, (rule.at(n).lhs,), 200)
                assert status.empty_reached, f"{rule} at {n}"


class TestSampledCorrectness:
    def test_seed_rules_are_correct(self, ex_program):
        oracle = saturate(ex_program, 7)
        for rule in initial_rules(ex_program):
            assert check_correct_sampled(rule, ex_program, 2, 7, oracle=oracle)

    def test_foreign_symbol_fails_immediately(self, ex_program):
        bogus = PatternRule(term("nosuch(X)"), EPSILON)
        assert not check_correct_sampled(bogus, ex_program, 0, 2)

    def test_wrong_family_fails(self, ex_program):
        # gt(s^n(X), s^n(Y)) -> e is not a derivable family (no base case).
        bogus = PatternRule(fam("gt(X,Y)", subst(X="s(X)", Y="s(Y)")), EPSILON)
        assert not check_correct_sampled(bogus, ex_program, 2, 6)


@st.composite
def _seed_programs(draw):
    """A recursive rule p(..L(W(X))..) :- p(..L(X)..) and a few facts."""
    m = draw(st.integers(1, 3))
    xs = [f"X{i}" for i in range(m)]
    layers = [draw(st.sampled_from(SEED_LAYERS)) for _ in xs]
    wraps = [draw(st.sampled_from(SEED_WRAPS)) for _ in xs]
    head = ",".join(lay.format(x=w.format(x=x)) for lay, w, x in zip(layers, wraps, xs))
    body = ",".join(lay.format(x=x) for lay, x in zip(layers, xs))
    lines = [f"p({head}) :- p({body})."]
    for _ in range(draw(st.integers(0, 3))):
        args = [lay.format(x=draw(st.sampled_from(SEED_FILLERS))) if draw(st.booleans()) else
                draw(st.sampled_from(SEED_FILLERS)) for lay in layers]
        lines.append(f"p({','.join(args)}).")
    return "\n".join(lines)


class TestSeedsMatchTheTripleConversion:
    """`initial_rules` builds each seed as a power term directly; the
    paper's notation, converted by the reference, gives the same seeds."""

    def test_bundled_programs(self):
        for path in sorted(PROGRAMS_DIR.glob("*.pl")):
            program = parse_program(path.read_text(), path.stem)
            got = initial_rules(program)
            assert got == respell(reference_initial_rules(program), got), path.name
            assert_apart(got, program)

    @settings(max_examples=300, deadline=None)
    @given(_seed_programs())
    @example("p(s(s(X))) :- p(X).\np(s(s(s(0)))).")
    @example("p(t(g(X)),f(Y,Y)) :- p(X,Y).\np(t(g(t(g(0)))),f(f(0,0),f(0,0))).")
    @example("p(s(s(X))) :- p(s(X)).\np(s(s(s(Y)))).")
    @example("p(s(X),Z) :- p(X,Z).\np(0,f(0,0)).")
    def test_random_recursive_base_pairs(self, text):
        program = parse_program(text)
        got = initial_rules(program)
        want = respell(reference_initial_rules(program), got)
        assert got == want
        assert [repr(r) for r in got] == [repr(r) for r in want]
        assert_apart(got, program)


def _many_seeds_program():
    """40 recursive rules, each closed by its fact p(0,c_i) and missed by
    the other 79 facts: 40 + 40 * 80 = 3240 seeding steps, 80 seeds."""
    lines = [f"p(s(X),c{i}) :- p(X,c{i})." for i in range(40)]
    lines += [f"p(0,c{i})." for i in range(40)]
    lines += [f"p(f{j},Y)." for j in range(40)]
    return parse_program("%query: p(i,i).\n" + "\n".join(lines))


class TestSeedingDeadline:
    def _clock(self, monkeypatch, passes_after):
        # Stands at 0 for the first `passes_after` reads, then far past any
        # deadline; nothing sleeps.
        reads = []

        def clock():
            reads.append(None)
            return 0.0 if len(reads) <= passes_after else 1e9

        monkeypatch.setattr(time, "monotonic", clock)
        return reads

    def test_unbounded_seeding_gives_every_seed(self, monkeypatch):
        p = _many_seeds_program()
        goal = p.queries[0].predicate
        full = initial_rules(p, goal)
        assert len(full) == 80
        # One read per recursive rule and per fact tried, with or without
        # a deadline.
        for deadline in ((), (float("inf"),)):
            reads = self._clock(monkeypatch, 10**6)
            assert initial_rules(p, goal, *deadline) == full
            assert len(reads) == 3240

    def test_passed_deadline_gives_a_prefix(self, monkeypatch):
        p = _many_seeds_program()
        goal = p.queries[0].predicate
        full = initial_rules(p, goal)
        # Seeding stops at its first read past the deadline.  Rule i is
        # read at step 81i + 1 and builds its two seeds at step 81i + i + 2,
        # on its fact p(0,c_i).
        lengths = set()
        for k in (0, 1, 7, 25, 49, 50, 448, 1600, 3200):
            reads = self._clock(monkeypatch, k)
            got = initial_rules(p, goal, 1.0)
            assert got == full[: len(got)] and len(reads) == k + 1
            lengths.add(len(got))
        assert lengths == {0, 2, 12, 40, len(full)}
