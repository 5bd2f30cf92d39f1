"""Pumping-rule detection, witnesses, and the prove pipeline."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from conftest import (
    F,
    G,
    G_WRAPS_ITSELF,
    NIL,
    PROGRAMS_DIR,
    WHILE_GT_ADD,
    ZERO,
    Family,
    context_power,
    fam,
    random_context,
    recursive_programs,
    subst,
    term,
)
from nonterm import detect, pattern
from nonterm.detect import (
    PumpData,
    check_pumps,
    ground_constant,
    match_pumping,
    prove,
    witness_from,
)
from nonterm.pattern import PatternRule
from nonterm.powers import PowerSymbol
from nonterm.program import DerivationStatus, derive_bounded, parse_program
from nonterm.terms import EPSILON, HOLE, App, Subst, Symbol, Var, match, plug, render
from nonterm.unfold import UnfoldBudget


def loop_rule() -> PatternRule:
    """The rule a full unfolding of the while loop produces."""
    rho = subst(X="s(X)", Y="s(Y)", Z="s(s(Z))", X2="s(X2)", X3="s(s(X3))", Y3="s(Y3)")
    nu = subst(X="s(X1)", Y="0", Z="s(X1)", X2="s(X1)", X3="s(X1)", Y3="s(0)")
    return PatternRule(fam("while(X,Y)", rho, nu), fam("while(X3,Y3)", rho, nu))


class TestMatchPumping:
    def test_loop_rule_numbers(self):
        data = match_pumping(loop_rule())
        assert data is not None
        assert data.k == 1
        assert data.alpha == Fraction(1)

    def test_different_roots_rejected(self):
        r = PatternRule(term("f(X)"), term("g(X)"))
        assert match_pumping(r) is None

    def test_empty_rhs_rejected(self):
        r = PatternRule(term("f(X)"), EPSILON)
        assert match_pumping(r) is None

    def test_ground_anchor_needs_growth(self):
        # A constant left anchor against a growing right one: exponents
        # (0, *) on a ground position can never align.
        r = PatternRule(
            fam("f(X,Y)", Subst(), subst(X="0")),
            fam("f(X,Y)", subst(X="s(X)"), subst(X="0")),
        )
        assert match_pumping(r) is None

    def test_shrinking_rule_rejected(self):
        # right side grows strictly slower: a > ra
        r = PatternRule(
            fam("f(X)", subst(X="s(s(X))"), Subst()),
            fam("f(X)", subst(X="s(X)"), Subst()),
        )
        assert match_pumping(r) is None

    def test_plain_self_loop_is_pumping(self):
        r = PatternRule(term("p(X)"), term("p(X)"))
        data = match_pumping(r)
        assert data is not None
        assert data.k == 0 and data.alpha == 0

    def test_growing_argument_is_pumping(self):
        # p(X) calls p(s(X)): X is bound to s(X) at every index.
        r = PatternRule(term("p(X)"), term("p(s(X))"))
        data = match_pumping(r)
        assert data is not None
        assert data.k == 0 and data.alpha == 0

    def test_ground_only_variant(self):
        r = PatternRule(
            fam("f(X)", subst(X="s(X)"), subst(X="0")),
            fam("f(X)", subst(X="s(X)"), subst(X="s(0)")),
        )
        data = match_pumping(r)
        assert data is not None
        assert data.k == 1 and data.alpha == 0

    @pytest.mark.parametrize(
        "b, rb, alpha",
        [(1, 0, Fraction(1, 2)), (0, 2, -1), (0, 1, Fraction(-1, 2)), (2, 4, -1)],
    )
    def test_threshold_is_an_int_unless_it_is_not_whole(self, b, rb, alpha):
        # f(s^(n+b)(X)) => f(s^(3n+rb)(X)) binds X at slope 2, offset rb - b,
        # so it pumps from n >= (b - rb) / 2.
        s = App(Symbol("s", 1), (HOLE,))

        def side(a: int, offset: int) -> App:
            return App(Symbol("f", 1), (App(PowerSymbol(s, a, offset), (Var("X"),)),))

        r = PatternRule(side(1, b), side(3, rb))
        data = match_pumping(r)
        assert data == PumpData(0, alpha)
        assert type(data.alpha) is type(alpha) and str(data.alpha) == str(alpha)
        w = witness_from(r, data, Symbol("0", 0))
        assert all(check_pumps(r, data, n) for n in range(w.n, w.n + 4))

    def test_ground_only_divisibility(self):
        # offsets drift by one while the slope is two: (rb - b) % a != 0
        r = PatternRule(
            fam("f(X)", subst(X="s(s(X))"), subst(X="0")),
            fam("f(X)", subst(X="s(s(X))"), subst(X="s(0)")),
        )
        assert match_pumping(r) is None

    def test_mismatched_contexts_rejected(self):
        r = PatternRule(
            fam("f(X)", subst(X="s(X)"), subst(X="0")),
            fam("f(X)", subst(X="g(X)"), subst(X="0")),
        )
        assert match_pumping(r) is None

    def test_shared_variable_with_different_contexts_rejected(self):
        r = PatternRule(
            fam("f(X,Y)", subst(X="s(X)", Y="g(Y)"), subst(X="Z", Y="Z")),
            fam("f(X,Y)", subst(X="s(s(X))", Y="g(g(Y))"), subst(X="Z", Y="Z")),
        )
        assert match_pumping(r) is None

    def _pumps(self, r: PatternRule, k: int, alpha: int = 0) -> None:
        data = match_pumping(r)
        assert data is not None and (data.k, data.alpha) == (k, alpha)
        for n in range(6):
            assert check_pumps(r, data, n), n

    def test_fixed_argument_beside_a_growing_one(self):
        # p(X, s^n(Y)) => p(X, s^(n+1)(Y)): X stays, Y grows.
        r = PatternRule(
            fam("p(X,Y)", subst(Y="s(Y)")),
            fam("p(X,Y)", subst(Y="s(Y)"), subst(Y="s(Y)")),
        )
        self._pumps(r, k=0)

    def test_ground_positions_of_different_slopes_share_the_shift(self):
        # f(s^n(0), g^(2n)(0)) => f(s^(n+1)(0), g^(2n+2)(0)): slopes 1 and 2.
        r = PatternRule(
            fam("f(X,Y)", subst(X="s(X)", Y="g(g(Y))"), subst(X="0", Y="0")),
            fam("f(X,Y)", subst(X="s(X)", Y="g(g(Y))"), subst(X="s(0)", Y="g(g(0))")),
        )
        self._pumps(r, k=1)

    def test_variable_with_two_bindings_rejected(self):
        # f(s^n(X), s^n(X)) => f(s^(n+1)(X), s^(n+2)(X))
        r = PatternRule(
            fam("f(X,Y)", subst(X="s(X)", Y="s(Y)"), subst(X="Z", Y="Z")),
            fam("f(X,Y)", subst(X="s(X)", Y="s(Y)"), subst(X="s(Z)", Y="s(s(Z))")),
        )
        assert match_pumping(r) is None

    def test_variable_pinned_by_its_plain_copy_rejected(self):
        # f(X, s^n(X)) => f(X, s^(n+1)(X)): the first position binds X to X.
        r = PatternRule(
            fam("f(X,Y)", subst(Y="s(Y)"), subst(Y="X")),
            fam("f(X,Y)", subst(Y="s(Y)"), subst(Y="s(X)")),
        )
        assert match_pumping(r) is None

    def test_variable_without_growth_ignores_its_context(self):
        # f(X, s^n(X)) => f(X, s^n(X)): both positions bind X to X itself.
        r = PatternRule(
            fam("f(X,Y)", subst(Y="s(Y)"), subst(Y="X")),
            fam("f(X,Y)", subst(Y="s(Y)"), subst(Y="X")),
        )
        self._pumps(r, k=0)

    def test_identical_ground_power_still_moves(self):
        # The first position is the same ground power on both sides, so it
        # fixes k = 0, while the second asks for k = 2.
        h = HOLE
        c1 = App(F, (App(G, (h,)), App(G, (h,))))
        c2 = App(F, (h, App(G, (NIL,))))
        p = Symbol("p", 2)

        def side(b2: int) -> App:
            return App(p, (App(PowerSymbol(c1, 1, 2), (ZERO,)), App(PowerSymbol(c2, 1, b2), (ZERO,))))

        assert match_pumping(PatternRule(side(1), side(3))) is None


class TestWitness:
    def test_loop_rule_witness(self, ex_program):
        rule = loop_rule()
        data = match_pumping(rule)
        w = witness_from(rule, data, ground_constant(ex_program))
        assert w.n == 1
        assert w.term == term("while(s(s(0)),s(0))")

    def test_threshold_zero_uses_index_zero(self):
        r = PatternRule(term("p(X)"), term("p(s(X))"))
        w = witness_from(r, match_pumping(r), Symbol("0", 0))
        assert w.n == 0
        assert w.term == term("p(0)")

    def test_constant_preference(self):
        assert ground_constant(parse_program("p(0). p(nil).")).name == "0"
        assert ground_constant(parse_program("p(nil). p(a).")).name == "nil"
        fresh = ground_constant(parse_program("p(X) :- p(s(X))."))
        assert fresh.arity == 0 and fresh.name not in {"p", "s"}

    def test_pumping_chain_at_successive_indices(self):
        rule = loop_rule()
        data = match_pumping(rule)
        n = 1
        for step in range(3):
            assert check_pumps(rule, data, n + step * data.k)

    def test_witness_starts_long_derivation(self, ex_program):
        rule = loop_rule()
        data = match_pumping(rule)
        w = witness_from(rule, data, ground_constant(ex_program))
        assert derive_bounded(ex_program, (w.term,), 1000).reached_bound


class TestBruteForceAgreement:
    def test_positive_classifications_pump(self, rng):
        # Whenever the matcher accepts, the instance embedding must hold at
        # every index from the threshold up, with the reported shift.
        accepted = 0
        for _ in range(900):
            rule = _random_candidate_rule(rng)
            data = match_pumping(rule)
            if data is None:
                continue
            accepted += 1
            assert data.k <= 5
            start = max(0, -(-data.alpha.numerator // data.alpha.denominator))
            for n in range(start, 9):
                assert check_pumps(rule, data, n), f"{rule} fails at {n}"
        assert accepted >= 25


def _random_candidate_rule(rng: random.Random) -> PatternRule:
    """Small rules over a two-hole root, biased toward pumping shapes."""
    root = Symbol("p", 2)
    c1 = random_context(rng, 2)
    c2 = random_context(rng, 2)
    x, y = Var("X"), Var("Y")

    def side(ctxs, slopes, offsets, inners):
        sigma = {}
        mu = {}
        for v, c, a, b, t in zip((x, y), ctxs, slopes, offsets, inners):
            if a:
                sigma[v] = plug(context_power(c, a), v)
            mu[v] = plug(context_power(c, b), t)
        return Family(App(root, (x, y)), Subst(sigma), Subst(mu)).power()

    t1 = rng.choice([Var("Z"), term("0")])
    t2 = rng.choice([Var("W"), term("0"), t1])
    la, lb = rng.randint(0, 2), rng.randint(0, 2)
    ra_, rb_ = rng.randint(0, 3), rng.randint(0, 3)
    lhs = side((c1, c2), (la, rng.randint(0, 2)), (lb, rng.randint(0, 2)), (t1, t2))
    if rng.random() < 0.5:
        # derive the right side from the left so exponent alignment happens
        rhs = side(
            (c1, c2),
            (la + rng.randint(0, 1), la + rng.randint(0, 1)),
            (lb + rng.randint(0, 1), lb + rng.randint(0, 1)),
            (t1, t2),
        )
    else:
        rhs = side((c1, c2), (ra_, rng.randint(0, 3)), (rb_, rng.randint(0, 3)), (t1, t2))
    return PatternRule(lhs, rhs)


class TestProve:
    def test_running_example(self, ex_program):
        out = prove(ex_program, ex_program.queries[0], UnfoldBudget(), validate_steps=400)
        assert out.proven
        w = out.witness
        assert w.data.alpha == 1 and w.data.k == 1
        # any member of the while(s^{m+1}(0), s^m(0)) family with m >= 1 is fine
        got = render(w.term)
        assert got == "while(s(s(0)),s(0))"
        assert out.validated is True

    def test_empty_program(self):
        from nonterm.program import QueryMode

        empty = parse_program("")
        out = prove(empty, QueryMode(Symbol("p", 1), ("i",)), UnfoldBudget())
        assert not out.proven
        assert out.reason == "fixpoint"

    def test_facts_only_program(self):
        p = parse_program("%query: p(i).\np(X).")
        out = prove(p, p.queries[0], UnfoldBudget())
        assert not out.proven
        assert out.reason == "fixpoint"

    def test_terminating_program_not_proven(self):
        p = parse_program("%query: f(i).\nf(s(X)) :- f(X).\nf(0).")
        out = prove(p, p.queries[0], UnfoldBudget(max_iterations=6))
        assert not out.proven

    def test_witness_constant_from_a_rule_outside_the_cone(self):
        # g is outside f's cone, but its constant still grounds f's witness.
        p = parse_program("%query: f(i).\nf(X) :- f(s(X)).\ng(0).")
        out = prove(p, p.queries[0], UnfoldBudget(max_iterations=3))
        assert out.proven
        assert str(out.witness) == "f(0)"

    def test_left_side_a_power_of_the_goal(self):
        # The pumping family g(#1)^(1n+1)(0) => g(#1)^(1n+2)(0) has a power
        # of g at the root of its left side: every instance is a g atom.
        p = parse_program(G_WRAPS_ITSELF)
        out = prove(p, p.queries[0], UnfoldBudget())
        assert out.proven
        assert str(out.witness) == "g(0)"
        assert derive_bounded(p, (out.witness.term,), 300).reached_bound

    def test_two_layer_context_absorbed_through_a_ground_binding(self):
        # q's seed binds Y to the ground f(g(#1))^(1n+0)(0), which the
        # derivation walk keeps as it is; reading p(f(g(Y))), the builder
        # finds that binding's top power by its own lookup, and the general
        # `match_context` (f(g(#1)) is two layers) absorbs f(g(..)) into
        # the offset.
        p = parse_program(
            "%query: p(i).\np(Y) :- q(Y), p(f(g(Y))).\nq(f(g(X))) :- q(X).\nq(0)."
        )
        out = prove(p, p.queries[0], UnfoldBudget(), validate_steps=100)
        assert out.proven and out.validated is True
        assert str(out.witness) == "p(0)"
        assert str(out.witness.rule) == "p(f(g(#1))^(1n+0)(0)) => p(f(g(#1))^(1n+1)(0))"

    def test_query_filter_restricts_predicate(self):
        # asking about gt must not return the while witness
        src = WHILE_GT_ADD.replace("%query: while(i,i).", "%query: gt(i,i).")
        p = parse_program(src)
        assert p.queries[0].predicate.name == "gt"
        out = prove(p, p.queries[0], UnfoldBudget(max_iterations=3))
        assert not out.proven


class TestProofOutcome:
    def test_one_outcome_per_bundled_query(self):
        # A witness exactly when proven, a stop reason exactly when not,
        # and no validation verdict when none was asked for.
        for path in sorted(PROGRAMS_DIR.glob("*.pl")):
            program = parse_program(path.read_text(encoding="utf-8"), path.stem)
            for query in program.queries:
                out = prove(program, query, UnfoldBudget())
                assert out.proven == (out.witness is not None), path.stem
                assert (out.reason is None) == out.proven, path.stem
                assert out.validated is None, path.stem

    def test_a_pump_that_fails_its_check_is_dropped(self, monkeypatch):
        # `prove` re-checks each pump `match_pumping` reports at the
        # witness's index.  A reported shift one too large must fail that
        # check, and the family must not prove anything.
        real_match, real_check = match_pumping, check_pumps
        checks = []

        def one_too_far(rule):
            data = real_match(rule)
            return None if data is None else PumpData(data.k + 1, data.alpha)

        def recording_check(*args):
            checks.append(real_check(*args))
            return checks[-1]

        monkeypatch.setattr(detect, "match_pumping", one_too_far)
        monkeypatch.setattr(detect, "check_pumps", recording_check)
        p = parse_program((PROGRAMS_DIR / "while-gt-add.pl").read_text(encoding="utf-8"))
        out = prove(p, p.queries[0], UnfoldBudget())
        assert not out.proven and out.witness is None
        assert False in checks

    def test_failed_validation_is_unknown(self, monkeypatch):
        monkeypatch.setattr(
            detect, "derive_bounded", lambda *_: DerivationStatus(reached_bound=False)
        )
        p = parse_program((PROGRAMS_DIR / "while-lt.pl").read_text(encoding="utf-8"))
        out = prove(p, p.queries[0], UnfoldBudget(), validate_steps=10)
        assert out.status == "unknown" and not out.proven
        assert out.witness is None
        assert out.reason == "validation-failed"
        assert out.validated is None


    def test_validation_shares_the_query_deadline(self, monkeypatch):
        # A clock that reads 1, 2, 3, ... at its successive calls.  The
        # search starts at 1 and reads it a few times; the interpreter reads
        # it once per step and must stop at the first read past the query's
        # deadline, 1 + 100, long before its step bound.  The last read
        # times the query.
        reads = 0

        def clock():
            nonlocal reads
            reads += 1
            return float(reads)

        monkeypatch.setattr(time, "monotonic", clock)
        p = parse_program("%query: p(i).\np(X) :- p(s(X)).\np(0).\n")
        out = prove(p, p.queries[0], UnfoldBudget(wall_clock=100.0), validate_steps=500)
        assert out.proven and out.reason is None
        assert out.validated is None
        assert reads == 103

        # With room to finish, the same run validates.
        reads = 0
        out = prove(p, p.queries[0], UnfoldBudget(wall_clock=100.0), validate_steps=20)
        assert out.proven and out.validated is True

    def test_search_gets_what_seeding_left(self, monkeypatch):
        # A clock that stands still except while seeding, which takes twice
        # the query's budget: the search starts past the query's deadline,
        # so it stops at its first check, after one stored rule at most.
        now = 0.0
        seed = detect.initial_rules

        def slow_seeding(*args):
            nonlocal now
            now += 2.0
            return seed(*args)

        monkeypatch.setattr(time, "monotonic", lambda: now)
        monkeypatch.setattr(detect, "initial_rules", slow_seeding)
        lines = [f"p(s(X),c{i}) :- p(X,c{i})." for i in range(5)]
        lines += [f"p(f{j},Y)." for j in range(5)]
        p = parse_program("%query: p(i,i).\n" + "\n".join(lines))
        out = prove(p, p.queries[0], UnfoldBudget(wall_clock=1.0))
        assert out.reason == "timeout" and out.unfolded <= 1

    def test_seeding_stops_at_the_deadline(self, monkeypatch):
        # Every recursive rule misses every fact, so seeding would try all
        # 100 * 100 pairs, one `match` per step, and build nothing.  The
        # clock passes the deadline after k reads, the first of them the
        # query's start, and seeding reads it before each step, so it stops
        # at its k-th read, after k - 1 steps.
        lines = [f"p(s(X),c{i}) :- p(X,c{i})." for i in range(100)]
        lines += [f"p(f{j},Y)." for j in range(100)]
        p = parse_program("%query: p(i,i).\n" + "\n".join(lines))
        seed_match = pattern.match
        tries = reads = 0

        def counting_match(*args):
            nonlocal tries
            tries += 1
            return seed_match(*args)

        def clock():
            nonlocal reads
            reads += 1
            return 0.0 if reads <= k else 1e9

        monkeypatch.setattr(pattern, "match", counting_match)
        monkeypatch.setattr(time, "monotonic", clock)
        for k in (1, 2, 30):
            tries = reads = 0
            out = prove(p, p.queries[0], UnfoldBudget(wall_clock=1.0))
            assert out.status == "unknown" and out.reason == "timeout"
            assert out.unfolded <= 1
            assert tries <= k


class TestWitnessesRun:
    @settings(max_examples=200, deadline=None)
    @given(recursive_programs())
    @example("%query: p(i).\np(X0) :- p(s(X0)).\nq(0).\nq(s(X)) :- q(X).")
    @example("%query: p(i,i).\np(X0,X1) :- q(X0), p(X0,s(X1)).\nq(0).\nq(s(X)) :- q(X).")
    @example(G_WRAPS_ITSELF)
    def test_proven_witness_survives_the_interpreter(self, text):
        program = parse_program(text)
        out = prove(program, program.queries[0], UnfoldBudget(max_iterations=5))
        if out.proven:
            assert derive_bounded(program, (out.witness.term,), 200).reached_bound


class TestGeneralShapeOnRunningExample:
    def test_shifted_composition_rule_pumps(self, ex_program):
        # (u sigma, sigma, mu) => (u sigma^2, sigma sigma', mu) is the
        # shifted-composition shape; its instances embed with shift 1.
        sigma = subst(X="s(X)", Y="s(Y)")
        mu = subst(X="s(X)", Y="0")
        p = Family(term("while(s(X),s(Y))"), sigma, mu)
        q = Family(term("while(s(s(X)),s(s(Y)))"), subst(X="s(s(X))", Y="s(Y)"), mu)
        rule = PatternRule(p.power(), q.power())
        for n in range(4):
            assert match(p.at(n + 1), q.at(n)) is not None
        data = match_pumping(rule)
        assert data is not None and data.k == 1
        start = p.at(1)
        from nonterm.terms import apply, term_vars

        grounding = Subst({v: term("0") for v in term_vars(start)})
        status = derive_bounded(ex_program, (apply(start, grounding),), 300)
        assert status.reached_bound
