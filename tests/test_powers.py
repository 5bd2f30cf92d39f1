"""Context-power terms: expansion, normalization, the pattern unifier."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    F,
    G,
    NIL,
    POWER_CONTEXTS,
    S,
    ZERO,
    Family,
    context_power,
    family_subst_at,
    pattern_substitution,
    power_terms,
    random_context,
    random_simple_pattern,
    random_simple_subst,
    random_term,
    reference_normalize,
    reference_power_form,
    sigma_powers,
    subst,
    subst_at,
    term,
)
from nonterm.powers import (
    PowerSymbol,
    expand_at,
    instance_root,
    is_power,
    least_shift,
    normalize,
    pattern_form,
    pattern_mgu,
    positions,
    shift,
    tower,
)
from nonterm.terms import (
    HOLE,
    App,
    Subst,
    Symbol,
    Var,
    apply,
    concrete_power,
    match,
    match_context,
    mgu,
    plug,
    resolve,
    term_vars,
    unify,
)

S1 = App(Symbol("s", 1), (HOLE,))  # s(#1)
FC = App(Symbol("f", 3), (HOLE, term("0"), HOLE))  # f(#1, 0, #1)


def pw(c, a, b, inner):
    return App(PowerSymbol(c, a, b), (inner,))


class TestPowerSymbol:
    def test_rejects_a_broken_contract(self):
        holds_power = App(F, (HOLE, pw(S1, 1, 0, ZERO)))
        for context, a, b in [
            (S1, 0, 2),  # no slope: a constant tower
            (S1, 1, -1),  # negative offset
            (term("s(0)"), 1, 0),  # ground: no hole
            (HOLE, 1, 0),  # the bare hole, not an application
            (holds_power, 1, 0),  # a power inside the context
        ]:
            with pytest.raises(ValueError):
                PowerSymbol(context, a, b)


class TestExpand:
    def test_branching_context_at_one(self):
        u = pw(FC, 1, 1, term("1"))
        assert expand_at(u, 1) == term("f(f(1,0,1),0,f(1,0,1))")

    def test_pure_terms_unchanged(self):
        t = term("while(s(X),0)")
        assert expand_at(t, 3) == t

    def test_offset_only_at_zero(self):
        assert expand_at(pw(S1, 2, 1, Var("X1")), 0) == term("s(X1)")

    def test_substitution_expansion(self):
        theta = Subst({Var("X"): pw(S1, 1, 0, term("0"))})
        assert subst_at(theta, 2) == subst(X="s(s(0))")


class TestGroundness:
    def test_holes_contexts_and_power_nodes(self):
        assert not HOLE.ground
        assert not S1.ground and not FC.ground
        assert pw(S1, 1, 0, term("0")).ground
        assert pw(FC, 2, 1, term("f(1,0,1)")).ground
        assert not pw(S1, 1, 0, Var("X")).ground
        assert not pw(S1, 1, 0, S1).ground
        assert not App(Symbol("g", 2), (pw(S1, 1, 0, term("0")), HOLE)).ground

    def test_power_node_does_not_render_its_context(self, monkeypatch):
        # Groundness reads a symbol's name only for constants; a power
        # symbol's name renders its whole context.
        from nonterm import powers

        def no_render(t):
            raise AssertionError("rendered")

        monkeypatch.setattr(powers, "render", no_render)
        assert pw(S1, 1, 0, term("0")).ground


class TestNormalize:
    def test_layered_tower_collapses(self):
        # s(  s^{2n+1}( s^{n+2}( s(0) ) ) )  ==  s^{3n+5}(0)
        u = plug(S1, pw(S1, 2, 1, pw(S1, 1, 2, plug(S1, term("0")))))
        assert normalize(u) == pw(S1, 3, 5, term("0"))

    def test_pure_term_is_fixed(self):
        t = term("gt(s(X),0)")
        assert normalize(t) is t

    def test_concrete_layer_below_power(self):
        u = pw(FC, 1, 0, plug(FC, term("1")))
        assert normalize(u) == pw(FC, 1, 1, term("1"))

    def test_idempotent(self, rng):
        for _ in range(200):
            u = _random_power_term(rng)
            once = normalize(u)
            assert normalize(once) == once

    def test_preserves_expansion(self, rng):
        for _ in range(200):
            u = _random_power_term(rng)
            nu = normalize(u)
            for n in range(6):
                assert expand_at(nu, n) == expand_at(u, n)


class TestNormalizeProperties:
    @settings(max_examples=500, deadline=None)
    @given(t=power_terms())
    # f(0, c^(n)(X)) with c = f(0, #1): the whole node is one c layer over
    # the power.
    @example(t=App(F, (ZERO, pw(POWER_CONTEXTS[3], 1, 0, Var("X")))))
    def test_same_as_reference(self, t):
        assert normalize(t) == reference_normalize(t)

    @settings(max_examples=300, deadline=None)
    @given(t=power_terms())
    def test_idempotent(self, t):
        once = normalize(t)
        assert normalize(once) == once

    @settings(max_examples=300, deadline=None)
    @given(t=power_terms())
    def test_preserves_expansion(self, t):
        nt = normalize(t)
        for n in range(5):
            assert expand_at(nt, n) == expand_at(t, n)


class TestInstanceRoot:
    def test_plain_root_power_and_variable(self):
        assert instance_root(term("f(X,0)")) == F
        assert instance_root(pw(S1, 1, 1, Var("X"))) == S
        # At index 0 the power is its argument, g(X).
        assert instance_root(pw(S1, 1, 0, term("g(X)"))) is None
        assert instance_root(Var("X")) is None

    @settings(max_examples=300, deadline=None)
    @given(t=power_terms())
    def test_every_instance_has_it(self, t):
        t = normalize(t)
        root = instance_root(t)
        if root is not None:
            for n in range(4):
                assert expand_at(t, n).symbol == root


def _random_power_term(rng: random.Random) -> "App":
    """Messy power terms: stacked symbols, stray concrete layers, offsets."""
    c = random_context(rng, 2)
    inner = random_term(rng, 2)
    t = inner
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.4:
            t = pw(c if rng.random() < 0.7 else random_context(rng, 2), rng.randint(1, 2), rng.randint(0, 2), t)
        else:
            t = plug(context_power(c, rng.randint(1, 2)), t)
    wrap = rng.choice([None, Symbol("g", 1)])
    return App(wrap, (t,)) if wrap else t


class TestPowerForm:
    def test_double_step_binding(self):
        u = reference_power_form(term("f(s(X),Y)"), subst(X="s(s(X))"), subst(X="s(X1)", Y="0"))
        assert u == App(Symbol("f", 2), (pw(S1, 2, 2, Var("X1")), term("0")))

    def test_lifted_term_is_itself(self):
        v = term("while(X,s(Y))")
        assert reference_power_form(v, Subst(), Subst()) == v

    def test_seed_family_form(self):
        u = reference_power_form(term("gt(X,Y)"), subst(X="s(X)", Y="s(Y)"), subst(X="s(X)", Y="0"))
        assert u == App(Symbol("gt", 2), (pw(S1, 1, 1, Var("X")), pw(S1, 1, 0, term("0"))))

    def test_non_simple_binding_rejected(self):
        assert reference_power_form(term("g(X)"), subst(X="f(X,Y)"), Subst()) is None

    def test_variable_skeleton(self):
        got = reference_power_form(Var("X"), subst(X="s(X)"), subst(X="0"))
        assert got == pw(S1, 1, 0, term("0"))

    def test_given_split_is_the_computed_one(self, rng):
        for _ in range(100):
            f = random_simple_pattern(rng)
            assert reference_power_form(*f, sigma_powers(f.sigma)) == reference_power_form(*f)

    def test_split_marks_other_shapes(self):
        moved = sigma_powers(subst(X="s(s(X))", Y="f(Y,Z)"))
        assert moved == {Var("X"): (S1, 2), Var("Y"): None}
        # Only the skeleton's variables need a context.
        got = reference_power_form(term("g(X)"), subst(X="s(s(X))", Y="f(Y,Z)"), Subst(), moved)
        assert got == App(G, (pw(S1, 2, 0, Var("X")),))


class TestPatternForm:
    def test_mixed_layers_example(self):
        theta = Subst(
            {
                Var("X"): plug(context_power(S1, 2), term("1")),
                Var("Y"): plug(S1, pw(S1, 2, 1, pw(S1, 1, 2, plug(S1, term("0"))))),
            }
        )
        got = pattern_form(theta)
        assert got == Subst({Var("X"): term("s(s(1))"), Var("Y"): pw(S1, 3, 5, term("0"))})
        assert pattern_substitution(got) == (
            subst(Y="s(s(s(Y)))"),
            subst(X="s(s(1))", Y="s(s(s(s(s(0)))))"),
        )

    def test_pure_substitution(self):
        theta = Subst({Var("X"): term("f(Y,0)")})
        assert pattern_form(theta) == theta

    def test_stacked_foreign_contexts_rejected(self):
        g1 = App(Symbol("g", 1), (HOLE,))
        theta = Subst({Var("X"): pw(S1, 1, 0, pw(g1, 1, 0, term("0")))})
        assert pattern_form(theta) is None

    def test_power_below_alien_symbol_rejected(self):
        theta = Subst({Var("X"): App(Symbol("g", 1), (pw(S1, 1, 1, Var("Y")),))})
        assert pattern_form(theta) is None


# The running example's loop unfolding: the body of the first while rule
# against the gt and add closing seeds and a while identity.
LOOP_RHO = subst(X="s(X)", Y="s(Y)", Z="s(s(Z))", X2="s(X2)", X3="s(s(X3))", Y3="s(Y3)")
LOOP_NU = subst(X="s(X1)", Y="0", Z="s(X1)", X2="s(X1)", X3="s(X1)", Y3="s(0)")


def loop_body_and_seeds():
    body = [term("gt(X,Y)"), term("add(X,Y,Z)"), term("while(Z,s(Y))")]
    seeds = [
        Family(term("gt(X1,Y1)"), subst(X1="s(X1)", Y1="s(Y1)"), subst(X1="s(X1)", Y1="0")),
        Family(term("add(X2,Y2,Z2)"), subst(Y2="s(Y2)", Z2="s(Z2)"), subst(Y2="0", Z2="X2")),
        Family(term("while(X3,Y3)")),
    ]
    return body, seeds


def assert_unifies_like_classical_mgu(theta, left, right, n_max):
    """At each n, theta(n) unifies the reference instances of the two
    family sequences and factors through their classical mgu both ways
    (equal generality)."""
    for n in range(n_max + 1):
        ln = tuple(f.at(n) for f in left)
        rn = tuple(f.at(n) for f in right)
        theta_n = subst_at(theta, n)
        assert apply(ln, theta_n) == apply(rn, theta_n)
        classical = mgu(ln, rn)
        assert classical is not None
        vs = sorted(term_vars(ln + rn), key=lambda v: v.name)
        ours = tuple(apply(v, theta_n) for v in vs)
        other = tuple(apply(v, classical) for v in vs)
        assert match(other, ours) is not None
        assert match(ours, other) is not None


class TestPatternMgu:
    def test_loop_unfolding_substitution(self):
        body, seeds = loop_body_and_seeds()
        got = pattern_mgu(body, [f.power() for f in seeds])
        assert got is not None
        for n in range(6):
            assert subst_at(got, n) == family_subst_at(LOOP_RHO, LOOP_NU, n)

    def test_identical_lifted_terms(self):
        t = term("f(X,0)")
        assert pattern_mgu([t], [t]) == Subst()

    def test_incomplete_on_misaligned_periods(self):
        # One side steps by one s-layer, the other by two: a unifier exists
        # but the canonical forms use distinct power symbols and clash.
        p = Family(term("f(X)"), subst(X="s(X)"))
        q = Family(term("f(X)"), subst(X="s(s(X))"), subst(X="Y"))
        assert pattern_mgu([p.power()], [q.power()]) is None
        # ... while the instances do unify at every index:
        for n in range(4):
            assert mgu(p.at(n), q.at(n)) is not None

    def test_length_mismatch(self):
        t = term("f(X,0)")
        assert pattern_mgu([t], [t, t]) is None

    def test_result_evaluates_to_classical_mgu(self, rng):
        # Whenever the pattern unifier succeeds, its index-n value unifies
        # the index-n sequences and factors through the classical mgu both
        # ways (equal generality).
        body, seeds = loop_body_and_seeds()
        cases = [([Family(b) for b in body], seeds)]
        for _ in range(150):
            cases.append(([random_simple_pattern(rng)], [random_simple_pattern(rng)]))
        successes = 0
        for left, right in cases:
            got = pattern_mgu([f.power() for f in left], [f.power() for f in right])
            if got is None:
                continue
            successes += 1
            assert_unifies_like_classical_mgu(got, left, right, 3)
        assert successes >= 5


G1 = App(G, (HOLE,))  # g(#1)
X, Y, Z = Var("X"), Var("Y"), Var("Z")


class TestPowerUnify:
    def test_offsets_peel_to_a_concrete_tower(self):
        # s^(n+1)(X) = s^(n+3)(Y) at every n exactly when X = s(s(Y)).
        got = pattern_mgu([pw(S1, 1, 1, X)], [pw(S1, 1, 3, Y)])
        assert got == Subst({X: term("s(s(Y))")})
        got = pattern_mgu([pw(S1, 2, 2, X)], [pw(S1, 2, 0, Y)])
        assert got == Subst({Y: term("s(s(X))")})

    def test_peeled_tower_must_still_unify(self):
        assert pattern_mgu([pw(S1, 1, 2, X)], [pw(S1, 1, 0, term("0"))]) is None
        assert pattern_mgu([pw(S1, 1, 0, term("0"))], [pw(S1, 1, 1, Y)]) is None

    def test_other_slope_or_context_clashes(self):
        assert pattern_mgu([pw(S1, 1, 0, X)], [pw(S1, 2, 0, Y)]) is None
        assert pattern_mgu([pw(S1, 1, 0, X)], [pw(G1, 1, 1, Y)]) is None
        # A power against concrete layers of its context stays a clash.
        assert pattern_mgu([pw(S1, 1, 1, X)], [term("s(Y)")]) is None

    def test_offsets_do_not_clash(self):
        # Two powers of one context and slope meet whatever their offsets,
        # in either order; another slope or context clashes.
        assert unify({}, [(pw(S1, 1, 0, X), pw(S1, 1, 1, term("0")))]) == {X: term("s(0)")}
        assert unify({}, [(pw(S1, 1, 1, term("0")), pw(S1, 1, 0, X))]) == {X: term("s(0)")}
        assert unify({}, [(pw(S1, 1, 0, X), pw(S1, 2, 0, Y))]) is None
        assert unify({}, [(pw(S1, 1, 0, X), pw(App(F, (HOLE, term("0"))), 1, 0, Y))]) is None

    def test_ground_spellings_of_one_tower_unify(self):
        assert unify({}, [(pw(S1, 1, 1, term("0")), pw(S1, 1, 0, term("s(0)")))]) == {}

    def test_bindings_are_walked(self):
        # X is bound to a power first; the second equation meets it there.
        solved = unify({}, [(X, pw(S1, 1, 2, Z)), (X, pw(S1, 1, 0, Y))])
        assert resolve(solved) == Subst({X: pw(S1, 1, 2, Z), Y: term("s(s(Z))")})


class TestSharing:
    def test_expand_at_keeps_a_shared_power_shared(self):
        p = pw(S1, 1, 0, Var("X"))
        out = expand_at(App(F, (p, p)), 3)
        assert out == term("f(s(s(s(X))),s(s(s(X))))")
        assert out.args[0] is out.args[1]

    def test_normalize_keeps_a_shared_subterm_shared(self):
        q = plug(S1, pw(S1, 1, 0, Var("X")))
        out = normalize(App(F, (q, q)))
        assert out.args[0] == pw(S1, 1, 1, Var("X"))
        assert out.args[0] is out.args[1]


class TestShift:
    def test_shift_moves_the_index(self, rng):
        for _ in range(100):
            u = random_simple_pattern(rng).power()
            for d in range(3):
                v = shift(u, d)
                assert least_shift([v]) == least_shift([u]) + (d if u.powered else 0)
                for n in range(3):
                    assert expand_at(v, n) == expand_at(u, n + d)

    def test_least_shift(self):
        t = App(F, (pw(S1, 2, 5, X), pw(G1, 1, 3, Y)))
        assert least_shift([t]) == 2
        assert least_shift([t, pw(S1, 1, 1, Z)]) == 1
        assert shift(t, -2) == App(F, (pw(S1, 2, 1, X), pw(G1, 1, 1, Y)))
        assert least_shift([term("f(X,0)")]) == 0


def _subterms(t):
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if isinstance(u, App):
            stack.extend(u.args)


class TestTower:
    def test_power_of_the_context(self):
        assert tower(pw(S1, 2, 1, X), S1) == (2, 1, X)

    def test_concrete_layers_over_another_head(self):
        assert tower(term("s(s(g(s(0))))"), S1) == (0, 2, term("g(s(0))"))

    def test_power_of_another_context(self):
        t = pw(G1, 1, 0, X)
        assert tower(t, S1) == (0, 0, t)

    def test_variable(self):
        assert tower(X, S1) == (0, 0, X)

    def test_repeated_hole_context(self):
        ff = App(F, (HOLE, HOLE))  # f(#1, #1)
        assert tower(term("f(f(0,0),f(0,0))"), ff) == (0, 2, ZERO)
        assert tower(term("f(f(0,0),f(0,1))"), ff) == (0, 0, term("f(f(0,0),f(0,1))"))
        assert tower(pw(ff, 1, 2, term("f(0,1)")), ff) == (1, 2, term("f(0,1)"))

    def test_reads_every_subterm_of_a_family(self, rng):
        """c^(a*n+b)(u) expands like the subterm it was read from."""
        for _ in range(100):
            t = random_simple_pattern(rng).power()
            contexts = {u.symbol.context for u in _subterms(t) if is_power(u)} | {S1}
            for u in _subterms(t):
                for c in contexts:
                    a, b, rest = tower(u, c)
                    assert match_context(c, rest) is None
                    for n in range(4):
                        expected = concrete_power(c, a * n + b, expand_at(rest, n))
                        assert expand_at(u, n) == expected


class TestPositions:
    def test_two_contexts_at_one_position(self):
        left = App(F, (pw(S1, 1, 0, X), ZERO))
        right = App(F, (pw(G1, 1, 0, Y), ZERO))
        assert positions(left, right) is None

    def test_variable_position(self):
        assert positions(App(F, (X, ZERO)), App(F, (Y, ZERO))) == [(None, 0, 0, X, 0, 0, Y)]

    def test_power_against_a_concrete_tower_of_its_context(self):
        left = App(F, (ZERO, pw(S1, 2, 1, X)))
        right = App(F, (ZERO, term("s(s(s(g(0))))")))
        assert positions(left, right) == [(S1, 2, 1, X, 0, 3, term("g(0)"))]

    def test_equal_ground_power_is_still_a_position(self):
        # It moves with n, so it pins the shift of a pump.
        t = pw(S1, 1, 1, ZERO)
        assert positions(App(F, (t, X)), App(F, (t, X))) == [
            (S1, 1, 1, ZERO, 1, 1, ZERO),
            (None, 0, 0, X, 0, 0, X),
        ]

    def test_left_to_right_below_identical_symbols(self):
        # f(f(g(X), 0), s^(n)(Y)) against f(f(g(Z), 0), s(0)).
        left = App(F, (App(F, (App(G, (X,)), ZERO)), pw(S1, 1, 0, Y)))
        right = App(F, (App(F, (App(G, (Z,)), ZERO)), term("s(0)")))
        assert positions(left, right) == [(None, 0, 0, X, 0, 0, Z), (S1, 1, 0, Y, 0, 1, ZERO)]


# Families in the paper's notation over two contexts and slopes 1 and 2,
# so that two random families often move a position by the same power
# and differ only in offset.
_FAMILY_CONTEXTS = [App(S, (HOLE,)), App(F, (HOLE, ZERO))]


def _plain_terms(names, max_leaves=4):
    leaves = st.sampled_from([*(Var(n) for n in names), ZERO, NIL])

    def extend(sub):
        return st.one_of(
            st.builds(lambda sym, a: App(sym, (a,)), st.sampled_from([S, G]), sub),
            st.builds(lambda a, b: App(F, (a, b)), sub, sub),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


@st.composite
def _families(draw, names, skeleton=None):
    skel = draw(_plain_terms(names)) if skeleton is None else skeleton
    sigma, mu = {}, {}
    for v in sorted(term_vars(skel), key=lambda w: w.name):
        if draw(st.booleans()):
            c = draw(st.sampled_from(_FAMILY_CONTEXTS))
            sigma[v] = plug(context_power(c, draw(st.integers(1, 2))), v)
            inner = draw(st.one_of(st.sampled_from([Var(n) for n in names]), _plain_terms(names, 2)))
            mu[v] = plug(context_power(c, draw(st.integers(0, 3))), inner)
        elif draw(st.booleans()):
            mu[v] = draw(_plain_terms(names, max_leaves=2))
    return Family(skel, Subst(sigma), Subst(mu))


_MIRROR = Subst({Var("X"): Var("U"), Var("Y"): Var("V"), Var("Z"): Var("W")})


@st.composite
def _family_pairs(draw):
    """Two families over disjoint variables, half of the time on one
    skeleton shape."""
    left = draw(_families("XYZ"))
    same_shape = draw(st.booleans())
    right = draw(_families("UVW", apply(left.skeleton, _MIRROR) if same_shape else None))
    return left, right


class TestPatternMguProperties:
    @settings(max_examples=250, deadline=None)
    @given(pair=_family_pairs())
    # f(s^(n+1)(X), 0) against f(s^(n+3)(U), V): offsets 1 and 3 of one power.
    @example(
        pair=(
            Family(term("f(X,0)"), subst(X="s(X)"), subst(X="s(X)")),
            Family(term("f(U,V)"), subst(U="s(U)"), subst(U="s(s(s(U)))")),
        )
    )
    def test_unifier_unifies_the_expansions(self, pair):
        # Checked with the reference evaluator: theta expanded at each n
        # unifies the two families' instances there, and is as general as
        # their classical mgu.  When theta has the paper's shape, reading
        # it back as sigma^n . mu gives the same expansions.
        left, right = pair
        theta = pattern_mgu([left.power()], [right.power()])
        if theta is None:
            return
        triple = pattern_form(theta)
        for n in range(5):
            theta_n = subst_at(theta, n)
            assert apply(left.at(n), theta_n) == apply(right.at(n), theta_n)
            if triple is not None:
                assert family_subst_at(*pattern_substitution(triple), n) == theta_n
        assert_unifies_like_classical_mgu(theta, [left], [right], 4)

    def test_offset_only_pairs_unify(self):
        left = Family(term("f(X,0)"), subst(X="s(X)"), subst(X="s(X)"))
        right = Family(term("f(U,V)"), subst(U="s(U)"), subst(U="s(s(s(U)))"))
        theta = pattern_mgu([left.power()], [right.power()])
        assert theta is not None
        assert_unifies_like_classical_mgu(theta, [left], [right], 4)


class TestFamilyEquivalences:
    def test_simple_patterns_expand_like_their_power_forms(self, rng):
        for _ in range(300):
            f = random_simple_pattern(rng)
            u = reference_power_form(*f)
            assert u is not None
            for n in range(6):
                assert f.at(n) == expand_at(u, n)

    def test_simple_substitutions_round_trip(self, rng):
        for _ in range(300):
            theta = random_simple_subst(rng)
            got = pattern_form(theta)
            assert got is not None
            sigma, mu = pattern_substitution(got)
            for n in range(6):
                assert subst_at(theta, n) == subst_at(got, n) == family_subst_at(sigma, mu, n)
