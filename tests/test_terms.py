"""Term kernel: substitutions, unification, contexts, powers."""

import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    F,
    G,
    NIL,
    S,
    ZERO,
    context_power,
    domain,
    random_context,
    random_ground_term,
    random_subst,
    random_term,
    range_vars,
    reference_concrete_power,
    reference_decompose_power,
    reference_match_context,
    reference_mgu,
    subst,
    term,
)
from nonterm.detect import _positions
from nonterm.pattern import initial_rules
from nonterm.powers import PowerSymbol, normalize
from nonterm.program import Program, Rule
from nonterm.terms import (
    HOLE,
    App,
    Subst,
    Symbol,
    Var,
    apply,
    commutes,
    compose,
    concrete_power,
    decompose_power,
    fresh_renaming,
    is_one_layer,
    match,
    match_context,
    mgu,
    plug,
    primitive_context,
    rebuild,
    render,
    resolve,
    strip_power,
    term_vars,
    unify,
    VarSource,
)


class TestApply:
    def test_single_binding(self):
        assert apply(term("f(X,Y)"), subst(X="0")) == term("f(0,Y)")

    def test_identity_substitution(self):
        x = Var("X")
        assert apply(x, Subst()) == x

    def test_while_head_instantiation(self):
        nu = subst(X="s(X1)", Y="0")
        assert apply(term("while(X,Y)"), nu) == term("while(s(X1),0)")

    def test_sequences_elementwise(self):
        q = (term("p(X)"), term("q(X,Y)"))
        assert apply(q, subst(X="0")) == (term("p(0)"), term("q(0,Y)"))


class TestRebuild:
    def test_unmoved_subterms_are_returned_as_they_are(self):
        t = term("f(g(X),s(Y))")
        assert apply(t, subst(Z="0")) is t
        out = apply(t, subst(Y="0"))
        assert out == term("f(g(X),s(0))") and out.args[0] is t.args[0]

    def test_shared_subterm_stays_shared(self):
        u = term("g(s(X))")
        out = apply(App(F, (u, u)), subst(X="0"))
        assert out == term("f(g(s(0)),g(s(0)))")
        assert out.args[0] is out.args[1]

    def test_each_dag_node_is_rebuilt_once(self):
        # 60 levels of f(t, t): a tree of 2^60 leaves in a DAG of 61 nodes.
        t = Var("X")
        for _ in range(60):
            t = App(F, (t, t))
        calls = []

        def node(u, args):
            calls.append(u)
            return App(u.symbol, args)

        out = rebuild(t, lambda u: ZERO if isinstance(u, Var) else None, node)
        assert len(calls) == len({id(u) for u in calls}) == 60
        assert out.ground and out.args[0] is out.args[1]


class TestCompose:
    def test_forced_by_definition(self):
        assert compose(subst(X="s(X)"), subst(X="0")) == subst(X="s(0)")

    def test_identity_left(self):
        theta = subst(X="s(Y)", Z="0")
        assert compose(Subst(), theta) == theta

    def test_prunes_trivial_bindings(self):
        # X -> Y then Y -> X sends X back to itself.
        c = compose(subst(X="Y"), subst(Y="X"))
        assert c == subst(Y="X")

    def test_application_agrees_with_composition(self, rng):
        for _ in range(300):
            s = random_term(rng)
            sig = random_subst(rng)
            th = random_subst(rng)
            assert apply(apply(s, sig), th) == apply(s, compose(sig, th))


class TestCommutes:
    def test_disjoint_variables(self):
        assert commutes(subst(X="s(X)"), subst(Y="s(Y)"))

    def test_order_matters(self):
        assert not commutes(subst(X="s(X)"), subst(X="0"))

    def test_sub_family_commutes(self):
        # The one-variable successor map commutes with the two-variable one.
        assert commutes(subst(X="s(X)"), subst(X="s(X)", Y="s(Y)"))
        assert commutes(subst(X="s(X)"), subst(X="s(X)", Y="0"))


class TestMgu:
    def test_three_atom_sequence(self):
        left = (term("gt(s(X1),0)"), term("add(X2,0,X2)"), term("while(X3,Y3)"))
        right = (term("gt(X,Y)"), term("add(X,Y,Z)"), term("while(Z,s(Y))"))
        assert mgu(left, right) == subst(
            X="s(X1)", Y="0", Z="s(X1)", X2="s(X1)", X3="s(X1)", Y3="s(0)"
        )

    def test_identical_terms(self):
        assert mgu(term("f(X,Y)"), term("f(X,Y)")) == Subst()

    def test_occurs_check(self):
        assert mgu(Var("X"), term("s(X)")) is None

    def test_clash(self):
        assert mgu(term("f(0,X)"), term("f(s(Y),X)")) is None

    def test_length_mismatch(self):
        assert mgu((term("p(X)"),), (term("p(X)"), term("q(X)"))) is None

    def test_unifies_both_sides(self, rng):
        hits = 0
        for _ in range(400):
            a, b = random_term(rng), random_term(rng)
            theta = mgu(a, b)
            if theta is not None:
                hits += 1
                assert apply(a, theta) == apply(b, theta)
        assert hits > 50

    def test_idempotent(self, rng):
        for _ in range(400):
            theta = mgu(random_term(rng), random_term(rng))
            if theta is not None:
                assert not (domain(theta) & range_vars(theta))

    def test_most_general_against_found_unifiers(self, rng):
        # Any unifier found by blind grounding must factor through the mgu.
        found = 0
        for _ in range(300):
            a = random_term(rng, 2)
            # Bias toward unifiable pairs: half the time b instantiates a.
            b = apply(a, random_subst(rng)) if rng.random() < 0.5 else random_term(rng, 2)
            theta = mgu(a, b)
            grounding = Subst({v: random_ground_term(rng, 2) for v in term_vars((a, b))})
            if apply(a, grounding) != apply(b, grounding):
                continue
            found += 1
            assert theta is not None
            vs = sorted(term_vars((a, b)), key=lambda v: v.name)
            delta = match(
                tuple(apply(v, theta) for v in vs), tuple(apply(v, grounding) for v in vs)
            )
            assert delta is not None
        assert found > 20


# Power symbols over s(#1) and f(#1, 0).  The first two differ only in
# offset, which the unifier peels off; any other pair of them clashes.
_S_CTX = App(S, (HOLE,))
_POWERS = [PowerSymbol(_S_CTX, 1, 0), PowerSymbol(_S_CTX, 1, 1), PowerSymbol(App(F, (HOLE, ZERO)), 1, 0)]


def _terms():
    leaves = st.sampled_from([*(Var(n) for n in "XYZW"), ZERO, NIL])

    def extend(sub):
        return st.one_of(
            st.builds(lambda sym, a: App(sym, (a,)), st.sampled_from([S, G, *_POWERS]), sub),
            st.builds(lambda a, b: App(F, (a, b)), sub, sub),
        )

    return st.recursive(leaves, extend, max_leaves=8)


_PAIRS = st.lists(st.tuples(_terms(), _terms()), min_size=1, max_size=4)


def _is_variant_on(vs, a: Subst, b: Subst) -> bool:
    x = tuple(normalize(apply(v, a)) for v in vs)
    y = tuple(normalize(apply(v, b)) for v in vs)
    return match(x, y) is not None and match(y, x) is not None


class TestUnifierProperties:
    @settings(max_examples=400, deadline=None)
    @given(pairs=_PAIRS)
    @example(pairs=[(term("f(X,Y)"), term("f(Y,X)")), (term("g(X)"), term("g(s(Y))"))])
    def test_same_subst_as_reference(self, pairs):
        left = tuple(l for l, _ in pairs)
        right = tuple(r for _, r in pairs)
        assert mgu(left, right) == reference_mgu(left, right)
        assert mgu(left[0], right[0]) == reference_mgu(left[0], right[0])

    @settings(max_examples=400, deadline=None)
    @given(pairs=_PAIRS)
    @example(pairs=[(term("g(g(W))"), term("g(g(Z))")), (term("Z"), term("W"))])
    def test_slot_by_slot_equals_batch(self, pairs):
        # Slot by slot, each pair is solved before the next is looked at;
        # in one batch, the pairs' arguments interleave.  Both give a most
        # general unifier, so they agree up to a renaming of variables (in
        # the example, Z -> W against W -> Z).
        bindings = {}
        for pair in pairs:
            before = dict(bindings)
            extended = unify(bindings, [pair])
            assert bindings == before
            if extended is None:
                break
            bindings = extended
        left = tuple(l for l, _ in pairs)
        right = tuple(r for _, r in pairs)
        batch = mgu(left, right)
        if extended is None:
            assert batch is None
            return
        theta = resolve(bindings)
        assert batch is not None
        # Two spellings of one power term, such as s^(n)(s(Y)) and
        # s^(n+1)(Y), are equal once normalized.
        unified = [tuple(map(normalize, apply(side, theta))) for side in (left, right)]
        assert unified[0] == unified[1]
        assert not (domain(theta) & range_vars(theta))
        assert _is_variant_on(sorted(term_vars(left + right), key=lambda v: v.name), theta, batch)

    def test_bindings_are_triangular(self):
        # Y is bound to a term over X before X is bound: nothing is
        # substituted until `resolve`.
        bindings = unify({}, [(term("f(Y,X)"), term("f(g(X),s(0))"))])
        assert bindings == {Var("Y"): term("g(X)"), Var("X"): term("s(0)")}
        assert resolve(bindings) == subst(Y="g(s(0))", X="s(0)")
        # The occurs check sees X through Y's binding.
        assert unify(bindings, [(Var("Z"), term("s(Z)"))]) is None
        assert unify({Var("Y"): term("g(X)")}, [(Var("X"), term("s(Y)"))]) is None


class TestRenameApart:
    def test_avoids_collisions(self):
        src = VarSource()
        t = term("gt(s(X),0)")
        ren = fresh_renaming(term_vars(t), {Var("X")}, src)
        assert not term_vars(apply(t, ren)) & {Var("X")}

    def test_bijective_and_invertible(self):
        src = VarSource()
        t = term("f(X,g(Y))")
        ren = fresh_renaming(term_vars(t), term_vars(t), src)
        images = [u for _, u in ren.items()]
        assert len(images) == len(set(images)) == 2
        inverse = Subst({u: v for v, u in ren.items()})
        assert apply(apply(t, ren), inverse) == t

    def test_two_copies_are_disjoint(self):
        src = VarSource()
        t = term("gt(s(X),0)")
        r1 = apply(t, fresh_renaming(term_vars(t), term_vars(t), src))
        r2 = apply(t, fresh_renaming(term_vars(t), term_vars(t), src))
        assert not term_vars(r1) & term_vars(r2)


class TestContexts:
    def test_plug_identity_context(self):
        t = term("f(X,0)")
        assert plug(HOLE, t) == t

    def test_plug_repeated_hole(self):
        c = App(Symbol("f", 3), (HOLE, term("0"), HOLE))
        one = term("1")
        assert plug(c, one) == term("f(1,0,1)")

    def test_power_expansion(self):
        c = term("s(X)")  # build s(#1) via App to avoid var capture
        c = App(Symbol("s", 1), (HOLE,))
        assert plug(context_power(c, 3), term("0")) == term("s(s(s(0)))")

    def test_power_zero(self):
        c = App(Symbol("s", 1), (HOLE,))
        assert context_power(c, 0) == HOLE

    def test_power_of_multi_occurrence_context(self):
        c = App(Symbol("f", 3), (HOLE, term("0"), HOLE))
        expect = term("f(f(1,0,1),0,f(1,0,1))")
        assert plug(context_power(c, 2), term("1")) == expect

    def test_power_homomorphism(self, rng):
        for _ in range(120):
            c = random_context(rng)
            t = random_ground_term(rng, 2)
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            lhs = plug(context_power(c, m + n), t)
            rhs = plug(context_power(c, m), plug(context_power(c, n), t))
            assert lhs == rhs

    def test_match_and_strip(self):
        c = App(Symbol("s", 1), (HOLE,))
        assert match_context(c, term("s(0)")) == term("0")
        assert match_context(c, term("0")) is None
        assert strip_power(term("s(s(X))"), c) == (2, Var("X"))


class TestOneLayerContexts:
    """`match_context` and `concrete_power` take a direct path for a context
    that is one symbol over #1 alone; it must agree with the generic walk."""

    H = Symbol("h", 3)

    def _one_layer(self, rng):
        sym = rng.choice([S, G, F, self.H])
        return App(sym, (HOLE,) * sym.arity)

    def test_shapes(self):
        assert is_one_layer(App(F, (HOLE, HOLE)))
        assert not is_one_layer(App(F, (HOLE, ZERO)))
        assert not is_one_layer(App(S, (App(S, (HOLE,)),)))

    def test_agrees_with_the_generic_walk(self, rng):
        for _ in range(2000):
            c = self._one_layer(rng)
            u = random_term(rng, 2)
            fillers = [u if rng.random() < 0.7 else random_term(rng, 2) for _ in c.args]
            roll = rng.random()
            if roll < 0.5:
                t = App(c.symbol, tuple(fillers))
            elif roll < 0.6:
                t = App(PowerSymbol(c, 1, rng.randint(0, 2)), (u,))
            else:
                t = random_term(rng, 3)
            assert is_one_layer(c)
            assert match_context(c, t) == reference_match_context(c, t)
            k = rng.randint(0, 4)
            assert concrete_power(c, k, u) == reference_concrete_power(c, k, u)
            assert strip_power(concrete_power(c, k, u), c)[0] >= k


class TestDecomposePower:
    def test_variable_tower(self):
        assert decompose_power(term("s(s(X))"), Var("X")) == (App(Symbol("s", 1), (HOLE,)), 2)

    def test_ground_tower(self):
        c, a, rest = reference_decompose_power(term("s(0)"))
        assert (c, a, rest) == (App(Symbol("s", 1), (HOLE,)), 1, term("0"))

    def test_other_variable_is_rejected(self):
        assert decompose_power(term("s(Y)"), Var("X")) is None

    def test_context_with_variable_is_rejected(self):
        assert decompose_power(term("cons(X,Y)"), Var("Y")) is None

    def test_minimal_period(self):
        c, a = decompose_power(term("s(s(s(s(X))))"), Var("X"))
        assert c == App(Symbol("s", 1), (HOLE,))
        assert a == 4

    def test_primitive_context_factors_powers(self):
        s1 = App(Symbol("s", 1), (HOLE,))
        assert primitive_context(context_power(s1, 3)) == (s1, 3)
        f = App(Symbol("f", 2), (HOLE, term("0")))
        assert primitive_context(context_power(f, 2)) == (f, 2)
        assert primitive_context(f) == (f, 1)

    def test_round_trip(self, rng):
        for _ in range(150):
            c = random_context(rng)
            a = rng.randint(1, 3)
            t = plug(context_power(c, a), Var("X"))
            got = decompose_power(t, Var("X"))
            assert got is not None
            d, k = got
            assert plug(context_power(d, k), Var("X")) == t


class TestDeepTerms:
    def test_tower_operations_stay_iterative(self):
        c = App(Symbol("s", 1), (HOLE,))
        tall = plug(context_power(c, 5000), term("0"))
        other = plug(context_power(c, 5000), term("0"))
        assert tall == other
        assert hash(tall) == hash(other)
        assert tall.ground
        theta = mgu(term("gt(X,Y)"), App(Symbol("gt", 2), (tall, term("0"))))
        assert theta is not None
        assert apply(term("gt(X,Y)"), theta).args[0] == tall
        assert "s(s(" in render(tall)

    def test_deep_power_term_normalizes(self):
        # pw(s(pw(s(...pw(s(X)))))): every level absorbs one s layer into
        # the offset and fuses with the power below, giving s^(kn+k)(X).
        k = 3000
        t = Var("X")
        for _ in range(k):
            t = App(_POWERS[0], (App(S, (t,)),))
        assert normalize(t) == App(PowerSymbol(_S_CTX, k, k), (Var("X"),))
        # A tower that cannot fuse comes back unchanged.
        u = Var("X")
        for _ in range(k):
            u = App(G, (App(_POWERS[0], (u,)),))
        assert normalize(u) == u

    def test_plain_spine_above_a_power_normalizes_in_linear_time(self):
        # g(...g(s(#1)^(1n+0)(X))...): no layer absorbs, so the term is
        # already normal.  A walk that looks for the top power again at
        # every plain node is quadratic here and takes minutes.
        t = App(_POWERS[0], (Var("X"),))
        for _ in range(20_000):
            t = App(G, (t,))
        start = time.perf_counter()
        out = normalize(t)
        assert time.perf_counter() - start < 5.0
        assert out == t

    def test_deep_seed_head_context(self):
        # p(s^3001(X),Y) :- p(s^3000(X),Y) with the fact p(s^3000(0),0):
        # the seeds are built without recursing along the body, and the
        # body matches the fact by X -> 0.
        p = Symbol("p", 2)
        deep, fact = Var("X"), term("0")
        for _ in range(3000):
            deep, fact = App(S, (deep,)), App(S, (fact,))
        body = App(p, (deep, Var("Y")))
        rules = (Rule(App(p, (App(S, (deep,)), Var("Y"))), (body,)), Rule(App(p, (fact, ZERO))))
        closing, open_ = initial_rules(Program("deep", rules, (p, S, ZERO.symbol)))
        assert closing.lhs == App(p, (App(PowerSymbol(_S_CTX, 1, 3000), (ZERO,)), ZERO))
        assert open_.lhs == App(p, (App(PowerSymbol(_S_CTX, 1, 3001), (Var("X"),)), Var("Y")))
        assert open_.rhs == body

    def test_deep_common_outer_context(self):
        left, right = Var("X"), Var("Y")
        for _ in range(3000):
            left, right = App(G, (left,)), App(G, (right,))
        assert _positions(left, right) == [(Var("X"), Var("Y"))]
