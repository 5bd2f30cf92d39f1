"""Term kernel: substitutions, unification, contexts, powers."""

import copy
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    F,
    G,
    NIL,
    PROGRAMS_DIR,
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
from nonterm import terms
from nonterm.pattern import initial_rules
from nonterm.powers import PowerSymbol, normalize, positions
from nonterm.program import Program, Rule, parse_program
from nonterm.terms import (
    HOLE,
    App,
    Subst,
    Symbol,
    Var,
    apply,
    apply_triangular,
    canonical_key,
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
        assert compose({Var("X"): Var("Y")}, {Var("Y"): Var("X")}) == {Var("Y"): Var("X")}

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
        # The triangular map is checked first: a unifier that skipped an
        # occurs check would bind X to s(X), which `resolve` walks forever.
        assert unify({}, [(Var("X"), term("s(X)"))]) is None
        assert unify({}, [(term("s(X)"), Var("X"))]) is None
        assert mgu(Var("X"), term("s(X)")) is None

    def test_clash(self):
        assert mgu(term("f(0,X)"), term("f(s(Y),X)")) is None

    def test_length_mismatch(self):
        assert mgu((term("p(X)"),), (term("p(X)"), term("q(X)"))) is None

    def test_term_beside_a_sequence(self):
        # One term is not read as a sequence of one, whichever side it is on.
        assert mgu(term("p(X)"), (term("p(0)"),)) is None
        assert mgu((term("p(X)"),), term("p(0)")) is None

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


class TestMatch:
    def test_binds_the_pattern_side_only(self):
        assert match(term("f(X,s(Y))"), term("f(0,s(Z))")) == subst(X="0", Y="Z")
        assert match(term("f(0,Y)"), term("f(X,Y)")) is None

    def test_variable_matched_to_itself_gets_no_binding(self):
        # Y meets Y: the substitution moves X alone.
        assert match(term("p(X,Y)"), term("p(s(X),Y)")) == {Var("X"): term("s(X)")}
        assert match(term("f(X,Y)"), term("f(X,Y)")) == {}

    def test_repeated_variable_needs_equal_targets(self):
        assert match(term("f(X,X)"), term("f(0,0)")) == subst(X="0")
        assert match(term("f(X,X)"), term("f(0,nil)")) is None

    def test_sequences_elementwise(self):
        assert match((term("p(X)"), term("q(X)")), (term("p(0)"), term("q(0)"))) == subst(X="0")
        assert match((term("p(X)"), term("q(X)")), (term("p(0)"), term("q(nil)"))) is None

    def test_length_mismatch(self):
        assert match((term("p(X)"),), (term("p(0)"), term("q(0)"))) is None

    def test_term_beside_a_sequence(self):
        assert match(term("p(X)"), (term("p(0)"),)) is None
        assert match((term("p(X)"),), term("p(0)")) is None


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


class TestApplyTriangular:
    @settings(max_examples=400, deadline=None)
    @given(pairs=_PAIRS, extra=st.lists(_terms(), max_size=2))
    @example(pairs=[(term("f(Y,X)"), term("f(g(X),f(Z,Z))"))], extra=[term("f(W,Y)")])
    def test_resolved_terms_renamed_apart(self, pairs, extra):
        # The terms read through a triangular map: exactly the resolved
        # substitution applied, and with a source a variant of that whose
        # variables are all fresh, and are the ones reported.
        bindings = unify({}, pairs)
        if bindings is None:
            return
        ts = (*(l for l, _ in pairs), *extra)
        want = apply(ts, resolve(bindings))
        assert apply_triangular(ts, bindings) == (want, frozenset())
        got, made = apply_triangular(ts, bindings, VarSource())
        assert canonical_key(got) == canonical_key(want)
        assert term_vars(got) == made
        assert not made & (term_vars(ts) | set(bindings) | term_vars(tuple(bindings.values())))

    def test_shared_subterms_stay_shared(self):
        x, y = Var("X"), Var("Y")
        shared = App(F, (y, ZERO))
        bindings = {x: App(G, (shared,))}
        (a, b), made = apply_triangular((App(F, (x, shared)), shared), bindings, VarSource())
        assert a.args[0].args[0] is a.args[1] is b
        assert made == {b.args[0]}

    def test_long_binding_chain(self):
        # X0 -> f(X1), ..., X9999 -> f(X10000), walked from X0 alone.
        f = Symbol("f", 1)
        xs = [Var(f"X{i}") for i in range(10_001)]
        bindings = {x: App(f, (y,)) for x, y in zip(xs, xs[1:])}
        (t,), made = apply_triangular((xs[0],), bindings, VarSource())
        (fresh,) = made
        assert t == plug(context_power(App(f, (HOLE,)), 10_000), fresh)
        assert apply_triangular((xs[0],), bindings)[0] == (apply(t, {fresh: xs[-1]}),)

    def test_deep_tower(self):
        x, y = Var("X"), Var("Y")
        tall = plug(context_power(App(S, (HOLE,)), 10_000), x)
        (t,), made = apply_triangular((tall,), {x: App(G, (y,))}, VarSource())
        (fresh,) = made
        assert t == plug(context_power(App(S, (HOLE,)), 10_000), App(G, (fresh,)))


def _binds_a_variable_to_itself(theta) -> bool:
    return any(t is v for v, t in theta.items())


class TestNoSelfBindings:
    # Every substitution the kernel builds moves each variable it binds.
    @settings(max_examples=300, deadline=None)
    @given(pairs=_PAIRS)
    @example(pairs=[(term("f(X,Y)"), term("f(X,s(Y))")), (term("g(Z)"), term("g(Z)"))])
    def test_results_bind_no_variable_to_itself(self, pairs):
        left = tuple(l for l, _ in pairs)
        right = tuple(r for _, r in pairs)
        vs = term_vars(left + right)
        ren = fresh_renaming(vs, vs, VarSource())
        found = [ren, {u: v for v, u in ren.items()}, match(left, left), match(left, right)]
        theta = mgu(left, right)
        if theta is not None:
            bindings = unify({}, pairs)
            found += [theta, resolve(bindings), match(left, apply(left, theta))]
        found = [s for s in found if s is not None]
        found += [compose(a, b) for a in found for b in found]
        assert not any(_binds_a_variable_to_itself(s) for s in found)


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
    def test_hole_is_the_reserved_variable(self):
        assert isinstance(HOLE, Var) and HOLE is Var("#1")
        assert not HOLE.ground
        fact = parse_program("p(0, nil).").rules[0].head
        assert fact.ground and all(a.ground for a in fact.args)

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


def _fill(c, filler):
    """c with each occurrence of the hole replaced by its own call of filler."""
    if c is HOLE:
        return filler()
    if c.ground:
        return c
    return App(c.symbol, tuple(_fill(a, filler) for a in c.args))


class TestOneLayerContexts:
    """`match_context` and `concrete_power` take a direct path for a context
    that is one symbol over #1 alone; it must agree with the generic walk,
    and so must the general path that any other context takes."""

    H = Symbol("h", 3)

    def _context(self, rng):
        # A third are any ground 1-context, such as s(g(#1)), f(#1,g(#1))
        # or f(g(#1),0); most of those are not one layer.
        if rng.random() < 1 / 3:
            return random_context(rng)
        sym = rng.choice([S, G, F, self.H])
        return App(sym, (HOLE,) * sym.arity)

    def test_shapes(self):
        assert is_one_layer(App(F, (HOLE, HOLE)))
        assert not is_one_layer(App(F, (HOLE, ZERO)))
        assert not is_one_layer(App(S, (App(S, (HOLE,)),)))
        assert not is_one_layer(HOLE)

    def test_agrees_with_the_generic_walk(self, rng):
        general = 0
        for _ in range(2000):
            c = self._context(rng)
            u = random_term(rng, 2)
            roll = rng.random()
            if roll < 0.5:
                t = _fill(c, lambda: u if rng.random() < 0.7 else random_term(rng, 2))
            elif roll < 0.6:
                t = App(PowerSymbol(c, 1, rng.randint(0, 2)), (u,))
            else:
                t = random_term(rng, 3)
            got = match_context(c, t)
            assert got == reference_match_context(c, t)
            general += got is not None and not is_one_layer(c)
            k = rng.randint(0, 4)
            assert concrete_power(c, k, u) == reference_concrete_power(c, k, u)
            assert strip_power(concrete_power(c, k, u), c)[0] >= k
            j, rest = strip_power(t, c)
            assert reference_concrete_power(c, j, rest) == t
            assert reference_match_context(c, rest) is None
        assert general > 50


def every_cut_primitive_context(c):
    """Reference for `primitive_context`: every cut along the path to the
    first hole is tried, shallowest first."""
    sub = c
    while sub != HOLE:
        sub = next(a for a in sub.args if not a.ground)
        cand = rebuild(c, lambda u: HOLE if u == sub else u if isinstance(u, Var) else None)
        k, rest = strip_power(c, cand)
        if k >= 1 and rest == HOLE:
            return cand, k
    return c, 1


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
        ff = App(F, (HOLE, HOLE))
        assert primitive_context(context_power(ff, 2)) == (ff, 2)
        for c in (App(F, (App(G, (HOLE,)), App(G, (HOLE,)))), App(G, (ff,))):
            assert primitive_context(c) == (c, 1)
        assert primitive_context(HOLE) == (HOLE, 1)
        with pytest.raises(ValueError):
            primitive_context(term("f(s(0),nil)"))

    def test_primitive_context_is_a_primitive_root(self, rng):
        # Whatever power of a context goes in, a root that tiles it comes out,
        # and that root is its own primitive root.
        for _ in range(300):
            d, k = random_context(rng), rng.randint(1, 3)
            e, j = primitive_context(concrete_power(d, k, HOLE))
            assert concrete_power(e, j, HOLE) == concrete_power(d, k, HOLE)
            assert primitive_context(e) == (e, 1)

    def test_primitive_context_same_as_trying_every_cut(self, rng):
        # Skipping the cuts whose depth does not divide the hole's depth
        # changes no answer.
        for _ in range(300):
            c = concrete_power(random_context(rng), rng.randint(1, 4), HOLE)
            assert primitive_context(c) == every_cut_primitive_context(c)

    def test_primitive_context_tries_only_dividing_cuts(self, monkeypatch):
        # s^2000(g(#1)) has its hole at depth 2001 = 3 * 23 * 29, so 8 cuts
        # are tried, not 2001; the last, at full depth, is c itself.
        c = concrete_power(App(S, (HOLE,)), 2000, App(G, (HOLE,)))
        cuts = []
        real = terms.strip_power

        def counting(t, d):
            cuts.append(d)
            return real(t, d)

        monkeypatch.setattr(terms, "strip_power", counting)
        assert primitive_context(c) == (c, 1)
        assert len(cuts) == 8

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
        # The open seed's variables are fresh, and its right side has them.
        x, y = open_.lhs.args[0].args[0], open_.lhs.args[1]
        assert open_.lhs == App(p, (App(PowerSymbol(_S_CTX, 1, 3001), (x,)), y))
        assert open_.rhs == apply(body, {Var("X"): x, Var("Y"): y})
        assert open_.vars() == {x, y} and x.name.endswith("'") and y.name.endswith("'")

    def test_resolve_long_binding_chain(self):
        # X0 -> f(X1), ..., X4999 -> f(0): each binding waits on the next.
        f = Symbol("f", 1)
        xs = [Var(f"X{i}") for i in range(5000)]
        bindings = {x: App(f, (y,)) for x, y in zip(xs, xs[1:])}
        bindings[xs[-1]] = App(f, (ZERO,))
        theta = resolve(bindings)
        assert [v for v, _ in theta.items()] == xs
        assert all(t.ground for _, t in theta.items())
        assert all(apply(t, theta) == t for _, t in theta.items())
        assert theta.get(xs[0], xs[0]) == plug(context_power(App(f, (HOLE,)), 5000), ZERO)

    def test_deep_common_outer_context(self):
        left, right = Var("X"), Var("Y")
        for _ in range(3000):
            left, right = App(G, (left,)), App(G, (right,))
        assert positions(left, right) == [(None, 0, 0, Var("X"), 0, 0, Var("Y"))]


def _specs():
    """Term descriptions by name, so one can be built twice from scratch."""
    leaves = st.one_of(
        st.tuples(st.just("var"), st.sampled_from("XYZ")),
        st.tuples(st.just("app"), st.sampled_from(["0", "nil"]), st.just(())),
    )

    def extend(sub):
        return st.one_of(
            st.tuples(st.just("app"), st.sampled_from("fg"), st.lists(sub, min_size=1, max_size=3).map(tuple)),
            st.tuples(st.just("power"), st.sampled_from("sg"), st.integers(1, 2), st.integers(0, 2), sub),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _built(spec, primed: int = -1):
    """A new term of the description, every App and power symbol in it new,
    and its number of nodes.  Node `primed` (in preorder) has its name
    primed: one variable, symbol or power's context symbol then differs."""
    count = 0

    def build(s):
        nonlocal count
        kind, name = s[0], s[1] + ("'" if count == primed else "")
        count += 1
        if kind == "var":
            return Var(name)
        if kind == "app":
            args = tuple(build(a) for a in s[2])
            return App(Symbol(name, len(args)), args)
        _, _, a, b, arg = s
        return App(PowerSymbol(App(Symbol(name, 1), (HOLE,)), a, b), (build(arg),))

    return build(spec), count


class TestInterning:
    def test_one_var_per_name(self):
        assert Var("X") is Var("X")
        assert Var("X") is not Var("Y")

    def test_one_symbol_per_name_and_arity(self):
        assert Symbol("s", 1) is Symbol("s", 1)
        assert Symbol("s", 1) is not Symbol("s", 2)

    def test_power_symbols_compare_by_value(self):
        one = PowerSymbol(App(Symbol("s", 1), (HOLE,)), 1, 0)
        other = PowerSymbol(App(Symbol("s", 1), (HOLE,)), 1, 0)
        assert one is not other and one.context is not other.context
        assert one == other and hash(one) == hash(other)
        assert one != PowerSymbol(one.context, 1, 1) and one != PowerSymbol(one.context, 2, 0)

    def test_threads_get_one_object_per_name(self):
        # Eight threads build the same new names at once, switching as often
        # as the interpreter allows: every thread must get the same objects.
        names = [f"Threaded{i}" for i in range(3000)]
        start = threading.Barrier(8)
        built = []

        def build():
            start.wait(timeout=30)
            built.append([Var(n) for n in names] + [Symbol(n, 1) for n in names])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(built) == 8
        assert all(a is b for objects in built[1:] for a, b in zip(objects, built[0]))

    @settings(max_examples=300, deadline=None)
    @given(spec=_specs(), data=st.data())
    def test_equal_exactly_when_built_alike(self, spec, data):
        (one, size), (other, _) = _built(spec), _built(spec)
        assert one == other and hash(one) == hash(other)
        changed, _ = _built(spec, data.draw(st.integers(0, size - 1)))
        assert one != changed and changed != one


class TestShapes:
    @settings(max_examples=300, deadline=None)
    @given(
        parts=st.lists(_terms(), min_size=1, max_size=3),
        names=st.permutations(["X", "Y", "Z", "W", "V1", "V2"]),
        others=st.lists(_terms(), min_size=1, max_size=3),
    )
    def test_variants_share_a_shape(self, parts, names, others):
        # Stored rule families are bucketed by shape, so every variant
        # must land in the same bucket: an injective renaming
        # (here possibly a permutation of the term's own names) keeps each
        # shape, and two tuples with one canonical key have equal shapes.
        parts, others = tuple(parts), tuple(others)
        vs = sorted(term_vars(parts), key=lambda v: v.name)
        renamed = apply(parts, {v: Var(names[i]) for i, v in enumerate(vs)})
        assert [t._shape for t in renamed] == [t._shape for t in parts]
        merged = apply(parts, {v: vs[0] for v in vs})
        for other in (renamed, merged, others):
            if canonical_key(other) == canonical_key(parts):
                assert [t._shape for t in other] == [t._shape for t in parts]

    def test_only_power_offsets_leave_the_hash(self):
        # A ground term without powers has its hash as its shape; a power's
        # shape leaves its offset out, so a ground power's is not its hash.
        t = App(F, (App(S, (ZERO,)), NIL))
        assert t._shape == hash(t)
        one, two = (App(PowerSymbol(_S_CTX, 1, b), (ZERO,)) for b in (1, 2))
        assert one._shape == two._shape and hash(one) != hash(two)
        assert App(F, (one, ZERO))._shape == App(F, (two, ZERO))._shape

    def test_variables_still_hash_apart(self):
        # Only the shape reads every variable alike.  The structural hash
        # must tell g(X) from g(Y): were it blind to names, terms that
        # differ only in their variables would collide in every term-keyed
        # dict, and keying f(g(X1),...,g(X4000)) would take 30 s, not 10 ms.
        gx, gy = App(G, (Var("X"),)), App(G, (Var("Y"),))
        assert gx._shape == gy._shape and Var("X")._shape == Var("Y")._shape
        assert hash(gx) != hash(gy) and gx != gy
        args = [App(G, (Var(f"X{i}"),)) for i in range(4000)]
        assert len({hash(a) for a in args}) == len(set(args)) == 4000
        wide = App(Symbol("f", 4000), args)
        start = time.perf_counter()
        (root,), entries = canonical_key((wide,))
        assert time.perf_counter() - start < 2.0
        assert root == len(entries) - 1 == 4000


# Both scripts read the program file argv[1]; the pickle goes to argv[2].
_DUMP = """
import pickle, sys
from nonterm.pattern import initial_rules
from nonterm.program import parse_program
from nonterm.terms import match
program = parse_program(open(sys.argv[1]).read(), "p")
theta = match(program.rules[0].head, program.rules[0].body[-1])
with open(sys.argv[2], "wb") as fh:
    pickle.dump((program, initial_rules(program), theta), fh)
"""

_LOAD = """
import json, pickle, sys
from nonterm.pattern import initial_rules
from nonterm.program import parse_program
from nonterm.terms import Var, match
program = parse_program(open(sys.argv[1]).read(), "p")
rules = initial_rules(program)
theta = match(program.rules[0].head, program.rules[0].body[-1])
with open(sys.argv[2], "rb") as fh:
    loaded, loaded_rules, loaded_theta = pickle.load(fh)
sides = [(a, b) for r, s in zip(loaded_rules, rules) for a, b in ((r.lhs, s.lhs), (r.rhs, s.rhs))]
print(json.dumps({
    "program": loaded == program and hash(loaded) == hash(program),
    "families": len(loaded_rules) == len(rules) > 0 and loaded_rules == rules,
    "powered": any(a.powered for a, _ in sides),
    "sides": all(a == b and hash(a) == hash(b) for a, b in sides),
    "subst": bool(theta) and loaded_theta == theta,
    "symbols": [s.name for s, t in zip(loaded.symbols, program.symbols) if s is not t],
    "vars": sorted(v.name for r in loaded.rules for v in r.vars() if v is not Var(v.name)),
}))
"""


class TestPickling:
    def _run(self, script: str, hash_seed: str, *args) -> str:
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
        done = subprocess.run(
            [sys.executable, "-c", script, *map(str, args)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_loaded_terms_are_rebuilt_under_another_hash_seed(self, tmp_path):
        path, pickled = PROGRAMS_DIR / "while-gt-add.pl", tmp_path / "program.pickle"
        self._run(_DUMP, "1", path, pickled)
        got = json.loads(self._run(_LOAD, "2", path, pickled))
        assert got == {
            "program": True, "families": True, "powered": True, "sides": True,
            "subst": True, "symbols": [], "vars": [],
        }

    def test_deepcopy_keeps_names_interned(self):
        program = parse_program((PROGRAMS_DIR / "while-gt-add.pl").read_text(), "p")
        copied = copy.deepcopy(program)
        assert copied == program and hash(copied) == hash(program)
        assert all(a is b for a, b in zip(copied.symbols, program.symbols))
        family = initial_rules(program)[0]
        assert copy.deepcopy(family) == family
