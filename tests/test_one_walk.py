"""Each walk that builds a term in its final form at once, checked against
the two walks it stands for: the derivation walk (`unfold._derive`, with
`powers.NormalBuilder`) against a plain read of the unifier then
normalization, `power_form` against substitution then normalization, and
the witness walk (`detect.witness_from`) against expansion then grounding.
"""

import sys
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import F, G, POWER_CONTEXTS, S, ZERO, power_terms, reference_normalize
from nonterm.detect import PumpData, witness_from
from nonterm.pattern import PatternRule
from nonterm.powers import NormalBuilder, PowerSymbol, expand_at, is_simple, normalize, power_form
from nonterm.terms import HOLE, App, Symbol, Var, VarSource, apply, apply_triangular, plug, term_vars
from nonterm.unfold import _derive

X, Y, Z = Var("X"), Var("Y"), Var("Z")


def _ground_parts_simple(t) -> bool:
    """Whether every ground subterm of t is simple: the walk keeps those
    as they are, so the builder's reading of simplicity covers the rest."""
    stack = [t]
    while stack:
        u = stack.pop()
        if u.ground:
            if not is_simple(u):
                return False
        elif isinstance(u, App):
            stack.extend(u.args)
    return True


def _optional(names):
    return st.one_of(st.none(), power_terms(names, max_leaves=6))


class TestDerivationWalk:
    """The terms read through a triangular map with the builder are the
    plain read normalized, with the same fresh names, and its `simple` is
    `is_simple` of both.  Every term and binding is normal, as the stored
    families and program atoms that the search reads are; a ground part,
    which the walk keeps as it is, is also simple."""

    @settings(max_examples=500, deadline=None)
    @given(
        head=power_terms("XYZ", max_leaves=6),
        rhs=power_terms("XYZ", max_leaves=6),
        x=_optional("YZ"),
        y=_optional("Z"),
    )
    # g(X) with X -> s(g(s(#1))^(1n+0)(0)): the binding is ground and
    # normal, so the walk keeps it, and only the builder's lookup finds
    # its top power one plain layer down; g(s(..)) is then one layer of
    # the two-layer context and is absorbed, giving g(s(#1))^(1n+1)(0).
    @example(
        head=App(G, (X,)),
        rhs=ZERO,
        x=App(S, (App(PowerSymbol(POWER_CONTEXTS[5], 1, 0), (ZERO,)),)),
        y=None,
    )
    def test_same_as_plain_walk_then_normalize(self, head, rhs, x, y):
        bindings = {v: normalize(t) for v, t in ((X, x), (Y, y)) if t is not None}
        ts = (normalize(head), normalize(rhs))
        assume(all(_ground_parts_simple(t) for t in (*ts, *bindings.values())))
        plain, plain_made = apply_triangular(ts, bindings, VarSource())
        want = tuple(reference_normalize(t) for t in plain)
        normal = NormalBuilder()
        built, made = apply_triangular(ts, bindings, VarSource(), normal.node)
        assert built == want
        assert made == plain_made
        simple = all(is_simple(t) for t in want)
        assert normal.simple == simple == all(is_simple(t) for t in built)
        # `_derive` is that walk: it keeps the rule exactly when it is simple.
        rule = _derive(ts[0], PatternRule(ZERO, ts[1]), bindings, VarSource())
        if simple:
            assert (rule.lhs, rule.rhs) == want
            assert rule.vars() == made == term_vars(want)
        else:
            assert rule is None

    # Two-layer contexts cut between their layers: the outer layer over #1
    # and the inner one over #1, which plug back into the context.
    SPLITS = [
        (App(G, (HOLE,)), App(S, (HOLE,)), POWER_CONTEXTS[5]),
        (App(F, (HOLE, ZERO)), App(G, (HOLE,)), App(F, (App(G, (HOLE,)), ZERO))),
        (App(F, (HOLE, HOLE)), App(S, (HOLE,)), App(F, (App(S, (HOLE,)), App(S, (HOLE,))))),
    ]

    @settings(max_examples=200, deadline=None)
    @given(
        split=st.sampled_from(SPLITS),
        a=st.integers(1, 2),
        b=st.integers(0, 2),
        u=power_terms("", max_leaves=4).filter(lambda t: not t.powered),
        around=power_terms("XZ", max_leaves=4),
    )
    def test_layer_split_between_a_term_and_a_ground_binding(self, split, a, b, u, around):
        # The term holds c's outer layer over X, and X is bound to c's inner
        # layer over c^(a,b)(u): ground and normal, so the walk keeps it,
        # and only the builder's lookup finds the power one plain layer
        # down.  The outer layer then completes one c layer over it, which
        # is absorbed into c^(a,b+1)(u).
        outer, inner, c = split
        power = App(PowerSymbol(c, a, b), (u,))
        # Normal when u is not c-headed.
        assume(normalize(power) == power)
        bindings = {X: plug(inner, power), Y: normalize(around)}
        assume(_ground_parts_simple(bindings[Y]))
        ts = (plug(outer, X), App(F, (Y, plug(outer, X))))
        plain, _ = apply_triangular(ts, bindings, VarSource())
        normal = NormalBuilder()
        built, _ = apply_triangular(ts, bindings, VarSource(), normal.node)
        assert built == tuple(reference_normalize(t) for t in plain)
        assert built[0] == App(PowerSymbol(c, a, b + 1), (u,))

    def test_deep_plain_spine_over_a_ground_power_as_a_binding(self):
        # X -> g^10000(s^(1n+0)(0)), normal and ground, so the walk keeps it
        # and the builder looks its top power up by descending the spine.
        # It is read twice, and under the default recursion limit.
        assert sys.getrecursionlimit() <= 1000
        power = App(PowerSymbol(POWER_CONTEXTS[0], 1, 0), (ZERO,))
        spine = power
        for _ in range(10_000):
            spine = App(G, (spine,))
        f = Symbol("f", 2)
        ts = (App(f, (App(G, (X,)), App(S, (X,)))), App(S, (App(S, (Y,)),)))
        bindings = {X: spine, Y: App(f, (X, Z))}
        plain, plain_made = apply_triangular(ts, bindings, VarSource())
        normal = NormalBuilder()
        built, made = apply_triangular(ts, bindings, VarSource(), normal.node)
        assert built == tuple(normalize(t) for t in plain)
        assert made == plain_made
        assert normal.simple
        assert built[0].args[0].args[0] is spine


class TestPowerFormWalk:
    @settings(max_examples=400, deadline=None)
    @given(
        t=power_terms("XYZ", max_leaves=6).filter(lambda t: not t.powered),
        fillers=st.dictionaries(
            st.sampled_from([X, Y, Z]), power_terms("XYZ", max_leaves=4).filter(lambda t: not t.powered)
        ),
        moved=st.dictionaries(
            st.sampled_from([X, Y, Z]), st.tuples(st.sampled_from(POWER_CONTEXTS), st.integers(1, 2))
        ),
    )
    def test_same_as_apply_then_normalize(self, t, fillers, moved):
        # Each moved variable gets c^(a,0) over its filler, and the whole is
        # normalized: the two walks `power_form` makes in one.  The same
        # walk names every variable of the result, one fresh variable each.
        raised = {x: App(PowerSymbol(c, a, 0), (fillers.get(x, x),)) for x, (c, a) in moved.items()}
        want = reference_normalize(apply(t, {**fillers, **raised}))
        source, names = VarSource(), {}
        got = power_form(t, fillers, moved, source, names)
        assert set(names) == term_vars(want)
        assert len(set(names.values())) == len(names) and set(names.values()) <= source.made
        assert got == apply(want, names)


class TestWitnessWalk:
    @settings(max_examples=400, deadline=None)
    @given(lhs=power_terms("XYZ"), n=st.integers(0, 3))
    def test_same_as_expand_then_ground(self, lhs, n):
        constant = Symbol("0", 0)
        w = witness_from(PatternRule(lhs, lhs), PumpData(0, Fraction(n)), constant)
        expanded = expand_at(lhs, n)
        grounding = {v: App(constant, ()) for v in term_vars(expanded)}
        assert w.n == n
        assert w.term == apply(expanded, grounding)
