"""Binary-rule saturation oracle."""

import os
import subprocess
import sys
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import F, G, NIL, S, ZERO, calls_bounded, reference_canonical_key, term
from nonterm import terms
from nonterm.binrules import (
    BinaryRuleSet,
    canonical_key,
    clause,
    saturate,
    step,
)
from nonterm.pattern import PatternRule, identity_rules
from nonterm.program import parse_program
from nonterm.terms import (
    EPSILON,
    HOLE,
    App,
    Subst,
    Var,
    VarSource,
    apply,
    concrete_power,
    match,
    plug,
    term_vars,
)

from conftest import random_ground_term


def br(head: str, body: str | None = None) -> PatternRule:
    return PatternRule(term(head), EPSILON if body is None else term(body))


class TestIdentityRules:
    # The oracle unfolds with the prover's identity rules.
    def test_covers_every_symbol(self, ex_program):
        rules = BinaryRuleSet(identity_rules(ex_program.symbols, VarSource()))
        assert len(rules) == len(ex_program.symbols) == 6

    def test_while_identity(self, ex_program):
        rules = BinaryRuleSet(identity_rules(ex_program.symbols, VarSource()))
        assert rules.contains_variant(br("while(A,B)", "while(A,B)"))

    def test_constant_identity(self, ex_program):
        rules = BinaryRuleSet(identity_rules(ex_program.symbols, VarSource()))
        assert rules.contains_variant(br("0", "0"))


class TestClause:
    def test_fact(self):
        assert clause(br("gt(s(X),0)")) == "gt(s(X),0)."

    def test_rule(self):
        assert clause(br("while(s(X),0)", "while(s(X),s(0))")) == "while(s(X),0) :- while(s(X),s(0))."


class TestIndependence:
    def test_one_key_function(self):
        assert canonical_key is terms.canonical_key

    def test_prover_does_not_import_the_oracle(self):
        # Run in a fresh interpreter: this one has the oracle loaded.
        code = (
            "import sys\n"
            "import nonterm.detect, nonterm.pattern, nonterm.powers, nonterm.program\n"
            "import nonterm.terms, nonterm.unfold\n"
            "print('nonterm.binrules' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(terms.__file__).resolve().parent.parent)}
        got = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert got.returncode == 0, got.stderr
        assert got.stdout.strip() == "False"


class TestVariants:
    def test_renamed_rule_is_variant(self):
        rules = BinaryRuleSet([br("p(X)")])
        assert rules.contains_variant(br("p(Y)"))

    def test_instance_is_not_variant(self):
        rules = BinaryRuleSet([br("p(X)")])
        assert not rules.contains_variant(br("p(0)"))

    def test_cross_side_sharing_matters(self):
        rules = BinaryRuleSet([br("p(X)", "q(X)")])
        assert rules.contains_variant(br("p(Y)", "q(Y)"))
        assert not rules.contains_variant(br("p(Y)", "q(Z)"))

    def test_equivalent_unfoldings_collide(self):
        # The same rule family reached through two different variable
        # choices is stored once.
        a = br("while(s(X1),0)", "while(s(X1),s(0))")
        b = br("while(s(X),0)", "while(s(X),s(0))")
        rules = BinaryRuleSet([a])
        assert not rules.add(b)


def _shared_terms():
    """Terms over X, Y, Z whose subterms are often shared: plugging
    f(#1, #1) puts one argument object in two places."""
    leaves = st.sampled_from([Var("X"), Var("Y"), Var("Z"), ZERO, NIL])
    both = App(F, (HOLE, HOLE))

    def extend(sub):
        return st.one_of(
            st.builds(lambda sym, a: App(sym, (a,)), st.sampled_from([S, G]), sub),
            st.builds(lambda a, b: App(F, (a, b)), sub, sub),
            st.builds(lambda a: plug(both, a), sub),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _unshared(t):
    """A copy of t in which no two argument positions hold one object."""
    return App(t.symbol, tuple(_unshared(a) for a in t.args)) if isinstance(t, App) else Var(t.name)


_SWAP = Subst({Var("X"): Var("Y"), Var("Y"): Var("Z"), Var("Z"): Var("X")})


class TestCanonicalKey:
    @settings(max_examples=300, deadline=None)
    @given(
        left=st.lists(_shared_terms(), min_size=1, max_size=3),
        right=st.lists(_shared_terms(), min_size=1, max_size=3),
    )
    def test_same_key_as_reference(self, left, right):
        # Equal keys exactly when the reference keys are equal: the same
        # partition of term tuples into variant classes, whatever the terms
        # share.
        for other in (right, [apply(p, _SWAP) for p in left], [_unshared(p) for p in left]):
            a, b = tuple(left), tuple(other)
            assert (canonical_key(a) == canonical_key(b)) == (
                reference_canonical_key(a) == reference_canonical_key(b)
            )

    @settings(max_examples=100, deadline=None)
    @given(parts=st.lists(_shared_terms(), min_size=1, max_size=3))
    def test_renaming_invariant(self, parts):
        ren = Subst({Var("X"): Var("B"), Var("Y"): Var("C"), Var("Z"): Var("A")})
        assert canonical_key(tuple(apply(p, ren) for p in parts)) == canonical_key(tuple(parts))

    def test_linear_in_shared_size(self):
        # 2^80 paths through 81 distinct nodes; the key has one entry per
        # non-ground node, each naming its children by number.
        t = concrete_power(App(F, (HOLE, HOLE)), 80, Var("X"))
        (root,), entries = canonical_key((t,))
        assert entries == ((F, -1, -1), *((F, k, k) for k in range(79)))
        assert root == 79

    def test_tall_tower_hashes_and_compares_fast(self):
        # Two variants of a tower with 2^80 paths: their keys are equal, and
        # hashing and comparing them take time linear in 81 nodes.
        c = App(F, (HOLE, HOLE))
        t = concrete_power(c, 80, Var("X"))
        u = concrete_power(c, 80, Var("Y"))
        start = time.perf_counter()
        a, b = canonical_key((t,)), canonical_key((u,))
        assert hash(a) == hash(b) and a == b
        assert {a: 1}[b] == 1
        assert time.perf_counter() - start < 1.0


class TestStep:
    def test_facts_enter_first(self, ex_program):
        first = step(ex_program, BinaryRuleSet())
        assert first.contains_variant(br("gt(s(X),0)"))
        assert first.contains_variant(br("add(X,0,X)"))

    def test_empty_program(self):
        assert len(step(parse_program(""), BinaryRuleSet())) == 0

    def test_documented_second_iterate_member(self, ex_program):
        acc = BinaryRuleSet()
        for _ in range(2):
            for r in step(ex_program, acc):
                acc.add(r)
        assert acc.contains_variant(br("while(s(X1),0)", "while(s(X1),s(0))"))


class TestSaturate:
    def test_depth_zero_is_empty(self, ex_program):
        assert len(saturate(ex_program, 0)) == 0

    def test_monotone_in_depth(self, ex_program):
        small = saturate(ex_program, 2)
        large = saturate(ex_program, 3)
        for rule in small:
            assert large.contains_variant(rule)

    def test_rule_cap(self, ex_program):
        assert len(saturate(ex_program, 5, max_rules=10)) == 10

    def test_unrolled_loop_family_members(self, ex_program):
        # while(s^{n+1}(X), s^n(0)) -> while(s^{2n+1}(X), s^{n+1}(0))
        acc = saturate(ex_program, 7)
        family = [
            br("while(s(X),0)", "while(s(X),s(0))"),
            br("while(s(s(X)),s(0))", "while(s(s(s(X))),s(s(0)))"),
            br(
                "while(s(s(s(X))),s(s(0)))",
                "while(s(s(s(s(s(X))))),s(s(s(0))))",
            ),
        ]
        for rule in family:
            assert acc.contains_variant(rule)

    def test_every_rule_describes_reachable_calls(self, ex_program, rng):
        # For (u, v) in the saturated set and a random grounding of u, an
        # instance of v shows up among the bounded calls of the instance.
        pool = list(saturate(ex_program, 3))
        checked = 0
        for rule in pool:
            grounding = Subst(
                {v: random_ground_term(rng, 1) for v in term_vars(rule.lhs)}
            )
            start = apply(rule.lhs, grounding)
            if not start.ground:
                continue
            calls = calls_bounded(ex_program, start, 40)
            checked += 1
            assert any(match(rule.rhs, got) is not None for got in calls), (
                f"{rule} has no matching call from {start}"
            )
        assert checked >= 20
