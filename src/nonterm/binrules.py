"""Bounded binary unfolding: the ground-truth oracle for call patterns.

The binary rules of a program relate a head to one of the calls it can
lead to under leftmost resolution; saturating them (unfold a body prefix
with already-derived rules, closing consumed atoms with empty-bodied ones)
under-approximates the full, generally infinite, set.  A binary rule is a
`PatternRule` without powers, like a family's instance at one index.  Only
the tests, which use the saturation to certify that generated pattern
rules describe genuine call patterns, and `--dump-binunf`, which prints it
as clauses (`clause`), import this module; the prover does not.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Optional

from .pattern import PatternRule, identity_rules
from .program import Program
from .terms import (
    App,
    EPSILON,
    Term,
    VarSource,
    apply,
    canonical_key,
    fresh_renaming,
    is_epsilon,
    mgu,
    render,
)


def clause(rule: PatternRule) -> str:
    """A power-free rule as a clause: `h.` for an empty right side, else `h :- b.`"""
    if rule.rhs_is_epsilon():
        return f"{render(rule.lhs)}."
    return f"{render(rule.lhs)} :- {render(rule.rhs)}."


class BinaryRuleSet:
    """A set of binary rules, deduplicated modulo variable renaming."""

    def __init__(self, rules: Iterable[PatternRule] = ()):
        self._rules: list[PatternRule] = []
        self._keys: set[tuple] = set()
        for r in rules:
            self.add(r)

    def add(self, rule: PatternRule) -> bool:
        key = canonical_key((rule.lhs, rule.rhs))
        if key in self._keys:
            return False
        self._keys.add(key)
        self._rules.append(rule)
        return True

    def __iter__(self) -> Iterator[PatternRule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def contains_variant(self, rule: PatternRule) -> bool:
        return canonical_key((rule.lhs, rule.rhs)) in self._keys

    def __repr__(self) -> str:
        return f"BinaryRuleSet({len(self._rules)} rules)"


def _unfoldings(
    program: Program, pool: BinaryRuleSet, source: VarSource
) -> Iterator[PatternRule]:
    ident = identity_rules(program.symbols, source)
    eps_rules = [r for r in pool if is_epsilon(r.rhs)]
    any_rules = [*pool, *ident]
    nonep_rules = [r for r in any_rules if not is_epsilon(r.rhs)]

    def root(t: Term) -> Optional[object]:
        return t.symbol if isinstance(t, App) else None

    for rule in program.rules:
        m = len(rule.body)
        for i in range(1, m + 1):
            slots: list[list[PatternRule]] = []
            for j in range(i - 1):
                want = root(rule.body[j])
                slots.append(
                    [r for r in eps_rules if want is None or root(r.lhs) in (None, want)]
                )
            want = root(rule.body[i - 1])
            last_pool = any_rules if i == m else nonep_rules
            slots.append(
                [r for r in last_pool if want is None or root(r.lhs) in (None, want)]
            )
            for combo in product(*slots):
                picked: list[PatternRule] = []
                for r in combo:
                    ren = fresh_renaming(r.vars(), (), source)
                    picked.append(PatternRule(apply(r.lhs, ren), apply(r.rhs, ren)))
                theta = mgu(tuple(r.lhs for r in picked), tuple(rule.body[:i]))
                if theta is None:
                    continue
                yield PatternRule(apply(rule.head, theta), apply(picked[-1].rhs, theta))


def step(program: Program, pool: BinaryRuleSet) -> BinaryRuleSet:
    """One application of the unfolding operator to a set of binary rules."""
    out = BinaryRuleSet()
    for rule in program.rules:
        if not rule.body:
            out.add(PatternRule(rule.head, EPSILON))
    source = VarSource()
    for derived in _unfoldings(program, pool, source):
        out.add(derived)
    return out


def saturate(program: Program, depth: int, max_rules: int = 10_000) -> BinaryRuleSet:
    """Accumulate `depth` rounds of unfolding from the empty set.

    An under-approximation of the full binary unfolding, which is infinite
    for non-terminating programs; the rule cap guards oracle runs.
    """
    acc = BinaryRuleSet()
    for _ in range(depth):
        grew = False
        for r in step(program, acc):
            if acc.add(r):
                grew = True
            if len(acc) >= max_rules:
                return acc
        if not grew:
            break
    return acc
