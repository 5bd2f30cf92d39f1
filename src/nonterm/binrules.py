"""Bounded binary unfolding: the ground-truth oracle for call patterns.

The binary rules of a program relate a head to one of the calls it can
lead to under leftmost resolution; saturating them (unfold a body prefix
with already-derived rules, closing consumed atoms with empty-bodied ones)
under-approximates the full, generally infinite, set.  Tests use the
saturation to certify that generated pattern rules only describe genuine
call patterns, and `--dump-binunf` prints it.  The prover itself uses only
`BinaryRule`, the form of a family's instance at one index, and
`canonical_key`, the renaming-invariant key that saturation deduplicates
families and instances on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Optional

from .program import Program
from .terms import (
    App,
    EPSILON,
    Subst,
    Term,
    Var,
    VarSource,
    apply,
    fresh_renaming,
    is_epsilon,
    mgu,
    render,
    term_vars,
)


@dataclass(frozen=True)
class BinaryRule:
    """head -> body, where body is a single term or the EPSILON marker."""

    head: Term
    body: Term

    def vars(self) -> frozenset[Var]:
        return term_vars((self.head, self.body))

    def rename(self, ren: Subst) -> "BinaryRule":
        return BinaryRule(apply(self.head, ren), apply(self.body, ren))

    def __repr__(self) -> str:
        if is_epsilon(self.body):
            return f"{render(self.head)}."
        return f"{render(self.head)} :- {render(self.body)}."


def canonical_key(parts: tuple[Term, ...]) -> tuple:
    """A renaming-invariant key, flat so that hashing and comparing it take
    time linear in the number of distinct subterms.

    The key is (roots, entries).  Each distinct non-ground subterm has one
    entry (symbol, *child refs), numbered in left-to-right post-order of
    first occurrence; a ref is that number, -1-i for the i-th variable
    numbered (a node numbers its variable arguments once its other
    arguments are encoded), or a ground subterm itself.  Subterms are told
    apart by term equality: within one key, two subterms are equal exactly
    when they have the same symbol and refs, so two term tuples have equal
    keys exactly when they are variants, whether or not the terms share
    their subterms.  Plugging a multi-hole context shares subterms, so
    terms are DAGs; a node met again is already numbered, and the walk is
    linear in the DAG's size.
    """
    order: dict[Var, int] = {}
    numbers: dict[Term, int] = {}
    entries: list[tuple] = []
    roots: list[object] = []

    def ref(a: Term) -> object:
        if a.ground:
            return a
        return -1 - order.setdefault(a, len(order)) if isinstance(a, Var) else numbers[a]

    for part in parts:
        # (node, False) visits, (node, True) numbers it from its arguments.
        stack: list[tuple[Term, bool]] = [(part, False)]
        while stack:
            n, ready = stack.pop()
            if ready:
                numbers[n] = len(entries)
                entries.append((n.symbol, *[ref(a) for a in n.args]))
            elif not (n.ground or isinstance(n, Var) or n in numbers):
                stack.append((n, True))
                stack.extend(
                    [(a, False) for a in reversed(n.args) if not a.ground and isinstance(a, App)]
                )
        roots.append(ref(part))
    return tuple(roots), tuple(entries)


class BinaryRuleSet:
    """A set of binary rules, deduplicated modulo variable renaming."""

    def __init__(self, rules: Iterable[BinaryRule] = ()):
        self._rules: list[BinaryRule] = []
        self._keys: set[tuple] = set()
        for r in rules:
            self.add(r)

    def add(self, rule: BinaryRule) -> bool:
        key = canonical_key((rule.head, rule.body))
        if key in self._keys:
            return False
        self._keys.add(key)
        self._rules.append(rule)
        return True

    def __iter__(self) -> Iterator[BinaryRule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def contains_variant(self, rule: BinaryRule) -> bool:
        return canonical_key((rule.head, rule.body)) in self._keys

    def __repr__(self) -> str:
        return f"BinaryRuleSet({len(self._rules)} rules)"


def identity_rules(program: Program) -> BinaryRuleSet:
    """One rule f(x1..xm) -> f(x1..xm) per symbol of the program."""
    out = BinaryRuleSet()
    for sym in program.symbols:
        args = tuple(Var(f"X{i + 1}") for i in range(sym.arity))
        t = App(sym, args)
        out.add(BinaryRule(t, t))
    return out


def _unfoldings(
    program: Program, pool: BinaryRuleSet, source: VarSource
) -> Iterator[BinaryRule]:
    ident = identity_rules(program)
    eps_rules = [r for r in pool if is_epsilon(r.body)]
    any_rules = [*pool, *ident]
    nonep_rules = [r for r in any_rules if not is_epsilon(r.body)]

    def root(t: Term) -> Optional[object]:
        return t.symbol if isinstance(t, App) else None

    for rule in program.rules:
        m = len(rule.body)
        rvars = rule.vars()
        for i in range(1, m + 1):
            slots: list[list[BinaryRule]] = []
            for j in range(i - 1):
                want = root(rule.body[j])
                slots.append(
                    [r for r in eps_rules if want is None or root(r.head) in (None, want)]
                )
            want = root(rule.body[i - 1])
            last_pool = any_rules if i == m else nonep_rules
            slots.append(
                [r for r in last_pool if want is None or root(r.head) in (None, want)]
            )
            for combo in product(*slots):
                avoid = set(rvars)
                picked: list[BinaryRule] = []
                for r in combo:
                    ren = fresh_renaming(r.vars(), avoid, source)
                    rr = r.rename(ren)
                    picked.append(rr)
                    avoid |= rr.vars()
                theta = mgu(
                    tuple(r.head for r in picked),
                    tuple(rule.body[: i]),
                )
                if theta is None:
                    continue
                yield BinaryRule(apply(rule.head, theta), apply(picked[-1].body, theta))


def step(program: Program, pool: BinaryRuleSet) -> BinaryRuleSet:
    """One application of the unfolding operator to a set of binary rules."""
    out = BinaryRuleSet()
    for rule in program.rules:
        if not rule.body:
            out.add(BinaryRule(rule.head, EPSILON))
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
