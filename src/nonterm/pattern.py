"""Rule families as pairs of power terms, and the seed families.

A pattern rule pairs two normalized power terms (see `powers`); its
instance n, the binary rule obtained by expanding every power symbol at
n, is a power-free pattern rule.  The binary-unfolding oracle (`binrules`)
uses the same record, and the same identities (`identity_rules`).
`initial_rules` extracts the seed set from recursive/base rule pairs:
the recursive body matches the head by sigma and the base fact by mu, and
when sigma wraps each variable in a ground context, such a pair yields a
family of rules covering every unrolling depth at once.  The paper writes
those families as skeleton . sigma^n . mu; they are built as power terms
directly (`power_form`), and no part of the prover sees that notation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .powers import expand_at, least_shift, power_form, shift
from .program import Program, Rule
from .terms import (
    EPSILON,
    App,
    Subst,
    Symbol,
    Term,
    Var,
    canonical_key,
    decompose_power,
    is_epsilon,
    match,
    render,
    term_vars,
)


@dataclass(frozen=True)
class PatternRule:
    """A pair of power terms; instance n is the power-free rule (lhs(n), rhs(n)).

    `source` is the recursive program rule a seed family was built from
    (`initial_rules`), and None for every other rule.  It takes no part in
    equality, hashing or repr, and it is compared by identity, so two
    identical clauses stay two rules.
    """

    lhs: Term
    rhs: Term
    source: Optional[Rule] = field(default=None, compare=False, repr=False)

    def at(self, n: int) -> PatternRule:
        """The instance at n: the binary rule, a `PatternRule` without powers."""
        return PatternRule(expand_at(self.lhs, n), expand_at(self.rhs, n))

    def vars(self) -> frozenset[Var]:
        return self._vars

    @cached_property
    def _vars(self) -> frozenset[Var]:
        # Computed once: unfolding asks every selected rule for its variables.
        return term_vars(self.lhs) | term_vars(self.rhs)

    def key(self) -> tuple:
        return self._key

    @cached_property
    def _key(self) -> tuple:
        # Computed once: seeding and storing a family both ask for it.
        return pattern_rule_key(self)

    def rhs_is_epsilon(self) -> bool:
        return is_epsilon(self.rhs)

    def __repr__(self) -> str:
        return f"{render(self.lhs)} => {render(self.rhs)}"


class VariantMap:
    """A map from pattern rules, taken up to renaming, to values.

    Rules are bucketed by the shapes of their two sides (`terms.App`), which
    every variant shares.  A bucket that holds one rule holds it unkeyed, so
    a rule whose shapes are new is looked up and stored without a key.  The
    canonical key (`PatternRule.key`) is built only on a shape hit: for the
    rule asked about, and once for the rule its bucket held, after which the
    bucket maps keys to values.  Lookups are exact whatever the hashes, and
    buckets are never iterated, so no order depends on a hash value.
    """

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        # Shapes -> (rule, value) while one rule is held, else {key: value}.
        self._buckets: dict[tuple[int, int], tuple[PatternRule, object] | dict[tuple, object]] = {}

    def _keyed(self, shapes: tuple[int, int]) -> Optional[dict[tuple, object]]:
        """The bucket of these shapes as a dict by key, or None if empty."""
        bucket = self._buckets.get(shapes)
        if type(bucket) is tuple:
            held, value = bucket
            bucket = self._buckets[shapes] = {held.key(): value}
        return bucket

    def get(self, rule: PatternRule) -> Optional[object]:
        """The value stored for a variant of the rule, or None."""
        bucket = self._keyed((rule.lhs._shape, rule.rhs._shape))
        return None if bucket is None else bucket.get(rule.key())

    def __setitem__(self, rule: PatternRule, value: object) -> None:
        shapes = (rule.lhs._shape, rule.rhs._shape)
        bucket = self._keyed(shapes)
        if bucket is None:
            self._buckets[shapes] = (rule, value)
        else:
            bucket[rule.key()] = value


def identity_rules(symbols: Iterable[Symbol]) -> list[PatternRule]:
    """One identity rule f(X1,..,Xm) => f(X1,..,Xm) per symbol, in order."""
    out = []
    for sym in symbols:
        t = App(sym, tuple(Var(f"X{i + 1}") for i in range(sym.arity)))
        out.append(PatternRule(t, t))
    return out


def initial_rules(
    program: Program, goal: Optional[Symbol] = None, deadline: float = float("inf")
) -> list[PatternRule]:
    """Seed pattern rules from recursive/base pairs of binary rules.

    A recursive rule (head, body) whose body has no repeated variable and
    matches the head by sigma = {x1 -> c1(x1), .., xm -> cm(xm)}, with
    ground 1-contexts c_k, and a base fact that the body matches by
    mu = {x1 -> t1, .., xm -> tm} generate two correct families:
      - body . sigma^n . mu => epsilon    (n unrollings, then the base)
      - head . sigma^n => body            (the body left open)
    Each is built as a power term (`power_form`): with c_k = d^a for a
    ground d of minimal period, x_k goes to d^(a,b)(t) where t_k = d^b(t),
    in the head to d^(a,a)(x_k).  A variable sigma leaves alone keeps its
    filler.  Each recursive rule is tried against the facts of its body's
    predicate only, in program order; no other fact matches the body.
    Each seed records the recursive rule it was built from as its
    `source`: both families are that rule unfolded n times with itself,
    so unfolding it once more with one of them gives nothing new
    (`unfold._attempts`).  A family is kept once up to renaming
    (`VariantMap`): its key is built only when an earlier seed has the
    same shapes, so seeds of distinct shapes are never keyed.

    With a goal, the open family is built only for a recursive rule whose
    body is a goal atom, and the closing families for every predicate,
    since inner slots need them.  Those are exactly the seeds goal-directed
    saturation stores (`unfold._toward`), in the same order:
    initial_rules(p, g) == [r for r in initial_rules(p) if _toward(g, r)].

    The clock is read before each recursive rule and each fact is tried;
    once it is past the deadline (a `time.monotonic` reading), the seeds
    built so far, a prefix of the list, are returned.
    """
    out: list[PatternRule] = []
    seen = VariantMap()
    recursive = [r for r in program.rules if len(r.body) == 1]
    facts: dict[Symbol, list[Term]] = {}
    for rule in program.rules:
        if not rule.body and isinstance(rule.head, App):
            facts.setdefault(rule.head.symbol, []).append(rule.head)
    for rec in recursive:
        if time.monotonic() > deadline:
            return out
        body = rec.body[0]
        if isinstance(body, Var) or body.symbol not in facts or not _is_linear(body):
            continue
        wrapped = match(body, rec.head)
        if wrapped is None:
            continue
        moved = _wrap_powers(wrapped)
        if moved is None:
            continue
        open_ = None
        if goal is None or body.symbol == goal:
            open_ = PatternRule(power_form(body, wrapped, moved), body, rec)
        for fact in facts[body.symbol]:
            if time.monotonic() > deadline:
                return out
            ts = match(body, fact)
            if ts is None:
                continue
            closing = PatternRule(power_form(body, ts, moved), EPSILON, rec)
            for rule in (closing,) if open_ is None else (closing, open_):
                if seen.get(rule) is None:
                    seen[rule] = True
                    out.append(rule)
    return out


def _is_linear(t: Term) -> bool:
    """Whether no variable occurs twice in t."""
    seen: set[Var] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            if u in seen:
                return False
            seen.add(u)
        elif not u.ground:
            stack.extend(u.args)
    return True


def _wrap_powers(wrapped: Subst) -> Optional[dict[Var, tuple[Term, int]]]:
    """How the head wraps each variable the matcher moves: (d, a) for
    d^a(x) with d a ground 1-context of minimal period.  None when some
    variable is wrapped in anything else."""
    out: dict[Var, tuple[Term, int]] = {}
    for x, s in wrapped.items():
        split = decompose_power(s, x)
        if split is None:
            return None
        out[x] = split
    return out


def pattern_rule_key(rule: PatternRule) -> tuple:
    """Renaming-invariant identity of the described rule family.

    Both sides are normalized, so equivalent spellings of one family, such
    as s(s^(n)(X)) and s^(n+1)(X), collide.
    """
    return canonical_key((rule.lhs, rule.rhs))


def rule_base(rule: PatternRule) -> tuple[PatternRule, int]:
    """The family shifted down as far as it goes, and by how much.

    With d the `least_shift` of both sides, lowering every offset c^(a,b)
    to c^(a,b-a*d) gives the base; instance n of the family is instance
    n + d of its base, so the families with one base are nested: each
    holds every one of a larger shift.  The terms are rebuilt only when
    d > 0.
    """
    d = least_shift((rule.lhs, rule.rhs))
    if d == 0:
        return rule, 0
    return PatternRule(shift(rule.lhs, -d), shift(rule.rhs, -d)), d
