"""Rule families as pairs of power terms, and the seed families.

A pattern rule pairs two normalized power terms (see `powers`); its
instance n is the binary rule obtained by expanding every power symbol at
n.  `initial_rules` extracts the seed set from recursive/base rule pairs
whose heads differ only by one ground context layer per argument: such a
pair yields a family of rules covering every unrolling depth at once.  The
paper writes those families as skeleton . sigma^n . mu; they are built as
power terms directly, and no part of the prover sees that notation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .binrules import BinaryRule, canonical_key
from .powers import expand_at, least_shift, power_form, shift
from .program import Program
from .terms import (
    App,
    EPSILON,
    Term,
    Var,
    decompose_power,
    hole,
    hole_index,
    is_epsilon,
    is_hole,
    render,
    term_vars,
)


@dataclass(frozen=True)
class PatternRule:
    """A pair of power terms; instance n is the binary rule (lhs(n), rhs(n))."""

    lhs: Term
    rhs: Term

    def at(self, n: int) -> BinaryRule:
        return BinaryRule(expand_at(self.lhs, n), expand_at(self.rhs, n))

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


def _context_of(t: Term) -> Optional[tuple[Term, tuple[Var, ...]]]:
    """Strip the distinct variables of t into holes, left to right.

    Returns (context, variable order) or None when some variable repeats;
    the result context is variable-free by construction.
    """
    seen: list[Var] = []
    # Post-order without recursion: (node, False) visits, (node, True)
    # builds the node from the results its arguments left on `built`.
    built: list[Term] = []
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        u, ready = stack.pop()
        if ready:
            n = len(u.args)
            args = tuple(built[-n:])
            del built[-n:]
            built.append(App(u.symbol, args))
        elif isinstance(u, Var):
            if u in seen:
                return None
            seen.append(u)
            built.append(hole(len(seen)))
        elif u.ground or not u.args:
            built.append(u)
        else:
            stack.append((u, True))
            stack.extend((a, False) for a in reversed(u.args))
    return built[0], tuple(seen)


def _match_against_context(ctx: Term, t: Term, m: int) -> Optional[list[Term]]:
    """If t equals ctx with its m holes filled, return the fillers in order."""
    fillers: list[Optional[Term]] = [None] * m
    stack = [(ctx, t)]
    while stack:
        c, u = stack.pop()
        if is_hole(c):
            fillers[hole_index(c) - 1] = u
        elif isinstance(c, Var) or isinstance(u, Var):
            return None
        elif c.symbol == u.symbol:
            stack.extend(zip(c.args, u.args))
        else:
            return None
    if any(f is None for f in fillers):
        return None
    return fillers  # type: ignore[return-value]


def initial_rules(program: Program) -> list[PatternRule]:
    """Seed pattern rules from recursive/base pairs of binary rules.

    A recursive rule (c(c1(x1)..cm(xm)), c(x1..xm)) with ground 1-contexts
    c_k and a base fact c(t1..tm) generate two correct families:
      - c(c1^n(t1)..cm^n(tm)) => epsilon          (n unrollings, then the base)
      - c(c1^(n+1)(x1)..cm^(n+1)(xm)) => c(x1..xm)  (the body left open)
    Each is built as a power term (`power_form`): with c_k = d^a for a
    ground d of minimal period, c_k^n(t_k) is d^(a,b)(t) where t_k = d^b(t),
    and c_k^(n+1)(x_k) is d^(a,a)(x_k).  Only same-root pairs can share the
    outer context, so the scan is per predicate.
    """
    out: list[PatternRule] = []
    seen: set[tuple] = set()
    recursive = [r for r in program.rules if len(r.body) == 1]
    facts = [r for r in program.rules if not r.body]
    for rec in recursive:
        body = rec.body[0]
        head = rec.head
        if isinstance(body, Var) or isinstance(head, Var):
            continue
        if body.symbol != head.symbol:
            continue
        split = _context_of(body)
        if split is None:
            continue
        ctx, xs = split
        m = len(xs)
        wrapped = _match_against_context(ctx, head, m)
        if wrapped is None:
            continue
        moved = _wrap_powers(xs, wrapped)
        if moved is None:
            continue
        open_ = power_form(ctx, wrapped, moved)
        for base in facts:
            if not isinstance(base.head, App) or base.head.symbol != head.symbol:
                continue
            ts = _match_against_context(ctx, base.head, m)
            if ts is None:
                continue
            closing = power_form(ctx, ts, moved)
            for rule in (PatternRule(closing, EPSILON), PatternRule(open_, body)):
                key = rule.key()
                if key not in seen:
                    seen.add(key)
                    out.append(rule)
    return out


def _wrap_powers(
    xs: tuple[Var, ...], wrapped: list[Term]
) -> Optional[list[Optional[tuple[Term, int]]]]:
    """How each head argument wraps its variable: None for x itself, (d, a)
    for d^a(x) with d a ground 1-context of minimal period.  None overall
    when some argument wraps anything else."""
    out: list[Optional[tuple[Term, int]]] = []
    for x, s in zip(xs, wrapped):
        if s == x:
            out.append(None)
        elif term_vars(s) == {x}:
            d, a, _ = decompose_power(s, x)
            out.append((d, a))
        else:
            return None
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
