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
`cover` decides, in one walk over two families, whether one holds every
instance of the other: as a variant, as a shift in the index, or, for a
family without powers, as one of its instances.  The store of a search
drops with it every covered family, variant seeds included, and builds
no canonical key (`pattern_rule_key`) or instance (`unfold.PatternRuleSet`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .powers import expand_at, positions, power_form
from .program import Program, Rule
from .terms import (
    EPSILON,
    App,
    Subst,
    Symbol,
    Term,
    Var,
    VarSource,
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
    (`initial_rules`) or an induced family was closed under
    (`unfold.induce`), and None for every other rule.  It takes no part in
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
        # Computed once; seeds and derived rules have it filled as they are built.
        return term_vars(self.lhs) | term_vars(self.rhs)

    def rhs_is_epsilon(self) -> bool:
        return is_epsilon(self.rhs)

    def __repr__(self) -> str:
        return f"{render(self.lhs)} => {render(self.rhs)}"


def identity_rules(symbols: Iterable[Symbol], source: VarSource) -> list[PatternRule]:
    """One identity f(X1,..,Xm) => f(X1,..,Xm) per symbol, in order, Xi fresh."""
    out = []
    for sym in symbols:
        t = App(sym, tuple([source.fresh() for _ in range(sym.arity)]))
        out.append(PatternRule(t, t))
    return out


def initial_rules(
    program: Program, goal: Optional[Symbol] = None, deadline: float = float("inf"),
    source: Optional[VarSource] = None,
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
    filler.  That walk names each variable by a fresh one of the `VarSource`
    given (of a new one without it), and builds the open family's right
    side, the body under the same names, as it goes.  Each recursive rule is
    tried against the facts of its body's predicate only, in program order;
    no other fact matches the body.  Each seed records the recursive rule it
    was built from as its `source`: both families are that rule unfolded n
    times with itself, so unfolding it once more with one of them gives
    nothing new (`unfold._attempts`).  A rule's open family comes once,
    right after its first closing family.  Variants, as two copies of a
    clause give, are all listed; the search's store keeps the first
    (`unfold.saturate`).

    With a goal, the open family is built only for a recursive rule whose
    body is a goal atom, and the closing families for every predicate,
    since inner slots need them: the seeds without a goal that have
    epsilon or a goal atom on the right, in the same order, up to
    renaming, which is the base goal-directed saturation takes.

    The clock is read before each recursive rule and each fact is tried;
    once it is past the deadline (a `time.monotonic` reading), the seeds
    built so far, a prefix of the list, are returned.
    """
    source = VarSource() if source is None else source
    out: list[PatternRule] = []
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
            names: dict[Var, Var] = {}
            renamed: dict[int, Term] = {}
            lhs = power_form(body, wrapped, moved, source, names, renamed)
            open_ = PatternRule(lhs, renamed.get(id(body), body), rec)  # a ground body is kept
            open_.__dict__["_vars"] = frozenset(names.values())  # fills PatternRule.vars()
        for fact in facts[body.symbol]:
            if time.monotonic() > deadline:
                return out
            ts = match(body, fact)
            if ts is None:
                continue
            names = {}
            closing = PatternRule(power_form(body, ts, moved, source, names), EPSILON, rec)
            closing.__dict__["_vars"] = frozenset(names.values())
            out.append(closing)
            if open_ is not None:
                out.append(open_)
                open_ = None
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

    No prover code calls it: seeding and saturation tell variants apart by
    `cover`.  It is kept for the tests, which compare families by it, and
    for `bench/layers.py`, which traces it.
    """
    return canonical_key((rule.lhs, rule.rhs))


def cover(held: PatternRule, rule: PatternRule) -> Optional[tuple[str, int]]:
    """How `held` covers `rule`, if it does: ("shift", k) when rule is held
    shifted by k >= 0 up to renaming, its instance n held's instance
    n + k (k = 0 for a variant), or ("instance", n) when rule has no power
    and is, up to renaming, held's instance at n.

    Both pairs of sides are read where they part (`powers.positions`), as
    pump detection reads one family's (`detect.match_pumping`).  Where
    held has c^(a,b)(t) and rule c^(ra,rb)(u), the index there is
    (rb - b)/a, a non-negative integer, with ra == a when rule has a power
    and ra == 0 when it has none: one index must fit every such position.
    A position without a power must hold two variables, and the leftovers
    t of all positions must be a renaming of the leftovers u: each tuple
    matches the other.  The normal form puts no layer of c directly under
    a power of c, so a position reads as many layers of c as the instance
    holds there, and no other index can fit.
    """
    powered = rule.lhs.powered or rule.rhs.powered
    index: Optional[int] = None
    ts: list[Term] = []
    us: list[Term] = []
    for h, r in ((held.lhs, rule.lhs), (held.rhs, rule.rhs)):
        found = positions(h, r)
        if found is None:
            return None
        for c, a, b, t, ra, rb, u in found:
            if c is None:
                if not (isinstance(t, Var) and isinstance(u, Var)):
                    return None
            else:
                if not a or ra != (a if powered else 0):
                    return None
                n, rest = divmod(rb - b, a)
                if rest or n < 0 or index not in (None, n):
                    return None
                index = n
            ts.append(t)
            us.append(u)
    left, right = tuple(ts), tuple(us)
    if match(left, right) is None or match(right, left) is None:
        return None
    if index is None:  # no power on either side: a variant
        return "shift", 0
    return ("shift" if powered else "instance"), index
