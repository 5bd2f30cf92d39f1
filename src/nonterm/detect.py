"""Recognition of self-pumping pattern rules and witness construction.

A stored pattern rule (p, q) proves non-termination when q(n) is an
instance of p(n + k) for every index n >= alpha (Emmes, Enger & Giesl's
rule-family argument).  Then any ground instance of p(n) heads an infinite
derivation: it must call an instance of q(n), which embeds into p(n + k),
and the argument repeats forever.

`match_pumping` checks the embedding position by position.  The two sides
are read where they part (`powers.positions`): each such position reads
as c^(a,b)(t) on the left against c^(ra,rb)(u) on the right, with t a
variable or a ground term.  A ground t must reappear as u, under
the same slope a >= 1, and fixes the shift k = (rb - b) / a; all ground
positions must agree on it.  A variable t = X is bound to
c^((ra-a)n + rb-b-a*k)(u), an exponent that must not shrink and must be
non-negative from alpha on; every position of X must bind it alike, and
a binding without growth is u itself, whatever its context.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Optional, Union

from .pattern import PatternRule, initial_rules
from .powers import expand_at, instance_root, positions
from .program import Program, QueryMode, cone, derive_bounded
from .record import Record
from .terms import (
    App,
    Symbol,
    Term,
    Var,
    VarSource,
    concrete_power,
    match,
    rebuild,
    render,
)
from .unfold import UnfoldBudget, saturate

if TYPE_CHECKING:
    from fractions import Fraction


class PumpData(Record):
    """The certificate of self-pumping: q(n) instantiates p(n + k) for n >= alpha.

    alpha is an `int` when it is whole, and a `Fraction` otherwise.
    """

    __slots__ = ("k", "alpha")

    def __init__(self, k: int, alpha: Union[int, Fraction]):
        self.k, self.alpha = k, alpha


def match_pumping(rule: PatternRule) -> Optional[PumpData]:
    """The shift k and threshold alpha with which a rule pumps itself; None if not.

    Solves the embedding q(n) = p(n + k) theta position by position (see
    the module docstring).  alpha is the largest bound that a growing
    variable position puts on n, or 0 without one; it may be negative.
    It is a `Fraction` only when that bound is not whole, so `fractions`
    is imported only then.
    Works on the canonical power terms only: the underlying property is
    existential over all equivalent representatives, so this recognizer is
    deliberately incomplete but sound.
    """
    if rule.rhs_is_epsilon():
        return None
    holes = positions(rule.lhs, rule.rhs)
    if holes is None:
        return None

    # A ground position needs c^(a(n+k)+b)(t) = c^(ra*n+rb)(t) at every n.
    k: Optional[int] = None
    for _, a, b, t, ra, rb, u in holes:
        if isinstance(t, Var):
            continue
        if not t.ground or u != t or a != ra or a < 1:
            return None
        shift, rest = divmod(rb - b, a)
        if rest or shift < 0 or k not in (None, shift):
            return None
        k = shift
    k = k or 0

    # A variable position binds X to c^(slope*n + offset)(u).
    bindings: dict[Var, tuple[Optional[Term], int, int, Term]] = {}
    alpha: Union[int, Fraction, None] = None
    for c, a, b, t, ra, rb, u in holes:
        if not isinstance(t, Var):
            continue
        slope, offset = ra - a, rb - b - a * k
        if slope < 0 or (slope == 0 and offset < 0):
            return None
        # Without growth X is bound to u itself, whatever the context.
        binding = (c, slope, offset, u) if slope or offset else (None, 0, 0, u)
        if bindings.setdefault(t, binding) != binding:
            return None
        if slope:
            least: Union[int, Fraction] = -offset // slope
            if offset % slope:
                from fractions import Fraction

                least = Fraction(-offset, slope)
            alpha = least if alpha is None else max(alpha, least)
    return PumpData(k, 0 if alpha is None else alpha)


class Witness(Record):
    """A concrete ground query that heads an infinite derivation."""

    __slots__ = ("rule", "data", "n", "term")

    def __init__(self, rule: PatternRule, data: PumpData, n: int, term: Term):
        self.rule, self.data, self.n, self.term = rule, data, n, term

    def __repr__(self) -> str:
        return render(self.term)


def ground_constant(program: Program) -> Symbol:
    """The constant used to ground witnesses: '0' if declared, else the
    first declared constant, else a fresh reporting-only one."""
    consts = program.constants()
    if consts:
        return next((sym for sym in consts if sym.name == "0"), consts[0])
    names = {s.name for s in program.symbols}
    i = 0
    while f"c{i}" in names:
        i += 1
    return Symbol(f"c{i}", 0)


def witness_from(rule: PatternRule, data: PumpData, constant: Symbol) -> Witness:
    """The witness of a pumping rule: its left side at the least index n >=
    alpha, every power expanded there and every variable replaced by the
    constant, in one walk (`terms.rebuild`).  It is
    apply(expand_at(rule.lhs, n), grounding), the grounding sending each
    variable to the constant."""
    n = max(0, math.ceil(data.alpha))
    unit = App(constant, ())

    def node(u: App, args: tuple[Term, ...]) -> Term:
        sym = u.symbol
        if sym.is_power:
            return concrete_power(sym.context, sym.a * n + sym.b, args[0])
        return App(sym, args)

    term = rebuild(
        rule.lhs, lambda u: unit if isinstance(u, Var) else u if u.ground and not u.powered else None, node
    )
    return Witness(rule, data, n, term)


def check_pumps(rule: PatternRule, data: PumpData, n: int) -> bool:
    """The executable core of the argument: q(n) instantiates p(n + k)."""
    return match(expand_at(rule.lhs, n + data.k), expand_at(rule.rhs, n)) is not None


class ProofOutcome(Record):
    """The answer to one query.

    status: "proven" | "unknown".
    reason, for unknown: timeout | iteration-cap | rule-cap | fixpoint |
    validation-failed.
    validated: True when the interpreter kept the witness alive for the
    steps asked, else None.
    """

    __slots__ = ("status", "witness", "unfolded", "time_ms", "reason", "validated")

    def __init__(
        self,
        status: str,
        witness: Optional[Witness],
        unfolded: int,
        time_ms: float,
        reason: Optional[str] = None,
        validated: Optional[bool] = None,
    ):
        self.status, self.witness, self.unfolded, self.time_ms = status, witness, unfolded, time_ms
        self.reason, self.validated = reason, validated

    @property
    def proven(self) -> bool:
        return self.status == "proven"


def prove(
    program: Program,
    query: QueryMode,
    budget: UnfoldBudget = UnfoldBudget(),
    validate_steps: int = 0,
    trace=None,
) -> ProofOutcome:
    """Search for a ground query on the given predicate that runs forever.

    Seeds the unfolding with the initial rule families of the predicate's
    `cone` that can lead to it (`initial_rules` with a goal: the closing
    families of the cone, the open ones of the predicate) and saturates
    them toward it (`saturate` with a goal), stopping at the first stored
    rule that pumps itself on the queried predicate.
    Rules outside the cone only derive families of predicates outside it,
    which no rule of the cone ever selects, so the cut changes no verdict.
    Witnesses are grounded, and validated, over the whole program.  Every
    claim is re-checked: the instance embedding must hold at the reported
    index, and optionally a bounded interpreter run must keep the witness
    alive for validate_steps steps.  The budget's wall clock, counted from
    the start of the call, bounds all three: seeding keeps the seeds built
    by its deadline, the search gets what seeding left, and that run what
    the search left.  Each reads the clock once per unit of work, before it,
    so a query ends within its wall clock plus one unit of work; a run the
    deadline cuts short leaves the proof standing, with `validated` None.
    """
    t0 = time.monotonic()
    goal = query.predicate
    reach = cone(program, goal)
    if trace:
        kept = reach.head_symbols()
        trace.write(
            f"goal: {goal.name}/{goal.arity}; cone: {', '.join(sym.name for sym in kept)} "
            f"({len(kept)} of {len(program.head_symbols())} predicates)\n"
        )
    deadline = t0 + budget.wall_clock
    source = VarSource()  # one namespace: seeds, identities, derived rules
    base = initial_rules(reach, goal, deadline, source)
    found: list[Witness] = []
    constant = ground_constant(program)

    def on_rule(rule: PatternRule) -> bool:
        if instance_root(rule.lhs) != goal:
            return False
        data = match_pumping(rule)
        if data is None:
            return False
        w = witness_from(rule, data, constant)
        if not check_pumps(rule, data, w.n):
            return False
        found.append(w)
        return True

    left = UnfoldBudget(deadline - time.monotonic(), budget.max_iterations, budget.max_rules)
    _, stats = saturate(reach, base, left, on_rule=on_rule, trace=trace, goal=goal, source=source)
    witness = found[0] if found else None
    reason = None if found else stats.stop
    validated: Optional[bool] = None
    if witness is not None and validate_steps > 0:
        run = derive_bounded(program, (witness.term,), validate_steps, deadline)
        if run.reached_bound:
            validated = True
        elif not run.timed_out:
            # The theory says this cannot happen; reporting unknown keeps
            # the tool honest if it ever does.
            witness, reason = None, "validation-failed"
    status = "unknown" if witness is None else "proven"
    elapsed = (time.monotonic() - t0) * 1000.0
    return ProofOutcome(status, witness, stats.generated, elapsed, reason, validated)
