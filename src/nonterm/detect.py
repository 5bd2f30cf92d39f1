"""Recognition of self-pumping pattern rules and witness construction.

A stored pattern rule (p, q) proves non-termination when q(n) is an
instance of p(n + k) for every index n >= alpha (Emmes, Enger & Giesl's
rule-family argument).  Then any ground instance of p(n) heads an infinite
derivation: it must call an instance of q(n), which embeds into p(n + k),
and the argument repeats forever.

`match_pumping` checks the embedding position by position.  The two sides
are walked down through identical plain symbols; each pair where they
part reads as c^(a,b)(t) on the left against c^(ra,rb)(u) on the right,
with t a variable or a ground term.  A ground t must reappear as u, under
the same slope a >= 1, and fixes the shift k = (rb - b) / a; all ground
positions must agree on it.  A variable t = X is bound to
c^((ra-a)n + rb-b-a*k)(u), an exponent that must not shrink and must be
non-negative from alpha on; every position of X must bind it alike, and
a binding without growth is u itself, whatever its context.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .pattern import PatternRule, initial_rules
from .powers import expand_at, instance_root, is_power, strip_power
from .program import Program, QueryMode, cone, derive_bounded
from .terms import (
    App,
    Subst,
    Symbol,
    Term,
    Var,
    apply,
    match,
    render,
    term_vars,
)
from .unfold import UnfoldBudget, saturate


@dataclass(frozen=True)
class Hole:
    """One argument position: c^(a,b)(t) on the left, c^(ra,rb)(u) right.

    context is None when both sides are plain terms at this position (then
    all four exponents are zero).
    """

    context: Optional[Term]
    a: int
    b: int
    t: Term
    ra: int
    rb: int


@dataclass(frozen=True)
class PumpData:
    """The certificate of self-pumping: q(n) instantiates p(n + k) for n >= alpha."""

    k: int
    alpha: Fraction


def _positions(u: Term, v: Term) -> list[tuple[Term, Term]]:
    """The pairs of subterms, left to right, where two power terms part.

    Descends through identical plain symbols without recursing.  An
    identical pair is skipped only when it is ground and power-free: a
    ground power still moves with n, and a variable pins itself.
    """
    out: list[tuple[Term, Term]] = []
    stack = [(u, v)]
    while stack:
        a, b = stack.pop()
        if a.ground and not a.powered and a == b:
            continue
        if isinstance(a, App) and isinstance(b, App) and a.symbol == b.symbol and not is_power(a):
            stack.extend(zip(reversed(a.args), reversed(b.args)))
        else:
            out.append((a, b))
    return out


def _read_hole(left: Term, right: Term) -> Optional[tuple[Hole, Term]]:
    """Pair one argument position, borrowing the context across plain sides.

    Returns the hole plus the right-hand inner term.  Plain (power-free)
    sides read as exponents (0, 0) after peeling the partner's context off
    them maximally; when both sides are plain there is no context at all.
    """
    if is_power(left) and is_power(right):
        if left.symbol.context != right.symbol.context:
            return None
        h = Hole(
            left.symbol.context,
            left.symbol.a,
            left.symbol.b,
            left.args[0],
            right.symbol.a,
            right.symbol.b,
        )
        return h, right.args[0]
    if is_power(left):
        c = left.symbol.context
        rb, rest = strip_power(right, c)
        return Hole(c, left.symbol.a, left.symbol.b, left.args[0], 0, rb), rest
    if is_power(right):
        c = right.symbol.context
        b, rest = strip_power(left, c)
        return Hole(c, 0, b, rest, right.symbol.a, right.symbol.b), right.args[0]
    return Hole(None, 0, 0, left, 0, 0), right


def match_pumping(rule: PatternRule) -> Optional[PumpData]:
    """The shift k and threshold alpha with which a rule pumps itself; None if not.

    Solves the embedding q(n) = p(n + k) theta position by position (see
    the module docstring).  alpha is the largest bound that a growing
    variable position puts on n, or 0 without one; it may be negative.
    Works on the canonical power terms only: the underlying property is
    existential over all equivalent representatives, so this recognizer is
    deliberately incomplete but sound.
    """
    if rule.rhs_is_epsilon():
        return None
    holes: list[tuple[Hole, Term]] = []
    for left, right in _positions(rule.lhs, rule.rhs):
        read = _read_hole(left, right)
        if read is None:
            return None
        holes.append(read)

    # A ground position needs c^(a(n+k)+b)(t) = c^(ra*n+rb)(t) at every n.
    k: Optional[int] = None
    for h, u in holes:
        if isinstance(h.t, Var):
            continue
        if not h.t.ground or u != h.t or h.a != h.ra or h.a < 1:
            return None
        shift, rest = divmod(h.rb - h.b, h.a)
        if rest or shift < 0 or k not in (None, shift):
            return None
        k = shift
    k = k or 0

    # A variable position binds X to c^(slope*n + offset)(u).
    bindings: dict[Var, tuple[Optional[Term], int, int, Term]] = {}
    alpha: Optional[Fraction] = None
    for h, u in holes:
        if not isinstance(h.t, Var):
            continue
        slope, offset = h.ra - h.a, h.rb - h.b - h.a * k
        if slope < 0 or (slope == 0 and offset < 0):
            return None
        # Without growth X is bound to u itself, whatever the context.
        binding = (h.context, slope, offset, u) if slope or offset else (None, 0, 0, u)
        if bindings.setdefault(h.t, binding) != binding:
            return None
        if slope:
            least = Fraction(-offset, slope)
            alpha = least if alpha is None else max(alpha, least)
    return PumpData(k, Fraction(0) if alpha is None else alpha)


@dataclass(frozen=True)
class Witness:
    """A concrete ground query that heads an infinite derivation."""

    rule: PatternRule
    data: PumpData
    n: int
    grounding: Subst
    term: Term

    def __repr__(self) -> str:
        return render(self.term)


def ground_constant(program: Program, preferred: str = "0") -> Symbol:
    """The constant used to ground witnesses: '0' if declared, else the
    first declared constant, else a fresh reporting-only one."""
    for sym in program.constants():
        if sym.name == preferred:
            return sym
    consts = program.constants()
    if consts:
        return consts[0]
    names = {s.name for s in program.symbols}
    i = 0
    while f"c{i}" in names:
        i += 1
    return Symbol(f"c{i}", 0)


def witness_from(rule: PatternRule, data: PumpData, constant: Symbol) -> Witness:
    n = max(0, math.ceil(data.alpha))
    base = expand_at(rule.lhs, n)
    unit = App(constant, ())
    grounding = Subst({v: unit for v in term_vars(base)})
    return Witness(rule, data, n, grounding, apply(base, grounding))


def check_pumps(rule: PatternRule, data: PumpData, n: int) -> bool:
    """The executable core of the argument: q(n) instantiates p(n + k)."""
    return match(expand_at(rule.lhs, n + data.k), expand_at(rule.rhs, n)) is not None


@dataclass(frozen=True)
class ProofOutcome:
    status: str  # "proven" | "unknown"
    witness: Optional[Witness]
    unfolded: int
    time_ms: float
    # For unknown: timeout | iteration-cap | rule-cap | fixpoint | validation-failed.
    reason: Optional[str] = None
    validated: Optional[bool] = None

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
    alive for validate_steps steps.
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
    base = initial_rules(reach, goal)
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

    _, stats = saturate(reach, base, budget, on_rule=on_rule, trace=trace, goal=goal)
    elapsed = (time.monotonic() - t0) * 1000.0
    if not found:
        return ProofOutcome("unknown", None, stats.generated, elapsed, reason=stats.stop)
    witness = found[0]
    validated: Optional[bool] = None
    if validate_steps > 0:
        status = derive_bounded(program, (witness.term,), validate_steps)
        validated = status.reached_bound
        if not validated:
            # The theory says this cannot happen; reporting unknown keeps
            # the tool honest if it ever does.
            return ProofOutcome(
                "unknown",
                None,
                stats.generated,
                (time.monotonic() - t0) * 1000.0,
                reason="validation-failed",
            )
    return ProofOutcome(
        "proven", witness, stats.generated, (time.monotonic() - t0) * 1000.0, validated=validated
    )
