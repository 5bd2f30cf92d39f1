"""Recognition of self-pumping pattern rules and witness construction.

A stored pattern rule (p, q) proves non-termination when, over a common
variable-free outer context, every argument position relates a power
c^(a,b)(t) on the left to a power of the same context c^(a',b')(t rho) on
the right, with exponents aligned so that q(n) is an instance of p(n + k)
for all large enough n.  Then any ground instance of p(n) heads an
infinite derivation: it must call an instance of q(n), which embeds into
p(n + k), and the argument repeats forever.  The index threshold alpha and
the shift k fall out of the exponent arithmetic.
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
    hole,
    match,
    render,
    term_vars,
)
from .unfold import UnfoldBudget, saturate

# How the argument positions of a pumping rule are populated.
MIXED = "mixed"  # ground-anchored and variable positions both present
VARS_ONLY = "vars-only"  # every position carries a variable
GROUND_ONLY = "ground-only"  # every position carries a ground term


@dataclass(frozen=True)
class Hole:
    """One argument position: c^(a,b)(t) on the left, c^(ra,rb)(t rho) right.

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
    """Everything extracted from a rule that certifies self-pumping."""

    outer: Term  # variable-free context over the argument positions
    holes: tuple[Hole, ...]
    rho: Subst
    e: int
    a: int
    ra: int
    b: int
    rb: int
    d: int
    rd: int
    k: int
    alpha: Fraction
    variant: str


def _split_outer(u: Term, v: Term) -> tuple[Term, list[tuple[Term, Term]]]:
    """Maximal common variable-free context of two power terms.

    Descends through identical plain symbols; a position becomes a hole as
    soon as either side is a variable or a power, or the symbols differ.
    Identical ground material is absorbed into the context, never turned
    into a hole.
    """
    holes: list[tuple[Term, Term]] = []
    # Post-order without recursion: (pair, False) visits, (pair, True)
    # builds the context node from its arguments' results on `built`.
    built: list[Term] = []
    stack: list[tuple[Term, Term, bool]] = [(u, v, False)]
    while stack:
        a, b, ready = stack.pop()
        if ready:
            n = len(a.args)
            args = tuple(built[-n:])
            del built[-n:]
            built.append(App(a.symbol, args))
        elif (
            isinstance(a, App)
            and isinstance(b, App)
            and not is_power(a)
            and not is_power(b)
            and a.symbol == b.symbol
        ):
            if a.args:
                stack.append((a, b, True))
                stack.extend((x, y, False) for x, y in zip(reversed(a.args), reversed(b.args)))
            else:
                built.append(a)
        else:
            holes.append((a, b))
            built.append(hole(len(holes)))
    return built[0], holes


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
    """Check whether a simple pattern rule pumps itself; None if not.

    Works on the canonical power terms only: the underlying property is
    existential over all equivalent representatives, so this recognizer is
    deliberately incomplete but sound.
    """
    if rule.rhs_is_epsilon():
        return None

    outer, pairs = _split_outer(rule.lhs, rule.rhs)
    holes: list[Hole] = []
    rights: list[Term] = []
    for left, right in pairs:
        read = _read_hole(left, right)
        if read is None:
            return None
        h, right_inner = read
        holes.append(h)
        rights.append(right_inner)
    return _classify(outer, holes, rights)


def _classify(outer: Term, holes: list[Hole], rights: list[Term]) -> Optional[PumpData]:
    # Every left inner term is a variable or ground; rho maps the variable
    # ones consistently, ground ones must reappear verbatim.
    rho_map: dict[Var, Term] = {}
    ground_idx: list[int] = []
    var_idx: list[int] = []
    for i, h in enumerate(holes):
        if isinstance(h.t, Var):
            var_idx.append(i)
            if h.t in rho_map:
                if rho_map[h.t] != rights[i]:
                    return None
            else:
                rho_map[h.t] = rights[i]
        elif h.t.ground:
            ground_idx.append(i)
            if rights[i] != h.t:
                return None
        else:
            return None

    # A shared variable must be driven by one and the same context.
    by_var: dict[Var, Optional[Term]] = {}
    for i in var_idx:
        h = holes[i]
        if h.t in by_var:
            if by_var[h.t] != h.context:
                return None
        else:
            by_var[h.t] = h.context

    def unique(pairs_set: set[tuple[int, int]]) -> Optional[tuple[int, int]]:
        return next(iter(pairs_set)) if len(pairs_set) == 1 else None

    ground_a = {(holes[i].a, holes[i].ra) for i in ground_idx}
    ground_b = {(holes[i].b, holes[i].rb) for i in ground_idx}
    var_a = {(holes[i].a, holes[i].ra) for i in var_idx}
    var_b = {(holes[i].b, holes[i].rb) for i in var_idx}
    rho = Subst(rho_map)

    if ground_idx and var_idx:
        ga, gb, va, vb = unique(ground_a), unique(ground_b), unique(var_a), unique(var_b)
        if ga is None or gb is None or va is None or vb is None:
            return None
        e, e2 = ga
        if e != e2 or e <= 0:
            return None
        b, rb = gb
        if b > rb:
            return None
        a, ra = va
        if a > ra:
            return None
        d, rd = vb
        if (rb - b) % e != 0:
            return None
        k = (rb - b) // e
        if a == ra and (rd - d) - a * k < 0:
            return None
        alpha = Fraction(0) if a == ra else Fraction(a * k - (rd - d), ra - a)
        return PumpData(outer, tuple(holes), rho, e, a, ra, b, rb, d, rd, k, alpha, MIXED)

    # Single-kind positions demand uniform exponents on each side.
    left_pairs = {(h.a, h.b) for h in holes}
    right_pairs = {(h.ra, h.rb) for h in holes}
    if holes:
        lp, rp = unique(left_pairs), unique(right_pairs)
        if lp is None or rp is None:
            return None
        a, b = lp
        ra, rb = rp
    else:
        a = b = ra = rb = 0

    if not ground_idx:  # every position carries a variable (or no positions)
        if a > ra:
            return None
        if a == ra and b > rb:
            return None
        alpha = Fraction(0) if a == ra else Fraction(b - rb, ra - a)
        return PumpData(
            outer, tuple(holes), rho, 0, a, ra, b, rb, b, rb, 0, alpha, VARS_ONLY
        )

    # Every position carries a ground term.
    if a != ra or a <= 0:
        return None
    if rb < b or (rb - b) % a != 0:
        return None
    k = (rb - b) // a
    return PumpData(
        outer, tuple(holes), rho, a, a, ra, b, rb, 0, 0, k, Fraction(0), GROUND_ONLY
    )


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
