"""The pattern-unfolding engine: saturates a set of pattern rules.

One step unfolds a prefix of a program rule's body with already-derived
pattern rules: the first atoms are closed by rules whose right side is
empty, the last consumed atom contributes its right side, and the unifier
theta of the selected left sides against the body prefix, over power
terms, instantiates the rule head and that right side.  Expansion at an
index is a homomorphism, so the result at n is exactly the classical
unfolding of the selected instances at n.  Iterating from a seed set of
correct rules keeps every derived rule correct, so a detector can be run
on each insertion.  Saturation rarely terminates on interesting programs;
budgets (wall clock, rounds, rule count) bound every run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, TextIO

from .binrules import canonical_key
from .pattern import PatternRule, rule_base
from .powers import instance_root, is_simple, normalize, pattern_mgu
from .program import Program, Rule
from .terms import (
    App,
    Subst,
    Symbol,
    Term,
    Var,
    apply,
    fresh_renaming,
    same_slope,
    strip_power,
    unify,
    VarSource,
)


class PatternRuleSet:
    """Pattern rules deduplicated modulo renaming, index shift and instance.

    A rule is covered, and not stored, when a stored rule holds every
    instance of it:
      - its `rule_base` is stored at a shift no larger than its own; or
      - it has no power, and it is a variant of a stored rule's instance
        at some index n.
    Stored rules are never removed, even when a later one covers them.
    Only simple rules (`powers.is_simple` on both sides) may be stored;
    insertion order is preserved so saturation rounds are reproducible.
    """

    def __init__(self, rules=()):
        self._rules: list[PatternRule] = []
        # Base key -> the least shift stored for it, and that rule.
        self._least: dict[tuple, tuple[int, PatternRule]] = {}
        # The stored rules with a power, in storage order, each with the
        # keys of its instances met so far, by index.
        self._powered: list[tuple[PatternRule, dict[int, tuple]]] = []
        for r in rules:
            self.add(r)

    def _cover(
        self, rule: PatternRule, base_key: tuple, d: int
    ) -> Optional[tuple[str, PatternRule, int]]:
        """How a stored rule covers this one, whose `rule_base` has key
        `base_key` and shift d, if one does: ("shift", stored, k) when it
        is the stored rule shifted by k >= 0 (k = 0 for a variant), or
        ("instance", stored, n) when it is, up to renaming, the stored
        rule's instance at n."""
        held = self._least.get(base_key)
        if held is not None and held[0] <= d:
            return "shift", held[1], d - held[0]
        if rule.lhs.powered or rule.rhs.powered:
            return None
        # Without powers the rule is its own base, so base_key is its key.
        for stored, keys in self._powered:
            n = _index_at(rule, stored)
            if n is None:
                continue
            key = keys.get(n)
            if key is None:
                inst = stored.at(n)
                key = keys[n] = canonical_key((inst.head, inst.body))
            if key == base_key:
                return "instance", stored, n
        return None

    def add(
        self,
        rule: PatternRule,
        on_subsumed: Optional[Callable[[PatternRule, PatternRule, str, int], None]] = None,
    ) -> bool:
        """Store the rule unless it is covered; True when stored.

        `on_subsumed(rule, stored, kind, k)` runs when a stored rule covers
        it, with kind "shift" when the stored rule is it shifted down by
        k > 0, or "instance" when it is the stored rule's instance at
        k; not on a variant.
        """
        if not (is_simple(rule.lhs) and is_simple(rule.rhs)):
            raise ValueError(f"refusing to store a non-simple pattern rule: {rule}")
        base, d = rule_base(rule)
        key = base.key()
        cover = self._cover(rule, key, d)
        if cover is not None:
            kind, held, k = cover
            if on_subsumed is not None and (kind, k) != ("shift", 0):
                on_subsumed(rule, held, kind, k)
            return False
        self._least[key] = (d, rule)
        self._rules.append(rule)
        if rule.lhs.powered or rule.rhs.powered:
            self._powered.append((rule, {}))
        return True

    def contains_variant(self, rule: PatternRule) -> bool:
        """Whether a stored rule is a variant of this one or covers it."""
        base, d = rule_base(rule)
        return self._cover(rule, base.key(), d) is not None

    def __iter__(self) -> Iterator[PatternRule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)


def _index_at(rule: PatternRule, family: PatternRule) -> Optional[int]:
    """The only index n at which the family's instance can be a variant of
    this power-free rule, or None.

    It is read off the family's first power c^(a,b), left side first: the
    rule must have the family's plain symbols on the way down to it, and
    there c^(a*n+b) over a term that is not c-headed, as the power's
    argument is not (`normalize`).
    """
    for f, t in ((family.lhs, rule.lhs), (family.rhs, rule.rhs)):
        if not f.powered:
            continue
        while not f.symbol.is_power:
            if isinstance(t, Var) or t.symbol != f.symbol:
                return None
            i = next(i for i, a in enumerate(f.args) if a.powered)
            f, t = f.args[i], t.args[i]
        k, _ = strip_power(t, f.symbol.context)
        n, r = divmod(k - f.symbol.b, f.symbol.a)
        return n if n >= 0 and r == 0 else None
    return None


@dataclass(frozen=True)
class UnfoldBudget:
    """Resource limits for one saturation run."""

    wall_clock: float = 10.0
    max_iterations: int = 10
    max_rules: int = 100_000


@dataclass
class UnfoldStats:
    # Distinct unfolded rules stored, seed set excluded; with a goal, only
    # rules with epsilon or an instance of a goal atom on the right.
    generated: int = 0
    subsumed: int = 0  # rules not stored: a stored one covers them (shift or instance)
    iterations: int = 0
    stop: str = "fixpoint"  # fixpoint | proved | timeout | iteration-cap | rule-cap


def identity_pattern_rules(program: Program) -> list[PatternRule]:
    """One constant-family identity rule per program symbol."""
    return [_identity(sym) for sym in program.symbols]


def _identity(sym: Symbol) -> PatternRule:
    t = App(sym, tuple(Var(f"X{i + 1}") for i in range(sym.arity)))
    return PatternRule(t, t)


def _toward(goal: Symbol, rule: PatternRule) -> bool:
    """Whether the rule's right side is epsilon or, at every index, an
    atom of goal (`powers.instance_root`).

    A derived rule's right side is its last pick's under theta, normalized,
    and a closing pick's is epsilon.  So a rule that fails this only ever
    leads to rules whose right side is an instance of another predicate's
    atom, and none of them pumps on goal.
    """
    return rule.rhs_is_epsilon() or instance_root(rule.rhs) == goal


def rename_pattern_rule(rule: PatternRule, ren: Subst) -> PatternRule:
    """The rule under an injective renaming of its variables."""
    return PatternRule(apply(rule.lhs, ren), apply(rule.rhs, ren))


def _clashes(a: Term, b: Term) -> bool:
    """True when a and b carry different symbols at a position where
    neither has a variable, and those are not two powers of one context
    and slope.  Such a pair never unifies (`terms.unify`), whatever other
    equations join it.  Two powers that differ only in offset are not
    looked into."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b or isinstance(a, Var) or isinstance(b, Var):
            continue
        if a.symbol != b.symbol:
            if not same_slope(a.symbol, b.symbol):
                return True
            continue
        stack.extend(zip(a.args, b.args))
    return False


def _attempts(
    program: Program,
    pool: list[PatternRule],
    patid: list[PatternRule],
    source: VarSource,
    new: Optional[set[int]] = None,
) -> Iterator[tuple[Optional[PatternRule], tuple]]:
    """Every selection one unfolding step tries, with the rule it derives.

    Yields (rule or None, provenance) per selection of pool rules for a
    body prefix; None marks a selection that failed to unify or lost
    simplicity.  Enumeration order is fixed: program rules in order, prefix
    length ascending, selections in pool insertion order (identities
    last), the last slot varying fastest.

    Each body atom's slot lists are built from the pool when the step
    reaches its program rule, keeping pool order, and hold only the rules
    whose left side does not clash with the atom (`_clashes`): an inner
    slot takes the closing rules (right side epsilon), and the slot a
    prefix ends with takes the others (any rule at the last atom), then
    the identities.  Selections are built slot by slot (`_join`): a family
    whose left side does not unify with its body atom under the bindings
    of the slots before it ends every selection through that prefix, which
    yields one None, with the prefix's picks as provenance.

    With `new` (the ids of the pool rules that are new since the previous
    step over the same program), selections made only of older rules are
    skipped: the previous step already tried each of them, and it can only
    give again a variant of what it gave then.
    """
    for rule_idx, rule in enumerate(program.rules):
        last = len(rule.body) - 1
        closing: list[list[PatternRule]] = []
        ending: list[list[PatternRule]] = []
        for i, atom in enumerate(rule.body):
            fits = [pr for pr in pool if not _clashes(pr.lhs, atom)]
            if i < last:
                closing.append([pr for pr in fits if pr.rhs_is_epsilon()])
                fits = [pr for pr in fits if not pr.rhs_is_epsilon()]
            ending.append([*fits, *(pr for pr in patid if not _clashes(pr.lhs, atom))])
        rule_vars = rule.vars()
        for i in range(1, len(rule.body) + 1):
            slots = [*closing[: i - 1], ending[i - 1]]
            yield from _join(rule, rule_vars, (rule_idx, i), slots, source, new)


def _join(
    rule: Rule,
    rule_vars: frozenset[Var],
    provenance: tuple[int, int],
    slots: list[list[PatternRule]],
    source: VarSource,
    new: Optional[set[int]],
) -> Iterator[tuple[Optional[PatternRule], tuple]]:
    """Depth-first walk of the selections for one body prefix, in the
    order of `itertools.product` over the slots.

    Each pick is renamed when it shares a variable with the program rule
    or with an earlier pick (so a second pick of the same rule is renamed
    unless the rule is ground), and its left side is unified with its body
    atom on top of the earlier picks' triangular bindings.  A pick that
    fails there yields one None and its subtree is skipped; a pick that
    leaves no way to use a new rule is skipped without unifying."""
    if not all(slots):
        return
    depth = len(slots)
    # later_new[j]: a slot from j on still holds a rule new in `new`.
    later_new = [new is None] * (depth + 1)
    if new is not None:
        for j in range(depth - 1, -1, -1):
            later_new[j] = later_new[j + 1] or any(id(r) in new for r in slots[j])
    if not later_new[0]:
        return
    prefix = rule.body[:depth]

    def walk(j, bindings, avoid, combo, has_new):
        for pr in slots[j]:
            uses_new = has_new or new is None or id(pr) in new
            if not (uses_new or later_new[j + 1]):
                continue
            picked = pr
            if not avoid.isdisjoint(pr.vars()):
                picked = rename_pattern_rule(pr, fresh_renaming(pr.vars(), avoid, source))
            here = (*combo, pr)
            if j + 1 == depth:
                theta = pattern_mgu([picked.lhs], [prefix[j]], bindings)
                yield _derive(rule.head, picked, theta), (*provenance, here)
                continue
            extended = unify(bindings, [(picked.lhs, prefix[j])])
            if extended is None:
                yield None, (*provenance, here)
                continue
            yield from walk(j + 1, extended, avoid | picked.vars(), here, uses_new)

    yield from walk(0, {}, rule_vars, (), False)


def _derive(head: Term, last: PatternRule, theta: Optional[Subst]) -> Optional[PatternRule]:
    """The rule a selection derives from its unifier, or None."""
    if theta is None:
        return None
    # A power of one context may land inside a power of another, on either
    # side, a shape no stored family has, so such a result is dropped.
    lhs = normalize(apply(head, theta))
    rhs = normalize(apply(last.rhs, theta))
    if not (is_simple(lhs) and is_simple(rhs)):
        return None
    return PatternRule(lhs, rhs)


def saturate(
    program: Program,
    base: list[PatternRule],
    budget: UnfoldBudget = UnfoldBudget(),
    on_rule: Optional[Callable[[PatternRule], bool]] = None,
    trace: Optional[TextIO] = None,
    goal: Optional[Symbol] = None,
) -> tuple[PatternRuleSet, UnfoldStats]:
    """Iterate the unfolding step to a fixpoint or until the budget trips.

    `on_rule` runs on every newly stored rule (the seed set included) and
    may stop the run by returning True -- used by the prover to short-cut
    on the first rule that witnesses non-termination.  Stats report the
    number of generated rules and the stop reason; exhausting the budget is
    a normal outcome, not an error.

    With a goal predicate, only the rules that may lead to one pumping on
    it are kept: a base rule is stored only when its right side is epsilon
    or a goal atom (`_toward`), and the goal's is the only identity
    offered.  Every derived rule then has epsilon or an instance of a goal
    atom on the right.  They are exactly the rules of that kind that a run
    without a goal stores, in the same rounds and order; the fixpoint,
    `generated` and `max_rules` refer to them alone.
    """
    deadline = time.monotonic() + budget.wall_clock
    stored = PatternRuleSet()
    stats = UnfoldStats()
    source = VarSource()
    patid = identity_pattern_rules(program) if goal is None else [_identity(goal)]

    def finish(reason: str) -> tuple[PatternRuleSet, UnfoldStats]:
        stats.stop = reason
        return stored, stats

    def subsumed(rule: PatternRule, by: PatternRule, kind: str, k: int) -> None:
        stats.subsumed += 1
        if trace:
            how = f"shift {k}" if kind == "shift" else f"instance n={k}"
            trace.write(f"subsumed: {rule}  ({how} of {by})\n")

    for rule in base:
        if goal is not None and not _toward(goal, rule):
            continue
        if stored.add(rule, subsumed):
            if trace:
                trace.write(f"seed: {rule}\n")
            if on_rule and on_rule(rule):
                return finish("proved")

    # Semi-naive evaluation: from round 2 on, only selections that use a
    # rule stored in the previous round are tried (see `_attempts`); the
    # identities are never new after round 1.
    new: Optional[set[int]] = None
    for round_no in range(1, budget.max_iterations + 1):
        stats.iterations = round_no
        snapshot = list(stored)
        grew = False
        attempts = _attempts(program, snapshot, patid, source, new)
        for attempt, (candidate, provenance) in enumerate(attempts, 1):
            # Every yield counts: each complete selection and each failed
            # unification at an inner slot.  So a long run of failing
            # unifications cannot outlast the deadline by more than 64.
            if attempt % 64 == 0 and time.monotonic() > deadline:
                return finish("timeout")
            if candidate is None:
                continue
            # The cap binds only on a rule that would be stored, so skipped
            # selections, which give covered rules, cannot change the outcome.
            if stats.generated >= budget.max_rules and not stored.contains_variant(
                candidate
            ):
                return finish("rule-cap")
            if not stored.add(candidate, subsumed):
                continue
            stats.generated += 1
            grew = True
            if trace:
                rule_idx, i, combo = provenance
                trace.write(
                    f"round {round_no}: rule {rule_idx + 1}, prefix {i}, "
                    f"via {[str(c) for c in combo]}\n    {candidate}\n"
                )
            if on_rule and on_rule(candidate):
                return finish("proved")
            if time.monotonic() > deadline:
                return finish("timeout")
        if not grew:
            return finish("fixpoint")
        new = {id(r) for r in list(stored)[len(snapshot):]}
    return finish("iteration-cap")
