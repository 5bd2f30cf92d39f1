"""The pattern-unfolding engine: saturates a set of pattern rules.

One step unfolds a prefix of a program rule's body with already-derived
pattern rules: the first atoms are closed by rules whose right side is
empty, the last consumed atom contributes its right side, and the unifier
theta of the selected left sides against the body prefix, over power
terms, instantiates the rule head and that right side.  A body atom is
offered the rules of its root symbol, and `terms.unify` alone decides
which of them meet it.  theta is kept as a triangular map (`terms.unify`),
and the derived rule is read through it in one walk that renames its
variables apart and builds the rule in normal form as it goes
(`terms.apply_triangular` with `powers.NormalBuilder`), so no second walk
normalizes it or checks that it is simple, and each rule of a search has
its own variables: only a rule picked twice in a selection is renamed.  A
prefix's selections are walked in one loop over a stack of per-slot
iterators (`_join`), so no step recurses on the length of a body.
Expansion at an index is a homomorphism, so the result at n is exactly the
classical unfolding of the selected instances at n.  A derived rule is
stored unless a stored rule covers it (`pattern.cover`): a variant, a
shift in the index, or, for a rule without powers, an instance; it is
compared only with the stored rules that share its shapes, and, when it
has no power, with those that have one, so no canonical key is built.
Iterating from a seed set of correct rules keeps every derived rule
correct, so a detector can be run on each insertion.  Saturation rarely
terminates on interesting programs; budgets (wall clock, rounds, rule
count) bound every run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Optional, TextIO

from .pattern import PatternRule, cover, identity_rules
# `pattern_mgu` is bound but not called here: the benchmark's tracer and
# tests read `unfold.pattern_mgu`.
from .powers import NormalBuilder, instance_root, is_simple, pattern_mgu  # noqa: F401
from .program import Program, Rule
from .terms import (
    Subst,
    Symbol,
    Term,
    Var,
    apply,
    apply_triangular,
    fresh_renaming,
    unify,
    VarSource,
)


class PatternRuleSet:
    """Pattern rules deduplicated modulo renaming, index shift and instance.

    A rule is covered, and not stored, when a stored rule holds every
    instance of it (`pattern.cover`): it is a stored rule shifted by
    k >= 0 (k = 0 for a variant), or it has no power and is a variant of a
    stored rule's instance at some index n.  Stored rules are never
    removed, even when a later one covers them.  The covered rules that a
    seed's own recursive rule would derive from it are never built
    (`_attempts`), so they never reach `add`.  Only simple rules
    (`powers.is_simple` on both sides) may be stored; insertion order is
    preserved so saturation rounds are reproducible.

    Stored rules are bucketed by the shapes of their two sides
    (`terms.App`), which a rule shares with its variants and its shifts,
    so a rule is compared only with its own bucket, newest first, and,
    when it has no power, with the stored rules that have one, in storage
    order.  A shift of a stored rule is stored only when it is smaller
    than every shift of that rule stored before it, so the newest that
    covers a rule is the one of least shift.  The map of buckets is never
    iterated, and each bucket keeps storage order, so no order depends on
    a hash value.
    """

    def __init__(self, rules=()):
        self._rules: list[PatternRule] = []
        # Shapes of both sides -> the stored rules with them, in storage order.
        self._buckets: dict[tuple[int, int], list[PatternRule]] = {}
        # The stored rules with a power, in storage order.
        self._powered: list[PatternRule] = []
        for r in rules:
            self.add(r)

    def _cover(self, rule: PatternRule) -> Optional[tuple[str, PatternRule, int]]:
        """How a stored rule covers this one, if one does: ("shift", stored,
        k) or ("instance", stored, n), as `pattern.cover` reads them."""
        candidates = reversed(self._buckets.get((rule.lhs._shape, rule.rhs._shape), ()))
        if not (rule.lhs.powered or rule.rhs.powered):
            candidates = chain(candidates, self._powered)
        for held in candidates:
            found = cover(held, rule)
            if found is not None:
                return found[0], held, found[1]
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
        found = self._cover(rule)
        if found is not None:
            kind, held, k = found
            if on_subsumed is not None and (kind, k) != ("shift", 0):
                on_subsumed(rule, held, kind, k)
            return False
        self._buckets.setdefault((rule.lhs._shape, rule.rhs._shape), []).append(rule)
        self._rules.append(rule)
        if rule.lhs.powered or rule.rhs.powered:
            self._powered.append(rule)
        return True

    def contains_variant(self, rule: PatternRule) -> bool:
        """Whether a stored rule is a variant of this one or covers it."""
        return self._cover(rule) is not None

    def __iter__(self) -> Iterator[PatternRule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)


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
    # Derived rules not stored because a stored one covers them (shift or
    # instance); the selections `_attempts` leaves out are not counted.
    subsumed: int = 0
    iterations: int = 0
    stop: str = "fixpoint"  # fixpoint | proved | timeout | iteration-cap | rule-cap


def _toward(goal: Symbol, rule: PatternRule) -> bool:
    """Whether the rule's right side is epsilon or, at every index, an
    atom of goal (`powers.instance_root`).

    A derived rule's right side is its last pick's under theta, in normal
    form, and a closing pick's is epsilon.  So a rule that fails this only
    ever leads to rules whose right side is an instance of another
    predicate's atom, and none of them pumps on goal.
    """
    return rule.rhs_is_epsilon() or instance_root(rule.rhs) == goal


def rename_pattern_rule(rule: PatternRule, ren: Subst) -> PatternRule:
    """The rule under an injective renaming of its variables."""
    return PatternRule(apply(rule.lhs, ren), apply(rule.rhs, ren))


def _by_root(rules: list[PatternRule]) -> Callable[[Term], list[PatternRule]]:
    """For a body atom, the rules whose left side can unify with it, as
    far as its root symbol tells, in their order: those whose left side
    has the atom's root symbol or is a variable (every rule for a variable
    atom).  A body atom is never a power, so any other root clashes with
    it, a power root included.  Below the root, `terms.unify` decides."""
    groups: dict[object, list[PatternRule]] = {}
    loose: list[PatternRule] = []
    for pr in rules:
        if isinstance(pr.lhs, Var):
            loose.append(pr)
            for group in groups.values():
                group.append(pr)
            continue
        group = groups.get(pr.lhs.symbol)
        if group is None:
            group = groups[pr.lhs.symbol] = loose.copy()
        group.append(pr)
    return lambda atom: rules if isinstance(atom, Var) else groups.get(atom.symbol, loose)


def _attempts(
    program: Program,
    pool: list[PatternRule],
    patid: list[PatternRule],
    source: VarSource,
    new: Optional[set[int]] = None,
    deadline: float = float("inf"),
) -> Iterator[tuple[Optional[PatternRule], tuple]]:
    """Every selection one unfolding step tries, with the rule it derives.

    Yields (rule or None, provenance) per selection of pool rules for a
    body prefix; None marks a selection that failed to unify or lost
    simplicity.  Enumeration order is fixed: program rules in order, prefix
    length ascending, selections in pool insertion order (identities
    last), the last slot varying fastest.

    Each body atom's slot lists are built from the pool when the step
    reaches its program rule, keeping pool order, and hold the pool's
    rules of the atom's root symbol (`_by_root`, grouped once per step),
    and likewise for the identities: an inner slot takes the closing
    rules (right side epsilon), and the slot a prefix ends with takes the
    others (any rule at the last atom), then the identities.  The clock is
    read before each slot list is built, and past the `deadline` (a
    `time.monotonic` reading) the step ends.

    A one-atom rule's slot leaves out the seeds whose `source` it is, and
    the identities while its open seed is in the pool.  A seed is that
    rule unfolded n times with itself, so the rule unfolded with it gives
    at most the seed shifted by one, and with the identity the rule
    itself, the open seed's instance at 0.  The seed covers both
    (`PatternRuleSet`), so neither is built.  Rules are compared by
    identity, so a copy of the clause keeps every pick.

    Selections are built slot by slot (`_join`): a family whose left side
    does not unify with its body atom under the bindings of the slots
    before it ends every selection through that prefix, which yields one
    None, with the prefix's picks as provenance.

    With `new` (the ids of the pool rules that are new since the previous
    step over the same program), selections made only of older rules are
    skipped: the previous step already tried each of them, and it can only
    give again a variant of what it gave then.
    """
    # The program rules whose open seed is in the pool, by identity.
    opened = {id(pr.source) for pr in pool if pr.source is not None and not pr.rhs_is_epsilon()}
    pool_at, patid_at = _by_root(pool), _by_root(patid)
    for rule_idx, rule in enumerate(program.rules):
        last = len(rule.body) - 1
        closing: list[list[PatternRule]] = []
        ending: list[list[PatternRule]] = []
        for i, atom in enumerate(rule.body):
            if time.monotonic() > deadline:
                return
            fits = [pr for pr in pool_at(atom) if pr.source is not rule]
            if i < last:
                closing.append([pr for pr in fits if pr.rhs_is_epsilon()])
                fits = [pr for pr in fits if not pr.rhs_is_epsilon()]
            identities = () if id(rule) in opened else patid_at(atom)
            ending.append([*fits, *identities])
        for i in range(1, len(rule.body) + 1):
            slots = [*closing[: i - 1], ending[i - 1]]
            yield from _join(rule, (rule_idx, i), slots, source, new)


def _join(
    rule: Rule,
    provenance: tuple[int, int],
    slots: list[list[PatternRule]],
    source: VarSource,
    new: Optional[set[int]],
) -> Iterator[tuple[Optional[PatternRule], tuple]]:
    """Depth-first walk of the selections for one body prefix, in the
    order of `itertools.product` over the slots, in one loop over a stack
    of per-slot iterators: no recursion on the body's length, and no
    reference cycle left for the cyclic collector.

    Each pick's left side is unified with its body atom on top of the
    earlier picks' triangular bindings (`terms.unify`, the last slot's
    too).  A pick that fails at an inner slot yields one None and its
    subtree is skipped; a pick that leaves no way to use a new rule is
    skipped without unifying.  A complete selection derives its rule from
    the bindings (`_derive`).

    Every rule of the pool and every identity has its own fresh variables
    of `source` (`saturate`), which no program variable can meet, so a
    pick is renamed only when the same rule, not ground, is already in the
    selection: one identity test against the picks so far."""
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
    # Per slot entered: its picks' iterator and the state the picks extend.
    stack = [(iter(slots[0]), {}, (), False)]
    while stack:
        j = len(stack) - 1
        picks, bindings, combo, has_new = stack[-1]
        for pr in picks:
            uses_new = has_new or new is None or id(pr) in new
            if not (uses_new or later_new[j + 1]):
                continue
            picked = pr
            if id(pr) in map(id, combo) and pr.vars():
                picked = rename_pattern_rule(pr, fresh_renaming(pr.vars(), (), source))
            here = (*combo, pr)
            extended = unify(bindings, [(picked.lhs, prefix[j])])
            if j + 1 == depth:
                yield _derive(rule.head, picked, extended, source), (*provenance, here)
            elif extended is None:
                yield None, (*provenance, here)
            else:
                stack.append((iter(slots[j + 1]), extended, here, uses_new))
                break
        else:
            stack.pop()


def _derive(
    head: Term, last: PatternRule, bindings: Optional[dict[Var, Term]], source: VarSource
) -> Optional[PatternRule]:
    """The rule a selection derives from its triangular unifier, or None.

    The head and the last pick's right side are read through the bindings
    in one walk (`terms.apply_triangular`), which gives every variable
    left unbound a fresh one of `source` and builds every node in normal
    form (`powers.NormalBuilder`).  The walk keeps ground subterms and
    ground bindings as they are, and the builder needs them normal and
    simple: each is part of a stored family, or holds no power (a program
    term, or a tower `terms.unify` peeled off a power's argument).  So a
    stored rule shares no variable with a program rule or with another
    derived rule, and its variables and its simplicity are known without a
    second walk."""
    if bindings is None:
        return None
    normal = NormalBuilder()
    (lhs, rhs), fresh = apply_triangular((head, last.rhs), bindings, source, normal.node)
    # A power of one context may land inside a power of another, on either
    # side, a shape no stored family has, so such a result is dropped.
    if not normal.simple:
        return None
    rule = PatternRule(lhs, rhs)
    # The normal form moves only ground context layers, so it keeps every
    # variable.
    rule.__dict__["_vars"] = fresh  # fills PatternRule.vars()
    return rule


def saturate(
    program: Program,
    base: list[PatternRule],
    budget: UnfoldBudget = UnfoldBudget(),
    on_rule: Optional[Callable[[PatternRule], bool]] = None,
    trace: Optional[TextIO] = None,
    goal: Optional[Symbol] = None,
    source: Optional[VarSource] = None,
) -> tuple[PatternRuleSet, UnfoldStats]:
    """Iterate the unfolding step to a fixpoint or until the budget trips.

    `on_rule` runs on every newly stored rule (the seed set included) and
    may stop the run by returning True -- used by the prover to short-cut
    on the first rule that witnesses non-termination.  Stats report the
    number of generated rules and the stop reason; exhausting the budget is
    a normal outcome, not an error.  The clock is read before each seed,
    slot list (`_attempts`) and selection, and after each round, so a round
    cut short ends "timeout", not "fixpoint".

    With a goal predicate, only the rules that may lead to one pumping on
    it are kept: a base rule is stored only when its right side is epsilon
    or a goal atom (`_toward`), and the goal's is the only identity
    offered.  Every derived rule then has epsilon or an instance of a goal
    atom on the right.  They are exactly the rules of that kind that a run
    without a goal stores, in the same rounds and order; the fixpoint,
    `generated` and `max_rules` refer to them alone.  Rules draw variables
    from `source` (a new one without it); base rules not built apart by it
    (`initial_rules` with it) raise ValueError.
    """
    deadline = time.monotonic() + budget.wall_clock
    stored = PatternRuleSet()
    stats = UnfoldStats()
    source = VarSource() if source is None else source
    held = [v for rule in base for v in rule.vars()]
    if not source.made.issuperset(held) or len(set(held)) < len(held):
        raise ValueError("base rules not renamed apart by the search's source")
    patid = identity_rules(program.symbols if goal is None else (goal,), source)

    def finish(reason: str) -> tuple[PatternRuleSet, UnfoldStats]:
        stats.stop = reason
        return stored, stats

    def subsumed(rule: PatternRule, by: PatternRule, kind: str, k: int) -> None:
        stats.subsumed += 1
        if trace:
            how = f"shift {k}" if kind == "shift" else f"instance n={k}"
            trace.write(f"subsumed: {rule}  ({how} of {by})\n")

    for rule in base:
        if time.monotonic() > deadline:
            return finish("timeout")
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
        for candidate, provenance in _attempts(program, snapshot, patid, source, new, deadline):
            if time.monotonic() > deadline:
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
