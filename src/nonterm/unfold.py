"""The pattern-unfolding engine: saturates a set of pattern rules.

One step unfolds a prefix of a program rule's body with already-derived
pattern rules: the first atoms are closed by rules whose right side is
empty, the last consumed atom contributes its right side, and the unifier
theta of the selected left sides against the body prefix, over power
terms, instantiates the rule head and that right side.  theta is kept as a
triangular map (`terms.unify`), and the derived rule is read through it in
one walk that renames its variables apart as it builds the rule
(`terms.apply_triangular`), so only the picks that still collide with the
program rule or with each other are renamed.  Expansion at an
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

from .pattern import PatternRule, VariantMap, identity_rules, rule_base
# `pattern_mgu` is bound but not called here: the benchmark's tracer and
# tests read `unfold.pattern_mgu`.
from .powers import instance_root, is_simple, normalize, pattern_mgu  # noqa: F401
from .program import Program, Rule
from .terms import (
    Subst,
    Symbol,
    Term,
    Var,
    apply,
    apply_triangular,
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
    The covered rules that a seed's own recursive rule would derive from
    it are never built (`_attempts`), so they never reach `add`.
    Only simple rules (`powers.is_simple` on both sides) may be stored;
    insertion order is preserved so saturation rounds are reproducible.

    Bases are held in a `pattern.VariantMap`, so a canonical key
    (`PatternRule.key`) is built only when a stored base has the same
    shapes (`terms.App`) as the one looked up, and an instance is keyed
    only when its shapes are those of the rule it is compared with.  A
    rule that no stored rule comes near in shape costs no key at all.
    """

    def __init__(self, rules=()):
        self._rules: list[PatternRule] = []
        # Base -> the least shift stored for it, and that rule.
        self._least = VariantMap()
        # The stored rules with a power, in storage order, each with its
        # instances met so far, by index.
        self._powered: list[tuple[PatternRule, dict[int, PatternRule]]] = []
        for r in rules:
            self.add(r)

    def _cover(
        self, rule: PatternRule, base: PatternRule, d: int
    ) -> Optional[tuple[str, PatternRule, int]]:
        """How a stored rule covers this one, whose `rule_base` is `base`
        at shift d, if one does: ("shift", stored, k) when it is the stored
        rule shifted by k >= 0 (k = 0 for a variant), or ("instance",
        stored, n) when it is, up to renaming, the stored rule's instance
        at n."""
        held = self._least.get(base)
        if held is not None and held[0] <= d:
            return "shift", held[1], d - held[0]
        if rule.lhs.powered or rule.rhs.powered:
            return None
        shapes = (rule.lhs._shape, rule.rhs._shape)
        for stored, instances in self._powered:
            n = _index_at(rule, stored)
            if n is None:
                continue
            inst = instances.get(n)
            if inst is None:
                inst = instances[n] = stored.at(n)
            if (inst.lhs._shape, inst.rhs._shape) == shapes and inst.key() == rule.key():
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
        cover = self._cover(rule, base, d)
        if cover is not None:
            kind, held, k = cover
            if on_subsumed is not None and (kind, k) != ("shift", 0):
                on_subsumed(rule, held, kind, k)
            return False
        self._least[base] = (d, rule)
        self._rules.append(rule)
        if rule.lhs.powered or rule.rhs.powered:
            self._powered.append((rule, {}))
        return True

    def contains_variant(self, rule: PatternRule) -> bool:
        """Whether a stored rule is a variant of this one or covers it."""
        return self._cover(rule, *rule_base(rule)) is not None

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
    # Derived rules not stored because a stored one covers them (shift or
    # instance); the selections `_attempts` leaves out are not counted.
    subsumed: int = 0
    iterations: int = 0
    stop: str = "fixpoint"  # fixpoint | proved | timeout | iteration-cap | rule-cap


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


def _by_root(rules: list[PatternRule]) -> Callable[[Term], list[PatternRule]]:
    """For a body atom, the rules that can get past `_clashes` with it, in
    their order: those whose left side has the atom's root symbol or is a
    variable (every rule for a variable atom).  A body atom is never a
    power, so any other root clashes with it, a power root included."""
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
    reaches its program rule, keeping pool order, and hold only the rules
    whose left side does not clash with the atom (`_clashes`), which is
    tried only on the pool's rules of the atom's root symbol (`_by_root`,
    grouped once per step), and likewise for the identities: an inner
    slot takes the closing rules (right side epsilon), and the slot a
    prefix ends with takes the others (any rule at the last atom), then
    the identities.  The clock is read before each slot list is built, and
    past the `deadline` (a `time.monotonic` reading) the step ends.

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
            fits = [pr for pr in pool_at(atom) if pr.source is not rule and not _clashes(pr.lhs, atom)]
            if i < last:
                closing.append([pr for pr in fits if pr.rhs_is_epsilon()])
                fits = [pr for pr in fits if not pr.rhs_is_epsilon()]
            identities = () if id(rule) in opened else patid_at(atom)
            ending.append([*fits, *(pr for pr in identities if not _clashes(pr.lhs, atom))])
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

    Each pick's left side is unified with its body atom on top of the
    earlier picks' triangular bindings (`terms.unify`, the last slot's
    too).  A pick that fails at an inner slot yields one None and its
    subtree is skipped; a pick that leaves no way to use a new rule is
    skipped without unifying.  A complete selection derives its rule from
    the bindings (`_derive`).

    Derived rules have fresh variables, so a pick is renamed only when it
    still shares a variable with the program rule or with an earlier pick:
    a seed, which carries the program's names; a rule picked a second time
    in the selection, unless it is ground; or a program variable spelled
    like a fresh name."""
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
            extended = unify(bindings, [(picked.lhs, prefix[j])])
            if j + 1 == depth:
                yield _derive(rule.head, picked, extended, source), (*provenance, here)
            elif extended is None:
                yield None, (*provenance, here)
            else:
                yield from walk(j + 1, extended, avoid | picked.vars(), here, uses_new)

    yield from walk(0, {}, rule_vars, (), False)


def _derive(
    head: Term, last: PatternRule, bindings: Optional[dict[Var, Term]], source: VarSource
) -> Optional[PatternRule]:
    """The rule a selection derives from its triangular unifier, or None.

    The head and the last pick's right side are read through the bindings
    in one walk (`terms.apply_triangular`), which gives every variable
    left unbound a fresh one of `source`, and then normalized.  So a
    stored rule shares no variable with a program rule or with another
    derived rule, and its variables are known without a second walk."""
    if bindings is None:
        return None
    (lhs, rhs), fresh = apply_triangular((head, last.rhs), bindings, source)
    # A power of one context may land inside a power of another, on either
    # side, a shape no stored family has, so such a result is dropped.
    lhs, rhs = normalize(lhs), normalize(rhs)
    if not (is_simple(lhs) and is_simple(rhs)):
        return None
    rule = PatternRule(lhs, rhs)
    # Normalizing moves only ground context layers, so it keeps every
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
    `generated` and `max_rules` refer to them alone.
    """
    deadline = time.monotonic() + budget.wall_clock
    stored = PatternRuleSet()
    stats = UnfoldStats()
    source = VarSource()
    patid = identity_rules(program.symbols if goal is None else (goal,))

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
