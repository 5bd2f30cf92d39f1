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
rule's selections are walked level by level, each closing pick unified
once for every body prefix through it (`_attempts`).
Expansion at an index is a homomorphism, so the result at n is exactly the
classical unfolding of the selected instances at n.  A derived rule is
stored unless a stored rule covers it (`pattern.cover`): a variant, a
shift in the index, or, for a rule without powers, an instance; it is
compared only with the stored rules that share its shapes, and, when it
has no power, with those that have one, so no canonical key is built.
Iterating from a seed set of correct rules keeps every derived rule
correct, so a detector can be run on each insertion.  When a one-atom rule
grows a stored family without powers by one more ground layer, the search
also stores the family that holds the whole sequence, once unfolding the
rule with it checks out as a shift by one (`induce`): so a rule that grows
a ground tower per call ends at a fixpoint.  Saturation rarely terminates
on interesting programs; budgets (wall clock, rounds, rule count) bound
every run.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Callable, Iterator, Optional, TextIO

from .pattern import PatternRule, cover, identity_rules
# `pattern_mgu` is bound but not called here: the benchmark's tracer and
# tests read `unfold.pattern_mgu`.
from .powers import NormalBuilder, PowerSymbol, is_simple, pattern_mgu  # noqa: F401
from .program import Program, Rule
from .record import Record
from .terms import (
    App,
    Subst,
    Symbol,
    Term,
    Var,
    apply,
    apply_triangular,
    decompose_power,
    fresh_renaming,
    strip_power,
    term_vars,
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
    seed's or an induced family's own rule would derive from it are never
    built (`_attempts`), so they never reach `add`.  A variant seed, as a second
    copy of a clause gives, is dropped here like any covered family.  Rules
    are taken as simple (`powers.is_simple`), not walked: `saturate` refuses
    any other base rule, and `_derive` drops any other derived one.
    Insertion order is preserved so saturation rounds are reproducible.

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


class UnfoldBudget(Record):
    """Resource limits for one saturation run."""

    __slots__ = ("wall_clock", "max_iterations", "max_rules")

    def __init__(self, wall_clock: float = 10.0, max_iterations: int = 10, max_rules: int = 100_000):
        self.wall_clock, self.max_iterations, self.max_rules = wall_clock, max_iterations, max_rules


class UnfoldStats(Record):
    """What one saturation run did; it counts as the run goes.

    generated: distinct unfolded rules stored, seed set excluded; with a
    goal, only rules with epsilon or an instance of a goal atom on the right.
    subsumed: derived rules not stored because a stored one covers them
    (shift or instance); the selections `_attempts` leaves out are not
    counted.
    induced: induced families stored (`induce`), each also counted in
    `generated`.
    stop: fixpoint | proved | timeout | iteration-cap | rule-cap.
    """

    __slots__ = ("generated", "subsumed", "induced", "iterations", "stop")
    __hash__ = None  # it counts as the run goes

    def __init__(
        self,
        generated: int = 0,
        subsumed: int = 0,
        induced: int = 0,
        iterations: int = 0,
        stop: str = "fixpoint",
    ):
        self.generated, self.subsumed, self.induced = generated, subsumed, induced
        self.iterations, self.stop = iterations, stop


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

    Yields (rule or None, (rule index, prefix length, picks)) per
    selection of pool rules for a body prefix; None marks a selection that
    failed to unify or lost simplicity.  Enumeration order is fixed:
    program rules in order, prefix length ascending, selections in pool
    insertion order (identities last), the last slot varying fastest.

    Each body atom's slot lists are built from the pool when the step
    reaches its program rule, keeping pool order, and hold the pool's
    rules of the atom's root symbol (`_by_root`, grouped once per step),
    and likewise for the identities: an inner slot takes the closing
    rules (right side epsilon), and the slot a prefix ends with takes the
    others (any rule at the last atom), then the identities.  No slot list
    is built past an empty closing slot, which no prefix gets past.

    A one-atom rule's slot leaves out the seeds whose `source` it is, and
    the identities while its open seed is in the pool.  A seed is that
    rule unfolded n times with itself, so the rule unfolded with it gives
    at most the seed shifted by one, and with the identity the rule
    itself, the open seed's instance at 0.  The seed covers both
    (`PatternRuleSet`), so neither is built.  An induced family (`induce`)
    has its rule as its `source` too: the rule unfolded with it is that
    family shifted by one, and the rule unfolded with the identity was
    tried in round 1, before any family is induced.  Rules are compared by
    identity, so a copy of the clause keeps every pick.

    A rule's selections are walked level by level, as bottom-up evaluation
    materializes a join's prefixes.  Level j yields what each selection of
    closing slots 0..j-1 that unifies with their atoms (`terms.unify`)
    derives with each pick of ending slot j (`_derive`).  Selections grow
    depth first from those kept at the last level that yielded, and only
    a level that a later one extends keeps them: a closing pick is unified
    once for all the prefixes through it, and one that fails yields one None.

    With `new` (the ids of the pool rules that are new since the previous
    step over the same program), selections made only of older rules are
    skipped: the previous step already tried each of them, and it can only
    give again a variant of what it gave then.  A selection of older rules
    grows only while a later level that can yield holds a new rule.  The
    clock is read before each slot list and before each selection grows;
    past the `deadline` (a `time.monotonic` reading) the step ends.
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
            if i < last and not closing[-1]:
                break
        # Levels past the last nonempty ending slot yield nothing.
        while ending and not ending[-1]:
            ending.pop()
        levels = len(ending)
        # The last level with a new rule in its ending slot or in the closing
        # slot that leads past it: past it, a selection of older rules is idle.
        newest = levels - 1
        while new is not None and newest >= 0 and new.isdisjoint(
            map(id, chain(ending[newest], closing[newest] if newest + 1 < levels else ()))
        ):
            newest -= 1
        # The selections of closing slots that a later level extends: the
        # bindings, the picks (one per slot), and whether a pick is new.
        frontier: list[tuple[dict, tuple, bool]] = [({}, (), new is None)] if newest >= 0 else []
        for j in range(levels):
            if not (frontier and ending[j]):
                continue
            # Depth first from the frontier to level j, through the closing
            # slots of the levels between, which yield nothing.
            stack, frontier = frontier[::-1], []
            while stack:
                entry = bindings, picks, has_new = stack.pop()
                k = len(picks)
                if k == j:
                    for pr in ending[j]:
                        if has_new or id(pr) in new:
                            picked = _apart(pr, picks, source)
                            extended = unify(bindings, [(picked.lhs, rule.body[j])])
                            yield _derive(rule.head, picked, extended, source), (rule_idx, j + 1, (*picks, pr))
                    if j + 1 < levels:
                        frontier.append(entry)
                    continue
                if time.monotonic() > deadline:
                    return
                grown = []
                for pr in closing[k]:
                    uses_new = has_new or id(pr) in new
                    if uses_new or k < newest:
                        here = (*picks, pr)
                        extended = unify(bindings, [(_apart(pr, picks, source).lhs, rule.body[k])])
                        if extended is None:
                            yield None, (rule_idx, k + 2, here)
                        else:
                            grown.append((extended, here, uses_new))
                stack += reversed(grown)


def _apart(pr: PatternRule, picks: tuple, source: VarSource) -> PatternRule:
    """The pick, renamed when the same rule, not ground, is among the picks:
    every pool rule and identity has its own fresh variables of `source`
    (`saturate`), which no program variable meets, so no other clash."""
    if id(pr) in map(id, picks) and pr.vars():
        return rename_pattern_rule(pr, fresh_renaming(pr.vars(), (), source))
    return pr


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
    # The normal form moves only ground context layers, so it keeps every
    # variable.
    return PatternRule(lhs, rhs, vars=fresh)


def induce(
    rule: Rule, pick: PatternRule, derived: PatternRule, source: VarSource
) -> Optional[PatternRule]:
    """The family that closes a sequence growing one ground layer per
    round, or None.

    `derived` is `rule`, a program rule R, unfolded with `pick` alone, a
    stored family F, not an identity.  When R has one body atom holding
    every variable of its head, F has no power, and `derived` differs from
    F only by a >= 1 more layers of one ground 1-context c at some
    positions (`_propose`), the proposal G is F with c^(a,0) over each such
    position, built in normal form with fresh variables of `source`.  Its
    instance at 0 is F, and at 1 a variant of `derived`.  G is kept only
    when R unfolded with G is G shifted by one (`pattern.cover` reads
    ("shift", 1)): then, by induction on n, G's instance at n + 1 is R
    unfolded with its instance at n, so every instance of G is a real
    unfolding, as F is.  G records R as its `source`, as a seed does, so
    the search never unfolds R with it again (`_attempts`).

    A head variable that the body lacks is a new variable in every rule R
    derives, so a family R grows takes a layer that holds a variable, as
    a list cell does: such a rule proposes nothing, at the cost of one walk
    over its body atom.
    """
    if len(rule.body) != 1 or pick.lhs.powered or pick.rhs.powered:
        return None
    if len(term_vars(rule.body[0])) < len(rule.vars()):
        return None
    family = _propose(pick, derived, source, rule)
    if family is None:
        return None
    step = _derive(rule.head, family, unify({}, [(family.lhs, rule.body[0])]), source)
    if step is None or cover(family, step) != ("shift", 1):
        return None
    return family


def _propose(f: PatternRule, g: PatternRule, source: VarSource, rule: Rule) -> Optional[PatternRule]:
    """f with c^(a,0) over each position where g holds a >= 1 layers of one
    ground 1-context c over what f holds there, up to a renaming of the
    variables, both being power-free; None when g is not so.  The result
    has fresh variables of `source` and `rule` as its `source`.

    One walk over both rules, left side first, as `powers.positions` reads
    them, that stops at the first node where they part otherwise, and
    builds the result bottom-up in normal form (`powers.NormalBuilder`),
    each pair of nodes once.  c and a are read at the first position where
    they part, which must hold a variable in f and a tower over one
    variable in g (`terms.decompose_power`); every later one must peel
    exactly a layers of c off g (`terms.strip_power`).  A refused proposal
    may have drawn fresh names, which no family then holds."""
    layer: Optional[tuple[Term, int]] = None
    ren: dict[Var, Var] = {}  # f's variables -> g's, and back: a bijection
    back: dict[Var, Var] = {}
    names: dict[Var, Var] = {}  # f's variables -> the result's
    normal = NormalBuilder()
    done: dict[tuple[int, int], Term] = {}
    for side in ((f.lhs, g.lhs), (f.rhs, g.rhs)):
        # A pair is pushed to be walked, and again with what g has past
        # the layers (None if none) below its parts, to be built.
        stack: list = [side]
        while stack:
            item = stack.pop()
            if len(item) == 3:
                t, u, rest = item
                if rest is None:
                    args = tuple([done[id(a), id(b)] for a, b in zip(t.args, u.args)])
                    done[id(t), id(u)] = normal.node(t, args)
                else:
                    inner = done[id(t), id(rest)]
                    power = App(PowerSymbol(*layer, 0), (inner,))
                    done[id(t), id(u)] = normal.node(power, (inner,))
                continue
            t, u = item
            if (id(t), id(u)) in done:
                continue
            if t.ground and t == u:
                done[id(t), id(u)] = t
                continue
            if type(u) is Var:
                if type(t) is not Var or ren.setdefault(t, u) is not u or back.setdefault(u, t) is not t:
                    return None
                done[id(t), id(u)] = names.get(t) or names.setdefault(t, source.fresh())
                continue
            if type(t) is App and t.symbol is u.symbol:
                stack.append((t, u, None))
                stack.extend(zip(reversed(t.args), reversed(u.args)))
                continue
            if layer is None:
                held = term_vars(u) if type(t) is Var else ()
                if len(held) != 1:
                    return None
                (rest,) = held
                layer = decompose_power(u, rest)
                if layer is None:
                    return None
            else:
                k, rest = strip_power(u, layer[0])
                if k != layer[1]:
                    return None
            stack += ((t, u, rest), (t, rest))
    if layer is None or not normal.simple:
        return None
    lhs, rhs = done[id(f.lhs), id(g.lhs)], done[id(f.rhs), id(g.rhs)]
    return PatternRule(lhs, rhs, rule, vars=frozenset(names.values()))


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
    on the first rule that witnesses non-termination.  Right after a rule
    derived from one stored pick, an identity aside, is stored, the family
    that closes its sequence, if any (`induce`), is stored as a derived
    rule too; a rule that such an induced family covers still meets
    `on_rule`, since without that family a later round would have stored
    it.  Stats report the number of generated rules and the stop reason;
    exhausting the budget is a normal outcome, not an error.  The clock is
    read before each seed, slot list, growth (`_attempts`) and selection,
    and after each round: a round cut short ends "timeout", not "fixpoint".

    With a goal predicate, the goal's is the only identity offered, and
    every base rule must have epsilon or a goal atom on the right, as
    `initial_rules` with the goal builds them.  Every derived rule then
    has epsilon or an instance of a goal atom on the right.  They are
    exactly the rules of that kind that a run without a goal stores, in
    the same rounds and order; the fixpoint, `generated` and `max_rules`
    refer to them alone.  Rules draw variables from `source` (a new one
    without it).  Families built outside the search come in only here: a
    base rule that is not simple (`powers.is_simple` on both sides), or a
    base not renamed apart by `source`, raises ValueError.
    """
    deadline = time.monotonic() + budget.wall_clock
    stored = PatternRuleSet()
    stats = UnfoldStats()
    source = VarSource() if source is None else source
    for rule in base:
        if not (is_simple(rule.lhs) and is_simple(rule.rhs)):
            raise ValueError(f"refusing to search from a non-simple pattern rule: {rule}")
    held = [v for rule in base for v in rule.vars()]
    if not source.made.issuperset(held) or len(set(held)) < len(held):
        raise ValueError("base rules not renamed apart by the search's source")
    patid = identity_rules(program.symbols if goal is None else (goal,), source)

    def finish(reason: str) -> tuple[PatternRuleSet, UnfoldStats]:
        stats.stop = reason
        return stored, stats

    # The induced families stored (`induce`), by id, and the stored family
    # that covered the last rule the store dropped.
    induced: set[int] = set()
    covering: list[PatternRule] = []

    def subsumed(rule: PatternRule, by: PatternRule, kind: str, k: int) -> None:
        stats.subsumed += 1
        covering.append(by)
        if trace:
            how = f"shift {k}" if kind == "shift" else f"instance n={k}"
            trace.write(f"subsumed: {rule}  ({how} of {by})\n")

    def admit(rule: PatternRule, note: Callable[[], str]) -> tuple[bool, Optional[str]]:
        """Store a derived or induced rule unless a stored one covers it,
        tracing `note()` if stored, and run `on_rule` on it if stored, or
        if an induced family covers it: without that family, a later round
        would have stored it.  Whether it was stored, and the reason the
        run stops, if it does."""
        # The cap binds only on a rule that would be stored, so skipped
        # selections, which give covered rules, cannot change the outcome.
        if stats.generated >= budget.max_rules and not stored.contains_variant(rule):
            return False, "rule-cap"
        covering.clear()
        kept = stored.add(rule, subsumed)
        if kept:
            stats.generated += 1
            if trace:
                trace.write(note())
        elif not (covering and id(covering[0]) in induced):
            return False, None
        return kept, "proved" if on_rule and on_rule(rule) else None

    for rule in base:
        if time.monotonic() > deadline:
            return finish("timeout")
        if stored.add(rule, subsumed):
            if trace:
                trace.write(f"seed: {rule}\n")
            if on_rule and on_rule(rule):
                return finish("proved")

    # Semi-naive evaluation: from round 2 on, only selections that use a
    # rule stored in the previous round are tried (see `_attempts`); the
    # identities are never new after round 1.
    identities = set(map(id, patid))
    new: Optional[set[int]] = None
    for round_no in range(1, budget.max_iterations + 1):
        stats.iterations = round_no
        snapshot = list(stored)
        for candidate, provenance in _attempts(program, snapshot, patid, source, new, deadline):
            if time.monotonic() > deadline:
                return finish("timeout")
            if candidate is None:
                continue
            rule_idx, i, combo = provenance
            kept, stop = admit(
                candidate,
                lambda: f"round {round_no}: rule {rule_idx + 1}, prefix {i}, "
                f"via {[str(c) for c in combo]}\n    {candidate}\n",
            )
            if stop:
                return finish(stop)
            # A stored rule grown from a single stored pick: close the
            # sequence by induction if it grows by a ground layer.
            if not kept or len(combo) > 1 or id(combo[0]) in identities:
                continue
            family = induce(program.rules[rule_idx], combo[0], candidate, source)
            if family is None:
                continue
            kept, stop = admit(
                family,
                lambda: f"round {round_no}: rule {rule_idx + 1}, induced from "
                f"{combo[0]}\n    {family}\n",
            )
            if kept:
                induced.add(id(family))
                stats.induced += 1
            if stop:
                return finish(stop)
        if time.monotonic() > deadline:
            return finish("timeout")
        if len(stored) == len(snapshot):
            return finish("fixpoint")
        new = {id(r) for r in list(stored)[len(snapshot):]}
    return finish("iteration-cap")
