"""Pattern substitutions, terms and rules: finite descriptions of rule families.

A pattern substitution (sigma, mu) stands for the family sigma^n . mu over
all n; a pattern term applies such a family to a fixed skeleton, and a
pattern rule pairs two pattern terms, describing one binary rule per index.
`initial_rules` extracts the seed set from recursive/base rule pairs whose
heads differ only by one ground context layer per argument: such a pair
yields a family of rules covering every unrolling depth at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .binrules import BinaryRule, BinaryRuleSet, canonical_key, saturate
from .program import Program
from .terms import (
    App,
    EPSILON,
    Subst,
    Symbol,
    Term,
    Var,
    apply,
    compose,
    hole,
    hole_index,
    is_epsilon,
    is_hole,
    render,
    term_vars,
)


@dataclass(frozen=True)
class PatternSubstitution:
    """The substitution family sigma^n . mu, indexed by n."""

    sigma: Subst
    mu: Subst

    def at(self, n: int) -> Subst:
        acc = self.mu
        for _ in range(n):
            acc = compose(self.sigma, acc)
        return acc

    def vars(self) -> frozenset[Var]:
        return (
            self.sigma.domain()
            | self.sigma.range_vars()
            | self.mu.domain()
            | self.mu.range_vars()
        )

    def __repr__(self) -> str:
        return f"<{self.sigma}; {self.mu}>"


# `PatternTerm.power_memo` before the power form has been computed.
NOT_COMPUTED = object()


@dataclass(frozen=True)
class PatternTerm:
    """The term family skeleton . sigma^n . mu.

    `power_memo` holds the value of `powers.power_form` once it has been
    computed (None when the term is not simple), so each term pays for its
    power form at most once; read it through `power_form`.  It takes no
    part in equality or hashing.
    """

    skeleton: Term
    subst: PatternSubstitution
    power_memo: object = field(default=NOT_COMPUTED, compare=False, repr=False)

    def at(self, n: int) -> Term:
        return apply(self.skeleton, self.subst.at(n))

    def vars(self) -> frozenset[Var]:
        return term_vars(self.skeleton) | self.subst.vars()

    def __repr__(self) -> str:
        return f"({render(self.skeleton)} {self.subst})"


def pterm(skeleton: Term, sigma: Subst = Subst(), mu: Subst = Subst()) -> PatternTerm:
    return PatternTerm(skeleton, PatternSubstitution(sigma, mu))


def lift(t: Term) -> PatternTerm:
    """A constant family: the term itself at every index."""
    return pterm(t)


EPSILON_PATTERN = lift(EPSILON)


@dataclass(frozen=True)
class PatternRule:
    """A pair of pattern terms; instance n is the binary rule (lhs(n), rhs(n))."""

    lhs: PatternTerm
    rhs: PatternTerm

    def at(self, n: int) -> BinaryRule:
        return BinaryRule(self.lhs.at(n), self.rhs.at(n))

    def vars(self) -> frozenset[Var]:
        return self.lhs.vars() | self.rhs.vars()

    def rhs_is_epsilon(self) -> bool:
        return is_epsilon(self.rhs.skeleton)

    def __repr__(self) -> str:
        return f"{self.lhs} => {self.rhs}"


def _context_of(t: Term) -> Optional[tuple[Term, tuple[Var, ...]]]:
    """Strip the distinct variables of t into holes, left to right.

    Returns (context, variable order) or None when some variable repeats;
    the result context is variable-free by construction.
    """
    seen: list[Var] = []

    def walk(u: Term) -> Optional[Term]:
        if isinstance(u, Var):
            if u in seen:
                return None
            seen.append(u)
            return hole(len(seen))
        new_args = []
        for a in u.args:
            w = walk(a)
            if w is None:
                return None
            new_args.append(w)
        return App(u.symbol, tuple(new_args))

    ctx = walk(t)
    if ctx is None:
        return None
    return ctx, tuple(seen)


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
      - (c(x1..xm), sigma, mu) => epsilon        (n unrollings then the base)
      - (head, sigma, empty)   => lifted body    (n unrollings, body left open)
    with sigma = {x_k -> c_k(x_k)} and mu = {x_k -> t_k}.  Only same-root
    pairs can share the outer context, so the scan is per predicate.
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
        # Each head argument must wrap its own variable in a ground context.
        if any(s != x and term_vars(s) != {x} for x, s in zip(xs, wrapped)):
            continue
        sigma = Subst({x: s for x, s in zip(xs, wrapped) if s != x})
        for base in facts:
            if not isinstance(base.head, App) or base.head.symbol != head.symbol:
                continue
            ts = _match_against_context(ctx, base.head, m)
            if ts is None:
                continue
            mu = Subst({x: t for x, t in zip(xs, ts) if t != x})
            for rule in (
                PatternRule(pterm(body, sigma, mu), EPSILON_PATTERN),
                PatternRule(pterm(head, sigma, Subst()), lift(body)),
            ):
                key = pattern_rule_key(rule)
                if key not in seen:
                    seen.add(key)
                    out.append(rule)
    return out


def pattern_rule_key(rule: PatternRule) -> tuple:
    """Renaming-invariant identity of the described rule family.

    Built on the canonical power form of both sides, so two syntactically
    different triples describing the same family collide, as intended.
    """
    from .powers import power_form

    u = power_form(rule.lhs)
    v = power_form(rule.rhs)
    if u is None or v is None:
        # Non-simple rules are never stored; fall back to raw structure.
        return canonical_key(
            (
                rule.lhs.skeleton,
                _subst_term(rule.lhs.subst.sigma),
                _subst_term(rule.lhs.subst.mu),
                rule.rhs.skeleton,
                _subst_term(rule.rhs.subst.sigma),
                _subst_term(rule.rhs.subst.mu),
            )
        )
    return canonical_key((u, v))


_BIND = Symbol("$bind", 2)


def _subst_term(s: Subst) -> Term:
    """Encode a substitution as a term so it can join a canonical key."""
    items = sorted(s.items(), key=lambda it: it[0].name)
    t: Term = EPSILON
    for v, u in reversed(items):
        t = App(_BIND, (App(_BIND, (v, u)), t))
    return t


def check_correct_sampled(
    rule: PatternRule,
    program: Program,
    n_max: int,
    depth: int,
    oracle: Optional[BinaryRuleSet] = None,
) -> bool:
    """Test utility: every instance up to n_max is a derivable binary rule.

    Membership is checked against the bounded binary-unfolding oracle,
    modulo renaming.
    """
    pool = oracle if oracle is not None else saturate(program, depth)
    return all(pool.contains_variant(rule.at(n)) for n in range(n_max + 1))
