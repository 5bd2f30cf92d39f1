"""Shared fixtures: term parsing shorthand, program sources, random generators,
a reference evaluator for the paper's family notation, and reference
versions of the unifier and of normalization."""

from __future__ import annotations

import random
from collections import deque
from pathlib import Path

import pytest

from typing import NamedTuple, Optional

from nonterm.binrules import BinaryRuleSet, saturate
from nonterm.pattern import PatternRule
from nonterm.powers import PowerSymbol, concrete_power, is_power, power_form
from nonterm.program import Program, _Parser, parse_program
from nonterm.terms import (
    App,
    Subst,
    Symbol,
    Term,
    Var,
    apply,
    _replace_subterm,
    _subst_dict,
    compose,
    context_power,
    hole,
    match_context,
    plug,
)

PROGRAMS_DIR = Path(__file__).resolve().parent.parent / "programs"

WHILE_GT_ADD = (PROGRAMS_DIR / "while-gt-add.pl").read_text()
ISLIST_GROW = (PROGRAMS_DIR / "islist-grow.pl").read_text()


def term(src: str) -> Term:
    """Parse a single term; arities are checked within this call only."""
    p = _Parser(src)
    t = p.term()
    assert p._peek() is None, f"trailing input in {src!r}"
    return t


def subst(**bindings: str) -> Subst:
    """Substitution from keyword bindings, e.g. subst(X="s(X)", Y="0")."""
    return Subst({Var(v): term(t) for v, t in bindings.items()})


# --- the paper's notation, evaluated directly --------------------------------


def family_subst_at(sigma: Subst, mu: Subst, n: int) -> Subst:
    """The substitution sigma^n . mu, by n compositions."""
    acc = mu
    for _ in range(n):
        acc = compose(sigma, acc)
    return acc


class Family(NamedTuple):
    """The term family skeleton . sigma^n . mu, as the paper writes it.

    The prover stores only power terms; tests build families in this
    notation, convert them with `power_form`, and compare the prover's
    expansions against `at`, which evaluates the notation directly.
    """

    skeleton: Term
    sigma: Subst = Subst()
    mu: Subst = Subst()

    def at(self, n: int) -> Term:
        return apply(self.skeleton, family_subst_at(self.sigma, self.mu, n))

    def power(self) -> Term:
        u = power_form(self.skeleton, self.sigma, self.mu)
        assert u is not None, f"not simple: {self}"
        return u


def fam(skeleton: str, sigma: Subst = Subst(), mu: Subst = Subst()) -> Term:
    """Power term of a family written in the paper's notation."""
    return Family(term(skeleton), sigma, mu).power()


def pattern_substitution(theta: Subst) -> tuple[Subst, Subst]:
    """Read a unifier returned by `pattern_mgu` as (sigma, mu).

    A binding c^(a,b)(t) becomes sigma: x -> c^a(x), mu: x -> c^b(t); a
    plain binding goes to mu alone.
    """
    sigma: dict[Var, Term] = {}
    mu: dict[Var, Term] = {}
    for v, u in theta.items():
        if u.powered:
            assert is_power(u) and not u.args[0].powered, f"{v} -> {u}"
            sym = u.symbol
            sigma[v] = concrete_power(sym.context, sym.a, v)
            mu[v] = concrete_power(sym.context, sym.b, u.args[0])
        else:
            mu[v] = u
    return Subst(sigma), Subst(mu)


def check_correct_sampled(
    rule: PatternRule,
    program: Program,
    n_max: int,
    depth: int,
    oracle: Optional[BinaryRuleSet] = None,
) -> bool:
    """Every instance up to n_max is a derivable binary rule.

    Membership is checked against the bounded binary-unfolding oracle,
    modulo renaming.
    """
    pool = oracle if oracle is not None else saturate(program, depth)
    return all(pool.contains_variant(rule.at(n)) for n in range(n_max + 1))


# --- reference unifier and normalization ----------------------------------
#
# The prover's versions walk triangular bindings and make one bottom-up
# pass; these are the direct formulations they replaced, kept as oracles.


def _reference_occurs(v: Var, t: Term) -> bool:
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            if u == v:
                return True
        elif not u.ground:
            stack.extend(u.args)
    return False


def reference_mgu(left, right) -> Optional[Subst]:
    """Martelli-Montanari with an eager solved form: every new binding is
    substituted into every earlier one, and each equation is fully
    substituted before it is looked at."""
    if isinstance(left, tuple) != isinstance(right, tuple):
        left, right = (
            left if isinstance(left, tuple) else (left,),
            right if isinstance(right, tuple) else (right,),
        )
    if isinstance(left, tuple):
        if len(left) != len(right):
            return None
        eqs = deque(zip(left, right))
    else:
        eqs = deque([(left, right)])
    sol: dict[Var, Term] = {}

    def bind(v: Var, t: Term) -> bool:
        if _reference_occurs(v, t):
            return False
        for w, u in sol.items():
            sol[w] = _subst_dict(u, {v: t})
        sol[v] = t
        return True

    while eqs:
        a, b = eqs.popleft()
        a = _subst_dict(a, sol)
        b = _subst_dict(b, sol)
        if a is b or a == b:
            continue
        if isinstance(a, Var):
            if not bind(a, b):
                return None
        elif isinstance(b, Var):
            if not bind(b, a):
                return None
        elif a.symbol == b.symbol:
            eqs.extend(zip(a.args, b.args))
        else:
            return None
    return Subst(sol)


def reference_canonical_key(parts: tuple[Term, ...]) -> tuple:
    """The variant key in two walks: number the variables over every path
    of the terms, left to right, then encode each node once."""
    order: dict[Var, int] = {}
    for part in parts:
        stack = [part]
        while stack:
            n = stack.pop()
            if isinstance(n, Var):
                order.setdefault(n, len(order))
            elif not n.ground:
                stack.extend(reversed(n.args))
    memo: dict[int, object] = {}

    def encode(t: Term) -> object:
        if id(t) not in memo:
            if isinstance(t, Var):
                memo[id(t)] = ("$", order[t])
            elif t.ground:
                memo[id(t)] = t
            else:
                memo[id(t)] = (t.symbol, *[encode(a) for a in t.args])
        return memo[id(t)]

    return tuple(encode(part) for part in parts)


def _reference_has_powers(t: Term) -> bool:
    stack = [t]
    while stack:
        n = stack.pop()
        if isinstance(n, App):
            if isinstance(n.symbol, PowerSymbol):
                return True
            stack.extend(n.args)
    return False


def _reference_power_nodes(t: Term) -> list[App]:
    out: list[App] = []
    seen: set[int] = set()
    stack = [t]
    while stack:
        n = stack.pop()
        if isinstance(n, App) and id(n) not in seen:
            seen.add(id(n))
            if isinstance(n.symbol, PowerSymbol):
                out.append(n)
            stack.extend(n.args)
    return out


def reference_normalize(t: Term) -> Term:
    """Normalization by recursion, with a full power scan at every level:
    fuse stacked powers and concrete layers below a power into it, expand
    a = 0 powers, and absorb one concrete layer above a power when the
    whole node is that layer over the power."""
    if isinstance(t, Var) or not _reference_has_powers(t):
        return t
    if isinstance(t.symbol, PowerSymbol):
        c = t.symbol.context
        a, b = t.symbol.a, t.symbol.b
        u = reference_normalize(t.args[0])
        while True:
            if is_power(u) and u.symbol.context == c:
                a += u.symbol.a
                b += u.symbol.b
                u = u.args[0]
                continue
            w = match_context(c, u)
            if w is not None:
                b += 1
                u = w
                continue
            break
        if a == 0:
            return plug(context_power(c, b), [u])
        return App(PowerSymbol(c, a, b), (u,))
    args = tuple(reference_normalize(a) for a in t.args)
    out = t if all(x is y for x, y in zip(args, t.args)) else App(t.symbol, args)
    for v in _reference_power_nodes(out):
        if _replace_subterm(out, v, hole(1)) == v.symbol.context:
            sym = v.symbol
            return App(PowerSymbol(sym.context, sym.a, sym.b + 1), (v.args[0],))
    return out


@pytest.fixture
def ex_program():
    return parse_program(WHILE_GT_ADD, "while-gt-add")


@pytest.fixture
def islist_program():
    return parse_program(ISLIST_GROW, "islist-grow")


@pytest.fixture
def rng():
    return random.Random(20240817)


# --- random generators for property tests ---------------------------------

S = Symbol("s", 1)
F = Symbol("f", 2)
G = Symbol("g", 1)
ZERO = App(Symbol("0", 0), ())
NIL = App(Symbol("nil", 0), ())
VARS = [Var(n) for n in ("X", "Y", "Z", "W")]


def random_term(rng: random.Random, max_depth: int = 3, vars=VARS) -> Term:
    if max_depth == 0 or rng.random() < 0.3:
        return rng.choice([*vars, ZERO, NIL])
    sym = rng.choice([S, F, G])
    return App(sym, tuple(random_term(rng, max_depth - 1, vars) for _ in range(sym.arity)))


def random_ground_term(rng: random.Random, max_depth: int = 3) -> Term:
    if max_depth == 0 or rng.random() < 0.35:
        return rng.choice([ZERO, NIL])
    sym = rng.choice([S, G, F])
    return App(sym, tuple(random_ground_term(rng, max_depth - 1) for _ in range(sym.arity)))


def random_subst(rng: random.Random, max_bindings: int = 3) -> Subst:
    out = {}
    for v in rng.sample(VARS, rng.randint(0, max_bindings)):
        out[v] = random_term(rng)
    return Subst(out)


def random_context(rng: random.Random, max_depth: int = 3) -> Term:
    """A ground 1-context: at least one #1 occurrence, no variables."""
    layer = rng.choice(["s", "g", "f-left", "f-right", "f-both"])
    inner = hole(1) if max_depth <= 1 or rng.random() < 0.5 else random_context(rng, max_depth - 1)
    if layer == "s":
        return App(S, (inner,))
    if layer == "g":
        return App(G, (inner,))
    if layer == "f-left":
        return App(F, (inner, random_ground_term(rng, 1)))
    if layer == "f-right":
        return App(F, (random_ground_term(rng, 1), inner))
    return App(F, (inner, inner))


def random_simple_pattern(
    rng: random.Random, skeleton_vars=None, max_exp: int = 3
) -> Family:
    """A family that is simple by construction.

    Each skeleton variable is either fixed (mu may send it anywhere) or
    driven by a random ground 1-context with exponents up to max_exp.
    """
    if skeleton_vars is None:
        skeleton_vars = rng.sample(VARS, rng.randint(1, 3))
    skel = random_term(rng, 3, skeleton_vars)
    while not any(v in skeleton_vars for v in _vars_of(skel)):
        skel = random_term(rng, 3, skeleton_vars)
    sigma = {}
    mu = {}
    for v in _vars_of(skel):
        if rng.random() < 0.3:
            if rng.random() < 0.5:
                mu[v] = random_term(rng, 2)
        else:
            c = random_context(rng, rng.randint(1, 3))
            a = rng.randint(1, max_exp)
            b = rng.randint(0, max_exp)
            sigma[v] = plug(context_power(c, a), [v])
            mu[v] = plug(context_power(c, b), [random_term(rng, 1)])
    return Family(skel, Subst(sigma), Subst(mu))


def random_simple_subst(rng: random.Random) -> Subst:
    """A substitution over power terms whose bindings all stay simple.

    Bindings are decorated with equivalent layering (concrete context
    copies above/below the power node) to exercise normalization.
    """
    from nonterm.powers import PowerSymbol

    out = {}
    for name in ("X", "Y", "Z"):
        roll = rng.random()
        if roll < 0.25:
            continue
        if roll < 0.5:
            out[Var(name)] = random_term(rng, 2)
            continue
        c = random_context(rng, 2)
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        t: Term = random_term(rng, 1)
        if rng.random() < 0.5 and b > 0:
            t = plug(context_power(c, 1), [t])
            b -= 1
        body: Term = App(PowerSymbol(c, a, b), (t,))
        if rng.random() < 0.5:
            body = plug(context_power(c, rng.randint(0, 2)), [body])
        out[Var(name)] = body
    return Subst(out)


def _vars_of(t: Term):
    from nonterm.terms import term_vars

    return sorted(term_vars(t), key=lambda v: v.name)
