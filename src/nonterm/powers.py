"""Context-power terms and their unification.

A power symbol ``c^(a,b)`` is a unary symbol standing for the whole family
of towers c^(a*n+b); a term over the program signature plus power symbols
therefore denotes one concrete term per index n.  Two such terms are
interchangeable when they expand identically at every index; `normalize`
picks a canonical representative of that class by fusing adjacent material:
stacked powers of the same context add their exponents, a concrete context
layer directly above or below a power of the same context is absorbed into
its offset, and powers with a = 0 are expanded away.

Rule families are stored as normalized power terms.  The paper writes a
family as skeleton . sigma^n . mu; `power_form` converts that notation when
sigma binds every moved variable as x -> c^a(x).  Unification of families
is syntactic unification of their power terms, each distinct power symbol
treated as opaque (`pattern_mgu`).  The representative choice is the
natural one, which is known to be incomplete: a unifiable pair may still
fail when the two sides factor the same tower through different power
symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .terms import (
    App,
    Subst,
    Term,
    Var,
    apply,
    context_power,
    decompose_power,
    hole,
    match_context,
    mgu,
    plug,
    render,
    strip_power,
    term_vars,
    _replace_subterm,
)

_HOLE = hole(1)


@dataclass(frozen=True)
class PowerSymbol:
    """Unary symbol for the tower family c^(a*n+b) over a ground 1-context.

    Symbols are opaque to unification: equal context, slope and offset, or
    nothing.  `power_form` always factors contexts down to their minimal
    period, which makes that equality as permissive as it can be without a
    search over alternative representatives.
    """

    context: Term
    a: int
    b: int

    @property
    def arity(self) -> int:
        return 1

    @property
    def name(self) -> str:
        return f"{render(self.context)}^({self.a}n+{self.b})"

    def __repr__(self) -> str:
        return self.name


def is_power(t: Term) -> bool:
    return isinstance(t, App) and isinstance(t.symbol, PowerSymbol)


def has_powers(t: Term) -> bool:
    stack = [t]
    while stack:
        n = stack.pop()
        if isinstance(n, App):
            if isinstance(n.symbol, PowerSymbol):
                return True
            stack.extend(n.args)
    return False


def concrete_power(c: Term, k: int, inner: Term) -> Term:
    return plug(context_power(c, k), [inner])


def expand_at(t: Term, n: int) -> Term:
    """Replace every power symbol c^(a,b) by the concrete tower c^(a*n+b)."""
    done: dict[int, Term] = {}
    stack = [t]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        if isinstance(node, Var):
            done[id(node)] = node
            stack.pop()
            continue
        pending = [a for a in node.args if id(a) not in done]
        if pending:
            stack.extend(pending)
            continue
        args = tuple(done[id(a)] for a in node.args)
        if isinstance(node.symbol, PowerSymbol):
            sym = node.symbol
            done[id(node)] = concrete_power(sym.context, sym.a * n + sym.b, args[0])
        elif all(x is y for x, y in zip(args, node.args)):
            done[id(node)] = node
        else:
            done[id(node)] = App(node.symbol, args)
        stack.pop()
    return done[id(t)]


def subst_at(theta: Subst, n: int) -> Subst:
    """Pointwise expansion of a substitution over power terms."""
    return Subst({v: expand_at(u, n) for v, u in theta.items()})


def _power_nodes(t: Term) -> list[App]:
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


def normalize(t: Term) -> Term:
    """Canonical form: fused exponents, maximal offsets, no a = 0 powers.

    Expansion at any index is preserved; normalizing twice is the same as
    normalizing once.
    """
    if isinstance(t, Var) or not has_powers(t):
        return t
    if isinstance(t.symbol, PowerSymbol):
        c = t.symbol.context
        a, b = t.symbol.a, t.symbol.b
        u = normalize(t.args[0])
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
            return concrete_power(c, b, u)
        return App(PowerSymbol(c, a, b), (u,))
    args = tuple(normalize(a) for a in t.args)
    out = t if all(x is y for x, y in zip(args, t.args)) else App(t.symbol, args)
    # A concrete copy of c directly above c^(a,b)(w) is absorbed: the whole
    # node must be exactly one c-layer whose every hole holds that power.
    for v in _power_nodes(out):
        skel = _replace_subterm(out, v, _HOLE)
        if skel == v.symbol.context:
            sym = v.symbol
            return App(PowerSymbol(sym.context, sym.a, sym.b + 1), (v.args[0],))
    return out


def is_simple(t: Term) -> bool:
    """True when no power symbol sits inside the argument of a power.

    Only such terms are stored as rule families: `detect` reads each power
    as one context tower over a plain term.
    """
    return all(not has_powers(v.args[0]) for v in _power_nodes(t))


def power_form(skeleton: Term, sigma: Subst, mu: Subst) -> Optional[Term]:
    """The canonical power term of the family skeleton . sigma^n . mu.

    The family must be simple: every variable sigma moves is driven by a
    ground 1-context, sigma(x) = c^a(x).  The mu binding then splits as
    c^b(t) with t not c-headed, and x maps to c^(a,b)(t); variables that
    sigma fixes keep their mu binding as is.  Returns None when some sigma
    binding does not have that shape.
    """
    theta: dict[Var, Term] = {}
    for x in sorted(term_vars(skeleton), key=lambda v: v.name):
        sx = sigma.lookup(x)
        mx = mu.lookup(x)
        if sx == x:
            theta[x] = mx
        else:
            split = decompose_power(sx, x)
            if split is None:
                return None
            c, a, _ = split
            assert c is not None and a >= 1
            b, rest = strip_power(mx, c)
            theta[x] = App(PowerSymbol(c, a, b), (rest,))
    return normalize(apply(skeleton, Subst(theta)))


def pattern_form(theta: Subst) -> Optional[Subst]:
    """`theta` with normalized bindings, if each one is a pattern binding.

    A pattern binding normalizes to a plain term or to a single power symbol
    over a plain term; it is what sigma^n . mu gives one variable.  Anything
    else -- stacked powers of different contexts, a power buried under an
    alien symbol -- yields None.
    """
    out: dict[Var, Term] = {}
    for v, u in theta.items():
        nu = normalize(u)
        plain = not has_powers(nu)
        one_power = is_power(nu) and not has_powers(nu.args[0])
        if not (plain or one_power):
            return None
        out[v] = nu
    return Subst(out)


def pattern_mgu(left: Sequence[Term], right: Sequence[Term]) -> Optional[Subst]:
    """Most general unifier of two sequences of power terms.

    Power symbols are treated as opaque unary symbols.  Fails (None) when
    the terms clash or some binding is not a pattern binding
    (`pattern_form`); failure does not entail non-unifiability.
    """
    if len(left) != len(right):
        return None
    theta = mgu(tuple(left), tuple(right))
    if theta is None:
        return None
    return pattern_form(theta)
