"""Context-power terms and unification of simple pattern terms.

A power symbol ``c^(a,b)`` is a unary symbol standing for the whole family
of towers c^(a*n+b); a term over the program signature plus power symbols
therefore denotes one concrete term per index n.  Two such terms are
interchangeable when they expand identically at every index; `normalize`
picks a canonical representative of that class by fusing adjacent material:
stacked powers of the same context add their exponents, a concrete context
layer directly above or below a power of the same context is absorbed into
its offset, and powers with a = 0 are expanded away.

A pattern term whose sigma binds every skeleton variable as x -> c^a(x)
has an equivalent power form (`power_form`); a unifier found over power
terms maps back to a pattern substitution (`pattern_form`).  That round
trip is what makes pattern-term unification executable: unify the power
forms syntactically, treating each distinct power symbol as opaque, then
read the result back.  The representative choice is the natural one, which
is known to be incomplete: a unifiable pair may still fail when the two
sides factor the same tower through different power symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .pattern import NOT_COMPUTED, PatternSubstitution, PatternTerm
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


def _replace_all(t: Term, old: Term, new: Term) -> Term:
    from .terms import _replace_subterm

    return _replace_subterm(t, old, new)


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
        skel = _replace_all(out, v, _HOLE)
        if skel == v.symbol.context:
            sym = v.symbol
            return App(PowerSymbol(sym.context, sym.a, sym.b + 1), (v.args[0],))
    return out


def power_form(p: PatternTerm) -> Optional[Term]:
    """The canonical power term expanding to p(n) at every n, if p is simple.

    Simple means every skeleton variable is driven by a ground 1-context:
    sigma(x) = c^a(x).  The mu binding then splits as c^b(t) with t not
    c-headed, and x maps to c^(a,b)(t); variables that sigma fixes keep
    their mu binding as is.  Returns None when some sigma binding does not
    have that shape.  Computed once per pattern term and memoised on it.
    """
    if p.power_memo is NOT_COMPUTED:
        object.__setattr__(p, "power_memo", _compute_power_form(p))
    return p.power_memo


def _compute_power_form(p: PatternTerm) -> Optional[Term]:
    theta: dict[Var, Term] = {}
    for x in sorted(term_vars(p.skeleton), key=lambda v: v.name):
        sx = p.subst.sigma.lookup(x)
        mx = p.subst.mu.lookup(x)
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
    return normalize(apply(p.skeleton, Subst(theta)))


def pattern_form(theta: Subst) -> Optional[PatternSubstitution]:
    """Read a unifier over power terms back into a pattern substitution.

    Each binding must normalize to either a pure term (x is fixed by sigma)
    or a single power symbol over a pure term.  Anything else -- stacked
    powers of different contexts, a power buried under an alien symbol --
    is not expressible and yields None.
    """
    sigma: dict[Var, Term] = {}
    mu: dict[Var, Term] = {}
    for v, u in theta.items():
        nu = normalize(u)
        if not has_powers(nu):
            mu[v] = nu
        elif is_power(nu) and not has_powers(nu.args[0]):
            sym = nu.symbol
            sigma[v] = concrete_power(sym.context, sym.a, v)
            mu[v] = concrete_power(sym.context, sym.b, nu.args[0])
        else:
            return None
    return PatternSubstitution(Subst(sigma), Subst(mu))


def pattern_mgu(
    left: Sequence[PatternTerm], right: Sequence[PatternTerm]
) -> Optional[PatternSubstitution]:
    """Most general unifier of two sequences of simple pattern terms.

    Unifies the canonical power forms with power symbols treated as opaque
    unary symbols, then maps the unifier back.  Fails (None) when a side is
    not simple, the power forms clash, or the unifier is not expressible as
    a pattern substitution; failure does not entail non-unifiability.
    """
    if len(left) != len(right):
        return None
    lt: list[Term] = []
    rt: list[Term] = []
    for p in left:
        u = power_form(p)
        if u is None:
            return None
        lt.append(u)
    for q in right:
        u = power_form(q)
        if u is None:
            return None
        rt.append(u)
    theta = mgu(tuple(lt), tuple(rt))
    if theta is None:
        return None
    return pattern_form(theta)
