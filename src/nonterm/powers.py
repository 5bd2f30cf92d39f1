"""Context-power terms and their unification.

A power symbol ``c^(a,b)`` is a unary symbol standing for the whole family
of towers c^(a*n+b); a term over the program signature plus power symbols
therefore denotes one concrete term per index n.  Two such terms are
interchangeable when they expand identically at every index; `normalize`
picks a canonical representative of that class by fusing adjacent material:
stacked powers of the same context add their exponents, and a concrete
context layer directly above or below a power of the same context is
absorbed into its offset.  `normalize`,
`expand_at` and `shift` are each one `terms.rebuild` pass over the nodes
that hold a power; power-free subterms are kept as they are.  `tower`
reads a term as one tower c^(a*n+b)(u) of a given context c.  A power
symbol checks its contract when built (`PowerSymbol`): its slope a >= 1,
so no power stands for a constant tower, and its offset b >= 0.

Rule families are stored as normalized power terms.  The paper writes a
family as skeleton . sigma^n . mu; a seed is built by applying to its
skeleton a substitution that sends each variable sigma moves to one power
(`power_form`), and that notation is left to the tests.  Families are
unified by `terms.unify`, the one unifier of the prover, which the search
calls slot by slot: two powers of the same context and slope meet by
peeling the smaller offset off both.  Any other pair of distinct power
symbols clashes, which is known to be incomplete: a unifiable pair may
still fail when the two sides factor the same tower through powers of
different slopes, or through a power on one side and concrete layers on
the other.  A unifier
need not have the paper's shape: a binding may hold a power under a plain
symbol, or powers of two contexts.  Expansion at an index is a
homomorphism, so its instances are still the classical unifiers; the
family it derives is kept only if it is simple (`is_simple`).
"""

from __future__ import annotations

from typing import Callable, ClassVar, Iterable, Mapping, Optional, Sequence

from .terms import (
    App,
    Subst,
    Symbol,
    Term,
    Var,
    apply,
    concrete_power,
    match_context,
    rebuild,
    render,
    resolve,
    strip_power,
    unify,
)


class PowerSymbol:
    """Unary symbol for the tower family c^(a*n+b) over a 1-context c.

    A context is a term in the reserved variable #1 (`terms.HOLE`); c is
    ground apart from it, and holds no power symbol.  The constructor
    raises ValueError unless a >= 1, b >= 0 and c is a non-ground
    application with no power; it reads only O(1) flags, not every node.

    Unlike `terms.Symbol`, a power symbol is not interned: two built
    separately from equal contexts are distinct objects that compare equal
    and hash alike, by value.  To unification (`terms.unify`), two symbols
    of equal context and slope meet whatever their offsets; any other pair
    of distinct symbols clashes.  Seed contexts are factored down to their
    minimal period before `power_form` raises them
    (`terms.decompose_power`, through `terms.primitive_context`), which
    makes that test as permissive as it can be without a search over
    alternative representatives.
    """

    __slots__ = ("context", "a", "b", "_hash")

    is_power: ClassVar[bool] = True
    arity: ClassVar[int] = 1

    def __init__(self, context: Term, a: int, b: int):
        if not (a >= 1 and b >= 0 and isinstance(context, App)) or context.ground or context.powered:
            raise ValueError(f"not a power symbol: context {context!r}, slope {a}, offset {b}")
        self.context, self.a, self.b = context, a, b
        # Every `App` built over the symbol hashes it, so the hash is kept.
        self._hash = hash((context._hash, a, b))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not PowerSymbol:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.context == other.context

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return PowerSymbol, (self.context, self.a, self.b)

    @property
    def name(self) -> str:
        return f"{render(self.context)}^({self.a}n+{self.b})"

    def __repr__(self) -> str:
        return self.name


def is_power(t: Term) -> bool:
    return isinstance(t, App) and isinstance(t.symbol, PowerSymbol)


def _plain(u: Term) -> Optional[Term]:
    """`terms.rebuild` leaf for the power walks: power-free u is kept."""
    return None if u.powered else u


def _map_powers(t: Term, on_power: Callable[[PowerSymbol, Term], Term]) -> Term:
    """t with every power node c^(a,b)(u) replaced by on_power(c^(a,b), u'),
    u' being u so rebuilt; power-free subtrees are shared, not copied."""
    return rebuild(
        t,
        _plain,
        lambda u, args: on_power(u.symbol, args[0]) if u.symbol.is_power else App(u.symbol, args),
    )


def expand_at(t: Term, n: int) -> Term:
    """Replace every power symbol c^(a,b) by the concrete tower c^(a*n+b)."""
    return _map_powers(t, lambda sym, u: concrete_power(sym.context, sym.a * n + sym.b, u))


def shift(t: Term, d: int) -> Term:
    """t with every power c^(a,b) raised to c^(a,b+a*d): its expansion at n
    is t's at n + d.  A negative d must leave every offset non-negative."""
    return _map_powers(t, lambda sym, u: App(PowerSymbol(sym.context, sym.a, sym.b + sym.a * d), (u,)))


def least_shift(terms: Iterable[Term]) -> int:
    """The largest d such that lowering every offset by a*d keeps it
    non-negative: min of b // a over the power nodes, 0 without any."""
    d: Optional[int] = None
    for t in terms:
        for v in _power_nodes(t):
            k = v.symbol.b // v.symbol.a
            if k == 0:
                return 0
            if d is None or k < d:
                d = k
    return d or 0


def tower(t: Term, c: Term) -> tuple[int, int, Term]:
    """t read as c^(a*n+b)(u), with u not c-headed: (a, b, u).

    A power of c gives its own slope, offset and argument; any other term
    gives its concrete c layers, with a = 0.
    """
    if is_power(t) and t.symbol.context == c:
        return t.symbol.a, t.symbol.b, t.args[0]
    b, u = strip_power(t, c)
    return 0, b, u


def instance_root(t: Term) -> Optional[Symbol]:
    """The root symbol that every instance of t has, or None.

    A plain root is its own; a power c^(a,b) with b >= 1 has the root of
    c at every index.  A variable, or a power c^(a,0), whose instance at
    index 0 is its argument, has none.
    """
    if isinstance(t, Var):
        return None
    if not t.symbol.is_power:
        return t.symbol
    return t.symbol.context.symbol if t.symbol.b >= 1 else None


def _power_nodes(t: Term) -> list[App]:
    """Every power node of t; power-free subtrees are not entered."""
    out: list[App] = []
    seen: set[int] = set()
    stack = [t]
    while stack:
        n = stack.pop()
        if n.powered and id(n) not in seen:
            seen.add(id(n))
            if n.symbol.is_power:
                out.append(n)
            stack.extend(n.args)
    return out


def _fuse(sym: PowerSymbol, u: Term) -> App:
    """c^(a,b) over a normalized u, whose `tower` of c adds to the exponents.
    One read is exact, as normal u stacks no c layer or power of c on a
    power of c."""
    c = sym.context
    a, b, u = tower(u, c)
    return App(PowerSymbol(c, a + sym.a, b + sym.b), (u,))


def normalize(t: Term) -> Term:
    """Canonical form: fused exponents and maximal offsets.

    Expansion at any index is preserved; normalizing twice is the same as
    normalizing once.  One bottom-up pass (`terms.rebuild`) over the nodes
    that hold a power.  Each result's top power, a power node reachable
    from it through plain nodes, is kept by the result's id; it is all
    that absorbing a concrete layer above a power needs, and reading it
    off the arguments keeps the pass linear in a deep plain spine.
    """
    tops: dict[int, App] = {}

    def node(u: App, args: tuple[Term, ...]) -> Term:
        if u.symbol.is_power:
            out = top = _fuse(u.symbol, args[0])
        else:
            out = App(u.symbol, args)
            # An argument has no top when it is power-free.
            top = next((tops[id(a)] for a in args if id(a) in tops), None)
            # A concrete copy of c directly above c^(a,b)(w) is absorbed: the
            # whole node must be exactly one c-layer whose every hole holds
            # that power.  Contexts hold no powers, so every power reachable
            # through plain nodes is then that one, and the top power stands
            # for all.
            if top is not None and match_context(top.symbol.context, out) == top:
                sym = top.symbol
                out = top = App(PowerSymbol(sym.context, sym.a, sym.b + 1), (top.args[0],))
        if top is not None:
            tops[id(out)] = top
        return out

    return rebuild(t, _plain, node)


def is_simple(t: Term) -> bool:
    """True when no power symbol sits inside the argument of a power.

    Only such terms are stored as rule families: `detect` reads each power
    as one context tower over a plain term.
    """
    return all(not v.args[0].powered for v in _power_nodes(t))


def power_form(t: Term, fillers: Subst, moved: Mapping[Var, tuple[Term, int]]) -> Term:
    """The canonical power term of a seed family: t under `fillers`, with
    every moved variable raised to a power.

    `moved` maps each variable the family's index drives to (c, a), the
    variable being driven by the ground 1-context c^a, with c of minimal
    period; the variable gets c^(a,0) over its filler, and `normalize`
    strips the filler's c layers into the offset.  Any other variable gets
    its filler as is.
    """
    raised = {x: App(PowerSymbol(c, a, 0), (fillers.get(x, x),)) for x, (c, a) in moved.items()}
    return normalize(apply(t, {**fillers, **raised}))


def pattern_form(theta: Subst) -> Optional[Subst]:
    """`theta` with normalized bindings, if each one is a pattern binding.

    A pattern binding normalizes to a plain term or to a single power symbol
    over a plain term; it is what sigma^n . mu gives one variable.  Anything
    else -- stacked powers of different contexts, a power buried under an
    alien symbol -- yields None.

    No prover code calls it: `unfold` keeps a derived family when it is
    simple, whatever shape the unifier has.  It is kept for the tests,
    which read a unifier back as (sigma, mu) through it, and for
    `bench/layers.py`, which traces it.
    """
    out: dict[Var, Term] = {}
    for v, u in theta.items():
        nu = normalize(u)
        plain = not nu.powered
        one_power = is_power(nu) and not nu.args[0].powered
        if not (plain or one_power):
            return None
        out[v] = nu
    return out


def pattern_mgu(
    left: Sequence[Term],
    right: Sequence[Term],
    bindings: Optional[Mapping[Var, Term]] = None,
) -> Optional[Subst]:
    """Most general unifier of two sequences of power terms (`terms.unify`).

    With `bindings`, a triangular binding map of equations already solved,
    the unifier extends it.  Fails (None) when the sequences differ in
    length or the terms clash; failure does not entail non-unifiability.
    Bindings are resolved but not normalized, and may have any shape.

    No prover code calls it: the search calls `terms.unify` and reads the
    derived rule off the triangular map (`unfold._derive`).  It is kept for
    the tests, whose reference search unifies a whole selection at once,
    and `unfold` still binds it for `bench/layers.py`, which traces it.
    """
    if len(left) != len(right):
        return None
    solved = unify(bindings or {}, zip(left, right))
    return None if solved is None else resolve(solved)
