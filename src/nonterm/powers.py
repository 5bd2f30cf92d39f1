"""Context-power terms and their unification.

A power symbol ``c^(a,b)`` is a unary symbol standing for the whole family
of towers c^(a*n+b); a term over the program signature plus power symbols
therefore denotes one concrete term per index n.  Two such terms are
interchangeable when they expand identically at every index; the normal
form picks a canonical representative of that class by fusing adjacent
material: stacked powers of the same context add their exponents, and a
concrete context layer directly above or below a power of the same
context is absorbed into its offset.  That is one step per node
(`NormalBuilder`), which any bottom-up walk can take as it builds a term:
`normalize` is one `terms.rebuild` pass with it, the search reads each
derived family through its unifier with it (`terms.apply_triangular`),
and `power_form` builds each seed with it.  `expand_at` is one
`terms.rebuild` pass over the nodes that hold a power; power-free
subterms are kept as they are.  `tower` reads a term as one tower
c^(a*n+b)(u) of a given context c, and `positions` reads two terms, where
they part, as towers of one context each: it is the one walk that both
pump detection (`detect.match_pumping`) and the cover of one family by
another (`pattern.cover`: a variant, a shift in the index, an instance)
make over a pair of families.  A power symbol checks its contract when
built (`PowerSymbol`): its slope a >= 1, so no power stands for a
constant tower, and its offset b >= 0.  Its shape (`terms.App`) leaves
the offset out, so a family and its shifts share shapes.

Rule families are stored as power terms in normal form.  The paper writes
a family as skeleton . sigma^n . mu; a seed is built by applying to its
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
family it derives is kept only if it is simple (`is_simple`, which the
search reads off the walk that builds the family, `NormalBuilder.simple`).
"""

from __future__ import annotations

from typing import Callable, ClassVar, Mapping, Optional, Sequence

from .terms import (
    App,
    Subst,
    Symbol,
    Term,
    Var,
    VarSource,
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

    __slots__ = ("context", "a", "b", "_hash", "_shape")

    is_power: ClassVar[bool] = True
    arity: ClassVar[int] = 1

    def __init__(self, context: Term, a: int, b: int):
        if not (a >= 1 and b >= 0 and isinstance(context, App)) or context.ground or context.powered:
            raise ValueError(f"not a power symbol: context {context!r}, slope {a}, offset {b}")
        self.context, self.a, self.b = context, a, b
        # Every `App` built over the symbol hashes it, so the hash is kept.
        # The shape leaves the offset out: a family and its shifts share
        # shapes, and so a bucket (`unfold.PatternRuleSet`).
        self._hash = hash((context._hash, a, b))
        self._shape = hash((context._hash, a))

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


def tower(t: Term, c: Term) -> tuple[int, int, Term]:
    """t read as c^(a*n+b)(u), with u not c-headed: (a, b, u).

    A power of c gives its own slope, offset and argument; any other term
    gives its concrete c layers, with a = 0.
    """
    if is_power(t) and t.symbol.context == c:
        return t.symbol.a, t.symbol.b, t.args[0]
    b, u = strip_power(t, c)
    return 0, b, u


# A position where two power terms part, read as towers of one context:
# (c, a, b, t, ra, rb, u), the left side c^(a,b)(t), the right c^(ra,rb)(u).
Position = tuple[Optional[Term], int, int, Term, int, int, Term]


def positions(left: Term, right: Term) -> Optional[list[Position]]:
    """Every position, left to right, where two power terms part, each read
    as towers (`tower`) of the one context c of the powers there.

    Descends through identical plain symbols without recursing.  An
    identical pair is skipped only when it is ground and power-free: a
    ground power still moves with n, and a variable pins itself.  Without
    a power at a position, c is None and every exponent is zero; powers of
    two contexts at one position give None.  Terms are DAGs (plugging a
    context with a repeated hole shares subterms), so each pair of
    subterms is met once, as in `terms.App.__eq__`: a pair met again adds
    no position, and the walk is linear in the size of the two DAGs.
    """
    out: list[Position] = []
    seen: set[tuple[int, int]] = set()
    stack = [(left, right)]
    while stack:
        t, u = stack.pop()
        key = (id(t), id(u))
        if key in seen or (t.ground and not t.powered and t == u):
            continue
        seen.add(key)
        if isinstance(t, App) and isinstance(u, App) and t.symbol == u.symbol and not t.symbol.is_power:
            stack.extend(zip(reversed(t.args), reversed(u.args)))
            continue
        contexts = {s.symbol.context for s in (t, u) if is_power(s)}
        if len(contexts) > 1:
            return None
        if not contexts:
            out.append((None, 0, 0, t, 0, 0, u))
            continue
        (c,) = contexts
        out.append((c, *tower(t, c), *tower(u, c)))
    return out


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


class NormalBuilder:
    """The normal form's step at one node, for a walk that builds a term
    bottom-up (`terms.rebuild`, `terms.apply_triangular`).

    `node(u, args)` is u's symbol over args in normal form, when each of
    args is: a power fuses with its argument (`_fuse`), and a plain node
    that is exactly one concrete layer of the context of its top power is
    absorbed into that power.  A term's top power is the power node
    reached first from it through plain nodes; it is all that absorbing
    needs.  The builder keeps the top of every plain node it builds, by
    id, so the walk stays linear in a deep plain spine.  An argument it did
    not build (a walk keeps ground subterms and ground bindings as they
    are) gets its top by one descent, without recursing, along the first
    powered argument of each plain node, and every node on the way keeps
    it too.  A builder serves one walk: the ids it keeps are those of that
    walk's terms.

    `simple` stays True until the builder makes a power whose argument
    holds a power; so once the walk is done it is `is_simple` of what was
    built, when the arguments it did not build are simple.
    """

    __slots__ = ("_tops", "simple")

    def __init__(self) -> None:
        # A plain powered node met -> its top power.  A power is its own.
        self._tops: dict[int, App] = {}
        self.simple = True

    def _top(self, t: App) -> App:
        """The top power of a powered t."""
        tops = self._tops
        top = tops.get(id(t))
        if top is not None:
            return top
        path = []
        while not t.symbol.is_power:
            path.append(t)
            t = next(a for a in t.args if a.powered)
            top = tops.get(id(t))
            if top is not None:
                break
        else:
            top = t
        for p in path:
            tops[id(p)] = top
        return top

    def node(self, u: App, args: tuple[Term, ...]) -> Term:
        sym = u.symbol
        if sym.is_power:
            out = _fuse(sym, args[0])
            if out.args[0].powered:
                self.simple = False
            return out
        out = App(sym, args)
        if not out.powered:
            return out
        # The top of the first powered argument; an argument that holds no
        # power has none.
        for a in args:
            if a.powered:
                top = self._top(a)
                break
        # A concrete copy of c directly above c^(a,b)(w) is absorbed: the
        # whole node must be exactly one c-layer whose every hole holds
        # that power.  Contexts hold no powers, so every power reachable
        # through plain nodes is then that one, and the top power stands
        # for all.
        if match_context(top.symbol.context, out) == top:
            top_sym = top.symbol
            return App(PowerSymbol(top_sym.context, top_sym.a, top_sym.b + 1), top.args)
        self._tops[id(out)] = top
        return out


def normalize(t: Term) -> Term:
    """Canonical form: fused exponents and maximal offsets.

    Expansion at any index is preserved; normalizing twice is the same as
    normalizing once, and every subterm of a normal term is normal.  One
    bottom-up pass (`terms.rebuild`) over the nodes that hold a power,
    each built by the normal form's step (`NormalBuilder`).  No prover
    code calls it: seeds and derived families are built in normal form by
    the walks that make them.  It serves `pattern_form`, and the tests
    check each of those walks against it.
    """
    return rebuild(t, _plain, NormalBuilder().node)


def is_simple(t: Term) -> bool:
    """True when no power symbol sits inside the argument of a power.

    Only such terms are stored as rule families: `detect` reads each power
    as one context tower over a plain term.
    """
    return all(not v.args[0].powered for v in _power_nodes(t))


def power_form(
    t: Term, fillers: Subst, moved: Mapping[Var, tuple[Term, int]], source: VarSource, names: dict[Var, Var]
) -> Term:
    """The canonical power term of a seed family: t under `fillers`, with
    every moved variable raised to a power, and every variable fresh.

    `moved` maps each variable the family's index drives to (c, a), the
    variable being driven by the ground 1-context c^a, with c of minimal
    period; the variable gets c^(a,0) over its filler, fused at once, so
    the filler's c layers go into the offset.  Any other variable gets its
    filler as is.  t and the fillers are power-free, so the one substitution
    walk (`terms.rebuild`) that builds the term in normal form
    (`NormalBuilder`) gives `normalize` of t under that substitution.  The
    walk names each variable of t or of a filler as it reaches it, by a
    fresh one of `source` that it records in `names`.
    """
    def name(u: Term) -> Optional[Term]:
        if type(u) is Var:
            return names.get(u) or names.setdefault(u, source.fresh())
        return u if u.ground else None

    def leaf(u: Term) -> Optional[Term]:
        if type(u) is not Var:
            return name(u)
        w, split = fillers.get(u, u), moved.get(u)
        if split is None:
            return rebuild(w, name)
        _, b, w = tower(w, split[0])  # c^(a,0) fused over the filler c^b(w)
        return App(PowerSymbol(*split, b), (rebuild(w, name),))

    return rebuild(t, leaf, NormalBuilder().node)


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
