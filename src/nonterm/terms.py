"""First-order terms, substitutions, unification and contexts.

The term language is small: variables and symbol applications.  Terms are
immutable and hashable.  A variable is one object per name and a plain
symbol one object per name and arity, kept in class-wide tables for the
life of the process, so both compare and hash by identity.  An application
compares structurally: by a hash computed once at construction, then
argument by argument.  Every term carries two hashes.  The structural one
(`_hash`, what `hash` returns) reads each variable's name, so terms that
differ only in their variables hash apart in term-keyed dicts.  The shape
(`_shape`) reads every variable as one constant and every power symbol
without its offset, so two variants (terms equal up to renaming) always
have equal shapes, and so do a term and its shifts in the index; it
buckets the stored rule families (`unfold.PatternRuleSet`).  Terms pickle
by value: loading rebuilds each one through its constructor, which
interns names afresh and recomputes hashes in the loading process.  Derivations produce very deep
terms (number towers like ``s(s(...s(0)))``), so the hot operations --
equality, substitution application, unification, variable collection --
are iterative and short-circuit on ground subterms instead of recursing
node by node.  Every
walk that builds a new term (substitution, replacing a subterm, and the
power walks of `powers`) is one `rebuild`, a bottom-up pass that visits
each node of the DAG once and keeps it shared, but one: a triangular
unifier is read by its own walk of that kind, `apply_triangular`, which
follows bindings as it meets them and may rename the unbound variables
apart as it goes.  Either walk may be given the step that builds each
node from its rebuilt arguments (`node`); `powers.normalize`, the seed
builder `powers.power_form` and the search pass the normal form's
(`powers.NormalBuilder`), so a family leaves the walk that makes it
already normalized.  A substitution (`Subst`) is a plain
dict from variables to terms, and `apply` is its one walk; plugging a
context goes through it.
`resolve`, the substitution a triangular unifier stands for, is
`apply_triangular` over its bound variables.
`canonical_key` keys a tuple of terms up to renaming: two tuples are
variants exactly when their keys are equal.  The binary-unfolding oracle
(`binrules`) and the tests key with it; the search does not.

A context is an ordinary term in the reserved variable #1 (`HOLE`):
plugging is substitution for it, and reading a layer is matching.  A
symbol may also be a power symbol (`powers.PowerSymbol`), a tower of a
context, ground apart from its hole, whose height grows with an index.
One unifier serves both kinds of term: `unify` treats a power symbol like
any other symbol, except that two powers of one context and slope meet by
peeling the smaller offset off both.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, ClassVar, Iterable, Mapping, Optional, Sequence


class Symbol:
    """A function symbol: one object per (name, arity) pair.

    The constructor returns the entry of a class-wide table, so equality
    and hashing are those of the object itself, with no Python-level call.
    The table holds every symbol for the life of the process; its size is
    bounded by the names programs use.
    """

    __slots__ = ("name", "arity", "_hash", "_shape")
    _table: ClassVar[dict[tuple[str, int], "Symbol"]] = {}

    # Power symbols (`powers.PowerSymbol`) set this; see `App.powered`.
    is_power: ClassVar[bool] = False

    def __new__(cls, name: str, arity: int) -> "Symbol":
        key = (name, arity)
        sym = cls._table.get(key)
        if sym is None:
            sym = object.__new__(cls)
            # Every `App` built over the symbol hashes it, so the hash is
            # kept; a plain symbol's shape is its hash.
            sym.name, sym.arity, sym._hash = name, arity, hash(key)
            sym._shape = sym._hash
            # setdefault keeps one winner if two threads build the same name.
            sym = cls._table.setdefault(key, sym)
        return sym

    def __reduce__(self):
        # Rebuilt through the table, so a loaded symbol is the local one.
        return Symbol, (self.name, self.arity)

    def __repr__(self) -> str:
        return f"Symbol({self.name!r}, {self.arity})"


class Var:
    """A variable: one object per name, kept in a class-wide table.

    Equality and hashing are the object's own.  `_hash` is a hash of the
    name, which `App`'s structural hash reads.  `_shape` is one constant
    shared by every variable, which `App`'s shape reads, so renaming
    variables never changes a shape.  The table holds every variable for
    the life of the process; fresh names (`VarSource`), which no program
    can spell, come from one numbered sequence that every search reuses.
    """

    __slots__ = ("name", "_hash")
    _table: ClassVar[dict[str, "Var"]] = {}
    _shape: ClassVar[int] = 0x5EED
    ground = False
    powered = False

    def __new__(cls, name: str) -> "Var":
        v = cls._table.get(name)
        if v is None:
            v = object.__new__(cls)
            v.name, v._hash = name, hash(("var", name))
            v = cls._table.setdefault(name, v)
        return v

    def __reduce__(self):
        return Var, (self.name,)

    def __repr__(self) -> str:
        return self.name


class App:
    """Application of a symbol to argument terms.

    The two hashes and the groundness and power flags are computed once at
    construction from the (already cached) values of the children, so all
    four are O(arity) to build and O(1) to use, no matter how deep the term
    is.  `_hash`, the structural hash, reads the children's `_hash` and
    serves `hash` and `==`; `_shape` reads their `_shape`, and the
    symbol's, so it is the same for every variant of the term.  A power
    symbol's shape leaves out its offset (`powers.PowerSymbol`), so a term
    shifted in its index keeps its shape too; a ground power-free term's
    shape is its structural hash.  `powered` is true when a power symbol
    occurs in the term.
    """

    __slots__ = ("symbol", "args", "ground", "powered", "_hash", "_shape")

    def __init__(self, symbol, args: Sequence["Term"] = ()):
        if type(args) is not tuple:
            args = tuple(args)
        if len(args) != symbol.arity:
            raise ValueError(
                f"symbol {symbol.name}/{symbol.arity} applied to {len(args)} arguments"
            )
        self.symbol = symbol
        self.args = args
        ground, powered, h = True, symbol.is_power, symbol._hash
        shape = symbol._shape
        for a in args:
            ground = ground and a.ground
            powered = powered or a.powered
            h = hash((h, a._hash))
            # A ground power-free term's shape is its hash, so a ground
            # power-free prefix of the arguments needs no second hash.
            shape = h if ground and not powered else hash((shape, a._shape))
        self.ground, self.powered, self._hash, self._shape = ground, powered, h, shape

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, App) or self._hash != other._hash:
            return False
        # Plugging a context with a repeated hole shares subterms, so terms
        # are DAGs; memoizing compared pairs keeps equality proportional to
        # DAG size.  Symbols and variables are one object per name, so two
        # that are not the same object differ.
        seen: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is Var or type(b) is Var:
                return False
            key = (id(a), id(b))
            if key in seen:
                continue
            seen.add(key)
            if a._hash != b._hash or a.symbol != b.symbol:
                return False
            stack.extend(zip(a.args, b.args))
        return True

    def __reduce__(self):
        # Pickled by value: the loaded term is rebuilt, so its symbols are
        # interned and its hash is computed afresh in the loading process.
        return App, (self.symbol, self.args)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return render(self)


Term = Var | App
Query = tuple[Term, ...]

# Reserved marker for the empty right-hand side of a binary or pattern rule.
# The name is not lexable by the parser, so it can never clash with a program
# symbol and never receives an identity rule.
EPSILON_SYMBOL = Symbol("ε", 0)
EPSILON = App(EPSILON_SYMBOL, ())


def is_epsilon(t: Term) -> bool:
    return isinstance(t, App) and t.symbol == EPSILON_SYMBOL


def term_vars(t: Term | Query) -> frozenset[Var]:
    """All variables of a term or term sequence (ground subtrees skipped)."""
    out: set[Var] = set()
    seen: set[int] = set()
    stack = list(t) if isinstance(t, tuple) else [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            out.add(u)
        elif not u.ground and id(u) not in seen:
            seen.add(id(u))
            stack.extend(u.args)
    return frozenset(out)


def canonical_key(parts: tuple[Term, ...]) -> tuple:
    """A renaming-invariant key, flat so that hashing and comparing it take
    time linear in the number of distinct subterms.

    The key is (roots, entries).  Each distinct non-ground subterm has one
    entry (symbol, *child refs), numbered in left-to-right post-order of
    first occurrence; a ref is that number, -1-i for the i-th variable
    numbered (a node numbers its variable arguments once its other
    arguments are encoded), or a ground subterm itself.  Subterms are told
    apart by term equality: within one key, two subterms are equal exactly
    when they have the same symbol and refs, so two term tuples have equal
    keys exactly when they are variants, whether or not the terms share
    their subterms.  Plugging a context with a repeated hole shares
    subterms, so terms are DAGs; a node met again is already numbered, and
    the walk is linear in the DAG's size.
    """
    order: dict[Var, int] = {}
    numbers: dict[Term, int] = {}
    entries: list[tuple] = []
    roots: list[object] = []

    def ref(a: Term) -> object:
        if a.ground:
            return a
        return -1 - order.setdefault(a, len(order)) if isinstance(a, Var) else numbers[a]

    for part in parts:
        # (node, False) visits, (node, True) numbers it from its arguments.
        stack: list[tuple[Term, bool]] = [(part, False)]
        while stack:
            n, ready = stack.pop()
            if ready:
                numbers[n] = len(entries)
                entries.append((n.symbol, *[ref(a) for a in n.args]))
            elif not (n.ground or isinstance(n, Var) or n in numbers):
                stack.append((n, True))
                stack.extend(
                    [(a, False) for a in reversed(n.args) if not a.ground and isinstance(a, App)]
                )
        roots.append(ref(part))
    return tuple(roots), tuple(entries)


# A substitution is a plain dict from variables to terms.  The ones this
# module builds (`resolve`, `match`, `mgu`, `fresh_renaming`, `compose`)
# bind no variable to itself, so their keys are exactly the moved variables.
Subst = dict[Var, Term]


def rebuild(
    t: Term,
    leaf: Callable[[Term], Optional[Term]],
    node: Optional[Callable[[App, tuple[Term, ...]], Term]] = None,
) -> Term:
    """t rebuilt bottom-up, iteratively and with sharing.

    `leaf(u)` returns u's replacement, or None to descend into u: u's
    arguments are rebuilt first, then u becomes `node(u, args)`, or, when
    no `node` is given, u itself if every argument came back as the same
    object and `App(u.symbol, args)` otherwise.  Results are kept by node,
    so each node of the DAG is rebuilt once (`leaf` may still be asked
    about it twice) and a subterm shared in t stays shared in the result.
    """
    out = leaf(t)
    if out is not None:
        return out
    done: dict[int, Term] = {}
    stack = [t]
    while stack:
        u = stack[-1]
        if id(u) in done:
            stack.pop()
            continue
        pending = False
        for a in u.args:
            if id(a) not in done:
                r = leaf(a)
                if r is None:
                    stack.append(a)
                    pending = True
                else:
                    done[id(a)] = r
        if pending:
            continue
        stack.pop()
        args = tuple([done[id(a)] for a in u.args])
        if node is not None:
            done[id(u)] = node(u, args)
        elif all(x is y for x, y in zip(args, u.args)):
            done[id(u)] = u
        else:
            done[id(u)] = App(u.symbol, args)
    return done[id(t)]


def apply(t, s: Subst):
    """t under the substitution s; t is a term or a tuple of terms.

    The one substitution walk: a variable s binds becomes its binding, and
    every other variable and every ground subterm is kept.  Each term is one
    `rebuild`, so a subterm shared in t is visited once and stays shared.
    """
    if isinstance(t, tuple):
        return tuple([apply(u, s) for u in t])
    if not s:
        return t
    return rebuild(t, lambda u: u if u.ground else s.get(u, u) if isinstance(u, Var) else None)


def compose(first: Subst, second: Subst) -> Subst:
    """The substitution applying ``first`` and then ``second``."""
    out = {v: apply(t, second) for v, t in first.items()}
    out.update((v, t) for v, t in second.items() if v not in first)
    return {v: t for v, t in out.items() if t is not v}


def commutes(a: Subst, b: Subst) -> bool:
    """True iff applying a then b equals applying b then a on every variable."""
    return compose(a, b) == compose(b, a)


def _occurs_bound(v: Var, t: Term, bindings: Mapping[Var, Term]) -> bool:
    """Whether v occurs in t once t's bound variables are resolved."""
    seen: set[int] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            if u is v:
                return True
            w = bindings.get(u)
            if w is not None:
                stack.append(w)
        elif not u.ground and id(u) not in seen:
            seen.add(id(u))
            stack.extend(u.args)
    return False


def unify(
    bindings: Mapping[Var, Term], pairs: Iterable[tuple[Term, Term]]
) -> Optional[dict[Var, Term]]:
    """Extend a triangular binding map so that every pair unifies.

    A triangular map binds each variable to a term that may mention other
    bound variables; nothing is substituted, the unifier walks through
    bindings instead, the occurs check included.  Equations are solved
    first in, first out, and of two sides the left one is bound when it is
    a variable, so the bindings made are those of the Martelli-Montanari
    construction that substitutes each binding as it goes (the reference
    in the tests).  Returns an extended copy, or None
    when some pair clashes or fails the occurs check; `bindings` itself is
    never changed.

    Power terms (`powers`) take one more rule: c^(a,b)(u) and c^(a,b')(v)
    with b <= b' expand at n to c^(a*n+b)(u) and c^(a*n+b)(c^(b'-b)(v));
    plugging a ground 1-context is injective, so they unify exactly when u
    and c^(b'-b)(v) do.  Read c^(a,b)(u) as a symbol of its own over the
    tower c^b(u), and this is still syntactic unification, so the rule is
    sound and complete and the result does not depend on the order of the
    equations.  Any other two distinct symbols clash, power or not.

    This is the one place that decides which symbols meet: unfolding
    offers a body atom every family of its root symbol and leaves the
    rest to this test.
    """
    b = dict(bindings)
    eqs = deque(pairs)
    while eqs:
        x, y = eqs.popleft()
        while isinstance(x, Var) and x in b:
            x = b[x]
        while isinstance(y, Var) and y in b:
            y = b[y]
        if x is y:
            continue
        # Variables are one object per name: two that are not the same
        # object differ, and a variable never equals an application.
        if isinstance(x, Var):
            if isinstance(y, App) and not y.ground and _occurs_bound(x, y, b):
                return None
            b[x] = y
        elif isinstance(y, Var):
            if not x.ground and _occurs_bound(y, x, b):
                return None
            b[y] = x
        elif x == y:
            continue
        elif x.symbol != y.symbol:
            p, q = x.symbol, y.symbol
            if not (p.is_power and q.is_power and p.a == q.a and p.context == q.context):
                return None
            # Peel the smaller offset off both sides; each keeps its side.
            if p.b <= q.b:
                eqs.append((x.args[0], concrete_power(p.context, q.b - p.b, y.args[0])))
            else:
                eqs.append((concrete_power(p.context, p.b - q.b, x.args[0]), y.args[0]))
        elif x.ground and y.ground and not (x.powered or y.powered):
            return None
        else:
            eqs.extend(zip(x.args, y.args))
    return b


def apply_triangular(
    ts: Sequence[Term],
    bindings: Mapping[Var, Term],
    source: Optional[VarSource] = None,
    node: Optional[Callable[[App, tuple[Term, ...]], Term]] = None,
) -> tuple[tuple[Term, ...], frozenset[Var]]:
    """The terms under a triangular binding map, and the fresh variables made.

    The triangular counterpart of `apply`: a bound variable becomes its
    binding, itself read through the map, and a variable the map leaves
    unbound is kept or, with a `source`, renamed to a fresh variable of it,
    one per variable, in an order fixed by the terms.  Those fresh
    variables, which are then all the variables of the result, are returned
    with it.  They never repeat a name the source gave before, nor a name
    a program can spell.

    Each node walked is rebuilt from its rebuilt arguments as `rebuild`
    does: by `node(u, args)` when one is given (the search builds each
    family in normal form so, `powers.NormalBuilder`), else as u itself if
    no argument changed and `App(u.symbol, args)` otherwise.  Ground
    subterms and ground bindings are not walked: they stand as they are.

    One walk on an explicit stack, so neither a deep term nor a long
    binding chain can overflow.  Results are kept per node and per bound
    variable, so each is read once and a subterm shared in the terms or in
    the bindings stays shared.  The map must be acyclic, as `unify` leaves
    it.
    """
    done: dict[int, Term] = {}
    made: list[Var] = []
    get = bindings.get
    for t in ts:
        if t.ground:
            continue
        # A node is pushed to be walked, and pushed again as (node,) below
        # its arguments, to be built once they are done.
        stack: list = [t]
        while stack:
            u = stack.pop()
            if type(u) is tuple:
                (u,) = u
                args = tuple([a if a.ground else done[id(a)] for a in u.args])
                if node is not None:
                    done[id(u)] = node(u, args)
                # With a source every variable is renamed, so every node
                # walked changes.
                elif source is None and all(x is y for x, y in zip(args, u.args)):
                    done[id(u)] = u
                else:
                    done[id(u)] = App(u.symbol, args)
            elif id(u) in done:
                continue
            elif type(u) is Var:
                w = get(u)
                if w is None:
                    if source is None:
                        r = u
                    else:
                        r = source.fresh()
                        made.append(r)
                elif w.ground:
                    r = w
                else:
                    r = done.get(id(w))
                    if r is None:
                        stack += (u, w)
                        continue
                done[id(u)] = r
            else:
                stack.append((u,))
                for a in reversed(u.args):
                    if not (a.ground or id(a) in done):
                        stack.append(a)
    out = tuple([t if t.ground else done[id(t)] for t in ts])
    return out, frozenset(made)


def resolve(bindings: Mapping[Var, Term]) -> Subst:
    """The idempotent substitution a triangular binding map stands for:
    each bound variable read through the map (`apply_triangular`), with
    the unbound variables kept."""
    bound = tuple(bindings)
    resolved, _ = apply_triangular(bound, bindings)
    return dict(zip(bound, resolved))


def _pairs(left, right) -> Optional[list[tuple[Term, Term]]]:
    """The equations left = right stands for: one pair of two terms, or the
    pairs of two term sequences of one length; None for any other shape."""
    if isinstance(left, tuple) or isinstance(right, tuple):
        if not (isinstance(left, tuple) and isinstance(right, tuple)) or len(left) != len(right):
            return None
        return list(zip(left, right))
    return [(left, right)]


def mgu(left, right) -> Optional[Subst]:
    """Most general unifier of two terms or two term sequences.

    Returns an idempotent substitution, or None when not unifiable (clash,
    occurs check) or when the two sides differ in shape or length.
    """
    pairs = _pairs(left, right)
    bindings = None if pairs is None else unify({}, pairs)
    return None if bindings is None else resolve(bindings)


def match(pattern, target) -> Optional[Subst]:
    """One-way matching: a substitution s with apply(pattern, s) == target.

    Both sides are terms or term sequences of one length, as for `mgu`.
    """
    eqs = _pairs(pattern, target)
    if eqs is None:
        return None
    pairs = deque(eqs)
    binds: dict[Var, Term] = {}
    seen: set[tuple[int, int]] = set()  # matching is per-pair idempotent
    while pairs:
        p, t = pairs.popleft()
        if isinstance(p, Var):
            if p in binds:
                if binds[p] != t:
                    return None
            else:
                binds[p] = t
        elif isinstance(t, Var):
            return None
        elif p.symbol == t.symbol:
            key = (id(p), id(t))
            if key not in seen:
                seen.add(key)
                pairs.extend(zip(p.args, t.args))
        else:
            return None
    # A variable matched to itself (Y in p(X,Y) against p(s(X),Y)) gets no binding.
    return {v: t for v, t in binds.items() if t is not v}


class VarSource:
    """Monotone fresh-variable generator, scoped to one search.

    Names are `_0'`, `_1'`, ... (after the prefix), which no program can
    spell, and never repeat; `made` holds those handed out.  ``avoid``
    dodges another source's names (`program.rewrite_step`).  The n-th name
    of a prefix is one `Var`, interned the first time any source hands it
    out and read by index after that (`_names`), so a name costs no
    formatting and no lookup by string.
    """

    __slots__ = ("_n", "_prefix", "_table", "made")
    # Prefix -> the variables named so far, the n-th spelled prefix + n + "'".
    _names: ClassVar[dict[str, list[Var]]] = {}

    def __init__(self, prefix: str = "_"):
        self._n = 0
        self._prefix = prefix
        self._table = self._names.setdefault(prefix, [])
        self.made: set[Var] = set()

    def fresh(self, avoid: frozenset[Var] | set[Var] = frozenset()) -> Var:
        table = self._table
        while True:
            n = self._n
            self._n = n + 1
            if n < len(table):
                v = table[n]
            else:
                v = Var(f"{self._prefix}{n}'")
                table.append(v)
            if v not in avoid:
                self.made.add(v)
                return v


def fresh_renaming(
    vars_to_rename: Iterable[Var], avoid: frozenset[Var] | set[Var], source: VarSource
) -> Subst:
    """A bijective renaming of the given variables to fresh ones, none in
    `avoid`; a source never hands out a name twice."""
    return {v: source.fresh(avoid) for v in sorted(vars_to_rename, key=lambda w: w.name)}


# --- Contexts -------------------------------------------------------------
#
# A context is a term in the reserved variable #1 (`HOLE`), which may occur
# more than once; the parser cannot lex that name and fresh names are
# `_N'`, so no program term holds it.  Contexts ground apart from #1 are the
# building blocks of context powers: c^0 = #1, c^(n+1) = c(c^n).

HOLE = Var("#1")


def plug(c: Term, u: Term) -> Term:
    """c with every occurrence of the hole replaced by u."""
    return apply(c, {HOLE: u})


def is_one_layer(c: Term) -> bool:
    """Whether c is one symbol over #1 alone, like s(#1) or f(#1,#1)."""
    return type(c) is App and 0 < len(c.args) == c.args.count(HOLE)


def match_context(c: Term, t: Term) -> Optional[Term]:
    """If t == c(u) for a single filler u at every occurrence of the hole
    in c, return u."""
    if is_one_layer(c):
        if isinstance(t, Var) or (t.symbol is not c.symbol and t.symbol != c.symbol):
            return None
        u = t.args[0]
        for w in t.args[1:]:
            if w is not u and w != u:
                return None
        return u
    theta = match(c, t)
    # A filler that is the hole itself, as when `primitive_context` strips
    # a context off a context, is pruned from theta; get still gives it.
    return None if theta is None else theta.get(HOLE, HOLE)


def concrete_power(c: Term, k: int, inner: Term) -> Term:
    """The tower c^k(inner), one copy of c plugged over the next."""
    if is_one_layer(c):
        sym, n = c.symbol, len(c.args)
        for _ in range(k):
            inner = App(sym, (inner,) * n)
        return inner
    for _ in range(k):
        inner = plug(c, inner)
    return inner


def strip_power(t: Term, c: Term) -> tuple[int, Term]:
    """Maximal k and rest with t = c^k(rest); rest is not of the form c(u)."""
    k = 0
    while (w := match_context(c, t)) is not None:
        k += 1
        t = w
    return k, t


def _replace_subterm(t: Term, old: Term, new: Term) -> Term:
    return rebuild(t, lambda u: new if u == old else u if isinstance(u, Var) else None)


def primitive_context(c: Term) -> tuple[Term, int]:
    """Factor a 1-context, ground apart from the hole, as d^k with d of
    minimal period.

    Minimal period means d itself is not e^j for any j > 1.  Candidates are
    cuts of increasing depth along the path to the first hole, which
    descends into the leftmost argument that is not ground;
    the shallowest cut that tiles c exactly is the primitive root.  The
    path to the first hole of d^k is k copies of d's, so only a cut whose
    depth divides the hole's depth can tile c, and only those are tried.
    """
    if c.ground:
        raise ValueError("not a context: no hole")
    path = []
    sub = c
    while sub != HOLE:
        sub = next(a for a in sub.args if not a.ground)
        path.append(sub)
    for depth, sub in enumerate(path, 1):
        if len(path) % depth:
            continue
        cand = _replace_subterm(c, sub, HOLE)
        k, rest = strip_power(c, cand)
        if k >= 1 and rest == HOLE:
            return cand, k
    return c, 1


def decompose_power(t: Term, var: Var) -> Optional[tuple[Term, int]]:
    """Split t as c^a(var) with c a minimal-period 1-context, ground apart
    from the hole.

    Every occurrence of var must sit at a hole position of c^a; this
    recognizes a binding x -> c^a(x) that moves x.  Returns (c, a), or
    None when var is not the only variable of t (e.g. the would-be context
    contains another variable).
    """
    if isinstance(t, App) and var in t.args and all(a is var or a.ground for a in t.args):
        # One layer over var: its own primitive root, no search needed.
        return App(t.symbol, tuple(HOLE if a is var else a for a in t.args)), 1
    if term_vars(t) != {var}:
        return None
    return primitive_context(apply(t, {var: HOLE}))


def render(t: Term) -> str:
    """Plain functional rendering, iterative so deep towers cannot overflow."""
    out: list[str] = []
    stack: list[object] = [t]
    while stack:
        n = stack.pop()
        if isinstance(n, str):
            out.append(n)
        elif isinstance(n, Var):
            out.append(n.name)
        elif not n.args:
            out.append(n.symbol.name)
        else:
            out.append(n.symbol.name + "(")
            stack.append(")")
            for i, a in enumerate(reversed(n.args)):
                stack.append(a)
                if i != len(n.args) - 1:
                    stack.append(",")
    return "".join(out)
