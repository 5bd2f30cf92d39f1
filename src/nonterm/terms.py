"""First-order terms, substitutions, unification and ground contexts.

The term language is small: variables and symbol applications.  Values are
immutable and hashable.  Derivations produce very deep terms (number towers
like ``s(s(...s(0)))``), so the hot operations -- equality, substitution
application, unification, variable collection -- are iterative and
short-circuit on ground subterms instead of recursing node by node.  Every
walk that builds a new term (substitution, plugging a context, replacing a
subterm, and the power walks of `powers`) is one `rebuild`: a bottom-up
pass that visits each node of the DAG once and keeps it shared.

A symbol may also be a power symbol (`powers.PowerSymbol`), a tower of a
ground context whose height grows with an index.  One unifier serves both
kinds of term: `unify` treats a power symbol like any other symbol, except
that two powers of one context and slope meet by peeling the smaller
offset off both.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, Optional, Sequence


@dataclass(frozen=True)
class Symbol:
    """A function symbol; identity is the (name, arity) pair."""

    name: str
    arity: int
    # Every `App` built over the symbol hashes it, so the hash is kept.
    _hash: int = field(init=False, repr=False, compare=False)

    # Power symbols (`powers.PowerSymbol`) set this; see `App.powered`.
    is_power: ClassVar[bool] = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name, self.arity)))

    def __hash__(self) -> int:
        return self._hash


class Var:
    """A variable, identified by name."""

    __slots__ = ("name", "_hash")
    ground = False
    powered = False

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("var", name))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self.name


# The name of the context hole (`HOLE`); the parser cannot lex it.
_HOLE_NAME = "#1"


class App:
    """Application of a symbol to argument terms.

    The hash and the groundness and power flags are computed once at
    construction from the (already cached) values of the children, so all
    three are O(arity) to build and O(1) to use, no matter how deep the term
    is.  `powered` is true when a power symbol occurs in the term.
    """

    __slots__ = ("symbol", "args", "ground", "powered", "_hash")

    def __init__(self, symbol, args: Sequence["Term"] = ()):
        args = tuple(args)
        if len(args) != symbol.arity:
            raise ValueError(
                f"symbol {symbol.name}/{symbol.arity} applied to {len(args)} arguments"
            )
        self.symbol = symbol
        self.args = args
        # The context hole #1 is a placeholder, not a constant: a term
        # containing it must never take the ground fast paths.  The hole is
        # a constant, so the name is read only without arguments (a power
        # symbol's name renders its whole context).
        if args:
            ground, powered = True, symbol.is_power
            for a in args:
                ground = ground and a.ground
                powered = powered or a.powered
            self.ground, self.powered = ground, powered
        else:
            self.ground, self.powered = symbol.name != _HOLE_NAME, False
        self._hash = hash((symbol, *[a._hash for a in args]))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, App) or self._hash != other._hash:
            return False
        # Plugging a context with a repeated hole shares subterms, so terms
        # are DAGs; memoizing compared pairs keeps equality proportional to
        # DAG size.
        seen: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if isinstance(a, Var):
                if a.name != b.name:
                    return False
                continue
            key = (id(a), id(b))
            if key in seen:
                continue
            seen.add(key)
            if a.symbol != b.symbol or a._hash != b._hash:
                return False
            stack.extend(zip(a.args, b.args))
        return True

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


class Subst:
    """A substitution: a finite map from variables to terms.

    Bindings ``x -> x`` are pruned at construction, so the keys are
    exactly the moved variables.
    """

    __slots__ = ("_m", "_hash")

    def __init__(self, mapping: Mapping[Var, Term] | Iterable[tuple[Var, Term]] = ()):
        # A dict is tested first: the check against typing's Mapping is slow.
        items = mapping.items() if isinstance(mapping, (dict, Mapping)) else mapping
        self._m: dict[Var, Term] = {v: t for v, t in items if t != v}
        self._hash: Optional[int] = None

    def lookup(self, v: Var) -> Term:
        return self._m.get(v, v)

    def items(self) -> Iterator[tuple[Var, Term]]:
        return iter(self._m.items())

    def __bool__(self) -> bool:
        return bool(self._m)

    def __len__(self) -> int:
        return len(self._m)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subst) and self._m == other._m

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._m.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{v.name} -> {render(t)}" for v, t in sorted(self._m.items(), key=lambda it: it[0].name)
        )
        return "{" + inner + "}"


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


def _subst_dict(t: Term, m: Mapping[Var, Term]) -> Term:
    """Apply a raw binding dict to a term, iteratively and with sharing."""
    if not m:
        return t
    return rebuild(t, lambda u: u if u.ground else m.get(u, u) if isinstance(u, Var) else None)


def apply(t, s: Subst):
    """Apply a substitution homomorphically; accepts a term or a sequence."""
    if isinstance(t, tuple):
        return tuple(_subst_dict(u, s._m) for u in t)
    return _subst_dict(t, s._m)


def compose(first: Subst, second: Subst) -> Subst:
    """The substitution applying ``first`` and then ``second``."""
    out = {v: _subst_dict(t, second._m) for v, t in first.items()}
    for v, t in second.items():
        if v not in out:
            out[v] = t
    return Subst(out)


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
            if u == v:
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
    """
    b = dict(bindings)
    eqs = deque(pairs)
    while eqs:
        x, y = eqs.popleft()
        while isinstance(x, Var) and x in b:
            x = b[x]
        while isinstance(y, Var) and y in b:
            y = b[y]
        if x is y or x == y:
            continue
        if isinstance(x, Var):
            if isinstance(y, App) and not y.ground and _occurs_bound(x, y, b):
                return None
            b[x] = y
        elif isinstance(y, Var):
            if not x.ground and _occurs_bound(y, x, b):
                return None
            b[y] = x
        elif x.symbol != y.symbol:
            p, q = x.symbol, y.symbol
            if not same_slope(p, q):
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


def resolve(bindings: Mapping[Var, Term]) -> Subst:
    """The idempotent substitution a triangular binding map stands for."""
    # Resolved forms, keyed by the variable itself or by the id of a term.
    done: dict[object, Term] = {}
    out: dict[Var, Term] = {}
    for v in bindings:
        stack: list[Term] = [v]
        while stack:
            n = stack[-1]
            if isinstance(n, Var):
                if n in done:
                    stack.pop()
                    continue
                w = bindings.get(n)
                if w is None or w.ground:
                    done[n] = n if w is None else w
                    stack.pop()
                    continue
                r = done.get(w if isinstance(w, Var) else id(w))
                if r is None:
                    stack.append(w)
                else:
                    done[n] = r
                    stack.pop()
                continue
            if id(n) in done:
                stack.pop()
                continue
            pending = [
                a
                for a in n.args
                if not a.ground and (a if isinstance(a, Var) else id(a)) not in done
            ]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            args = tuple(
                a if a.ground else done[a if isinstance(a, Var) else id(a)] for a in n.args
            )
            done[id(n)] = n if all(x is y for x, y in zip(args, n.args)) else App(n.symbol, args)
        out[v] = done[v]
    return Subst(out)


def mgu(left, right) -> Optional[Subst]:
    """Most general unifier of two terms or two term sequences.

    Returns an idempotent substitution, or None when not unifiable (clash,
    occurs check, or sequence-length mismatch).
    """
    if isinstance(left, tuple) != isinstance(right, tuple):
        left, right = (
            left if isinstance(left, tuple) else (left,),
            right if isinstance(right, tuple) else (right,),
        )
    if isinstance(left, tuple):
        if len(left) != len(right):
            return None
        pairs = zip(left, right)
    else:
        pairs = [(left, right)]
    bindings = unify({}, pairs)
    return None if bindings is None else resolve(bindings)


def match(pattern, target) -> Optional[Subst]:
    """One-way matching: a substitution s with apply(pattern, s) == target."""
    if isinstance(pattern, tuple) != isinstance(target, tuple):
        return None
    pairs = deque(zip(pattern, target)) if isinstance(pattern, tuple) else deque([(pattern, target)])
    if isinstance(pattern, tuple) and len(pattern) != len(target):
        return None
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
    return Subst(binds)


class VarSource:
    """Monotone fresh-variable generator, scoped to one proof session.

    Never hands out the same name twice, so consecutively renamed items are
    automatically disjoint from each other; collisions with caller-supplied
    names are dodged via the ``avoid`` set.
    """

    __slots__ = ("_n", "_prefix")

    def __init__(self, prefix: str = "_"):
        self._n = 0
        self._prefix = prefix

    def fresh(self, avoid: frozenset[Var] | set[Var] = frozenset()) -> Var:
        while True:
            v = Var(f"{self._prefix}{self._n}")
            self._n += 1
            if v not in avoid:
                return v


def fresh_renaming(
    vars_to_rename: Iterable[Var], avoid: frozenset[Var] | set[Var], source: VarSource
) -> Subst:
    """A bijective renaming of the given variables to fresh ones."""
    avoid = set(avoid)
    out = {}
    for v in sorted(vars_to_rename, key=lambda w: w.name):
        nv = source.fresh(avoid)
        avoid.add(nv)
        out[v] = nv
    return Subst(out)


# --- Contexts -------------------------------------------------------------
#
# A context is a term over the program signature plus the reserved hole
# constant #1 (`HOLE`), which may occur more than once.  Ground contexts (no
# variables) are the building blocks of context powers: c^0 = #1,
# c^(n+1) = c(c^n).

HOLE = App(Symbol(_HOLE_NAME, 0), ())


def plug(c: Term, u: Term) -> Term:
    """c with every occurrence of the hole replaced by u."""

    def leaf(w: Term) -> Optional[Term]:
        if w.ground or isinstance(w, Var):
            return w
        # The only non-ground constant is the hole.
        return None if w.args else u

    return rebuild(c, leaf)


def is_one_layer(c: Term) -> bool:
    """Whether c is one symbol over #1 alone, like s(#1) or f(#1,#1)."""
    return 0 < len(c.args) == c.args.count(HOLE)


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
    filler: Optional[Term] = None
    stack = [(c, t)]
    while stack:
        cn, tn = stack.pop()
        if cn == HOLE:
            if filler is None:
                filler = tn
            elif filler != tn:
                return None
        elif isinstance(cn, Var) or isinstance(tn, Var):
            return None
        elif cn.symbol == tn.symbol:
            stack.extend(zip(cn.args, tn.args))
        else:
            return None
    return filler


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


def same_slope(p, q) -> bool:
    """Whether symbols p and q are powers of one context and slope, which
    `unify` meets whatever their offsets."""
    return p.is_power and q.is_power and p.a == q.a and p.context == q.context


def strip_power(t: Term, c: Term) -> tuple[int, Term]:
    """Maximal k and rest with t = c^k(rest); rest is not of the form c(u)."""
    k = 0
    while (w := match_context(c, t)) is not None:
        k += 1
        t = w
    return k, t


def _first_hole_path(c: Term) -> Optional[list[int]]:
    # Depth-first, leftmost; iterative because contexts can be deep towers.
    stack: list[tuple[Term, list[int]]] = [(c, [])]
    while stack:
        u, path = stack.pop()
        if u == HOLE:
            return path
        if isinstance(u, App):
            for i in range(len(u.args) - 1, -1, -1):
                stack.append((u.args[i], path + [i]))
    return None


def _replace_subterm(t: Term, old: Term, new: Term) -> Term:
    return rebuild(t, lambda u: new if u == old else u if isinstance(u, Var) else None)


def primitive_context(c: Term) -> tuple[Term, int]:
    """Factor a ground 1-context as d^k with d of minimal period.

    Minimal period means d itself is not e^j for any j > 1.  Candidates are
    cuts of increasing depth along the path to the first hole; the shallowest
    cut that tiles c exactly is the primitive root.
    """
    path = _first_hole_path(c)
    if path is None:
        raise ValueError("not a context: no hole")
    for depth in range(1, len(path) + 1):
        sub: Term = c
        for i in path[:depth]:
            sub = sub.args[i]
        cand = _replace_subterm(c, sub, HOLE)
        k, rest = strip_power(c, cand)
        if k >= 1 and rest == HOLE:
            return cand, k
    return c, 1


def decompose_power(t: Term, var: Var) -> Optional[tuple[Term, int]]:
    """Split t as c^a(var) with c a ground, minimal-period 1-context.

    Every occurrence of var must sit at a hole position of c^a; this
    recognizes a binding x -> c^a(x) that moves x.  Returns (c, a), or
    None when no ground decomposition exists (e.g. the would-be context
    contains another variable).
    """
    if isinstance(t, App) and var in t.args and all(a == var or a.ground for a in t.args):
        # One layer over var: its own primitive root, no search needed.
        return App(t.symbol, tuple(HOLE if a == var else a for a in t.args)), 1
    if var not in term_vars(t):
        return None
    skel = _subst_dict(t, {var: HOLE})
    if term_vars(skel):
        return None
    return primitive_context(skel)


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
