"""Shared fixtures: term parsing shorthand, program sources, random generators,
a reference evaluator for the paper's family notation, reference versions
of the unifier, of normalization, of the variant key, of the tokenizer and
of the parser, and helpers that only the tests use."""

from __future__ import annotations

import random
import re
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import strategies as st

from typing import Iterator, Mapping, NamedTuple, Optional

from nonterm.binrules import BinaryRuleSet, saturate
from nonterm.pattern import PatternRule, identity_rules, initial_rules, pattern_rule_key
from nonterm.powers import PowerSymbol, expand_at, is_power, normalize
from nonterm.program import (
    ParseError,
    Program,
    Query,
    QueryMode,
    Rule,
    _line_col,
    _tokenize,
    parse_program,
    rewrite_step,
)
from nonterm.terms import (
    EPSILON,
    HOLE,
    App,
    Subst,
    Symbol,
    Term,
    Var,
    VarSource,
    apply,
    _replace_subterm,
    fresh_renaming,
    compose,
    concrete_power,
    decompose_power,
    match,
    match_context,
    plug,
    primitive_context,
    rebuild,
    strip_power,
    term_vars,
)
from nonterm.unfold import PatternRuleSet, _attempts, rename_pattern_rule

PROGRAMS_DIR = Path(__file__).resolve().parent.parent / "programs"

WHILE_GT_ADD = (PROGRAMS_DIR / "while-gt-add.pl").read_text()
ISLIST_GROW = (PROGRAMS_DIR / "islist-grow.pl").read_text()


def term(src: str) -> Term:
    """Parse a single term with the reference parser; arities are checked
    within this call only."""
    p = _Parser(src)
    t = p.term()
    assert p._peek() is None, f"trailing input in {src!r}"
    return t


def pruned(theta: Subst) -> Subst:
    """theta without its bindings x -> x, which move nothing: two
    substitutions that act alike on every term are then equal dicts."""
    return {v: t for v, t in theta.items() if t is not v}


def subst(**bindings: str) -> Subst:
    """Substitution from keyword bindings, e.g. subst(X="s(X)", Y="0")."""
    return Subst({Var(v): term(t) for v, t in bindings.items()})


# --- helpers only the tests use --------------------------------------------


def domain(theta: Subst) -> frozenset[Var]:
    """The variables a substitution moves."""
    return frozenset(v for v, _ in theta.items())


def range_vars(theta: Subst) -> frozenset[Var]:
    """The variables of a substitution's bindings."""
    out: set[Var] = set()
    for _, t in theta.items():
        out |= term_vars(t)
    return frozenset(out)


def context_power(c: Term, n: int) -> Term:
    """n-fold self-embedding of a 1-context: c^0 = #1, c^(n+1) = c(c^n)."""
    acc: Term = HOLE
    for _ in range(n):
        acc = plug(c, acc)
    return acc


def subst_at(theta: Subst, n: int) -> Subst:
    """Pointwise expansion of a substitution over power terms; a binding
    that expands to its own variable, like X -> c^(1n+0)(X) at 0, is
    dropped."""
    return pruned({v: expand_at(u, n) for v, u in theta.items()})


def shift(t: Term, d: int) -> Term:
    """t with every power c^(a,b) raised to c^(a,b+a*d): its expansion at n
    is t's at n + d.  A negative d must leave every offset non-negative."""

    def node(u: App, args: tuple[Term, ...]) -> Term:
        sym = u.symbol
        if sym.is_power:
            sym = PowerSymbol(sym.context, sym.a, sym.b + sym.a * d)
        return App(sym, args)

    return rebuild(t, lambda u: None if u.powered else u, node)


def step_candidates(
    program: Program,
    pool: list[PatternRule],
    patid: list[PatternRule],
    source: VarSource,
) -> Iterator[tuple[PatternRule, tuple]]:
    """All rules derivable in one unfolding step from the given pool, in
    the order of `unfold._attempts`."""
    for candidate, provenance in _attempts(program, pool, patid, source):
        if candidate is not None:
            yield candidate, provenance


def seeded(
    program: Program, goal: Optional[Symbol] = None
) -> tuple[list[PatternRule], VarSource]:
    """The seed families of a program, with the source whose fresh
    variables they hold: a search over them draws from that source too,
    as `detect.prove` has it (`unfold.saturate`)."""
    source = VarSource()
    return initial_rules(program, goal, source=source), source


def assert_apart(rules: list[PatternRule], program: Optional[Program] = None) -> None:
    """Every family has only fresh variables, each recorded as its own
    (`PatternRule.vars`), no two families share one, and none is a
    variable of the program."""
    held: set[Var] = set()
    for rule in rules:
        vs = term_vars((rule.lhs, rule.rhs))
        assert rule.vars() == vs and all(v.name.endswith("'") for v in vs), rule
        assert held.isdisjoint(vs), rule
        held |= vs
    for rule in program.rules if program is not None else ():
        assert held.isdisjoint(rule.vars()), rule


def respell(want: list[PatternRule], got: list[PatternRule]) -> list[PatternRule]:
    """Each family of `want` with its variables renamed to those of the
    family of `got` at its place, when that one is a renaming of it, and
    as it is otherwise: so `respell(want, got) == got` says that each
    family of got is the one of want up to a renaming of its own."""
    out = list(want)
    for i, (w, g) in enumerate(zip(want, got)):
        ren = match((w.lhs, w.rhs), (g.lhs, g.rhs))
        back = match((g.lhs, g.rhs), (w.lhs, w.rhs))
        if ren is not None and back is not None:
            out[i] = PatternRule(apply(w.lhs, ren), apply(w.rhs, ren), w.source)
    return out


def apart(rules: list[PatternRule], source: VarSource) -> list[PatternRule]:
    """Families written with program names, each renamed to fresh variables
    of the source, as every family the search holds is."""
    return [rename_pattern_rule(r, fresh_renaming(r.vars(), (), source)) for r in rules]


def step(
    program: Program, base: list[PatternRule], pool: PatternRuleSet, source: VarSource
) -> PatternRuleSet:
    """One application of the unfolding operator, the naive way: the seed
    set plus every rule derivable from the whole pool in a single step,
    drawing fresh variables from the seeds' source."""
    out = PatternRuleSet()
    for rule in base:
        out.add(rule)
    patid = identity_rules(program.symbols, source)
    for candidate, _ in step_candidates(program, list(pool), patid, source):
        out.add(candidate)
    return out


def calls_bounded(program: Program, start: Term, max_steps: int) -> set[Term]:
    """First terms of all queries reachable from <start> within max_steps.

    A sound under-approximation of the call set; includes the empty-query
    marker EPSILON when a derivation succeeds.  The start itself is not a
    member (unless it reoccurs as a later call).
    """
    source = VarSource()
    out: set[Term] = set()
    stack: list[tuple[Query, int]] = [((start,), 0)]
    while stack:
        q, depth = stack.pop()
        if depth > 0:
            out.add(q[0] if q else EPSILON)
        if not q or depth >= max_steps:
            continue
        for rule in reversed(program.rules):
            for nq, _ in rewrite_step(q, rule, source):
                stack.append((nq, depth + 1))
    return out


# --- the paper's notation, evaluated directly --------------------------------


def family_subst_at(sigma: Subst, mu: Subst, n: int) -> Subst:
    """The substitution sigma^n . mu, by n compositions."""
    acc = mu
    for _ in range(n):
        acc = compose(sigma, acc)
    return acc


def reference_decompose_power(t: Term) -> Optional[tuple[Term, int, Term]]:
    """Split t as c^a(rest), c a ground 1-context of minimal period, peeling
    the tower along the leftmost leaf path maximally, so that rest is not of
    the form c(rest').  None when no ground decomposition exists."""
    path: list[int] = []
    u = t
    while isinstance(u, App) and u.args:
        path.append(0)
        u = u.args[0]
    sub = t
    for _ in path:
        sub = sub.args[0]
        skel = _replace_subterm(t, sub, HOLE)
        if term_vars(skel) != {HOLE}:
            continue
        c, a = primitive_context(skel)
        extra, rest = strip_power(sub, c)
        return c, a + extra, rest
    return None


def sigma_powers(sigma: Subst) -> dict[Var, Optional[tuple[Term, int]]]:
    """Each variable sigma moves, split as sigma(x) = c^a(x) with c a
    ground 1-context of minimal period: x -> (c, a), or x -> None when its
    binding has another shape."""
    return {x: decompose_power(sx, x) for x, sx in sigma.items()}


def reference_power_form(
    skeleton: Term,
    sigma: Subst,
    mu: Subst,
    moved: Optional[Mapping[Var, Optional[tuple[Term, int]]]] = None,
) -> Optional[Term]:
    """The canonical power term of the family skeleton . sigma^n . mu.

    The family must be simple: every variable sigma moves is driven by a
    ground 1-context, sigma(x) = c^a(x).  The mu binding then splits as
    c^b(t) with t not c-headed, and x maps to c^(a,b)(t); variables that
    sigma fixes keep their mu binding as is.  Returns None when some sigma
    binding of a skeleton variable does not have that shape.  `moved` is
    `sigma_powers(sigma)`, for a caller that converts several families
    with one sigma.
    """
    if moved is None:
        moved = sigma_powers(sigma)
    theta: dict[Var, Term] = {}
    for x in sorted(term_vars(skeleton), key=lambda v: v.name):
        mx = mu.get(x, x)
        if x not in moved:
            theta[x] = mx
            continue
        split = moved[x]
        if split is None:
            return None
        c, a = split
        assert a >= 1
        b, rest = strip_power(mx, c)
        theta[x] = App(PowerSymbol(c, a, b), (rest,))
    return normalize(apply(skeleton, Subst(theta)))


class Family(NamedTuple):
    """The term family skeleton . sigma^n . mu, as the paper writes it.

    The prover stores only power terms; tests build families in this
    notation, convert them with `reference_power_form`, and compare the
    prover's expansions against `at`, which evaluates the notation directly.
    """

    # The two defaults are one shared dict: no helper mutates a family's
    # substitutions, each builds a new one.
    skeleton: Term
    sigma: Subst = Subst()
    mu: Subst = Subst()

    def at(self, n: int) -> Term:
        return apply(self.skeleton, family_subst_at(self.sigma, self.mu, n))

    def power(self) -> Term:
        u = reference_power_form(self.skeleton, self.sigma, self.mu)
        assert u is not None, f"not simple: {self}"
        return u


def fam(skeleton: str, sigma: Subst = Subst(), mu: Subst = Subst()) -> Term:
    """Power term of a family written in the paper's notation."""
    return Family(term(skeleton), sigma, mu).power()


def pattern_substitution(theta: Subst) -> tuple[Subst, Subst]:
    """Read a unifier returned by `pattern_mgu` as (sigma, mu).

    Each binding is normalized first.  A binding c^(a,b)(t) becomes
    sigma: x -> c^a(x), mu: x -> c^b(t); a plain binding goes to mu alone.
    """
    sigma: dict[Var, Term] = {}
    mu: dict[Var, Term] = {}
    for v, u in theta.items():
        u = normalize(u)
        if u.powered:
            assert is_power(u) and not u.args[0].powered, f"{v} -> {u}"
            sym = u.symbol
            sigma[v] = concrete_power(sym.context, sym.a, v)
            mu[v] = concrete_power(sym.context, sym.b, u.args[0])
        else:
            mu[v] = u
    return sigma, pruned(mu)


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
    substituted before it is looked at.  Two powers of one context and
    slope meet by offset: c^(a,b)(u) against c^(a,b+d)(v) gives u against
    the tower c^d(v)."""
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
            sol[w] = apply(u, {v: t})
        sol[v] = t
        return True

    while eqs:
        a, b = eqs.popleft()
        a = apply(a, sol)
        b = apply(b, sol)
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
            p, q = a.symbol, b.symbol
            if not (is_power(a) and is_power(b) and (p.context, p.a) == (q.context, q.a)):
                return None
            if p.b <= q.b:
                eqs.append((a.args[0], reference_concrete_power(p.context, q.b - p.b, b.args[0])))
            else:
                eqs.append((reference_concrete_power(p.context, p.b - q.b, a.args[0]), b.args[0]))
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
            return plug(context_power(c, b), u)
        return App(PowerSymbol(c, a, b), (u,))
    args = tuple(reference_normalize(a) for a in t.args)
    out = t if all(x is y for x, y in zip(args, t.args)) else App(t.symbol, args)
    for v in _reference_power_nodes(out):
        if _replace_subterm(out, v, HOLE) == v.symbol.context:
            sym = v.symbol
            return App(PowerSymbol(sym.context, sym.a, sym.b + 1), (v.args[0],))
    return out


def reference_initial_rules(program: Program) -> list[PatternRule]:
    """`initial_rules` through the paper's notation: each recursive/base
    pair gives the triples (body, sigma, mu) => epsilon and (head, sigma,
    empty) => body, with sigma the matcher of the body onto the head and
    mu the matcher of the body onto the fact, converted by
    `reference_power_form`.  A body with a repeated variable gives no seed."""
    out: list[PatternRule] = []
    seen: set[tuple] = set()
    facts = [r for r in program.rules if not r.body]
    for rec in program.rules:
        if len(rec.body) != 1:
            continue
        body, head = rec.body[0], rec.head
        occurrences = _var_occurrences(body)
        if len(occurrences) != len(set(occurrences)):
            continue
        sigma = match(body, head)
        if sigma is None:
            continue
        moved = sigma_powers(sigma)
        if None in moved.values():
            continue
        open_ = reference_power_form(head, sigma, Subst(), moved)
        for base in facts:
            mu = match(body, base.head)
            if mu is None:
                continue
            closing = reference_power_form(body, sigma, mu, moved)
            for rule in (PatternRule(closing, EPSILON), PatternRule(open_, body)):
                key = pattern_rule_key(rule)
                if key not in seen:
                    seen.add(key)
                    out.append(rule)
    return out


def _var_occurrences(t: Term) -> list[Var]:
    """Every variable occurrence of t, repeats included."""
    if isinstance(t, Var):
        return [t]
    return [v for a in t.args for v in _var_occurrences(a)]


def reference_match_context(c: Term, t: Term) -> Optional[Term]:
    """`match_context` by the generic walk alone, whatever the context."""
    filler: Optional[Term] = None
    stack = [(c, t)]
    while stack:
        cn, tn = stack.pop()
        if cn == HOLE:
            if filler is None:
                filler = tn
            elif filler != tn:
                return None
        elif isinstance(tn, Var) or cn.symbol != tn.symbol:
            return None
        else:
            stack.extend(zip(cn.args, tn.args))
    return filler


def reference_concrete_power(c: Term, k: int, inner: Term) -> Term:
    """`concrete_power` by plugging, whatever the context."""
    for _ in range(k):
        inner = plug(c, inner)
    return inner


# --- reference tokenizer ----------------------------------------------------
#
# A tokenizer with one match per chunk, comments and whitespace included,
# and line and column advanced chunk by chunk.

_REFERENCE_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<name>[a-z][A-Za-z0-9_]*|[0-9]+)
      | (?P<var>[A-Z_][A-Za-z0-9_]*)
      | (?P<neck>:-)
      | (?P<punct>[(),.])
    """,
    re.VERBOSE,
)

_REFERENCE_DIRECTIVE = re.compile(
    r"%\s*(?:query|mode)\s*:\s*([a-z][A-Za-z0-9_]*|[0-9]+)\s*(?:\(\s*([a-z\s,]*)\))?\s*\.\s*$"
)


@dataclass
class ReferenceToken:
    kind: str
    text: str
    line: int
    col: int


def reference_tokenize(text: str) -> Iterator[ReferenceToken]:
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        chunk = m.group()
        if kind == "comment":
            if _REFERENCE_DIRECTIVE.match(chunk):
                yield ReferenceToken("directive", chunk, line, col)
        elif kind != "ws":
            yield ReferenceToken(kind, chunk, line, col)
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()


# --- reference parser --------------------------------------------------------
#
# The recursive-descent parser `parse_program` replaced: one method call per
# token read, over the located tokens of a tokenizer, and each variable or
# constant occurrence its own object.

_Token = tuple[str, str, int]


class _Parser:
    def __init__(self, text: str, tokens: Optional[list[_Token]] = None):
        self.text = text
        self.tokens = _tokenize(text) if tokens is None else tokens
        self.pos = 0
        self.symbols: dict[str, Symbol] = {}
        self.rules: list[Rule] = []
        self.directives: list[tuple[str, int]] = []

    def _error(self, message: str, offset: int) -> ParseError:
        return ParseError(message, *_line_col(self.text, offset))

    def _declare(self, name: str, arity: int, offset: int) -> Symbol:
        """The symbol of a name; a name may carry only one arity program-wide."""
        known = self.symbols.get(name)
        if known is None:
            sym = self.symbols[name] = Symbol(name, arity)
            return sym
        if known.arity != arity:
            raise self._error(
                f"symbol '{name}' used with arity {arity} but previously with {known.arity}",
                offset,
            )
        return known

    def _peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expected: str) -> _Token:
        tok = self._peek()
        if tok is None:
            offset = self.tokens[-1][2] if self.tokens else 0
            raise self._error(f"unexpected end of input, expected {expected}", offset)
        self.pos += 1
        return tok

    def _expect(self, text: str) -> None:
        _, found, offset = self._next(repr(text))
        if found != text:
            raise self._error(f"expected {text!r}, found {found!r}", offset)

    def term(self) -> Term:
        # Iterative, so nesting depth is bounded by memory only: `pending`
        # holds (name, its offset, arguments so far) per compound term
        # being read.  A symbol is declared once its arguments are read,
        # innermost first.
        tokens, end = self.tokens, len(self.tokens)
        pending: list[tuple[str, int, list[Term]]] = []
        while True:
            kind, text, offset = self._next("a term")
            if kind == "var":
                done: Term = Var(text)
            elif kind != "name":
                raise self._error(f"expected a term, found {text!r}", offset)
            elif self.pos < end and tokens[self.pos][1] == "(":
                self.pos += 1
                pending.append((text, offset, []))
                continue
            else:
                done = App(self._declare(text, 0, offset), ())
            while pending:
                name, at, args = pending[-1]
                args.append(done)
                if self.pos < end and tokens[self.pos][1] == ",":
                    self.pos += 1
                    break
                self._expect(")")
                pending.pop()
                done = App(self._declare(name, len(args), at), tuple(args))
            else:
                return done

    def clause(self) -> Rule:
        head = self.term()
        kind, text, offset = self._next("':-' or '.'")
        body: list[Term] = []
        if kind == "neck":
            body.append(self.term())
            while True:
                _, text, offset = self._next("',' or '.'")
                if text == ",":
                    body.append(self.term())
                elif text == ".":
                    break
                else:
                    raise self._error(f"expected ',' or '.', found {text!r}", offset)
        elif text != ".":
            raise self._error(f"expected ':-' or '.', found {text!r}", offset)
        return Rule(head, tuple(body))

    def run(self, name: str) -> Program:
        while (tok := self._peek()) is not None:
            if tok[0] == "directive":
                self.pos += 1
                self.directives.append((tok[1], tok[2]))
            else:
                self.rules.append(self.clause())
        queries = [self._resolve_directive(*d) for d in self.directives]
        return Program(name, tuple(self.rules), tuple(self.symbols.values()), tuple(queries))

    def _resolve_directive(self, text: str, offset: int) -> QueryMode:
        m = _REFERENCE_DIRECTIVE.match(text)
        assert m is not None
        pred_name = m.group(1)
        flags = tuple(f.strip() for f in (m.group(2) or "").split(",") if f.strip())
        for f in flags:
            if f != "i":
                raise self._error(f"unsupported mode flag {f!r} (only 'i' is supported)", offset)
        sym = self.symbols.get(pred_name)
        if sym is None:
            raise self._error(f"query names unknown symbol '{pred_name}'", offset)
        if sym.arity != len(flags):
            raise self._error(
                f"query for '{pred_name}' has {len(flags)} modes but the symbol has arity {sym.arity}",
                offset,
            )
        return QueryMode(sym, flags)


def reference_parse(text: str, name: str = "<input>") -> Program:
    """The reference parser over the tokens of `reference_tokenize`."""
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
    tokens = [
        (tok.kind, tok.text, line_starts[tok.line - 1] + tok.col - 1)
        for tok in reference_tokenize(text)
    ]
    return _Parser(text, tokens).run(name)


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

# Primitive contexts, as `power_form` makes them: five one-layer contexts
# and the two-layer g(s(#1)), which only the general `match_context` reads.
POWER_CONTEXTS = [
    App(S, (HOLE,)),
    App(G, (HOLE,)),
    App(F, (HOLE, ZERO)),
    App(F, (ZERO, HOLE)),
    App(F, (HOLE, HOLE)),
    App(G, (App(S, (HOLE,)),)),
]


def power_terms(names: str = "XY", max_leaves: int = 10):
    """Power terms in no particular form: powers of `POWER_CONTEXTS` with
    slopes from 1 to 2 and offsets from 0 to 2, plain symbols and concrete
    context layers, stacked at random over the variables named and two
    constants."""
    leaves = st.sampled_from([*(Var(n) for n in names), ZERO, NIL])
    powers = st.builds(
        PowerSymbol, st.sampled_from(POWER_CONTEXTS), st.integers(1, 2), st.integers(0, 2)
    )

    def extend(sub):
        return st.one_of(
            st.builds(lambda sym, a: App(sym, (a,)), st.one_of(st.sampled_from([S, G]), powers), sub),
            st.builds(lambda a, b: App(F, (a, b)), sub, sub),
            st.builds(lambda c, a: plug(c, a), st.sampled_from(POWER_CONTEXTS), sub),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


# Parts of random recursive programs p(..L(W(X))..) :- p(..L(X)..).
# Head wraps W of a body variable: unmoved, slope 1 and 2, a two-layer
# context, non-linear and one-layer contexts with ground arguments.
SEED_WRAPS = ["{x}", "s({x})", "s(s({x}))", "t(g({x}))", "f({x},{x})", "f({x},0)", "f(0,s({x}))",
              "g(s(g(s({x}))))"]
# A context layer L above the variable in the body, which `normalize`
# absorbs when it is the power's own context.
SEED_LAYERS = ["{x}", "{x}", "s({x})", "g({x})"]
# Base fact arguments: deeper towers of every wrap, and other terms.
SEED_FILLERS = ["0", "Y", "s(s(s(0)))", "t(g(t(g(0))))", "f(f(0,0),f(0,0))", "f(f(Y,0),0)",
                "f(0,s(f(0,s(0))))", "g(s(g(s(g(s(0))))))", "s(g(0))", "t(0)"]


@st.composite
def recursive_programs(draw):
    """p(..L(W(X))..) :- p(..L(X)..), or the same with head and body
    swapped so that the recursion shrinks, sometimes behind the guard
    q(X0) that counts X0 down to 0, and a few facts."""
    xs = [f"X{i}" for i in range(draw(st.integers(1, 3)))]
    layers = [draw(st.sampled_from(SEED_LAYERS)) for _ in xs]
    wraps = [draw(st.sampled_from(SEED_WRAPS)) for _ in xs]
    grown = ",".join(lay.format(x=w.format(x=x)) for lay, w, x in zip(layers, wraps, xs))
    plain = ",".join(lay.format(x=x) for lay, x in zip(layers, xs))
    head, body = (grown, plain) if draw(st.booleans()) else (plain, grown)
    guard = "q(X0), " if draw(st.booleans()) else ""
    lines = [
        f"%query: p({','.join('i' for _ in xs)}).",
        f"p({head}) :- {guard}p({body}).",
        "q(0).",
        "q(s(X)) :- q(X).",
    ]
    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"p({','.join(draw(st.sampled_from(SEED_FILLERS)) for _ in xs)}).")
    return "\n".join(lines)


# The goal g wraps its own argument, and the guard h lets through exactly
# the towers of g over 0, so g(0) runs forever; saturation stores the
# pumping family g(#1)^(1n+1)(0) => g(#1)^(1n+2)(0), whose left side is a
# power of the goal.
G_WRAPS_ITSELF = "%query: g(i).\ng(X) :- h(X), g(g(X)).\nh(g(X)) :- h(X).\nh(0)."

# Wraps W of the goal's own argument, each holding g.
SELF_WRAPS = ["g({x})", "g(g({x}))", "g(s({x}))", "s(g({x}))"]
# Layers L of the guard's rule h(L(X)) :- h(X), and base facts.
GUARD_LAYERS = ["g({x})", "s({x})", "g(g({x}))"]
GUARD_BASES = ["0", "g(0)", "s(0)", "Y"]


@st.composite
def self_wrapping_programs(draw):
    """g(X) :- h(X), g(W(X)), or g(W(X)) :- h(X), g(X): the unary goal
    calls itself on its argument wrapped in a W that holds g, or unwraps
    it, sometimes without the guard h, which counts its argument down
    through a layer L to a base fact; and maybe a fact of g."""
    wrap = draw(st.sampled_from(SELF_WRAPS)).format(x="X")
    head, call = ("X", wrap) if draw(st.booleans()) else (wrap, "X")
    layer = draw(st.sampled_from(GUARD_LAYERS)).format(x="X")
    guard = "h(X), " if draw(st.booleans()) else ""
    lines = [
        "%query: g(i).",
        f"g({head}) :- {guard}g({call}).",
        f"h({layer}) :- h(X).",
        f"h({draw(st.sampled_from(GUARD_BASES))}).",
    ]
    if draw(st.booleans()):
        lines.append(f"g({draw(st.sampled_from(GUARD_BASES))}).")
    return "\n".join(lines)


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
    return pruned(out)


def random_context(rng: random.Random, max_depth: int = 3) -> Term:
    """A ground 1-context: at least one #1 occurrence, no variables."""
    layer = rng.choice(["s", "g", "f-left", "f-right", "f-both"])
    inner = HOLE if max_depth <= 1 or rng.random() < 0.5 else random_context(rng, max_depth - 1)
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
            sigma[v] = plug(context_power(c, a), v)
            mu[v] = plug(context_power(c, b), random_term(rng, 1))
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
        a, b = rng.randint(1, 3), rng.randint(0, 3)
        t: Term = random_term(rng, 1)
        if rng.random() < 0.5 and b > 0:
            t = plug(context_power(c, 1), t)
            b -= 1
        body: Term = App(PowerSymbol(c, a, b), (t,))
        if rng.random() < 0.5:
            body = plug(context_power(c, rng.randint(0, 2)), body)
        out[Var(name)] = body
    return pruned(out)


def _vars_of(t: Term):
    from nonterm.terms import term_vars

    return sorted(term_vars(t), key=lambda v: v.name)
