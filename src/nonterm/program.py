"""Programs, a Prolog-style parser, and the leftmost-resolution interpreter.

A rule rewrites the first term of a query: rename the rule apart, unify its
head with the leftmost term, replace that term by the instantiated body.
The bounded interpreter below exists to validate non-termination witnesses
and to serve as ground truth in tests; it is not a full Prolog (no cut, no
negation, no built-ins -- predicate and function symbols are not even
distinguished).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional

from .terms import (
    App,
    Query,
    Subst,
    Symbol,
    Term,
    Var,
    VarSource,
    apply,
    fresh_renaming,
    mgu,
    render,
    term_vars,
)


@dataclass(frozen=True)
class Rule:
    """A program rule head :- body; an empty body makes it a fact."""

    head: Term
    body: tuple[Term, ...] = ()

    def vars(self) -> frozenset[Var]:
        return term_vars((self.head, *self.body))

    def __repr__(self) -> str:
        if not self.body:
            return f"{render(self.head)}."
        return f"{render(self.head)} :- {', '.join(render(b) for b in self.body)}."


@dataclass(frozen=True)
class QueryMode:
    """A query directive: the predicate of interest, all arguments ground."""

    predicate: Symbol
    modes: tuple[str, ...]

    def __repr__(self) -> str:
        return f"{self.predicate.name}({','.join(self.modes)})"


@dataclass(frozen=True)
class Program:
    name: str
    rules: tuple[Rule, ...]
    symbols: tuple[Symbol, ...]  # declaration order
    queries: tuple[QueryMode, ...] = ()

    def constants(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self.symbols if s.arity == 0)

    def head_symbols(self) -> tuple[Symbol, ...]:
        seen: dict[Symbol, None] = {}
        for r in self.rules:
            if isinstance(r.head, App):
                seen.setdefault(r.head.symbol, None)
        return tuple(seen)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<name>[a-z][A-Za-z0-9_]*|[0-9]+)
      | (?P<var>[A-Z_][A-Za-z0-9_]*)
      | (?P<neck>:-)
      | (?P<punct>[(),.])
    """,
    re.VERBOSE,
)

_QUERY_DIRECTIVE = re.compile(
    r"%\s*(?:query|mode)\s*:\s*([a-z][A-Za-z0-9_]*|[0-9]+)\s*(?:\(\s*([a-z\s,]*)\))?\s*\.\s*$"
)


class _SymbolTable:
    """Symbols keyed by name; a name may carry only one arity program-wide."""

    def __init__(self) -> None:
        self._by_name: dict[str, Symbol] = {}

    def declare(self, name: str, arity: int, line: int, col: int) -> Symbol:
        known = self._by_name.get(name)
        if known is None:
            sym = Symbol(name, arity)
            self._by_name[name] = sym
            return sym
        if known.arity != arity:
            raise ParseError(
                f"symbol '{name}' used with arity {arity} but previously with {known.arity}",
                line,
                col,
            )
        return known

    def get(self, name: str) -> Optional[Symbol]:
        return self._by_name.get(name)

    def all(self) -> tuple[Symbol, ...]:
        return tuple(self._by_name.values())


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> Iterator[_Token]:
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        chunk = m.group()
        if kind == "comment":
            dm = _QUERY_DIRECTIVE.match(chunk)
            if dm:
                yield _Token("directive", chunk, line, col)
        elif kind not in ("ws",):
            yield _Token("neck" if kind == "neck" else kind, chunk, line, col)
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.table = _SymbolTable()
        self.rules: list[Rule] = []
        self.directives: list[tuple[str, int, int]] = []

    def _peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expected: str) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", "", 1, 1)
            raise ParseError(f"unexpected end of input, expected {expected}", last.line, last.col)
        self.pos += 1
        return tok

    def _expect(self, text: str) -> _Token:
        tok = self._next(repr(text))
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def term(self) -> Term:
        # Iterative, so nesting depth is bounded by memory only: `pending`
        # holds (name token, arguments so far) per compound term being read.
        # A symbol is declared once its arguments are read, innermost first.
        tokens, end = self.tokens, len(self.tokens)
        pending: list[tuple[_Token, list[Term]]] = []
        while True:
            tok = self._next("a term")
            if tok.kind == "var":
                done: Term = Var(tok.text)
            elif tok.kind != "name":
                raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)
            elif self.pos < end and tokens[self.pos].text == "(":
                self.pos += 1
                pending.append((tok, []))
                continue
            else:
                done = App(self.table.declare(tok.text, 0, tok.line, tok.col), ())
            while pending:
                name, args = pending[-1]
                args.append(done)
                if self.pos < end and tokens[self.pos].text == ",":
                    self.pos += 1
                    break
                self._expect(")")
                pending.pop()
                sym = self.table.declare(name.text, len(args), name.line, name.col)
                done = App(sym, tuple(args))
            else:
                return done

    def clause(self) -> Rule:
        head = self.term()
        tok = self._next("':-' or '.'")
        body: list[Term] = []
        if tok.kind == "neck":
            body.append(self.term())
            while True:
                tok = self._next("',' or '.'")
                if tok.text == ",":
                    body.append(self.term())
                elif tok.text == ".":
                    break
                else:
                    raise ParseError(f"expected ',' or '.', found {tok.text!r}", tok.line, tok.col)
        elif tok.text != ".":
            raise ParseError(f"expected ':-' or '.', found {tok.text!r}", tok.line, tok.col)
        return Rule(head, tuple(body))

    def run(self, name: str) -> Program:
        while (tok := self._peek()) is not None:
            if tok.kind == "directive":
                self.pos += 1
                self.directives.append((tok.text, tok.line, tok.col))
            else:
                self.rules.append(self.clause())
        queries = [self._resolve_directive(*d) for d in self.directives]
        return Program(name, tuple(self.rules), self.table.all(), tuple(queries))

    def _resolve_directive(self, text: str, line: int, col: int) -> QueryMode:
        m = _QUERY_DIRECTIVE.match(text)
        assert m is not None
        pred_name = m.group(1)
        flags = tuple(f.strip() for f in (m.group(2) or "").split(",") if f.strip())
        for f in flags:
            if f != "i":
                raise ParseError(f"unsupported mode flag {f!r} (only 'i' is supported)", line, col)
        sym = self.table.get(pred_name)
        if sym is None:
            raise ParseError(f"query names unknown symbol '{pred_name}'", line, col)
        if sym.arity != len(flags):
            raise ParseError(
                f"query for '{pred_name}' has {len(flags)} modes but the symbol has arity {sym.arity}",
                line,
                col,
            )
        return QueryMode(sym, flags)


def parse_program(text: str, name: str = "<input>") -> Program:
    """Parse clauses (`h :- b1, ..., bm.` or `h.`) plus %query: directives.

    Lowercase/digit-initial identifiers are symbols, uppercase/underscore
    are variables; `%` starts a line comment; `%query:`/`%mode:` comments
    declare the queries of interest.
    """
    return _Parser(text).run(name)


def rewrite_step(
    query: Query, rule: Rule, source: VarSource
) -> list[tuple[Query, Subst]]:
    """One leftmost-resolution step of a query with one rule.

    The rule is renamed apart from the query; on unification of the renamed
    head with the first query term, the result is (body ++ rest) under the
    unifier.  At most one result (the mgu is unique up to renaming).
    """
    if not query:
        return []
    qvars = term_vars(query)
    ren = fresh_renaming(rule.vars(), qvars, source)
    head = apply(rule.head, ren)
    body = apply(rule.body, ren)
    theta = mgu(head, query[0])
    if theta is None:
        return []
    return [(apply(body + query[1:], theta), theta)]


@dataclass(frozen=True)
class DerivationStatus:
    """Outcome of a bounded exploration of the rewrite tree.

    reached_bound: some single chain grew to max_steps.
    Otherwise the whole tree was exhausted and steps is its maximal depth.
    empty_reached notes whether the empty query showed up on some branch.
    """

    reached_bound: bool
    steps: int
    empty_reached: bool = False


def _explore(
    program: Program, query: Query, limit: int, source: VarSource
) -> tuple[bool, int, bool]:
    """DFS to depth `limit`; returns (hit_limit, max_depth_seen, empty_seen)."""
    hit = False
    deepest = 0
    empty = False
    stack: list[tuple[Query, int]] = [(query, 0)]
    while stack:
        q, depth = stack.pop()
        deepest = max(deepest, depth)
        if not q:
            empty = True
            continue
        if depth >= limit:
            hit = True
            break
        for rule in reversed(program.rules):
            for nq, _ in rewrite_step(q, rule, source):
                stack.append((nq, depth + 1))
    return hit, deepest, empty


def derive_bounded(
    program: Program,
    query: Query,
    max_steps: int,
    strategy: str = "iterative-deepening",
) -> DerivationStatus:
    """Explore rewrite chains from a query, trying rules in program order.

    Reports reached_bound as soon as any chain has max_steps steps, or that
    all branches are finite once the tree is exhausted earlier.  The default
    iterative deepening doubles the depth limit, which keeps the cost within
    a constant factor of the final pass while never committing to an unfair
    branch order.
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    source = VarSource()
    if strategy == "depth-first":
        limits = [max_steps]
    elif strategy == "iterative-deepening":
        limits = []
        limit = 1
        while limit < max_steps:
            limits.append(limit)
            limit *= 2
        limits.append(max_steps)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    empty_seen = False
    for limit in limits:
        hit, deepest, empty = _explore(program, query, limit, source)
        empty_seen = empty_seen or empty
        if not hit:
            return DerivationStatus(False, deepest, empty_seen)
        if limit == max_steps:
            return DerivationStatus(True, max_steps, empty_seen)
    raise AssertionError("unreachable")


def calls_bounded(program: Program, start: Term, max_steps: int) -> set[Term]:
    """First terms of all queries reachable from <start> within max_steps.

    A sound under-approximation of the call set; includes the empty-query
    marker EPSILON when a derivation succeeds.  The start itself is not a
    member (unless it reoccurs as a later call).
    """
    from .terms import EPSILON

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
