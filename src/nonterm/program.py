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
from functools import cached_property
from typing import Optional

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
        return self._vars

    @cached_property
    def _vars(self) -> frozenset[Var]:
        # Computed once: every unfolding round and interpreter step renames
        # program rules apart.
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
        if not self.modes:
            return self.predicate.name
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


def _head_symbol(rule: Rule) -> Optional[Symbol]:
    """The predicate a rule defines, or None for a variable head."""
    return rule.head.symbol if isinstance(rule.head, App) else None


def cone(program: Program, predicate: Symbol) -> Program:
    """The program cut to the rules a call to `predicate` can reach.

    A predicate is in the cone when it is `predicate`, or the root of a
    body atom of a rule in the cone.  A rule with a variable head may
    answer any call, so it is always kept, and its body predicates are
    reachable from every predicate; a variable body atom may call anything,
    so it keeps every rule.  `symbols` and `queries` stay as they are.
    """
    by_head: dict[Optional[Symbol], list[Rule]] = {}
    for rule in program.rules:
        by_head.setdefault(_head_symbol(rule), []).append(rule)
    reached: set[Optional[Symbol]] = {predicate, None}
    pending = [predicate, None]
    while pending:
        for rule in by_head.get(pending.pop(), ()):
            for atom in rule.body:
                if isinstance(atom, Var):
                    return program
                if atom.symbol not in reached:
                    reached.add(atom.symbol)
                    pending.append(atom.symbol)
    kept = tuple(r for r in program.rules if _head_symbol(r) in reached)
    if len(kept) == len(program.rules):
        return program
    return Program(program.name, kept, program.symbols, program.queries)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# A line comment that is a query directive, after its '%': the predicate
# (group 1) and its mode flags (group 2).  Whitespace in it never spans a
# newline, and the directive runs to the end of its line.
_SP = r"[^\S\n]*"
_DIRECTIVE_BODY = (
    rf"{_SP}(?:query|mode){_SP}:{_SP}([a-z][A-Za-z0-9_]*|[0-9]+){_SP}"
    rf"(?:\(((?:[^\S\n]|[a-z,])*)\))?{_SP}\.{_SP}(?![^\n])"
)
_QUERY_DIRECTIVE = re.compile("%" + _DIRECTIVE_BODY)

# One match per token: whitespace and comments other than directives are
# skipped in front of it.  Then exactly one named group matches, `end` at
# the end of the text and `bad` at a character no token starts with, so
# the skip never backtracks.
_TOKEN = re.compile(
    r"(?:\s+|%(?!" + _DIRECTIVE_BODY + r")[^\n]*)*"
    r"(?:(?P<directive>%" + _DIRECTIVE_BODY + r")"
    r"|(?P<name>[a-z][A-Za-z0-9_]*|[0-9]+)"
    r"|(?P<var>[A-Z_][A-Za-z0-9_]*)"
    r"|(?P<neck>:-)"
    r"|(?P<punct>[(),.])"
    r"|(?P<end>\Z)"
    r"|(?P<bad>.))"
)

# A token is (kind, text, offset of its first character).
_Token = tuple[str, str, int]


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of an offset; only '\n' ends a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "end":
            break
        start = m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {text[start]!r}", *_line_col(text, start))
        tokens.append((kind, m.group(kind), start))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
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
        m = _QUERY_DIRECTIVE.match(text)
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
    empty_reached notes whether the empty query showed up on some branch;
    when the bound is reached it is a lower bound, since the exploration
    stops there and branches it has not visited may still succeed.
    """

    reached_bound: bool
    steps: int
    empty_reached: bool = False


def derive_bounded(program: Program, query: Query, max_steps: int) -> DerivationStatus:
    """Explore rewrite chains from a query depth first, trying rules in
    program order.

    One pass to depth max_steps: reports reached_bound as soon as any chain
    has max_steps steps, or that all branches are finite once the tree is
    exhausted earlier.  A query that runs forever along the first branch
    it tries costs one `rewrite_step` per rule and step of that chain.
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    source = VarSource()
    deepest = 0
    empty = False
    stack: list[tuple[Query, int]] = [(query, 0)]
    while stack:
        q, depth = stack.pop()
        deepest = max(deepest, depth)
        if not q:
            empty = True
            continue
        if depth >= max_steps:
            return DerivationStatus(True, max_steps, empty)
        for rule in reversed(program.rules):
            for nq, _ in rewrite_step(q, rule, source):
                stack.append((nq, depth + 1))
    return DerivationStatus(False, deepest, empty)
