"""Programs, a Prolog-style parser, and the leftmost-resolution interpreter.

The parser reads a file in one regex scan for the token texts and builds
the clauses in one loop over them, with an explicit stack for nesting.
Within a clause each variable name is one `Var`, and within a program each
constant one `App`.  Offsets are worked out only for an error message, by
scanning again.

A rule rewrites the first term of a query: rename the rule apart, unify its
head with the leftmost term, replace that term by the instantiated body.
The bounded interpreter below exists to validate non-termination witnesses
and to serve as ground truth in tests; it is not a full Prolog (no cut, no
negation, no built-ins -- predicate and function symbols are not even
distinguished).
"""

from __future__ import annotations

import re
import time
from typing import Optional

from .record import Record
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


class Rule(Record):
    """A program rule head :- body; an empty body makes it a fact.

    `vars` is the rule's variable set, when its builder knows it (the
    parser does); otherwise `vars()` computes it on its first call.  Each
    interpreter step renames the rule apart, so it is kept.
    """

    __slots__ = ("head", "body", "_vars")

    def __init__(
        self, head: Term, body: tuple[Term, ...] = (), *, vars: Optional[frozenset[Var]] = None
    ):
        self.head, self.body, self._vars = head, body, vars

    def vars(self) -> frozenset[Var]:
        if self._vars is None:
            self._vars = term_vars((self.head, *self.body))
        return self._vars

    def __repr__(self) -> str:
        if not self.body:
            return f"{render(self.head)}."
        return f"{render(self.head)} :- {', '.join(render(b) for b in self.body)}."


class QueryMode(Record):
    """A query directive: the predicate of interest, all arguments ground."""

    __slots__ = ("predicate", "modes")

    def __init__(self, predicate: Symbol, modes: tuple[str, ...]):
        self.predicate, self.modes = predicate, modes

    def __repr__(self) -> str:
        if not self.modes:
            return self.predicate.name
        return f"{self.predicate.name}({','.join(self.modes)})"


class Program(Record):
    """A parsed program: its rules, its symbols in declaration order, and
    its query directives."""

    __slots__ = ("name", "rules", "symbols", "queries")

    def __init__(
        self,
        name: str,
        rules: tuple[Rule, ...],
        symbols: tuple[Symbol, ...],
        queries: tuple[QueryMode, ...] = (),
    ):
        self.name, self.rules, self.symbols, self.queries = name, rules, symbols, queries

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


# A query directive, matched against a whole comment (from its '%' to the
# end of its line): the predicate (group 1) and its mode flags (group 2).
_QUERY_DIRECTIVE = re.compile(
    r"%\s*(?:query|mode)\s*:\s*([a-z][A-Za-z0-9_]*|[0-9]+)\s*(?:\(([\sa-z,]*)\))?\s*\.\s*"
)

# One match per token: a name, a variable, ':-', a line comment, or any
# other single non-blank character.  Blanks match nothing and are skipped.
# A token's kind is read off its first character (`_kind`); of the
# comments, only a whole line that is a query directive is kept.
_TOKEN = re.compile(r"[a-z][A-Za-z0-9_]*|[0-9]+|[A-Z_][A-Za-z0-9_]*|:-|%[^\n]*|\S")
_COMMENT = re.compile(r"%[^\n]*")
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")
_VAR_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_")

# A token is (kind, text, offset of its first character).
_Token = tuple[str, str, int]


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of an offset; only '\n' ends a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _kind(token: str) -> str:
    c = token[0]
    if c in _NAME_START:
        return "name"
    if c in _VAR_START:
        return "var"
    if c == "%":
        return "directive" if _QUERY_DIRECTIVE.fullmatch(token) else "comment"
    if token == ":-":
        return "neck"
    return "punct" if c in "(),." else "bad"


def _directive_or_nothing(m: re.Match) -> str:
    comment = m.group()
    return comment if _QUERY_DIRECTIVE.fullmatch(comment) else ""


def _token_texts(text: str) -> list[str]:
    """The texts of the tokens the parser reads, bad characters included.

    Every comment but a query directive is cut out first, in one pass that
    calls back once per comment, so the scan for tokens keeps all it
    finds.  A comment runs to the end of its line and no other token holds
    a '%', so the cut finds the comments the scan would, and the newline it
    leaves keeps the tokens around it apart."""
    return _TOKEN.findall(_COMMENT.sub(_directive_or_nothing, text))


def _tokenize(text: str) -> list[_Token]:
    """The tokens `_token_texts` reads, with kinds and offsets; raises at the
    first bad character.  Only a parse error needs the offsets."""
    tokens: list[_Token] = []
    for m in _TOKEN.finditer(text):
        token = m.group()
        kind = _kind(token)
        if kind == "bad":
            raise ParseError(f"unexpected character {token!r}", *_line_col(text, m.start()))
        if kind != "comment":
            tokens.append((kind, token, m.start()))
    return tokens


class _Failure(Exception):
    """A parse error (message, token index), not yet located in the text."""


# What the builder reads next: a clause or a directive, a term, the token
# after a name (an argument list or not), or the token after a term.
_CLAUSE, _TERM, _NAMED, _AFTER = range(4)


def _build(tokens: list[str], program_name: str) -> Program:
    """The program of the token texts, in one pass without recursion.

    `stack` holds (name, its token index, arguments so far) per compound
    term being read, and `args` the list the next finished term joins: the
    top's arguments, or the clause's head and body.  A symbol is declared
    once its arguments are read, innermost first, and a name keeps one
    arity program-wide.  A clause's variables are kept by name in a table
    that becomes the rule's variable set, and each constant is one `App`
    per program.
    """
    symbols: dict[str, Symbol] = {}
    constants: dict[str, App] = {}
    rules: list[Rule] = []
    directives: list[tuple[str, int]] = []
    stack: list[tuple[str, int, list[Term]]] = []
    clause: list[Term] = []
    args = clause
    table: dict[str, Var] = {}
    state = _CLAUSE
    named, at = "", 0

    def declare(name: str, arity: int, at: int) -> Symbol:
        # Called only for a name not yet declared at this arity: an
        # arity-0 name is declared only through `constant`, which keeps it.
        known = symbols.get(name)
        if known is not None:
            raise _Failure(
                f"symbol '{name}' used with arity {arity} but previously with {known.arity}", at
            )
        sym = symbols[name] = Symbol(name, arity)
        return sym

    def constant(name: str, at: int) -> App:
        known = constants.get(name)
        if known is None:
            known = constants[name] = App(declare(name, 0, at), ())
        return known

    for i, tok in enumerate(tokens):
        if state == _CLAUSE:
            if tok[0] == "%":
                directives.append((tok, i))
                continue
            clause = args = []
            table = {}
            state = _TERM
        if state == _TERM:
            c = tok[0]
            if c in _VAR_START:
                v = table.get(tok)
                if v is None:
                    v = table[tok] = Var(tok)
                args.append(v)
                state = _AFTER
            elif c in _NAME_START:
                named, at = tok, i
                state = _NAMED
            else:
                raise _Failure(f"expected a term, found {tok!r}", i)
            continue
        if state == _NAMED:
            if tok == "(":
                args = []
                stack.append((named, at, args))
                state = _TERM
                continue
            args.append(constant(named, at))
            state = _AFTER
        if stack:
            if tok == ",":
                state = _TERM
            elif tok == ")":
                named, at, done = stack.pop()
                args = stack[-1][2] if stack else clause
                sym = symbols.get(named)
                if sym is None or sym.arity != len(done):
                    sym = declare(named, len(done), at)
                args.append(App(sym, tuple(done)))
            else:
                raise _Failure(f"expected {_follows(stack, clause)}, found {tok!r}", i)
        elif tok == ".":
            rules.append(Rule(clause[0], tuple(clause[1:]), vars=frozenset(table.values())))
            state = _CLAUSE
        elif tok == (":-" if len(clause) == 1 else ","):
            state = _TERM
        else:
            raise _Failure(f"expected {_follows(stack, clause)}, found {tok!r}", i)

    if state == _NAMED:
        args.append(constant(named, at))
        state = _AFTER
    if state != _CLAUSE:
        expected = "a term" if state == _TERM else _follows(stack, clause)
        raise _Failure(f"unexpected end of input, expected {expected}", len(tokens) - 1)
    queries = tuple(_query_mode(text, i, symbols) for text, i in directives)
    return Program(program_name, tuple(rules), tuple(symbols.values()), queries)


def _follows(stack: list, clause: list[Term]) -> str:
    """What may follow a finished term, for an error message."""
    if stack:
        return "')'"
    return "':-' or '.'" if len(clause) == 1 else "',' or '.'"


def _query_mode(text: str, index: int, symbols: dict[str, Symbol]) -> QueryMode:
    m = _QUERY_DIRECTIVE.fullmatch(text)
    assert m is not None
    pred_name = m.group(1)
    flags = tuple(f.strip() for f in (m.group(2) or "").split(",") if f.strip())
    for f in flags:
        if f != "i":
            raise _Failure(f"unsupported mode flag {f!r} (only 'i' is supported)", index)
    sym = symbols.get(pred_name)
    if sym is None:
        raise _Failure(f"query names unknown symbol '{pred_name}'", index)
    if sym.arity != len(flags):
        raise _Failure(
            f"query for '{pred_name}' has {len(flags)} modes but the symbol has arity {sym.arity}",
            index,
        )
    return QueryMode(sym, flags)


def parse_program(text: str, name: str = "<input>") -> Program:
    """Parse clauses (`h :- b1, ..., bm.` or `h.`) plus %query: directives.

    Lowercase/digit-initial identifiers are symbols, uppercase/underscore
    are variables; `%` starts a line comment; a `%query:`/`%mode:` comment
    that fills its line declares a query of interest.

    The text is scanned once for token texts and built in one pass.  Only
    on an error is it scanned again, with offsets: a bad character anywhere
    is reported first, as it stops the build too; otherwise the error is
    placed at the token the build stopped on.
    """
    tokens = _token_texts(text)
    try:
        return _build(tokens, name)
    except _Failure as failure:
        message, index = failure.args
    offset = _tokenize(text)[index][2]
    raise ParseError(message, *_line_col(text, offset))


def rewrite_step(
    query: Query, rule: Rule, source: VarSource
) -> list[tuple[Query, Subst]]:
    """One leftmost-resolution step of a query with one rule.

    The rule is renamed apart from the query: its fresh names also avoid
    the query's, which may hold those an earlier step drew from another
    source (`derive_bounded` makes one per step).  On unification of the
    renamed head with the first query term, the result is (body ++ rest)
    under the unifier, the body built once under the renaming followed by
    the unifier.  At most one result (the mgu is unique up to renaming).
    """
    if not query:
        return []
    ren = fresh_renaming(rule.vars(), term_vars(query), source)
    theta = mgu(apply(rule.head, ren), query[0])
    if theta is None:
        return []
    both = {v: theta.get(w, w) for v, w in ren.items()}
    return [(apply(rule.body, both) + apply(query[1:], theta), theta)]


class DerivationStatus(Record):
    """Outcome of a bounded exploration of the rewrite tree.

    reached_bound: some single chain grew to max_steps.
    timed_out: the deadline passed first, so nothing is decided.
    Otherwise the whole tree was exhausted.
    empty_reached notes whether the empty query showed up on some branch;
    when the bound is reached or the run timed out it is a lower bound,
    since branches the exploration has not visited may still succeed.
    """

    __slots__ = ("reached_bound", "empty_reached", "timed_out")

    def __init__(self, reached_bound: bool, empty_reached: bool = False, timed_out: bool = False):
        self.reached_bound, self.empty_reached, self.timed_out = reached_bound, empty_reached, timed_out


def derive_bounded(
    program: Program, query: Query, max_steps: int, deadline: float = float("inf")
) -> DerivationStatus:
    """Explore rewrite chains from a query depth first, trying rules in
    program order.

    One pass to depth max_steps: reports reached_bound as soon as any chain
    has max_steps steps, or that all branches are finite once the tree is
    exhausted earlier.  A query that runs forever along the first branch
    it tries costs one `rewrite_step` per rule and step of that chain.
    A step renames the rule apart from its own query only, so each step
    draws fresh names from a new `VarSource`: however many steps run, it
    interns (`terms.Var`) no more names than its largest query and a rule
    hold together.

    The clock is read once per step, before it; a run still going once it
    is past the deadline (a `time.monotonic` reading) stops as timed_out.
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    empty = False
    stack: list[tuple[Query, int]] = [(query, 0)]
    while stack:
        if time.monotonic() > deadline:
            return DerivationStatus(False, empty, timed_out=True)
        q, depth = stack.pop()
        if not q:
            empty = True
            continue
        if depth >= max_steps:
            return DerivationStatus(True, empty)
        for rule in reversed(program.rules):
            for nq, _ in rewrite_step(q, rule, VarSource()):
                stack.append((nq, depth + 1))
    return DerivationStatus(False, empty)
