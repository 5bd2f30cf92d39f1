"""Parser and bounded interpreter."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    PROGRAMS_DIR,
    calls_bounded,
    reference_parse,
    reference_tokenize,
    term,
)
from nonterm import program as program_module
from nonterm.program import (
    DerivationStatus,
    ParseError,
    Rule,
    _line_col,
    _token_texts,
    _tokenize,
    cone,
    derive_bounded,
    parse_program,
    rewrite_step,
)
from nonterm.terms import EPSILON, App, Symbol, Var, VarSource, apply, match, term_vars


def _cone_rules(text: str) -> list[str]:
    program = parse_program(text)
    return [str(r) for r in cone(program, program.queries[0].predicate).rules]


class TestCone:
    def test_caller_of_the_goal_is_dropped(self):
        # h calls f, but nothing f calls reaches h; k is reached through g.
        text = "%query: f(i).\nf(X) :- g(X), f(s(X)).\nh(X) :- f(X).\ng(X) :- k(X).\nk(0).\nm(0)."
        assert _cone_rules(text) == ["f(X) :- g(X), f(s(X)).", "g(X) :- k(X).", "k(0)."]

    def test_symbols_and_queries_stay(self):
        program = parse_program("%query: f(i).\nf(X) :- f(s(X)).\nh(X) :- f(X).")
        cut = cone(program, program.queries[0].predicate)
        assert len(cut.rules) == 1
        assert (cut.name, cut.symbols, cut.queries) == (program.name, program.symbols, program.queries)

    def test_whole_cone_is_the_program_itself(self):
        program = parse_program("%query: f(i).\nf(X) :- g(X).\ng(X) :- f(X).")
        assert cone(program, program.queries[0].predicate) is program

    def test_variable_head_keeps_its_body_predicates(self):
        # A variable head answers every call, so g is reachable from f.
        text = "%query: f(i).\nf(X) :- f(s(X)).\nX :- g(X).\ng(0).\nh(0)."
        assert _cone_rules(text) == ["f(X) :- f(s(X)).", "X :- g(X).", "g(0)."]

    def test_variable_body_atom_keeps_every_rule(self):
        text = "%query: f(i).\nf(X) :- X.\ng(0).\nh(X) :- g(X)."
        assert _cone_rules(text) == ["f(X) :- X.", "g(0).", "h(X) :- g(X)."]

    def test_variable_body_atom_outside_the_cone_keeps_nothing_more(self):
        text = "%query: f(i).\nf(X) :- f(s(X)).\nh(X) :- X."
        assert _cone_rules(text) == ["f(X) :- f(s(X))."]


class TestRule:
    def test_vars_computed_once(self):
        rule = parse_program("p(X, s(Y)) :- q(Y, Z), p(X, Z).").rules[0]
        assert rule.vars() is rule.vars()
        assert rule.vars() == {Var("X"), Var("Y"), Var("Z")}

    def test_equality_and_hash_compare_head_and_body_only(self):
        head, body = term("p(s(X))"), (term("p(X)"),)
        asked, fresh = Rule(head, body), Rule(head, body)
        asked.vars()
        assert asked == fresh and hash(asked) == hash(fresh)
        assert Rule(head, body) != Rule(head, (term("p(s(X))"),))
        assert Rule(head) != Rule(head, body)


class TestParser:
    def test_single_fact(self):
        p = parse_program("p(X).")
        assert p.rules == (Rule(term("p(X)"), ()),)

    def test_running_example_shape(self, ex_program):
        assert len(ex_program.rules) == 8
        assert len(ex_program.rules[0].body) == 3
        assert ex_program.rules[0].head == term("while(X,Y)")
        assert [s.name for s in ex_program.symbols] == ["while", "gt", "add", "s", "0", "le"]

    def test_arity_clash_names_symbol(self):
        with pytest.raises(ParseError, match="'q'"):
            parse_program("p(X) :- q(X,Y,Z). q(A).")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError, match="2:"):
            parse_program("p(X).\nq(X) :- .")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_program("p(X) ?- q.")

    def test_query_directive(self, ex_program):
        (q,) = ex_program.queries
        assert q.predicate.name == "while"
        assert q.modes == ("i", "i")

    def test_mode_synonym_and_multiple_directives(self):
        p = parse_program("%query: p(i).\n%mode: q(i,i).\np(X). q(X,Y).")
        assert [q.predicate.name for q in p.queries] == ["p", "q"]

    def test_query_for_unknown_symbol(self):
        with pytest.raises(ParseError, match="unknown symbol"):
            parse_program("%query: nosuch(i).\np(X).")

    def test_query_arity_mismatch(self):
        with pytest.raises(ParseError, match="arity"):
            parse_program("%query: p(i,i).\np(X).")

    def test_output_mode_rejected(self):
        with pytest.raises(ParseError, match="only 'i'"):
            parse_program("%query: p(o).\np(X).")

    def test_plain_comments_ignored(self):
        p = parse_program("% a comment\np(X). % trailing\n")
        assert len(p.rules) == 1 and not p.queries

    def test_digit_constants(self):
        p = parse_program("p(0, 1).")
        assert p.rules[0].head == term("p(0,1)")

    def test_deep_term_parses(self):
        depth = 200_000
        p = parse_program("p(" + "s(" * depth + "X" + ")" * (depth + 1) + ".")
        t, height = p.rules[0].head.args[0], 0
        while isinstance(t, App):
            t, height = t.args[0], height + 1
        assert (t, height) == (Var("X"), depth)
        assert p.rules[0].vars() == {Var("X")}


def _occurrences(t):
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if isinstance(u, App):
            stack.extend(u.args)


class TestTables:
    def test_one_var_object_per_name_and_clause(self):
        text = "p(X, s(Y), X) :- q(Y, X), p(X, Y, Y).\nq(X, Y) :- q(Y, X)."
        by_rule = []
        for rule in parse_program(text).rules:
            seen = {}
            for atom in (rule.head, *rule.body):
                for u in _occurrences(atom):
                    if isinstance(u, Var):
                        assert seen.setdefault(u.name, u) is u
            by_rule.append(seen)
        first, second = by_rule
        assert set(first) == {"X", "Y"} and set(second) == {"X", "Y"}
        assert all(first[n] is second[n] for n in first)

    def test_one_app_object_per_constant_and_program(self):
        rules = parse_program("p(0, nil) :- q(0).\nq(s(0)).\nr(nil, 0).").rules
        zeros = {id(u) for r in rules for a in (r.head, *r.body) for u in _occurrences(a)
                 if isinstance(u, App) and u.symbol.name == "0"}
        assert len(zeros) == 1

    @pytest.mark.parametrize("path", sorted(PROGRAMS_DIR.glob("*.pl")), ids=lambda p: p.stem)
    def test_rule_vars_are_the_clause_variables(self, path):
        for rule in parse_program(path.read_text(), path.stem).rules:
            assert rule.vars() == term_vars((rule.head, *rule.body))


# --- parser properties -------------------------------------------------------

_SYMBOLS = [Symbol("p", 2), Symbol("q", 1), Symbol("s", 1), Symbol("nil", 0),
            Symbol("0", 0), Symbol("12", 0), Symbol("aB_c", 3)]
_VARS = [Var("X"), Var("Y1"), Var("_"), Var("_G"), Var("Zs")]


def _terms():
    leaves = st.sampled_from([*_VARS, *(App(f, ()) for f in _SYMBOLS if f.arity == 0)])

    def extend(sub):
        return st.sampled_from([f for f in _SYMBOLS if f.arity]).flatmap(
            lambda f: st.tuples(*[sub] * f.arity).map(lambda args: App(f, args))
        )

    return st.recursive(leaves, extend, max_leaves=10)


# Layout between clauses that the parser must skip.
_GAPS = [" ", "\n", "\r\n", "\t", "\n\n", "% a comment\n", "\t% %query p(i).\r\n",
         "%query: p\n", "%mode: q(i). trailing\n"]


@st.composite
def _programs(draw):
    clauses = st.tuples(_terms(), st.lists(_terms(), max_size=3))
    rules = [Rule(head, tuple(body)) for head, body in draw(st.lists(clauses, max_size=5))]
    used = {f for r in rules for t in (r.head, *r.body) for f in _symbols_of(t)}
    modes = [f for f in _SYMBOLS if f in used and f.arity]
    queries = draw(st.lists(st.sampled_from(modes), max_size=2)) if modes else []
    chunks = [f"%query: {f.name}({','.join('i' * f.arity)}).\n" for f in queries]
    for rule in rules:
        chunks.append(draw(st.sampled_from(_GAPS)))
        chunks.append(repr(rule))
    return rules, queries, "".join(chunks)


def _symbols_of(t):
    return (u.symbol for u in _occurrences(t) if isinstance(u, App))


# Fragments of programs, most of them broken when put together at random.
_FRAGMENTS = ["p", "q", "s", "0", "42", "X", "_Y", "(", ")", ",", ".", ":-", ":", "-",
              " ", "\t", "\n", "\r\n", "\r", "% note\n", "%", "%query: p(i).",
              "%query: p(i,i).\n", "% mode : q ( i ) . \n", "%query: q(o).\n",
              "%query: zz.\n", "%mode: p.\r\n", "@", "#", "\u00e9", "\x0b",
              "p(X)", "q(s(X)) :- q(X).", "p(X,Y) :- ", "s(s(0))"]


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", str(exc)


class TestParserProperties:
    @settings(max_examples=200, deadline=None)
    @given(_programs())
    def test_rendered_programs_parse_back(self, drawn):
        rules, queries, text = drawn
        program = parse_program(text)
        assert program.rules == tuple(rules)
        assert [q.predicate for q in program.queries] == queries
        for rule in program.rules:
            assert rule.vars() == term_vars((rule.head, *rule.body))

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS), max_size=25).map("".join))
    @example("p(X) :- q(X),\n\t s(Y")
    @example("p(X) :-")
    @example("% only a comment")
    @example("%query: p(i).\r\np(X, Y).\r\n")
    @example("p(X).\n  q(X) \t @")
    @example("p(X) :- .\nq(X) @")  # a bad character after a syntax error
    @example("p(X) :-\n%query: p(i).\n  q(X).")  # a directive inside a clause
    @example("p(X) :- % why\n  q(X), % and\n  p(s(X)).")  # comments inside a clause
    @example("%query: p(i).\r\np(X) :-\r\n  p(s(X)).\r\np(0).\r\n")  # CRLF line ends
    @example("%query: p(i).\r\np(X) :-\r\n  p(s(X)) q.\r\n")
    def test_errors_match_the_reference_tokenizer(self, text):
        assert _outcome(parse_program, text) == _outcome(reference_parse, text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS), max_size=25).map("".join))
    def test_tokens_match_the_reference_tokenizer(self, text):
        def tokens(tokenize):
            try:
                return [tuple(t) for t in tokenize(text)]
            except ParseError as exc:
                return str(exc)

        got = tokens(lambda t: ((k, s, *_line_col(t, o)) for k, s, o in _tokenize(t)))
        want = tokens(lambda t: ((r.kind, r.text, r.line, r.col) for r in reference_tokenize(t)))
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS), max_size=25).map("".join))
    @example("p(X) :- q(X). % note @\n@")
    def test_parser_reads_the_tokens_of_tokenize(self, text):
        # Up to the first bad character, which the parser reads as a token
        # of its own and `_tokenize` rejects.
        texts = _token_texts(text)
        try:
            located = _tokenize(text)
        except ParseError as exc:
            offset = next(o for o in range(len(text)) if _line_col(text, o) == (exc.line, exc.col))
            located = _tokenize(text[:offset]) + [("bad", text[offset], offset)]
            texts = texts[: len(located)]
        assert texts == [t for _, t, _ in located]


class TestRewriteStep:
    def test_fact_closes_query(self, ex_program):
        r2 = ex_program.rules[1]
        steps = rewrite_step((term("gt(s(0),0)"),), r2, VarSource())
        assert len(steps) == 1
        assert steps[0][0] == ()

    def test_loop_body_unfolds(self, ex_program):
        r1 = ex_program.rules[0]
        (result, theta) = rewrite_step((term("while(s(s(0)),s(0))"),), r1, VarSource())[0]
        assert len(result) == 3
        assert result[0] == term("gt(s(s(0)),s(0))")
        assert result[1].symbol.name == "add"
        assert result[2].symbol.name == "while"

    def test_clash_yields_nothing(self, ex_program):
        r2 = ex_program.rules[1]
        assert rewrite_step((term("gt(0,0)"),), r2, VarSource()) == []

    def test_empty_body_keeps_remainder(self, ex_program):
        r2 = ex_program.rules[1]
        q = (term("gt(s(0),0)"), term("while(0,0)"))
        (result, _) = rewrite_step(q, r2, VarSource())[0]
        assert result == (term("while(0,0)"),)

    def test_body_is_built_once_per_step(self, monkeypatch):
        # Each step builds the renamed head p(_k) and the body p(s^k(_k))
        # under the unifier, and nothing else: 1 + (k + 1) nodes.
        k, steps = 60, 10
        program = parse_program(f"p(X) :- p({'s(' * k}X{')' * k}).\np(0).")
        start = (term("p(0)"),)
        built = 0
        init = App.__init__

        def counted(self, *args):
            nonlocal built
            built += 1
            init(self, *args)

        monkeypatch.setattr(App, "__init__", counted)
        assert derive_bounded(program, start, steps).reached_bound
        assert built == steps * (k + 2)

    def test_steps_satisfy_rewrite_relation(self, ex_program):
        # Post-hoc re-check of each produced step: the leftmost term was
        # consumed (its instance matches the rule head), the rest of the
        # query is carried over under the same substitution, and the new
        # prefix instantiates the rule body.
        src = VarSource()
        q = (term("while(X,s(Y))"), term("gt(X,Y)"))
        stepped = 0
        for rule in ex_program.rules:
            for result, theta in rewrite_step(q, rule, src):
                stepped += 1
                assert len(result) == len(rule.body) + len(q) - 1
                prefix = result[: len(rule.body)]
                assert match(rule.body, prefix) is not None
                assert result[len(rule.body):] == apply(q[1:], theta)
                assert match(rule.head, apply(q[0], theta)) is not None
        assert stepped == 2  # both while rules apply, nothing else does


class TestDeriveBounded:
    def test_nonterminating_query_reaches_bound(self, ex_program):
        status = derive_bounded(ex_program, (term("while(s(s(0)),s(0))"),), 1000)
        assert status == DerivationStatus(True, status.empty_reached)

    def test_success_is_finite_with_empty(self, ex_program):
        status = derive_bounded(ex_program, (term("gt(s(0),0)"),), 1000)
        assert not status.reached_bound
        assert status.empty_reached

    def test_le_guard_stops_the_loop(self, ex_program):
        status = derive_bounded(ex_program, (term("while(s(0),s(s(0)))"),), 1000)
        assert not status.reached_bound
        assert status.empty_reached  # the le branch succeeds

    def test_monotone_in_bound(self, ex_program):
        q = (term("while(s(s(0)),s(0))"),)
        for k in (1, 5, 50, 200):
            assert derive_bounded(ex_program, q, k).reached_bound

    def test_one_pass_to_the_bound(self, monkeypatch):
        # One step per depth of the only chain; repeating shallower passes
        # (depth limits 1, 2, 4, ..., 64) would take 127.
        calls = 0
        step = program_module.rewrite_step

        def counted(*args):
            nonlocal calls
            calls += 1
            return step(*args)

        monkeypatch.setattr(program_module, "rewrite_step", counted)
        program = parse_program("p(X) :- p(s(X)).")
        assert derive_bounded(program, (term("p(0)"),), 64).reached_bound
        assert calls <= 64 * len(program.rules)

    def test_stops_once_the_deadline_has_passed(self, monkeypatch):
        # A clock that reads 1, 2, 3, ... at its successive calls: one read
        # per step, so the deadline 5 is past at the sixth read.
        reads = 0

        def clock():
            nonlocal reads
            reads += 1
            return float(reads)

        monkeypatch.setattr(program_module.time, "monotonic", clock)
        program = parse_program("p(X) :- p(s(X)).")
        status = derive_bounded(program, (term("p(0)"),), 500, deadline=5.0)
        assert status == DerivationStatus(False, False, timed_out=True)
        assert reads == 6

    def test_a_run_that_ends_in_time_is_not_timed_out(self, ex_program):
        q = (term("while(s(s(0)),s(0))"),)
        deadline = program_module.time.monotonic() + 3600.0
        assert derive_bounded(ex_program, q, 50, deadline) == derive_bounded(ex_program, q, 50)

    def test_rejects_nonpositive_bound(self, ex_program):
        with pytest.raises(ValueError):
            derive_bounded(ex_program, (term("gt(0,0)"),), 0)

    def test_a_long_run_reuses_fresh_names(self, ex_program):
        # Variables are interned for the life of the process, so the fresh
        # names of one step must be reused by the next.
        q = (term("while(s(s(0)),s(0))"),)
        derive_bounded(ex_program, q, 10)
        before = len(Var._table)
        assert derive_bounded(ex_program, q, 2000).reached_bound
        assert len(Var._table) - before <= 10


class TestCallsBounded:
    def test_success_reaches_empty(self, ex_program):
        calls = calls_bounded(ex_program, term("gt(s(0),0)"), 10)
        assert EPSILON in calls

    def test_loop_reaches_next_iteration(self, ex_program):
        calls = calls_bounded(ex_program, term("while(s(s(0)),s(0))"), 50)
        assert term("while(s(s(s(0))),s(s(0)))") in calls

    def test_stuck_atom_has_no_calls(self, ex_program):
        assert calls_bounded(ex_program, term("gt(0,0)"), 10) == set()

    def test_monotone_in_bound(self, ex_program):
        a = calls_bounded(ex_program, term("while(s(s(0)),s(0))"), 10)
        b = calls_bounded(ex_program, term("while(s(s(0)),s(0))"), 14)
        assert a <= b
