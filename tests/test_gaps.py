"""Pins of today's known incompleteness: one case per README "Scope" bullet
or undecided example, each with the status, stop reason and family count
the prover gives now.

Every program here has a query that runs forever, except `len`, which
terminates but never reaches a fixpoint, and `shift`, which reached none
until induction closed it.  A change that decides one of
them, or moves its stop reason, changes its case here on purpose, and says
so in CHANGES.md.  Each case names the README "Scope" bullet it shows, by
its opening words, and the ROADMAP item expected to decide it.
"""

import pytest

from conftest import ISLIST_GROW, term
from nonterm.detect import prove
from nonterm.program import derive_bounded, parse_program
from nonterm.unfold import UnfoldBudget

GT = "gt(s(X), 0).\ngt(s(X), s(Y)) :- gt(X, Y).\n"
LE = "le(0, X).\nle(s(X), s(Y)) :- le(X, Y).\n"
ADD = "add(X, 0, X).\nadd(X, s(Y), s(Z)) :- add(X, Y, Z).\n"
MUL = "mul(X, 0, 0).\nmul(X, s(Y), Z) :- mul(X, Y, W), add(W, X, Z).\n"


def outcome(text):
    """Status, stop reason and number of derived families, at the default
    budget."""
    program = parse_program(text)
    out = prove(program, program.queries[0], UnfoldBudget())
    return out.status, out.reason, out.unfolded


def loops(text, query):
    """Whether the query survives 200 interpreter steps."""
    return derive_bounded(parse_program(text), (term(query),), 200).reached_bound


class TestGaps:
    def test_slopes_s_against_s_s(self):
        # README "Scope": "unification of families uses one canonical
        # representative per side" (s against s·s).  ROADMAP item 5.
        # q's family steps X by s, r's by s·s: the two powers never meet,
        # although both hold 0 at n = 0, and p(0) loops.
        text = (
            "%query: p(i).\np(X) :- q(X), r(X), p(X).\n"
            "q(s(X)) :- q(X).\nq(0).\nr(s(s(X))) :- r(X).\nr(0).\n"
        )
        assert outcome(text) == ("unknown", "fixpoint", 0)
        assert loops(text, "p(0)")

    def test_clash_add_le(self):
        # README "Scope": "unification of families uses one canonical
        # representative per side" (a power against concrete layers of its
        # own context).  ROADMAP item 5.  add binds Y to s^n(0), so
        # le(s(Y), Z) meets le's family with one concrete layer above the
        # power.
        text = (
            "%query: while(i,i).\n"
            "while(X, Y) :- add(X, Y, Z), le(s(Y), Z), while(Z, s(Y)).\n"
            + GT + LE + ADD + MUL
        )
        assert outcome(text) == ("unknown", "fixpoint", 0)
        assert loops(text, "while(s(0),0)")

    def test_growing_list_program_is_out_of_reach(self):
        # README "Scope": "only families whose bindings iterate ground
        # 1-contexts are kept" (islist-grow).  ROADMAP item 7.
        # programs/islist-grow.pl: isList's context cons(X, #1) captures a
        # variable, so no seed is built and nothing is derived.
        assert outcome(ISLIST_GROW) == ("unknown", "fixpoint", 0)
        assert loops(ISLIST_GROW, "while(0,nil)")

    def test_g_loop(self):
        # README "Scope": "detection asks for a pump".  ROADMAP item 6.
        # The one family g(s^n(X)) => g(g(s^n(X))) loops at n = 0, but its
        # right side is no shifted instance of its left side at every n.
        text = "%query: g(i).\ng(X) :- h(X), g(g(X)).\nh(s(X)) :- h(X).\nh(Y).\n"
        assert outcome(text) == ("unknown", "fixpoint", 1)
        assert loops(text, "g(0)")

    def test_factseed(self):
        # README "Scope": "a fact of a predicate that has no one-atom
        # recursive rule seeds no closing family".  ROADMAP item 11.
        text = "%query: p(i).\np(X) :- q(X), p(X).\nq(a).\n"
        assert outcome(text) == ("unknown", "fixpoint", 0)
        assert loops(text, "p(a)")

    def test_bodydiv(self):
        # README "Scope": "divergence inside a body atom of another
        # predicate is not reported".  ROADMAP item 11.  Queried on q,
        # the same program is Proven.
        text = "%query: p(i).\np(X) :- q(X), p(s(X)).\nq(X) :- q(X).\n"
        assert outcome(text) == ("unknown", "fixpoint", 0)
        assert loops(text, "p(c0)")
        assert outcome(text.replace("%query: p(i).", "%query: q(i).")) == ("proven", None, 1)

    @pytest.mark.parametrize("rounds", [3, 10])
    def test_shift_at_the_cap(self, rounds):
        # README "Scope": "saturation is budget-bounded".  ROADMAP item 8.
        # A terminating control that stores f(s^k(X),Y) => f(X,s^k(Y)) for
        # k = 1, 2, one per round; the second grows the first by a ground
        # layer, so round 2 also stores their induced family
        # f(s^(n+1)(X),Y) => f(X,s^(n+1)(Y)), which covers all that round 3
        # derives: a fixpoint with 3 families, whatever the cap.
        text = "%query: f(i,i).\nf(s(X), Y) :- f(X, s(Y)).\nf(0, Y).\n"
        program = parse_program(text)
        out = prove(program, program.queries[0], UnfoldBudget(max_iterations=rounds))
        assert (out.status, out.reason, out.unfolded) == ("unknown", "fixpoint", 3)
        assert not loops(text, "f(s(s(s(0))),0)")

    @pytest.mark.parametrize("rounds", [3, 10])
    def test_len_at_the_cap(self, rounds):
        # README "Scope": "saturation is budget-bounded".  ROADMAP items 7
        # and 8.  len stores len(cons^k, s^k(N)) => len(L, N) for every k,
        # one per round: its growing list cell holds a variable, so no
        # family is induced, and it stops at the round cap.
        text = "%query: len(i,i).\nlen(nil, 0).\nlen(cons(X, L), s(N)) :- len(L, N).\n"
        program = parse_program(text)
        out = prove(program, program.queries[0], UnfoldBudget(max_iterations=rounds))
        assert (out.status, out.reason, out.unfolded) == ("unknown", "iteration-cap", rounds)
        assert not loops(text, "len(cons(0,cons(0,nil)),s(s(0)))")
