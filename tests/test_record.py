"""The prover's records: construction, value equality, hashing, repr,
pickling and copying, and an import that loads no `dataclasses`."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import WHILE_GT_ADD, term
from nonterm.cli import ReportRow, RunConfig
from nonterm.detect import ProofOutcome, PumpData, Witness, prove
from nonterm.pattern import PatternRule
from nonterm.program import DerivationStatus, Program, QueryMode, Rule, parse_program
from nonterm.terms import Symbol, render
from nonterm.unfold import UnfoldBudget, UnfoldStats

SRC = Path(__file__).resolve().parent.parent / "src"

# A fresh interpreter without site-packages or `.pth` hooks, which may load
# modules of their own, imports the package and its command line.
_IMPORT = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import nonterm, nonterm.cli
print(" ".join(m for m in ("dataclasses", "inspect", "fractions") if m in sys.modules))
"""


def test_import_loads_no_dataclasses_inspect_or_fractions():
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _IMPORT], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def _outcome() -> ProofOutcome:
    program = parse_program(WHILE_GT_ADD, "while-gt-add")
    outcome = prove(program, program.queries[0], UnfoldBudget(max_iterations=3))
    assert outcome.proven and isinstance(outcome.witness, Witness)
    return outcome


class TestConstruction:
    """Each record takes its fields by position or keyword, with the
    defaults it always had, and shows them all in its repr."""

    def test_keywords_and_defaults(self):
        head = term("p(X)")
        sym = Symbol("p", 1)
        assert Rule(head=head).body == ()
        assert QueryMode(predicate=sym, modes=("i",)).modes == ("i",)
        assert Program(name="p", rules=(), symbols=(sym,)).queries == ()
        assert PatternRule(lhs=head, rhs=head).source is None
        assert PumpData(k=1, alpha=0).k == 1
        rule = PatternRule(head, head)
        witness = Witness(rule=rule, data=PumpData(1, 0), n=0, term=term("p(0)"))
        assert (witness.rule, witness.n) == (rule, 0)
        outcome = ProofOutcome(witness=None, unfolded=2, time_ms=1.5)
        assert (outcome.reason, outcome.validated, outcome.proven) == (None, None, False)
        assert outcome.status == "unknown"
        row = ReportRow(program="p", rules=1, relations=1, mode="p(i)")
        assert (row.outcome, row.error) == (None, None)
        # A row reads its columns off its outcome; one without reads as an
        # Error row.
        assert (row.witness, row.unfolded, row.time_ms, row.status) == ("?", 0, 0.0, "Error")
        outcome = ProofOutcome(witness=None, unfolded=2, time_ms=1.5, reason="fixpoint")
        row = ReportRow(program="p", rules=1, relations=1, mode="p(i)", outcome=outcome)
        assert (row.witness, row.unfolded, row.time_ms, row.status) == ("?", 2, 1.5, "Unknown-fixpoint")

    @pytest.mark.parametrize(
        "record, shown",
        [
            (UnfoldBudget(), "UnfoldBudget(wall_clock=10.0, max_iterations=10, max_rules=100000)"),
            (
                UnfoldStats(),
                "UnfoldStats(generated=0, subsumed=0, induced=0, iterations=0, stop='fixpoint')",
            ),
            (
                DerivationStatus(reached_bound=True),
                "DerivationStatus(reached_bound=True, empty_reached=False, timed_out=False)",
            ),
            (
                RunConfig(inputs=()),
                "RunConfig(inputs=(), timeout=10.0, max_iterations=10, max_rules=100000, "
                "validate_steps=0, as_json=False, trace=False, dump_binunf=None, "
                "dump_initial=False)",
            ),
            (PumpData(2, Fraction(-1, 2)), "PumpData(k=2, alpha=Fraction(-1, 2))"),
            (
                Program("p", (Rule(term("p(0)")),), (Symbol("p", 1),), (QueryMode(Symbol("p", 1), ("i",)),)),
                "Program(name='p', rules=(p(0).,), symbols=(Symbol('p', 1),), queries=(p(i),))",
            ),
        ],
    )
    def test_repr_names_every_field(self, record, shown):
        assert repr(record) == shown

    def test_stats_count_in_place_and_are_not_hashable(self):
        stats = UnfoldStats()
        stats.generated += 2
        assert stats == UnfoldStats(generated=2)
        with pytest.raises(TypeError):
            hash(stats)


class TestEquality:
    def test_rule_program_and_query_mode_by_value(self):
        a, b = parse_program(WHILE_GT_ADD, "w"), parse_program(WHILE_GT_ADD, "w")
        assert a is not b and a == b and hash(a) == hash(b)
        assert a.rules[0] is not b.rules[0] and a.rules[0] == b.rules[0]
        assert hash(a.rules[0]) == hash(b.rules[0])
        assert a.queries[0] == b.queries[0] and hash(a.queries[0]) == hash(b.queries[0])
        assert a != parse_program(WHILE_GT_ADD, "other")
        # A rule built with its variable set equals one that computes it.
        rule = a.rules[0]
        assert Rule(rule.head, rule.body) == rule
        assert Rule(rule.head, rule.body).vars() == rule.vars()
        assert Rule(rule.head) != Rule(rule.head, rule.body)
        assert QueryMode(Symbol("p", 1), ("i",)) != QueryMode(Symbol("q", 1), ("i",))

    def test_pattern_rule_leaves_source_out(self):
        rule = parse_program("p(s(X)) :- p(X).", "p").rules[0]
        lhs, rhs = term("p(s(X))"), term("p(X)")
        with_source, without = PatternRule(lhs, rhs, rule), PatternRule(lhs, rhs)
        assert with_source == without and hash(with_source) == hash(without)
        assert repr(with_source) == repr(without) == "p(s(X)) => p(X)"
        assert PatternRule(lhs, rhs) != PatternRule(rhs, lhs)

    def test_whole_threshold_equals_its_fraction(self):
        assert PumpData(1, 0) == PumpData(1, Fraction(0))
        assert hash(PumpData(1, 0)) == hash(PumpData(1, Fraction(0)))

    def test_records_of_other_classes_differ(self):
        assert UnfoldBudget(1.0, 2, 3) != (1.0, 2, 3)
        assert UnfoldBudget(1.0, 2, 3) == UnfoldBudget(wall_clock=1.0, max_iterations=2, max_rules=3)
        assert DerivationStatus(False) != UnfoldBudget()


class TestPickleAndCopy:
    def test_outcome_with_a_witness_round_trips(self):
        outcome = _outcome()
        for copied in (pickle.loads(pickle.dumps(outcome)), copy.deepcopy(outcome)):
            assert copied is not outcome and copied == outcome
            assert hash(copied) == hash(outcome)
            assert copied.witness.term == outcome.witness.term
            assert repr(copied.witness) == repr(outcome.witness)
            assert copied.witness.rule.vars() == outcome.witness.rule.vars()

    def test_report_row_round_trips(self):
        outcome = _outcome()
        row = ReportRow("w", 7, 3, "while(i,i)", outcome)
        assert (row.witness, row.status) == (render(outcome.witness.term), "Proven")
        error = ReportRow("bad", None, None, None, error="2:5: expected ')'")
        for r in (row, error):
            assert pickle.loads(pickle.dumps(r)) == r
            assert copy.copy(r) == r and copy.deepcopy(r).to_dict() == r.to_dict()
