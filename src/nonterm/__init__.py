"""Non-termination prover for pure logic programs.

Pipeline: parse a program, seed a set of rule families from its
recursive/base rule pairs, saturate them under pattern unfolding, and stop
at the first family that provably pumps itself; such a family yields a
concrete ground query that starts an infinite leftmost derivation.
"""

from .detect import ProofOutcome, Witness, match_pumping, prove
from .pattern import PatternRule, initial_rules
from .program import Program, parse_program
from .terms import App, Subst, Symbol, Term, Var, mgu, render
from .unfold import UnfoldBudget, saturate

__version__ = "0.1.0"

__all__ = [
    "App",
    "PatternRule",
    "ProofOutcome",
    "Program",
    "Subst",
    "Symbol",
    "Term",
    "UnfoldBudget",
    "Var",
    "Witness",
    "initial_rules",
    "match_pumping",
    "mgu",
    "parse_program",
    "prove",
    "render",
    "saturate",
    "__version__",
]
