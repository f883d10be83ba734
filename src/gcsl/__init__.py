"""Length-reducing rewriting systems (non-deterministic Cannon's
algorithms), growing context-sensitive grammars, the constructive
conversions between them, and the reduction-history calculus."""

from .core import (
    Alphabet, Anchor, Symbol, ValidationError, Word, splice, word, word_str,
)
from .grammar import Grammar, Production
from .nca import Budget, Decision, NcaSystem, Rule, Status
from .transforms import deanchor, gcsg_to_nca, nca_to_gcsg

__all__ = [
    "Alphabet", "Anchor", "Symbol", "ValidationError", "Word", "splice", "word",
    "word_str", "Grammar", "Production", "Budget", "Decision", "NcaSystem",
    "Rule", "Status", "deanchor", "gcsg_to_nca", "nca_to_gcsg",
]
