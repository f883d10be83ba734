"""Growing context-sensitive grammars, plain and extended (anchored).

A grammar is extended exactly when one of its productions is anchored.
It is growing when the start symbol never reappears on a right
hand side and every production either rewrites the start symbol or
strictly increases length.  Membership is decided by running the
reversed productions as a length-reducing rewriting system, a start
production ``S -> v`` becoming the erase ``v -> _ @both``: a non-empty
word is in the language exactly when that system reduces it to the empty
word, and enumerating that system lists the language (``()`` aside).
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

from .core import Alphabet, Anchor, Symbol, ValidationError, Word, check_symbol
from . import nca
from .nca import Budget, Decision, NcaSystem, Rule, Status


# a production is a rule read in the generating direction
Production = Rule


class Grammar(NamedTuple("Grammar", [("nonterminals", frozenset), ("terminals", frozenset),
                                     ("start", Symbol), ("productions", tuple)])):
    """A growing grammar, as defined in the module docstring; construction
    raises :class:`ValidationError` listing every violation.  No
    ``__slots__``: ``_backward`` is cached in the instance dict."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def __new__(cls, nonterminals: frozenset[Symbol], terminals: frozenset[Symbol],
                start: Symbol, productions: tuple[Production, ...]):
        productions = tuple(dict.fromkeys(productions))
        self = tuple.__new__(cls, (nonterminals, terminals, start, productions))
        violations = _validate(self)
        if violations:
            raise ValidationError(violations)
        return self

    @property
    def alphabet(self) -> frozenset[Symbol]:
        return self.nonterminals | self.terminals

    @functools.cached_property
    def _backward(self) -> NcaSystem:
        """The grammar read right to left, built once: the system, over every
        symbol but the start, that :func:`member` decides on and
        :func:`gcsl.transforms.gcsg_to_nca` returns.  The start productions
        ``S -> v`` come first, as ``v -> _ @both`` (``S -> _`` gives none),
        then every other production reversed, in production order.  Every
        non-start production grows, so every reversed one shortens.  An
        erase matches only its own word ``v`` and has a lower index than
        any other rule, so on ``v`` it is the first of the sorted moves."""
        sigma_lhs = (self.start,)
        erases = [Rule(p.rhs, (), Anchor.BOTH) for p in self.productions
                  if p.lhs == sigma_lhs and p.rhs]
        reversals = [Rule(p.rhs, p.lhs, p.anchor) for p in self.productions if p.lhs != sigma_lhs]
        working = self.alphabet - {self.start}
        return NcaSystem(Alphabet(self.terminals, working), tuple(erases + reversals))


def _validate(g: Grammar) -> list[str]:
    """All invariant violations; empty means a valid growing grammar.
    A conversion may build up to :data:`gcsl.nca.MAX_MEMO` productions, so
    the loop over them stays tight."""
    v = []
    alphabet = g.alphabet
    for name in sorted(alphabet | {g.start}, key=repr):
        try:
            check_symbol(name)
        except ValueError as e:
            v.append(str(e))
    overlap = g.nonterminals & g.terminals
    if overlap:
        v.append(f"nonterminals and terminals overlap: {sorted(overlap)}")
    if g.start not in g.nonterminals:
        v.append(f"start symbol {g.start} not a nonterminal")
    sigma = g.start
    sigma_lhs = (sigma,)
    for i, p in enumerate(g.productions):
        lhs, rhs = p.lhs, p.rhs
        for s in lhs + rhs:
            if s not in alphabet:
                v.append(f"production {i}: symbol outside alphabet: {s}")
        start_lhs = lhs == sigma_lhs
        if p.anchor is not Anchor.NONE and start_lhs:
            v.append(f"production {i}: start-symbol production must not be anchored")
        if sigma in lhs and not start_lhs:
            v.append(f"production {i}: start symbol inside a longer lhs")
        if sigma in rhs:
            v.append(f"production {i}: start symbol in rhs")
        if not start_lhs and len(lhs) >= len(rhs):
            v.append(f"production {i}: not growing ({len(lhs)} >= {len(rhs)})")
    return v


def generate_language(g: Grammar, max_len: int) -> set[Word]:
    """All terminal words of length at most ``max_len`` derivable from the
    start symbol: :func:`gcsl.nca.enumerate_language` on ``g._backward``,
    whose rules read right to left are the productions, ``S -> v``
    inserting ``v`` into the empty word, kept only if ``S -> _`` is one."""
    words = nca.enumerate_language(g._backward, max_len)
    if Production((g.start,), ()) not in g.productions:
        words.discard(())
    return words


def member(g: Grammar, w: Word, budget: Budget = nca.DEFAULT_BUDGET,
           *, memo: Optional[set] = None) -> Decision:
    """Is ``w`` in the language of ``g``?  The empty word is a member
    exactly when ``S -> _`` is a production.  Any other word is a member
    exactly when the grammar's reversed system (``Grammar._backward``,
    the object :func:`gcsl.transforms.gcsg_to_nca` returns) reduces it to
    the empty word, so this is :func:`gcsl.nca.decide` on that system,
    whose rules the witness indexes."""
    w = tuple(w)
    if not w:
        eps = Production((g.start,), ()) in g.productions
        return Decision(Status.ACCEPTED, ()) if eps else Decision(Status.REJECTED)
    return nca.decide(g._backward, w, budget, memo=memo)
