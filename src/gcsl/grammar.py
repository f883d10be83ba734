"""Growing context-sensitive grammars, plain and extended (anchored).

A grammar is extended exactly when one of its productions is anchored.
It is growing when the start symbol never reappears on a right
hand side and every production either rewrites the start symbol or
strictly increases length.  Membership is decided by running the
reversed productions as a length-reducing rewriting system, a start
production ``S -> v`` becoming the erase ``v -> _ @both``: a non-empty
word is in the language exactly when that system reduces it to the empty
word.  Language enumeration is a forward breadth-first closure and serves
as the independent oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .core import Alphabet, Anchor, Symbol, ValidationError, Word, check_symbol, splice
from . import nca
from .nca import ENUMERATION_GUARD, Budget, Decision, NcaSystem, Rule, RuleIndex, Status


# a production is a rule read in the generating direction
Production = Rule


@dataclass(frozen=True)
class Grammar:
    """A growing grammar, as defined in the module docstring; construction
    raises :class:`ValidationError` listing every violation."""

    nonterminals: frozenset[Symbol]
    terminals: frozenset[Symbol]
    start: Symbol
    productions: tuple[Production, ...]

    def __post_init__(self):
        object.__setattr__(self, "productions", tuple(dict.fromkeys(self.productions)))
        violations = _validate(self)
        if violations:
            raise ValidationError(violations)

    @property
    def alphabet(self) -> frozenset[Symbol]:
        return self.nonterminals | self.terminals

    @functools.cached_property
    def _forward(self) -> RuleIndex:
        """The productions indexed by left-hand side, built on first use."""
        return nca.index_rules(self.productions)

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
    Conversions build grammars of hundreds of productions, so the loop over
    them stays tight."""
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
    """All terminal words of length <= max_len derivable from the start symbol.

    Breadth-first closure; pruning sentential forms longer than max_len is
    sound because non-start productions strictly grow.
    """
    if max_len > ENUMERATION_GUARD:
        raise ValueError(f"max_len {max_len} exceeds enumeration guard {ENUMERATION_GUARD}")
    sigma = g.start
    terminals = g.terminals
    index = g._forward

    start_word: Word = (sigma,)
    seen = {start_word}
    frontier = [start_word]
    out: set[Word] = set()
    while frontier:
        nxt = []
        for w in frontier:
            if w != start_word:
                assert sigma not in w, "start symbol reappeared in a derivation"
            if w and all(s in terminals for s in w):
                out.add(w)
            if len(w) >= max_len and w != start_word:
                continue  # every successor would exceed max_len
            for i, pos in nca._moves(index, w):
                p = index.rules[i]
                w2 = splice(w, pos, len(p.lhs), p.rhs)
                if len(w2) > max_len:
                    continue
                if w2 == ():
                    out.add(w2)
                elif w2 not in seen:
                    seen.add(w2)
                    nxt.append(w2)
        frontier = nxt
    return out


def member(g: Grammar, w: Word, budget: Budget = nca.DEFAULT_BUDGET,
           *, memo: Optional[set] = None) -> Decision:
    """Is ``w`` in the language of ``g``?  The empty word is a member
    exactly when ``S -> _`` is a production.  Any other word is a member
    exactly when the grammar's reversed system (``Grammar._backward``,
    the object :func:`gcsl.transforms.gcsg_to_nca` returns) reduces it to
    the empty word, so this is :func:`gcsl.nca.decide` on that system,
    whose rules the witness indexes."""
    if w == ():
        eps = Production((g.start,), ()) in g.productions
        return Decision(Status.ACCEPTED, ()) if eps else Decision(Status.REJECTED)
    return nca.decide(g._backward, w, budget, memo=memo)
