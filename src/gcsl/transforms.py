"""Constructive conversions between grammars and rewriting systems.

Three language-preserving constructions:

* :func:`deanchor` — compile anchored productions away in one pass: one
  marking function carets every symbol but the start at the word ends, and
  each production is copied once for each end context its anchor allows; a
  grammar with no anchored production is returned unchanged, terminals on
  its left hand sides and all.
* :func:`gcsg_to_nca` — reverse a growing grammar, anchored or not, into
  a length-reducing system with both-anchored erasing rules.
* :func:`nca_to_gcsg` — reverse a rewriting system into an (extended,
  then standard) growing grammar.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .core import Anchor, Symbol, Word
from . import nca
from .grammar import Grammar, Production
from .nca import NcaSystem

CARET = "^"


def _pins(anchor: Anchor) -> tuple[bool, bool]:
    """Which ends of the word a match under ``anchor`` must touch: (left, right)."""
    return anchor in (Anchor.LEFT, Anchor.BOTH), anchor in (Anchor.RIGHT, Anchor.BOTH)


def _check_count(productions: int) -> None:
    """Refuse to build more than :data:`nca.MAX_MEMO` productions."""
    if productions > nca.MAX_MEMO:
        raise nca.BudgetExceededError(f"more than {nca.MAX_MEMO} productions")


def _fresh_or_die(new_names, existing):
    """Refuse decorated names that meet an existing symbol or each other
    (``^`` + ``b^`` and ``^b`` + ``^`` are both ``^b^``): two symbols
    written alike would merge, and the language would change."""
    clash = sorted(set(new_names) & set(existing))
    if clash:
        raise ValueError(f"decorated symbol names collide with existing symbols: {clash}")
    twice = sorted({n for n, count in Counter(new_names).items() if count > 1})
    if twice:
        raise ValueError(f"decorated symbol names collide with each other: {twice}")


def deanchor(g: Grammar) -> Grammar:
    """Compile an extended grammar into a language-equal standard one.

    A grammar with no anchored production is already standard, terminals on
    its left hand sides and all, and is returned as it is.  Otherwise carets
    make the word ends visible: a symbol other than the start, terminal or
    not, is written ``^X`` at the left end, ``X^`` at the right end and
    ``^X^`` as a one-symbol word, by one marking function for both sides.
    Each production, a start production as if anchored at both ends, is
    issued once for each end context its anchor allows (a pinned end is
    touched, any other may or may not be; in the order plain, left, right,
    both), and a terminal at a touched end of the right hand side is issued
    marked, then plain: final, for when no later step rewrites that end.
    Middle symbols are never marked, since every production replaces its
    window by a non-empty word.  At most 16 copies of a production; more than
    :data:`nca.MAX_MEMO` distinct ones raise :class:`nca.BudgetExceededError`.
    """
    if all(p.anchor is Anchor.NONE for p in g.productions):
        return g
    sigma = g.start
    plain = g.alphabet - {sigma}
    new_names = [name for n in plain for name in (CARET + n, n + CARET, CARET + n + CARET)]
    _fresh_or_die(new_names, g.alphabet)

    def mark(w: Word, left: bool, right: bool) -> Word:
        # a plain symbol gains a caret on each side where it touches a given end
        last = len(w) - 1
        return tuple(CARET * (left and i == 0) + s + CARET * (right and i == last)
                     if s in plain else s for i, s in enumerate(w))

    def ends(pinned: bool, end: Word) -> list[tuple[bool, bool]]:
        # (touched, marked) for one end: untouched unless pinned, touched and
        # marked, and touched but plain when the rhs has a terminal there
        return ([] if pinned else [(False, False)]) + [(True, True)] + (
            [(True, False)] if end and end[0] in g.terminals else [])

    productions = []
    for p in g.productions:
        u, v = p.lhs, p.rhs
        pin_left, pin_right = _pins(Anchor.BOTH if u == (sigma,) else p.anchor)
        for (right, v_right), (left, v_left) in itertools.product(
                ends(pin_right, v[-1:]), ends(pin_left, v[:1])):
            productions.append(Production(mark(u, left, right), mark(v, v_left, v_right)))
    productions = tuple(dict.fromkeys(productions))  # count what Grammar keeps
    _check_count(len(productions))
    return Grammar(
        nonterminals=g.nonterminals | frozenset(new_names),
        terminals=g.terminals,
        start=sigma,
        productions=productions,
    )


def gcsg_to_nca(g: Grammar) -> NcaSystem:
    """Reverse a growing grammar (with the empty word in its language)
    into an equivalent length-reducing system: start productions become
    both-anchored erasing rules, listed first, and everything else runs
    backwards, an anchored production as a rule with the same anchor.
    It is ``g._backward``, the same object on every call, which
    :func:`gcsl.grammar.member` decides on."""
    if Production((g.start,), ()) not in g.productions:
        raise ValueError("grammar must contain the start -> empty word production")
    return g._backward


def _fresh_start(taken) -> Symbol:
    if "S" not in taken:
        return "S"
    i = 0
    while f"S{i}" in taken:
        i += 1
    return f"S{i}"


def nca_to_extended_gcsg(sys: NcaSystem) -> Grammar:
    """The extended-grammar intermediate of the system-to-grammar
    conversion.  Erasing rules are compensated by context productions
    x -> xv / x -> vx over the whole working alphabet.  More than
    :data:`nca.MAX_MEMO` productions in all raise
    :class:`nca.BudgetExceededError` before any is built."""
    working = sys.alphabet.working
    terminals = sys.alphabet.terminals
    _check_count(1 + sum(1 if r.rhs else 1 + len(working) * (2 - sum(_pins(r.anchor)))
                         for r in sys.rules))
    sigma = _fresh_start(working)
    order = sorted(working)

    productions = [Production((sigma,), ())]
    for r in sys.rules:
        v, u = r.lhs, r.rhs
        if u != ():
            productions.append(Production(u, v, r.anchor))
            continue
        # v re-grows after a neighbour x unless it must touch the left end,
        # and before x unless it must touch the right end
        pin_left, pin_right = _pins(r.anchor)
        for x in order:
            if not pin_left:
                productions.append(Production((x,), (x,) + v, r.anchor))
            if not pin_right:
                productions.append(Production((x,), v + (x,), r.anchor))
        productions.append(Production((sigma,), v))
    return Grammar(
        nonterminals=(working - terminals) | {sigma},
        terminals=terminals,
        start=sigma,
        productions=tuple(productions),
    )


def nca_to_gcsg(sys: NcaSystem) -> Grammar:
    """Full system-to-grammar conversion: the extended intermediate,
    de-anchored into a standard growing grammar.  A system whose extended
    grammar has no anchored production converts to that grammar as it is."""
    return deanchor(nca_to_extended_gcsg(sys))


def reachable_symbols(g: Grammar) -> frozenset[Symbol]:
    """Symbols occurring in some sentential form derivable from the start
    symbol (a cheap over-approximation by production chaining; useful for
    reporting which decorated symbols a construction never uses)."""
    reached = {g.start}
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            if all(s in reached for s in p.lhs):
                new = set(p.rhs) - reached
                if new:
                    reached |= new
                    changed = True
    return frozenset(reached)
