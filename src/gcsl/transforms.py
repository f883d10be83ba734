"""Constructive conversions between grammars and rewriting systems.

Four language-preserving constructions:

* :func:`eliminate_terminals` — rewrite a grammar so that no terminal
  occurs in any production lhs, by doubling terminals with tilde twins.
* :func:`deanchor` — compile anchored productions away using three caret
  families of end-marker nonterminals; a grammar with no anchored
  production is only terminal-eliminated.
* :func:`gcsg_to_nca` — reverse a growing grammar, anchored or not, into
  a length-reducing system with both-anchored erasing rules.
* :func:`nca_to_gcsg` — reverse a rewriting system into an (extended,
  then standard) growing grammar.
"""

from __future__ import annotations

import itertools

from .core import Anchor, Symbol, Word
from .grammar import Grammar, Production
from .nca import NcaSystem

TILDE = "~"
CARET = "^"


def tilde(name: Symbol) -> Symbol:
    return TILDE + name


def caret_left(name: Symbol) -> Symbol:
    return CARET + name


def caret_right(name: Symbol) -> Symbol:
    return name + CARET


def caret_both(name: Symbol) -> Symbol:
    return CARET + name + CARET


def _fresh_or_die(new_names, existing):
    clash = sorted(set(new_names) & set(existing))
    if clash:
        raise ValueError(f"decorated symbol names collide with existing symbols: {clash}")


def eliminate_terminals(g: Grammar) -> Grammar:
    """Language-equal grammar whose production left hand sides contain no
    terminals.  Each terminal gains a tilde-decorated nonterminal twin;
    every rhs terminal occurrence is optionally replaced, so a production
    with k terminal occurrences on the right becomes 2^k productions."""
    terminals = g.terminals
    twins = {x: tilde(x) for x in terminals}
    _fresh_or_die(twins.values(), g.alphabet)

    productions = []
    for p in g.productions:
        lhs = tuple(twins.get(s, s) for s in p.lhs)
        choices = [(s, twins[s]) if s in terminals else (s,) for s in p.rhs]
        for rhs in itertools.product(*choices):
            productions.append(Production(lhs, rhs, p.anchor))
    return Grammar(
        nonterminals=g.nonterminals | frozenset(twins.values()),
        terminals=terminals,
        start=g.start,
        productions=tuple(productions),
    )


def deanchor(g: Grammar) -> Grammar:
    """Compile an extended grammar into a language-equal standard one.

    After terminal elimination, end-of-word positions are made visible by
    decorating the outermost nonterminal of every start production's rhs
    with caret markers; anchored productions are then re-issued only in
    their correspondingly decorated forms, so they can fire only at the
    word ends.  The carets serve only to pin anchored productions, so a
    grammar with no anchored production is returned terminal-eliminated,
    without them.
    """
    g = eliminate_terminals(g)
    if all(p.anchor is Anchor.NONE for p in g.productions):
        return g
    sigma = g.start
    plain = g.nonterminals - {sigma}
    left = {n: caret_left(n) for n in plain}
    right = {n: caret_right(n) for n in plain}
    both = {n: caret_both(n) for n in plain}
    new_names = list(left.values()) + list(right.values()) + list(both.values())
    _fresh_or_die(new_names, g.alphabet)

    def mark_l(w: Word) -> Word:
        if w and w[0] in plain:
            return (left[w[0]],) + w[1:]
        return w

    def mark_r(w: Word) -> Word:
        if w and w[-1] in plain:
            return w[:-1] + (right[w[-1]],)
        return w

    def mark_lr(w: Word) -> Word:
        if len(w) == 1 and w[0] in plain:
            return (both[w[0]],)
        return mark_l(mark_r(w))

    # the decorated copies issued for a non-start production, by anchor
    marks = {
        Anchor.NONE: (lambda w: w, mark_l, mark_r, mark_lr),
        Anchor.LEFT: (mark_l, mark_lr),
        Anchor.RIGHT: (mark_r, mark_lr),
        Anchor.BOTH: (mark_lr,),
    }
    sigma_lhs = (sigma,)
    productions = []
    for p in g.productions:
        u, v = p.lhs, p.rhs
        if u == sigma_lhs:
            productions.append(Production(u, mark_lr(v)))
        else:
            productions.extend(Production(mark(u), mark(v)) for mark in marks[p.anchor])
    return Grammar(
        nonterminals=g.nonterminals | frozenset(new_names),
        terminals=g.terminals,
        start=sigma,
        productions=tuple(productions),
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


# how a context production re-grows an erased word v beside a neighbour x,
# by the erasing rule's anchor, which the production keeps: x -> x v puts v
# after x, x -> v x before it
_ERASING_CONTEXT = {
    Anchor.NONE: (lambda x, v: (x,) + v, lambda x, v: v + (x,)),
    Anchor.LEFT: (lambda x, v: v + (x,),),
    Anchor.RIGHT: (lambda x, v: (x,) + v,),
    Anchor.BOTH: (),
}


def nca_to_extended_gcsg(sys: NcaSystem) -> Grammar:
    """The extended-grammar intermediate of the system-to-grammar
    conversion.  Erasing rules are compensated by context productions
    x -> xv / x -> vx over the whole working alphabet."""
    working = sys.alphabet.working
    terminals = sys.alphabet.terminals
    sigma = _fresh_start(working)
    order = sorted(working)

    productions = [Production((sigma,), ())]
    for r in sys.rules:
        v, u = r.lhs, r.rhs
        if u != ():
            productions.append(Production(u, v, r.anchor))
            continue
        for x in order:
            for grow in _ERASING_CONTEXT[r.anchor]:
                productions.append(Production((x,), grow(x, v), r.anchor))
        productions.append(Production((sigma,), v))
    return Grammar(
        nonterminals=(working - terminals) | {sigma},
        terminals=terminals,
        start=sigma,
        productions=tuple(productions),
    )


def nca_to_gcsg(sys: NcaSystem) -> Grammar:
    """Full system-to-grammar conversion: the extended intermediate,
    de-anchored into a standard growing grammar."""
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
