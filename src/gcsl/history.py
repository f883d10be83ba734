"""Reduction histories as diagrams.

A history records one reduction as a list of substitution events with
letter-level provenance: each event consumes a block of letters and
produces fresh ones.  From the provenance we compute the diagram
geometry (exact rational widths and horizontal intervals, generations,
substitution lines) that :func:`gcsl.textio.format_diagram` draws, the
precedence order between substitutions as a closure matrix, built in one
pass that keeps each event's predecessors as an int bit set, swap moves
between equivalent reductions (each event keeping its rule's anchor),
the canonical left-first reordering, which one left-to-right replay of
the letters finds without any geometry, and reorderings that pull one
set of events before another by adjacent swaps alone.

The *precedence* order is generated by "consumes a letter produced by".
Two precedence-incomparable events may still not commute: a rule producing
the empty word can delete the letters that separated two blocks, making
a later substitution's block contiguous only after the deletion, and an
anchored rule may hold its anchor only at its own time.
:func:`swap_adjacent` decides independence of two adjacent events,
covering both cases.  The *dependency* order is whatever it refuses; no
code builds that order as a graph.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Anchor, Word, anchor_ok
from .nca import Move, NcaSystem


class Event(NamedTuple):
    """One substitution: which rule fired where, and letter provenance.

    Letter ids index into ``History.symbols``; ``consumed`` is the
    contiguous block of letters the rule's lhs matched, ``produced`` the
    letters its rhs introduced (empty for erasing rules).
    """

    rule_index: int
    position: int
    consumed: tuple[int, ...]
    produced: tuple[int, ...]


class History:
    """A start word, the events that reduce it, and the symbol of each
    letter id, in id order.  Read-only; ``len`` counts the events."""

    __slots__ = ("system", "start", "events", "symbols")

    def __init__(self, system: NcaSystem, start: Word, events: tuple[Event, ...], symbols: Word):
        for name, value in zip(History.__slots__, (system, start, events, symbols)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"a History is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return History, (self.system, self.start, self.events, self.symbols)

    def __eq__(self, other):
        return self.__reduce__() == other.__reduce__() if type(other) is History else NotImplemented

    def __hash__(self):
        return hash(self.__reduce__())

    def __len__(self):
        return len(self.events)

    def __repr__(self):
        return f"History({', '.join(f'{n}={getattr(self, n)!r}' for n in History.__slots__)})"


def from_moves(system: NcaSystem, start: Word, moves) -> History:
    """Build a history by replaying moves, ``Move``s or ``(rule, position)``
    pairs, checking legality at each step; produced letters get fresh ids."""
    row = list(range(len(start)))
    symbols = list(start)
    events = []
    for i, p in moves:
        rule = system.rules[i] if 0 <= i < len(system.rules) else None
        k = len(rule.lhs) if rule is not None else 0
        consumed = tuple(row[p:p + k])
        if not (rule is not None and 0 <= p
                and tuple(map(symbols.__getitem__, consumed)) == rule.lhs
                and anchor_ok(rule.anchor, p, k, len(row))):
            raise ValueError(f"illegal move {Move(i, p)} on {tuple(map(symbols.__getitem__, row))}")
        produced = tuple(range(len(symbols), len(symbols) + len(rule.rhs)))
        symbols.extend(rule.rhs)
        row[p:p + k] = produced
        events.append(Event(i, p, consumed, produced))
    return History(system, tuple(start), tuple(events), tuple(symbols))


def moves_of(h: History) -> list[Move]:
    return [Move(e.rule_index, e.position) for e in h.events]


def rows(h: History) -> list[list[int]]:
    """Letter ids present at each time, from the start row to the last."""
    row = list(range(len(h.start)))
    out = [list(row)]
    for e in h.events:
        row[e.position:e.position + len(e.consumed)] = e.produced
        out.append(list(row))
    return out


def words_of(h: History) -> list[Word]:
    return [tuple(map(h.symbols.__getitem__, row)) for row in rows(h)]


# a string, so that importing this module does not import fractions
Interval = "tuple[Fraction, Fraction]"


class Geometry(NamedTuple):
    widths: tuple[Fraction, ...]        # per letter id
    generations: tuple[int, ...]        # per letter id
    intervals: tuple[Interval, ...]     # per letter id, half-open
    lines: tuple[Interval, ...]         # per event: span of the consumed block


def geometry(h: History) -> Geometry:
    """Exact diagram geometry.  Initial letters get unit width and
    consecutive unit intervals; the letters an event produces split the
    consumed block's span into equal parts, one generation deeper, and a
    single produced letter takes the span itself."""
    from fractions import Fraction  # imported only here, as it adds to every start-up

    n0, rest = len(h.start), [None] * (len(h.symbols) - len(h.start))
    ends = [Fraction(i) for i in range(n0 + 1)]
    widths: list = [Fraction(1)] * n0 + rest
    gens: list = [0] * n0 + rest
    intervals: list = list(zip(ends, ends[1:])) + rest
    lines: list[Interval] = []
    for e in h.events:
        lo = intervals[e.consumed[0]][0]
        hi = intervals[e.consumed[-1]][1]
        lines.append((lo, hi))
        gen = 1 + max(gens[c] for c in e.consumed)
        if len(e.produced) == 1:
            (lid,) = e.produced
            widths[lid], gens[lid], intervals[lid] = hi - lo, gen, (lo, hi)
        elif e.produced:
            share = (hi - lo) / len(e.produced)
            for j, lid in enumerate(e.produced):
                widths[lid], gens[lid] = share, gen
                intervals[lid] = (lo + j * share, lo + (j + 1) * share)
    return Geometry(tuple(widths), tuple(gens), tuple(intervals), tuple(lines))


def precedence(h: History) -> tuple[tuple[bool, ...], ...]:
    """The partial order generated by "consumes a letter produced by", as
    the matrix ``before`` of its closure: ``before[i][j]`` says that event
    ``i`` precedes event ``j``.  One pass in event order gives each event
    its predecessors as an int bit set: the producers of the letters it
    consumes, together with their own predecessors."""
    producer: dict[int, int] = {}
    preds: list[int] = []
    for j, e in enumerate(h.events):
        bits = 0
        for c in e.consumed:
            i = producer.get(c)
            if i is not None:
                bits |= preds[i] | 1 << i
        preds.append(bits)
        for lid in e.produced:
            producer[lid] = j
    n = len(preds)
    return tuple(tuple(bool(preds[j] >> i & 1) for j in range(n)) for i in range(n))


def swap_adjacent(h: History, i: int) -> History:
    """Exchange events i and i+1; they must be independent (neither feeds
    the other, and the earlier one must not delete letters separating the
    later one's block), and each must keep its rule's anchor at its new
    time."""
    if not 0 <= i < len(h.events) - 1:
        raise IndexError(f"no adjacent pair at {i}")
    e1, e2 = h.events[i], h.events[i + 1]
    if set(e1.produced) & set(e2.consumed):
        raise ValueError(f"events {i} and {i + 1} are order-dependent")
    d1 = len(e1.produced) - len(e1.consumed)
    d2 = len(e2.produced) - len(e2.consumed)
    if e2.position >= e1.position + len(e1.produced):
        p2, p1 = e2.position - d1, e1.position
    elif e2.position + len(e2.consumed) <= e1.position:
        p2, p1 = e2.position, e1.position + d2
    else:
        # e2's block straddles the letters e1 erased
        raise ValueError(f"events {i} and {i + 1} are order-dependent")
    a1 = h.system.rules[e1.rule_index].anchor
    a2 = h.system.rules[e2.rule_index].anchor
    if a1 is not Anchor.NONE or a2 is not Anchor.NONE:  # the row length costs a pass
        n = len(h.start) + sum(len(e.produced) - len(e.consumed) for e in h.events[:i])
        if not (anchor_ok(a2, p2, len(e2.consumed), n)
                and anchor_ok(a1, p1, len(e1.consumed), n + d2)):
            raise ValueError(f"swapping events {i} and {i + 1} breaks an anchor")
    events = list(h.events)
    events[i] = Event(e2.rule_index, p2, e2.consumed, e2.produced)
    events[i + 1] = Event(e1.rule_index, p1, e1.consumed, e1.produced)
    return History(h.system, h.start, tuple(events), h.symbols)


def _canonical_moves(h: History) -> list[tuple[int, int]]:
    """The ``(rule, position)`` pairs of the canonical order, unchecked.  One
    left-to-right replay: letters are pushed onto a stack one at a time, an
    event fires as soon as its consumed block is the top of the stack and
    its anchor holds, and the letters it produces are read next."""
    rules = h.system.rules
    waiting = {e.consumed[-1]: e for e in h.events}  # each letter is consumed once
    unread = list(range(len(h.start)))[::-1]  # next letter last
    stack: list[int] = []
    moves = []
    while unread:
        stack.append(unread.pop())
        while stack and (e := waiting.get(stack[-1])) is not None:
            k = len(e.consumed)
            pos = len(stack) - k
            if (tuple(stack[pos:]) != e.consumed
                    or not anchor_ok(rules[e.rule_index].anchor, pos, k, len(stack) + len(unread))):
                break
            del waiting[e.consumed[-1]], stack[pos:]
            moves.append((e.rule_index, pos))
            unread.extend(reversed(e.produced))
    if waiting:
        raise ValueError(f"{len(waiting)} of {len(h.events)} events never fire: "
                         "the history does not replay")
    return moves


def canonicalize(h: History) -> History:
    """The unique equivalent history that always fires the leftmost event
    whose block is in the word and whose anchor holds: :func:`_canonical_moves`
    finds the order, and :func:`from_moves` builds and checks it.  Idempotent,
    and constant on swap-equivalence classes.  The deterministic pass
    (``nca._greedy``) fires events in this order, so ``trace --canonical``
    changes nothing for a word that the pass accepts."""
    return from_moves(h.system, h.start, _canonical_moves(h))


def equivalent(h1: History, h2: History) -> bool:
    """Same system, same start word, and mutually reachable by swaps of
    adjacent independent substitutions (decided by comparing canonical
    orders, without re-checking the moves)."""
    if h1.system != h2.system or h1.start != h2.start:
        return False
    return _canonical_moves(h1) == _canonical_moves(h2)


def reorder_with_swaps(h: History, first, second) -> tuple[History, list[int]]:
    """Like :func:`reorder_before`, also returning the indices of the
    adjacent swaps performed (for replay checks).  Events of ``first`` are
    pulled left by adjacent swaps; an event that refuses to let a pulled
    one pass must precede it, so it is pulled too.  At the fixed point the
    pulled events precede all others, and both groups keep their order."""
    first, second = set(first), set(second)
    n = len(h.events)
    for s in first | second:
        if not 0 <= s < n:
            raise IndexError(f"no event {s}")
    if first & second:
        raise ValueError("event sets overlap")
    pulled = set(first)
    ids = list(range(n))  # original index of the event at each time
    swaps = []
    changed = True
    while changed:
        changed = False
        for t in range(n - 1):
            if ids[t + 1] in pulled and ids[t] not in pulled:
                changed = True
                try:
                    h = swap_adjacent(h, t)
                except ValueError as err:
                    if ids[t] in second:
                        raise ValueError(f"event {ids[t]} must precede event {ids[t + 1]}; "
                                         f"swap at time {t}: {err}") from None
                    pulled.add(ids[t])
                else:
                    ids[t], ids[t + 1] = ids[t + 1], ids[t]
                    swaps.append(t)
    return h, swaps


def reorder_before(h: History, first, second) -> History:
    """An equivalent history in which every event of ``first`` precedes
    every event of ``second``.  The two sets must be disjoint, and no event
    of ``second`` may have to precede an event of ``first``: an event of
    ``second`` that ``swap_adjacent`` will not move past one that must go
    first raises ``ValueError`` with the swap's reason."""
    return reorder_with_swaps(h, first, second)[0]
