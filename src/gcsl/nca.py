"""Non-deterministic Cannon's algorithms: strictly length-reducing,
optionally anchored rewriting systems, and the exhaustive decision engine.

A system accepts a terminal word iff some sequence of rule applications
reduces it to the empty word.  Every rule strictly shortens the word, so
depth-first search with a memo set of dead words is exhaustive and
terminates.  :func:`decide` tries four steps in order: a shared memo of
dead words; one deterministic left-to-right pass, Goodman and Shapiro's
Cannon's algorithm, which accepts many words in linear time with one step
per letter of a keyword automaton over the left-hand sides, whose states
are built on first use and held by the system's rule index; a test that
rejects a word whose letter counts, once the pass stops, lie outside the
lattice the rules span, since every rule moves them by one of its rows;
and the search, which decides whatever is left.  Read right to left, the
rules generate the accepted words from the empty word:
:func:`enumerate_language` computes that closure, for grammars too.
"""

from __future__ import annotations

import enum
import functools
import threading
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .core import Alphabet, Anchor, ValidationError, Word, anchor_ok, occurs_at, splice

ENUMERATION_GUARD = 12
# the most words one search memo or one enumeration holds, and the most
# productions one conversion builds; each stops at more
MAX_MEMO = 10**6


class BudgetExceededError(Exception):
    """Raised when a search passes ``max_nodes``, or a memo, an enumeration
    or a conversion :data:`MAX_MEMO`."""


@dataclass(frozen=True)
class Budget:
    """The most words one search expands; the deterministic pass is unmetered."""

    max_nodes: int = 10**6


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class Rule:
    lhs: Word
    rhs: Word
    anchor: Anchor = Anchor.NONE

    def __post_init__(self):
        object.__setattr__(self, "lhs", tuple(self.lhs))
        object.__setattr__(self, "rhs", tuple(self.rhs))
        if not self.lhs:
            raise ValueError("empty left hand side")


class Move(NamedTuple):
    rule_index: int
    position: int


# a Move from a (rule index, position) pair, at about half the cost of Move._make
_move = functools.partial(tuple.__new__, Move)


class PassAutomaton:
    """The keyword automaton of a rule tuple's left-hand sides (Aho and
    Corasick, CACM 1975), which the deterministic pass (:func:`_greedy`)
    walks one step per letter.  A state, numbered by an int, is the longest
    suffix of the pass's stack that is a prefix of some left-hand side;
    ``words`` holds these prefixes, the empty one first.  Every left-hand
    side that ends the stack also ends its state's prefix, so
    ``candidates`` lists, per state, the rewrites that may apply at the top
    of the stack, in the pass's order: longest first, anchored before
    unanchored at equal length, lowest index first, and ending at the first
    unanchored one, which always applies.  Each is a (rule index, anchor,
    left-hand-side length, right-hand side reversed) tuple.

    The first pass reads every left-hand side once, into ``own``, which
    maps each prefix of one to the rewrites of that left-hand side alone.
    After that a state is built the first time the pass reaches it, and
    ``step`` maps each state's letters seen so far to the next state.
    States and transitions are added under ``lock``, and a transition only
    once its state is whole, so passes in several threads can share one
    automaton."""

    __slots__ = ("rules", "by_len", "lock", "words", "own", "ids", "candidates", "step")

    def __init__(self, rules, by_len):
        self.rules = rules
        self.by_len = by_len
        self.lock = threading.Lock()  # held while a state or a transition is added
        self.words: list = []  # the other tables are made with state 0

    def __reduce__(self):
        # a copy or a pickle starts with no states, as the lock cannot be copied
        return PassAutomaton, (self.rules, self.by_len)

    def start(self) -> None:
        """Build ``own`` and state 0, the empty prefix, unless built.  No
        left-hand side is empty, so state 0 has no candidates."""
        with self.lock:
            if not self.words:
                rules = self.rules
                own = {(): ()}
                for k, anchored, free in self.by_len:
                    for lhs, hits in anchored.items():
                        own[lhs] = tuple((i, anchor, k, rules[i].rhs[::-1]) for i, anchor in hits)
                    for lhs, hits in free.items():
                        i = hits[0]
                        own[lhs] = own.get(lhs, ()) + ((i, Anchor.NONE, k, rules[i].rhs[::-1]),)
                for lhs in list(own):
                    for j in range(1, len(lhs)):
                        own.setdefault(lhs[:j], ())
                self.own = own
                self.ids = {(): 0}
                self.candidates = [()]
                self.step = [{}]
                self.words.append(())  # last: a pass that finds state 0 finds all of it

    def follow(self, state: int, letter) -> int:
        """The state after ``letter`` is pushed in ``state``: the longest
        suffix of its prefix and ``letter`` that is a prefix itself, built
        if it is new."""
        self.lock.acquire()  # not a with block, which costs twice as much
        try:
            prefix = self.words[state] + (letter,)
            own = self.own
            while prefix not in own:
                prefix = prefix[1:]
            nxt = self.ids.get(prefix)
            if nxt is None:
                out = ()
                for j in range(len(prefix)):  # the suffixes, longest first
                    rewrites = own.get(prefix[j:])
                    if rewrites:
                        out += rewrites
                        if rewrites[-1][1] is Anchor.NONE:
                            break
                nxt = len(self.words)
                self.candidates.append(out)
                self.step.append({})
                self.ids[prefix] = nxt
                self.words.append(prefix)
            self.step[state][letter] = nxt
        finally:
            self.lock.release()
        return nxt


class RuleIndex(NamedTuple):
    """A rule tuple indexed by left-hand side.  ``by_len`` pairs each
    left-hand-side length ``k``, longest first, with two tables: one maps
    each anchored left-hand side of length ``k`` to the indices of the
    rules that have it, each paired with its anchor, and the other maps
    each unanchored one to the indices of its rules.  A table is empty
    when no rule of that kind has length ``k``.  ``free_len`` holds each
    rule's left-hand-side length if it is unanchored and 0 if not.
    ``automaton`` belongs to this index alone and starts with no states."""

    rules: tuple[Rule, ...]
    free_len: tuple[int, ...]
    by_len: tuple[tuple[int, dict, dict], ...]
    automaton: PassAutomaton


def index_rules(rules: tuple[Rule, ...]) -> RuleIndex:
    """Index ``rules`` by left-hand side."""
    free: dict = {}
    anchored: dict = {}
    for i, r in enumerate(rules):
        if r.anchor is Anchor.NONE:
            table = free.setdefault(len(r.lhs), {})
            table[r.lhs] = table.get(r.lhs, ()) + (i,)
        else:
            table = anchored.setdefault(len(r.lhs), {})
            table[r.lhs] = table.get(r.lhs, ()) + ((i, r.anchor),)
    free_len = tuple(len(r.lhs) if r.anchor is Anchor.NONE else 0 for r in rules)
    by_len = tuple((k, anchored.get(k, {}), free.get(k, {}))
                   for k in sorted(free.keys() | anchored.keys(), reverse=True))
    return RuleIndex(rules, free_len, by_len, PassAutomaton(rules, by_len))


@dataclass(frozen=True)
class NcaSystem:
    """A rewriting system whose rules are strictly length-reducing and
    written over its working alphabet; construction raises
    :class:`ValidationError` listing every rule that is not."""

    alphabet: Alphabet
    rules: tuple[Rule, ...]

    def __post_init__(self):
        # duplicate rules are permitted on input but collapse to one
        object.__setattr__(self, "rules", tuple(dict.fromkeys(self.rules)))
        violations = _validate(self)
        if violations:
            raise ValidationError(violations)

    @functools.cached_property
    def _index(self) -> RuleIndex:
        """The rules indexed by left-hand side, built on first use."""
        return index_rules(self.rules)

    @functools.cached_property
    def _growing(self) -> tuple:
        """The rules read right to left, built on first use: per effect on a
        word, (growth, change in non-terminal count, index of the rules
        ``rhs -> lhs``, erased words to insert), anchors read on the shorter word."""
        terminals = self.alphabet.terminals
        groups: dict = {}
        for r in self.rules:
            nts = sum(s not in terminals for s in r.lhs) - sum(s not in terminals for s in r.rhs)
            rules, inserts = groups.setdefault((len(r.lhs) - len(r.rhs), nts), ([], []))
            if r.rhs:
                rules.append(Rule(r.rhs, r.lhs, r.anchor))
            else:
                inserts.append((r.lhs, r.anchor))
        return tuple((*key, index_rules(tuple(rs)), tuple(us)) for key, (rs, us) in groups.items())

    @functools.cached_property
    def _lattice(self) -> tuple[tuple, tuple]:
        """The lattice L spanned by the rows ``count(r.lhs) - count(r.rhs)``,
        built on first use: the working symbols in column order, and an
        echelon basis of L as (pivot column, row) pairs, in column order,
        each row zero before its pivot and positive at it.  A rule changes
        a word's count vector by minus its row, so every word that reduces
        to the empty word has its count vector in L (Cohen, *A Course in
        Computational Algebraic Number Theory*, 1993, §2.4)."""
        symbols = sorted(self.alphabet.working)
        column = {s: j for j, s in enumerate(symbols)}
        rows: dict = {}  # distinct rows, in rule order
        for r in self.rules:
            row = [0] * len(symbols)
            for s in r.lhs:
                row[column[s]] += 1
            for s in r.rhs:
                row[column[s]] -= 1
            rows[tuple(row)] = None
        pivots: dict = {}
        for row in rows:
            for j in range(len(row)):
                if not row[j]:
                    continue
                pivot = pivots.get(j)
                if pivot is None:
                    pivots[j] = row if row[j] > 0 else [-x for x in row]
                    break
                # Euclid on column j by unimodular row steps: the pivot row
                # ends with the gcd there, and the other row with zero
                while row[j]:
                    q = row[j] // pivot[j]
                    row = [x - q * p for x, p in zip(row, pivot)]
                    if row[j]:
                        pivot, row = row, pivot
                pivots[j] = pivot
        return tuple(symbols), tuple((j, tuple(row)) for j, row in sorted(pivots.items()))


class Status(enum.Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class Decision:
    status: Status
    # sequence of moves reducing the input to the empty word, on acceptance
    witness: Optional[tuple[Move, ...]] = None

    @property
    def accepted(self) -> bool:
        return self.status is Status.ACCEPTED


def _validate(sys: NcaSystem) -> list[str]:
    """All invariant violations of the system; empty means valid."""
    violations = []
    working = sys.alphabet.working
    for i, r in enumerate(sys.rules):
        if len(r.lhs) <= len(r.rhs):
            violations.append(f"rule {i}: not length-reducing ({len(r.lhs)} <= {len(r.rhs)})")
        for s in r.lhs + r.rhs:
            if s not in working:
                violations.append(f"rule {i}: symbol outside working alphabet: {s}")
    return violations


def _scan(by_len, w: Word, lo: int, hi: int, out: list) -> None:
    """Append to ``out`` the unanchored moves of ``w`` whose windows meet
    ``w[lo:hi]``, or cross the gap before ``lo`` when ``lo == hi``: one
    dict lookup per window of each left-hand-side length."""
    n = len(w)
    for k, _, table in by_len:
        if not table:
            continue
        get = table.get
        for pos in range(max(lo - k + 1, 0), min(hi, n - k + 1)):
            hits = get(w[pos:pos + k])
            if hits:
                for i in hits:
                    out.append((i, pos))


def _ends(by_len, w: Word, out: list) -> None:
    """Append to ``out`` the anchored moves of ``w``: an anchored window
    starts at 0 or ends at ``len(w)``, so two lookups per length suffice."""
    n = len(w)
    for k, table, _ in by_len:
        if k > n or not table:
            continue
        for pos in (0, n - k) if k < n else (0,):
            for i, anchor in table.get(w[pos:pos + k], ()):
                if anchor_ok(anchor, pos, k, n):
                    out.append((i, pos))


def _moves(index: RuleIndex, w: Word) -> list[tuple[int, int]]:
    """All applicable (rule, position) pairs, in lexicographic order: one
    dict lookup per window of each unanchored left-hand-side length, and
    two per anchored one.  The pairs are plain tuples, as building a
    :class:`Move` costs many times more; :func:`legal_moves` and search
    witnesses wrap them."""
    return _derive(index, (), w, 0, 0, len(w))


def _derive(index: RuleIndex, moves: list, child: Word, p: int, lhs_len: int,
            rhs_len: int) -> list[tuple[int, int]]:
    """The moves of ``child``, in lexicographic order, derived from the
    ``moves`` of its parent, in any order, which ``child`` is with the
    ``lhs_len`` letters at ``p`` replaced by ``rhs_len`` letters.  Moves
    of unanchored rules whose windows lie left of the replaced letters
    are kept, those right of them shift by ``rhs_len - lhs_len``, and only
    the windows that meet the new letters, or the gap where the old ones
    were, are looked up.  Anchored moves are looked up afresh at the two
    ends, since a shorter word can bring a kept window to either end."""
    free_len = index.free_len
    right = p + lhs_len  # parent windows from here on lie right of the splice
    shift = rhs_len - lhs_len
    out = []
    for m in moves:
        i, q = m
        k = free_len[i]
        if k:
            if q + k <= p:
                out.append(m)
            elif q >= right:
                out.append((i, q + shift))
    _scan(index.by_len, child, p, p + rhs_len, out)
    _ends(index.by_len, child, out)
    out.sort()
    return out


def legal_moves(sys: NcaSystem, w: Word) -> list[Move]:
    """All applicable (rule, position) pairs, in lexicographic order."""
    return list(map(_move, _moves(sys._index, tuple(w))))


def apply_move(sys: NcaSystem, w: Word, m: Move) -> Word:
    w = tuple(w)
    rule = sys.rules[m.rule_index] if 0 <= m.rule_index < len(sys.rules) else None
    if rule is None or not occurs_at(w, rule.lhs, m.position, rule.anchor):
        raise ValueError(f"illegal move {m} on {w}")
    return splice(w, m.position, len(rule.lhs), rule.rhs)


def _search(index: RuleIndex, w: Word, budget: Budget, memo: Optional[set]) -> Decision:
    """Exhaustive DFS over rule applications for a reduction of ``w`` to
    the empty word, the one goal of NCA decide and grammar membership,
    expanding at most ``budget.max_nodes`` words.  ``memo`` collects words
    that do not reduce to it, at most :data:`MAX_MEMO`, and may be shared
    across calls on the same rule set; ``None`` starts a fresh one, and a
    root already in it is searched again.  The path lives on an explicit
    stack, so no recursion limit bounds its depth.

    The root's moves come from a full scan (:func:`_moves`); each child's
    are derived from its parent's (:func:`_derive`), which looks up only
    the windows near the rewritten letters.  Moves are tried in
    lexicographic order."""
    rules = index.rules
    if not w:
        return Decision(Status.ACCEPTED, ())
    if memo is None:
        memo = set()
    nodes = 0
    stack: list = []  # (word, its sorted moves, iterator over untried ones), root first
    path: list = []  # the move leading to each stack entry but the root
    word = w  # the next word to expand, if any
    while True:
        if word is not None:
            nodes += 1
            if nodes > budget.max_nodes:
                return Decision(Status.BUDGET_EXCEEDED)
            if stack:
                i, p = path[-1]
                r = rules[i]
                moves = _derive(index, stack[-1][1], word, p, len(r.lhs), len(r.rhs))
            else:
                moves = _moves(index, word)
            stack.append((word, moves, iter(moves)))
        parent, _, untried = stack[-1]
        word = None
        for m in untried:
            i, p = m
            r = rules[i]
            child = splice(parent, p, len(r.lhs), r.rhs)
            if not child:
                path.append(m)
                return Decision(Status.ACCEPTED, tuple(map(_move, path)))
            if child not in memo:
                path.append(m)
                word = child
                break
        else:
            if len(memo) >= MAX_MEMO:
                return Decision(Status.BUDGET_EXCEEDED)
            memo.add(parent)
            stack.pop()
            if not stack:
                return Decision(Status.REJECTED)
            path.pop()


def _in_lattice(sys: NcaSystem, w: Word) -> bool:
    """Does the count vector of ``w`` lie in ``sys._lattice``?  Reduced by
    each pivot row in turn, it must be divisible at the pivot and end as
    zero."""
    symbols, pivots = sys._lattice
    counts = Counter(w)
    v = [counts[s] for s in symbols]
    for j, row in pivots:
        q, rest = divmod(v[j], row[j])
        if rest:
            return False
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def _greedy(index: RuleIndex, w: Word) -> tuple[list[tuple[int, int]], Word]:
    """One deterministic left-to-right pass over ``w``, Cannon's algorithm
    made from the rules: letters move from the unread input onto a stack,
    and after each push, and after each erase, the longest left-hand side
    that is a suffix of the stack is rewritten, an anchored rule before an
    unanchored one of the same length, the lowest index first.  Anchors
    are checked against the whole word, the stack then the unread letters.
    A rewrite's letters go back onto the unread input.  Each rewrite is a
    legal move that shortens the word, so the pass makes at most ``len(w)``
    of them, needs no budget, and returns its moves and the word it stopped
    at: when that is the empty word, the moves are a witness.

    The pass walks ``index.automaton`` (:class:`PassAutomaton`), one step
    per pushed letter, and keeps the state after each prefix of the stack,
    so a rewrite at ``pos`` goes back to the state stored there.  A state
    is built the first time the pass reaches it, and the index keeps it."""
    automaton = index.automaton
    if not automaton.words:
        automaton.start()
    step, candidates, follow = automaton.step, automaton.candidates, automaton.follow
    unanchored = Anchor.NONE
    stack: list = []
    state = 0
    states = [state]  # the state after each prefix of the stack
    unread = list(reversed(w))
    moves: list = []
    while unread:
        letter = unread.pop()
        nxt = step[state].get(letter)
        state = follow(state, letter) if nxt is None else nxt
        stack.append(letter)
        states.append(state)
        while candidates[state]:  # rewrite at the top of the stack until nothing matches
            top = len(stack)
            for i, anchor, k, rhs in candidates[state]:
                pos = top - k
                if anchor is unanchored or anchor_ok(anchor, pos, k, top + len(unread)):
                    break
            else:
                break
            moves.append((i, pos))
            del stack[pos:], states[pos + 1:]
            state = states[pos]
            if rhs:
                unread.extend(rhs)
                break
    return moves, tuple(stack)


def decide(
    sys: NcaSystem,
    w: Word,
    budget: Budget = DEFAULT_BUDGET,
    *,
    memo: Optional[set] = None,
) -> Decision:
    """Does ``w`` reduce to the empty word?  ``w`` must be a terminal word.
    ``memo``, if given, collects words that do not reduce and may be shared
    across calls on the same system; a word in it is rejected first.  A
    word the deterministic pass (:func:`_greedy`) reduces is accepted with
    that pass's moves as its witness, at any budget, and fills no memo.  A
    word the pass leaves whose count vector lies outside the system's
    lattice (:func:`_in_lattice`) is rejected at any budget and fills no
    memo either.  Each rewrite moves the count vector by one lattice row,
    so that word's vector is in the lattice exactly when ``w``'s is, and
    it is the shorter one to count.  :func:`_search` decides the others
    within ``budget``.
    ``grammar.member`` is this function on the grammar's reversed system."""
    w = tuple(w)
    terminals = sys.alphabet.terminals
    if not terminals.issuperset(w):
        raise ValueError(f"input symbols outside terminal alphabet: {sorted(set(w) - terminals)}")
    if memo is not None and w in memo:
        return Decision(Status.REJECTED)
    moves, rest = _greedy(sys._index, w)
    if not rest:
        return Decision(Status.ACCEPTED, tuple(map(_move, moves)))
    if not _in_lattice(sys, rest):
        return Decision(Status.REJECTED)
    return _search(sys._index, w, budget, memo)


def enumerate_language(sys: NcaSystem, max_len: int) -> set[Word]:
    """All accepted terminal words of length at most ``max_len``: the
    closure of the empty word under the rules read right to left.  Each
    such step grows, so a group of steps is skipped when its results would
    be longer than ``max_len``, or that long with a non-terminal.  Over
    :data:`MAX_MEMO` words raise :class:`BudgetExceededError`."""
    if max_len > ENUMERATION_GUARD:
        raise ValueError(f"max_len {max_len} exceeds enumeration guard {ENUMERATION_GUARD}")
    if max_len < 0:
        return set()
    seen: set[Word] = {()}
    out = {()}
    todo = [((), 0)]  # words to extend, each with its non-terminal count
    while todo:
        w, c = todo.pop()
        n = len(w)
        for grow, dc, index, inserts in sys._growing:
            m, cc = n + grow, c + dc
            if m > max_len or m == max_len and cc:
                continue
            moves: list = []
            _scan(index.by_len, w, 0, n, moves)
            _ends(index.by_len, w, moves)
            rules = index.rules
            children = [w[:p] + rules[i].rhs + w[p + len(rules[i].lhs):] for i, p in moves]
            # an anchored insert can only land at an end of the word
            children += [w[:p] + u + w[p:] for u, anchor in inserts
                         for p in (range(n + 1) if anchor is Anchor.NONE else {0, n})
                         if anchor_ok(anchor, p, grow, m)]
            for child in children:
                if child not in seen:
                    if len(seen) >= MAX_MEMO:
                        raise BudgetExceededError(f"more than {MAX_MEMO} words")
                    seen.add(child)
                    if not cc:
                        out.add(child)
                    if m < max_len:
                        todo.append((child, cc))
    return out
