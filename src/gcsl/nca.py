"""Non-deterministic Cannon's algorithms: strictly length-reducing,
optionally anchored rewriting systems, and the exhaustive decision engine.

A system accepts a terminal word iff some sequence of rule applications
reduces it to the empty word.  Every rule strictly shortens the word, so
depth-first search with a memo set of dead words is exhaustive and
terminates.  :func:`decide` tries four steps in order: a shared memo of
dead words; one deterministic left-to-right pass, Goodman and Shapiro's
Cannon's algorithm, which accepts many words in linear time with one step
per letter of a keyword automaton over the left-hand sides; a test that
rejects a word whose letter counts, once the pass stops, lie outside the
lattice the rules span, since every rule moves them by one of its rows;
and the search, which decides whatever is left.  Read right to left, the
rules generate the accepted words from the empty word:
:func:`enumerate_language` computes that closure, for grammars too.  The
pass, the search and enumeration find left-hand sides with that same
automaton, held by a :class:`RuleIndex`, whose states are built on first use.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple, Optional

from .core import Alphabet, Anchor, ValidationError, Word, anchor_ok, occurs_at, splice

ENUMERATION_GUARD = 12
# the most words one search memo or one enumeration holds, and the most
# productions one conversion builds; each stops at more
MAX_MEMO = 10**6


class BudgetExceededError(Exception):
    """Raised when a search passes ``max_nodes``, or a memo, an enumeration
    or a conversion :data:`MAX_MEMO`."""


class Budget(NamedTuple):
    """The most words one search expands; the deterministic pass is unmetered."""

    max_nodes: int = 10**6


DEFAULT_BUDGET = Budget()


class Rule(NamedTuple("Rule", [("lhs", Word), ("rhs", Word), ("anchor", Anchor)])):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def __new__(cls, lhs: Word, rhs: Word, anchor: Anchor = Anchor.NONE):
        lhs = tuple(lhs)
        if not lhs:
            raise ValueError("empty left hand side")
        return tuple.__new__(cls, (lhs, tuple(rhs), anchor))


class _State:
    __slots__ = ("prefix", "candidates", "step")

    def __init__(self, prefix: Word, candidates: tuple):
        self.prefix = prefix
        self.candidates = candidates
        self.step: dict = {}


class RuleIndex:
    """A rule tuple and the keyword automaton of its left-hand sides (Aho
    and Corasick, CACM 1975), the one left-hand-side matcher: the
    deterministic pass (:func:`_greedy`) steps through it one pushed letter
    at a time, and move generation (:func:`_derive`), which enumeration
    uses too, walks it over stretches of a word.  ``free_len`` holds each
    rule's left-hand-side length if it is unanchored and 0 if not;
    ``reach`` is the longest unanchored left-hand side and ``ends`` the
    longest anchored one, 0 when there is none; ``sided`` says whether some
    rule is anchored at one end only.

    A state's ``prefix`` is the longest suffix of the letters walked that
    is a prefix of some left-hand side.  Every left-hand side that ends
    those letters ends it too, so its ``candidates`` list every rewrite
    that ends there, in the pass's order: longest first, anchored before
    unanchored at equal length, lowest index first.  Each is a (rule index,
    anchor, left-hand-side length, right-hand side reversed) tuple, and
    ``own`` maps each prefix of a left-hand side to the rewrites of that
    left-hand side alone.  ``states`` maps prefixes to states, ``root``
    the empty one first; the others are built the first time a walk
    reaches them, and ``step`` maps each letter seen in a state to the
    next.  A state is stored whole, the first one stored for its prefix is
    kept, and a step only after its state, so threads can walk one index
    at once: they can only race to store equal values."""

    __slots__ = ("rules", "free_len", "reach", "ends", "sided", "own", "root", "states")

    def __init__(self, rules: tuple[Rule, ...]):
        self.rules = rules
        unanchored = Anchor.NONE
        free_len = []
        ends = 0
        sided = False
        first, last = [], []  # (left-hand side, rewrite): the anchored rules, the others
        for i, (lhs, rhs, anchor) in enumerate(rules):
            k = len(lhs)
            if anchor is unanchored:
                free_len.append(k)
                last.append((lhs, (i, anchor, k, rhs[::-1])))
            else:
                free_len.append(0)
                first.append((lhs, (i, anchor, k, rhs[::-1])))
                ends = max(ends, k)
                sided = sided or anchor is not Anchor.BOTH
        self.free_len = tuple(free_len)
        self.reach = max(free_len, default=0)
        self.ends = ends
        self.sided = sided
        own = self.own = {(): ()}
        for lhs, rewrite in first + last:  # anchored first, each group in index order
            own[lhs] = own.get(lhs, ()) + (rewrite,)
            for j in range(1, len(lhs)):
                own.setdefault(lhs[:j], ())
        self.root = _State((), ())  # no left-hand side is empty
        self.states = {(): self.root}

    def __reduce__(self):
        # a copy or a pickle starts with the root alone; copying the states
        # one by one would recurse through their steps
        return RuleIndex, (self.rules,)

    def follow(self, state: _State, letter) -> _State:
        """The state after ``letter`` is read in ``state``: the longest
        suffix of its prefix and ``letter`` that is a prefix itself, built
        if it is new."""
        prefix = state.prefix + (letter,)
        own = self.own
        while prefix not in own:
            prefix = prefix[1:]
        nxt = self.states.get(prefix)
        if nxt is None:
            out = ()
            for j in range(len(prefix)):  # the suffixes, longest first
                out += own.get(prefix[j:], ())
            nxt = self.states.setdefault(prefix, _State(prefix, out))
        state.step[letter] = nxt
        return nxt

    def walk(self, w: Word) -> list:
        """The candidates of the state after each letter of ``w``, walked
        from the root: those after ``w[j]`` are the rewrites whose windows
        in ``w`` end at ``j + 1``."""
        follow = self.follow
        state = self.root
        found = []
        for letter in w:
            nxt = state.step.get(letter)
            state = follow(state, letter) if nxt is None else nxt
            found.append(state.candidates)
        return found


class NcaSystem(NamedTuple("NcaSystem", [("alphabet", Alphabet), ("rules", tuple)])):
    """A rewriting system whose rules are strictly length-reducing and
    written over its working alphabet; construction raises
    :class:`ValidationError` listing every rule that is not.  No
    ``__slots__``: the tables below are cached in the instance dict."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def __new__(cls, alphabet: Alphabet, rules: tuple[Rule, ...]):
        # duplicate rules are permitted on input but collapse to one
        self = tuple.__new__(cls, (alphabet, tuple(dict.fromkeys(rules))))
        violations = _validate(self)
        if violations:
            raise ValidationError(violations)
        return self

    @functools.cached_property
    def _index(self) -> RuleIndex:
        """The rules indexed by left-hand side, built on first use."""
        return RuleIndex(self.rules)

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
        return tuple((*key, RuleIndex(tuple(rs)), tuple(us)) for key, (rs, us) in groups.items())

    @functools.cached_property
    def _lattice(self) -> tuple[dict, tuple]:
        """The lattice L spanned by the rows ``count(r.lhs) - count(r.rhs)``,
        built on first use: each working symbol's column, in sorted order,
        and an echelon basis of L as (pivot column, row) pairs, in column
        order, each row zero before its pivot and positive at it.  A rule
        changes a word's count vector by minus its row, so every word that
        reduces to the empty word has its count vector in L (Cohen, *A Course
        in Computational Algebraic Number Theory*, 1993, §2.4)."""
        column = {s: j for j, s in enumerate(sorted(self.alphabet.working))}
        n = len(column)
        rows: dict = {}  # distinct rows, in rule order
        for lhs, rhs, _ in self.rules:
            row = [0] * n
            for s in lhs:
                row[column[s]] += 1
            for s in rhs:
                row[column[s]] -= 1
            rows[tuple(row)] = None
        pivots: dict = {}
        for row in rows:
            for j in range(n):
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
        return column, tuple((j, tuple(row)) for j, row in sorted(pivots.items()))


class Status(enum.Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    BUDGET_EXCEEDED = "budget_exceeded"


class Decision(NamedTuple):
    status: Status
    # the (rule index, position) pairs reducing the input to the empty word, on acceptance
    witness: Optional[tuple[tuple[int, int], ...]] = None

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


def _moves(index: RuleIndex, w: Word) -> list[tuple[int, int]]:
    """All applicable (rule index, position) pairs, in lexicographic order,
    from walks of the index over ``w``."""
    return _derive(index, (), w, 0, 0, len(w))


def _derive(index: RuleIndex, moves: list, child: Word, p: int, lhs_len: int,
            rhs_len: int) -> list[tuple[int, int]]:
    """The moves of ``child``, in lexicographic order, derived from the
    ``moves`` of its parent, in any order, which ``child`` is with the
    ``lhs_len`` letters at ``p`` replaced by ``rhs_len`` letters.  Moves
    of unanchored rules whose windows lie left of the replaced letters
    are kept, and those right of them shift by ``rhs_len - lhs_len``.  The
    windows that meet the new letters, or cross the gap where the old ones
    were, lie within ``index.reach - 1`` letters of them, so the index
    is walked from its root over that stretch alone.  A state lists its
    rewrites longest first, so their windows start left to right, and the
    first that starts at or after the new letters' end ends the list.
    Anchored moves are read afresh at the two ends, since a shorter word
    can bring a kept window to either end: from one walk over the first
    ``index.ends`` letters and the last ones joined, or over the whole
    word when it has at most twice that many.  A ``@both`` window is the
    whole word, so that walk is skipped for a word longer than
    ``index.ends`` when no rule is anchored at one end only."""
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
    n = len(child)
    reach, ends = index.reach, index.ends
    walk = index.walk
    unanchored = Anchor.NONE
    if reach:
        new_end = p + rhs_len
        lo = max(p - reach + 1, 0)
        # the windows found after letter j - 1 end at j: only those ending after p count
        for j, found in enumerate(walk(child[lo:new_end + reach - 1])[p - lo:], p + 1):
            for i, anchor, k, _ in found:
                if j - k >= new_end:
                    break
                if anchor is unanchored:
                    out.append((i, j - k))
    if ends and (n <= ends or index.sided):
        # no window across the seam of the two ends passes an anchor check
        # in rim, and one that ends rim ends the word
        rim = child if n <= 2 * ends else child[:ends] + child[n - ends:]
        rim_len = len(rim)
        for j, found in enumerate(walk(rim), 1):
            for i, anchor, k, _ in found:
                if anchor is not unanchored and anchor_ok(anchor, j - k, k, rim_len):
                    out.append((i, j - k if j < rim_len else n - k))
    out.sort()
    return out


def legal_moves(sys: NcaSystem, w: Word) -> list[tuple[int, int]]:
    """All applicable (rule index, position) pairs, in lexicographic order."""
    return _moves(sys._index, tuple(w))


def apply_move(sys: NcaSystem, w: Word, m: tuple[int, int]) -> Word:
    w = tuple(w)
    i, p = m
    rule = sys.rules[i] if 0 <= i < len(sys.rules) else None
    if rule is None or not occurs_at(w, rule.lhs, p, rule.anchor):
        raise ValueError(f"illegal move {(i, p)} on {w}")
    return splice(w, p, len(rule.lhs), rule.rhs)


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
                return Decision(Status.ACCEPTED, tuple(path))
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
    zero.  Counting through the column map takes half the time of a
    ``Counter`` on the short rests most rejections leave, and up to half as
    long again on rests of hundreds of letters, whose pass costs several
    times the count."""
    column, pivots = sys._lattice
    v = [0] * len(column)
    for s in w:
        v[column[s]] += 1
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

    The pass steps through ``index`` (:class:`RuleIndex`) once per pushed
    letter and keeps the state after each prefix of the stack, so a
    rewrite at ``pos`` goes back to the state stored there.  A state
    lists every rewrite whose left-hand side ends the stack, in the pass's
    order, and an unanchored one always applies, so the first that applies
    is the pass's choice.  A state is built the first time a walk reaches
    it, and the index keeps it."""
    follow = index.follow
    unanchored = Anchor.NONE
    stack: list = []
    state = index.root
    states = [state]  # the state after each prefix of the stack
    unread = list(reversed(w))
    moves: list = []
    while unread:
        letter = unread.pop()
        nxt = state.step.get(letter)
        state = follow(state, letter) if nxt is None else nxt
        stack.append(letter)
        states.append(state)
        while state.candidates:  # rewrite at the top of the stack until nothing matches
            top = len(stack)
            for i, anchor, k, rhs in state.candidates:
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
        return Decision(Status.ACCEPTED, tuple(moves))
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
    unanchored = Anchor.NONE
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
            # one walk over the whole word: the windows found after w[j - 1] end at j
            rules = index.rules
            children = [w[:j - k] + rules[i].rhs + w[j:]
                        for j, found in enumerate(index.walk(w) if rules else (), 1)
                        for i, anchor, k, _ in found
                        if anchor is unanchored or anchor_ok(anchor, j - k, k, n)]
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
