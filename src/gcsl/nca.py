"""Non-deterministic Cannon's algorithms: strictly length-reducing,
optionally anchored rewriting systems, and the exhaustive decision engine.

A system accepts a terminal word iff some sequence of rule applications
reduces it to the empty word.  Every rule strictly shortens the word, so
depth-first search with a memo set of dead words is exhaustive and
terminates.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .core import Alphabet, Anchor, ValidationError, Word, anchor_ok, occurs_at, splice

ENUMERATION_GUARD = 12


class BudgetExceededError(Exception):
    """Raised when a search exceeds its node or memo budget."""


@dataclass(frozen=True)
class Budget:
    max_nodes: int = 10**6
    max_memo: int = 10**6


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


class RuleIndex(NamedTuple):
    """A rule tuple with its left-hand sides grouped by length: for each
    length ``k``, ascending, a dict from each distinct left-hand side of
    that length to the ``(rule_index, anchor)`` pairs of the rules that
    have it."""

    rules: tuple[Rule, ...]
    by_length: tuple[tuple[int, dict[Word, tuple[tuple[int, Anchor], ...]]], ...]


def index_rules(rules: tuple[Rule, ...]) -> RuleIndex:
    """Index ``rules`` by left-hand side."""
    tables: dict = {}
    for i, r in enumerate(rules):
        table = tables.setdefault(len(r.lhs), {})
        table[r.lhs] = table.get(r.lhs, ()) + ((i, r.anchor),)
    return RuleIndex(rules, tuple(sorted(tables.items())))


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


class Status(enum.Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class Decision:
    status: Status
    # sequence of moves reducing the input to the goal, on acceptance
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


def _moves(index: RuleIndex, w: Word) -> list[Move]:
    """All applicable (rule, position) pairs, in lexicographic order: one
    dict lookup per window of each left-hand-side length."""
    n = len(w)
    moves = []
    for k, table in index.by_length:
        # zipping k shifted copies of w yields its windows of length k
        windows = zip(*[w[j:] for j in range(k)])
        for pos, hits in enumerate(map(table.get, windows)):
            if hits:
                for i, anchor in hits:
                    if anchor is Anchor.NONE or anchor_ok(anchor, pos, k, n):
                        moves.append(Move(i, pos))
    moves.sort()
    return moves


def legal_moves(sys: NcaSystem, w: Word) -> list[Move]:
    """All applicable (rule, position) pairs, in lexicographic order."""
    return _moves(sys._index, w)


def apply_move(sys: NcaSystem, w: Word, m: Move) -> Word:
    rule = sys.rules[m.rule_index]
    if not occurs_at(w, rule.lhs, m.position, rule.anchor):
        raise ValueError(f"illegal move {m} on {w}")
    return splice(w, m.position, len(rule.lhs), rule.rhs)


def _search(
    index: RuleIndex,
    w: Word,
    is_goal: Callable[[Word], bool],
    budget: Budget,
    memo: set,
    shuffle=None,
) -> Decision:
    """Exhaustive DFS over rule applications, shared by NCA decide and
    grammar membership.  ``memo`` collects words from which no goal is
    reachable and may be shared across calls on the same rule set.  The
    path lives on an explicit stack, so no recursion limit bounds its depth."""
    rules = index.rules
    if is_goal(w):
        return Decision(Status.ACCEPTED, ())
    if w in memo:
        return Decision(Status.REJECTED)
    nodes = 0
    stack: list = []  # (word, iterator over its untried moves), root first
    path: list[Move] = []  # the move leading to each stack entry but the root
    word = w  # the next word to expand, if any
    while True:
        if word is not None:
            nodes += 1
            if nodes > budget.max_nodes:
                return Decision(Status.BUDGET_EXCEEDED)
            moves = _moves(index, word)
            if shuffle is not None:
                shuffle(moves)
            stack.append((word, iter(moves)))
        parent, untried = stack[-1]
        word = None
        for m in untried:
            r = rules[m.rule_index]
            child = splice(parent, m.position, len(r.lhs), r.rhs)
            if is_goal(child):
                path.append(m)
                return Decision(Status.ACCEPTED, tuple(path))
            if child not in memo:
                path.append(m)
                word = child
                break
        else:
            if len(memo) >= budget.max_memo:
                return Decision(Status.BUDGET_EXCEEDED)
            memo.add(parent)
            stack.pop()
            if not stack:
                return Decision(Status.REJECTED)
            path.pop()


def decide(
    sys: NcaSystem,
    w: Word,
    budget: Budget = DEFAULT_BUDGET,
    *,
    memo: Optional[set] = None,
    shuffle=None,
) -> Decision:
    """Does ``w`` reduce to the empty word?  ``w`` must be a terminal word;
    use :func:`decide_over_working` for intermediate words over the full
    working alphabet."""
    bad = [s for s in w if s not in sys.alphabet.terminals]
    if bad:
        raise ValueError(f"input symbols outside terminal alphabet: {sorted(set(bad))}")
    return decide_over_working(sys, w, budget, memo=memo, shuffle=shuffle)


def decide_over_working(
    sys: NcaSystem,
    w: Word,
    budget: Budget = DEFAULT_BUDGET,
    *,
    memo: Optional[set] = None,
    shuffle=None,
) -> Decision:
    bad = [s for s in w if s not in sys.alphabet.working]
    if bad:
        raise ValueError(f"input symbols outside working alphabet: {sorted(set(bad))}")
    if memo is None:
        memo = set()
    return _search(sys._index, w, lambda word: not word, budget, memo, shuffle)


def _enumerate(
    terminals, max_len: int, accepts: Callable[[Word, set], Decision]
) -> set[Word]:
    """All words over ``terminals`` of length at most ``max_len`` that
    ``accepts(word, memo)`` accepts.  Words are queried in shortlex order
    and share one memo set."""
    if max_len > ENUMERATION_GUARD:
        raise ValueError(f"max_len {max_len} exceeds enumeration guard {ENUMERATION_GUARD}")
    letters = sorted(terminals)
    memo: set = set()
    out: set[Word] = set()
    for n in range(max_len + 1):
        for combo in itertools.product(letters, repeat=n):
            d = accepts(combo, memo)
            if d.status is Status.BUDGET_EXCEEDED:
                raise BudgetExceededError(f"budget exceeded while deciding {combo}")
            if d.accepted:
                out.add(combo)
    return out


def enumerate_language(
    sys: NcaSystem,
    max_len: int,
    *,
    budget: Budget = DEFAULT_BUDGET,
) -> set[Word]:
    """All accepted terminal words of length at most ``max_len``."""
    return _enumerate(sys.alphabet.terminals, max_len,
                      lambda w, memo: decide(sys, w, budget, memo=memo))
