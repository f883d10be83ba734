"""Independent oracles and seeded input generators for the benchmark.

Nothing here imports gcsl: every verdict the benchmark checks is derived
from the group structure of the two fixture systems, never from the
library under test.

* ``fixtures/s3.nca`` is the word problem of the symmetric group S3: a
  word is accepted exactly when the product of its letters, composed
  left to right as the fixture's rules ``g h -> gh`` do, is the identity.
* ``fixtures/fg2.nca`` is free cancellation in the free group on a, b: a
  word is accepted exactly when stack-based free reduction empties it.
"""

from __future__ import annotations

import itertools

# one letter per permutation of (0, 1, 2), as named by the s3 fixture
S3_PERMS = {
    "e": (0, 1, 2),
    "r": (1, 2, 0),
    "q": (2, 0, 1),
    "s": (1, 0, 2),
    "t": (0, 2, 1),
    "u": (2, 1, 0),
}
S3_NAME = {p: name for name, p in S3_PERMS.items()}
S3_LETTERS = tuple(sorted(S3_PERMS))
S3_NON_IDENTITY = tuple(x for x in S3_LETTERS if x != "e")
IDENTITY = (0, 1, 2)

FG2_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}
FG2_LETTERS = tuple(sorted(FG2_INVERSE))


def _compose(p, q):
    # the fixture's rule for "p q": apply q first, then p
    return (p[q[0]], p[q[1]], p[q[2]])


def s3_product(word):
    acc = IDENTITY
    for letter in word:
        acc = _compose(acc, S3_PERMS[letter])
    return acc


def s3_accepts(word) -> bool:
    return s3_product(word) == IDENTITY


def fg2_accepts(word) -> bool:
    stack = []
    for letter in word:
        if stack and stack[-1] == FG2_INVERSE[letter]:
            stack.pop()
        else:
            stack.append(letter)
    return not stack


ORACLES = {"s3": s3_accepts, "fg2": fg2_accepts}
LETTERS = {"s3": S3_LETTERS, "fg2": FG2_LETTERS}


def all_words(letters, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(letters, repeat=n)


# --- generators -----------------------------------------------------------


def s3_word(rng, n: int, accepted: bool, letters=S3_LETTERS):
    """A random s3 word of length ``n`` (n >= 1) over ``letters`` whose
    product is the identity exactly when ``accepted``; an accepted word may
    need a closing letter outside ``letters``."""
    word = [rng.choice(letters) for _ in range(n - 1)]
    prefix = s3_product(word)
    # the last letter decides the product: x = prefix^-1 gives the identity
    closing = S3_NAME[tuple(sorted(range(3), key=prefix.__getitem__))]
    if accepted:
        word.append(closing)
    else:
        word.append(rng.choice([x for x in letters if x != closing]))
    return tuple(word)


def fg2_reduced(rng, n: int):
    """A random freely reduced fg2 word of length ``n``."""
    word = []
    while len(word) < n:
        x = rng.choice(FG2_LETTERS)
        if not word or FG2_INVERSE[x] != word[-1]:
            word.append(x)
    return word


def fg2_inverse(word):
    return [FG2_INVERSE[x] for x in reversed(word)]


def fg2_cancelling(rng, n: int):
    """``u u^-1`` for a random reduced ``u`` of length n/2: accepted, with
    exactly one cancellation site at every step of the reduction."""
    u = fg2_reduced(rng, n // 2)
    return tuple(u + fg2_inverse(u))


def fg2_perturbed(rng, n: int, depth: int):
    """``u u^-1`` with the letter ``depth`` places right of the centre
    replaced.  Rejected: reduction cancels ``depth`` pairs along a single
    path and then sticks on a reduced non-empty word."""
    word = list(fg2_cancelling(rng, n))
    p = n // 2 + depth
    banned = {word[p], FG2_INVERSE[word[p - 1]]}
    if p + 1 < n:
        banned.add(FG2_INVERSE[word[p + 1]])
    word[p] = rng.choice([x for x in FG2_LETTERS if x not in banned])
    return tuple(word)


def fg2_nested(rng, n: int):
    """A random accepted fg2 word of even length ``n`` whose cancelling
    pairs nest and sit side by side at random, so that its reductions have
    many independent steps to reorder."""
    word, open_letters = [], []
    while len(word) < n:
        must_close = len(open_letters) >= n - len(word)
        if open_letters and (must_close or rng.random() < 0.5):
            word.append(FG2_INVERSE[open_letters.pop()])
        else:
            x = rng.choice(FG2_LETTERS)
            word.append(x)
            open_letters.append(x)
    return tuple(word)


def random_word(rng, system: str, n: int, accepted: bool):
    """A word of length ``n`` over ``system``'s letters with the given
    verdict, drawn uniformly by rejection sampling (short words only)."""
    accepts, letters = ORACLES[system], LETTERS[system]
    while True:
        word = tuple(rng.choice(letters) for _ in range(n))
        if accepts(word) == accepted:
            return word


# --- replays ---------------------------------------------------------------


def moves_reach_empty(system, word, moves) -> bool:
    """Replay a witness, a sequence of ``(rule index, position)`` moves,
    with the benchmark's own splice; the last word must be empty."""
    for rule_index, pos in moves:
        rule = system.rules[rule_index]
        k = len(rule.lhs)
        if word[pos:pos + k] != rule.lhs or not anchor_ok(rule.anchor.value, pos, k, len(word)):
            return False
        word = word[:pos] + rule.rhs + word[pos + k:]
    return not word


def replays_to_empty(history) -> bool:
    """Replay a reduction history with the benchmark's own splice: every
    event's rule must match its letters at its recorded position, and the
    last word must be empty."""
    rules = history.system.rules
    row = list(range(len(history.start)))
    symbols = history.symbols
    if tuple(symbols[i] for i in row) != tuple(history.start):
        return False
    for event in history.events:
        rule = rules[event.rule_index]
        k, pos = len(rule.lhs), event.position
        block = row[pos:pos + k]
        if tuple(block) != tuple(event.consumed):
            return False
        if tuple(symbols[i] for i in block) != tuple(rule.lhs):
            return False
        if tuple(symbols[i] for i in event.produced) != tuple(rule.rhs):
            return False
        if not anchor_ok(rule.anchor.value, pos, k, len(row)):
            return False
        row[pos:pos + k] = event.produced
    return not row


def anchor_ok(anchor: str, pos: int, k: int, n: int) -> bool:
    if anchor == "left":
        return pos == 0
    if anchor == "right":
        return pos + k == n
    if anchor == "both":
        return pos == 0 and k == n
    return True
