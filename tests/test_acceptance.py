"""End-to-end checks for the package, each with an explicit tolerance.

Everything here is exact (set equality, replay equality); the only slack
is wall-clock budgets on the enumeration-heavy comparisons.
"""

import itertools
import random
import time
from functools import reduce

import pytest

from gcsl import grammar, history, nca, textio, transforms
from gcsl.core import Alphabet, Anchor, word
from gcsl.nca import NcaSystem, Rule

from conftest import load


def timed(fn, limit):
    t0 = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"took {elapsed:.1f}s, budget {limit}s"
    return out


@pytest.mark.parametrize("fixture", ["anbn.gcsg", "dyck.gcsg"])
def test_criterion_1_grammar_to_system_preserves_language(fixture):
    g = load(fixture)
    sys = transforms.gcsg_to_nca(g)
    diff = timed(lambda: textio.first_difference(g, sys, 8), 5.0)
    assert diff is None


@pytest.mark.parametrize(
    "fixture, max_len", [("fg2.nca", 6), ("xanchor.nca", 4)]
)
def test_criterion_2_system_to_grammar_preserves_language(fixture, max_len):
    sys = load(fixture)
    g = transforms.nca_to_gcsg(sys)
    diff = timed(lambda: textio.first_difference(sys, g, max_len), 30.0)
    assert diff is None


@pytest.mark.parametrize(
    "fixture",
    ["left_anchor.egcsg", "right_anchor.egcsg", "both_anchor.egcsg"],
)
def test_criterion_3_anchor_removal(fixture):
    eg = load(fixture)
    sg = transforms.deanchor(eg)
    assert all(p.anchor is Anchor.NONE for p in sg.productions)
    assert grammar.generate_language(sg, 6) == grammar.generate_language(eg, 6)


def test_criterion_4_anchoring_changes_the_language():
    anchored = load("xanchor.nca")
    free = load("xfree.nca")
    for n in range(7):
        xn = ("x",) * n
        assert nca.decide(anchored, xn).accepted == (n <= 1)
        assert nca.decide(free, xn).accepted


@pytest.mark.parametrize("fixture", ["anbn.nca", "fg2.nca"])
def test_criterion_5_engine_matches_brute_force(fixture):
    sys = load(fixture)
    letters = sorted(sys.alphabet.terminals)[:2]

    def brute(w):
        if w == ():
            return True
        return any(brute(nca.apply_move(sys, w, m)) for m in nca.legal_moves(sys, w))

    def run():
        memo = set()
        for n in range(1, 9):
            for w in itertools.product(letters, repeat=n):
                d = nca.decide(sys, w, memo=memo)
                assert d.accepted == brute(w), w
                if d.accepted:
                    assert len(d.witness) <= len(w)
                    # the witness must replay cleanly all the way to epsilon
                    assert history.words_of(history.from_moves(sys, w, d.witness))[-1] == ()

    timed(run, 10.0)


def _make(rules, working):
    letters = frozenset(working.split())
    return NcaSystem(Alphabet(letters, letters), tuple(rules))


# non-erasing systems only: a rule with an empty rhs leaves a gap in the
# row, so exact width conservation is a theorem only for this pool
HISTORY_POOL = [
    _make([Rule(word("a b"), word("T")), Rule(word("a T b"), word("T"))], "a b T"),
    _make([Rule(word("a a"), word("b")), Rule(word("b b"), word("a")),
           Rule(word("a b"), word("c"))], "a b c"),
    _make([Rule(word("a b c"), word("d e")), Rule(word("d e"), word("a")),
           Rule(word("e a"), word("c"))], "a b c d e"),
]


def random_history(rng, min_events=0):
    while True:
        sys = rng.choice(HISTORY_POOL)
        letters = sorted(sys.alphabet.working)
        w = tuple(rng.choice(letters) for _ in range(rng.randint(2, 12)))
        moves = []
        current = w
        while True:
            options = nca.legal_moves(sys, current)
            if not options or (moves and rng.random() < 0.2):
                break
            m = rng.choice(options)
            moves.append(m)
            current = nca.apply_move(sys, current, m)
        if len(moves) >= min_events:
            return history.from_moves(sys, w, moves)


def swappable(h, i):
    """Does ``swap_adjacent`` let events ``i`` and ``i + 1`` trade places?"""
    try:
        history.swap_adjacent(h, i)
    except ValueError:
        return False
    return True


def overlaps(lines):
    """Direct edges of the dependency order, as successor lists: an earlier
    event blocks a later one when their line interiors overlap horizontally."""
    n = len(lines)
    succ = [[] for _ in range(n)]
    for i in range(n):
        lo1, hi1 = lines[i]
        for j in range(i + 1, n):
            lo2, hi2 = lines[j]
            if lo1 < hi2 and lo2 < hi1:
                succ[i].append(j)
    return succ


def _closure(succ: list[list[int]]) -> list[list[bool]]:
    n = len(succ)
    reach = [[False] * n for _ in range(n)]
    for i, out in enumerate(succ):
        for j in out:
            reach[i][j] = True
    # events are in temporal order, so edges only go forward
    for k in range(n):
        rk = reach[k]
        for i in range(k):
            if reach[i][k]:
                ri = reach[i]
                for j in range(k + 1, n):
                    if rk[j]:
                        ri[j] = True
    return reach


def dependency_closure(h):
    """Closure of the overlap order: the reference dependency order of an
    unanchored history, from its exact diagram geometry."""
    return _closure(overlaps(history.geometry(h).lines))


def test_criterion_6_history_calculus_invariants():
    rng = random.Random(2026)
    for _ in range(200):
        h = random_history(rng)
        geo = history.geometry(h)
        for row in history.rows(h):
            assert sum(geo.widths[i] for i in row) == len(h.start)
        canon = history.canonicalize(h)
        assert history.canonicalize(canon) == canon
        end = history.words_of(h)[-1]
        lines = set(geo.lines)
        for _ in range(100):
            g = h
            for _ in range(rng.randrange(8)):
                if len(g.events) < 2:
                    break
                i = rng.randrange(len(g.events) - 1)
                if swappable(g, i):
                    g = history.swap_adjacent(g, i)
            assert history.canonicalize(g) == canon
            geo_g = history.geometry(g)
            assert history.words_of(g)[-1] == end
            assert set(geo_g.lines) == lines


def test_criterion_7_reordering_independent_groups():
    rng = random.Random(77)
    done = 0
    attempts = 0
    while done < 500:
        attempts += 1
        assert attempts < 20000, "instance generator starved"
        h = random_history(rng, min_events=2)
        n = len(h.events)
        ids = list(range(n))
        rng.shuffle(ids)
        k1 = rng.randint(1, max(1, n // 2))
        k2 = rng.randint(1, max(1, n - k1))
        first, second = set(ids[:k1]), set(ids[k1:k1 + k2])
        dep = dependency_closure(h)
        if any(dep[i][j] or dep[j][i] for i in first for j in second):
            continue
        r, swaps = history.reorder_with_swaps(h, first, second)
        # the output must be literally reachable from the input by the
        # reported sequence of adjacent swaps
        g = h
        pos = list(range(n))
        for i in swaps:
            g = history.swap_adjacent(g, i)
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        assert g == r
        where = {e: t for t, e in enumerate(pos)}
        assert max(where[e] for e in first) < min(where[e] for e in second)
        done += 1


def test_criterion_8_symmetric_group_word_problem():
    sys = load("s3.nca")
    perms = {
        "e": (0, 1, 2), "r": (1, 2, 0), "q": (2, 0, 1),
        "s": (1, 0, 2), "t": (0, 2, 1), "u": (2, 1, 0),
    }

    def product(w):
        return reduce(lambda p, g: tuple(p[perms[g][i]] for i in range(3)), w, (0, 1, 2))

    memo = set()
    letters = sorted(perms)
    for n in range(7):
        for w in itertools.product(letters, repeat=n):
            expected = product(w) == (0, 1, 2)
            assert nca.decide(sys, w, memo=memo).accepted == expected, w
