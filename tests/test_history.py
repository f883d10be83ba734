import copy
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from gcsl import grammar, history, nca, textio
from gcsl.core import Alphabet, Anchor, word
from gcsl.grammar import Grammar
from gcsl.nca import NcaSystem, Rule

from conftest import FIXTURES, load
from test_acceptance import HISTORY_POOL, dependency_closure, random_history, swappable
from test_nca import small_systems, small_words


def make(rules, terminals="a b", working=None):
    return NcaSystem(
        Alphabet(frozenset(terminals.split()), frozenset((working or terminals).split())),
        tuple(rules),
    )


def walk(system, w, choose):
    """A random legal walk from ``w`` to a word with no moves: the moves,
    each picked by ``choose`` from the legal ones, and the word it ends at."""
    moves = []
    while options := nca.legal_moves(system, w):
        moves.append(choose(options))
        w = nca.apply_move(system, w, moves[-1])
    return moves, w


def reissue(h, order):
    """Reissue the events of ``h`` in the given order (a permutation of
    original indices), recomputing positions by simulation and numbering
    the produced letters afresh in event order."""
    row = list(range(len(h.start)))  # original letter ids
    new_id = list(range(len(h.symbols)))  # start letters keep theirs
    symbols = list(h.start)
    events = []
    for idx in order:
        e = h.events[idx]
        pos = row.index(e.consumed[0])
        k = len(e.consumed)
        assert tuple(row[pos:pos + k]) == e.consumed
        produced = tuple(range(len(symbols), len(symbols) + len(e.produced)))
        for old, new in zip(e.produced, produced):
            new_id[old] = new
            symbols.append(h.symbols[old])
        events.append(history.Event(e.rule_index, pos, tuple(map(new_id.__getitem__, e.consumed)),
                                    produced))
        row[pos:pos + k] = e.produced
    return history.History(h.system, h.start, tuple(events), tuple(symbols))


def closure_reference(h):
    """The left-first order of an unanchored history from the full
    dependency closure: each step recounts which events are still blocked
    and emits the available one with the leftmost line (rule index as the
    tie-break), on exact fractions."""
    n = len(h.events)
    dep = dependency_closure(h)
    lines = history.geometry(h).lines
    emitted, order = set(), []
    for _ in range(n):
        avail = [j for j in range(n) if j not in emitted
                 and not any(dep[i][j] for i in range(n) if i not in emitted)]
        j = min(avail, key=lambda j: (lines[j][0], h.events[j].rule_index))
        emitted.add(j)
        order.append(j)
    return reissue(h, order)


@pytest.fixture
def pair_system():
    # ab -> T and aTb -> T: non-erasing, so rows keep their total width
    return make([Rule(word("a b"), word("T")), Rule(word("a T b"), word("T"))], working="a b T")


# a may be erased only as the last letter: "a b" needs b erased first
RIGHT = load("right_anchor.nca")


class TestConstruction:
    def test_from_moves_validates(self, fg2):
        with pytest.raises(ValueError):
            history.from_moves(fg2, word("a b"), [(0, 0)])

    @pytest.mark.parametrize("rule_index, position", [
        *(pytest.param(0, p, id=str(p)) for p in (-1, -2, 2, 3)),
        *(pytest.param(i, 0, id=f"rule{i}") for i in (-4, 4)),
    ])
    def test_from_moves_rejects_out_of_range(self, fg2, rule_index, position):
        with pytest.raises(ValueError, match="illegal move"):
            history.from_moves(fg2, word("a A b"), [(rule_index, position)])

    @pytest.mark.parametrize("moves, message", [
        ([(0, 0)], "(0, 0) on ('a', 'b')"),  # a is not last
        ([(1, 2)], "(1, 2) on ('a', 'b')"),  # past the end
        ([(1, 1), (1, 0)], "(1, 0) on ('a',)"),  # no b left
    ])
    def test_illegal_move_message(self, moves, message):
        with pytest.raises(ValueError, match=f"^illegal move {re.escape(message)}$"):
            history.from_moves(RIGHT, word("a b"), moves)

    def test_words_and_rows(self, pair_system):
        h = history.from_moves(pair_system, word("a a b b"), [(0, 1), (1, 0)])
        assert history.words_of(h) == [word("a a b b"), word("a T b"), word("T")]
        assert history.rows(h) == [[0, 1, 2, 3], [0, 4, 3], [5]]

    def test_strictly_shrinking(self, fg2):
        h = history.from_moves(fg2, word("a b B A"), [(2, 1), (0, 0)])
        lengths = [len(w) for w in history.words_of(h)]
        assert lengths == sorted(lengths, reverse=True)


class TestGeometry:
    def test_one_letter_production_takes_the_consumed_span(self):
        h = history.from_moves(S3, word("e t s"), [(9, 1), (0, 0)])  # t s -> q, e -> _
        geo = history.geometry(h)
        q = h.events[0].produced[0]
        assert h.symbols[q] == "q" and geo.lines[0] == (1, 3)
        assert geo.intervals[q] == (1, 3) and geo.widths[q] == 2 and geo.generations[q] == 1

    def test_empty_start(self, fg2):
        h = history.from_moves(fg2, (), [])
        assert history.geometry(h) == history.Geometry((), (), (), ())
        assert textio.format_trace(h) == "0 | _ |\n"
        assert textio.format_diagram(h) == "row 0: _\n"

    def test_erasing_event_line(self):
        sys = make([Rule(word("a b"), ())])
        h = history.from_moves(sys, word("a b a b"), [(0, 0), (0, 0)])
        g = history.geometry(h)
        assert g.intervals[0] == (0, 1) and g.intervals[1] == (1, 2)
        assert g.lines[0] == (0, 2)
        assert g.lines[1] == (2, 4)

    def test_produced_width_and_generation(self, pair_system):
        h = history.from_moves(pair_system, word("a a b b"), [(0, 1)])
        g = history.geometry(h)
        t = h.events[0].produced[0]
        assert g.widths[t] == 2 and g.intervals[t] == (1, 3) and g.generations[t] == 1

    def test_equal_split(self):
        sys = make([Rule(word("a b c"), word("d e"))], terminals="a b c d e")
        h = history.from_moves(sys, word("a b c"), [(0, 0)])
        g = history.geometry(h)
        d, e = h.events[0].produced
        assert g.widths[d] == g.widths[e] == Fraction(3, 2)
        assert g.intervals[d] == (0, Fraction(3, 2))
        assert g.intervals[e] == (Fraction(3, 2), 3)

    # a three-way split of a four-letter span, then a merge of all or part of it
    THIRDS = make([Rule(word("a b c d"), word("X X X")), Rule(word("X X X"), word("Z")),
                   Rule(word("X X"), word("Y"))], terminals="a b c d", working="a b c d X Y Z")

    @pytest.mark.parametrize("merge, text", [
        ((1, 0), "  line: [0,4) rule#1\nrow 2: Z[0,4)\n"),  # 4 is Fraction(4), not 4/1
        ((2, 0), "  line: [0,8/3) rule#2\nrow 2: Y[0,8/3) X[8/3,4)\n"),
    ], ids=["whole", "part"])
    def test_diagram_of_a_split_and_a_merge(self, merge, text):
        h = history.from_moves(self.THIRDS, word("a b c d"), [(0, 0), merge])
        assert type(history._spans(h)[0][-1][1]) is Fraction  # the merged letter's end
        assert textio.format_diagram(h) == (
            "row 0: a[0,1) b[1,2) c[2,3) d[3,4)\n"
            "  line: [0,4) rule#0\n"
            "row 1: X[0,4/3) X[4/3,8/3) X[8/3,4)\n" + text)

    def test_width_conservation_without_erasing(self, pair_system):
        h = history.from_moves(
            pair_system, word("a a b b a b"), [(0, 4), (0, 1), (1, 0)]
        )
        g = history.geometry(h)
        for row in history.rows(h):
            assert sum(g.widths[i] for i in row) == len(h.start)


class TestPrecedence:
    def test_disjoint_events_incomparable(self):
        sys = make([Rule(word("a b"), ())])
        h = history.from_moves(sys, word("a b a b"), [(0, 0), (0, 0)])
        before = history.precedence(h)
        assert not (before[0][1] or before[1][0])

    def test_consumption_chain(self):
        sys = make([Rule(word("a b"), word("T")), Rule(word("T b"), word("c"))],
                   working="a b c T")
        h = history.from_moves(sys, word("a b b"), [(0, 0), (1, 0)])
        before = history.precedence(h)
        assert before[0][1] and not before[1][0]

    def test_chain_of_three_totally_ordered(self, pair_system):
        h = history.from_moves(
            pair_system, word("a a a b b b"), [(0, 2), (1, 1), (1, 0)]
        )
        before = history.precedence(h)
        assert all(before[i][j] for i in range(3) for j in range(3) if i < j)


class TestSwap:
    def test_swap_disjoint_pair(self, pair_system):
        # x u y u' z pattern: both orders end at the same word
        h = history.from_moves(pair_system, word("a b a b"), [(0, 0), (0, 1)])
        h2 = history.swap_adjacent(h, 0)
        assert history.moves_of(h2) == [(0, 2), (0, 0)]
        assert history.words_of(h)[-1] == history.words_of(h2)[-1] == word("T T")

    def test_dependent_pair_rejected(self, pair_system):
        h = history.from_moves(pair_system, word("a a b b"), [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            history.swap_adjacent(h, 0)

    def test_involution(self, pair_system):
        h = history.from_moves(pair_system, word("a b a b"), [(0, 0), (0, 1)])
        assert history.swap_adjacent(history.swap_adjacent(h, 0), 0) == h

    def test_swap_preserves_geometry(self, pair_system):
        h = history.from_moves(pair_system, word("a b a b"), [(0, 2), (0, 0)])
        h2 = history.swap_adjacent(h, 0)
        g1, g2 = history.geometry(h), history.geometry(h2)
        assert g1.widths == g2.widths
        assert g1.generations == g2.generations
        assert g1.intervals == g2.intervals
        assert set(g1.lines) == set(g2.lines)

    @pytest.mark.parametrize("i", [-1, 1])
    def test_no_adjacent_pair(self, pair_system, i):
        h = history.from_moves(pair_system, word("a b a b"), [(0, 0), (0, 1)])
        with pytest.raises(IndexError, match=f"no adjacent pair at {i}"):
            history.swap_adjacent(h, i)

    def test_erased_separator_blocks_swap(self, fg2):
        # bB becomes adjacent only after aA is erased between them
        h = history.from_moves(fg2, word("b a A B"), [(0, 1), (2, 0)])
        with pytest.raises(ValueError):
            history.swap_adjacent(h, 0)


class TestAnchoredSwap:
    def test_swap_that_breaks_an_anchor_rejected(self):
        h = history.from_moves(RIGHT, word("a b"), [(1, 1), (0, 0)])
        with pytest.raises(ValueError, match="anchor"):
            history.swap_adjacent(h, 0)
        assert not swappable(h, 0)

    def test_left_anchor_checked_at_the_new_time(self):
        sys = make([Rule(word("a"), (), Anchor.LEFT), Rule(word("b"), ())])
        h = history.from_moves(sys, word("b a"), [(1, 0), (0, 0)])
        assert not swappable(h, 0)

    def test_swap_that_keeps_anchors_allowed(self):
        h = history.from_moves(RIGHT, word("b a"), [(1, 0), (0, 0)])
        g = history.swap_adjacent(h, 0)
        assert history.moves_of(g) == [(0, 1), (1, 0)]
        history.from_moves(RIGHT, h.start, history.moves_of(g))

    def test_reorder_refuses_to_break_an_anchor(self):
        h = history.from_moves(RIGHT, word("a b"), [(1, 1), (0, 0)])
        with pytest.raises(ValueError, match="anchor"):
            history.reorder_before(h, {1}, {0})


class TestCanonicalize:
    def test_left_first(self):
        sys = make([Rule(word("a b"), ())])
        right_first = history.from_moves(sys, word("a b a b"), [(0, 2), (0, 0)])
        c = history.canonicalize(right_first)
        assert history.moves_of(c) == [(0, 0), (0, 0)]

    def test_already_canonical_unchanged(self, pair_system):
        h = history.from_moves(pair_system, word("a b a b"), [(0, 0), (0, 1)])
        assert history.canonicalize(h) == h

    def test_idempotent(self, fg2):
        h = history.from_moves(fg2, word("b a A B"), [(0, 1), (2, 0)])
        c = history.canonicalize(h)
        assert history.canonicalize(c) == c

    def test_right_anchor_stays_legal(self):
        h = history.from_moves(RIGHT, word("a b"), [(1, 1), (0, 0)])
        assert history.canonicalize(h) == h

    def test_history_that_does_not_replay_raises(self):
        sys = make([Rule(word("a b"), ())], terminals="a b c")
        broken = history.History(sys, word("a c b"), (history.Event(0, 0, (0, 2), ()),),
                                 word("a c b"))
        with pytest.raises(ValueError, match="does not replay"):
            history.canonicalize(broken)

    def test_block_that_does_not_spell_the_lhs_raises(self):
        # the replay fires the event; building the canonical history checks it
        sys = make([Rule(word("a b"), ())], terminals="a b c")
        broken = history.History(sys, word("a c"), (history.Event(0, 0, (0, 1), ()),),
                                 word("a c"))
        with pytest.raises(ValueError, match="illegal move"):
            history.canonicalize(broken)

    def test_matches_closure_reference(self):
        rng = random.Random(600)
        for _ in range(300):
            h = random_history(rng)
            assert history.canonicalize(h) == closure_reference(h)
        # erasing rules, where the dependency order is wider than precedence
        fg2 = load("fg2.nca")
        for _ in range(30):
            u = [rng.choice("aAbB") for _ in range(rng.randint(1, 12))]
            w = tuple(u) + tuple(s.swapcase() for s in reversed(u))
            moves, end = walk(fg2, w, rng.choice)
            assert end == ()
            h = history.from_moves(fg2, w, moves)
            assert history.canonicalize(h) == closure_reference(h)

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
    def test_pass_history_is_canonical(self, name):
        # the pass rewrites a block as soon as it tops the stack, as the
        # replay fires it, so `trace --canonical` changes nothing for a
        # word that the pass accepts, and canonicalize returns the history
        # that from_moves built as it is
        system = load(name)
        words = textio.language(system, 4 if name == "s3.nca" else 7)
        if isinstance(system, Grammar):
            system = system._backward
        for w in words:
            h = history.from_moves(system, w, nca._greedy(system._index, w)[0])
            assert history.canonicalize(h) is h, w

    @settings(max_examples=300, deadline=None)
    @given(small_systems, small_words)
    def test_every_pass_history_is_canonical(self, rules, w):
        # whether or not the pass ends at the empty word
        system = make(rules, terminals="a b c")
        h = history.from_moves(system, w, nca._greedy(system._index, w)[0])
        assert history.canonicalize(h) is h

    def test_random_scrambles_agree(self, pair_system):
        rng = random.Random(7)
        h = history.from_moves(
            pair_system,
            word("a b a b a b a b"),
            [(0, 0), (0, 1), (0, 2), (0, 3)],
        )
        want = history.canonicalize(h)
        for _ in range(100):
            g = h
            for _ in range(rng.randrange(12)):
                i = rng.randrange(len(g.events) - 1)
                if swappable(g, i):
                    g = history.swap_adjacent(g, i)
            assert history.canonicalize(g) == want


class TestReorder:
    def test_two_independent_events(self, pair_system):
        h = history.from_moves(pair_system, word("a b a b"), [(0, 2), (0, 0)])
        r = history.reorder_before(h, {1}, {0})
        assert history.moves_of(r) == [(0, 0), (0, 1)]

    def test_already_ordered_unchanged(self, pair_system):
        h = history.from_moves(pair_system, word("a b a b"), [(0, 0), (0, 1)])
        assert history.reorder_before(h, {0}, {1}) == h

    def test_blocking_ancestor_hoisted_first(self, pair_system):
        # s3 feeds nothing into s1; s3 must precede s2 (s2 consumes its T)
        h = history.from_moves(
            pair_system,
            word("a b a a b b"),
            [(0, 0), (0, 2), (1, 1)],
        )
        r, swaps = history.reorder_with_swaps(h, {2}, {0})
        moves = history.moves_of(r)
        # the hoisted ancestor (originally second) comes first, then the
        # requested event, then the event pushed behind it
        assert moves == [(0, 3), (1, 2), (0, 0)]
        # replaying the logged swaps reproduces the reordering
        g = h
        for i in swaps:
            g = history.swap_adjacent(g, i)
        assert g == r

    def test_first_may_feed_second(self, pair_system):
        # event 1 makes the T that event 2 consumes; only event 0 must move
        h = history.from_moves(pair_system, word("a a b b a b"), [(0, 4), (0, 1), (1, 0)])
        r, swaps = history.reorder_with_swaps(h, {1}, {0, 2})
        assert history.moves_of(r) == [(0, 1), (0, 3), (1, 0)]
        assert swaps == [0]

    def test_no_such_event(self, pair_system):
        h = history.from_moves(pair_system, word("a b a b"), [(0, 0), (0, 1)])
        with pytest.raises(IndexError, match="no event 2"):
            history.reorder_before(h, {2}, {0})

    def test_precondition_violated(self, pair_system):
        h = history.from_moves(pair_system, word("a a b b"), [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            history.reorder_before(h, {1}, {0})
        with pytest.raises(ValueError):
            history.reorder_before(h, {0}, {0})


class TestEquivalent:
    def test_two_orders_of_disjoint_pair(self, pair_system):
        h1 = history.from_moves(pair_system, word("a b a b"), [(0, 0), (0, 1)])
        h2 = history.from_moves(pair_system, word("a b a b"), [(0, 2), (0, 0)])
        assert history.equivalent(h1, h2)

    def test_different_end_words(self, pair_system):
        h1 = history.from_moves(pair_system, word("a b a b"), [(0, 0)])
        h2 = history.from_moves(pair_system, word("a b a b"), [(0, 2)])
        assert not history.equivalent(h1, h2)

    def test_same_endpoints_different_rules(self):
        sys = make([Rule(word("a b"), ()), Rule(word("a b"), (), Anchor.LEFT)])
        h1 = history.from_moves(sys, word("a b"), [(0, 0)])
        h2 = history.from_moves(sys, word("a b"), [(1, 0)])
        assert history.words_of(h1)[-1] == history.words_of(h2)[-1]
        assert not history.equivalent(h1, h2)

    def test_different_systems(self, pair_system, fg2):
        h1 = history.from_moves(pair_system, word("a b"), [(0, 0)])
        h2 = history.from_moves(fg2, word("a A"), [(0, 0)])
        assert not history.equivalent(h1, h2)

    @pytest.mark.parametrize("fixture", ["anbn.gcsg", "dyck.gcsg", "left_anchor.egcsg",
                                         "right_anchor.egcsg", "both_anchor.egcsg"])
    def test_grammar_witness_on_its_reversed_system(self, fixture):
        # a grammar's witness indexes the rules of g._backward
        g = load(fixture)
        for w in grammar.generate_language(g, 6):
            h = history.from_moves(g._backward, w, grammar.member(g, w).witness)
            assert history.words_of(h)[-1] == ()
            assert history.equivalent(history.canonicalize(h), h)


# splitting rules give widths of 3/2 and 7/4; erasing ones widen the
# dependency order beyond precedence
SPLIT_ERASE = make([Rule(word("a b c"), word("d e")), Rule(word("e a b"), word("d e")),
                    Rule(word("d e"), ()), Rule(word("a b"), ())],
                   terminals="a b c d e")
FG2, S3 = load("fg2.nca"), load("s3.nca")
INVERSE = {FG2: str.swapcase, S3: {"e": "e", "t": "t", "s": "s", "u": "u", "r": "q", "q": "r"}.get}


@st.composite
def histories(draw):
    """Random legal walks to a word with no moves: of splitting and erasing
    moves, and on accepted `fg2` and `s3` words, the empty one included,
    where every walk ends at the empty word."""
    system = draw(st.sampled_from([SPLIT_ERASE, SPLIT_ERASE, FG2, S3]))  # half split-erase
    if system is SPLIT_ERASE:
        # words made of left-hand sides, so that the splitting rules fire
        chunks = st.sampled_from([word("a b c"), word("e a b"), word("d e"), ("c",), ("e",)])
        w = sum(draw(st.lists(chunks, min_size=2, max_size=6)), ())
    else:
        u = draw(st.lists(st.sampled_from(sorted(system.alphabet.working)), max_size=10))
        w = tuple(u) + tuple(map(INVERSE[system], reversed(u)))
    moves, end = walk(system, w, lambda options: draw(st.sampled_from(options)))
    assert end == () or system is SPLIT_ERASE
    return history.from_moves(system, w, moves)


class TestRankedOrder:
    @settings(max_examples=150, deadline=None)
    @given(histories())
    def test_canonicalize_matches_closure_reference(self, h):
        assert history.canonicalize(h) == closure_reference(h)

    @settings(max_examples=150, deadline=None)
    @given(histories())
    def test_diagram_matches_per_row_formatter(self, h):
        def frac(x):
            return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

        geo = history.geometry(h)
        out = []
        for t, row in enumerate(history.rows(h)):
            cells = " ".join(
                f"{h.symbols[i]}[{frac(geo.intervals[i][0])},{frac(geo.intervals[i][1])})"
                for i in row
            ) or "_"
            out.append(f"row {t}: {cells}")
            if t < len(h.events):
                lo, hi = geo.lines[t]
                out.append(f"  line: [{frac(lo)},{frac(hi)}) rule#{h.events[t].rule_index}")
        assert textio.format_diagram(h) == "\n".join(out) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(histories())
    def test_trace_matches_per_row_formatter(self, h):
        words = history.words_of(h)
        out = [f"{t} | {' '.join(words[t]) or '_'} | rule#{e.rule_index} @{e.position}"
               for t, e in enumerate(h.events)]
        out.append(f"{len(h.events)} | {' '.join(words[-1]) or '_'} |")
        assert textio.format_trace(h) == "\n".join(out) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(histories())
    def test_geometry_is_exact_and_one_letter_takes_the_span(self, h):
        # on s3, fg2 and SPLIT_ERASE alike
        geo = history.geometry(h)
        ends = [x for lo_hi in geo.intervals + geo.lines for x in lo_hi]
        assert all(type(x) is Fraction for x in geo.widths + tuple(ends))
        for e, line in zip(h.events, geo.lines):
            if len(e.produced) == 1:
                (lid,) = e.produced
                assert geo.intervals[lid] == line and geo.widths[lid] == line[1] - line[0]

    @settings(max_examples=150, deadline=None)
    @given(histories())
    def test_spans_are_exact_and_equal_geometry(self, h):
        intervals, lines = history._spans(h)
        geo = history.geometry(h)
        ends = [x for lo_hi in intervals + lines for x in lo_hi]
        assert not any(type(x) is float for x in ends)
        assert intervals + lines == [*geo.intervals, *geo.lines]

    def test_strategy_draws_an_empty_start_and_one_letter_productions(self):
        find(histories(), lambda h: not h.start, settings=settings(database=None))
        find(histories(), lambda h: any(len(e.produced) == 1 for e in h.events),
             settings=settings(database=None))

    def test_pool_has_fractional_endpoints(self):
        h = history.from_moves(SPLIT_ERASE, word("a b c a b"), [(0, 0), (1, 1), (2, 1)])
        g = history.geometry(h)
        assert g.lines[1] == (Fraction(3, 2), 5) and g.widths[-1] == Fraction(7, 4)


@st.composite
def anchored_histories(draw):
    """Random legal walks to a normal form on random ``a b c`` systems with
    every anchor, erasing rules and splitting ones."""
    system = make(draw(small_systems), terminals="a b c")
    # words made of left-hand sides and loose letters, so that rules fire
    chunks = st.sampled_from([r.lhs for r in system.rules] + [(x,) for x in "abc"])
    w = sum(draw(st.lists(chunks, min_size=2, max_size=8)), ())
    moves, _ = walk(system, w, lambda options: draw(st.sampled_from(options)))
    return history.from_moves(system, w, moves)


class TestAnchoredHistories:
    @settings(max_examples=400, deadline=None)
    @given(anchored_histories(), st.data())
    def test_canonical_form(self, h, data):
        c = history.canonicalize(h)
        # replays exactly, letter ids included
        assert history.from_moves(h.system, h.start, history.moves_of(c)) == c
        assert history.equivalent(h, c)
        assert history.canonicalize(c) == c
        g = h
        for i in data.draw(st.lists(st.integers(0, max(0, len(h) - 2)), max_size=12)):
            if len(g) > 1 and swappable(g, i):
                g = history.swap_adjacent(g, i)
                history.from_moves(g.system, g.start, history.moves_of(g))  # raises unless legal
                assert history.canonicalize(g) == c


@st.composite
def anchored_pairs(draw):
    """A history of :func:`anchored_histories` and a second random walk to
    a normal form from its start word on its system."""
    h = draw(anchored_histories())
    moves, _ = walk(h.system, h.start, lambda options: draw(st.sampled_from(options)))
    return h, history.from_moves(h.system, h.start, moves)


class TestEquivalentAgainstReferences:
    def test_unanchored_walk_pairs_match_closure_reference(self):
        # two walks of one word; the reference orders each walk's events by
        # the full dependency closure
        rng = random.Random(25)
        outcomes = set()
        for _ in range(300):
            system = rng.choice([SPLIT_ERASE, FG2, *HISTORY_POOL])
            if system is FG2:
                u = [rng.choice("aAbB") for _ in range(rng.randint(1, 6))]
                w = tuple(u) + tuple(s.swapcase() for s in reversed(u))
            else:
                letters = sorted(system.alphabet.working)
                pieces = [r.lhs for r in system.rules] + [(x,) for x in letters]
                w = sum((rng.choice(pieces) for _ in range(rng.randint(2, 6))), ())
            g, h = (history.from_moves(system, w, walk(system, w, rng.choice)[0])
                    for _ in range(2))
            same = history.equivalent(g, h)
            assert same == (closure_reference(g) == closure_reference(h))
            outcomes.add(same)
        assert outcomes == {True, False}

    @settings(max_examples=300, deadline=None)
    @given(anchored_pairs())
    def test_anchored_pairs_match_canonical_histories(self, pair):
        g, h = pair
        assert history.equivalent(g, h) == (history.canonicalize(g) == history.canonicalize(h))

    @pytest.mark.parametrize("outcome", [True, False])
    def test_anchored_pairs_draw_both_outcomes(self, outcome):
        # an example found is enough: shrinking it would take nearly all the time
        find(anchored_pairs(), lambda pair: history.equivalent(*pair) is outcome,
             settings=settings(database=None, phases=[Phase.generate]))


def fresh(h):
    """A copy of ``h`` with nothing cached: a pickle round trip."""
    return pickle.loads(pickle.dumps(h))


class TestCanonicalCache:
    def test_shuffled_history_is_rebuilt_once(self, monkeypatch):
        w = word("a A b B a A")
        want = history.from_moves(FG2, w, [(0, 0), (2, 0), (0, 0)])
        # a swap of the canonical history, and a right-first one from from_moves
        shuffled = [history.swap_adjacent(want, 0),
                    history.from_moves(FG2, w, [(2, 2), (0, 0), (0, 0)])]
        from_moves = history.from_moves
        calls = []

        def counted(*args):
            calls.append(args)
            return from_moves(*args)

        monkeypatch.setattr(history, "from_moves", counted)
        for g in shuffled:
            calls.clear()
            c = history.canonicalize(g)
            assert len(calls) == 1 and c == want and c is not g
            assert history.canonicalize(c) is c and len(calls) == 1

    def test_private_slots_ignored(self, fg2):
        h = history.from_moves(fg2, word("b a A B"), [(0, 1), (2, 0)])
        history.canonicalize(h)  # fills the cache
        assert h._canonical is not None and h._built
        for copied in (fresh(h), copy.deepcopy(h), copy.copy(h)):
            assert copied._canonical is None and not copied._built
            assert copied == h and hash(copied) == hash(h)
        assert repr(h) == repr(history.History(h.system, h.start, h.events, h.symbols))
        assert re.fullmatch(r"History\(system=.*, start=.*, events=.*, symbols=.*\)", repr(h))
        assert "_canonical" not in repr(h) and "_built" not in repr(h)
        with pytest.raises(AttributeError, match="read-only"):
            h._canonical = None

    @settings(max_examples=200, deadline=None)
    @given(anchored_pairs())
    def test_equivalent_with_caches_filled_matches_fresh_copies(self, pair):
        g, h = pair
        want = history.equivalent(fresh(g), fresh(h))
        for _ in range(2):  # fills both caches, then reads them
            assert history.equivalent(g, h) == want
            assert history.equivalent(history.canonicalize(g), h) == want
            assert history.equivalent(h, g) == want

    def test_equivalent_with_caches_filled_draws_both_outcomes(self):
        rng = random.Random(33)
        outcomes = set()
        for _ in range(200):
            g, h = random_history(rng), random_history(rng)
            if rng.random() < 0.5:  # an equivalent partner
                h = g
                for _ in range(len(g)):
                    i = rng.randrange(max(1, len(h) - 1))
                    if len(h) > 1 and swappable(h, i):
                        h = history.swap_adjacent(h, i)
            want = history.equivalent(fresh(g), fresh(h))
            history.canonicalize(g)
            history.canonicalize(h)
            assert history.equivalent(g, h) == want
            outcomes.add(want)
        assert outcomes == {True, False}


def precedence_reference(h):
    """``before`` of the precedence order from pairwise letter-set
    intersections, closed by walking the edges backwards in time."""
    n = len(h)
    below = [set() for _ in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if set(h.events[i].produced) & set(h.events[j].consumed):
                below[i] |= {j} | below[j]
    return tuple(tuple(j in below[i] for j in range(n)) for i in range(n))


# the pool above, and the unanchored random walks of the acceptance tests
reference_histories = st.one_of(
    histories(), st.integers(0, 2**32).map(lambda seed: random_history(random.Random(seed))))


class TestAgainstReferenceOrders:
    @settings(max_examples=150, deadline=None)
    @given(reference_histories)
    def test_precedence_matches_pairwise_reference(self, h):
        assert history.precedence(h) == precedence_reference(h)

    @settings(max_examples=300, deadline=None)
    @given(reference_histories, st.data())
    def test_reorder_succeeds_iff_closure_allows(self, h, data):
        n = len(h)
        ids = data.draw(st.permutations(range(n)))
        k1 = data.draw(st.integers(0, n))
        k2 = data.draw(st.integers(0, n - k1))
        first, second = set(ids[:k1]), set(ids[k1:k1 + k2])
        dep = dependency_closure(h)
        if any(dep[b][a] for a in first for b in second):
            with pytest.raises(ValueError, match="must precede"):
                history.reorder_with_swaps(h, first, second)
            return
        r, swaps = history.reorder_with_swaps(h, first, second)
        g, pos = h, list(range(n))
        for i in swaps:
            g = history.swap_adjacent(g, i)
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        assert g == r
        where = {e: t for t, e in enumerate(pos)}
        assert all(where[a] < where[b] for a in first for b in second)
        assert history.equivalent(h, r)
