import copy as copy_module
import functools
import itertools
import pickle
import random
import sys
import threading

import pytest
from hypothesis import assume, given, settings, strategies as st

from gcsl import cli, grammar, nca, textio, transforms
from gcsl.core import Alphabet, Anchor, ValidationError, anchor_ok, splice, word
from gcsl.nca import Budget, Move, NcaSystem, Rule, Status

from conftest import FIXTURES, load, shortening_rules
from test_core import occurrences


def make(rules, terminals="a b", working=None):
    return NcaSystem(
        Alphabet(frozenset(terminals.split()), frozenset((working or terminals).split())),
        tuple(rules),
    )


class TestValidate:
    def test_ok(self):
        sys = make([Rule(word("a b"), word("T"))], working="a b T")
        assert sys.rules == (Rule(word("a b"), word("T")),)

    def test_not_length_reducing(self):
        with pytest.raises(ValidationError, match="not length-reducing"):
            make([Rule(word("a"), word("a b"))])

    def test_symbol_outside_alphabet(self):
        with pytest.raises(ValidationError, match="outside working alphabet"):
            make([Rule(word("a b"), word("c"))])

    def test_duplicates_collapse_but_same_lhs_allowed(self):
        r = Rule(word("a b"), ())
        sys = make([r, r, Rule(word("a b"), word("T"))], working="a b T")
        assert len(sys.rules) == 2


class TestMoves:
    def test_legal_moves_order(self):
        sys = make([Rule(word("a b"), ())])
        assert nca.legal_moves(sys, word("a b a b")) == [Move(0, 0), Move(0, 2)]

    def test_anchored_rule_blocked_inside(self, xanchor):
        assert nca.legal_moves(xanchor, word("x x")) == []

    def test_mixed_system(self):
        sys = make(
            [Rule(word("a b"), word("T")), Rule(word("a T b"), (), Anchor.BOTH)],
            working="a b T",
        )
        assert nca.legal_moves(sys, word("a a b b")) == [Move(0, 1)]

    def test_apply(self):
        sys = make([Rule(word("a b"), word("T"))], working="a b T")
        assert nca.apply_move(sys, word("a a b b"), Move(0, 1)) == word("a T b")

    def test_apply_illegal_rejected(self):
        sys = make([Rule(word("a b"), ())])
        with pytest.raises(ValueError):
            nca.apply_move(sys, word("a b"), Move(0, 1))

    @pytest.mark.parametrize("rule_index, position", [
        *(pytest.param(0, p, id=str(p)) for p in (-1, -2, 2, 3)),
        *(pytest.param(i, 0, id=f"rule{i}") for i in (-1, 1)),
    ])
    def test_apply_out_of_range_rejected(self, rule_index, position):
        sys = make([Rule(word("a b"), ())])
        with pytest.raises(ValueError, match="illegal move"):
            nca.apply_move(sys, word("a b"), Move(rule_index, position))


def scan_moves(rules, w):
    """Every rule, every position: the move generator before the
    left-hand-side index, kept as the oracle."""
    return [Move(i, pos) for i, r in enumerate(rules) for pos in occurrences(w, r.lhs, r.anchor)]


@functools.lru_cache(maxsize=None)
def indexed_rules(name, to_gcsg):
    """A rule index and the working alphabet its rules run over: an
    ``.nca`` fixture's own, or the backward system of a grammar."""
    system = load(name)
    if to_gcsg:
        system = transforms.nca_to_gcsg(system)
    if isinstance(system, NcaSystem):
        return system._index, sorted(system.alphabet.working)
    return system._backward._index, sorted(system.alphabet)


class TestRuleIndex:
    @pytest.mark.parametrize("name, to_gcsg", [
        *((p.name, False) for p in sorted(FIXTURES.glob("*.nca"))),
        pytest.param("s3.nca", True, id="nca_to_gcsg(s3)"),
        pytest.param("fg2.nca", True, id="nca_to_gcsg(fg2)"),
        pytest.param("right_anchor.nca", True, id="nca_to_gcsg(right_anchor)"),
        ("left_anchor.egcsg", False), ("right_anchor.egcsg", False), ("both_anchor.egcsg", False),
    ])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_scan(self, name, to_gcsg, data):
        index, letters = indexed_rules(name, to_gcsg)
        w = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=10)))
        assert nca._moves(index, w) == scan_moves(index.rules, w)

    @settings(max_examples=200)
    @given(
        st.lists(
            st.builds(
                Rule,
                st.lists(st.sampled_from("ab"), min_size=1, max_size=3).map(tuple),
                st.sampled_from([(), ("c",)]),
                st.sampled_from(list(Anchor)),
            ),
            max_size=8,
        ),
        st.lists(st.sampled_from("abc"), max_size=8).map(tuple),
    )
    def test_random_systems_match_scan(self, rules, w):
        # drawn rules need not shorten, so they are indexed without a system
        rules = tuple(rules)
        assert nca._moves(nca.index_rules(rules), w) == scan_moves(rules, w)

    def test_shared_lhs_mixed_lengths_and_anchors(self):
        sys = make(
            [Rule(word("a b"), (), Anchor.RIGHT), Rule(word("a"), ()),
             Rule(word("a b"), ()), Rule(word("a b"), (), Anchor.LEFT)],
        )
        w = word("a b a b")
        assert nca.legal_moves(sys, w) == scan_moves(sys.rules, w) == [
            Move(0, 2), Move(1, 0), Move(1, 2), Move(2, 0), Move(2, 2), Move(3, 0)]

    def test_built_once_per_system(self, monkeypatch):
        calls = []
        index_rules = nca.index_rules
        monkeypatch.setattr(nca, "index_rules", lambda rules: calls.append(rules) or index_rules(rules))
        sys = load("fg2.nca")
        for w in (word("a A"), word("a b"), word("b a A B")):
            nca.decide(sys, w)
        nca.legal_moves(sys, word("a A"))
        assert len(calls) == 1

    def test_empty_lhs_rejected(self):
        with pytest.raises(ValueError, match="empty left hand side"):
            Rule((), word("a"))


small_systems = st.lists(shortening_rules(), min_size=1, max_size=8).map(tuple)
small_words = st.lists(st.sampled_from("abc"), max_size=12).map(tuple)


def derive_step(index, w, moves, move):
    """Apply ``move`` to ``w`` and derive the child's moves from ``moves``."""
    i, p = move
    r = index.rules[i]
    child = splice(w, p, len(r.lhs), r.rhs)
    return child, nca._derive(index, moves, child, p, len(r.lhs), len(r.rhs))


class TestDerivedMoves:
    @settings(max_examples=300, deadline=None)
    @given(small_systems, small_words, st.data())
    def test_random_walk_matches_full_scan(self, rules, w, data):
        index = nca.index_rules(rules)
        moves = nca._moves(index, w)
        while moves:
            w, moves = derive_step(index, w, moves, data.draw(st.sampled_from(moves)))
            assert moves == nca._moves(index, w)

    @pytest.mark.parametrize("rules, w, move, child_moves", [
        # erasing the first letter brings b to the left end
        ([Rule(("a",), ()), Rule(("b",), (), Anchor.LEFT)], "a b", (0, 0), [(1, 0)]),
        # erasing the last letter brings b to the right end
        ([Rule(("a",), ()), Rule(("b",), (), Anchor.RIGHT)], "b a", (0, 1), [(1, 0)]),
        # erasing either end can leave b as the whole word
        ([Rule(("a",), ()), Rule(("b",), (), Anchor.BOTH)], "a b", (0, 0), [(1, 0)]),
        ([Rule(("a",), ()), Rule(("b",), (), Anchor.BOTH)], "b a", (0, 1), [(1, 0)]),
        # a right-anchored move shifts left, a both-anchored one lapses
        ([Rule(("a", "a"), ("c",)), Rule(("b",), (), Anchor.RIGHT)], "a a b", (0, 0), [(1, 1)]),
        ([Rule(("a",), ()), Rule(("a", "b"), (), Anchor.BOTH)], "a b", (0, 0), []),
        # a window across the seam of an erasure
        ([Rule(("a", "c", "b"), ()), Rule(("a", "b"), ())], "a a c b b", (0, 1), [(1, 0)]),
    ])
    def test_splices_at_the_ends_and_across_a_seam(self, rules, w, move, child_moves):
        index = nca.index_rules(tuple(rules))
        w = word(w)
        moves = nca._moves(index, w)
        assert move in moves
        child, derived = derive_step(index, w, moves, move)
        assert derived == nca._moves(index, child) == child_moves

    @pytest.mark.parametrize("shuffled", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(rules=small_systems, w=small_words, seed=st.integers(0, 2**32))
    def test_search_expands_each_word_with_its_full_scan(self, rules, w, seed, shuffled):
        # the search expands the root, then the child it last spliced, and
        # gets that word's moves, scanned or derived, as the full scan
        # would list them; shuffled rules change the order they are tried in
        if shuffled:
            rules = tuple(random.Random(seed).sample(rules, len(rules)))
        index = nca.index_rules(rules)
        seen = [w]
        scan, derive = nca._moves, nca._derive

        def spy(*args):
            seen.append(splice(*args))
            return seen[-1]

        def check(word, moves):
            assert word == seen[-1]
            assert moves == scan_moves(rules, word)
            return moves

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nca, "splice", spy)
            mp.setattr(nca, "_moves", lambda index, word: check(word, scan(index, word)))
            mp.setattr(nca, "_derive", lambda index, moves, child, *rest:
                       check(child, derive(index, moves, child, *rest)))
            d = nca._search(index, w, Budget(max_nodes=300), set())
        if d.accepted:
            for i, p in d.witness:
                r = rules[i]
                assert p in occurrences(w, r.lhs, r.anchor)
                w = splice(w, p, len(r.lhs), r.rhs)
            assert w == ()


class TestDecide:
    def test_free_group_cancellation(self, fg2):
        assert nca.decide(fg2, word("a b B A")).accepted

    def test_anchored_counterexample(self, xanchor):
        assert nca.decide(xanchor, word("x")).accepted
        assert not nca.decide(xanchor, word("x x")).accepted

    def test_anbn(self, anbn_nca):
        assert nca.decide(anbn_nca, word("a a b b")).accepted
        assert not nca.decide(anbn_nca, word("a a b")).accepted

    def test_epsilon_always_accepted(self, fg2):
        d = nca.decide(fg2, ())
        assert d.accepted and d.witness == ()

    def test_nonterminal_input_rejected(self, anbn_nca):
        with pytest.raises(ValueError):
            nca.decide(anbn_nca, word("a T b"))
        assert nca._search(anbn_nca._index, word("a T b"), Budget(), None).accepted

    def test_budget_exceeded_is_distinct(self, fg2):
        # the pass reduces the first word, which needs no budget; the
        # search needs 3 nodes to reject the second, whose exponent sums
        # are zero; the third's are not, so no search runs
        assert nca.decide(fg2, word("a A a A a A"), Budget(max_nodes=2)).status is Status.ACCEPTED
        d = nca.decide(fg2, word("a A a A a b A B"), Budget(max_nodes=2))
        assert d.status is Status.BUDGET_EXCEEDED
        assert nca.decide(fg2, word("a A a A a"), Budget(max_nodes=1)).status is Status.REJECTED

    def test_deep_accepted_word(self, fg2, capsys):
        # a witness 1 200 moves long, deeper than the interpreter's default
        # recursion limit
        rng = random.Random(2400)
        u = [rng.choice("aAbB") for _ in range(1200)]
        w = tuple(u) + tuple(s.swapcase() for s in reversed(u))
        d = nca.decide(fg2, w)
        assert d.accepted and len(d.witness) == 1200
        assert cli.main(["decide", str(FIXTURES / "fg2.nca"), " ".join(w)]) == 0
        assert capsys.readouterr().out == "accepted\n"

    def test_witness_replays_to_empty(self, fg2):
        w = word("a b B A")
        d = nca.decide(fg2, w)
        assert len(d.witness) <= len(w)
        for m in d.witness:
            w2 = nca.apply_move(fg2, w, m)
            assert len(w2) < len(w)
            w = w2
        assert w == ()


class TestWordType:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
    def test_list_and_tuple_words_agree(self, name):
        # decide, member, legal_moves and apply_move read any sequence of
        # symbols as the tuple of those symbols
        decide, _, system, letters = deciding(name, False)
        for n in range(4 if name == "s3.nca" else 5):
            for w in itertools.product(letters, repeat=n):
                assert decide(list(w), nca.DEFAULT_BUDGET) == decide(w, nca.DEFAULT_BUDGET), w
                moves = nca.legal_moves(system, w)
                assert nca.legal_moves(system, list(w)) == moves, w
                for m in moves:
                    assert nca.apply_move(system, list(w), m) == nca.apply_move(system, w, m)


@functools.lru_cache(maxsize=None)
def deciding(name, to_gcsg):
    """A fixture's ``decide`` or, for a grammar, ``member``, as a function
    of a word and a budget; the rule index it searches; the system that
    index belongs to, which replays its moves; and the terminals."""
    system = load(name)
    if to_gcsg:
        system = transforms.nca_to_gcsg(system)
    if isinstance(system, NcaSystem):
        return (functools.partial(nca.decide, system), system._index, system,
                sorted(system.alphabet.terminals))
    backward = system._backward
    return (functools.partial(grammar.member, system), backward._index, backward,
            sorted(system.terminals))


def replays_to_empty(sys, w, moves):
    for m in moves:
        w = nca.apply_move(sys, w, Move._make(m))
    return w == ()


ORACLE_BUDGET = Budget(max_nodes=20_000)


def check_against_search(decide, index, sys, w):
    """``decide`` gives the plain search's verdict, its witness and that
    of the deterministic pass replay to the empty word, and the pass
    accepts no word that the search rejects."""
    expected = nca._search(index, w, ORACLE_BUDGET, None)
    assume(expected.status is not Status.BUDGET_EXCEEDED)
    d = decide(w, ORACLE_BUDGET)
    assert d.status is expected.status
    if d.accepted:
        assert replays_to_empty(sys, w, d.witness)
    moves, rest = nca._greedy(index, w)
    if not rest:
        assert expected.accepted and replays_to_empty(sys, w, moves)


def every_system(max_len, s3_len):
    """``(name, to_gcsg, max_len)`` for every fixture and for the
    ``nca_to_gcsg`` grammars of ``s3``, ``fg2`` and ``right_anchor``, the
    last with caret symbols; words are shorter on the ``s3`` systems."""
    return [
        *((p.name, False, s3_len if p.name == "s3.nca" else max_len)
          for p in sorted(FIXTURES.iterdir())),
        pytest.param("s3.nca", True, s3_len, id="nca_to_gcsg(s3)"),
        pytest.param("fg2.nca", True, max_len, id="nca_to_gcsg(fg2)"),
        pytest.param("right_anchor.nca", True, max_len, id="nca_to_gcsg(right_anchor)"),
    ]


def reference_pass(index, w):
    """The deterministic pass before the left-hand-side automaton, kept as
    the oracle: after each push, and after each erase, one slice and two
    dict lookups per left-hand-side length, longest first."""
    rules = index.rules
    stack = []
    unread = list(reversed(w))
    moves = []
    while unread:
        stack.append(unread.pop())
        while True:
            top = len(stack)
            hit = None
            for k, anchored, free in index.by_len:
                if k > top:
                    continue
                pos = top - k
                lhs = tuple(stack[pos:])
                for i, anchor in anchored.get(lhs, ()):
                    if anchor_ok(anchor, pos, k, top + len(unread)):
                        hit = i
                        break
                else:
                    hits = free.get(lhs)
                    if hits:
                        hit = hits[0]
                if hit is not None:
                    break
            if hit is None:
                break
            moves.append((hit, pos))
            del stack[pos:]
            rhs = rules[hit].rhs
            if rhs:
                unread.extend(reversed(rhs))
                break
    return moves, tuple(stack)


class TestPassAutomaton:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(shortening_rules("ab"), min_size=1, max_size=10).map(tuple),
           st.lists(st.sampled_from("abc"), max_size=12).map(tuple))
    def test_random_systems_match_reference(self, rules, w):
        # left-hand sides over two letters overlap and share prefixes, at
        # every anchor; c starts none of them
        index = nca.index_rules(rules)
        assert nca._greedy(index, w) == reference_pass(index, w)

    @pytest.mark.parametrize("name, to_gcsg, max_len", every_system(6, 6))
    def test_every_short_word_matches_reference(self, name, to_gcsg, max_len):
        _, index, _, letters = deciding(name, to_gcsg)
        for n in range(max_len + 1):
            for w in itertools.product(letters, repeat=n):
                assert nca._greedy(index, w) == reference_pass(index, w), w

    def test_candidates_in_pass_order(self):
        # at equal length the anchored rules come first, lowest index first,
        # then the first unanchored one; nothing after it can apply
        index = nca.index_rules((
            Rule(word("b"), ()), Rule(word("a b"), ()), Rule(word("a b"), word("c")),
            Rule(word("a b"), (), Anchor.RIGHT), Rule(word("a b"), (), Anchor.LEFT)))
        automaton = index.automaton
        assert automaton.words == []
        nca._greedy(index, word("a b"))
        state = automaton.ids[word("a b")]
        assert automaton.candidates[state] == (
            (3, Anchor.RIGHT, 2, ()), (4, Anchor.LEFT, 2, ()), (1, Anchor.NONE, 2, ()))

    def test_unbuilt_outside_the_pass(self, monkeypatch):
        indexes = []
        index_rules = nca.index_rules
        monkeypatch.setattr(nca, "index_rules",
                            lambda rules: indexes.append(index_rules(rules)) or indexes[-1])
        for name in ("s3.nca", "right_anchor.nca"):
            system = load(name)
            nca.enumerate_language(system, 3)
            g = transforms.nca_to_gcsg(system)
            textio.serialize_system(g)
            textio.serialize_system(system)
        assert indexes and all(ix.automaton.words == [] for ix in indexes)
        nca.decide(system, word("a b"))
        assert system._index.automaton.words

    def test_builds_only_the_states_it_reaches(self):
        # the 1 000-symbol, 501-rule system of the conversion cap
        symbols = [f"x{i}" for i in range(1000)]
        system = NcaSystem(Alphabet(frozenset(symbols), frozenset(symbols)),
                           tuple(Rule((f"x{i}", f"x{i + 1}"), ()) for i in range(501)))
        assert nca.decide(system, word("x7 x8")).accepted
        assert len(system._index.automaton.words) <= 3

    def test_threads_share_one_automaton(self):
        # four threads build one automaton of hundreds of states at once,
        # switching as often as the interpreter allows: every state keeps
        # its own number, and every pass matches the reference
        rng = random.Random(0)
        rules = tuple(dict.fromkeys(Rule(tuple(rng.choices("abcdefgh", k=rng.randint(3, 5))), ())
                                    for _ in range(600)))
        words = [tuple(rng.choices("abcdefgh", k=40)) for _ in range(400)]
        expected = [reference_pass(nca.index_rules(rules), w) for w in words]
        interval = sys.getswitchinterval()
        for _ in range(10):
            index = nca.index_rules(rules)
            results = {}

            def run(part):
                results[part] = [nca._greedy(index, w) for w in words[part::4]]

            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=run, args=(part,)) for part in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            automaton = index.automaton
            assert [automaton.ids[u] for u in automaton.words] == list(range(len(automaton.words)))
            for part in range(4):
                assert results[part] == expected[part::4]

    def test_copies_start_unbuilt(self, fg2):
        fresh = [pickle.loads(pickle.dumps(fg2)), copy_module.deepcopy(fg2)]
        assert nca.decide(fg2, word("a b B A")).accepted
        for copy in (pickle.loads(pickle.dumps(fg2)), copy_module.deepcopy(fg2), *fresh):
            assert copy == fg2 and hash(copy) == hash(fg2) and type(copy) is NcaSystem
            assert copy._index.automaton.words == []
            assert nca.decide(copy, word("a b B A")) == nca.decide(fg2, word("a b B A"))

    def test_equal_systems_keep_their_own(self):
        s1, s2 = load("fg2.nca"), load("fg2.nca")
        assert s1 == s2 and s1 is not s2
        assert nca.decide(s1, word("a b B A")).accepted
        assert s1._index.automaton.words and s2._index.automaton.words == []
        assert nca.decide(s2, word("a A")).accepted
        assert s2._index.automaton is not s1._index.automaton


class TestGreedy:
    @pytest.mark.parametrize("name, to_gcsg, max_len", every_system(8, 5))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fixtures_agree_with_search(self, name, to_gcsg, max_len, data):
        decide, index, sys, letters = deciding(name, to_gcsg)
        w = tuple(data.draw(st.lists(st.sampled_from(letters), min_size=1, max_size=max_len)))
        check_against_search(decide, index, sys, w)

    @settings(max_examples=300, deadline=None)
    @given(small_systems, small_words)
    def test_random_systems_agree_with_search(self, rules, w):
        sys = make(rules, terminals="a b c")
        check_against_search(functools.partial(nca.decide, sys), sys._index, sys, w)

    def test_anchored_rule_first_at_equal_length(self, anbn_nca):
        # a T b -> _ @both goes before a T b -> T, which would leave T
        moves, rest = nca._greedy(anbn_nca._index, word("a a b b"))
        assert rest == () and moves == [(0, 1), (3, 0)]

    def test_long_cancelling_word_in_one_pass(self, fg2):
        rng = random.Random(20_000)
        u = [rng.choice("aAbB") for _ in range(10_000)]
        w = tuple(u) + tuple(s.swapcase() for s in reversed(u))
        moves, rest = nca._greedy(fg2._index, w)
        assert rest == () and len(moves) == 10_000
        d = nca.decide(fg2, w)
        assert d.accepted and d.witness == tuple(map(Move._make, moves))

    def test_pass_needs_no_budget(self, fg2):
        w = word("a A a A a A")
        moves, rest = nca._greedy(fg2._index, w)
        assert len(moves) == 3 and rest == ()
        assert nca.decide(fg2, w, Budget(max_nodes=1)).accepted
        # the pass leaves this word at a b A B, and the search decides it
        w = word("a A a A a b A B")
        assert nca._greedy(fg2._index, w)[1] == word("a b A B")
        assert nca.decide(fg2, w, Budget(max_nodes=1)).status is Status.BUDGET_EXCEEDED
        assert nca.decide(fg2, w, Budget(max_nodes=3)).status is Status.REJECTED
        # the pass leaves this one at a, outside the lattice: no search runs
        assert nca.decide(fg2, word("a A a A a"), Budget(max_nodes=1)).status is Status.REJECTED

    @pytest.mark.parametrize("name, to_gcsg, max_len", every_system(6, 4))
    def test_pass_answers_at_any_budget(self, name, to_gcsg, max_len):
        # every nonempty word of up to max_len letters that the pass
        # reduces is accepted within one search node
        decide, index, _, letters = deciding(name, to_gcsg)
        reduced = [w for n in range(1, max_len + 1) for w in itertools.product(letters, repeat=n)
                   if not nca._greedy(index, w)[1]]
        assert reduced
        for w in reduced:
            assert decide(w, Budget(max_nodes=1)).accepted, w

    def test_failed_pass_leaves_the_search_the_whole_budget(self, anbn_nca):
        w = word("a b a b")
        index = anbn_nca._index
        moves, rest = nca._greedy(index, w)
        assert len(moves) == 2 and rest == word("T T")
        # the fewest nodes with which the search alone rejects w
        nodes = next(n for n in itertools.count(1)
                     if nca._search(index, w, Budget(max_nodes=n), None).status is Status.REJECTED)
        assert nodes == 4
        assert nca.decide(anbn_nca, w, Budget(max_nodes=nodes)).status is Status.REJECTED
        assert nca.decide(anbn_nca, w, Budget(max_nodes=nodes - 1)).status is Status.BUDGET_EXCEEDED

    def test_memo_answers_before_the_pass(self, fg2):
        # a word in the memo is rejected without a pass, even one that reduces
        w = word("a A")
        assert nca.decide(fg2, w, memo={w}).status is Status.REJECTED


# (words rejected by the lattice, words rejected) among the nonempty
# words of up to every_system(6, 4)'s lengths
LATTICE_CATCHES = {
    ("anbn.gcsg", False): (98, 123), ("anbn.nca", False): (98, 123),
    ("both_anchor.egcsg", False): (0, 125), ("dyck.gcsg", False): (98, 118),
    ("fg1.nca", False): (98, 98), ("fg2.nca", False): (5020, 5196),
    ("left_anchor.egcsg", False): (0, 125), ("right_anchor.egcsg", False): (0, 125),
    ("right_anchor.nca", False): (0, 0), ("s3.nca", False): (777, 1295),
    ("xanchor.nca", False): (0, 5), ("xfree.nca", False): (0, 0),
    ("s3.nca", True): (777, 1295), ("fg2.nca", True): (5020, 5196),
    ("right_anchor.nca", True): (0, 0),
}


class TestLattice:
    @pytest.mark.parametrize("name, to_gcsg, max_len", every_system(6, 4))
    def test_rejects_no_accepted_word(self, name, to_gcsg, max_len):
        # every word the search accepts lies in the lattice, and the
        # lattice rejects exactly the pinned share of the others
        _, index, sys, letters = deciding(name, to_gcsg)
        caught = rejected = 0
        for n in range(1, max_len + 1):
            for w in itertools.product(letters, repeat=n):
                inside = nca._in_lattice(sys, w)
                d = nca._search(index, w, ORACLE_BUDGET, None)
                assert d.status is not Status.BUDGET_EXCEEDED
                if d.accepted:
                    assert inside, w
                else:
                    rejected += 1
                    caught += not inside
        assert (caught, rejected) == LATTICE_CATCHES[name, to_gcsg]

    def test_group_invariants(self, fg2):
        # fg2: the two exponent sums; s3: Z^6/L is Z/2, the sign of a permutation
        _, pivots = fg2._lattice
        assert [row[j] for j, row in pivots] == [1, 1]
        assert not nca._in_lattice(fg2, word("a b"))
        assert nca._in_lattice(fg2, word("a b A B"))
        s3 = load("s3.nca")
        assert [row[j] for j, row in s3._lattice[1]] == [1, 1, 1, 1, 1, 2]
        assert not nca._in_lattice(s3, word("t"))
        assert nca._in_lattice(s3, word("r r r r"))

    def test_built_once_after_a_failed_pass(self, fg2):
        assert nca.decide(fg2, word("a b B A")).accepted
        assert "_lattice" not in vars(fg2)
        assert nca.decide(fg2, word("a b"), Budget(max_nodes=1)).status is Status.REJECTED
        lattice = vars(fg2)["_lattice"]
        assert nca.decide(fg2, word("a a b"), Budget(max_nodes=1)).status is Status.REJECTED
        assert fg2._lattice is lattice

    @settings(max_examples=300, deadline=None)
    @given(small_systems, small_words)
    def test_same_answer_after_the_pass(self, rules, w):
        # each rewrite moves the count vector by one lattice row, so decide
        # may test the word the pass leaves instead of the input
        sys = make(rules, terminals="a b c")
        assert nca._in_lattice(sys, w) == nca._in_lattice(sys, nca._greedy(sys._index, w)[1])

    def test_rejection_fills_no_memo(self, fg2):
        memo = set()
        assert nca.decide(fg2, word("a b a"), memo=memo).status is Status.REJECTED
        assert memo == set()
        assert nca.decide(fg2, word("a b A B"), memo=memo).status is Status.REJECTED
        assert word("a b A B") in memo

    @settings(max_examples=200, deadline=None)
    @given(st.lists(shortening_rules("abT"), min_size=1, max_size=6).map(tuple),
           st.lists(st.sampled_from("abT"), max_size=8).map(tuple))
    def test_random_systems(self, rules, w):
        # on erasing, anchored and non-terminal (T) rules: every accepted
        # word lies in the lattice, a rule keeps a word's coset, and decide
        # agrees with the plain search
        sys = make(rules, working="a b T")
        assert all(nca._in_lattice(sys, u) for u in nca.enumerate_language(sys, 6))
        inside = nca._in_lattice(sys, w)
        for m in nca.legal_moves(sys, w):
            assert nca._in_lattice(sys, nca.apply_move(sys, w, m)) == inside
        terminal = tuple(s for s in w if s != "T")
        check_against_search(functools.partial(nca.decide, sys), sys._index, sys, terminal)


class TestMemoCap:
    """A search whose memo reaches ``nca.MAX_MEMO`` words stops, and an
    enumeration, of a system or of a grammar, that would hold more than
    ``nca.MAX_MEMO`` words stops with a budget stop."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(nca, "MAX_MEMO", 5)

    def test_decide_with_a_full_memo(self, anbn_nca):
        memo = {("a",) * n for n in range(1, 6)}
        d = nca.decide(anbn_nca, word("a b b a"), memo=memo)
        assert d.status is Status.BUDGET_EXCEEDED
        # a word outside the lattice is rejected before the search adds to the memo
        d = nca.decide(anbn_nca, word("a a b"), Budget(max_nodes=1), memo=memo)
        assert d.status is Status.REJECTED

    def test_enumerate_raises(self):
        with pytest.raises(nca.BudgetExceededError):
            nca.enumerate_language(load("s3.nca"), 3)

    def test_generate_raises(self):
        with pytest.raises(nca.BudgetExceededError):
            grammar.generate_language(load("dyck.gcsg"), 8)

    @pytest.mark.parametrize("argv", [
        ["enumerate", str(FIXTURES / "s3.nca"), "--max-len", "3"],
        ["equiv", str(FIXTURES / "fg2.nca"), str(FIXTURES / "fg1.nca"), "--max-len", "4"],
        ["enumerate", str(FIXTURES / "dyck.gcsg"), "--max-len", "8"],
    ], ids=["enumerate", "equiv", "enumerate-grammar"])
    def test_cli_exits_3(self, argv, capsys):
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and "budget exceeded" in err

    def test_conversion_raises(self):
        # an anchored system: an unanchored one converts to its extended grammar
        with pytest.raises(nca.BudgetExceededError, match="more than 5 productions"):
            transforms.nca_to_gcsg(load("right_anchor.nca"))

    @pytest.mark.parametrize("to, fixture",
                             [("gcsg", "right_anchor.nca"), ("noterm", "anbn.gcsg")])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_cli_convert_exits_3(self, to, fixture, to_file, tmp_path, capsys):
        out = tmp_path / "converted"
        argv = ["convert", "--to", to, str(FIXTURES / fixture)]
        if to_file:
            argv += ["-o", str(out)]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "budget exceeded" in captured.err
        assert not out.exists()


class TestEnumerate:
    def test_x_anchor_language(self, xanchor):
        assert nca.enumerate_language(xanchor, 3) == {(), ("x",)}

    def test_ab_cancel(self):
        sys = make([Rule(word("a b"), ())])
        assert nca.enumerate_language(sys, 2) == {(), word("a b")}

    def test_max_len_zero(self, fg2):
        assert nca.enumerate_language(fg2, 0) == {()}

    @pytest.mark.parametrize("max_len", [-1, -5])
    def test_negative_max_len_is_empty(self, fg2, max_len):
        assert nca.enumerate_language(fg2, max_len) == set()

    def test_guard(self, fg2):
        with pytest.raises(ValueError):
            nca.enumerate_language(fg2, 13)

    @pytest.mark.parametrize("n", [0, 2, 4])
    def test_epsilon_always_in_language(self, anbn_nca, n):
        assert () in nca.enumerate_language(anbn_nca, n)

    def test_no_concatenation_closure(self, xanchor):
        lang = nca.enumerate_language(xanchor, 2)
        assert ("x",) in lang and ("x", "x") not in lang


def brute_accept(sys, w):
    """Memo-free exhaustive recursion: the decision oracle."""
    if w == ():
        return True
    return any(
        brute_accept(sys, nca.apply_move(sys, w, m)) for m in nca.legal_moves(sys, w)
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(shortening_rules("abT"), min_size=1, max_size=6).map(tuple), st.integers(0, 5))
def test_enumeration_agrees_with_brute_force(rules, max_len):
    # the generating closure against the memo-free decision oracle, on
    # erasing, anchored and non-terminal (T) rules
    sys = make(rules, working="a b T")
    words = {w for n in range(max_len + 1) for w in itertools.product("ab", repeat=n)}
    assert nca.enumerate_language(sys, max_len) == {w for w in words if brute_accept(sys, w)}


@pytest.mark.parametrize("fixture", ["fg2.nca", "anbn.nca"])
def test_memoized_decide_agrees_with_brute_force(fixture):
    sys = load(fixture)
    letters = sorted(sys.alphabet.terminals)[:2]
    memo = set()
    for n in range(9):
        for w in itertools.product(letters, repeat=n):
            assert nca.decide(sys, w, memo=memo).accepted == brute_accept(sys, w), w


@settings(max_examples=30)
@given(st.lists(st.sampled_from("ab"), max_size=8).map(tuple), st.integers(0, 2**32))
def test_acceptance_independent_of_move_order(w, seed):
    sys = load("anbn.nca")
    rules = random.Random(seed).sample(sys.rules, len(sys.rules))
    shuffled = NcaSystem(sys.alphabet, tuple(rules))
    assert nca.decide(sys, w).accepted == nca.decide(shuffled, w).accepted
