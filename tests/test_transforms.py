import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gcsl import grammar, nca, textio, transforms
from gcsl.core import Alphabet, Anchor, word
from gcsl.grammar import Grammar, Production
from gcsl.nca import NcaSystem, Rule

from conftest import CARET_CLASH, FIXTURES, load, shortening_rules


def grammar_of(productions, terminals="a b", nonterminals="S T", start="S"):
    return Grammar(
        nonterminals=frozenset(nonterminals.split()),
        terminals=frozenset(terminals.split()),
        start=start,
        productions=tuple(productions),
    )


SYMBOLS = st.sampled_from("XYab")
START_PRODUCTIONS = st.lists(SYMBOLS, max_size=3).map(lambda v: Production(("S",), tuple(v)))


@st.composite
def growing_productions(draw):
    """u -> v over X Y a b, with u of 1-2 symbols, v one or two longer, and
    any anchor, so terminals reach both ends of both sides."""
    lhs = tuple(draw(st.lists(SYMBOLS, min_size=1, max_size=2)))
    rhs = tuple(draw(st.lists(SYMBOLS, min_size=len(lhs) + 1, max_size=len(lhs) + 2)))
    return Production(lhs, rhs, draw(st.sampled_from(list(Anchor))))


def unmark(w):
    return tuple(s.strip(transforms.CARET) for s in w)


class TestDeanchor:
    @pytest.mark.parametrize(
        "fixture", ["left_anchor.egcsg", "right_anchor.egcsg", "both_anchor.egcsg"]
    )
    def test_anchored_fixture(self, fixture):
        eg = load(fixture)
        sg = transforms.deanchor(eg)
        assert all(p.anchor is Anchor.NONE for p in sg.productions)
        assert grammar.generate_language(sg, 6) == grammar.generate_language(eg, 6)

    def test_left_anchored_decoration(self):
        g = grammar_of(
            [Production(word("S"), word("A b")), Production(word("A"), word("a b"), Anchor.LEFT)],
            nonterminals="S A",
        )
        sg = transforms.deanchor(g)
        pairs = {(p.lhs, p.rhs) for p in sg.productions}
        # both rhs ends are terminals, so each touched end is also issued plain
        assert (("^A",), ("a", "b")) in pairs
        assert (("^A^",), ("a", "b")) in pairs

    def test_unanchored_grammar_language_unchanged(self, anbn_grammar):
        sg = transforms.deanchor(anbn_grammar)
        assert grammar.generate_language(sg, 6) == grammar.generate_language(anbn_grammar, 6)

    def test_unanchored_grammar_is_returned_unchanged(self, anbn_grammar, fg2):
        # terminals stay on left-hand sides: no tilde twins, no carets
        for g in (anbn_grammar, transforms.nca_to_extended_gcsg(fg2)):
            assert transforms.deanchor(g) is g

    def test_nca_derived_grammar(self, xanchor):
        eg = transforms.nca_to_extended_gcsg(xanchor)
        sg = transforms.deanchor(eg)
        assert grammar.generate_language(sg, 4) == {(), ("x",)}

    @pytest.mark.parametrize("anchor, copies", [
        (Anchor.NONE, (("A", "B B"), ("^A", "^B B"), ("A^", "B B^"), ("^A^", "^B B^"))),
        (Anchor.LEFT, (("^A", "^B B"), ("^A^", "^B B^"))),
        (Anchor.RIGHT, (("A^", "B B^"), ("^A^", "^B B^"))),
        (Anchor.BOTH, (("^A^", "^B B^"),)),
    ])
    def test_copy_order(self, anchor, copies):
        # the copies' order sets the rule indices of the reversed system
        g = grammar_of(
            [Production(word("S"), word("A")), Production(word("A"), word("B B"), anchor),
             Production(word("B"), word("b a"), Anchor.BOTH)],
            nonterminals="S A B",
        )
        sg = transforms.deanchor(g)
        assert sg.productions[0] == Production(word("S"), word("^A^"))
        assert tuple(p for p in sg.productions if p.lhs[0].strip("^") == "A") == tuple(
            Production(word(u), word(v)) for u, v in copies)

    def test_copies_bounded_by_max_memo(self, monkeypatch):
        # at most 16 copies of a production, counted once, after the pass
        g = load("left_anchor.egcsg")
        built = len(transforms.deanchor(g).productions)
        assert built == 14
        monkeypatch.setattr(nca, "MAX_MEMO", built)
        transforms.deanchor(g)
        monkeypatch.setattr(nca, "MAX_MEMO", built - 1)
        with pytest.raises(nca.BudgetExceededError, match=f"more than {built - 1} productions"):
            transforms.deanchor(g)

    def test_duplicate_copies_count_once(self, monkeypatch):
        # A -> a b and A -> a b @left share their left-pinned copies
        g = grammar_of([Production(word("S"), word("A")), Production(word("A"), word("a b")),
                        Production(word("A"), word("a b"), Anchor.LEFT)], nonterminals="S A")
        assert len(transforms.deanchor(g).productions) == 10
        monkeypatch.setattr(nca, "MAX_MEMO", 10)
        transforms.deanchor(g)
        monkeypatch.setattr(nca, "MAX_MEMO", 9)
        with pytest.raises(nca.BudgetExceededError, match="more than 9 productions"):
            transforms.deanchor(g)

    def test_colliding_caret_names_refused(self):
        # merging b^ and ^b into one ^b^ would change the language
        g = textio.parse_system(CARET_CLASH["egcsg"])
        assert textio.language(g, 8) == {word("x x y y y")}
        with pytest.raises(ValueError, match=r"collide with each other: \['\^b\^'\]"):
            transforms.deanchor(g)

    def test_caret_name_meeting_a_symbol_refused(self):
        g = grammar_of([Production(word("S"), word("a")), Production(word("a"), word("b b"), Anchor.LEFT)],
                       nonterminals="S ^a")
        with pytest.raises(ValueError, match=r"collide with existing symbols: \['\^a'\]"):
            transforms.deanchor(g)

    def test_symbol_accounting(self):
        eg = load("left_anchor.egcsg")
        sg = transforms.deanchor(eg)
        n_in, x_in = len(eg.nonterminals), len(eg.terminals)
        # three caret families over every symbol but the start
        assert len(sg.nonterminals) <= 4 * (n_in + x_in)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(START_PRODUCTIONS, min_size=1, max_size=2),
           st.lists(growing_productions(), min_size=1, max_size=4))
    def test_random_anchored_grammars(self, starts, others):
        g = grammar_of(starts + others, nonterminals="S X Y")
        sg = transforms.deanchor(g)
        assert textio.first_difference(g, sg, 5) is None
        assert all(p.anchor is Anchor.NONE for p in sg.productions)
        assert not any(s.startswith("~") for s in sg.alphabet)
        # every copy unmarks to an input production, at most 16 copies of each
        inputs = Counter((p.lhs, p.rhs) for p in g.productions)
        copies = Counter((unmark(p.lhs), unmark(p.rhs)) for p in sg.productions)
        assert all(n <= 16 * inputs[k] for k, n in copies.items())


class TestGcsgToNca:
    def test_anbn_rules(self, anbn_grammar):
        sys = transforms.gcsg_to_nca(anbn_grammar)
        assert set(sys.rules) == {
            Rule(word("a b"), word("T")),
            Rule(word("a T b"), word("T")),
            Rule(word("a b"), (), Anchor.BOTH),
            Rule(word("a T b"), (), Anchor.BOTH),
        }

    def test_language_preserved(self, anbn_grammar):
        sys = transforms.gcsg_to_nca(anbn_grammar)
        assert nca.enumerate_language(sys, 6) == grammar.generate_language(anbn_grammar, 6)

    def test_recovers_x_system(self):
        g = grammar_of(
            [Production(word("S"), ()), Production(word("S"), word("x"))],
            terminals="x",
            nonterminals="S",
        )
        sys = transforms.gcsg_to_nca(g)
        assert sys.rules == (Rule(word("x"), (), Anchor.BOTH),)

    def test_requires_epsilon_production(self):
        g = grammar_of([Production(word("S"), word("a b"))])
        with pytest.raises(ValueError):
            transforms.gcsg_to_nca(g)

    def test_anchored_productions_become_anchored_rules(self):
        g = grammar_of(
            [Production(word("S"), ()), Production(word("S"), word("T b")),
             Production(word("T"), word("a b"), Anchor.LEFT)],
        )
        sys = transforms.gcsg_to_nca(g)
        assert sys.rules == (Rule(word("T b"), (), Anchor.BOTH),
                             Rule(word("a b"), word("T"), Anchor.LEFT))
        assert nca.enumerate_language(sys, 6) == grammar.generate_language(g, 6) == {
            (), word("a b b")}

    def test_all_rules_length_reducing(self, anbn_grammar):
        sys = transforms.gcsg_to_nca(anbn_grammar)
        assert all(len(r.lhs) > len(r.rhs) for r in sys.rules)


class TestNcaToGcsg:
    def test_x_system_extended_intermediate(self, xanchor):
        eg = transforms.nca_to_extended_gcsg(xanchor)
        assert set((p.lhs, p.rhs) for p in eg.productions) == {(("S",), ()), (("S",), ("x",))}

    def test_unanchored_erasing_rule_context_productions(self):
        sys = NcaSystem(
            Alphabet(frozenset("ab"), frozenset("ab")),
            (Rule(word("a b"), ()),),
        )
        eg = transforms.nca_to_extended_gcsg(sys)
        pairs = {(p.lhs, p.rhs) for p in eg.productions}
        assert pairs == {
            (("S",), ()), (("S",), ("a", "b")),
            (("a",), ("a", "a", "b")), (("a",), ("a", "b", "a")),
            (("b",), ("b", "a", "b")), (("b",), ("a", "b", "b")),
        }
        sg = transforms.nca_to_gcsg(sys)
        assert grammar.generate_language(sg, 4) == {
            (), word("a b"), word("a b a b"), word("a a b b"),
        }

    def test_anchored_erasing_rules(self):
        sys = NcaSystem(
            Alphabet(frozenset("ab"), frozenset("ab")),
            (Rule(word("a b"), (), Anchor.LEFT), Rule(word("b a"), (), Anchor.RIGHT)),
        )
        eg = transforms.nca_to_extended_gcsg(sys)
        lefts = {(p.lhs, p.rhs) for p in eg.productions if p.anchor is Anchor.LEFT}
        rights = {(p.lhs, p.rhs) for p in eg.productions if p.anchor is Anchor.RIGHT}
        assert lefts == {(("a",), ("a", "b", "a")), (("b",), ("a", "b", "b"))}
        assert rights == {(("a",), ("a", "b", "a")), (("b",), ("b", "b", "a"))}
        assert nca.enumerate_language(sys, 4) == grammar.generate_language(
            transforms.nca_to_gcsg(sys), 4
        )

    @pytest.mark.parametrize("anchor, grown", [
        (Anchor.NONE, (("a", "a a b"), ("a", "a b a"), ("b", "b a b"), ("b", "a b b"))),
        (Anchor.LEFT, (("a", "a b a"), ("b", "a b b"))),
        (Anchor.RIGHT, (("a", "a a b"), ("b", "b a b"))),
        (Anchor.BOTH, ()),
    ])
    def test_erasing_rule_production_order(self, anchor, grown):
        sys = NcaSystem(Alphabet(frozenset("ab"), frozenset("ab")), (Rule(word("a b"), (), anchor),))
        eg = transforms.nca_to_extended_gcsg(sys)
        assert eg.productions == (
            (Production(word("S"), ()),)
            + tuple(Production(word(x), word(v), anchor) for x, v in grown)
            + (Production(word("S"), word("a b")),))

    def test_non_erasing_rules_reverse_with_anchor(self, anbn_nca):
        eg = transforms.nca_to_extended_gcsg(anbn_nca)
        assert Production(word("T"), word("a T b")) in eg.productions

    def test_round_trip_free_group_one_generator(self):
        sys = load("fg1.nca")
        back = transforms.gcsg_to_nca(transforms.nca_to_gcsg(sys))
        assert nca.enumerate_language(back, 6) == nca.enumerate_language(sys, 6)

    def test_colliding_caret_names_refused(self):
        s = textio.parse_system(CARET_CLASH["nca"])
        with pytest.raises(ValueError, match=r"collide with each other: \['\^b\^'\]"):
            transforms.nca_to_gcsg(s)

    def test_fresh_start_symbol(self):
        sys = NcaSystem(
            Alphabet(frozenset(["S"]), frozenset(["S"])),
            (Rule(("S",), (), Anchor.BOTH),),
        )
        eg = transforms.nca_to_extended_gcsg(sys)
        assert eg.start not in sys.alphabet.working

    def test_fresh_start_symbol_skips_taken_numbers(self):
        letters = frozenset(["S", "S0", "a"])
        sys = NcaSystem(Alphabet(letters, letters),
                        (Rule(word("S S0"), ()), Rule(word("a a"), word("S"))))
        g = transforms.nca_to_gcsg(sys)
        assert g.start == "S1"
        assert textio.first_difference(sys, g, 6) is None

    def test_context_productions_counted_before_they_are_built(self, monkeypatch):
        # 1 000 symbols and 501 erasing rules: 1 + 501 * (1 + 2 * 1 000) = 1 002 502
        letters = [f"x{i}" for i in range(1000)]
        sys = NcaSystem(Alphabet(frozenset(letters), frozenset(letters)),
                        tuple(Rule((letters[i], letters[i + 1]), ()) for i in range(501)))
        built = []
        monkeypatch.setattr(transforms, "Production", lambda *a: built.append(a))
        with pytest.raises(nca.BudgetExceededError, match="more than 1000000 productions"):
            transforms.nca_to_extended_gcsg(sys)
        assert built == []

    @pytest.mark.parametrize("anchor", list(Anchor))
    def test_extended_count_is_exact(self, anchor, monkeypatch):
        # one reversed rule, one erasing rule with its context productions,
        # and the two start productions
        sys = NcaSystem(Alphabet(frozenset("ab"), frozenset("abT")),
                        (Rule(word("a b"), word("T"), anchor), Rule(word("a T b"), (), anchor)))
        built = len(transforms.nca_to_extended_gcsg(sys).productions)
        monkeypatch.setattr(nca, "MAX_MEMO", built)
        transforms.nca_to_extended_gcsg(sys)
        monkeypatch.setattr(nca, "MAX_MEMO", built - 1)
        with pytest.raises(nca.BudgetExceededError, match=f"more than {built - 1} productions"):
            transforms.nca_to_extended_gcsg(sys)

    def test_erasing_rule_beyond_max_memo_refused_at_once(self):
        # an n-letter erasing rule converts to the same few copies for any n,
        # where eliminating terminals first made 2^n of them
        sizes = set()
        for n, anchor in itertools.product((18, 40), (Anchor.LEFT, Anchor.RIGHT)):
            sys = NcaSystem(Alphabet(frozenset("a"), frozenset("a")),
                            (Rule(("a",) * n, (), anchor),))
            g = transforms.nca_to_gcsg(sys)
            sizes.add(len(g.productions))
            assert textio.first_difference(sys, g, 12) is None
        assert len(sizes) == 1 and sizes.pop() <= 16


def has_carets(g):
    return any(transforms.CARET in n for n in g.nonterminals)


class TestUnanchoredConversion:
    """A system whose extended grammar has no anchored production converts
    to that grammar: no tilde twins and no caret families, which only pin
    anchored productions."""

    @pytest.mark.parametrize("name, productions, carets", [
        ("fg2.nca", 33, False), ("s3.nca", 38, False), ("fg1.nca", 9, False),
        ("anbn.nca", 5, False), ("right_anchor.nca", 48, True),
    ])
    def test_sizes_and_carets(self, name, productions, carets):
        sg = transforms.nca_to_gcsg(load(name))
        assert len(sg.productions) == productions
        assert has_carets(sg) is carets

    @pytest.mark.parametrize("name, max_len", [("s3.nca", 4), ("fg2.nca", 6), ("fg1.nca", 9)])
    def test_pass_reduces_every_accepted_word(self, name, max_len):
        sys = load(name)
        index = transforms.nca_to_gcsg(sys)._backward._index
        words = nca.enumerate_language(sys, max_len) - {()}
        assert [w for w in sorted(words) if nca._greedy(index, w)[1] != ()] == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(shortening_rules("abT"), min_size=1, max_size=5).map(tuple),
           st.integers(0, 5))
    def test_random_systems(self, rules, max_len):
        # anchored, unanchored and erasing rules, over terminals a b and non-terminal T
        sys = NcaSystem(Alphabet(frozenset("ab"), frozenset("abT")), rules)
        sg = transforms.nca_to_gcsg(sys)
        assert textio.first_difference(sys, sg, max_len) is None
        eg = transforms.nca_to_extended_gcsg(sys)
        anchored = any(p.anchor is not Anchor.NONE for p in eg.productions)
        assert has_carets(sg) is anchored
        if not anchored:
            assert sg == eg
            assert not any(s.startswith("~") or transforms.CARET in s
                           for s in sg.alphabet)

    @pytest.mark.parametrize("name", sorted(f.name for f in FIXTURES.glob("*.nca")))
    def test_member_agrees_with_decide(self, name):
        # every terminal word of up to 5 letters, 4 on the six-letter s3
        max_len = 4 if name == "s3.nca" else 5
        sys = load(name)
        sg = transforms.nca_to_gcsg(sys)
        letters = sorted(sys.alphabet.terminals)
        for n in range(max_len + 1):
            for w in itertools.product(letters, repeat=n):
                assert grammar.member(sg, w).status is nca.decide(sys, w).status, w


def test_decorated_symbols_report_unreachable():
    sg = transforms.deanchor(load("left_anchor.egcsg"))
    reachable = transforms.reachable_symbols(sg)
    assert {"a", "b"} <= reachable
    # the caret families exist but this grammar never rewrites some of them
    assert sorted(sg.alphabet - reachable) == ["L^", "^L^", "^a^", "^b", "^b^", "a^"]
    # an anchored system still converts with carets
    assert has_carets(transforms.nca_to_gcsg(load("right_anchor.nca")))
