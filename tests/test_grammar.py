import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gcsl import grammar, nca, textio, transforms
from gcsl.core import Anchor, ValidationError, check_symbol, word
from gcsl.grammar import Grammar, Production

from conftest import load


def make(productions, terminals="a b", nonterminals="S T", start="S"):
    return Grammar(
        nonterminals=frozenset(nonterminals.split()),
        terminals=frozenset(terminals.split()),
        start=start,
        productions=tuple(productions),
    )


def language_by_member(g, max_len):
    """Language up to ``max_len`` by the backward-search membership test,
    sharing one memo set across all queried words: the oracle that
    ``generate_language`` is checked against."""
    letters = sorted(g.terminals)
    memo = set()
    return {w for n in range(max_len + 1) for w in itertools.product(letters, repeat=n)
            if grammar.member(g, w, memo=memo).accepted}


class TestValidate:
    def test_anbn_ok(self, anbn_grammar):
        # rebuilding runs the constructor's check again
        assert Grammar(*anbn_grammar) == anbn_grammar

    def test_start_in_rhs(self):
        with pytest.raises(ValidationError, match="start symbol in rhs"):
            make([Production(word("S"), word("a S b"))])

    def test_not_growing(self):
        with pytest.raises(ValidationError, match="not growing"):
            make([Production(word("T"), word("a"))])

    def test_epsilon_production_needs_start_out_of_rhs(self):
        with pytest.raises(ValidationError, match="start symbol in rhs"):
            make([Production(word("S"), ()), Production(word("T"), word("a S"))])

    def test_nonterminals_and_terminals_disjoint(self):
        with pytest.raises(ValidationError, match=r"nonterminals and terminals overlap: \['a'\]"):
            make([Production(word("S"), word("a b"))], nonterminals="S T a")

    def test_start_only_alone_on_a_lhs(self):
        with pytest.raises(ValidationError, match="production 1: start symbol inside a longer"):
            make([Production(word("S"), word("a")), Production(word("S a"), word("a a b"))])

    def test_start_production_never_anchored(self):
        p = Production(word("S"), word("a b"), Anchor.LEFT)
        with pytest.raises(ValidationError, match="must not be anchored"):
            make([p])

    @pytest.mark.parametrize("name", ["_", "a b", ""], ids=["underscore", "space", "empty"])
    @pytest.mark.parametrize("role", ["terminal", "nonterminal", "start"])
    def test_symbol_names_checked_as_in_alphabet(self, name, role):
        # "_" would serialise as the empty word, and "a b" as two symbols
        terminals = {"a", name} if role == "terminal" else {"a"}
        nonterminals = {"S", name} if role == "nonterminal" else {"S"}
        start = name if role == "start" else "S"
        with pytest.raises(ValueError) as refused:
            check_symbol(name)
        with pytest.raises(ValidationError) as e:
            Grammar(frozenset(nonterminals), frozenset(terminals), start,
                    (Production((start,), ("a",)),))
        assert str(refused.value) in e.value.violations

    @pytest.mark.parametrize("name", ["#x", "a->b", "@x"])
    @pytest.mark.parametrize("role", ["terminal", "nonterminal", "start"])
    def test_names_the_text_format_misreads_are_refused(self, name, role):
        # "#x" would read as a comment, "a->b" as a rule, "@x" as an anchor
        self.test_symbol_names_checked_as_in_alphabet(name, role)

    def test_every_bad_symbol_name_is_listed(self):
        with pytest.raises(ValidationError) as e:
            Grammar(frozenset({"S", ""}), frozenset({"a", "_", "a b"}), "S",
                    (Production(word("S"), word("a")),))
        assert e.value.violations == [
            "symbol name must be a non-empty string: ''",
            "'_' is reserved for the empty word",
            "symbol name contains whitespace: 'a b'",
        ]


class TestDerive:
    def test_from_start(self):
        # T has no production, so only S -> a b ends in a terminal word
        g = make([Production(word("S"), word("a b")), Production(word("S"), word("a T b"))])
        assert grammar.generate_language(g, 4) == {word("a b")}

    def test_interior(self):
        # T -> a T b rewrites the T inside a T b
        g = make([Production(word("S"), word("a T b")), Production(word("T"), word("a T b")),
                  Production(word("T"), word("a b"))])
        assert grammar.generate_language(g, 6) == {word("a a b b"), word("a a a b b b")}

    def test_anchor_blocks_interior_match(self):
        # X -> a b @left fires on X a b but not on a X b
        g = make(
            [Production(word("S"), word("X a b")), Production(word("S"), word("a X b")),
             Production(word("X"), word("a b"), Anchor.LEFT)],
            nonterminals="S X",
        )
        assert grammar.generate_language(g, 4) == {word("a b a b")}


class TestGenerate:
    def test_anbn_to_four(self, anbn_grammar):
        assert grammar.generate_language(anbn_grammar, 4) == {(), word("a b"), word("a a b b")}

    def test_epsilon_only(self):
        g = make([Production(word("S"), ())])
        assert grammar.generate_language(g, 3) == {()}

    def test_monotone_in_max_len(self, anbn_grammar):
        for n in range(6):
            assert grammar.generate_language(anbn_grammar, n) <= grammar.generate_language(
                anbn_grammar, n + 1
            )

    def test_refuses_non_growing(self):
        with pytest.raises(ValidationError, match="not growing"):
            make([Production(word("T"), word("a"))])

    def test_guard(self, anbn_grammar):
        with pytest.raises(ValueError):
            grammar.generate_language(anbn_grammar, 13)

    @pytest.mark.parametrize("max_len", [-1, -5])
    def test_negative_max_len_is_empty(self, anbn_grammar, max_len):
        assert grammar.generate_language(anbn_grammar, max_len) == set()


@st.composite
def growing_grammars(draw):
    """A growing grammar over terminals ``a b`` and non-terminals ``S T
    U``: 1-3 start productions ``S -> v`` with ``v`` of at most 3 letters,
    and 1-6 others whose left-hand side of 1-2 letters grows by 1-2, any of
    them anchored."""
    body = st.sampled_from("abTU")
    productions = [Production(("S",), tuple(v))
                   for v in draw(st.lists(st.lists(body, max_size=3), min_size=1, max_size=3))]
    for _ in range(draw(st.integers(1, 6))):
        lhs = tuple(draw(st.lists(body, min_size=1, max_size=2)))
        rhs = tuple(draw(st.lists(body, min_size=len(lhs) + 1, max_size=len(lhs) + 2)))
        productions.append(Production(lhs, rhs, draw(st.sampled_from(list(Anchor)))))
    return make(productions, nonterminals="S T U")


@settings(max_examples=200, deadline=None)
@given(growing_grammars(), st.integers(3, 6))
def test_generate_agrees_with_member(g, max_len):
    # the generating closure against the backward search
    assert grammar.generate_language(g, max_len) == language_by_member(g, max_len)


class TestMember:
    def test_accepts_anbn(self, anbn_grammar):
        assert grammar.member(anbn_grammar, word("a a a b b b")).accepted

    def test_rejects_unbalanced(self, anbn_grammar):
        assert not grammar.member(anbn_grammar, word("a a b")).accepted

    def test_epsilon(self, anbn_grammar):
        assert grammar.member(anbn_grammar, ()).accepted

    def test_epsilon_without_production(self):
        g = make([Production(word("S"), word("a b"))])
        assert not grammar.member(g, ()).accepted

    def test_nonterminal_input_rejected(self, anbn_grammar):
        with pytest.raises(ValueError):
            grammar.member(anbn_grammar, word("a T b"))

    @pytest.mark.parametrize("empty", [[], ""], ids=["list", "str"])
    def test_empty_word_of_another_type(self, empty):
        # left_anchor has no S -> _, so the empty word is no member
        assert grammar.member(load("left_anchor.egcsg"), empty).status is nca.Status.REJECTED

    @pytest.mark.parametrize("fixture", ["anbn.gcsg", "dyck.gcsg"])
    def test_oracle_equivalence_to_eight(self, fixture):
        g = load(fixture)
        lang = grammar.generate_language(g, 8)
        letters = sorted(g.terminals)
        memo = set()
        for n in range(9):
            for w in itertools.product(letters, repeat=n):
                assert grammar.member(g, w, memo=memo).accepted == (w in lang), w

    def test_language_by_member_matches_generate(self, anbn_grammar):
        assert language_by_member(anbn_grammar, 6) == grammar.generate_language(
            anbn_grammar, 6
        )

    @pytest.mark.parametrize("fixture", ["anbn.gcsg", "dyck.gcsg"])
    def test_witness_replays_on_gcsg_to_nca(self, fixture):
        g = load(fixture)
        sys = transforms.gcsg_to_nca(g)
        letters = sorted(g.terminals)
        for n in range(1, 9):
            for w in itertools.product(letters, repeat=n):
                d = grammar.member(g, w)
                if d.accepted:
                    for m in d.witness:
                        w = nca.apply_move(sys, w, m)
                    assert w == ()

    @pytest.mark.parametrize("source", ["anbn.gcsg", "dyck.gcsg", "nca_to_gcsg(fg2)",
                                        "left_anchor.egcsg + S -> _"])
    def test_member_is_decide_on_gcsg_to_nca(self, source):
        # the same decision, witness and memo on every word of up to six letters
        if source.endswith(".gcsg"):
            g = load(source)
        elif source.startswith("left_anchor"):
            # anchored productions run backwards as anchored rules
            g = load("left_anchor.egcsg")
            g = Grammar(g.nonterminals, g.terminals, g.start,
                        g.productions + (Production(word("S"), ()),))
        else:
            converted = transforms.nca_to_gcsg(load("fg2.nca"))
            g = textio.parse_system(textio.serialize_system(converted))
        sys = transforms.gcsg_to_nca(g)
        letters = sorted(g.terminals)
        m1, m2 = set(), set()
        for w in (w for n in range(7) for w in itertools.product(letters, repeat=n)):
            assert grammar.member(g, w, memo=m1) == nca.decide(sys, w, memo=m2), w
            assert m1 == m2, w

    def test_validates_once_per_grammar(self, monkeypatch):
        calls = []
        validate = grammar._validate
        monkeypatch.setattr(grammar, "_validate", lambda g: calls.append(g) or validate(g))
        g = load("anbn.gcsg")
        for w in (word("a b"), word("a a b"), ()):
            grammar.member(g, w)
        grammar.generate_language(g, 4)
        transforms.gcsg_to_nca(g)
        assert sum(c is g for c in calls) == 1

    def test_one_rule_index_per_grammar(self, monkeypatch):
        # member searches the system gcsg_to_nca returns, so its index is
        # built once and shared
        calls = []
        rule_index = nca.RuleIndex
        monkeypatch.setattr(nca, "RuleIndex", lambda rules: calls.append(rules) or rule_index(rules))
        g = load("anbn.gcsg")
        for w in (word("a b"), word("a a b"), word("a b a b"), ()):
            grammar.member(g, w)
        sys = transforms.gcsg_to_nca(g)
        nca.decide(sys, word("a a b b"))
        assert len(calls) == 1
        assert transforms.gcsg_to_nca(g) is sys is g._backward

    def test_non_growing_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValidationError, match="not growing"):
                make([Production(word("S"), word("T")), Production(word("T"), word("a"))])
