import itertools

import pytest

from gcsl import grammar, nca, transforms
from gcsl.core import Anchor, word
from gcsl.grammar import Flavor, Grammar, Production

from conftest import load


def make(productions, terminals="a b", nonterminals="S T", start="S",
         flavor=Flavor.STANDARD):
    return Grammar(
        nonterminals=frozenset(nonterminals.split()),
        terminals=frozenset(terminals.split()),
        start=start,
        productions=tuple(productions),
        flavor=flavor,
    )


class TestValidate:
    def test_anbn_ok(self, anbn_grammar):
        assert grammar.validate(anbn_grammar) == []

    def test_start_in_rhs(self):
        g = make([Production(word("S"), word("a S b"))])
        assert any("start symbol in rhs" in v for v in grammar.validate(g))

    def test_not_growing(self):
        g = make([Production(word("T"), word("a"))])
        assert any("not growing" in v for v in grammar.validate(g))
        # but it is still context-sensitive
        assert grammar.validate(g, growing=False) == []

    def test_epsilon_production_needs_start_out_of_rhs(self):
        g = make(
            [Production(word("S"), ()), Production(word("T"), word("a S"))],
            flavor=Flavor.STANDARD,
        )
        assert any("start occurs in a rhs" in v for v in grammar.validate(g, growing=False))

    def test_anchor_only_in_extended(self):
        p = Production(word("T"), word("a b"), Anchor.LEFT)
        assert any("anchored production" in v for v in grammar.validate(make([p])))
        assert grammar.validate(make([p], flavor=Flavor.EXTENDED)) == []

    def test_start_production_never_anchored(self):
        p = Production(word("S"), word("a b"), Anchor.LEFT)
        g = make([p], flavor=Flavor.EXTENDED)
        assert any("must not be anchored" in v for v in grammar.validate(g))


class TestDerive:
    def test_from_start(self):
        g = make([Production(word("S"), word("a b")), Production(word("S"), word("a T b"))])
        assert grammar.derive_successors(g, word("S")) == [word("a T b"), word("a b")]

    def test_interior(self):
        g = make([Production(word("T"), word("a T b"))])
        assert grammar.derive_successors(g, word("a T b")) == [word("a a T b b")]

    def test_anchor_blocks_interior_match(self):
        g = make(
            [Production(word("X"), word("a b"), Anchor.LEFT)],
            nonterminals="S X",
            flavor=Flavor.EXTENDED,
        )
        assert grammar.derive_successors(g, word("X a b")) == [word("a b a b")]
        assert grammar.derive_successors(g, word("a X b")) == []


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
        g = make([Production(word("T"), word("a"))])
        with pytest.raises(ValueError):
            grammar.generate_language(g, 4)

    def test_guard(self, anbn_grammar):
        with pytest.raises(ValueError):
            grammar.generate_language(anbn_grammar, 13)


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
        assert grammar.language_by_member(anbn_grammar, 6) == grammar.generate_language(
            anbn_grammar, 6
        )

    @pytest.mark.parametrize("fixture", ["anbn.gcsg", "dyck.gcsg"])
    def test_witness_replays_on_gcsg_to_nca(self, fixture):
        g = load(fixture)
        sys = transforms.gcsg_to_nca(g)
        goals = {p.rhs for p in g.productions if p.lhs == (g.start,) and p.rhs}
        letters = sorted(g.terminals)
        for n in range(1, 9):
            for w in itertools.product(letters, repeat=n):
                d = grammar.member(g, w)
                if d.accepted:
                    for m in d.witness:
                        w = nca.apply_move(sys, w, m)
                    assert w in goals

    def test_validates_once_per_grammar(self, anbn_grammar, monkeypatch):
        calls = []
        validate = grammar.validate
        monkeypatch.setattr(grammar, "validate", lambda g, **kw: calls.append(g) or validate(g, **kw))
        for w in (word("a b"), word("a a b"), ()):
            grammar.member(anbn_grammar, w)
        assert len(calls) == 1

    def test_non_growing_raises_on_every_call(self):
        g = make([Production(word("S"), word("T")), Production(word("T"), word("a"))])
        for _ in range(2):
            with pytest.raises(ValueError, match="not growing"):
                grammar.member(g, word("a"))
