import random

import pytest
from hypothesis import given, strategies as st

from gcsl import core
from gcsl.core import (
    Alphabet,
    Anchor,
    anchor_ok,
    check_symbol,
    occurs_at,
    splice,
    word,
    word_str,
)


def w(text):
    return word(text)


def occurrences(haystack, needle, anchor=Anchor.NONE):
    """All start indices of ``needle`` in ``haystack`` honouring ``anchor``,
    by comparing every window: the oracle for ``occurs_at`` and for move
    generation.  The needle must be non-empty."""
    if not needle:
        raise ValueError("needle must be non-empty")
    k = len(needle)
    return [i for i in range(len(haystack) - k + 1)
            if haystack[i:i + k] == needle and anchor_ok(anchor, i, k, len(haystack))]


class TestOccurrences:
    def test_unanchored_scan(self):
        assert occurrences(w("a b a b"), w("a b")) == [0, 2]

    def test_both_anchored_whole_word_only(self):
        assert occurrences(w("x"), w("x"), Anchor.BOTH) == [0]
        assert occurrences(w("x x"), w("x"), Anchor.BOTH) == []

    def test_overlapping(self):
        assert occurrences(w("a a a"), w("a a")) == [0, 1]

    def test_left_right(self):
        assert occurrences(w("a b a"), w("a"), Anchor.LEFT) == [0]
        assert occurrences(w("a b a"), w("a"), Anchor.RIGHT) == [2]
        assert occurrences(w("a b"), w("b a"), Anchor.RIGHT) == []

    def test_empty_needle_rejected(self):
        with pytest.raises(ValueError):
            occurrences(w("a"), ())


words = st.lists(st.sampled_from("ab"), max_size=8).map(tuple)
needles = st.lists(st.sampled_from("ab"), min_size=1, max_size=3).map(tuple)
anchors = st.sampled_from(list(Anchor))


@given(words, needles, anchors)
def test_occurs_at_agrees_with_occurrences(haystack, needle, anchor):
    found = occurrences(haystack, needle, anchor)
    for start in range(-len(needle) - 1, len(haystack) + 2):
        assert occurs_at(haystack, needle, start, anchor) == (start in found)


class TestSplice:
    def test_remove(self):
        assert splice(w("a b a b"), 0, 2, ()) == w("a b")

    def test_insert(self):
        assert splice(w("a b"), 1, 0, w("c")) == w("a c b")

    def test_full_replacement_to_empty(self):
        assert splice(w("a T b"), 0, 3, ()) == ()

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            splice(w("a b"), 1, 2, ())


@given(words, st.data())
def test_splice_then_inverse_splice_restores(w0, data):
    at = data.draw(st.integers(0, len(w0)))
    remove = data.draw(st.integers(0, len(w0) - at))
    insert = data.draw(words)
    removed = w0[at:at + remove]
    spliced = splice(w0, at, remove, insert)
    assert len(spliced) == len(w0) - remove + len(insert)
    assert splice(spliced, at, len(insert), removed) == w0


def test_symbol_validation():
    assert check_symbol("^x^") == "^x^"
    for bad in ("", "a b", "_"):
        with pytest.raises(ValueError):
            check_symbol(bad)


@pytest.mark.parametrize("name", ["#x", "a#b", "a->b", "->", "@x", "@both"])
def test_names_the_text_format_cannot_write_back_are_refused(name):
    # '#' starts a comment, '->' splits a rule line, and an '@' token last
    # on a rule line reads as an anchor
    with pytest.raises(ValueError):
        check_symbol(name)
    with pytest.raises(ValueError):
        Alphabet(frozenset("a"), frozenset({"a", name}))
    with pytest.raises(ValueError):
        word(f"a {name}")


def test_near_misses_are_symbols():
    for name in ("a@", "-", ">", "a-", "-x", ">b", "x:y", "a_", "~@"):
        assert check_symbol(name) == name
        assert word(f"a {name}") == ("a", name)


def test_word_round_trip():
    assert word("_") == ()
    assert word_str(()) == "_"
    assert word(word_str(w("a ^x^ b"))) == w("a ^x^ b")


def test_alphabet_requires_terminal_subset():
    with pytest.raises(ValueError):
        Alphabet(frozenset({"a"}), frozenset({"b"}))


def test_word_checks_each_distinct_symbol_once(monkeypatch):
    calls = []

    def counting(name):
        calls.append(name)
        return check_symbol(name)

    monkeypatch.setattr(core, "check_symbol", counting)
    r = random.Random(1)
    letters = [r.choice("aAbB") for _ in range(20000)]
    assert word(" ".join(letters)) == tuple(letters)
    assert sorted(calls) == ["A", "B", "a", "b"]


@pytest.mark.parametrize("text, first", [("a #x b @y #x", "#x"), ("a @y b #x @y", "@y")])
def test_word_names_the_first_bad_symbol(text, first):
    with pytest.raises(ValueError, match=f"{first!r}$"):
        word(text)
