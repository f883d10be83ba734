import argparse
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gcsl
from gcsl import cli, grammar, history, nca, textio, transforms
from gcsl.core import Alphabet, Anchor, check_symbol, word, word_str
from gcsl.grammar import Grammar, Production
from gcsl.nca import NcaSystem, Rule

from conftest import CARET_CLASH, FIXTURES, load


def _is_symbol(name):
    try:
        check_symbol(name)
    except ValueError:
        return False
    return True


def fx(name):
    return str(FIXTURES / name)


_N = "kind: nca\nterminals: a b\nalphabet: a b T\nrules:\n"
_G = "kind: gcsg\nterminals: a b\nnonterminals: S T\nstart: S\nproductions:\n"
_RESERVED = "'_' is reserved for the empty word"
_BAD_NAME = "symbol name contains '#' or '->', or starts with '@'"
# more digits than int() converts from text by default
_NINES = pytest.param("9" * 5000, id="5000-nines")

# Malformed files and what parsing each raises: the error's type, its text,
# line and column.  A column counts the characters of the file's own line,
# its indent included.
MALFORMED = [
    # a bad token first seen in a rule
    (_N + "a _ -> b\n", "ParseError", f"line 5: {_RESERVED}", 5, None),
    (_N + "a -> b -> c\n", "ParseError", f"line 5: {_BAD_NAME}: '->'", 5, None),
    (_N + "a b -> _ @both @left\n", "ParseError", f"line 5: {_RESERVED}", 5, None),
    (_N + "  a -> _ _\n", "ParseError", f"line 5: {_RESERVED}", 5, None),
    (_N + "a b -> T\nb x#y -> _\n", "ParseError", "line 6, column 1: expected 'LHS -> RHS'", 6, 1),
    (_N + "a b\n", "ParseError", "line 5, column 1: expected 'LHS -> RHS'", 5, 1),
    # a valid symbol outside the alphabet is the system's error, not the parser's
    (_N + "a b -> c\n", "ValidationError", "rule 0: symbol outside working alphabet: c", None, None),
    (_N + "a b -> _\nb c -> a c d\n", "ValidationError",
     "rule 1: not length-reducing (2 <= 3); rule 1: symbol outside working alphabet: c; "
     "rule 1: symbol outside working alphabet: c; rule 1: symbol outside working alphabet: d",
     None, None),
    (_N + "a b -> c\nb @x -> _\n", "ParseError", f"line 6: {_BAD_NAME}: '@x'", 6, None),
    (_G + "S -> a c\n", "ValidationError", "production 0: symbol outside alphabet: c", None, None),
    # one bad token on two lines: the first is reported
    (_N + "a @x -> _\na @x -> _\n", "ParseError", f"line 5: {_BAD_NAME}: '@x'", 5, None),
    (_N + "a -> _\na b -> _ @x\nb a -> _ @x\n", "ParseError", "line 6, column 10: unknown anchor @x", 6, 10),
    # an empty left-hand side before a bad token on a later line
    (_N + "a b -> _\n_ -> a\nb c@ -> _\na @q -> _\n", "ParseError", "line 6: empty left hand side", 6, None),
    (_G + "_ -> a\nS -> a ->\n", "ParseError", "line 6: empty left hand side", 6, None),
    (_N + "  _ -> _\n", "ParseError", "line 5: empty left hand side", 5, None),
    # bad headers, reported before any rule
    ("kind: nca\nterminals: a _\nalphabet: a\nrules:\n", "ParseError", f"line 2: {_RESERVED}", 2, None),
    ("kind: nca\nterminals: a\nalphabet: a ->\nrules:\n", "ParseError", f"line 3: {_BAD_NAME}: '->'", 3, None),
    ("kind: gcsg\nterminals: a\nnonterminals: S\nstart: S T\nproductions:\n", "ParseError",
     "line 4: symbol name contains whitespace: 'S T'", 4, None),
    # a rule's error comes before the alphabet's
    ("kind: nca\nterminals: a b\nalphabet: a\nrules:\na -> _\nb x@ -> _ @y\n", "ParseError",
     "line 6, column 11: unknown anchor @y", 6, 11),
    ("kind: nca\nterminals: a b\nalphabet: a\nrules:\na b -> _\n", "ParseError",
     "line 2: terminals not in working alphabet: ['b']", 2, None),
    # productions are read in order, the kind check with each
    (_G + "S -> a T b\nT -> a b @left\nT -> a _\n", "ParseError",
     "line 7: anchored production in a kind gcsg file (use kind egcsg)", 7, None),
    (_G + "S -> a T b\nT -> a _\nT -> a b @left\n", "ParseError", f"line 7: {_RESERVED}", 7, None),
    (_G.replace("gcsg", "egcsg") + "S -> a T b\nT -> a _ @left\n", "ParseError",
     f"line 7: {_RESERVED}", 7, None),
    # columns within the file's own line: indents and comments
    (_N + "    a b\n", "ParseError", "line 5, column 5: expected 'LHS -> RHS'", 5, 5),
    ("  nonsense\n", "ParseError", "line 1, column 3: expected 'key: value' header, got 'nonsense'", 1, 3),
    (_N + "a -> _ @mid\n", "ParseError", "line 5, column 8: unknown anchor @mid", 5, 8),
    (_N + "    a -> _ @mid\n", "ParseError", "line 5, column 12: unknown anchor @mid", 5, 12),
    (_N + "\ta -> _ @mid\n", "ParseError", "line 5, column 9: unknown anchor @mid", 5, 9),
    (_N + "\t  a -> _ @mid\n", "ParseError", "line 5, column 11: unknown anchor @mid", 5, 11),
    (_N + "  a a -> _ @mid # x @mid\n", "ParseError", "line 5, column 12: unknown anchor @mid", 5, 12),
    (_N + "  a a -> _ @mid# x @mid\n", "ParseError", "line 5, column 12: unknown anchor @mid", 5, 12),
    (_N + "\t a -> _ @\n", "ParseError", "line 5, column 10: unknown anchor @", 5, 10),
    (_G.replace("gcsg", "egcsg") + "  S -> a T b @rgt\n", "ParseError",
     "line 6, column 14: unknown anchor @rgt", 6, 14),
    ("  kind: nca\n  terminals: a\n  alphabet: a\n  rules:\n  a -> _ @bad\n", "ParseError",
     "line 5, column 10: unknown anchor @bad", 5, 10),
    # the kind, then its section, then its headers in order, then unknown headers
    ("kind: xyz\n", "ParseError", "unknown kind 'xyz'", None, None),
    ("terminals: a\nalphabet: a\nrules:\n", "ParseError", "missing header 'kind'", None, None),
    (_N.replace("rules:", "productions:"), "ParseError",
     "kind nca expects a 'rules:' section, got 'productions:'", None, None),
    (_G.replace("productions:", "rules:"), "ParseError",
     "kind gcsg expects a 'productions:' section, got 'rules:'", None, None),
    (_G.replace("gcsg", "egcsg").replace("productions:", "rules:"), "ParseError",
     "kind egcsg expects a 'productions:' section, got 'rules:'", None, None),
    (_N.replace("rules:", "color: red\nproductions:"), "ParseError",
     "kind nca expects a 'rules:' section, got 'productions:'", None, None),
    (_G.replace("productions:", "productions: x"), "ParseError",
     "line 5: 'productions:' takes no value on its line", 5, None),
    ("kind: xyz\ncolor: red\nrules: x\n", "ParseError", "line 3: 'rules:' takes no value on its line", 3, None),
    (_G.replace("start: S\n", "start: S\nterminals: a\n"), "ParseError",
     "line 5: duplicate header 'terminals'", 5, None),
    (_G.replace("start: S\n", "start: S\ncolor: red\n") + "S -> a @x\n", "ParseError",
     "line 5: unknown header 'color'", 5, None),
    (_N.replace("rules:", "color: red\nrules:") + "a b\n", "ParseError",
     "line 4: unknown header 'color'", 4, None),
    (_N.replace("alphabet: a b T\n", "color: red\n"), "ParseError", "missing header 'alphabet'", None, None),
    (_G.replace("nonterminals: S T\n", ""), "ParseError", "missing header 'nonterminals'", None, None),
    (_G.replace("gcsg", "egcsg").replace("start: S\n", "color: red\n"), "ParseError",
     "missing header 'start'", None, None),
    (_G.replace("start: S\n", "start: _\ncolor: red\n"), "ParseError", f"line 4: {_RESERVED}", 4, None),
    (_N.replace("terminals: a b\n", "terminals: a _\n").replace("alphabet: a b T\n", ""), "ParseError",
     f"line 2: {_RESERVED}", 2, None),
]


class TestParse:
    def test_nca_fixture(self, fg2):
        assert isinstance(fg2, NcaSystem)
        assert Rule(word("a A"), ()) in fg2.rules
        assert fg2.alphabet.terminals == frozenset("aAbB")

    def test_grammar_fixture(self, anbn_grammar):
        assert isinstance(anbn_grammar, Grammar)
        assert anbn_grammar.start == "S"
        assert all(p.anchor is Anchor.NONE for p in anbn_grammar.productions)

    def test_extended_kind_and_anchor(self):
        g = load("left_anchor.egcsg")
        assert any(p.anchor is Anchor.LEFT for p in g.productions)

    def test_anchored_production_needs_kind_egcsg(self):
        text = ("kind: gcsg\nterminals: a b\nnonterminals: S T\nstart: S\n"
                "productions:\nS -> T b\nT -> a b @left\n")
        with pytest.raises(textio.ParseError, match="anchored production") as e:
            textio.parse_system(text)
        assert e.value.line == 7
        g = textio.parse_system(text.replace("kind: gcsg", "kind: egcsg"))
        assert Production(word("T"), word("a b"), Anchor.LEFT) in g.productions

    def test_comments_and_blank_lines(self):
        sys = textio.parse_system(
            "# free cancellation\nkind: nca\nterminals: a b\n\n"
            "alphabet: a b  # working = terminals\nrules:\na b -> _\n"
        )
        assert sys.rules == (Rule(word("a b"), ()),)

    def test_empty_word_token(self):
        g = textio.parse_system(
            "kind: gcsg\nterminals: a\nnonterminals: S\nstart: S\n"
            "productions:\nS -> _\nS -> a a\n"
        )
        assert ((), ("a", "a")) == tuple(sorted(p.rhs for p in g.productions))

    @pytest.mark.parametrize(
        "text, fragment, line",
        [
            ("kind: xyz\n", "unknown kind", None),
            ("kind: nca\nterminals: a\nalphabet: a\nrules:\na b\n", "expected 'LHS -> RHS'", 5),
            ("kind: nca\nterminals: a\nalphabet: a\nrules:\na -> _ @mid\n", "unknown anchor", 5),
            ("kind: nca\nterminals: a\nalphabet: a\nrules:\na -> _ @none\n", "unknown anchor", 5),
            # the anchor is the line's last token, though its text occurs earlier
            ("kind: nca\nterminals: a\nalphabet: a x@lft b\nrules:\nx@lft -> b @lft\n",
             "line 5, column 12: unknown anchor @lft", 5),
            ("kind: nca\nterminals: a\nkind: nca\n", "duplicate header", 3),
            ("kind: nca\nterminals: a\nalphabet: a\ncolor: red\n", "unknown header", 4),
            ("kind: nca\nalphabet: a\nrules:\n", "missing header 'terminals'", None),
            ("kind: nca\nterminals: a\nalphabet: a\nrules:\n_ -> _\n", "empty left hand side", 5),
            ("nonsense\n", "expected 'key: value'", 1),
            ("kind: gcsg\nterminals: a\nnonterminals: S\nstart: S\nrules:\n", "expects a 'productions:'", None),
            ("kind: gcsg\nterminals: a\nnonterminals: S\nstart: _\nproductions:\n", "reserved for the empty word", 4),
            ("kind: nca\nterminals: a b\nalphabet: a\nrules:\n", "terminals not in working alphabet", 2),
            ("kind: nca\nterminals: a\nalphabet: a\nrules: a -> _\n", "'rules:' takes no value", 4),
            ("kind: nca\nterminals: a\nalphabet: a\nproductions:\n", "kind nca expects a 'rules:' section", None),
        ],
    )
    def test_errors_carry_location(self, text, fragment, line):
        with pytest.raises(textio.ParseError) as e:
            textio.parse_system(text)
        assert fragment in str(e.value)
        assert e.value.line == line

    @pytest.mark.parametrize("text, line", [
        ("kind: nca\nterminals: a\nalphabet: a @x\nrules:\n", 3),
        ("kind: nca\nterminals: a\nalphabet: a\nrules:\n@x a -> a\n", 5),
        ("kind: gcsg\nterminals: a\nnonterminals: S @x\nstart: S\nproductions:\n", 3),
    ])
    def test_at_symbol_refused_on_its_line(self, text, line):
        with pytest.raises(textio.ParseError, match="starts with '@'") as e:
            textio.parse_system(text)
        assert e.value.line == line

    def test_validation_failure(self):
        bad = "kind: nca\nterminals: a\nalphabet: a\nrules:\na -> a a\n"
        with pytest.raises(textio.ValidationError, match="not length-reducing"):
            textio.parse_system(bad)

    @pytest.mark.parametrize("text, error, message, line, column", MALFORMED)
    def test_malformed_files(self, text, error, message, line, column):
        # each error keeps its type, message, line and column exactly
        with pytest.raises((textio.ParseError, textio.ValidationError)) as e:
            textio.parse_system(text)
        assert type(e.value).__name__ == error
        assert str(e.value) == message
        assert (getattr(e.value, "line", None), getattr(e.value, "column", None)) == (line, column)


# one invalid system of each kind, with two violations each: built directly,
# its text, and the violations both routes must report
INVALID = {
    "nca": (
        lambda: NcaSystem(Alphabet(frozenset("a"), frozenset("a")),
                          (Rule(word("a"), word("a a")), Rule(word("a a"), word("c")))),
        "kind: nca\nterminals: a\nalphabet: a\nrules:\na -> a a\na a -> c\n",
        ["rule 0: not length-reducing (1 <= 2)",
         "rule 1: symbol outside working alphabet: c"],
    ),
    "gcsg": (
        lambda: Grammar(frozenset("ST"), frozenset("a"), "S",
                        (Production(word("S"), word("a S")), Production(word("T"), word("a")))),
        "kind: gcsg\nterminals: a\nnonterminals: S T\nstart: S\n"
        "productions:\nS -> a S\nT -> a\n",
        ["production 0: start symbol in rhs",
         "production 1: not growing (1 >= 1)"],
    ),
}


@pytest.mark.parametrize("kind", sorted(INVALID))
def test_one_error_for_every_way_in(kind, tmp_path, capsys):
    build, text, violations = INVALID[kind]
    for route in (build, lambda: textio.parse_system(text)):
        with pytest.raises(gcsl.ValidationError) as e:
            route()
        assert isinstance(e.value, ValueError)
        assert e.value.violations == violations
        assert str(e.value) == "; ".join(violations)
    p = tmp_path / f"bad.{kind}"
    p.write_text(text)
    assert cli.main(["validate", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{p}: {'; '.join(violations)}\n"


def _with_conversions(system):
    """``system`` and the systems each conversion that accepts it builds."""
    if isinstance(system, NcaSystem):
        return [system, transforms.nca_to_gcsg(system)]
    converted = [system, transforms.deanchor(system)]
    if Production((system.start,), ()) in system.productions:
        converted.append(transforms.gcsg_to_nca(system))
    return converted


def reference_serialize_system(sys):
    """``textio.serialize_system`` as it was, with a branch per kind that
    writes its own rule lines."""
    def rule_line(lhs, rhs, anchor):
        line = f"{word_str(lhs)} -> {word_str(rhs)}"
        return line if anchor is Anchor.NONE else line + " @" + anchor.value

    lines = []
    if isinstance(sys, NcaSystem):
        lines.append("kind: nca")
        lines.append("terminals: " + word_str(tuple(sorted(sys.alphabet.terminals))))
        lines.append("alphabet: " + word_str(tuple(sorted(sys.alphabet.working))))
        lines.append("rules:")
        lines.extend(rule_line(r.lhs, r.rhs, r.anchor) for r in sys.rules)
    elif isinstance(sys, Grammar):
        anchored = any(p.anchor is not Anchor.NONE for p in sys.productions)
        lines.append("kind: " + ("egcsg" if anchored else "gcsg"))
        lines.append("terminals: " + word_str(tuple(sorted(sys.terminals))))
        lines.append("nonterminals: " + word_str(tuple(sorted(sys.nonterminals))))
        lines.append("start: " + sys.start)
        lines.append("productions:")
        lines.extend(rule_line(p.lhs, p.rhs, p.anchor) for p in sys.productions)
    else:
        raise TypeError(f"cannot serialize {type(sys).__name__}")
    return "\n".join(lines) + "\n"


class TestSerialize:
    @pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.iterdir()))
    def test_round_trip(self, fixture):
        for system in _with_conversions(load(fixture)):
            assert textio.parse_system(textio.serialize_system(system)) == system

    @pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.iterdir()))
    def test_text_is_byte_identical(self, fixture):
        for system in _with_conversions(load(fixture)):
            assert textio.serialize_system(system) == reference_serialize_system(system)

    def test_refuses_what_is_no_system(self):
        for serialize in (textio.serialize_system, reference_serialize_system):
            with pytest.raises(TypeError, match="cannot serialize Rule"):
                serialize(Rule(word("a"), ()))

    @pytest.mark.parametrize("anchor, kind", [(Anchor.NONE, "gcsg"), (Anchor.LEFT, "egcsg")])
    def test_kind_follows_the_anchors(self, anchor, kind):
        g = Grammar(frozenset("ST"), frozenset("ab"), "S",
                    (Production(word("S"), word("T b")), Production(word("T"), word("a b"), anchor)))
        text = textio.serialize_system(g)
        assert text.splitlines()[0] == f"kind: {kind}"
        assert textio.parse_system(text) == g

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_round_trip_of_systems_built_in_code(self, data):
        # names near the format's syntax, of "a", "b", "@", "#", "-", ">", ":" and "_"
        names = st.text(alphabet="ab@#->:_", min_size=1, max_size=3).filter(_is_symbol)
        letters = data.draw(st.lists(names, min_size=1, max_size=5, unique=True))
        terminals = frozenset(data.draw(st.sets(st.sampled_from(letters))))
        symbol = st.sampled_from(letters)
        rules = []
        for _ in range(data.draw(st.integers(0, 4))):
            lhs = data.draw(st.lists(symbol, min_size=1, max_size=3))
            rhs = data.draw(st.lists(symbol, max_size=len(lhs) - 1))
            rules.append(Rule(lhs, rhs, data.draw(st.sampled_from(list(Anchor)))))
        sys = NcaSystem(Alphabet(terminals, frozenset(letters)), tuple(rules))
        extended = transforms.nca_to_extended_gcsg(sys)
        for x in (sys, extended, transforms.deanchor(extended)):
            text = textio.serialize_system(x)
            assert text == reference_serialize_system(x)
            assert textio.parse_system(text) == x

    def test_rule_order_is_kept(self, fg2):
        def rule_lines(text):
            lines = text.splitlines()
            return lines[lines.index("rules:") + 1:]

        backwards = NcaSystem(fg2.alphabet, tuple(reversed(fg2.rules)))
        text = textio.serialize_system(backwards)
        assert rule_lines(text) == rule_lines(textio.serialize_system(fg2))[::-1]
        assert textio.parse_system(text) == backwards

    def test_anchor_suffix(self, xanchor):
        assert "x -> _ @both" in textio.serialize_system(xanchor)


class TestCompare:
    def test_equal_languages(self, anbn_grammar, anbn_nca):
        assert textio.first_difference(anbn_grammar, anbn_nca, 6) is None

    def test_difference_is_shortlex_least(self, xanchor):
        free = load("xfree.nca")
        assert textio.first_difference(xanchor, free, 4) == word("x x")


class TestRender:
    def test_trace_lines(self, fg2):
        h = history.from_moves(fg2, word("a b B A"), [(2, 1), (0, 0)])
        assert textio.format_trace(h) == (
            "0 | a b B A | rule#2 @1\n"
            "1 | a A | rule#0 @0\n"
            "2 | _ |\n"
        )

    def test_diagram_fractions(self):
        sys = NcaSystem(
            load("fg2.nca").alphabet,
            (Rule(word("a b B"), word("A A")),),
        )
        h = history.from_moves(sys, word("a b B"), [(0, 0)])
        out = textio.format_diagram(h)
        assert "A[0,3/2) A[3/2,3)" in out
        assert "line: [0,3) rule#0" in out


def _reference_rows_text(h, cells):
    """Each row's text, ``cells[i]`` for letter i, spliced from the row before."""
    row = list(cells[:len(h.start)])
    yield word_str(row)
    for e in h.events:
        row[e.position:e.position + len(e.consumed)] = [cells[i] for i in e.produced]
        yield word_str(row)


def reference_format_trace(h):
    """``textio.format_trace`` as it was, joining each row on its own."""
    steps = [f" | rule#{e.rule_index} @{e.position}" for e in h.events] + [" |"]
    rows = enumerate(zip(_reference_rows_text(h, h.symbols), steps))
    return "".join(f"{t} | {row}{step}\n" for t, (row, step) in rows)


def reference_format_diagram(h):
    """``textio.format_diagram`` as it was, joining each row on its own."""
    intervals, lines = history._spans(h)
    cells = [f"{s}[{lo},{hi})" for s, (lo, hi) in zip(h.symbols, intervals)]
    texts = [f"\n  line: [{lo},{hi}) rule#{e.rule_index}" for (lo, hi), e in zip(lines, h.events)]
    rows = enumerate(zip(_reference_rows_text(h, cells), texts + [""]))
    return "".join(f"row {t}: {row}{line}\n" for t, (row, line) in rows)


# anchored rules over symbols of several characters; the splits of three
# letters into two give Fraction endpoints
LONG_NAMES = NcaSystem(
    Alphabet(frozenset({"x1", "y22", "z333"}), frozenset({"x1", "y22", "z333", "dd", "ee"})),
    (Rule(word("x1 y22 z333"), word("dd ee")), Rule(word("ee x1 y22"), word("dd ee")),
     Rule(word("dd ee"), ()), Rule(word("x1 y22"), (), Anchor.LEFT),
     Rule(word("z333 dd"), word("ee"), Anchor.RIGHT), Rule(word("y22 z333"), (), Anchor.BOTH)),
)


@pytest.fixture(scope="module")
def render_pool():
    """Seeded random histories: random walks on ``LONG_NAMES``, on the
    anchored and unanchored fixtures and on grammars' reversed systems,
    each also swap-shuffled out of the canonical order."""
    rng = random.Random(33)
    pool = []
    grammars = [load(n) for n in ("anbn.gcsg", "dyck.gcsg", "left_anchor.egcsg",
                                  "right_anchor.egcsg", "both_anchor.egcsg")]
    fg2, s3, right = load("fg2.nca"), load("s3.nca"), load("right_anchor.nca")
    for _ in range(40):
        g = rng.choice(grammars)
        w = rng.choice(sorted(grammar.generate_language(g, 6)))
        pool.append(history.from_moves(g._backward, w, grammar.member(g, w).witness))
    for system in [LONG_NAMES] * 60 + [fg2, s3, right] * 20:
        letters = sorted(system.alphabet.working)
        pieces = [r.lhs for r in system.rules] + [(x,) for x in letters]
        w = sum((rng.choice(pieces) for _ in range(rng.randint(0, 8))), ())
        moves = []
        current = w
        while options := nca.legal_moves(system, current):
            moves.append(rng.choice(options))
            current = nca.apply_move(system, current, moves[-1])
        pool.append(history.from_moves(system, w, moves))
    for h in list(pool):
        g = h
        for _ in range(2 * len(h)):
            try:
                g = history.swap_adjacent(g, rng.randrange(max(1, len(g) - 1)))
            except (IndexError, ValueError):
                pass
        pool.append(g)
    return pool


class TestRenderAgainstReference:
    def test_pool_covers_each_case(self, render_pool):
        pool = render_pool
        assert any(any(len(s) > 1 for s in h.symbols) for h in pool)
        assert any(h.system.rules[e.rule_index].anchor is not Anchor.NONE
                   for h in pool for e in h.events)
        assert any(type(x) is not int for h in pool for lo_hi in history._spans(h)[1]
                   for x in lo_hi)
        assert any(history.canonicalize(h) != h for h in pool)
        assert any(history.words_of(h)[-1] == () for h in pool)
        assert any(history.words_of(h)[-1] != () for h in pool)

    def test_trace_is_byte_identical(self, render_pool):
        for h in render_pool:
            assert textio.format_trace(h) == reference_format_trace(h), h

    def test_diagram_is_byte_identical(self, render_pool):
        for h in render_pool:
            assert textio.format_diagram(h) == reference_format_diagram(h), h


class TestCli:
    def test_validate_ok(self, capsys):
        assert cli.main(["validate", fx("fg2.nca")]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_validate_bad_file(self, tmp_path, capsys):
        p = tmp_path / "bad.nca"
        p.write_text("kind: nca\nterminals: a\nalphabet: a\nrules:\na -> a a\n")
        assert cli.main(["validate", str(p)]) == 2
        assert "not length-reducing" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert cli.main(["validate", "/nonexistent.nca"]) == 2

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "utf16.nca"
        p.write_bytes(b"\xff\xfekind: nca\n")
        assert cli.main(["validate", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"{p}: ")
        assert "internal error" not in captured.err

    def test_byte_order_mark_is_read_past(self, tmp_path, capsys):
        p = tmp_path / "bom.nca"
        p.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "fg2.nca").read_bytes())
        assert cli.main(["validate", str(p)]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_usage_error(self, capsys):
        assert cli.main(["convert", "--to", "bogus", fx("fg2.nca")]) == 2

    def test_decide_accept_and_reject(self, capsys):
        assert cli.main(["decide", fx("fg2.nca"), "a b B A"]) == 0
        assert capsys.readouterr().out == "accepted\n"
        assert cli.main(["decide", fx("xanchor.nca"), "x x"]) == 1
        assert capsys.readouterr().out == "rejected\n"

    def test_decide_grammar(self, capsys):
        assert cli.main(["decide", fx("anbn.gcsg"), "a a b b"]) == 0
        assert cli.main(["decide", fx("anbn.gcsg"), "a a b"]) == 1

    def test_decide_empty_word(self, capsys):
        assert cli.main(["decide", fx("anbn.gcsg"), "_"]) == 0

    @pytest.mark.parametrize("command", ["decide", "trace"])
    def test_max_nodes_bounds_the_search(self, command, capsys):
        rejected = " ".join("r" * 40)
        assert cli.main([command, fx("s3.nca"), rejected, "--max-nodes", "2000"]) == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_max_nodes_bounds_member(self, capsys):
        # the pass reduces the first word, so it needs no budget; the
        # search needs 3 nodes to reject the second, whose letter counts
        # lie in the rules' lattice; the third's do not, so it needs none
        assert cli.main(["decide", fx("anbn.gcsg"), "a a a b b b", "--max-nodes", "1"]) == 0
        assert cli.main(["decide", fx("anbn.gcsg"), "a a a b b b", "--max-nodes", "10"]) == 0
        assert cli.main(["decide", fx("anbn.gcsg"), "a a b b b a", "--max-nodes", "1"]) == 3
        assert cli.main(["decide", fx("anbn.gcsg"), "a a b b b a", "--max-nodes", "3"]) == 1
        assert cli.main(["decide", fx("anbn.gcsg"), "a a a b b", "--max-nodes", "1"]) == 1

    @pytest.mark.parametrize("value", ["0", "-1", "x", "\u00b2", _NINES])
    def test_max_nodes_below_one_is_usage_error(self, value, capsys):
        assert cli.main(["decide", fx("fg2.nca"), "a A", "--max-nodes", value]) == 2
        assert "--max-nodes: expected an integer of at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["enumerate", fx("anbn.gcsg")],
        ["equiv", fx("fg2.nca"), fx("fg1.nca")],
    ])
    @pytest.mark.parametrize("value", ["-3", "-1", "\u00b2", _NINES])
    def test_max_len_below_zero_is_usage_error(self, argv, value, capsys):
        assert cli.main([*argv, "--max-len", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-len: expected an integer of at least 0" in captured.err

    def test_max_len_zero(self, capsys):
        assert cli.main(["enumerate", fx("anbn.gcsg"), "--max-len", "0"]) == 0
        assert capsys.readouterr().out == "_\n"
        assert cli.main(["equiv", fx("fg2.nca"), fx("fg1.nca"), "--max-len", "0"]) == 0
        assert capsys.readouterr().out == "equal up to length 0\n"

    def test_trace_output(self, capsys):
        assert cli.main(["trace", fx("fg2.nca"), "a A"]) == 0
        assert capsys.readouterr().out == "0 | a A | rule#0 @0\n1 | _ |\n"

    def test_decide_has_no_trace_option(self, tmp_path, capsys):
        out = tmp_path / "trace.txt"
        assert cli.main(["decide", fx("fg2.nca"), "a A", "--trace", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err
        assert not out.exists()

    def test_convert_to_missing_directory_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out"
        assert cli.main(["convert", "--to", "gcsg", fx("fg2.nca"), "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and str(out) in captured.err

    def test_trace_on_grammar(self, tmp_path, capsys):
        # rule#0 is S -> a b read backwards, as the erase a b -> _ @both
        g = tmp_path / "ab.gcsg"
        g.write_text("kind: gcsg\nterminals: a b\nnonterminals: S\nstart: S\n"
                     "productions:\nS -> a b\n")
        assert cli.main(["trace", str(g), "a b"]) == 0
        assert capsys.readouterr().out == "0 | a b | rule#0 @0\n1 | _ |\n"

    @pytest.mark.parametrize("command", ["decide", "trace"])
    @pytest.mark.parametrize("text", ["", "   "])
    def test_word_without_symbols_is_usage_error(self, command, text, capsys):
        # an unset shell variable must not read as the empty word _
        assert cli.main([command, fx("fg2.nca"), text]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "_" in captured.err

    def test_decide_outside_the_terminals_is_usage_error(self, capsys):
        assert cli.main(["decide", fx("fg2.nca"), "x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input symbols outside terminal alphabet: ['x']" in captured.err

    def test_internal_error_exit_code(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(nca, "decide", broken)
        assert cli.main(["decide", fx("fg2.nca"), "a A"]) == cli.EXIT_INTERNAL == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error: RuntimeError: boom" in captured.err

    def test_trace_canonical(self, capsys):
        assert cli.main(["trace", fx("fg2.nca"), "b B a A", "--canonical"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "0 | b B a A | rule#2 @0"

    def test_trace_canonical_keeps_anchors(self, capsys):
        # rule#0 erases a only as the last letter, so b must go first
        assert cli.main(["trace", fx("right_anchor.nca"), "a b", "--canonical"]) == 0
        assert capsys.readouterr().out == "0 | a b | rule#1 @1\n1 | a | rule#0 @0\n2 | _ |\n"

    def test_trace_grammar_canonical(self, capsys):
        # rule#k indexes the reversed system: rule#1 is a T b -> _ @both
        # (from S -> a T b), rule#2 is a b -> T (from T -> a b)
        assert cli.main(["trace", fx("anbn.gcsg"), "a a b b", "--canonical"]) == 0
        assert capsys.readouterr().out == ("0 | a a b b | rule#2 @1\n1 | a T b | rule#1 @0\n"
                                           "2 | _ |\n")

    @pytest.mark.parametrize("fixture", ["anbn.gcsg", "dyck.gcsg", "left_anchor.egcsg",
                                         "right_anchor.egcsg", "both_anchor.egcsg"])
    def test_trace_every_word_of_a_grammar(self, fixture, capsys):
        for w in grammar.generate_language(load(fixture), 6):
            assert cli.main(["trace", fx(fixture), word_str(w)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[-1] == f"{len(lines) - 1} | _ |"

    def test_trace_rejected(self, capsys):
        assert cli.main(["trace", fx("fg2.nca"), "a b"]) == 1
        assert capsys.readouterr().out == "rejected\n"

    def test_trace_diagram(self, capsys):
        assert cli.main(["trace", fx("xanchor.nca"), "x", "--diagram"]) == 0
        out = capsys.readouterr().out
        assert "row 0: x[0,1)" in out and "row 1: _" in out

    def test_trace_diagram_only_on_request(self, monkeypatch, capsys):
        # a terminal gets the same output as a pipe
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        assert cli.main(["trace", fx("fg2.nca"), "a A"]) == 0
        assert not any(line.startswith("row ") for line in capsys.readouterr().out.splitlines())
        assert cli.main(["trace", fx("fg2.nca"), "a A", "--diagram"]) == 0
        assert any(line.startswith("row ") for line in capsys.readouterr().out.splitlines())

    @pytest.mark.parametrize("fixture", ["left_anchor.egcsg", "right_anchor.egcsg",
                                         "both_anchor.egcsg"])
    def test_convert_of_a_copy_with_the_empty_word_prints_the_traced_rules(
            self, fixture, tmp_path, capsys):
        # S -> _ adds no reversed rule, so the copy's conversion lists the
        # rules that a trace of the original numbers, and traces alike
        g = load(fixture)
        copy = tmp_path / fixture
        copy.write_text((FIXTURES / fixture).read_text() + "S -> _\n")
        converted = transforms.gcsg_to_nca(textio.parse_system(copy.read_text()))
        assert converted.rules == g._backward.rules
        for w in grammar.generate_language(g, 6):
            assert cli.main(["trace", fx(fixture), word_str(w)]) == 0
            original = capsys.readouterr().out
            assert cli.main(["trace", str(copy), word_str(w)]) == 0
            assert capsys.readouterr().out == original

    @pytest.mark.parametrize("argv", [
        ["enumerate", fx("anbn.gcsg")],
        ["equiv", fx("fg2.nca"), fx("fg1.nca")],
    ])
    def test_max_len_above_the_enumeration_guard_is_usage_error(self, argv, capsys):
        assert nca.ENUMERATION_GUARD == 12
        assert cli.main([*argv, "--max-len", "13"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_len 13 exceeds enumeration guard 12" in captured.err

    def test_enumerate_shortlex(self, capsys):
        assert cli.main(["enumerate", fx("anbn.gcsg"), "--max-len", "4"]) == 0
        assert capsys.readouterr().out == "_\na b\na a b b\n"

    def test_equiv_grammar_against_converted_nca(self, tmp_path, capsys):
        out = tmp_path / "anbn_converted.nca"
        assert cli.main(["convert", "--to", "nca", fx("anbn.gcsg"), "-o", str(out)]) == 0
        assert cli.main(["equiv", fx("anbn.gcsg"), str(out), "--max-len", "6"]) == 0
        assert "equal up to length 6" in capsys.readouterr().out

    def test_equiv_reports_witness(self, capsys):
        assert cli.main(
            ["equiv", fx("xanchor.nca"), fx("xfree.nca"), "--max-len", "4"]
        ) == 1
        assert "x x" in capsys.readouterr().out

    def test_convert_to_nca_needs_the_empty_word(self, tmp_path, capsys):
        out = tmp_path / "both_anchor.nca"
        assert cli.main(["convert", "--to", "nca", fx("both_anchor.egcsg"), "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "start -> empty word production" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("kind, to", [("egcsg", "standard"), ("nca", "gcsg")])
    def test_convert_refuses_colliding_caret_names(self, kind, to, tmp_path, capsys):
        src = tmp_path / f"clash.{kind}"
        src.write_text(CARET_CLASH[kind], encoding="utf-8")
        assert cli.main(["convert", "--to", to, str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "collide with each other: ['^b^']" in captured.err
        out = tmp_path / "out"
        assert cli.main(["convert", "--to", to, str(src), "-o", str(out)]) == 2
        assert not out.exists()

    def test_convert_type_mismatch(self, capsys):
        assert cli.main(["convert", "--to", "nca", fx("fg2.nca")]) == 2
        assert "expects a grammar" in capsys.readouterr().err

    def test_convert_anchored_grammar_to_nca(self, tmp_path, capsys):
        g = tmp_path / "left_anchor_eps.egcsg"
        g.write_text((FIXTURES / "left_anchor.egcsg").read_text() + "S -> _\n")
        out = tmp_path / "left_anchor.nca"
        assert cli.main(["convert", "--to", "nca", str(g), "-o", str(out)]) == 0
        assert cli.main(["decide", str(out), "a a b"]) == 0
        assert cli.main(["decide", str(out), "a a a b"]) == 1
        assert capsys.readouterr().out == "accepted\nrejected\n"

    @pytest.mark.parametrize("to, fn", [("standard", transforms.deanchor)])
    @pytest.mark.parametrize("fixture", ["anbn.gcsg", "left_anchor.egcsg",
                                         "right_anchor.egcsg", "both_anchor.egcsg"])
    def test_convert_grammar_targets(self, to, fn, fixture, tmp_path, capsys):
        out = tmp_path / f"converted.{to}"
        assert cli.main(["convert", "--to", to, fx(fixture)]) == 0
        text = capsys.readouterr().out
        assert text == textio.serialize_system(fn(load(fixture)))
        assert isinstance(textio.parse_system(text), Grammar)
        out.write_text(text, encoding="utf-8")
        assert cli.main(["equiv", fx(fixture), str(out), "--max-len", "6"]) == 0
        assert capsys.readouterr().out == "equal up to length 6\n"

    def test_convert_standard_refuses_a_system(self, capsys):
        assert cli.main(["convert", "--to", "standard", fx("fg2.nca")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "expects a grammar" in captured.err

    def test_convert_stdout_reparses(self, capsys):
        assert cli.main(["convert", "--to", "gcsg", fx("xanchor.nca")]) == 0
        text = capsys.readouterr().out
        g = textio.parse_system(text)
        assert isinstance(g, Grammar) and text.startswith("kind: gcsg\n")

    def test_trace_of_a_grammar_numbers_rules_as_convert_writes_them(self, tmp_path, capsys):
        converted = tmp_path / "anbn.nca"
        assert cli.main(["convert", "--to", "nca", fx("anbn.gcsg"), "-o", str(converted)]) == 0
        assert cli.main(["trace", fx("anbn.gcsg"), "a b"]) == 0
        grammar_trace = capsys.readouterr().out
        assert cli.main(["trace", str(converted), "a b"]) == 0
        assert capsys.readouterr().out == grammar_trace == "0 | a b | rule#0 @0\n1 | _ |\n"

    @pytest.mark.parametrize("fixture, to", [
        ("s3.nca", "gcsg"), ("right_anchor.nca", "gcsg"),
        ("left_anchor.egcsg", "standard"),
    ])
    def test_convert_output_does_not_depend_on_the_hash_seed(self, fixture, to):
        # rule lines follow construction order, so a construction that
        # iterated a set unsorted would show here
        src = str(Path(gcsl.__file__).resolve().parents[1])

        def convert(seed):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            return subprocess.run([sys.executable, "-m", "gcsl.cli", "convert", "--to", to, fx(fixture)],
                                  env=env, capture_output=True, check=True).stdout

        assert convert("0") == convert("1")


_COMMANDS = ["validate", "convert", "decide", "enumerate", "equiv", "trace"]
_PARITY_ARGV = [
    [], ["-h"], ["--help"], ["nosuch"], ["dec"], ["-x"],
    *([command, "-h"] for command in _COMMANDS),
    # a missing argument, an extra argument, a bad value
    ["validate"], ["validate", fx("s3.nca"), "extra"],
    ["convert", fx("s3.nca")], ["convert", "--to", "gcsg", fx("s3.nca"), "extra"],
    ["convert", "--to", "bogus", fx("s3.nca")],
    ["decide", fx("s3.nca")], ["decide", fx("s3.nca"), "t s", "extra"],
    ["decide", fx("s3.nca"), "t s", "--max-nodes", "0"],
    ["enumerate", fx("s3.nca")], ["enumerate", fx("s3.nca"), "--max-len", "2", "extra"],
    ["enumerate", fx("s3.nca"), "--max-len", "-1"],
    ["equiv", fx("fg2.nca")], ["equiv", fx("fg2.nca"), fx("fg1.nca"), "extra", "--max-len", "2"],
    ["equiv", fx("fg2.nca"), fx("fg1.nca"), "--max-len", "x"],
    ["trace", fx("fg2.nca")], ["trace", fx("fg2.nca"), "a A", "extra"],
    ["trace", fx("fg2.nca"), "a A", "--max-nodes", "x"],
    # one valid run of each command
    ["validate", fx("s3.nca")], ["convert", "--to", "gcsg", fx("fg2.nca")],
    ["decide", fx("s3.nca"), "t s"], ["enumerate", fx("fg2.nca"), "--max-len", "2"],
    ["equiv", fx("fg2.nca"), fx("fg1.nca"), "--max-len", "4"],
    ["trace", fx("fg2.nca"), "a b B A", "--canonical", "--diagram"],
]


def _offered(parser):
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


class TestParser:
    @pytest.mark.parametrize("columns", ["40", "100"])
    @pytest.mark.parametrize("argv", _PARITY_ARGV,
                             ids=lambda argv: " ".join(Path(a).name for a in argv))
    def test_output_as_with_every_command_built(self, argv, columns, monkeypatch, capsys):
        # help and usage wrap at $COLUMNS
        monkeypatch.setenv("COLUMNS", columns)
        got = (cli.main(argv), *capsys.readouterr())
        build_all = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: build_all())
        assert got == (cli.main(argv), *capsys.readouterr())

    @pytest.mark.parametrize("argv, message", [
        (["nosuch"], "argument command: invalid choice"),
        ([], "the following arguments are required: command"),
        (["decide", fx("s3.nca"), "t s", "extra"], "unrecognized arguments: extra"),
    ])
    def test_usage_errors_list_every_command(self, argv, message, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "100")
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gcsl [-h] {validate,convert,decide,enumerate,equiv,trace} ...")
        assert message in err

    def test_a_named_command_builds_only_its_own_parser(self):
        assert _offered(cli.build_parser("decide")) == ["decide"]

    @pytest.mark.parametrize("command", [None, "dec", "-h", "nosuch"])
    def test_anything_else_builds_every_command(self, command):
        assert _offered(cli.build_parser(command)) == _COMMANDS

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["gcsl", "validate", fx("fg2.nca")])
        assert cli.main() == 0
        assert capsys.readouterr().out == "ok\n"

    def test_long_word_exit_codes(self, capsys):
        # as in scripts/cli_checks.sh: u then its inverse, and that word
        # less its last letter, which breaks an exponent sum
        r = random.Random(1)
        u = [r.choice("aAbB") for _ in range(10000)]
        w = u + [s.swapcase() for s in reversed(u)]
        assert cli.main(["decide", fx("fg2.nca"), " ".join(w), "--max-nodes", "1"]) == 0
        assert cli.main(["decide", fx("fg2.nca"), " ".join(w[:-1]), "--max-nodes", "1"]) == 1
        assert capsys.readouterr().out == "accepted\nrejected\n"
