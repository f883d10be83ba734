"""Line-oriented text format for systems and grammars, plus trace and
diagram rendering and the language-comparison oracle used by ``equiv``.

Format (``#`` starts a comment, symbols are whitespace-separated,
``_`` is the empty word, rule lines keep the system's order)::

    kind: nca                     kind: gcsg   # egcsg if a production is anchored
    terminals: a b                terminals: a b
    alphabet: a b T               nonterminals: S T
    rules:                        start: S
    a b -> T                      productions:
    a T b -> _ @both              S -> _
                                  S -> a T b
"""

from __future__ import annotations

# ValidationError is re-exported: parse_system raises it next to ParseError
from .core import (EMPTY_WORD_TOKEN, Alphabet, Anchor, ValidationError, Word, check_symbol,
                   word_str)
from . import grammar as grammar_mod
from . import history as history_mod
from . import nca as nca_mod
from .grammar import Grammar
from .nca import NcaSystem, Rule


class ParseError(Exception):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column


_ANCHORS = {"@" + a.value: a for a in Anchor if a is not Anchor.NONE}


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _column(raw: str, at: int) -> int:
    """The column, counted from 1 in the file's line ``raw``, of character
    ``at`` of its text as :func:`_strip` leaves it."""
    return len(raw) - len(raw.lstrip()) + at + 1


def _parse_word(tokens: list, lineno, known: set) -> Word:
    """The word of ``tokens``, a single ``_`` being the empty word.  A token
    not in ``known`` is checked, in order, and added to it, so a file's
    first bad token is reported and each distinct symbol is checked once."""
    if tokens == [EMPTY_WORD_TOKEN]:
        return ()
    for t in tokens:
        if t not in known:
            try:
                known.add(check_symbol(t))
            except ValueError as e:
                raise ParseError(str(e), lineno)
    return tuple(tokens)


def _parse_rule_line(text: str, lineno: int, raw: str, known: set) -> Rule:
    left, arrow, right = text.partition("->")
    if not arrow:
        raise ParseError("expected 'LHS -> RHS'", lineno, _column(raw, 0))
    rtokens = right.split()
    anchor = Anchor.NONE
    if rtokens and rtokens[-1].startswith("@"):
        tok = rtokens.pop()
        if tok not in _ANCHORS:
            raise ParseError(f"unknown anchor {tok}", lineno, _column(raw, text.rindex(tok)))
        anchor = _ANCHORS[tok]
    lhs = _parse_word(left.split(), lineno, known)
    rhs = _parse_word(rtokens, lineno, known)
    try:
        return Rule(lhs, rhs, anchor)
    except ValueError as e:
        raise ParseError(str(e), lineno)


def parse_system(text: str):
    """Parse a system file into an :class:`NcaSystem` or :class:`Grammar`.

    Malformed text raises :class:`ParseError`; a well-formed system that
    breaks its type's invariants raises the constructor's
    :class:`ValidationError`, which lists every violation.
    """
    headers: dict[str, tuple[str, int]] = {}
    body: list[tuple[str, int, str]] = []
    body_key = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if body_key is not None:
            body.append((line, lineno, raw))
        elif ":" in line:
            key, _, value = line.partition(":")
            key = key.strip()
            if key in ("rules", "productions"):
                if value.strip():
                    raise ParseError(f"'{key}:' takes no value on its line", lineno)
                body_key = key
            elif key in headers:
                raise ParseError(f"duplicate header {key!r}", lineno)
            else:
                headers[key] = (value.strip(), lineno)
        else:
            raise ParseError(f"expected 'key: value' header, got {line!r}", lineno, _column(raw, 0))

    def take(key):
        """The value of a required header, and its line number."""
        if key not in headers:
            raise ParseError(f"missing header {key!r}")
        return headers.pop(key)

    known: set = set()  # the symbols checked so far

    def take_word(key):
        """The word of a required header, and its line number."""
        value, lineno = take(key)
        return _parse_word(value.split(), lineno, known), lineno

    kind, _ = take("kind")
    if kind not in ("nca", "gcsg", "egcsg"):
        raise ParseError(f"unknown kind {kind!r}")
    section = "rules" if kind == "nca" else "productions"
    if body_key not in (None, section):
        raise ParseError(f"kind {kind} expects a '{section}:' section, got '{body_key}:'")
    terminals, terminals_line = take_word("terminals")
    if kind == "nca":
        working, _ = take_word("alphabet")
    else:
        nonterminals, _ = take_word("nonterminals")
        start, start_line = take("start")
        try:
            check_symbol(start)
        except ValueError as e:
            raise ParseError(str(e), start_line)
    for key, (_, lineno) in headers.items():
        raise ParseError(f"unknown header {key!r}", lineno)
    rules = []
    for line, no, raw in body:
        r = _parse_rule_line(line, no, raw, known)
        if kind == "gcsg" and r.anchor is not Anchor.NONE:
            raise ParseError("anchored production in a kind gcsg file (use kind egcsg)", no)
        rules.append(r)
    if kind != "nca":
        return Grammar(frozenset(nonterminals), frozenset(terminals), start, tuple(rules))
    try:
        alphabet = Alphabet(frozenset(terminals), frozenset(working))
    except ValueError as e:
        raise ParseError(str(e), terminals_line)
    return NcaSystem(alphabet, tuple(rules))


def serialize_system(sys) -> str:
    """Text of a system: sorted symbol sections, rule lines in the system's
    order, and kind ``egcsg`` exactly when a production is anchored.
    Reparsing yields an equal system, rule order included."""
    if isinstance(sys, NcaSystem):
        rules = sys.rules
        lines = ["kind: nca",
                 "terminals: " + word_str(sorted(sys.alphabet.terminals)),
                 "alphabet: " + word_str(sorted(sys.alphabet.working)),
                 "rules:"]
    elif isinstance(sys, Grammar):
        rules = sys.productions
        anchored = any(p.anchor is not Anchor.NONE for p in rules)
        lines = ["kind: " + ("egcsg" if anchored else "gcsg"),
                 "terminals: " + word_str(sorted(sys.terminals)),
                 "nonterminals: " + word_str(sorted(sys.nonterminals)),
                 "start: " + sys.start,
                 "productions:"]
    else:
        raise TypeError(f"cannot serialize {type(sys).__name__}")
    for r in rules:
        line = f"{word_str(r.lhs)} -> {word_str(r.rhs)}"
        lines.append(line if r.anchor is Anchor.NONE else line + " @" + r.anchor.value)
    return "\n".join(lines) + "\n"


def language(system, max_len: int) -> set[Word]:
    """Enumerated language of either kind of system up to ``max_len``."""
    if isinstance(system, NcaSystem):
        return nca_mod.enumerate_language(system, max_len)
    if isinstance(system, Grammar):
        return grammar_mod.generate_language(system, max_len)
    raise TypeError(f"not a system: {type(system).__name__}")


def shortlex_key(w: Word):
    return (len(w), w)


def first_difference(a, b, max_len: int):
    """First word (shortlex, so the empty word first) on which the two
    systems' languages up to ``max_len`` disagree, or None if equal."""
    la = language(a, max_len)
    lb = language(b, max_len)
    diff = la ^ lb
    if not diff:
        return None
    return min(diff, key=shortlex_key)


def _join_rows(h, cells, heads, tails) -> str:
    """Every row's head, its cells and its tail in one join: ``heads[t]``,
    then ``cells[i]`` for each letter i of row t, each cell with its
    leading space (`` _`` for an empty row), spliced from the row before,
    then ``tails[t]``."""
    row = list(cells[:len(h.start)])
    empty = [" " + EMPTY_WORD_TOKEN]
    out = []
    push, extend = out.append, out.extend
    for head, tail, e in zip(heads, tails, h.events):
        push(head)
        extend(row or empty)
        push(tail)
        row[e.position:e.position + len(e.consumed)] = map(cells.__getitem__, e.produced)
    push(heads[-1])
    extend(row or empty)
    push(tails[-1])
    return "".join(out)


def format_trace(h) -> str:
    """One line per step: ``t | word | rule#k @pos``."""
    heads = [f"{t} |" for t in range(len(h.events) + 1)]
    tails = [f" | rule#{e.rule_index} @{e.position}\n" for e in h.events] + [" |\n"]
    return _join_rows(h, [" " + s for s in h.symbols], heads, tails)


def format_diagram(h) -> str:
    """Rows of letters with their horizontal intervals, interleaved with
    the substitution line spans, drawn from :func:`gcsl.history._spans`:
    ``int`` endpoints while every split is even, so that ``fractions`` is
    imported only for an uneven one."""
    intervals, lines = history_mod._spans(h)
    cells = [f" {s}[{lo},{hi})" for s, (lo, hi) in zip(h.symbols, intervals)]
    heads = [f"row {t}:" for t in range(len(h.events) + 1)]
    tails = [f"\n  line: [{lo},{hi}) rule#{e.rule_index}\n"
             for (lo, hi), e in zip(lines, h.events)] + ["\n"]
    return _join_rows(h, cells, heads, tails)
