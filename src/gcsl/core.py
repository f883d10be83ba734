"""Symbols, words, alphabets, and the anchor-aware substring matcher.

Symbols are plain strings (multi-character names are fine, so decorated
symbols like ``~x`` or ``^x^`` are first class).  Words are tuples of
symbols; the empty tuple is the empty word.  In all textual I/O the
reserved token ``_`` stands for the empty word.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

Symbol = str
Word = tuple[Symbol, ...]

EPSILON: Word = ()
EMPTY_WORD_TOKEN = "_"


class Anchor(enum.Enum):
    """Where a rule or production may be applied."""

    NONE = "none"    # anywhere
    LEFT = "left"    # only at the start of the word
    RIGHT = "right"  # only at the end of the word
    BOTH = "both"    # only as the entire word


def check_symbol(name: str) -> Symbol:
    """Validate a symbol name, returning it unchanged."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"symbol name must be a non-empty string: {name!r}")
    if name.split() != [name]:
        raise ValueError(f"symbol name contains whitespace: {name!r}")
    if name == EMPTY_WORD_TOKEN:
        raise ValueError(f"{EMPTY_WORD_TOKEN!r} is reserved for the empty word")
    # the text format reads these as a comment, a rule's arrow or an anchor
    if "#" in name or "->" in name or name[0] == "@":
        raise ValueError(f"symbol name contains '#' or '->', or starts with '@': {name!r}")
    return name


def word(text: str) -> Word:
    """Parse a whitespace-separated word; a single ``_`` is the empty word."""
    tokens = text.split()
    if tokens == [EMPTY_WORD_TOKEN]:
        return EPSILON
    return tuple(check_symbol(t) for t in tokens)


def word_str(w: Word) -> str:
    """Render a word as whitespace-separated symbols, ``_`` for the empty word."""
    return " ".join(w) if w else EMPTY_WORD_TOKEN


class ValidationError(ValueError):
    """An object broke its type's invariants; ``violations`` lists every
    broken one."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class Alphabet(NamedTuple("Alphabet", [("terminals", frozenset), ("working", frozenset)])):
    """A working alphabet together with its distinguished terminal subset."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def __new__(cls, terminals: frozenset[Symbol], working: frozenset[Symbol]):
        for name in working:
            check_symbol(name)
        if not terminals <= working:
            extra = sorted(terminals - working)
            raise ValueError(f"terminals not in working alphabet: {extra}")
        return tuple.__new__(cls, (terminals, working))


def anchor_ok(anchor: Anchor, start: int, needle_len: int, haystack_len: int) -> bool:
    """Does an occurrence at ``start`` satisfy the anchor constraint?"""
    if anchor is Anchor.NONE:
        return True
    if anchor is Anchor.LEFT:
        return start == 0
    if anchor is Anchor.RIGHT:
        return start + needle_len == haystack_len
    return start == 0 and needle_len == haystack_len


def occurs_at(haystack: Word, needle: Word, start: int, anchor: Anchor = Anchor.NONE) -> bool:
    """Does ``needle`` occur at ``start`` in ``haystack``, honouring ``anchor``?
    Looks at one window only; a negative ``start`` or one past the end is
    no occurrence.  The needle must be non-empty."""
    return (0 <= start and haystack[start:start + len(needle)] == needle
            and anchor_ok(anchor, start, len(needle), len(haystack)))


def splice(w: Word, at: int, remove_len: int, insert: Word) -> Word:
    """Replace ``w[at:at+remove_len]`` by ``insert``."""
    if at < 0 or remove_len < 0 or at + remove_len > len(w):
        raise IndexError(f"splice out of range: at={at} remove_len={remove_len} |w|={len(w)}")
    return w[:at] + tuple(insert) + w[at + remove_len:]
