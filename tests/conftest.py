from pathlib import Path

import pytest
from hypothesis import strategies as st

from gcsl.core import Anchor
from gcsl.nca import Rule
from gcsl.textio import parse_system

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    return parse_system((FIXTURES / name).read_text(encoding="utf-8"))


# Two inputs whose caret names collide with each other: ``^`` + ``b^`` and
# ``^b`` + ``^`` are both ``^b^``.  The grammar's language is {x x y y y}.
CARET_CLASH = {
    "egcsg": "kind: egcsg\nterminals: x y\nnonterminals: S b^ ^b\nstart: S\nproductions:\n"
             "S -> b^ ^b\nb^ -> x x @left\n^b -> y y y @right\n",
    "nca": "kind: nca\nterminals: b^ ^b\nalphabet: b^ ^b\nrules:\nb^ ^b -> _ @left\n^b -> _\n",
}


@pytest.fixture
def fg2():
    return load("fg2.nca")


@pytest.fixture
def anbn_grammar():
    return load("anbn.gcsg")


@pytest.fixture
def anbn_nca():
    return load("anbn.nca")


@pytest.fixture
def xanchor():
    return load("xanchor.nca")


@st.composite
def shortening_rules(draw, letters="abc"):
    """A rule over ``letters`` with a left-hand side of 1-3 letters, a
    shorter (often empty) right-hand side, and any anchor."""
    lhs = tuple(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=3)))
    rhs = tuple(draw(st.lists(st.sampled_from(letters), max_size=len(lhs) - 1)))
    return Rule(lhs, rhs, draw(st.sampled_from(list(Anchor))))
