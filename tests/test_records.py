"""The value types are named tuples, or for ``History`` a small read-only
class: their constructors, equality, immutability and copies, and the
modules a fresh ``gcsl`` command does not import."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gcsl
from gcsl import history, nca
from gcsl.core import Alphabet, Anchor, ValidationError, word
from gcsl.grammar import Grammar, Production
from gcsl.history import Event, Geometry, History
from gcsl.nca import Budget, Decision, NcaSystem, Rule, Status

from conftest import FIXTURES, load

SRC = Path(gcsl.__file__).resolve().parent.parent

# -S: a site .pth file may preload modules of its own
GUARD = """
import sys
sys.path.insert(0, sys.argv[1])
import gcsl, gcsl.cli, gcsl.textio
heavy = ("dataclasses", "inspect", "fractions", "decimal", "threading")
print(*(m for m in heavy if m in sys.modules))
system = gcsl.textio.parse_system(open(sys.argv[2], encoding="utf-8").read())
h = gcsl.history.from_moves(system, ("a", "A"), [(0, 0)])
gcsl.history.geometry(h)
print("fractions" in sys.modules)
"""


def test_start_up_imports_no_heavy_module():
    argv = [sys.executable, "-I", "-S", "-c", GUARD, str(SRC), str(FIXTURES / "fg2.nca")]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.splitlines() == ["", "True"]


# a diagram whose splits all divide evenly draws on int endpoints alone
DIAGRAMS = """
import sys
sys.path.insert(0, sys.argv[1])
from gcsl import history, textio
from gcsl.core import word
from gcsl.nca import NcaSystem, Rule
fg2, s3 = (textio.parse_system(open(f, encoding="utf-8").read()) for f in sys.argv[2:])
textio.format_diagram(history.from_moves(fg2, word("a b B A"), [(2, 1), (0, 0)]))
textio.format_diagram(history.from_moves(s3, word("e t s"), [(9, 1), (0, 0)]))
print("fractions" in sys.modules)
split = NcaSystem(fg2.alphabet, (Rule(word("a b B"), word("A A")),))
textio.format_diagram(history.from_moves(split, word("a b B"), [(0, 0)]))
print("fractions" in sys.modules)
"""


def test_only_an_uneven_split_imports_fractions():
    argv = [sys.executable, "-I", "-S", "-c", DIAGRAMS, str(SRC),
            str(FIXTURES / "fg2.nca"), str(FIXTURES / "s3.nca")]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.splitlines() == ["False", "True"]


@pytest.fixture
def fg2_history(fg2):
    return history.from_moves(fg2, word("a b B A"), nca.decide(fg2, word("a b B A")).witness)


def values(fg2, fg2_history):
    """One value of each of the nine types, built from fresh arguments on
    every call, so that two calls give equal objects that are not the same."""
    return [
        Alphabet(frozenset({"a"}), frozenset({"a", "b"})),
        Budget(max_nodes=5),
        Rule(lhs=["a", "b"], rhs=["c"], anchor=Anchor.LEFT),
        NcaSystem(fg2.alphabet, list(fg2.rules)),
        Decision(Status.ACCEPTED, ((0, 1),)),
        load("anbn.gcsg"),
        Event(0, 1, (1, 2), (3,)),
        History(fg2, fg2_history.start, fg2_history.events, fg2_history.symbols),
        history.geometry(fg2_history),
    ]


class TestConstruction:
    def test_keywords_and_defaults(self):
        assert Rule(lhs=("a",), rhs=()).anchor is Anchor.NONE
        assert Budget().max_nodes == 10**6 and nca.DEFAULT_BUDGET == Budget()
        assert Decision(status=Status.REJECTED).witness is None
        assert Decision(Status.ACCEPTED, ()).accepted and not Decision(Status.REJECTED).accepted
        a = Alphabet(terminals=frozenset({"a"}), working=frozenset({"a"}))
        assert NcaSystem(alphabet=a, rules=()).rules == ()

    def test_lists_are_stored_as_tuples(self, anbn_grammar):
        r = Rule(["a", "b"], ["c"])
        assert type(r.lhs) is tuple and type(r.rhs) is tuple and r == Rule(("a", "b"), ("c",))
        system = NcaSystem(Alphabet(frozenset("abc"), frozenset("abc")), [r, r])
        assert system.rules == (r,)
        g = Grammar(anbn_grammar.nonterminals, anbn_grammar.terminals, anbn_grammar.start,
                    list(anbn_grammar.productions) * 2)
        assert g.productions == anbn_grammar.productions and g == anbn_grammar

    def test_invalid_arguments_still_raise(self, anbn_grammar):
        with pytest.raises(ValueError, match="empty left hand side"):
            Rule([], [])
        with pytest.raises(ValueError, match="terminals not in working alphabet"):
            Alphabet(frozenset({"a"}), frozenset({"b"}))
        with pytest.raises(ValidationError, match="not length-reducing"):
            NcaSystem(Alphabet(frozenset("a"), frozenset("a")), (Rule("a", "a"),))
        with pytest.raises(ValidationError, match="start symbol in rhs"):
            Grammar(anbn_grammar.nonterminals, anbn_grammar.terminals, anbn_grammar.start,
                    (Production(word("S"), word("a S b")),))

    def test_replace_validates_like_the_constructor(self, fg2, anbn_grammar):
        assert Rule("ab", "")._replace(anchor=Anchor.RIGHT) == Rule("ab", "", Anchor.RIGHT)
        with pytest.raises(ValueError, match="empty left hand side"):
            Rule("ab", "")._replace(lhs=())
        with pytest.raises(ValidationError, match="not length-reducing"):
            fg2._replace(rules=fg2.rules + (Rule("a", "b"),))
        with pytest.raises(ValidationError, match="start symbol in rhs"):
            anbn_grammar._replace(productions=(Production(word("S"), word("a S")),))
        with pytest.raises(ValueError, match="terminals not in working alphabet"):
            fg2.alphabet._replace(working=frozenset())


class TestValueSemantics:
    def test_equal_fields_give_equal_objects_and_hashes(self, fg2, fg2_history):
        for x, y in zip(values(fg2, fg2_history), values(fg2, fg2_history)):
            assert x == y and hash(x) == hash(y) and not x != y, type(x).__name__
        assert [type(x) for x in values(fg2, fg2_history)] == [
            Alphabet, Budget, Rule, NcaSystem, Decision, Grammar, Event, History, Geometry]

    def test_fields_are_read_only(self, fg2, fg2_history):
        for x in values(fg2, fg2_history):
            name = type(x)._fields[0] if hasattr(type(x), "_fields") else "system"
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)

    @pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_compare_equal(self, round_trip, fg2, fg2_history, anbn_grammar):
        rule = Rule("ab", "c", Anchor.BOTH)
        assert nca.decide(anbn_grammar._backward, word("a b")).accepted  # a cached table to copy
        for x in (rule, anbn_grammar, fg2_history):
            y = round_trip(x)
            assert y == x and type(y) is type(x) and y is not x
        h = round_trip(fg2_history)
        assert (h.system, h.start, h.events, h.symbols) == (
            fg2, fg2_history.start, fg2_history.events, fg2_history.symbols)

    def test_history_is_not_a_tuple(self, fg2_history):
        h = fg2_history
        assert len(h) == len(h.events) == 2
        assert h != (h.system, h.start, h.events, h.symbols)
        assert h != History(h.system, h.start, h.events, h.symbols[:-1])
        assert repr(h).startswith("History(system=NcaSystem(alphabet=Alphabet(")
