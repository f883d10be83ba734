"""Command line interface.

``trace`` takes systems and grammars.  A grammar's ``rule#k`` numbers the
rules that ``convert --to nca`` writes: each ``S -> v`` as ``v -> _ @both``,
then the rest reversed.  Without ``S -> _``, append it to a copy of the
grammar; ``convert --to nca`` of the copy then prints exactly those rules.

Exit codes: 0 success / accepted / languages equal, 1 rejected / unequal,
2 usage or parse error, 3 budget exceeded (search nodes, or ``nca.MAX_MEMO``
memo words, enumerated words or converted productions), 4 internal error.
"""

from __future__ import annotations

import argparse
import sys

from .core import word, word_str
from . import grammar as grammar_mod
from . import history as history_mod
from . import nca as nca_mod
from . import transforms
from .grammar import Grammar
from .nca import DEFAULT_BUDGET, Budget, NcaSystem, Status
from .textio import (
    ParseError,
    ValidationError,
    first_difference,
    format_diagram,
    format_trace,
    language,
    parse_system,
    serialize_system,
    shortlex_key,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _load(path: str):
    try:
        with open(path, encoding="utf-8-sig") as f:
            return parse_system(f.read())
    except (UnicodeDecodeError, ParseError, ValidationError) as e:
        raise _CliError(f"{path}: {e}")


class _CliError(Exception):
    pass


def cmd_validate(args) -> int:
    _load(args.file)
    print("ok")
    return EXIT_OK


_CONVERSIONS = {
    "nca": (Grammar, transforms.gcsg_to_nca),
    "gcsg": (NcaSystem, transforms.nca_to_gcsg),
    "standard": (Grammar, transforms.deanchor),
}


def cmd_convert(args) -> int:
    expected, fn = _CONVERSIONS[args.to]
    system = _load(args.file)
    if not isinstance(system, expected):
        raise _CliError(f"convert --to {args.to} expects a {expected.__name__.lower()} input")
    try:
        result = fn(system)
    except ValueError as e:
        raise _CliError(str(e))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(serialize_system(result))
    else:
        sys.stdout.write(serialize_system(result))
    return EXIT_OK


def _accepted(system, text: str, max_nodes: int):
    """Decide the word ``text`` on ``system`` within ``max_nodes`` search
    nodes.  Returns the system whose rules the witness indexes (a grammar's
    ``_backward``), the word and the witness when accepted; prints a
    rejection and returns None; a budget stop raises :class:`nca.BudgetExceededError`."""
    if not text.split():  # an unset shell variable must not read as the empty word
        raise _CliError("WORD holds no symbol; write _ for the empty word")
    budget = Budget(max_nodes=max_nodes)
    try:
        w = word(text)
        if isinstance(system, NcaSystem):
            decision = nca_mod.decide(system, w, budget)
        else:
            decision = grammar_mod.member(system, w, budget)
            system = system._backward
    except ValueError as e:
        raise _CliError(str(e))
    if decision.status is Status.BUDGET_EXCEEDED:
        raise nca_mod.BudgetExceededError(f"budget exceeded while deciding {text!r}")
    if not decision.accepted:
        print("rejected")
        return None
    return system, w, decision.witness


def cmd_decide(args) -> int:
    accepted = _accepted(_load(args.file), args.word, args.max_nodes)
    if accepted is None:
        return EXIT_NEGATIVE
    print("accepted")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    system = _load(args.file)
    try:
        lang = language(system, args.max_len)
    except ValueError as e:
        raise _CliError(str(e))
    for w in sorted(lang, key=shortlex_key):
        print(word_str(w))
    return EXIT_OK


def cmd_equiv(args) -> int:
    a = _load(args.file_a)
    b = _load(args.file_b)
    try:
        diff = first_difference(a, b, args.max_len)
    except ValueError as e:
        raise _CliError(str(e))
    if diff is None:
        print(f"equal up to length {args.max_len}")
        return EXIT_OK
    print(f"languages differ on: {word_str(diff)}")
    return EXIT_NEGATIVE


def cmd_trace(args) -> int:
    accepted = _accepted(_load(args.file), args.word, args.max_nodes)
    if accepted is None:
        return EXIT_NEGATIVE
    h = history_mod.from_moves(*accepted)
    if args.canonical:
        h = history_mod.canonicalize(h)
    sys.stdout.write(format_trace(h))
    if args.diagram:
        sys.stdout.write(format_diagram(h))
    return EXIT_OK


def _int_at_least(low: int):
    """An argparse type for integers of at least ``low``."""
    def parse(text: str) -> int:
        try:
            if text.isdecimal() and int(text) >= low:
                return int(text)
        except ValueError:  # more digits than int() converts
            pass
        raise argparse.ArgumentTypeError(f"expected an integer of at least {low}: {text!r}")
    return parse


def _add_max_nodes(p):
    p.add_argument("--max-nodes", type=_int_at_least(1), metavar="N",
                   default=DEFAULT_BUDGET.max_nodes,
                   help="stop the search after N nodes (default %(default)s)")


def _add_max_len(p):
    p.add_argument("--max-len", type=_int_at_least(0), metavar="N",
                   required=True, help="consider words of at most N letters")


_COMMANDS = ("validate", "convert", "decide", "enumerate", "equiv", "trace")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The ``gcsl`` parser.  When ``command`` names a command, only its
    subparser is built; any other value (None, ``-h``, a prefix) builds all
    six.  The usage line lists all six either way."""
    names = (command,) if command in _COMMANDS else _COMMANDS
    parser = argparse.ArgumentParser(
        prog="gcsl",
        description="Length-reducing rewriting systems, growing context-sensitive "
                    "grammars, conversions between them, and reduction traces.",
    )
    # with all six, a metavar would rename "argument command" in the errors
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if "validate" in names:
        p = sub.add_parser("validate", help="check a system file")
        p.add_argument("file")
        p.set_defaults(fn=cmd_validate)
    if "convert" in names:
        p = sub.add_parser("convert", help="convert between system kinds")
        p.add_argument("--to", required=True, choices=sorted(_CONVERSIONS),
                       help="gcsg: a system to a standard grammar; nca: a grammar to a system; "
                            "standard: compile a grammar's anchors away, returning a grammar "
                            "with none unchanged")
        p.add_argument("file")
        p.add_argument("-o", "--output")
        p.set_defaults(fn=cmd_convert)
    if "decide" in names:
        p = sub.add_parser("decide", help="decide membership of a word")
        p.add_argument("file")
        p.add_argument("word", help="whitespace-separated symbols, or _ for the empty word")
        _add_max_nodes(p)
        p.set_defaults(fn=cmd_decide)
    if "enumerate" in names:
        p = sub.add_parser("enumerate", help="list the language up to a length bound")
        p.add_argument("file")
        _add_max_len(p)
        p.set_defaults(fn=cmd_enumerate)
    if "equiv" in names:
        p = sub.add_parser("equiv", help="compare two systems' languages")
        p.add_argument("file_a")
        p.add_argument("file_b")
        _add_max_len(p)
        p.set_defaults(fn=cmd_equiv)
    if "trace" in names:
        p = sub.add_parser("trace", help="print a witness reduction history")
        p.add_argument("file")
        p.add_argument("word")
        p.add_argument("--canonical", action="store_true",
                       help="reorder independent substitutions left-first")
        p.add_argument("--diagram", action="store_true",
                       help="append the interval diagram")
        _add_max_nodes(p)
        p.set_defaults(fn=cmd_trace)
    return parser


def main(argv=None) -> int:
    """Run the command ``argv`` (default ``sys.argv[1:]``) and return its
    exit code.  Each call builds its own parser, for its command alone."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        return args.fn(args)
    except (_CliError, OSError) as e:
        print(e, file=sys.stderr)
        return EXIT_USAGE
    except nca_mod.BudgetExceededError:
        print("budget exceeded", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as e:
        # a crash must not read as an answer: keep the traceback for the
        # report and end with a code that no answer uses (traceback is
        # imported only here, as it adds to every start-up)
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
