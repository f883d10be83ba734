"""The four workloads: seeded operation schedules and how each operation
drives the library and checks its answer.

A workload is a list of rounds.  Each round fixes the kind, system, word
length and oracle verdict of every operation in a set order; the seed only
draws the letters.  A run replays the rounds in order, so the mix of work
is the same whatever the seed and however far into a round the run stops.
The order inside a round interleaves short and long operations for that
reason.

Every call into the library goes through its module attribute (``nca.decide``,
not a bound local), so that the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from gcsl import cli, grammar, history, nca, textio, transforms

import oracle

# node budgets, set so that no operation reaches the library's default of
# 10**6 nodes (about 130 s on s3)
SHORT_BUDGET = 100_000   # s3 words of up to 14 letters stay below 10_000 nodes
LONG_BUDGET = 2_000      # s3 words of 24-32 letters: rejects always stop here
DEEP_BUDGET = 5_000      # fg2 words of up to 2_400 letters need at most 1_200
MEMBER_BUDGET = 20_000   # converted grammars, words of up to 8 letters
TRACE_BUDGET = 10_000    # accepted words of up to 600 letters


@dataclass(frozen=True)
class Op:
    kind: str            # decide | member | convert | equiv | trace | cli
    system: str          # "s3" or "fg2"
    word: tuple = ()
    expected: object = None   # the oracle's verdict or the expected exit code
    max_nodes: int = 0
    argv: tuple = ()     # cli only; "@s3"/"@fg2" stand for the fixture paths
    max_len: int = 0     # equiv only
    shuffle_seed: int = 0  # trace only

    @property
    def letters(self) -> int:
        return len(self.word)


@dataclass
class Outcome:
    status: str          # ok | wrong | budget | error
    seconds: float       # time spent inside library calls
    letters: int = 0
    stats: dict = field(default_factory=dict)
    error: str = ""


@dataclass
class Env:
    """What operations run against: parsed systems, the grammars the latest
    conversion produced, and the fixture paths the CLI is given."""

    systems: dict
    fixture_paths: dict
    grammars: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    systems: tuple                 # fixtures to load, and oracles to self-check
    pool_rounds: int               # rounds generated before timing; runs cycle
    make_round: Callable           # rng -> list[Op]
    make_probes: Callable = None   # rng -> list[Op], run once outside the loop


class _Clock:
    """Accumulates the time spent in library calls made inside ``with``."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._start


def _word_text(word) -> str:
    return " ".join(word) if word else "_"


# --- operations -----------------------------------------------------------


def run_decide(op: Op, env: Env) -> Outcome:
    system = env.systems[op.system]
    memo: set = set()
    clock = _Clock()
    with clock:
        d = nca.decide(system, op.word, nca.Budget(max_nodes=op.max_nodes), memo=memo)
    if d.status is nca.Status.BUDGET_EXCEEDED:
        return Outcome("budget", clock.seconds)
    witness = d.witness or ()
    right = d.accepted == op.expected
    if d.accepted:
        right = right and oracle.moves_reach_empty(system, op.word, witness)
    stats = {"nca.nodes": len(memo) + len(witness), "nca.memo_size": len(memo),
             "nca.search_s": clock.seconds}
    if not right:
        return Outcome("wrong", clock.seconds, stats=stats)
    return Outcome("ok", clock.seconds, op.letters, stats)


def run_member(op: Op, env: Env) -> Outcome:
    g = env.grammars[op.system]
    memo: set = set()
    clock = _Clock()
    with clock:
        d = grammar.member(g, op.word, nca.Budget(max_nodes=op.max_nodes), memo=memo)
    if d.status is nca.Status.BUDGET_EXCEEDED:
        return Outcome("budget", clock.seconds)
    stats = {"grammar.nodes": len(memo) + len(d.witness or ()),
             "grammar.search_s": clock.seconds}
    if d.accepted != op.expected:
        return Outcome("wrong", clock.seconds, stats=stats)
    return Outcome("ok", clock.seconds, op.letters, stats)


def run_convert(op: Op, env: Env) -> Outcome:
    """``gcsl convert --to gcsg`` in library calls, then a text round trip;
    the reparsed grammar is what later member operations query."""
    clock = _Clock()
    with clock:
        g = transforms.nca_to_gcsg(env.systems[op.system])
        reparsed = textio.parse_system(textio.serialize_system(g))
        reached = transforms.reachable_symbols(reparsed)
    env.grammars[op.system] = reparsed
    stats = {"transforms.productions": len(g.productions),
             "transforms.unreachable_nonterminals": len(reparsed.nonterminals - reached)}
    same = (set(reparsed.productions) == set(g.productions)
            and (reparsed.terminals, reparsed.nonterminals, reparsed.start)
            == (g.terminals, g.nonterminals, g.start))
    return Outcome("ok" if same else "wrong", clock.seconds, stats=stats)


def run_equiv(op: Op, env: Env) -> Outcome:
    """``gcsl equiv`` between a fixture and its converted grammar: the
    conversion preserves the language, so there is no difference."""
    clock = _Clock()
    with clock:
        diff = textio.first_difference(env.systems[op.system], env.grammars[op.system],
                                       op.max_len)
    return Outcome("ok" if diff is None else "wrong", clock.seconds)


def _untraced(fn):
    return getattr(fn, "__wrapped__", fn)


def _swap_shuffled(h, seed: int):
    """An equivalent copy of ``h``: as many random adjacent swaps tried as
    there are events."""
    rng = random.Random(seed)
    swap = history.swap_adjacent
    for _ in range(len(h)):
        try:
            h = swap(h, rng.randrange(len(h) - 1))
        except ValueError:
            pass
    return h


def run_trace(op: Op, env: Env) -> Outcome:
    """``gcsl trace --canonical --diagram`` in library calls, plus the
    equivalence check against a swap-shuffled copy."""
    system = env.systems[op.system]
    memo: set = set()
    clock = _Clock()
    with clock:
        d = nca.decide(system, op.word, nca.Budget(max_nodes=op.max_nodes), memo=memo)
    if d.status is nca.Status.BUDGET_EXCEEDED:
        return Outcome("budget", clock.seconds)
    if not d.accepted:
        return Outcome("wrong", clock.seconds)
    stats = {"nca.nodes": len(memo) + len(d.witness), "nca.memo_size": len(memo),
             "nca.search_s": clock.seconds}
    with clock:
        h = history.from_moves(system, op.word, d.witness)
        canonical = history.canonicalize(h)
    shuffled = _swap_shuffled(h, op.shuffle_seed)   # test input, not timed
    with clock:
        same = history.equivalent(canonical, shuffled)
        trace_text = textio.format_trace(canonical)
        diagram = textio.format_diagram(canonical)
    n = len(h)
    right = (same
             and oracle.replays_to_empty(h)
             and oracle.replays_to_empty(canonical)
             and _untraced(history.canonicalize)(canonical) == canonical
             and trace_text.splitlines()[-1] == f"{n} | _ |"
             and len(trace_text.splitlines()) == n + 1
             and len(diagram.splitlines()) == 2 * n + 1)
    stats["history.events"] = n
    if not right:
        return Outcome("wrong", clock.seconds, stats=stats)
    return Outcome("ok", clock.seconds, op.letters, stats)


def run_cli(op: Op, env: Env) -> Outcome:
    argv = [env.fixture_paths.get(a, a) for a in op.argv]
    out, err = io.StringIO(), io.StringIO()
    clock = _Clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), clock:
        code = cli.main(argv)
    if code == 3:
        return Outcome("budget", clock.seconds)
    text = out.getvalue()
    right = code == op.expected
    if argv[0] == "convert":
        right = right and text.startswith("kind: gcsg")
    elif argv[0] == "trace":
        right = right and f"\n{len(op.word) // 2} | _ |\n" in text
    return Outcome("ok" if right else "wrong", clock.seconds,
                   op.letters if right else 0)


RUNNERS = {"decide": run_decide, "member": run_member, "convert": run_convert,
           "equiv": run_equiv, "trace": run_trace, "cli": run_cli}


def execute(op: Op, env: Env) -> Outcome:
    """Run one operation; any exception is a failed operation, timed from
    the start of the operation to the raise."""
    start = time.perf_counter()
    try:
        return RUNNERS[op.kind](op, env)
    except Exception as e:  # every failure is counted, by type
        return Outcome("error", time.perf_counter() - start, error=type(e).__name__)


# --- rounds ---------------------------------------------------------------


def _cli_decide(system: str, word) -> Op:
    accepts = oracle.ORACLES[system](word)
    return Op("cli", system, word, 0 if accepts else 1,
              argv=("decide", "@" + system, _word_text(word)))


def _s3_decide_round(rng):
    # Words avoid the identity letter e, which the rules erase or absorb
    # anywhere: with it, the search size of a rejected 14-letter word
    # varies 10-fold from word to word, without it 2-fold.
    def short(n, accepted=False):
        word = oracle.s3_word(rng, n, accepted, oracle.S3_NON_IDENTITY)
        return Op("decide", "s3", word, accepted, SHORT_BUDGET)

    def long(accepted):
        word = oracle.s3_word(rng, rng.randint(24, 32), accepted, oracle.S3_NON_IDENTITY)
        return Op("decide", "s3", word, accepted, LONG_BUDGET)

    cli_word = tuple(rng.choice(oracle.S3_LETTERS) for _ in range(8))
    # Quantiles are steadier inside a class of operations than between two:
    # three 10-letter rejects hold the median and two 13-letter ones the
    # 90th percentile.
    return [short(14), short(8), short(12), short(10), long(False), short(13),
            short(9), short(11), short(12, True), short(10), short(13), short(10),
            long(True), _cli_decide("s3", cli_word)]


def _fg2_deep_round(rng):
    def accepted(n):
        return Op("decide", "fg2", oracle.fg2_cancelling(rng, n), True, DEEP_BUDGET)

    def perturbed(n):
        return Op("decide", "fg2", oracle.fg2_perturbed(rng, n, n // 4), False, DEEP_BUDGET)

    # accepted words from about 1_990 letters on exceed the interpreter's
    # default recursion limit in the recursive search, so the round stops
    # at 1_800 and ``_fg2_deep_probes`` measures the crash instead; a
    # perturbed word recurses only n/4 deep
    return [accepted(800), accepted(1700), perturbed(1200), accepted(1100),
            accepted(1800), accepted(1400), perturbed(2400),
            _cli_decide("fg2", oracle.fg2_cancelling(rng, 800))]


def _fg2_deep_probes(rng):
    # past the recursion limit: these raise while the search recurses
    return [Op("decide", "fg2", oracle.fg2_cancelling(rng, n), True, DEEP_BUDGET)
            for n in (2000, 2400)]


def _gcsg_member_round(rng):
    def member(system, n, accepted):
        return Op("member", system, oracle.random_word(rng, system, n, accepted),
                  accepted, MEMBER_BUDGET)

    # five 3-letter s3 rejects, whose search size is the same for every
    # word, hold the middle of the round's latencies; fg2 rejects, whose
    # search size varies 10-fold from word to word, stay out of it
    return [Op("convert", "fg2"), Op("convert", "s3"),
            member("s3", 6, False), member("fg2", 8, False), Op("equiv", "fg2", max_len=6),
            member("s3", 4, True), member("fg2", 6, True), member("s3", 4, False),
            member("fg2", 5, False), member("s3", 3, False), member("s3", 2, True),
            member("s3", 5, False), member("s3", 3, False), member("fg2", 4, True),
            Op("cli", "s3", expected=0, argv=("convert", "--to", "gcsg", "@s3")),
            member("s3", 6, True), member("fg2", 7, False), member("s3", 3, False),
            Op("equiv", "s3", max_len=4), member("fg2", 4, False), member("s3", 5, True),
            member("fg2", 8, True), member("s3", 2, False), member("s3", 3, False),
            member("s3", 3, False), member("s3", 3, True)]


def _trace_canonical_round(rng):
    def trace(system, n):
        if system == "fg2":
            word = oracle.fg2_nested(rng, n)
        else:
            word = oracle.s3_word(rng, n, True)
        return Op("trace", system, word, True, TRACE_BUDGET,
                  shuffle_seed=rng.getrandbits(32))

    cli_word = oracle.fg2_nested(rng, 100)
    cli_trace = Op("cli", "fg2", cli_word, 0,
                   argv=("trace", "@fg2", _word_text(cli_word), "--canonical", "--diagram"))
    # two 400-letter s3 words hold the 90th percentile and two 400-letter
    # fg2 words, steadier than s3 words of similar cost, the median
    return [trace("fg2", 300), trace("s3", 400), trace("fg2", 100), trace("s3", 200),
            trace("fg2", 600), cli_trace, trace("fg2", 200), trace("s3", 400),
            trace("s3", 300), trace("fg2", 400), trace("s3", 100), trace("fg2", 400)]


WORKLOADS = {
    "s3-decide": Workload(("s3",), 200, _s3_decide_round),
    "fg2-deep": Workload(("fg2",), 32, _fg2_deep_round, _fg2_deep_probes),
    "gcsg-member": Workload(("fg2", "s3"), 200, _gcsg_member_round),
    "trace-canonical": Workload(("fg2", "s3"), 40, _trace_canonical_round),
}


def generate(workload: Workload, rng) -> list[Op]:
    ops = []
    for _ in range(workload.pool_rounds):
        ops.extend(workload.make_round(rng))
    return ops
