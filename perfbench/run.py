#!/usr/bin/env python3
"""Benchmark for gcsl.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
``src/`` and the systems are read from ``fixtures/``.  One workload runs
per process, as a closed loop with a single client: the next operation
starts when the previous one has returned.  Inputs are generated from the
seed before timing starts, and every answer is checked against the
benchmark's own oracle (``oracle.py``), never against gcsl.

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` it measures half the time untraced and half traced, reports
the per-layer metrics from the traced half and the tracing overhead as the
drop in ``ops_per_s`` between the halves, and writes the spans to
``perfbench/out/``.  Every metric is printed as ``name value unit``; the
last line is one JSON object with the metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = {"s3": ROOT / "fixtures" / "s3.nca", "fg2": ROOT / "fixtures" / "fg2.nca"}
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 15
# What a fresh ``gcsl`` command pays before its first answer: importing the
# CLI and reading and parsing the systems.  Timed inside a new interpreter,
# whose own start-up is left out.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from gcsl import cli, textio
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as f:
        textio.parse_system(f.read())
print(time.perf_counter() - start)
"""
SELF_CHECK_MAX_LEN = {"s3": 4, "fg2": 6}
# Times are reported at reference speed: as if the reference loop took
# exactly this long.  On a shared host, other tenants change the speed of
# the whole machine by up to half for tens of seconds at a time, which
# moves raw times from run to run far more than any bound worth setting;
# the loop's time, measured through the run, tracks that drift.
REFERENCE_SECONDS = 0.002
# An operation's time is converted with the median of the reference times
# this many operations either side of it, which follows the drift within a
# run better than one factor for the whole run.
REFERENCE_WINDOW = 3
_REFERENCE_WORD = tuple(range(1500))


def load_program():
    """Import gcsl from this checkout's ``src/``, refusing any other copy."""
    src = ROOT / "src"
    missing = [p for p in (src / "gcsl" / "__init__.py", *FIXTURES.values()) if not p.is_file()]
    if missing:
        raise SystemExit(f"perfbench: not a gcsl checkout, missing {missing[0]}")
    sys.path.insert(0, str(src))
    import gcsl

    if Path(gcsl.__file__).resolve().parent != src / "gcsl":
        raise SystemExit(f"perfbench: imported gcsl from {gcsl.__file__}, not from {src}")


def setup(workload):
    """Read and parse the workload's systems, as the CLI does per command."""
    from gcsl import textio

    return {name: textio.parse_system(FIXTURES[name].read_text(encoding="utf-8"))
            for name in workload.systems}


def setup_seconds(workload) -> float:
    """Median set-up time over several fresh interpreters, each converted to
    reference speed with a run of the reference loop just before it."""
    argv = [sys.executable, "-I", "-c", SETUP_PROBE, str(ROOT / "src"),
            *(str(FIXTURES[name]) for name in workload.systems)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        reference_loop()
        scale = REFERENCE_SECONDS / (time.perf_counter() - start)
        probe = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=60)
        times.append(float(probe.stdout) * scale)
    return statistics.median(times)


def self_check(systems) -> list[str]:
    """The oracles must agree with exhaustive ``nca.decide`` on every short
    word; returns the disagreements."""
    import oracle
    from gcsl import nca

    bad = []
    for name, system in systems.items():
        accepts = oracle.ORACLES[name]
        for word in oracle.all_words(oracle.LETTERS[name], SELF_CHECK_MAX_LEN[name]):
            d = nca.decide(system, word, nca.Budget(max_nodes=10_000))
            if d.accepted != accepts(word) or d.status is nca.Status.BUDGET_EXCEEDED:
                bad.append(f"{name}: {' '.join(word) or '_'}")
    return bad


def reference_loop():
    """Fixed pure-Python work shaped like the search's inner loop: slicing,
    hashing and splicing tuples.  It does not touch gcsl, so its time
    follows only the speed of the host."""
    seen = set()
    word = _REFERENCE_WORD
    for i in range(200):
        window = word[i:i + 3]
        if window not in seen:
            seen.add(window)
        word = word[:i] + (i,) + word[i + 2:]
    return len(seen)


def measure(ops, env, seconds, tracer=None):
    """Run operations in schedule order until ``seconds`` have passed.

    The reference loop runs before each operation.  Returns the outcomes,
    their times converted to reference speed, and the run's overall
    conversion factor: ``REFERENCE_SECONDS`` over the loop's median time.
    Traced runs also time ``nca.legal_moves`` on each searched word,
    outside the operation.
    """
    from gcsl import nca
    from workloads import execute

    outcomes, reference = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        reference_loop()
        reference.append(time.perf_counter() - start)
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
        outcomes.append(execute(op, env))
        if tracer is not None and op.kind in ("decide", "trace"):
            tracer.op = "probe"
            nca.legal_moves(env.systems[op.system], op.word)
        i += 1
    for i, o in enumerate(outcomes):
        near = reference[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1]
        o.seconds *= REFERENCE_SECONDS / statistics.median(near)
    return outcomes, REFERENCE_SECONDS / statistics.median(reference)


def _rates(outcomes):
    n = len(outcomes)
    count = Counter(o.status for o in outcomes)
    return n, count, {s: count[s] / n for s in ("ok", "wrong", "budget", "error")}


class Slot(NamedTuple):
    """One position of the round, summarised over the run's rounds."""

    seconds: float       # median time spent in library calls
    latency: float       # median time of the operations that returned, or None
    completed: float     # share answered or budget-stopped
    letters: float       # mean input letters answered


def typical_round(outcomes, round_len) -> list[Slot]:
    """Each position of the round summarised over the rounds the run made,
    its time by the median, so that a minority of slow or fast rounds does
    not move the result."""
    slots = []
    for p in range(min(round_len, len(outcomes))):
        ops = outcomes[p::round_len]
        returned = [o.seconds for o in ops if o.status != "error"]
        slots.append(Slot(statistics.median(o.seconds for o in ops),
                          statistics.median(returned) if returned else None,
                          sum(o.status in ("ok", "budget") for o in ops) / len(ops),
                          sum(o.letters for o in ops if o.status == "ok") / len(ops)))
    return slots


def _ops_per_s(outcomes, round_len):
    slots = typical_round(outcomes, round_len)
    return sum(s.completed for s in slots) / sum(s.seconds for s in slots)


def end_to_end(outcomes, round_len, setup_s):
    _, _, rate = _rates(outcomes)
    slots = typical_round(outcomes, round_len)
    busy = sum(s.seconds for s in slots)
    # quantiles over the positions of the typical round, so that where a run
    # stops inside a round does not shift them from one class of operation
    # to the next; raised operations have no latency and show in error_rate
    latencies = [s.latency for s in slots if s.latency is not None] or [busy]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 \
        else latencies[0]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sum(s.completed for s in slots) / busy, "1/s"),
        "letters_per_s": (sum(s.letters for s in slots) / busy, "letters/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "answered_rate": (rate["ok"], "ratio"),
        "error_rate": (rate["error"], "ratio"),
        "wrong_rate": (rate["wrong"], "ratio"),
        "budget_stop_rate": (rate["budget"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def per_layer(untraced, traced, round_len, tracer, scale):
    """Per-layer metrics from the traced half; span times are converted to
    reference speed with that half's ``scale``."""
    from tracing import LAYERS

    calls, total_ns, layer_self_ns = tracer.summary()
    stats = {}
    for o in traced:
        for key, value in o.stats.items():
            stats.setdefault(key, []).append(value)

    def call_ms(name):
        return total_ns[name] * scale / calls[name] / 1e6 if calls[name] else 0.0

    def per_node_us(prefix):
        nodes = sum(stats.get(prefix + ".nodes", []))
        return sum(stats.get(prefix + ".search_s", [])) * scale * 1e6 / nodes if nodes else 0.0

    m = {
        "nca.us_per_node": (per_node_us("nca"), "us"),
        "nca.legal_moves.us": (call_ms("nca.legal_moves") * 1e3, "us"),
        "nca.nodes": (_mean(stats.get("nca.nodes", [])), "count"),
        "nca.memo_size": (_mean(stats.get("nca.memo_size", [])), "count"),
        "grammar.nodes": (_mean(stats.get("grammar.nodes", [])), "count"),
        "grammar.us_per_node": (per_node_us("grammar"), "us"),
        "transforms.productions": (_mean(stats.get("transforms.productions", [])), "count"),
        "transforms.unreachable_nonterminals":
            (_mean(stats.get("transforms.unreachable_nonterminals", [])), "count"),
        "history.events": (_mean(stats.get("history.events", [])), "count"),
    }
    for name in ("nca.decide", "nca.enumerate_language", "grammar.member",
                 "grammar.generate_language", "transforms.nca_to_gcsg",
                 "textio.parse_system", "textio.serialize_system",
                 "textio.first_difference", "textio.format_trace", "textio.format_diagram",
                 "history.from_moves", "history.geometry", "history.canonicalize",
                 "history.equivalent", "cli.main"):
        m[name + ".ms"] = (call_ms(name), "ms")
    for layer in LAYERS:
        m[layer + ".self_ms_per_op"] = (layer_self_ns[layer] * scale / len(traced) / 1e6, "ms")
    base, with_spans = _ops_per_s(untraced, round_len), _ops_per_s(traced, round_len)
    m["trace.overhead_pct"] = (100 * (base - with_spans) / base, "%")
    _, _, rate = _rates(untraced + traced)
    m["error_rate"] = (rate["error"], "ratio")
    m["wrong_rate"] = (rate["wrong"], "ratio")
    m["budget_stop_rate"] = (rate["budget"], "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import tracing
    from workloads import WORKLOADS, Env, execute, generate

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    ops = generate(workload, random.Random(f"{args.workload}:{args.seed}"))
    # operations known to raise are kept out of the timed loop, where their
    # count would follow how many rounds a run makes; traced runs make them
    # once each, after the loop
    probes = (workload.make_probes(random.Random(f"{args.workload}:{args.seed}:probes"))
              if workload.make_probes else [])
    probed = []
    round_len = len(ops) // workload.pool_rounds
    systems = setup(workload)
    disagreements = self_check(systems)
    for line in disagreements:
        print(f"oracle disagrees with nca.decide on {line}", file=sys.stderr)
    env = Env(systems, {"@" + name: str(FIXTURES[name]) for name in FIXTURES})

    if not args.trace:
        outcomes, scale = measure(ops, env, args.seconds)
        metrics = end_to_end(outcomes, round_len, setup_seconds(workload))
        listed = spec["end_to_end"]
    else:
        untraced, _ = measure(ops, env, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.op = "setup"
            setup(workload)
            traced, scale = measure(ops, env, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        outcomes = untraced + traced
        metrics = per_layer(untraced, traced, round_len, tracer, scale)
        probed = [execute(op, env) for op in probes]
        metrics["nca.deep_probe_error_rate"] = (
            sum(o.status == "error" for o in probed) / len(probed) if probed else 0.0, "ratio")
        listed = spec["per_layer"]

    n, count, _ = _rates(outcomes)
    errors = Counter(o.error for o in outcomes if o.status == "error")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{n} operations, {count['ok']} answered, {count['budget']} budget stops, "
          f"{count['wrong']} wrong, {count['error']} raised")
    for kind, k in sorted(errors.items()):
        print(f"  raised {kind}: {k}")
    for op, o in zip(probes, probed):
        print(f"  probe: decide on an accepted {op.letters}-letter {op.system} word: "
              f"{o.error or o.status}")
    print(f"  times at reference speed: measured times x {scale:.4g} over the run")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")

    result = {
        "correct": (not disagreements and count["wrong"] == 0
                    and not any(o.status == "wrong" for o in probed)),
        "attempted": n,
        "failed": count["wrong"] + count["error"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
