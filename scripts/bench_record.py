#!/usr/bin/env python3
"""Record the benchmark's end-to-end results for every workload in one file.

    python3 scripts/bench_record.py PR [--seconds S] [--output PATH]

Runs ``perfbench/run.py --workload W --seed 1 --seconds S --trace 0`` once
for each workload that BENCHMARK.json lists, one after another, and writes
``BENCH_<PR>.json`` at the root of the checkout (or PATH): the commit, the
Python version, the seed, the run length, the CPU count and, per workload,
the JSON line the run printed last.  Run it from a clean checkout, so that
the commit names the code that was measured; a tree with changes to tracked
files is marked ``"dirty": true``.  The file being written is left out of that
check, so that recording again over an earlier record stays clean.

Exits 1 when some workload is not ``correct`` or has failed operations, after
writing the file, and 0 otherwise.  A run that exits non-zero stops the
script with no file written; its own errors are on stderr as it printed them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # every record uses the same workload draws, so records compare


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_workload(name: str, seconds: float) -> dict:
    """The result line of one untraced run of ``name``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pr", help="the number that names the file BENCH_<PR>.json")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--output", type=Path, help="where to write (default BENCH_<PR>.json)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    output = (args.output or ROOT / f"BENCH_{args.pr}.json").resolve()
    changed = _git("diff", "HEAD", "--name-only").splitlines()
    record = {
        "pr": args.pr,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": any(ROOT / name != output for name in changed),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seed": SEED,
        "seconds": args.seconds,
        "workloads": {},
    }
    ok = True
    for w in spec["workloads"]:
        result = run_workload(w["name"], args.seconds)
        record["workloads"][w["name"]] = result
        print(f"{w['name']}: {json.dumps(result)}")
        ok = ok and result["correct"] is True and result["failed"] == 0
    output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
