"""Compare two checkouts on one perfbench workload, round by round.

    python3 tools/ab_rounds.py PARENT CHANGE --workload W --rounds N [--seed S]

PARENT and CHANGE are the roots of two source checkouts. One worker process
starts per checkout; it imports that checkout's ``perfbench/run.py`` and
uses its ``setup`` and ``run_op`` as they are, so each side runs its own
program on its own round of documents. The workers then run whole rounds
in turn (parent, change, change, parent, parent, ...), each operation timed
as ``perfbench/run.py`` times it, after a garbage collection and with the
documents frozen out of collection.

For each side it prints the best-of ``ops_per_s`` (ops over the sum of each
operation's fastest time, as ``perfbench/run.py`` reports it) and the median
of those fastest times, then in how many rounds the change's round was the
faster, the median and interquartile range of the per-round ratio of the
change's round time to the parent's, whether the two sides' first-round
reports agree byte for byte, and whether every later round of each side
reproduces that side's first round, as ``perfbench/run.py`` requires. The
best-of figure rests on each side's few fastest rounds; the median ratio
reads every round.
A table follows: each operation's fastest time on each side, and the
change's over the parent's.

Why interleave: back-to-back runs on a shared machine can land in machine
phases about 1.6x apart, more than most changes being measured. Rounds a
few milliseconds apart run in the same phase.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def load_run(checkout: Path):
    """That checkout's perfbench/run.py, imported as a module."""
    path = checkout / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def worker(checkout: Path, workload: str, seed: int) -> int:
    """Answer each line on stdin with one timed round, as a JSON line."""
    run = load_run(checkout)
    cli, ops = run.setup(workload, seed)
    print(json.dumps({"ops": [op.name for op in ops]}), flush=True)
    gc.collect()
    gc.freeze()
    for _ in sys.stdin:
        times, digest = [], hashlib.sha256()
        for op in ops:
            gc.collect()
            t0 = time.perf_counter()
            code, text = run.run_op(cli, op)
            times.append(time.perf_counter() - t0)
            digest.update(f"{code}\n{text}\n".encode())
        print(json.dumps({"times": times, "digest": digest.hexdigest()}), flush=True)
    return 0


class Side:
    def __init__(self, checkout: Path, args):
        self.checkout = checkout
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout),
             "--workload", args.workload, "--seed", str(args.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=checkout,
        )
        self.ops = self._read()["ops"]
        self.rounds: list[list[float]] = []
        self.digest = None  # the first round's
        self.drifted = False  # a later round's digest differs from it

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            sys.exit(f"ab_rounds: the worker for {self.checkout} stopped")
        return json.loads(line)

    def round(self) -> None:
        self.proc.stdin.write("round\n")
        self.proc.stdin.flush()
        got = self._read()
        self.rounds.append(got["times"])
        if self.digest is None:
            self.digest = got["digest"]
        elif got["digest"] != self.digest:
            self.drifted = True

    def best(self) -> list[float]:
        return [min(r[i] for r in self.rounds) for i in range(len(self.ops))]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, nargs="?")
    ap.add_argument("change", type=Path, nargs="?")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, default=200)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker is not None:
        return worker(args.worker.resolve(), args.workload, args.seed)
    if args.parent is None or args.change is None:
        ap.error("PARENT and CHANGE checkouts are required")

    sides = []
    try:
        for checkout in (args.parent, args.change):
            sides.append(Side(checkout.resolve(), args))
        parent, change = sides
        if parent.ops != change.ops:
            sys.exit("ab_rounds: the two checkouts generate different rounds")
        for r in range(args.rounds):
            for side in sides if r % 2 == 0 else sides[::-1]:
                side.round()
    finally:
        for side in sides:
            side.close()

    n = len(parent.ops)
    ratios = [sum(c) / sum(p) for p, c in zip(parent.rounds, change.rounds)]
    faster = sum(r < 1 for r in ratios)
    for label, side in (("parent", parent), ("change", change)):
        best = side.best()
        print(f"{label}: ops_per_s {n / sum(best):.1f}  op_ms_p50 "
              f"{statistics.median(best) * 1000.0:.3f}  ({side.checkout})")
    print(f"change: {n / sum(change.best()) / (n / sum(parent.best())) - 1:+.1%} ops_per_s; "
          f"faster in {faster} of {args.rounds} rounds")
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"per-round change/parent time: median {median:.3f}, "
          f"interquartile range {q1:.3f}-{q3:.3f}")
    print(f"first-round reports: {'identical' if parent.digest == change.digest else 'DIFFERENT'}")
    drifted = [label for label, side in (("parent", parent), ("change", change)) if side.drifted]
    print(f"later rounds: {'DIFFERENT on ' + ' and '.join(drifted) if drifted else 'identical'}")
    width = max(map(len, parent.ops))
    print(f"\n{'operation':<{width}}  parent ms  change ms  change/parent")
    for name, p, c in zip(parent.ops, parent.best(), change.best()):
        print(f"{name:<{width}}  {p * 1000.0:9.3f}  {c * 1000.0:9.3f}  {c / p:13.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
