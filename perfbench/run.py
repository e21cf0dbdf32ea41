"""End-to-end benchmark of opequiv decisions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. One run is one fresh process. It generates the workload's round of
pair documents from the seed, then repeats the round, whole, until ``S``
seconds of operations have been measured. One operation is what
``opequiv decide`` / ``opequiv match`` does in process: ``cli.parse_spec``,
``cli.run``, and the JSON report. After every round, outside the timed
region, the outputs are checked: the first round against computations made
apart from the program (``checks.py``), later rounds against the first.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the per-layer ones from
``tracer.py``. See README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5  # fresh processes timed per run for setup_s
PROBE_TIMEOUT_S = 60

# One BLAS thread, set before numpy loads: on the 2-vCPU reference machine a
# second OpenBLAS thread made a 128x128 SVD slower (best 4.3 ms against
# 2.9 ms) and added outliers up to 95 ms. Set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402  (the benchmark's own modules, next to this file)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def import_program():
    """Import opequiv from this checkout's sources, never from elsewhere."""
    if not (SRC / "opequiv" / "__init__.py").is_file():
        sys.exit(f"perfbench: no opequiv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from opequiv import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: opequiv was imported from {cli.__file__}, not {SRC}")
    return cli


def setup(workload: str, seed: int):
    """Everything before the first timed operation."""
    cli = import_program()
    import numpy as np

    ops = workloads.generate(workload, seed)
    # The first large SVD pays OpenBLAS's start-up (0.3-0.6 s here with its
    # default threads); pay it now, so that it counts in setup_s and not in
    # one operation.
    np.linalg.svd(np.random.default_rng(seed).standard_normal((128, 128)), compute_uv=False)
    return cli, ops


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2)


def run_op(cli, op) -> tuple[int, str]:
    """One operation as the CLI performs it: (exit code, JSON report)."""
    try:
        doc = cli.parse_spec(op.text)
        report, _summary, code = cli.run(op.command, doc)
    except Exception as e:  # the CLI exits 2 on ValueError and crashes on others: a failure
        return 2, json.dumps({"error": type(e).__name__, "message": str(e)})
    return code, dump_report(report)


def time_setup(workload: str, seed: int) -> float:
    """Median setup time of fresh processes, from spawn to ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe", repr(t0)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: setup probe failed with code {proc.returncode}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure(cli, ops, seconds: float, tracer=None):
    """Repeat the round until ``seconds`` of operations are measured.

    Returns the rounds, the failed count, the problems found by the checks,
    and the peak resident memory in MB after the first round, read before
    any check runs so that the checkers' own memory does not count.
    """
    rounds = []  # per round: (wall seconds, [op seconds], trace aggregate)
    first = None  # round 1 outputs: [(code, report)]
    problems = []
    failed = 0
    measured = 0.0
    # Every operation starts from the same collector state, as a CLI process
    # does: the benchmark's own objects (documents, generators) are frozen out
    # of collection, and a collection runs before each operation, untimed.
    gc.collect()
    gc.freeze()
    while measured < seconds or not rounds:
        outputs, op_times = [], []
        if tracer is not None:
            tracer.recording = True
        r0 = time.perf_counter()
        for op in ops:
            gc.collect()
            t0 = time.perf_counter()
            outputs.append(run_op(cli, op))
            op_times.append(time.perf_counter() - t0)
        wall = time.perf_counter() - r0
        layer = None
        if tracer is not None:
            tracer.recording = False
            layer = tracer.take()
        rounds.append((wall, op_times, layer))
        measured += sum(op_times)
        for op, (code, text) in zip(ops, outputs):
            if code == 2:
                failed += 1
        if first is None:
            first = outputs
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for op, (code, text) in zip(ops, outputs):
                if code != 2:
                    err = checks.check(op, code, json.loads(text))
                    if err:
                        problems.append(f"{op.name}: {err}")
                elif not op.meta.get("kept_failure"):
                    sys.stderr.write(f"perfbench: {op.name} failed: {text}\n")
        elif outputs != first:
            bad = [op.name for op, a, b in zip(ops, outputs, first) if a != b]
            problems.append(f"round {len(rounds)} differs from round 1 on {bad}")
    return rounds, failed, problems, peak_mb


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dump", metavar="DIR",
                    help="write the round's documents to DIR for replay with the opequiv CLI, then exit")
    ap.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.dump:
        dump_documents(args.workload, args.seed, Path(args.dump))
        return 0

    if args.setup_probe is not None:
        setup(args.workload, args.seed)
        print(repr(time.monotonic() - args.setup_probe))
        return 0

    setup_s = time_setup(args.workload, args.seed) if not args.trace else None
    cli, ops = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
        for name in missing:
            sys.stderr.write(f"perfbench: no function {name} to trace\n")

    rounds, failed, problems, peak_mb = measure(cli, ops, args.seconds, tracer)
    for p in problems:
        sys.stderr.write(f"perfbench: incorrect output: {p}\n")
    attempted = len(ops) * len(rounds)
    wall = sum(sum(r[1]) for r in rounds)
    # Each operation's fastest time in the run: see README.md, "Why minima",
    # for the machine-speed phases this damps.
    best_s = [min(r[1][i] for r in rounds) for i in range(len(ops))]
    ops_per_s = len(ops) / sum(best_s)

    if args.trace:
        metrics = {}
        for name in tracing.METRICS:
            if name.endswith("_ms"):
                value = min(r[2][name] for r in rounds)
                metrics[name] = {"value": value, "unit": "ms"}
            else:
                metrics[name] = {"value": rounds[0][2][name], "unit": "count"}
        metrics["trace.ops_per_s"] = {"value": ops_per_s, "unit": "op/s"}
        write_trace(args, ops, rounds)
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "op/s"},
            "op_ms_p50": {"value": statistics.median(best_s) * 1000.0, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        summary = (
            f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} rounds of "
            f"{len(ops)} ops, {wall:.2f} s measured, {attempted / wall:.4g} op/s over the measured time"
        )
        if attempted >= 100:
            every_ms = [t * 1000.0 for r in rounds for t in r[1]]
            summary += f", p90 {statistics.quantiles(every_ms, n=10)[-1]:.4g} ms"
        sys.stderr.write(summary + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def dump_documents(workload: str, seed: int, out: Path) -> None:
    """One file per operation, numbered in round order, plus its command."""
    out.mkdir(parents=True, exist_ok=True)
    for i, op in enumerate(workloads.generate(workload, seed)):
        path = out / f"{i:02d}-{op.name.replace('/', '_')}.json"
        path.write_text(op.text)
        print(f"opequiv {op.command} --input {path}")


def write_trace(args, ops, rounds) -> None:
    """Per-round layer aggregates and per-op times, written once at the end."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": [op.name for op in ops],
        "rounds": [
            {"wall_s": wall, "op_ms": [t * 1000.0 for t in times], "layers": layer}
            for wall, times, layer in rounds
        ],
    }
    path.write_text(json.dumps(out, indent=1))


if __name__ == "__main__":
    sys.exit(main())
