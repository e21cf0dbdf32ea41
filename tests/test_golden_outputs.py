"""The benchmark's documents give the same reports as when the fixture was taken.

Every document that ``perfbench/workloads.py`` generates for seeds 101-103
and 7 is replayed through ``cli.parse_spec`` and ``cli.run``, as one
``opequiv decide`` / ``opequiv match`` operation, and the sha256 of its exit
code and ``json.dumps(report, indent=2)`` is compared with
``tests/fixtures/golden-outputs.json``. Documents with a matrix operand are
skipped: their singular values, and so their bits, depend on the BLAS build.

To record the fixture from the program on the import path:

    PYTHONPATH=src python tests/test_golden_outputs.py --write
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "golden-outputs.json"
SEEDS = (101, 102, 103, 7)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their defining module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _has_matrix(node) -> bool:
    if isinstance(node, dict):
        return node.get("kind") == "matrix" or any(map(_has_matrix, node.values()))
    if isinstance(node, list):
        return any(map(_has_matrix, node))
    return False


def _digest(cli, op) -> str:
    """sha256 of the exit code and the indented report, as the CLI prints it."""
    report, _summary, code = cli.run(op.command, cli.parse_spec(op.text))
    return hashlib.sha256(f"{code}\n{json.dumps(report, indent=2)}".encode()).hexdigest()


def replay() -> dict:
    from opequiv import cli

    workloads = _load_workloads()
    out = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for i, op in enumerate(workloads.generate(workload, seed)):
                if not _has_matrix(op.doc):
                    out[f"{workload}/{seed}/{i:02d}-{op.name}"] = _digest(cli, op)
    return out


def test_reports_match_the_recorded_digests():
    expected = json.loads(FIXTURE.read_text())
    got = replay()
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"{len(changed)} reports changed: {changed[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.write_text(json.dumps(replay(), indent=1, sort_keys=True) + "\n")
