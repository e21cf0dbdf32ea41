"""The benchmark's per-layer tracer wraps functions of opequiv by name.

A refactor that renames or removes one of them would silently zero that
layer's metrics, so every target must still resolve to a callable here.
"""

import importlib
import importlib.util
import inspect
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their defining module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize(
    "target",
    [t for t in _load_tracer().TARGETS if t.module != "__main__"],  # run.py's own hook
    ids=lambda t: f"{t.module}.{t.name}",
)
def test_trace_target_resolves_to_a_callable(target):
    owner = importlib.import_module(target.module)
    for part in target.name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_scan_segment_keeps_the_shape_the_tracer_unpacks():
    # The tracer's _scan_counts unpacks the arguments by position and reads
    # result[0] as the violating window (k, l); a change to either would skew
    # conditions.buckets_scanned without failing anything else.
    from opequiv import BucketMeasure, Finite
    from opequiv.conditions import _scan_segment, _Side

    params = list(inspect.signature(_scan_segment).parameters)
    assert params == ["a", "b", "q", "seg_lo", "seg_hi", "k_min"]
    a = _Side(BucketMeasure(Fraction(1, 2), {0: Finite(2)}))
    b = _Side(BucketMeasure(Fraction(1, 2), {3: Finite(2)}))
    hit, _ = _scan_segment(a, b, 1, -2, 5, None)
    assert hit == (-2, 3)  # window [-2, 0]: 2 values against none in [-3, 1]


@pytest.mark.parametrize("p", [Fraction(1), Fraction(5, 2), Fraction(3)])
def test_power_range_counts_call_iroot_once_per_bucket(monkeypatch, p):
    # The tracer rebinds tails.iroot to a wrapper; tails.iroot_calls reads
    # zero if the range kernel stops calling iroot through the module global.
    from opequiv import tails

    calls = []
    real = tails.iroot

    def traced(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tails, "iroot", traced)
    span = tails.SeqSpan(tails.PowerSeq(Fraction(3), p))
    counts = span.cum_range(Fraction(1, 2), -5, 60)
    assert len(calls) == len(counts) == 66
    assert counts[-1] == span.cum_to_bucket(Fraction(1, 2), 60)


def test_certificate_targets_run_on_a_span_pair(monkeypatch):
    # conditions.certificate_ms and conditions.span_dom_calls read zero when
    # no decision reaches the functions the tracer wraps for them. Rebind
    # each under every name that refers to it, as the tracer does, and
    # decide a tail-certify document with one power span on each side.
    from opequiv import cli

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("_tail_certificate", "_span_dom"):
        real = getattr(importlib.import_module("opequiv.conditions"), name)
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "opequiv"]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))
    doc = FIXTURES / "tail-certify" / "00-power-3-strong.json"
    cli.run("decide", cli.parse_spec(doc.read_text()))
    assert calls["_tail_certificate"] > 0 and calls["_span_dom"] > 0, calls
