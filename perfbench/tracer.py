"""Per-layer tracing from outside the program.

The traced run wraps module-level functions of ``opequiv`` (and numpy's SVD)
in timing spans. A wrapped function is rebound under every name that refers
to it in every loaded ``opequiv`` module, because modules import each other's
functions by name: ``flatten_values`` is called through both ``engine`` and
``spectral``, ``ratio_root_lower`` through both ``conditions`` and ``engine``.

Spans are aggregated in memory per round and written out when the run
ends. A group's time counts only its outermost span, so
recursion (``modulus_data`` on a direct sum) is not counted twice. Self time
is a span's time minus the time of the wrapped spans inside it.

Functions called about 10^5 times or more per operation (``term_cmp``,
``pow_delta``, ``_Side.finite_cum``) are not wrapped: the wrapper would cost
more than they do. Their time shows in their callers' spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    module: str  # module that defines the function
    name: str
    group: str  # time group: "<layer>.<stage>"
    calls: Optional[str] = None  # counter incremented once per call
    on_return: Optional[Callable] = None  # (counts, args, result) -> None


def _scan_counts(counts: Counter, args: tuple, result) -> None:
    """Segments and buckets visited by conditions._scan_segment."""
    _a, _b, _q, seg_lo, seg_hi, k_min = args
    k_lo = seg_lo if k_min is None else max(seg_lo, k_min)
    counts["conditions.segments_scanned"] += 1
    hit = result[0]
    last = seg_hi if hit is None else hit[0] + hit[1] - 1
    counts["conditions.buckets_scanned"] += max(0, last - k_lo + 1)


def _element_counts(counts: Counter, args: tuple, result) -> None:
    tau, sigma = args[0], args[1]
    counts["matcher.elements"] += tau.total() + sigma.total()


TARGETS = (
    Target("opequiv.cli", "parse_spec", "cli.parse"),
    Target("opequiv.cli", "verdict_to_json", "cli.report"),
    Target("opequiv.cli", "match_to_json", "cli.report"),
    Target("__main__", "dump_report", "cli.report"),  # run.py's JSON dump of the report
    Target("opequiv.engine", "_normalize", "engine.value_path", "engine.value_path_calls"),
    Target("opequiv.engine", "_shift_envelope", "engine.value_path", "engine.value_path_calls"),
    Target("opequiv.spectral", "kernel_condition", "spectral.reduce"),
    Target("opequiv.spectral", "modulus_data", "spectral.reduce", "spectral.modulus_data_calls"),
    Target("opequiv.spectral", "flatten_values", "spectral.reduce", "spectral.flatten_values_calls"),
    Target("opequiv.spectral", "truncate_inventory", "spectral.reduce"),
    Target("numpy.linalg", "svd", "spectral.svd", "spectral.svd_calls"),
    Target("opequiv.conditions", "condition_s_outcome", "conditions.search"),
    Target("opequiv.conditions", "condition_s_tilde_outcome", "conditions.search"),
    Target("opequiv.conditions", "_check_both", "conditions.check", "conditions.check_calls"),
    Target("opequiv.conditions", "_scan_segment", "conditions.scan", on_return=_scan_counts),
    Target("opequiv.conditions", "_tail_certificate", "conditions.certificate"),
    Target("opequiv.conditions", "_span_dom", "conditions.span_dom", "conditions.span_dom_calls"),
    Target("opequiv.conditions", "_analytic_violation", "conditions.probe"),
    Target("opequiv.tails", "count_ge", "tails.count_ge", "tails.count_ge_calls"),
    Target("opequiv.tails", "_floor_log", "tails.floor_log", "tails.floor_log_calls"),
    Target("opequiv.tails", "iroot", "tails.iroot", "tails.iroot_calls"),
    Target("opequiv.matcher", "build_matching", "matcher.build", on_return=_element_counts),
    Target("opequiv.matcher", "find_hypothesis_violation", "matcher.verify"),
    Target("opequiv.matcher", "_sdr", "matcher.sdr"),
    Target("opequiv.matcher", "_core.verify_windows", "matcher.verify_windows"),
)

# Reported metric -> (kind, key): "ms" reads a group's outermost time, "self"
# its self time, "count" a counter.
METRICS = {
    "cli.parse_ms": ("ms", "cli.parse"),
    "cli.report_ms": ("ms", "cli.report"),
    "engine.value_path_calls": ("count", "engine.value_path_calls"),
    "engine.value_path_ms": ("ms", "engine.value_path"),
    "spectral.modulus_data_calls": ("count", "spectral.modulus_data_calls"),
    "spectral.flatten_values_calls": ("count", "spectral.flatten_values_calls"),
    "spectral.svd_calls": ("count", "spectral.svd_calls"),
    "spectral.svd_ms": ("ms", "spectral.svd"),
    "spectral.reduce_ms": ("ms", "spectral.reduce"),
    "conditions.check_calls": ("count", "conditions.check_calls"),
    "conditions.search_ms": ("ms", "conditions.search"),
    "conditions.segments_scanned": ("count", "conditions.segments_scanned"),
    "conditions.buckets_scanned": ("count", "conditions.buckets_scanned"),
    "conditions.scan_ms": ("ms", "conditions.scan"),
    "conditions.certificate_ms": ("ms", "conditions.certificate"),
    "conditions.span_dom_calls": ("count", "conditions.span_dom_calls"),
    "conditions.probe_ms": ("ms", "conditions.probe"),
    "tails.count_ge_calls": ("count", "tails.count_ge_calls"),
    "tails.count_ge_ms": ("ms", "tails.count_ge"),
    "tails.floor_log_calls": ("count", "tails.floor_log_calls"),
    "tails.floor_log_ms": ("ms", "tails.floor_log"),
    "tails.iroot_calls": ("count", "tails.iroot_calls"),
    "tails.iroot_ms": ("ms", "tails.iroot"),
    "matcher.build_ms": ("ms", "matcher.build"),
    "matcher.verify_ms": ("ms", "matcher.verify"),
    "matcher.verify_windows_ms": ("ms", "matcher.verify_windows"),
    "matcher.sdr_ms": ("ms", "matcher.sdr"),
    "matcher.fixed_point_ms": ("self", "matcher.build"),
    "matcher.elements": ("count", "matcher.elements"),
}


class Tracer:
    """Collects span times and counters while ``recording`` is set."""

    def __init__(self):
        self.recording = False
        self._stack: list[list[float]] = []  # per open span: [time of child spans]
        self._open: Counter = Counter()  # open spans per group
        self.outer_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def wrap(self, target: Target, fn: Callable) -> Callable:
        group, calls, on_return = target.group, target.calls, target.on_return
        stack, open_, clock = self._stack, self._open, time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            open_[group] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                open_[group] -= 1
                if stack:
                    stack[-1][0] += dt
                if not open_[group]:
                    self.outer_s[group] += dt
                self.self_s[group] += dt - frame[0]
                if calls:
                    self.counts[calls] += 1
            if on_return is not None:
                on_return(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self) -> dict:
        """The aggregate since the last call, as {metric: value}; resets."""
        out = {}
        for metric, (kind, key) in METRICS.items():
            if kind == "count":
                out[metric] = self.counts[key]
            else:
                table = self.outer_s if kind == "ms" else self.self_s
                out[metric] = table[key] * 1000.0
        self.outer_s.clear()
        self.self_s.clear()
        self.counts.clear()
        return out


def _resolve(target: Target):
    owner = sys.modules[target.module]
    *path, name = target.name.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the targets missing from this program."""
    missing = []
    modules = [m for n, m in list(sys.modules.items()) if n == "opequiv" or n.startswith("opequiv.")]
    for target in TARGETS:
        try:
            owner, name = _resolve(target)
            original = getattr(owner, name)
        except (KeyError, AttributeError):
            missing.append(f"{target.module}.{target.name}")
            continue
        wrapped = tracer.wrap(target, original)
        setattr(owner, name, wrapped)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    return missing
