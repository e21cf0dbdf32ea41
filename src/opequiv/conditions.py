"""Window-domination conditions on bucket measures.

The core question: for a widening exponent q, does every window of consecutive
buckets of ``a`` carry no more spectral dimension than the same window of
``b`` widened by q buckets on each side (and symmetrically)? Windows range
over all k (the strong form) or only k >= N (the cutoff form, searched
jointly over N).

Infinite bucket counts are resolved by cardinal absorption: a window
containing an infinite bucket of ``a`` is dominated iff ``b`` has an equal or
higher infinite level within reach, and any window whose widening touches an
infinite bucket of ``b`` is trivially dominated. What remains is
integer-valued and decided exactly: finite stretches by the matcher's window
scan (``_matchcore_py.first_window``, lexicographically first window) over
count arrays, unbounded tails by closed-form certificates on the symbolic tail
atoms, with failures located as concrete re-checkable windows. Tail
combinations with no certificate and no located violation raise
UnsupportedTailError rather than guessing either way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import Optional, Union

from ._matchcore_py import first_window
from .cardinal import Aleph, Finite, ZERO, card_add
from .errors import DeltaMismatchError, UnsupportedTailError
from .spectral import (
    BucketMeasure,
    ConstantRay,
    GeometricRay,
    SeqRay,
    SparseRay,
    identity_measure,
    merge_measures,
)
from .tails import (
    FactorialSeq,
    GeometricSeq,
    PowerSeq,
    SeqSpan,
    _floor_log,
    bucket_index,
    factorial,
    least_true,
    pow_delta,
    ratio_root_lower,
    sparse_rule_count_range,
    term_value,
)

_SCAN_SLACK = 160  # extra buckets scanned past the last structural feature


@dataclass(frozen=True)
class WindowViolation:
    """A concrete failing window: the ``side`` whose window [k, k+length-1]
    exceeds the other side's widened window."""

    side: str  # "left" or "right"
    k: int
    length: int


@dataclass(frozen=True)
class ConditionOutcome:
    delta_prime: Optional[Fraction] = None
    n_cutoff: Optional[int] = None
    q_used: Optional[int] = None
    violation: Optional[WindowViolation] = None
    unsupported: Optional[str] = None

    @property
    def present(self) -> bool:
        return self.delta_prime is not None


# ---------------------------------------------------------------------------
# Finite counting over count arrays (one _Side is reused across the whole
# (q, N) search, so each bucket's count is evaluated once per decision)


class _Side:
    """One measure, split into finite data and infinite features.

    ``cum[i]`` is the finite count in buckets <= ``base + i``; every count
    below ``base`` is zero. The list grows on demand to the highest bucket
    asked for, and each bucket's count is evaluated once.
    """

    def __init__(self, m: BucketMeasure):
        self.delta = m.delta
        self.finite_explicit = {
            j: c.n for j, c in m.buckets.items() if not isinstance(c, Aleph)
        }
        self.aleph_points = m.aleph_points()
        self.aleph_rays = m.aleph_rays()
        self.aleph_ray_start = (
            min(s for s, _ in self.aleph_rays) if self.aleph_rays else None
        )
        self.finite_atoms = tuple(
            a
            for a in m.atoms
            if not (isinstance(a, ConstantRay) and isinstance(a.count, Aleph))
        )
        firsts = list(self.finite_explicit)
        firsts.extend(a.first_bucket(self.delta) for a in self.finite_atoms)
        self.base = min(firsts) - 1 if firsts else 0
        # Buckets where a feature begins; fixed per side, so found once.
        self.structural = (
            firsts + [j for j, _ in self.aleph_points] + [s for s, _ in self.aleph_rays]
        )
        # Tail facts the certificates and the probe stretch read at every widening.
        self.generator_key = sorted(map(_ray_like, self.finite_atoms))
        self.spans = [x.span for x in self.finite_atoms if isinstance(x, SeqRay)]
        self.densities = [_rule_density(x, self.delta) for x in self.finite_atoms]
        self.explicit_total = sum(self.finite_explicit.values())
        self.cum = [0]
        self._explicit_run = 0  # explicit count in buckets <= the list's top
        self._remainder: Optional[_Side] = None

    def _grow(self, h: int) -> None:
        lo = self.base + len(self.cum)
        explicit = [0] * (h - lo + 1)
        for j, c in self.finite_explicit.items():
            if lo <= j <= h:
                explicit[j - lo] = c
        total = list(accumulate(explicit, initial=self._explicit_run))[1:]
        if total:
            self._explicit_run = total[-1]
        for a in self.finite_atoms:
            total = list(map(add, total, _atom_cum_range(a, lo, h, self.delta)))
        self.cum.extend(total)

    def cum_range(self, lo: int, hi: int) -> list[int]:
        """Finite count in buckets <= h, for h in lo..hi."""
        base = self.base
        if hi - base >= len(self.cum):
            self._grow(hi)
        zeros = [0] * max(0, min(hi + 1, base) - lo)
        return zeros + self.cum[max(lo - base, 0) : max(hi - base + 1, 0)]

    def grown_count(self, lo: int, hi: int) -> Optional[int]:
        """Finite count in buckets [lo, hi], or None when the array does not
        reach hi yet; unlike ``cum_range`` it never grows the array."""
        if hi - self.base >= len(self.cum):
            return None
        below, top = self.cum_range(lo - 1, lo - 1), self.cum_range(hi, hi)
        return top[0] - below[0]

    def remainder(self) -> "_Side":
        """The explicit finite buckets alone, as a side of their own."""
        if self._remainder is None:
            self._remainder = _Side(BucketMeasure(self.delta, dict(self.finite_explicit)))
        return self._remainder

    def aleph_at_or_reaching(self, lo: int, hi: int) -> Optional[int]:
        """Highest infinite level present in buckets [lo, hi], if any."""
        best = None
        for j, lev in self.aleph_points:
            if lo <= j <= hi and (best is None or lev > best):
                best = lev
        for s, lev in self.aleph_rays:
            if s <= hi and (best is None or lev > best):
                best = lev
        return best


def _atom_cum_range(atom, lo: int, hi: int, delta: Fraction) -> list[int]:
    """Count contributed by a finite-count atom to buckets <= h, for h in lo..hi."""
    if isinstance(atom, SparseRay):
        return sparse_rule_count_range(delta, atom.start, lo, hi)
    if isinstance(atom, SeqRay):
        return atom.span.cum_range(delta, lo, hi)
    first = max(lo, atom.start)  # the first bucket with a nonzero count
    zeros = [0] * max(0, min(first, hi + 1) - lo)
    if first > hi:
        return zeros
    if isinstance(atom, ConstantRay):
        c = atom.count.n
        return zeros + list(range(c * (first - atom.start + 1), c * (hi - atom.start + 2), c))
    if isinstance(atom, GeometricRay):
        b = atom.base
        powers = accumulate(repeat(b, hi - first), mul, initial=b**first)
        below = (b**first - b**atom.start) // (b - 1)  # buckets start..first-1
        return zeros + list(accumulate(powers, initial=below))[1:]
    raise TypeError(f"unknown atom {atom!r}")


# ---------------------------------------------------------------------------
# Phase 1: infinite-bucket coverage


def _aleph_coverage(a: _Side, b: _Side, q: int, k_min: Optional[int]):
    """Check every single-bucket window of ``a`` carrying infinite dimension.

    These are necessary instances, and they settle every window that contains
    an infinite bucket of ``a``: cardinal sums absorb all finite content, and
    the highest-level position's own [j, j] window is checked here.
    """

    def in_scope(j: int) -> bool:
        return k_min is None or j >= k_min

    def covered(j: int, level: int) -> bool:
        got = b.aleph_at_or_reaching(j - q, j + q)
        return got is not None and got >= level

    for j, lev in a.aleph_points:
        if in_scope(j) and not covered(j, lev):
            return (j, 1)
    for s, lev in a.aleph_rays:
        start = s if k_min is None else max(s, k_min)
        ray_starts = [bs for bs, bl in b.aleph_rays if bl >= lev]
        if not ray_starts:
            # Only finitely many positions of b can cover; pick one beyond.
            beyond = [bj + q + 1 for bj, bl in b.aleph_points if bl >= lev]
            return (max([start] + beyond), 1)
        for j in range(start, min(ray_starts) - q):
            if not covered(j, lev):
                return (j, 1)
    return None


# ---------------------------------------------------------------------------
# Finite-segment scan


def _scan_segment(
    a: _Side, b: _Side, q: int, seg_lo: int, seg_hi: int, k_min: Optional[int]
) -> tuple[Optional[tuple[int, int]], int]:
    """Exact check of every window [k, h] inside [seg_lo, seg_hi].

    The window violates iff U(h) > V(k-1), where U(h) = Ca(h) - Cb(h+q) and
    V(m) = Ca(m) - Cb(m-q); the segment construction keeps every consulted
    range clear of infinite buckets. Returns (lexicographically first
    violation or None, min of V over [k_lo - 1, seg_hi]).
    """
    k_lo = seg_lo if k_min is None else max(seg_lo, k_min)
    if k_lo > seg_hi:
        return None, 0
    ca = a.cum_range(k_lo - 1, seg_hi)
    cb = b.cum_range(k_lo - 1 - q, seg_hi + q)
    v = list(map(sub, ca, cb))  # V(m) for m in [k_lo - 1, seg_hi]
    hit = first_window(list(map(sub, ca[1:], cb[2 * q + 1 :])), v)
    if hit is not None:
        hit = (k_lo + hit[0], hit[1])
    return hit, min(v)


# ---------------------------------------------------------------------------
# Eventual-domination bounds for single sequence-span tails
#
# _span_dom(x, y, q, delta, h_from, offset) certifies
#     y.count_ge(delta^(h+q+1)) - x.count_ge(delta^(h+1)) >= offset
# for EVERY h >= h_from, by sandwiching the exact floor counts between
# continuous envelopes whose gap is nondecreasing in h. All coefficients are
# exact rationals; count evaluations are exact integers.
#
# The bound is tried at one depth, h0 = h_from + 47 * max(4, q), the deepest
# of the depths h_from + t * max(4, q), t = 0..47. That gives the same answer
# as trying every one of them because both counts only grow with h0 and each
# family's bound_ok depends on nx (x's count at h0) alone and is
# nondecreasing in it: its slope, eps for power spans and ay - ax for
# geometric and factorial spans, is checked >= 0 before any count is made.
# A family added here must keep that property.


def _span_dom(
    x: SeqSpan, y: SeqSpan, q: int, delta: Fraction, h_from: int, offset: int
) -> bool:
    mx, my = x.model, y.model
    sx, sy = x.start, y.start
    ax, ay = x.mult, y.mult
    c0 = ay * sy - ax * sx + ax  # floor/start correction, same in every family

    def at_depth(bound_ok) -> bool:
        h0 = h_from + 47 * max(4, q)
        nx = x.count_ge(pow_delta(delta, h0 + 1)) // ax
        if nx < 1 or y.count_ge(pow_delta(delta, h0 + q + 1)) < 1:
            return False
        return bound_ok(nx)

    if isinstance(mx, PowerSeq) and isinstance(my, PowerSeq) and mx.p == my.p:
        p = mx.p
        big_r = (Fraction(my.c) / Fraction(mx.c)) * pow_delta(delta, -q)
        rho_lo = ratio_root_lower(big_r**p.denominator, p.numerator)
        eps = ay * rho_lo - ax
        if eps <= 0:
            return False

        # gap(h) >= A(h) * (ay*rho - ax) - c0 with A the continuous index
        # envelope of x and rho the constant y/x envelope ratio; A only grows.
        def ok(nx: int) -> bool:
            a_env = Fraction(nx + sx - 1)
            return a_env * eps - c0 >= offset

        return at_depth(ok)

    if isinstance(mx, GeometricSeq) and isinstance(my, GeometricSeq) and mx.r == my.r:
        if ay < ax:
            return False
        big_r = (Fraction(my.c) / Fraction(mx.c)) * pow_delta(delta, -q)
        x_lo = _floor_log(big_r, 1 / mx.r)

        # gap(h) >= (ay-ax)*Y(h) + ay*floor(log_{1/r} R) - c0 with Y the
        # continuous index envelope of x, nondecreasing in h.
        def ok(nx: int) -> bool:
            y_env = nx + sx - 1
            return (ay - ax) * y_env + ay * x_lo - c0 >= offset

        return at_depth(ok)

    if isinstance(mx, FactorialSeq) and isinstance(my, FactorialSeq):
        if ay < ax:
            return False

        # Both counts track the same n*(h) = max{n : 1/n! >= threshold}; the
        # y threshold is deeper, so y's index is at least x's.
        def ok(nx: int) -> bool:
            n_star = nx + sx - 1
            return ay * (n_star - sy + 1) - ax * (n_star - sx + 1) >= offset

        return at_depth(ok)

    return False


# ---------------------------------------------------------------------------
# Tail certificates for the unbounded region
#
# After the finite scan has cleared everything up to h_scan, a violating
# window [k, h] with h > h_scan must satisfy U(h) > V(k-1) with k-1 either
# inside the last scanned segment (whose V-minimum v_last is known) or beyond
# the scan; windows spanning a cut position are settled by infinite-
# bucket absorption. The certificates establish U(h) <= 0 for all h > h_scan
# and V(m) >= 0 for all m > h_scan, which together with v_last >= 0 rules
# every such window out.


def _ray_like(atom) -> tuple:
    if isinstance(atom, SeqRay):
        s = atom.span
        return ("seq", type(s.model).__name__, repr(s.model), s.start, s.mult)
    return (type(atom).__name__, repr(atom))


def _bounded_span_width(model: GeometricSeq, delta: Fraction) -> int:
    """Max values of a geometric sequence sharing one bucket: w + 1 for the
    least w >= 1 with r^w <= delta, that is w = ceil(log_r delta)."""
    return 1 - _floor_log(delta, 1 / model.r)


def _rule_density(atom, delta: Fraction):
    """(class, per-bucket count bound or growth base) of a tail atom."""
    if isinstance(atom, ConstantRay):
        return ("const", Fraction(atom.count.n))
    if isinstance(atom, GeometricRay):
        return ("exp", Fraction(atom.base))
    if isinstance(atom, SparseRay):
        return ("sparse", Fraction(1))
    span = atom.span
    m = span.model
    if isinstance(m, PowerSeq):
        return ("exp_root", m.p)  # per-bucket counts grow like delta^(-j/p)
    if isinstance(m, GeometricSeq):
        return ("bounded", Fraction(span.mult * _bounded_span_width(m, delta)))
    if isinstance(m, FactorialSeq):
        return ("sparse", Fraction(span.mult))
    raise TypeError(f"unknown atom {atom!r}")


def _tail_certificate(
    a: _Side,
    b: _Side,
    q: int,
    seg_lo: int,
    h_scan: int,
    k_min: Optional[int],
    v_last: int,
) -> Optional[str]:
    """None when no window with content beyond h_scan can violate domination;
    an explanatory string when no certificate applies. ``a`` has tail atoms."""
    # Identical unbounded generators cancel window-by-window (the widened
    # window contains the plain one), so only the explicit remainders must
    # dominate on their own — a finite sub-problem, scanned exhaustively.
    if a.generator_key == b.generator_key:
        ea, eb = a.remainder(), b.remainder()
        idx = [seg_lo] + ea.structural + eb.structural
        hit, _ = _scan_segment(ea, eb, q, seg_lo, max(idx) + q + 2, k_min)
        if hit is None:
            return None
        return "identical tail generators but undominated explicit remainder"
    # Single same-family sequence spans: exact envelope analytics, with the
    # explicit masses folded in as constant offsets.
    sa, sb = a.spans, b.spans
    if len(a.finite_atoms) == len(b.finite_atoms) == len(sa) == len(sb) == 1:
        off_fwd = a.explicit_total - b.explicit_total
        fwd = _span_dom(sa[0], sb[0], q, a.delta, h_scan, off_fwd)
        rev = _span_dom(sb[0], sa[0], q, a.delta, h_scan - q, -off_fwd)
        if fwd and rev and v_last >= 0:
            return None
        return (
            "no eventual-domination certificate for tail pair "
            f"{type(sa[0].model).__name__} vs {type(sb[0].model).__name__}"
        )
    # Bounded per-bucket density of a against constant densities of b: split
    # any deep window at h_scan — the scanned part is dominated, and each
    # extra bucket of a (at most cap) is paid by one extra bucket of b. A
    # growing b (a GeometricRay or a power span) gets no certificate: the pair
    # could not hold anyway, since b -> a is then never certified. The two
    # tests above are symmetric, b's growth keeps it out of this one, and an
    # infinite ray settles both directions before any certificate.
    da, db = a.densities, b.densities
    if all(k in ("const", "sparse", "bounded") for k, _ in da):
        cap = sum(v for _, v in da)
        if all(k == "const" for k, _ in db) and sum(v for _, v in db) >= cap:
            return None
        return "bounded tail density without a dominating coverage bound"
    return "unsupported tail atom combination"


def _analytic_violation(
    a: _Side, b: _Side, q: int, h_scan: int, k_min: Optional[int]
) -> Optional[tuple[int, int]]:
    """Scan a stretch past the scan horizon for a violating window, deep
    enough to show provable growth mismatches; windows start at k >= k_min."""
    if any(k in ("exp", "exp_root") for k, _ in a.densities):
        # a's per-bucket counts grow without bound; if b's stay bounded or
        # grow strictly slower, deep single buckets violate.
        depth = 4 * _SCAN_SLACK
    else:
        dens_b = sum(v for k, v in b.densities if k in ("const", "bounded"))
        depth = (2 * q + 4) * (int(dens_b) + 1) * 4 + 6 * _SCAN_SLACK
    start = h_scan + 1 if k_min is None else max(h_scan + 1, k_min)
    hit, _ = _scan_segment(a, b, q, start, start + depth - 1, k_min)
    return hit


# ---------------------------------------------------------------------------
# One direction at one widening


def _sparse_depth(a: _Side, b: _Side, q: int) -> int:
    """Scan depth at which factorial-type cluster gaps exceed the widening,
    so count-rate mismatches between sparse tails become visible windows."""
    marks = 3 * q + 64
    deep = 0
    for side in (a, b):
        for x in side.finite_atoms:
            if isinstance(x, SeqRay) and isinstance(x.span.model, FactorialSeq):
                v = term_value(x.span.model, x.span.start + marks)
                deep = max(deep, bucket_index(v, side.delta))
            elif isinstance(x, SparseRay):
                v = Fraction(1, factorial(marks))
                deep = max(deep, bucket_index(v, side.delta))
    return deep


def _check_direction(
    a: _Side, b: _Side, q: int, k_min: Optional[int]
) -> Union[None, tuple[int, int], str]:
    """None = dominated; (k, l) = violating window of a; str = unsupported."""
    hit = _aleph_coverage(a, b, q, k_min)
    if hit is not None:
        return hit

    hi_cap = None  # beyond this, windows are settled by infinite rays
    if a.aleph_ray_start is not None:
        hi_cap = a.aleph_ray_start - 1
    if b.aleph_ray_start is not None:
        c = b.aleph_ray_start - q - 1
        hi_cap = c if hi_cap is None else min(hi_cap, c)

    structural = a.structural + b.structural
    if not structural:
        return None
    lo = min(structural) - q - 2
    if k_min is not None:
        lo = max(lo, k_min)
    h_scan = max(structural) + q + 2 + _SCAN_SLACK
    if any(k == "sparse" for k, _ in a.densities + b.densities):
        h_scan = max(h_scan, _sparse_depth(a, b, q) + 2 * q + 8)
    # Ray starts are structural, so hi_cap (when set) lies below h_scan.
    top = h_scan if hi_cap is None else min(h_scan, hi_cap)

    # Segments are the runs of [lo, top] outside the cut intervals: a's
    # infinite buckets and the reach [j - q, j + q] of each of b's.
    cuts = [(j, j) for j, _ in a.aleph_points] + [(j - q, j + q) for j, _ in b.aleph_points]
    segments = []
    j = lo
    for cut_lo, cut_hi in sorted(cuts) + [(top + 1, top + 1)]:
        if j > top:
            break
        if cut_lo > j:
            segments.append((j, min(cut_lo - 1, top)))
        j = max(j, cut_hi + 1)
    v_last = 0
    for seg_lo, seg_hi in segments:
        got, v_min = _scan_segment(a, b, q, seg_lo, seg_hi, k_min)
        if got is not None:
            return got
        v_last = v_min

    if hi_cap is not None:
        return None
    if not a.finite_atoms:
        return None
    last_lo = segments[-1][0] if segments else lo
    cert = _tail_certificate(a, b, q, last_lo, h_scan, k_min, v_last)
    if cert is None:
        return None
    found = _analytic_violation(a, b, q, h_scan, k_min)
    if found is not None:
        return found
    return cert


# ---------------------------------------------------------------------------
# Span alignment preprocessing


def _align_seq_rays(a: BucketMeasure, b: BucketMeasure):
    """Equalize start indices of equal-parameter sequence atoms by moving the
    earlier side's leading terms into explicit buckets (exact values only)."""

    def split(m: BucketMeasure):
        seqs = [x for x in m.atoms if isinstance(x, SeqRay)]
        rest = [x for x in m.atoms if not isinstance(x, SeqRay)]
        return seqs, rest

    sa, ra = split(a)
    sb, rb = split(b)
    if len(sa) != 1 or len(sb) != 1:
        return a, b
    pa, pb = sa[0].span, sb[0].span
    if pa.model != pb.model or pa.mult != pb.mult or pa.start == pb.start:
        return a, b

    def advance(m: BucketMeasure, span: SeqSpan, to_start: int, rest) -> BucketMeasure:
        buckets = dict(m.buckets)
        for idx in range(span.start, to_start):
            v = term_value(span.model, idx)
            if v is None:
                return m  # irrational leading values: leave unaligned
            jj = bucket_index(v, m.delta)
            buckets[jj] = card_add(buckets.get(jj, ZERO), Finite(span.mult))
        atoms = tuple(rest) + (SeqRay(SeqSpan(span.model, to_start, span.mult)),)
        return BucketMeasure(m.delta, buckets, atoms, m.kernel_dim, m.cokernel_dim)

    if pa.start < pb.start:
        return advance(a, pa, pb.start, ra), b
    return a, advance(b, pb, pa.start, rb)


# ---------------------------------------------------------------------------
# Public checks


def _check_both(sa: _Side, sb: _Side, q: int, k_min: Optional[int]) -> ConditionOutcome:
    """Both directions at widening q; a located violation outranks unsupported."""
    left = _check_direction(sa, sb, q, k_min)
    if isinstance(left, tuple):  # it outranks whatever the right side finds
        return ConditionOutcome(q_used=q, violation=WindowViolation("left", *left))
    right = _check_direction(sb, sa, q, k_min)
    if isinstance(right, tuple):
        return ConditionOutcome(q_used=q, violation=WindowViolation("right", *right))
    for res in (left, right):
        if isinstance(res, str):
            return ConditionOutcome(q_used=q, unsupported=res)
    return ConditionOutcome(delta_prime=pow_delta(sa.delta, q), q_used=q)


def _prepare(a: BucketMeasure, b: BucketMeasure) -> tuple[_Side, _Side]:
    if a.delta != b.delta:
        raise DeltaMismatchError(f"measures use different bases {a.delta} and {b.delta}")
    a, b = _align_seq_rays(a, b)
    return _Side(a), _Side(b)


# The search takes certification to be monotone in q (widening only adds
# content to b's windows): when q_max is not certified, no smaller q is, and
# the refusal carries q_max's note. Presence is monotone in N as well (larger
# N sees fewer windows). The q search gallops from the covering floor below,
# the N search from 1 (tails.least_true).


def _covering_floor(sa: _Side, sb: _Side, q_max: int, k_min: Optional[int]) -> int:
    """A widening f >= 0 such that no q <= f certifies, once q_max has.

    Each explicit finite bucket j (j >= k_min) makes [j, j] a window of its
    side, which the other side's [j - q, j + q] must cover: by an infinite
    bucket in reach, or by at least as many finite values. The least such q
    is bucket j's covering radius r_j, and the floor is max(r_j) - 1. Reads
    only counts the q_max check has grown; a count it has not grown covers.
    """
    best = 1  # the largest radius so far
    for x, y in ((sa, sb), (sb, sa)):
        for j in x.finite_explicit:
            if k_min is not None and j < k_min:
                continue
            need = x.grown_count(j, j)
            if need is None:
                continue

            def covered(q: int) -> bool:
                if y.aleph_at_or_reaching(j - q, j + q) is not None:
                    return True
                got = y.grown_count(j - q, j + q)
                return got is None or got >= need

            if not covered(best):
                best = least_true(covered, best, q_max)
    return best - 1


def _search(
    a: BucketMeasure, b: BucketMeasure, q_max: int, n_max: Optional[int]
) -> ConditionOutcome:
    """The least certified q, then (in the cutoff form, n_max set) the least
    N at that q."""
    sa, sb = _prepare(a, b)
    # A violation at the loosest widening certifies failure for every q.
    worst = _check_both(sa, sb, q_max, n_max)
    if worst.violation is not None:
        return replace(worst, n_cutoff=n_max)
    if worst.unsupported is not None:
        raise UnsupportedTailError(worst.unsupported)
    floor = _covering_floor(sa, sb, q_max, n_max)
    q = least_true(lambda q: _check_both(sa, sb, q, n_max).present, floor, q_max)
    n = None
    if n_max is not None:
        n = least_true(lambda n: _check_both(sa, sb, q, n).present, 0, n_max)
    return ConditionOutcome(delta_prime=pow_delta(sa.delta, q), n_cutoff=n, q_used=q)


def condition_s_outcome(
    a: BucketMeasure, b: BucketMeasure, q_max: int = 64
) -> ConditionOutcome:
    """Full outcome of the strong window condition (all k), searching q."""
    return _search(a, b, q_max, None)


def check_condition_S(
    a: BucketMeasure, b: BucketMeasure, q_max: int = 64
) -> Optional[Fraction]:
    """delta' = delta^q for the least certified widening q, or None."""
    return condition_s_outcome(a, b, q_max).delta_prime


def condition_s_tilde_outcome(
    a: BucketMeasure,
    b: BucketMeasure,
    q_max: int = 64,
    n_max: int = 64,
) -> ConditionOutcome:
    """Outcome of the cutoff window condition (k >= N), searching (q, N)."""
    return _search(a, b, q_max, n_max)


def check_condition_S_tilde(
    a: BucketMeasure, b: BucketMeasure, q_max: int = 64, n_max: int = 64
) -> Optional[tuple[Fraction, int]]:
    """(delta', N) for the least certified (q, N), or None."""
    out = condition_s_tilde_outcome(a, b, q_max, n_max)
    if not out.present:
        return None
    return (out.delta_prime, out.n_cutoff)


def lemma_s_tilde_consistency(
    a: BucketMeasure,
    b: BucketMeasure,
    dims: tuple,
    q_max: int = 64,
    n_max: int = 64,
) -> bool:
    """Cutoff condition on (a, b) agrees with the strong condition on the
    identity-augmented pair (a + I_dimY, b + I_dimX)."""
    dim_x, dim_y = dims
    tilde = check_condition_S_tilde(a, b, q_max, n_max) is not None
    aug_a = merge_measures(a, identity_measure(a.delta, dim_y))
    aug_b = merge_measures(b, identity_measure(b.delta, dim_x))
    strong = check_condition_S(aug_a, aug_b, q_max) is not None
    return tilde == strong
