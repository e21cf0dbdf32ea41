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
count arrays, unbounded tails by one closed-form certificate on the symbolic
tail atoms (_tail_certificate). It gives the depth from which it holds (a's
tail generators among b's, one same-family span on each side, or a's bounded
per-bucket density against b's constant rays), the bound the scan's
V-minimum must reach there, if any, and the note a failed bound answers; or
a note alone when no certificate can apply. Covered generators whose count
per bucket never falls need no bound: past the depth U only falls, so the
scan to it decides alone. One probe decides whether a widening certifies,
scanning only up to that depth, often the last explicit bucket plus the
widening, or not at all after a note alone.

The search for the least widening first reads the single-bucket covering
floor, below which no widening certifies, and probes the widening just
above it (at N = 1 in the cutoff form): a holding pair is mostly decided
by that one probe. Only when it refuses does the q_max check run, and then
the galloping searches over q and N. A refusal at q_max is only located:
it reports the first window up to a fixed horizon, or the probe's own
window where that comes first; after a note it is scanned past the horizon
for a re-checkable window, raising UnsupportedTailError, rather than
guessing, when none turns up.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, repeat
from math import inf
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
    ROOT_SCALE,
    FactorialSeq,
    GeometricSeq,
    PowerSeq,
    SeqSpan,
    _floor_log,
    bucket_index,
    factorial,
    floor_log_ratio,
    least_true,
    pow_delta,
    root_bracket,
    sparse_rule_count_range,
    term_value,
)

# Buckets _locate scans past h_from (the last structural feature
# plus the widening), so that a refusal reports the first window up to there;
# the deepest rung of the span bounds and a factorial span's density depth are
# set from that horizon. Probes scan only to their certificate's depth.
_SCAN_SLACK = 160


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


class _SpanCounts:
    """Unit-multiplicity counts of the terms of one (model, start) span:
    ``cum[i]`` is the number in buckets <= ``first + i``, where ``first`` is
    the first term's bucket. The list grows on demand, once per bucket."""

    __slots__ = ("unit", "delta", "first", "cum")

    def __init__(self, unit: SeqSpan, delta: Fraction, first: int):
        self.unit, self.delta, self.first = unit, delta, first
        self.cum: list[int] = []

    def cum_range(self, lo: int, hi: int) -> list[int]:
        """Unit count in buckets <= h, for h in lo..hi."""
        first, cum = self.first, self.cum
        top = first + len(cum)  # the first bucket not counted yet
        if hi >= top:
            cum.extend(self.unit.cum_range(self.delta, top, hi))
        zeros = [0] * max(0, min(hi + 1, first) - lo)
        return zeros + cum[max(lo - first, 0) : max(hi - first + 1, 0)]

    def counted(self, h: int) -> Optional[int]:
        """Unit count in buckets <= h, or None when the list does not reach h."""
        i = h - self.first
        if i < 0:
            return 0
        return self.cum[i] if i < len(self.cum) else None


class _Tails:
    """Tail facts the two sides of one decision share: one _SpanCounts per
    (model, start), so a span repeated on one side or present on both is
    counted once per bucket, each span pair's (fwd, rev) depths by
    widening and offset, and the sparse scan depth by widening, which the N
    search and repeated probes read again."""

    def __init__(self, delta: Fraction):
        self.delta = delta
        self.spans: dict[tuple, _SpanCounts] = {}
        self.depths: dict[tuple, tuple[Optional[int], Optional[int]]] = {}
        self.sparse_depths: dict[int, int] = {}

    def counts(self, ray: SeqRay) -> _SpanCounts:
        """The counts of a sequence atom's span, made on first use."""
        span = ray.span
        key = (span.model, span.start)
        got = self.spans.get(key)
        if got is None:
            unit = SeqSpan(span.model, span.start)
            got = self.spans[key] = _SpanCounts(unit, self.delta, ray.first_bucket(self.delta))
        return got


class _Side:
    """One measure, split into finite data and infinite features.

    The measure's recorded facts are taken as they are: its finite explicit
    counts (``finite_explicit``, read-only), their total, and its infinite
    buckets and rays. Past them, the side keeps the extremes the direction
    checks read at every widening: the last finite explicit bucket, the last
    infinite bucket, and the first and last structural bucket (None when
    there is none).

    ``cum[i]`` is the finite count in buckets <= ``base + i``; every count
    below ``base`` is zero. The list grows on demand to the highest bucket
    asked for, and each bucket's count is evaluated once. Sequence spans are
    counted in ``tails``, which the other side of the decision shares.
    """

    def __init__(self, m: BucketMeasure, tails: Optional[_Tails] = None):
        self.delta = delta = m.delta
        self.tails = tails = _Tails(delta) if tails is None else tails
        self.finite_explicit = explicit = m._finite
        self.explicit_total = m._finite_total
        self.aleph_points = m._aleph_points
        self.aleph_rays = m._aleph_rays
        self.aleph_ray_start = self.aleph_rays[0][0] if self.aleph_rays else None
        self.finite_atoms = tuple(
            a for a in m.atoms if not (isinstance(a, ConstantRay) and isinstance(a.count, Aleph))
        )
        # (atom, its span's shared counts, or None for other atoms)
        self.atom_counts = [
            (a, tails.counts(a) if isinstance(a, SeqRay) else None) for a in self.finite_atoms
        ]
        firsts = list(explicit)
        firsts.extend(a.first_bucket(delta) if c is None else c.first for a, c in self.atom_counts)
        self.base = min(firsts) - 1 if firsts else 0
        # Buckets where a feature begins; fixed per side, so found once.
        self.structural = (
            firsts + [j for j, _ in self.aleph_points] + [s for s, _ in self.aleph_rays]
        )
        self.first_structural = min(self.structural, default=None)
        self.last_structural = max(self.structural, default=None)
        self.last_explicit = max(explicit, default=None)
        self.last_aleph = self.aleph_points[-1][0] if self.aleph_points else None
        # Tail facts the certificates read at every widening, the stretch at q_max.
        self.generator_key = sorted(map(_ray_like, self.finite_atoms))
        self.spans = [x.span for x in self.finite_atoms if isinstance(x, SeqRay)]
        self.densities = [_rule_density(x, delta) for x in self.finite_atoms]
        self.cum = [0]
        self._explicit_run = 0  # explicit count in buckets <= the list's top

    def _grow(self, h: int) -> None:
        lo = self.base + len(self.cum)
        explicit = [0] * (h - lo + 1)
        for j, c in self.finite_explicit.items():
            if lo <= j <= h:
                explicit[j - lo] = c
        total = list(accumulate(explicit, initial=self._explicit_run))[1:]
        if total:
            self._explicit_run = total[-1]
        for a, c in self.atom_counts:
            if c is None:
                counts = _atom_cum_range(a, lo, h, self.delta)
            else:
                counts = c.cum_range(lo, h)
                if a.span.mult > 1:
                    counts = [a.span.mult * n for n in counts]
            total = list(map(add, total, counts))
        self.cum.extend(total)

    def cum_range(self, lo: int, hi: int) -> list[int]:
        """Finite count in buckets <= h, for h in lo..hi."""
        base = self.base
        if hi - base >= len(self.cum):
            self._grow(hi)
        zeros = [0] * max(0, min(hi + 1, base) - lo)
        return zeros + self.cum[max(lo - base, 0) : max(hi - base + 1, 0)]

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
    for j, lev in a.aleph_points:
        if (k_min is None or j >= k_min) and not _aleph_covered(b, j, q, lev):
            return (j, 1)
    for s, lev in a.aleph_rays:
        start = s if k_min is None else max(s, k_min)
        ray_starts = [bs for bs, bl in b.aleph_rays if bl >= lev]
        if not ray_starts:
            # Only finitely many positions of b can cover; pick one beyond.
            beyond = [bj + q + 1 for bj, bl in b.aleph_points if bl >= lev]
            return (max([start] + beyond), 1)
        for j in range(start, min(ray_starts) - q):
            if not _aleph_covered(b, j, q, lev):
                return (j, 1)
    return None


def _aleph_covered(b: _Side, j: int, q: int, level: int) -> bool:
    """Whether b has an infinite bucket of at least ``level`` in reach of j."""
    got = b.aleph_at_or_reaching(j - q, j + q)
    return got is not None and got >= level


# ---------------------------------------------------------------------------
# Finite-segment scan


def _scan_segment(
    a: _Side, b: _Side, q: int, seg_lo: int, seg_hi: int, k_min: Optional[int]
) -> tuple[Optional[tuple[int, int]], int]:
    """Exact check of every window [k, h] inside [seg_lo, seg_hi].

    The window violates iff U(h) > V(k-1), where U(h) = Ca(h) - Cb(h+q) and
    V(m) = Ca(m) - Cb(m-q); the segment construction keeps every consulted
    range clear of infinite buckets. Returns (lexicographically first
    violation or None, min of V over [k_lo - 1, seg_hi]); when a violation
    at k_lo ends a long segment's scan early, the second value is
    V(k_lo - 1) alone.
    """
    k_lo = seg_lo if k_min is None else max(seg_lo, k_min)
    if k_lo > seg_hi:
        return None, 0
    # The counts are read over prefixes that double each time, and the
    # windows that start at k_lo are tried on each but the last, which the
    # full scan covers: one that fails is the lexicographically first
    # window, found before the counts grow out to seg_hi. A short segment,
    # or one already counted to its end, is read as one prefix.
    top, width = k_lo - 1, 2 * q + 16
    grown = seg_hi - a.base < len(a.cum) and seg_hi + q - b.base < len(b.cum)
    if grown or seg_hi - top <= 2 * width:
        width = seg_hi - top
    lo, u, v = top, [], []  # the first prefix also reads V(k_lo - 1)
    while top < seg_hi:
        end = min(top + width, seg_hi)
        ca = a.cum_range(lo, end)
        cb = b.cum_range(lo - q, end + q)
        v += map(sub, ca, cb)  # V(m) for m in [lo, end]
        i = top + 1 - lo
        part = list(map(sub, ca[i:], cb[i + 2 * q :]))  # U(h) for h in [top + 1, end]
        got = first_window(part, v[:1]) if end < seg_hi else None
        if got is not None:
            return (k_lo, len(u) + got[1]), v[0]
        u += part
        lo, top, width = end + 1, end, 2 * width
    hit = first_window(u, v)
    if hit is not None:
        hit = (k_lo + hit[0], hit[1])
    return hit, min(v)


# ---------------------------------------------------------------------------
# Eventual-domination bounds for single sequence-span tails
#
# _span_depth(x, y, q, delta, h_lo, h_top, offset), for h_lo <= h_top, returns
# the least depth h0 in [h_lo, h_top] whose envelope bound certifies
#     y.count_ge(delta^(h+q+1)) - x.count_ge(delta^(h+1)) >= offset
# for EVERY h >= h0, by sandwiching the exact floor counts between continuous
# envelopes whose gap is nondecreasing in h. All coefficients and count
# evaluations are exact integers.
#
# The bound is monotone in h0, so after h_lo and h_top one galloping search
# between them finds that depth, with at most one count per depth tried:
# both counts only grow with h0 (y's is positive once h0 + q reaches its
# first bucket), and each family's bound_ok depends on nx (x's count at h0)
# alone and is nondecreasing in it: its slope, eps for power spans and
# ay - ax for geometric and factorial spans, is checked >= 0 before any count
# is made. A family added here must keep that property. Given x's and y's
# shared counts, x's count is read from its array wherever that already
# reaches h0, and y's first bucket from them.
#
# _span_dom(a, b, q, h_from) searches each direction of a span pair between
# h_from and the deepest rung, 47 * max(4, q) past the scan horizon; the
# certificate holds from the deeper of the two depths, wherever it lies, and
# the scan runs to it, so no depth below the first that holds is taken on
# trust.


def _span_depth(
    x: SeqSpan,
    y: SeqSpan,
    q: int,
    delta: Fraction,
    h_lo: int,
    h_top: int,
    offset: int,
    counts: Optional[tuple[_SpanCounts, _SpanCounts]] = None,
) -> Optional[int]:
    mx, my = x.model, y.model
    sx, sy = x.start, y.start
    ax, ay = x.mult, y.mult
    c0 = ay * sy - ax * sx + ax  # floor/start correction, same in every family

    def least_depth(bound_ok) -> Optional[int]:
        if counts is None:
            x_counts, y_first = None, y.first_bucket(delta)
        else:
            x_counts, y_first = counts[0], counts[1].first

        def holds(h0: int) -> bool:
            if h0 + q < y_first:  # y has no value >= delta^(h0+q+1) yet
                return False
            nx = None if x_counts is None else x_counts.counted(h0)
            if nx is None:
                nx = x.count_ge(pow_delta(delta, h0 + 1)) // ax
            return nx >= 1 and bound_ok(nx)

        if holds(h_lo):
            return h_lo
        return least_true(holds, h_lo, h_top) if holds(h_top) else None

    def big_r() -> tuple[int, int]:
        """(cy / cx) * delta^(-q), the y/x ratio of the envelopes' scales,
        as an integer ratio (q >= 0)."""
        return (
            my.c.numerator * mx.c.denominator * delta.denominator**q,
            my.c.denominator * mx.c.numerator * delta.numerator**q,
        )

    if isinstance(mx, PowerSeq) and isinstance(my, PowerSeq) and mx.p == my.p:
        a, b = mx.p.numerator, mx.p.denominator
        rn, rd = big_r()
        # rho = rho_n / rho_d <= big_r^(b/a), exact when a = 1.
        if a == 1:
            rho_n, rho_d = rn**b, rd**b
        else:
            rho_n, rho_d = root_bracket(rn**b, rd**b, a)[0], ROOT_SCALE
        eps = ay * rho_n - ax * rho_d  # (ay*rho - ax) * rho_d
        if eps <= 0:
            return None
        need = (offset + c0) * rho_d

        # gap(h) >= A(h) * (ay*rho - ax) - c0 with A the continuous index
        # envelope of x and rho the constant y/x envelope ratio; A only grows.
        def ok(nx: int) -> bool:
            return (nx + sx - 1) * eps >= need

        return least_depth(ok)

    if isinstance(mx, GeometricSeq) and isinstance(my, GeometricSeq) and mx.r == my.r:
        if ay < ax:
            return None
        x_lo = floor_log_ratio(*big_r(), mx.r.denominator, mx.r.numerator)  # log_{1/r} big_r

        # gap(h) >= (ay-ax)*Y(h) + ay*floor(log_{1/r} R) - c0 with Y the
        # continuous index envelope of x, nondecreasing in h.
        def ok(nx: int) -> bool:
            y_env = nx + sx - 1
            return (ay - ax) * y_env + ay * x_lo - c0 >= offset

        return least_depth(ok)

    if isinstance(mx, FactorialSeq) and isinstance(my, FactorialSeq):
        if ay < ax:
            return None

        # Both counts track the same n*(h) = max{n : 1/n! >= threshold}; the
        # y threshold is deeper, so y's index is at least x's.
        def ok(nx: int) -> bool:
            n_star = nx + sx - 1
            return ay * (n_star - sy + 1) - ax * (n_star - sx + 1) >= offset

        return least_depth(ok)

    return None


def _span_dom(a: _Side, b: _Side, q: int, h_from: int) -> tuple[Optional[int], Optional[int]]:
    """(fwd, rev) for the single spans of a and b, with the explicit masses
    folded in as offsets: U(h) <= 0 for h >= fwd, and V(m) >= 0 for
    m - q >= rev; rev is None when either bound fails at its deepest rung.
    h_from and q fix the rungs, so the answer is kept for the probes that
    ask again."""
    off = a.explicit_total - b.explicit_total
    x, y = a.spans[0], b.spans[0]
    (_, cx), (_, cy) = a.atom_counts[0], b.atom_counts[0]
    key = (cx, x.mult, cy, y.mult, q, off, h_from)
    depths = a.tails.depths.get(key)
    if depths is None:
        h_top = _horizon(a, b, q) + 47 * max(4, q)
        fwd = _span_depth(x, y, q, a.delta, h_from, h_top, off, (cx, cy))
        rev = None
        if fwd is not None:
            rev = _span_depth(y, x, q, a.delta, h_from - q, h_top - q, -off, (cy, cx))
        depths = a.tails.depths[key] = (fwd, rev)
    return depths


# ---------------------------------------------------------------------------
# The tail certificate for the unbounded region
#
# After the finite scan has cleared every window up to a depth, a violating
# window [k, h] with h past it must satisfy U(h) > V(k-1) with k-1 either
# inside the last scanned segment (whose V-minimum v_last, read up to the
# depth, is known) or past the depth; windows spanning a cut position are
# settled by infinite-bucket absorption. _tail_certificate gives the depth
# and a bound D with U(h) <= D and V(m) >= D for all h, m past it, which
# together with v_last >= D rules every such window out; D is None when no
# window reaching past the depth can fail once those up to it are dominated.


def _ray_like(atom) -> tuple:
    """A sortable key that two finite tail atoms share exactly when equal."""
    if isinstance(atom, SeqRay):
        s = atom.span
        return ("seq", type(s.model).__name__, repr(s.model), s.start, s.mult)
    if isinstance(atom, ConstantRay):
        return ("const", atom.start, atom.count.n)
    if isinstance(atom, GeometricRay):
        return ("geometric", atom.start, atom.base)
    return ("sparse", atom.start)  # a SparseRay


def _bounded_span_width(model: GeometricSeq, delta: Fraction) -> int:
    """Max values of a geometric sequence sharing one bucket: w + 1 for the
    least w >= 1 with r^w <= delta, that is w = ceil(log_r delta)."""
    return 1 - _floor_log(delta, 1 / model.r)


def _rule_density(atom, delta: Fraction):
    """(class, per-bucket count bound or growth base) of a tail atom: an
    integer, except a power span's exponent."""
    if isinstance(atom, ConstantRay):
        return ("const", atom.count.n)
    if isinstance(atom, GeometricRay):
        return ("exp", atom.base)
    if isinstance(atom, SparseRay):
        return ("sparse", 1)
    span = atom.span
    m = span.model
    if isinstance(m, PowerSeq):
        return ("exp_root", m.p)  # per-bucket counts grow like delta^(-j/p)
    if isinstance(m, GeometricSeq):
        return ("bounded", span.mult * _bounded_span_width(m, delta))
    if isinstance(m, FactorialSeq):
        return ("sparse", span.mult)
    raise TypeError(f"unknown atom {atom!r}")


def _tail_certificate(
    a: _Side, b: _Side, q: int, h_from: int
) -> Union[str, tuple[int, Optional[int], Optional[str]]]:
    """(depth, D, note) for one direction, or a note alone when no
    certificate can apply, whatever the scan finds: the span pair's bound
    fails even at its deepest rung, or b does not cover a's density. The
    direction answers ``note`` when the scan's V-minimum up to the depth
    falls below D. The depth is at most h_from, behind which every explicit
    bucket and every ray start lies, except for a span pair, whose depth may
    lie past the scan horizon, and a factorial span's density depth, the
    horizon."""
    if a.aleph_ray_start is not None or b.aleph_ray_start is not None:
        # An infinite ray settles every window past its reach.
        return h_from, None, None
    if _covers(a, b):
        # Covered generators: a = Ea + G and b = Eb + G + X, X being b's
        # tail atoms beyond a's. Past the depth the explicit buckets are all
        # counted, so with D = |Ea| - |Eb|, a against b' = Eb + G has
        # U(h) = D - G(h+1..h+q) <= D and V(m) = D + G(m-q+1..m) >= D, and X
        # only widens b's windows: no window that starts past the depth
        # fails. Where G's count per bucket never falls (constant rays and
        # GeometricRays, or no atom at all), U(h) = D - G(h+1..h+q) - X(..h+q)
        # only falls past the depth, so a window [k, h] with k <= depth < h
        # fails only if [k, depth] does, and the scan to the depth decides.
        # Otherwise the scan's V-minimum up to the depth must reach D.
        depth = _shared_depth(a, b, q, h_from)
        if all(k in ("const", "exp") for k, _ in a.densities):
            return depth, None, None
        note = "identical tail generators but undominated explicit remainder"
        if a.generator_key != b.generator_key:
            note = _density_note(a, b)  # never None: b carries a's span or SparseRay
        return depth, a.explicit_total - b.explicit_total, note
    if len(a.finite_atoms) == len(b.finite_atoms) == len(a.spans) == len(b.spans) == 1:
        # Single same-family sequence spans: exact envelope analytics, with
        # the explicit masses folded in as constant offsets.
        fwd, rev = _span_dom(a, b, q, h_from)
        x, y = (type(side.spans[0].model).__name__ for side in (a, b))
        note = f"no eventual-domination certificate for tail pair {x} vs {y}"
        return note if rev is None else (max(fwd, rev + q) + 1, 0, note)
    note = _density_note(a, b)
    if note is None:
        # A factorial span's bound of mult per bucket only holds deep: while
        # consecutive factorials differ by less than 1/delta they share
        # buckets (at delta 1/100 up to about bucket 78), so such spans take
        # the horizon. The others' bound holds from their first bucket on (a
        # SparseRay's rule indices are distinct, so it never holds more than
        # one value in a bucket), so past h_from each bucket of a is paid by
        # one of b's.
        if any(isinstance(x.model, FactorialSeq) for x in a.spans):
            return _horizon(a, b, q), None, None
        return h_from, None, None
    return note


def _density_note(a: _Side, b: _Side) -> Optional[str]:
    """None when the bounded-density certificate applies; otherwise why it
    does not.

    Bounded per-bucket density of a against constant densities of b: split
    any deep window at the certificate's depth, past which a's bound holds
    and b's rays have all started — the scanned part is dominated, and each
    extra bucket of a (at most cap) is paid by one extra bucket of b. A
    growing b (a GeometricRay or a power span) gets no certificate: the pair
    could not hold anyway, since b -> a is then never certified. The span
    certificate is symmetric, b's growth keeps it out of this one, and an
    infinite ray settles both directions before any certificate. Covered
    generators take their own certificate first; it asks for this note only
    where a holds a span or a SparseRay, which b then carries too, so the
    note is never None there."""
    da, db = a.densities, b.densities
    if all(k in ("const", "sparse", "bounded") for k, _ in da):
        cap = sum(v for _, v in da)
        if all(k == "const" for k, _ in db) and sum(v for _, v in db) >= cap:
            return None
        return "bounded tail density without a dominating coverage bound"
    return "unsupported tail atom combination"


def _covers(a: _Side, b: _Side) -> bool:
    """Whether a's finite tail atoms, as a multiset of _ray_like keys, are
    contained in b's."""
    rest = list(b.generator_key)
    for key in a.generator_key:
        if key not in rest:
            return False
        rest.remove(key)
    return True


def _shared_depth(a: _Side, b: _Side, q: int, h_from: int) -> int:
    """The depth from which covered generators certify (see
    _tail_certificate): U(h) <= |Ea| - Eb(h+q) = D once h + q reaches b's
    last explicit bucket, and V(m) >= Ea(m) - |Eb| = D once m reaches a's,
    for a against b'. The depth also lies past each infinite bucket's cut,
    a's [j, j] or b's [j - q, j + q], so the scan's last segment starts past
    every cut and ends at the depth: a window that reaches past the depth
    starts in it, where its V-minimum is read, and where U only falls past
    the depth, the window fails only if its part up to the depth, which the
    scan checks, does. At most h_from."""
    ends = [j + q + 1 for j in (a.last_aleph, b.last_aleph) if j is not None]
    if a.last_explicit is not None:
        ends.append(a.last_explicit)
    if b.last_explicit is not None:
        ends.append(b.last_explicit - q)
    return min(h_from, max(ends, default=h_from))


def _analytic_violation(
    a: _Side, b: _Side, q: int, k_min: Optional[int]
) -> Optional[tuple[int, int]]:
    """Scan a stretch past the scan horizon for a violating window, deep
    enough to show provable growth mismatches; windows start at k >= k_min.
    Only the q_max check runs it, on a direction without a certificate."""
    h_scan = _horizon(a, b, q)
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
    so count-rate mismatches between sparse tails become visible windows.
    It is the same for both directions, so the decision's store keeps it."""
    deep = a.tails.sparse_depths.get(q)
    if deep is not None:
        return deep
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
    a.tails.sparse_depths[q] = deep
    return deep


def _structural_horizon(a: _Side, b: _Side, q: int) -> int:
    """h_from: past it, and q buckets below it, every explicit bucket and every
    feature's first bucket lies behind."""
    tops = [j for j in (a.last_structural, b.last_structural) if j is not None]
    return max(tops, default=0) + q + 2


def _horizon(a: _Side, b: _Side, q: int) -> int:
    """The last bucket _locate's segment scans reach; past it the certificates
    rule. It runs _SCAN_SLACK buckets past h_from, or to where sparse tails'
    cluster gaps exceed the widening."""
    h_scan = _structural_horizon(a, b, q) + _SCAN_SLACK
    if any(k == "sparse" for k, _ in a.densities + b.densities):
        h_scan = max(h_scan, _sparse_depth(a, b, q) + 2 * q + 8)
    return h_scan


def _scan_to(
    a: _Side, b: _Side, q: int, k_min: Optional[int], h_end: int
) -> tuple[Optional[tuple[int, int]], int]:
    """(lexicographically first violating window of a, last segment's
    V-minimum) over the windows not settled by infinite buckets that end at
    or below h_end."""
    hit = _aleph_coverage(a, b, q, k_min)
    if hit is not None:
        return hit, 0

    hi_cap = None  # beyond this, windows are settled by infinite rays
    if a.aleph_ray_start is not None:
        hi_cap = a.aleph_ray_start - 1
    if b.aleph_ray_start is not None:
        c = b.aleph_ray_start - q - 1
        hi_cap = c if hi_cap is None else min(hi_cap, c)

    firsts = [j for j in (a.first_structural, b.first_structural) if j is not None]
    if not firsts:
        return None, 0
    lo = min(firsts) - q - 2
    if k_min is not None:
        lo = max(lo, k_min)
    # Ray starts are structural, so hi_cap (when set) lies below h_from.
    top = h_end if hi_cap is None else min(h_end, hi_cap)

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
    # a holds nothing at or below its base, so no window there fails; only
    # the last segment's V-minimum is read.
    v_last = 0
    for seg_lo, seg_hi in [s for s in segments[:-1] if s[1] > a.base] + segments[-1:]:
        got, v_last = _scan_segment(a, b, q, seg_lo, seg_hi, k_min)
        if got is not None:
            return got, 0
    return None, v_last


def _check_direction(
    a: _Side, b: _Side, q: int, k_min: Optional[int]
) -> Union[None, tuple[int, int], str]:
    """None = every window of a is dominated at widening q; (k, l) = a
    violating window of a; str = a note: the certificate's note alone, or
    the one its failed bound answers. The scan runs only up to the
    certificate's depth, and not at all after a note alone."""
    cert = _tail_certificate(a, b, q, _structural_horizon(a, b, q))
    if isinstance(cert, str):
        return cert
    depth, bound, note = cert
    hit, v_last = _scan_to(a, b, q, k_min, depth)
    if hit is not None:
        return hit
    if bound is None or (k_min is not None and k_min > depth) or v_last >= bound:
        return None
    return note


def _locate(
    a: _Side, b: _Side, q: int, k_min: Optional[int], got: Union[tuple[int, int], str]
) -> Union[tuple[int, int], str]:
    """What a refusal reports, given the probe's refusal ``got``: the first
    window up to the horizon, or ``got`` when it is a window that comes
    first (a span depth can lie past the horizon), else got's note. The
    windows that end at or below a depth are those a scan to it sees, so
    this is the first window of one scan to the deeper of the two."""
    hit = _scan_to(a, b, q, k_min, _horizon(a, b, q))[0]
    return min([w for w in (hit, got) if isinstance(w, tuple)], default=got)


# ---------------------------------------------------------------------------
# Span alignment preprocessing


def _align_seq_rays(a: BucketMeasure, b: BucketMeasure):
    """Equalize start indices of equal-parameter sequence atoms by moving the
    earlier side's leading terms into explicit buckets (exact values only)."""

    sa = [x for x in a.atoms if isinstance(x, SeqRay)]
    sb = [x for x in b.atoms if isinstance(x, SeqRay)]
    if len(sa) != 1 or len(sb) != 1:
        return a, b
    pa, pb = sa[0].span, sb[0].span
    if pa.model != pb.model or pa.mult != pb.mult or pa.start == pb.start:
        return a, b

    def advance(m: BucketMeasure, span: SeqSpan, to_start: int) -> BucketMeasure:
        buckets = dict(m.buckets)
        for idx in range(span.start, to_start):
            v = term_value(span.model, idx)
            if v is None:
                return m  # irrational leading values: leave unaligned
            jj = bucket_index(v, m.delta)
            buckets[jj] = card_add(buckets.get(jj, ZERO), Finite(span.mult))
        rest = tuple(x for x in m.atoms if not isinstance(x, SeqRay))
        atoms = rest + (SeqRay(SeqSpan(span.model, to_start, span.mult)),)
        return BucketMeasure(m.delta, buckets, atoms, m.kernel_dim, m.cokernel_dim)

    if pa.start < pb.start:
        return advance(a, pa, pb.start), b
    return a, advance(b, pb, pa.start)


# ---------------------------------------------------------------------------
# Public checks


def _check_both(sa: _Side, sb: _Side, q: int, k_min: Optional[int]):
    """Both directions at widening q, left first, as (side, a, b, what
    _check_direction answers); lazy, so a reader stops where it likes."""
    yield "left", sa, sb, _check_direction(sa, sb, q, k_min)
    yield "right", sb, sa, _check_direction(sb, sa, q, k_min)


def _certified(sa: _Side, sb: _Side, q: int, k_min: Optional[int]) -> bool:
    """Whether widening q certifies; stops at the first direction that does not."""
    return all(got is None for *_, got in _check_both(sa, sb, q, k_min))


def _outcome_at(sa: _Side, sb: _Side, q: int, k_min: Optional[int]) -> ConditionOutcome:
    """The full outcome at widening q. A direction the probe does not certify
    is located (_locate), and after a note a stretch past the horizon is
    scanned; the first window found wins, else the first note."""
    notes = []
    for side, a, b, got in _check_both(sa, sb, q, k_min):
        if got is None:
            continue
        got = _locate(a, b, q, k_min, got)
        if isinstance(got, str):
            notes.append(got)
            got = _analytic_violation(a, b, q, k_min)
        if got is not None:
            return ConditionOutcome(q_used=q, violation=WindowViolation(side, *got))
    if notes:
        return ConditionOutcome(q_used=q, unsupported=notes[0])
    return ConditionOutcome(delta_prime=pow_delta(sa.delta, q), q_used=q)


def _prepare(a: BucketMeasure, b: BucketMeasure) -> tuple[_Side, _Side]:
    if a.delta != b.delta:
        raise DeltaMismatchError(f"measures use different bases {a.delta} and {b.delta}")
    a, b = _align_seq_rays(a, b)
    tails = _Tails(a.delta)
    return _Side(a, tails), _Side(b, tails)


# The search takes certification to be monotone in q (widening only adds
# content to b's windows) and in N (larger N sees fewer windows). It reads
# the covering floor below first, which needs no check, and probes the
# widening just above it at N = 1: most holding pairs certify there, and no
# smaller (q, N) can. Only when that probe refuses does the q_max check run:
# when q_max is not certified, no smaller q is, and the refusal carries
# q_max's note. Then q gallops up from the floor, and N from 1
# (tails.least_true).


def _covering_floor(sa: _Side, sb: _Side, q_max: int, k_min: Optional[int]) -> int:
    """A widening f < q_max such that no q <= f certifies, read before any
    check.

    Each explicit finite bucket j (j >= k_min) makes [j, j] a window of its
    side x, which the other side y's [j - q, j + q] must cover: by an
    infinite bucket in reach, or by at least as many finite values. The
    least such q is bucket j's covering radius r_j, and the floor is
    max(r_j) - 1. The counts are exact: x's array is grown to its last such
    bucket, y's to that bucket + q_max - 1, but not to y's infinite ray,
    which covers every window that reaches it. A bucket at or past either
    side's infinite ray is skipped: it is infinite on x, or covered at q = 1
    by y's ray. A radius reaching q_max ends the reading. So no more is
    counted than a certified q_max check counts, which scans each direction
    past x's last explicit bucket; a refused one can stop at its first
    window, and the two early answers below read no count at all.

    The floor is q_max - 1, before any count is read, in two cases where no
    q <= q_max certifies. An infinite bucket of either side is not covered
    at q_max. Or every finite tail atom of both sides is a constant ray, y
    has no infinite ray, and x's constant rays hold more per bucket than
    y's: a window of length L past all structure then holds about cx * L
    values of x against cy * (L + 2q) of y, more for L large at any q.
    """
    if _aleph_coverage(sa, sb, q_max, k_min) is not None:
        return q_max - 1
    if _aleph_coverage(sb, sa, q_max, k_min) is not None:
        return q_max - 1
    if all(k == "const" for side in (sa, sb) for k, _ in side.densities):
        ca, cb = (sum(v for _, v in side.densities) for side in (sa, sb))
        if (ca > cb and sb.aleph_ray_start is None) or (cb > ca and sa.aleph_ray_start is None):
            return q_max - 1
    best = 1  # the largest radius so far
    for x, y in ((sa, sb), (sb, sa)):
        js = sorted(x.finite_explicit)
        end = min([s for s in (x.aleph_ray_start, y.aleph_ray_start) if s is not None], default=inf)
        js = js[0 if k_min is None else bisect_left(js, k_min) : bisect_left(js, end)]
        if not js:
            continue
        top = js[-1] + q_max - 1  # the last bucket of y read
        if y.aleph_ray_start is not None:
            top = min(top, y.aleph_ray_start - 1)
        x0, y0 = js[0] - 1, js[0] - q_max
        xl, yl = x.cum_range(x0, js[-1]), y.cum_range(y0, top)

        def covered(q: int) -> bool:
            h = j + q
            return h > top or yl[h - y0] - yl[j - q - 1 - y0] >= need

        for j in js:
            need = xl[j - x0] - xl[j - 1 - x0]
            h = j + best
            if h > top or yl[h - y0] - yl[j - best - 1 - y0] >= need:
                continue
            # y's nearest infinite bucket covers j from its distance on.
            reach = min([q_max] + [abs(p - j) for p, _ in y.aleph_points])
            if reach > best:
                best = least_true(covered, best, reach)
                if best == q_max:
                    return q_max - 1
    return best - 1


def _search(
    a: BucketMeasure, b: BucketMeasure, q_max: int, n_max: Optional[int]
) -> ConditionOutcome:
    """The least certified q, then (in the cutoff form, n_max set) the least
    N at that q."""
    sa, sb = _prepare(a, b)
    floor = _covering_floor(sa, sb, q_max, n_max)
    first = floor + 1
    q, n = first, (None if n_max is None else 1)
    if first == q_max or not _certified(sa, sb, q, n):
        # A violation at the loosest widening certifies failure for every q.
        worst = _outcome_at(sa, sb, q_max, n_max)
        if worst.violation is not None:
            return replace(worst, n_cutoff=n_max)
        if worst.unsupported is not None:
            raise UnsupportedTailError(worst.unsupported)
        # Any probe refused (first, N = 1): the strong form's q gallops from
        # first, the cutoff form's from the floor, and N from 1 when q is first.
        lo = first if n_max is None else floor
        q = least_true(lambda q: _certified(sa, sb, q, n_max), lo, q_max)
        if n_max is not None:
            n = least_true(lambda n: _certified(sa, sb, q, n), int(q == first < q_max), n_max)
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
