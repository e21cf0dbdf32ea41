"""Window-domination and matching kernels.

``first_window`` is the one window-domination scan of the package: the
matcher's hypotheses (``verify_windows``, widening 1) and the condition
scans in ``conditions`` (any widening) both reduce to it. All kernels work
on plain integer lists, so the caller owns the bucket-index bookkeeping, and
run in near-linear time in the size of their input.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, count, islice, repeat
from operator import gt, sub


def first_window(u, v):
    """Lexicographically first (i, l) with u[i + l - 1] > v[i], else None.

    Starts i run over the indices of both lists (``v`` may be shorter or
    longer than ``u``), lengths l over 1..len(u) - i. With u[h] = Ca(h) -
    Cb(h + q) and v[i] = Ca(i - 1) - Cb(i - 1 - q), (i, l) is a window of a
    whose count exceeds b's window widened by q on each side.
    """
    if not u or not v or max(u) <= min(v):
        return None  # no u exceeds any v: most scans stop here
    # The first start is the first i with max(u[i:]) > v[i].
    top = list(accumulate(reversed(u), max))
    top.reverse()
    i = next(compress(count(), map(gt, top, v)), None)
    if i is None:
        return None
    return i, next(compress(count(1), map(gt, islice(u, i, None), repeat(v[i]))))


def _clamped_prefix(x, lo: int, top: int) -> list[int]:
    """[P(i) for i in lo..top] where P(i) = sum(x[0..i-1]), entries outside x zero."""
    pad = max(0, -lo)  # zeros before x, so that P(lo) has an index
    xs = [0] * pad + list(x[: max(top, 0)]) + [0] * max(0, top - len(x))
    return list(accumulate(xs, initial=0))[lo + pad : top + pad + 1]


def verify_windows(a, b, k0: int, k1: int, hi: int):
    """First (k, l) with sum(a[k..k+l-1]) > sum(b[k-1..k+l]), else None.

    ``a`` and ``b`` are sequences of nonnegative ints indexed in array
    coordinates; windows are scanned for k in [k0, k1], l in [1, hi - k + 1],
    lexicographically; out-of-range entries count as zero.

    With prefix sums PA, PB the inequality for window (k, l) reads
    D(k + l) > C(k), where D(e) = PA(e) - PB(e + 1) and C(k) = PA(k) - PB(k - 1):
    ``first_window`` on u = D(k0 + 1 ..) and v = C(k0 ..).
    """
    base = k0 - 1
    pa, pb = (_clamped_prefix(x, base, hi + 2) for x in (a, b))
    u = list(map(sub, pa[2:], pb[3:]))  # D(e) for e in [k0 + 1, hi + 1]
    v = list(map(sub, pa[1:], pb[: max(0, k1 - base)]))  # C(k) for k in [k0, k1]
    hit = first_window(u, v)
    return None if hit is None else (k0 + hit[0], hit[1])


def sdr_claims(t_keys, t_counts, s_keys, s_counts, width: int):
    """Greedy system of distinct representatives for staircase windows, by bucket.

    Bucket ``t_keys[r]`` (ascending) holds ``t_counts[r]`` elements; the slots
    are the elements of ``s_keys`` / ``s_counts`` (ascending), numbered in
    bucket order. Each element claims the lowest unused slot whose bucket lies
    within ``width`` of its own. Least-slot greedy is optimal here because
    candidate ranges are nested staircase intervals whose bounds only move up:
    every slot from ``lo`` to the last one claimed is taken, so the least free
    is max(free, lo), and the elements of one bucket, which share a window,
    claim one contiguous interval from there. Returns the first slot of each
    bucket's interval, or None when some bucket's window runs out of slots.
    """
    s_starts = list(accumulate(s_counts, initial=0))
    out = []
    free = 0  # one past the last claimed slot
    for j, c in zip(t_keys, t_counts):
        free = max(free, s_starts[bisect_left(s_keys, j - width)])
        if free + c > s_starts[bisect_right(s_keys, j + width)]:
            return None
        out.append(free)
        free += c
    return out
