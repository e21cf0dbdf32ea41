"""Matching kernels.

Both operate on plain integer arrays so the caller owns all bucket-index
bookkeeping. Both run in near-linear time in the size of their input.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, groupby

BACKEND = "python"


def _clamped_prefix(x, lo: int, top: int) -> list[int]:
    """[P(i) for i in lo..top] where P(i) = sum(x[0..i-1]), entries outside x zero."""
    p = list(accumulate(x, initial=0))
    last = len(x)
    return [p[min(max(i, 0), last)] for i in range(lo, top + 1)]


def verify_windows(a, b, k0: int, k1: int, hi: int):
    """First (k, l) with sum(a[k..k+l-1]) > sum(b[k-1..k+l]), else None.

    ``a`` and ``b`` are sequences of nonnegative ints indexed in array
    coordinates; windows are scanned for k in [k0, k1], l in [1, hi - k + 1],
    lexicographically; out-of-range entries count as zero.

    With prefix sums PA, PB the inequality for window (k, l) reads
    D(k + l) > C(k), where D(e) = PA(e) - PB(e + 1) and C(k) = PA(k) - PB(k - 1).
    A suffix maximum of D finds the first failing k in one pass; one more
    pass over l finds its first failing length.
    """
    base = k0 - 1
    pa = _clamped_prefix(a, base, hi + 2)
    pb = _clamped_prefix(b, base, hi + 2)
    # d[i] = D(k0 + 1 + i) for e in [k0 + 1, hi + 1]; best[i] = max(d[i:]).
    d = [pa[e - base] - pb[e + 1 - base] for e in range(k0 + 1, hi + 2)]
    best = list(accumulate(reversed(d), max))[::-1]
    for k in range(k0, min(k1, hi) + 1):
        c = pa[k - base] - pb[k - 1 - base]
        if best[k - k0] > c:
            for l in range(1, hi - k + 2):
                if d[k + l - k0 - 1] > c:
                    return (k, l)
    return None


def sdr_match(t_buckets, s_buckets, width: int):
    """Greedy system of distinct representatives for staircase windows.

    Each element of ``t_buckets`` (sorted ascending) claims the lowest unused
    slot of ``s_buckets`` (sorted ascending) whose bucket lies within
    ``width`` of its own. Returns one slot index per element, -1 when no slot
    is available. Least-slot greedy is optimal here because candidate ranges
    are nested staircase intervals.
    """
    ns = len(s_buckets)
    parent = list(range(ns + 1))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    out = []
    for j, run in groupby(t_buckets):  # elements of one bucket share a window
        lo = bisect_left(s_buckets, j - width)
        hi = bisect_right(s_buckets, j + width)
        for _ in run:
            slot = find(lo)
            if slot < hi:
                out.append(slot)
                parent[slot] = slot + 1
            else:
                out.append(-1)
    return out
