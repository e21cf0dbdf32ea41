"""Window-hypothesis verification and constructive bucket matching.

Inputs are finite bucketed value functions: ``counts[j]`` elements with values
in [delta^(j+1), delta^j), all values bounded by M, with a threshold bucket N.
``verify_hypotheses`` checks the two-sided window domination inequalities;
``build_matching`` turns them into an explicit bijection (with unit-value
padding on the deficient side when allowed) whose pairwise value ratios are
guaranteed within [delta', 1/delta'].

The inner loops live in ``_matchcore_py`` and run in near-linear time: the
window scan (``first_window`` at widening 1, the kernel ``conditions`` also
scans with) and the distinct-representatives matching, which claims one
interval of slots per bucket. ``build_matching`` numbers the elements of each
side in (bucket, ordinal) order and holds the two injections as int lists;
the fixed point that splits the elements follows each chain of them once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, chain, repeat
from typing import Mapping, Optional

from . import _matchcore_py as _core
from .cardinal import Cardinal, Finite
from .errors import DeltaMismatchError, HypothesisViolationError, SpecError
from .tails import check_delta, pow_delta


class MatchMode(Enum):
    ONE_SIDED = "OneSided"
    TWO_SIDED_STRICT = "TwoSidedStrict"


@dataclass(frozen=True)
class BucketFunction:
    """Finite bucketed values: counts per bucket, value bound M, threshold N."""

    delta: Fraction
    counts: Mapping[int, int]
    N: int = 1
    M: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "delta", check_delta(self.delta))
        object.__setattr__(self, "M", Fraction(self.M))
        if self.N < 1:
            raise SpecError("threshold N must be a positive integer")
        if self.M < 1:
            raise SpecError("value bound M must be >= 1")
        clean = {}
        for j, c in self.counts.items():
            if not isinstance(j, int) or isinstance(j, bool):
                raise SpecError(f"bucket index must be an integer, got {j!r}")
            if isinstance(c, Finite):
                c = c.n
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise SpecError(f"bucket count must be a nonnegative integer, got {c!r}")
            if c:
                clean[j] = c
        # Bucket j holds values >= delta^(j+1), which falls as j grows, and
        # all values are <= M: only the lowest bucket can break the bound.
        if clean and pow_delta(self.delta, min(clean) + 1) > self.M:
            raise SpecError(f"bucket {min(clean)} lies entirely above the value bound M={self.M}")
        object.__setattr__(self, "counts", clean)

    def total(self) -> int:
        return sum(self.counts.values())

    def support(self) -> tuple[int, int]:
        """(min bucket, max bucket); meaningless when empty."""
        return (min(self.counts), max(self.counts))

    def elements(self) -> list[tuple[int, int]]:
        """All element ids (bucket, ordinal), lexicographically sorted."""
        keys, counts, _ = _runs(self)
        buckets = chain.from_iterable(map(repeat, keys, counts))
        return list(zip(buckets, chain.from_iterable(map(range, counts))))


@dataclass(frozen=True)
class Violation:
    side: str  # which function's window overflowed: "tau" or "sigma"
    k: int
    length: int


@dataclass(frozen=True)
class MatchResult:
    case_tag: str  # "I", "II", or "III"
    pairing: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    padding: Cardinal
    delta_prime: Fraction


def _check_pair(tau: BucketFunction, sigma: BucketFunction) -> None:
    if tau.delta != sigma.delta:
        raise DeltaMismatchError(
            f"bucket functions use different bases {tau.delta} and {sigma.delta}"
        )
    if tau.N != sigma.N:
        raise SpecError(f"bucket functions use different thresholds {tau.N} and {sigma.N}")


def _scan(a: BucketFunction, b: BucketFunction, k_min: Optional[int]) -> Optional[tuple[int, int]]:
    """First window [k, k+l-1] where a's count exceeds b's widened window.

    Violations at k below a's support reduce to ones at its minimum, and
    windows past a's support only grow the b side, so the scan is finite.
    """
    if not a.counts:
        return None
    ja_lo, ja_hi = a.support()
    k_lo = ja_lo if k_min is None else max(k_min, ja_lo)
    if k_lo > ja_hi:
        return None
    lo = min([k_lo] + list(a.counts) + list(b.counts)) - 2
    hi = max([ja_hi] + list(b.counts)) + 2
    size = hi - lo + 1
    arr_a = [0] * size
    arr_b = [0] * size
    for j, c in a.counts.items():
        arr_a[j - lo] = c
    for j, c in b.counts.items():
        arr_b[j - lo] = c
    found = _core.verify_windows(arr_a, arr_b, k_lo - lo, ja_hi - lo, ja_hi - lo)
    if found is None:
        return None
    return (found[0] + lo, found[1])


def find_hypothesis_violation(
    tau: BucketFunction, sigma: BucketFunction, all_k: bool
) -> Optional[Violation]:
    """A concrete failing window of the two-sided domination inequalities."""
    _check_pair(tau, sigma)
    k_min = None if all_k else tau.N
    hit = _scan(tau, sigma, k_min)
    if hit is not None:
        return Violation("tau", hit[0], hit[1])
    hit = _scan(sigma, tau, k_min)
    if hit is not None:
        return Violation("sigma", hit[0], hit[1])
    return None


def verify_hypotheses(tau: BucketFunction, sigma: BucketFunction, all_k: bool) -> bool:
    """Whether every window [k, k+l-1] (k >= N, or all k) is dominated both ways."""
    return find_hypothesis_violation(tau, sigma, all_k) is None


def window_count(f: BucketFunction, k: int, h: int) -> int:
    """Total count over buckets k..h inclusive."""
    return sum(c for j, c in f.counts.items() if k <= j <= h)


def _sdr(
    keys: list[int], counts: list[int], cod_keys: list[int], cod_counts: list[int]
) -> list[int]:
    """Injective map from the elements of buckets ``keys`` into cod's elements.

    Each element goes to a slot within one bucket of its own, and the
    elements of one bucket to one contiguous interval of slots (cod's element
    ids in (bucket, ordinal) order): returns each bucket's first slot.
    """
    claims = _core.sdr_claims(keys, counts, cod_keys, cod_counts, 1)
    if claims is None:
        raise SpecError(
            "internal matching failure: distinct representatives missing "
            "although the window hypotheses hold"
        )
    return claims


def _runs(f: BucketFunction) -> tuple[list[int], list[int], list[int]]:
    """Bucket keys ascending, their counts, and each bucket's first element id."""
    keys = sorted(f.counts)
    counts = [f.counts[j] for j in keys]
    return keys, counts, list(accumulate(counts, initial=0))


def build_matching(
    tau: BucketFunction, sigma: BucketFunction, mode: MatchMode
) -> MatchResult:
    """Constructive near-value-preserving bijection between the two element sets.

    ONE_SIDED verifies the window hypotheses for k >= N and may pad either
    side with unit-value elements (cases II/III); TWO_SIDED_STRICT verifies
    them for all k and always produces an unpadded bijection (case I).

    Elements are numbered in (bucket, ordinal) order on each side, so the
    deep ones (bucket >= N, or all of them when strict) are a suffix.
    """
    _check_pair(tau, sigma)
    all_k = mode is MatchMode.TWO_SIDED_STRICT
    bad = find_hypothesis_violation(tau, sigma, all_k)
    if bad is not None:
        raise HypothesisViolationError(bad.side, bad.k, bad.length)

    delta, N = tau.delta, tau.N
    t_keys, t_counts, t_starts = _runs(tau)
    s_keys, s_counts, s_starts = _runs(sigma)
    n_t, n_s = t_starts[-1], s_starts[-1]
    t_first = 0 if all_k else bisect_left(t_keys, N)  # first deep bucket
    s_first = 0 if all_k else bisect_left(s_keys, N)

    # phi: deep T -> S and psi: deep S -> T, distinct representatives in
    # 3-bucket windows, -1 off their domains: one claimed interval per bucket.
    phi = [-1] * n_t
    claims = _sdr(t_keys[t_first:], t_counts[t_first:], s_keys, s_counts)
    for lo, c, slot in zip(t_starts[t_first:], t_counts[t_first:], claims):
        phi[lo : lo + c] = range(slot, slot + c)
    psi = [-1] * n_s
    psi_inv = [-1] * n_t
    missed = []  # T ids outside psi's image, as ranges
    free = 0
    claims = _sdr(s_keys[s_first:], s_counts[s_first:], t_keys, t_counts)
    for lo, c, slot in zip(s_starts[s_first:], s_counts[s_first:], claims):
        psi[lo : lo + c] = range(slot, slot + c)
        psi_inv[slot : slot + c] = range(lo, lo + c)
        missed.append(range(free, slot))
        free = slot + c
    missed.append(range(free, n_t))

    # Least fixed point of E -> T \ psi[(S \ phi[E cap T']) cap S']. Both maps
    # are injective, so it is T \ psi[S'] closed under t -> psi[phi[t]]
    # (t in T', phi[t] in S'): follow each chain from an element psi misses.
    # T elements pair with psi^-1 outside the fixed point and with phi inside
    # it, so ``target`` starts as psi^-1 and takes phi along the chains. A
    # chain stops at a shallow T element (-1: no phi) or a shallow S element.
    target = psi_inv
    in_image = bytearray(s_starts[s_first])  # shallow S elements phi pairs
    for run in missed:
        for t in run:
            while True:
                s = target[t] = phi[t]
                if s < 0:
                    break
                t = psi[s]
                if t < 0:
                    in_image[s] = 1
                    break
    f3 = [t for t in range(t_starts[t_first]) if target[t] < 0]
    g3 = [s for s, paired in enumerate(in_image) if not paired]

    # Cross-match the leftover shallow elements; pad the short side with
    # unit-value elements (bucket -1), in order after its real bucket -1.
    n_cross = min(len(f3), len(g3))
    for t, s in zip(f3, g3):
        target[t] = s
    n_pad = abs(len(f3) - len(g3))
    if n_pad and all_k:
        raise SpecError(
            "internal inconsistency: strict two-sided hypotheses cannot require padding"
        )
    case = "I" if not n_pad else "II" if len(f3) < len(g3) else "III"
    t_all, s_all = tau.elements(), sigma.elements()
    if case == "III":  # right side padded
        base = sigma.counts.get(-1, 0)
        for t, pad in zip(f3[n_cross:], range(n_s, n_s + n_pad)):
            target[t] = pad
        s_all.extend(zip(repeat(-1), range(base, base + n_pad)))
    pairing = list(zip(t_all, map(s_all.__getitem__, target)))
    if case == "II":  # left side padded
        base = tau.counts.get(-1, 0)
        at = t_starts[bisect_right(t_keys, -1)]
        pairing[at:at] = zip(
            zip(repeat(-1), range(base, base + n_pad)), map(s_all.__getitem__, g3[n_cross:])
        )

    m_bound = max(tau.M, sigma.M)
    delta_prime = min(delta * delta, pow_delta(delta, N) / m_bound)
    return MatchResult(
        case_tag=case,
        pairing=tuple(pairing),
        padding=Finite(n_pad),
        delta_prime=delta_prime,
    )
