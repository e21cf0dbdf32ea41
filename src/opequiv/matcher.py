"""Window-hypothesis verification and constructive bucket matching.

Inputs are finite bucketed value functions: ``counts[j]`` elements with values
in [delta^(j+1), delta^j), all values bounded by M, with a threshold bucket N.
``verify_hypotheses`` checks the two-sided window domination inequalities;
``build_matching`` turns them into an explicit bijection (with unit-value
padding on the deficient side when allowed) whose pairwise value ratios are
guaranteed within [delta', 1/delta'].

The inner loops live in ``_matchcore_py`` and run in near-linear time: the
window scan (``first_window`` at widening 1, the kernel ``conditions`` also
scans with) and the distinct-representatives matching. The fixed point that
splits the elements follows each chain of the two injections once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional

from . import _matchcore_py as _core
from .cardinal import Cardinal, Finite, ZERO
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
        out = []
        for j in sorted(self.counts):
            out.extend((j, i) for i in range(self.counts[j]))
        return out


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
    dom: list[tuple[int, int]], codomain: list[tuple[int, int]]
) -> dict[tuple[int, int], tuple[int, int]]:
    """Injective map dom -> codomain, each element to a slot within one bucket."""
    assignment = _core.sdr_match([e[0] for e in dom], [e[0] for e in codomain], 1)
    out = {}
    for el, slot in zip(dom, assignment):
        if slot < 0:
            raise SpecError(
                "internal matching failure: distinct representatives missing "
                "although the window hypotheses hold"
            )
        out[el] = codomain[slot]
    return out


def build_matching(
    tau: BucketFunction, sigma: BucketFunction, mode: MatchMode
) -> MatchResult:
    """Constructive near-value-preserving bijection between the two element sets.

    ONE_SIDED verifies the window hypotheses for k >= N and may pad either
    side with unit-value elements (cases II/III); TWO_SIDED_STRICT verifies
    them for all k and always produces an unpadded bijection (case I).
    """
    _check_pair(tau, sigma)
    all_k = mode is MatchMode.TWO_SIDED_STRICT
    bad = find_hypothesis_violation(tau, sigma, all_k)
    if bad is not None:
        raise HypothesisViolationError(bad.side, bad.k, bad.length)

    delta, N = tau.delta, tau.N
    t_all = tau.elements()
    s_all = sigma.elements()
    if all_k:
        t_deep = t_all
        s_deep = s_all
    else:
        t_deep = [e for e in t_all if e[0] >= N]
        s_deep = [e for e in s_all if e[0] >= N]

    phi = _sdr(t_deep, s_all)  # distinct representatives in 3-bucket windows
    psi = _sdr(s_deep, t_all)

    # Least fixed point of E -> T \ psi[(S \ phi[E cap T']) cap S']. Both maps
    # are injective, so it is T \ psi[S'] closed under t -> psi[phi[t]]
    # (t in T', phi[t] in S'): follow each chain from an element psi misses.
    psi_inv = {v: k for k, v in psi.items()}
    e0: set = set()
    for t in t_all:
        if t in psi_inv:
            continue
        while t not in e0:
            e0.add(t)
            s = phi.get(t)
            if s not in psi:
                break
            t = psi[s]

    f1 = [t for t in t_all if t not in e0]
    f2 = [t for t in t_deep if t in e0]
    f3 = [t for t in t_all if t in e0 and t not in phi]
    g2 = {phi[t] for t in f2}
    g3 = [s for s in s_all if s not in g2 and s not in psi]

    pairs: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for t in f1:
        pairs.append((t, psi_inv[t]))
    for t in f2:
        pairs.append((t, phi[t]))

    # Cross-match the leftover shallow elements; pad the short side with
    # unit-value elements (bucket -1).
    n_cross = min(len(f3), len(g3))
    for t, s in zip(f3[:n_cross], g3[:n_cross]):
        pairs.append((t, s))
    n_pad = abs(len(f3) - len(g3))
    if n_pad and all_k:
        raise SpecError(
            "internal inconsistency: strict two-sided hypotheses cannot require padding"
        )
    if len(f3) < len(g3):
        case = "II"  # left side padded
        base = tau.counts.get(-1, 0)
        for i, s in enumerate(g3[n_cross:]):
            pairs.append(((-1, base + i), s))
    elif len(g3) < len(f3):
        case = "III"  # right side padded
        base = sigma.counts.get(-1, 0)
        for i, t in enumerate(f3[n_cross:]):
            pairs.append((t, (-1, base + i)))
    else:
        case = "I"

    m_bound = max(tau.M, sigma.M)
    delta_prime = min(delta * delta, pow_delta(delta, N) / m_bound)
    return MatchResult(
        case_tag=case,
        pairing=tuple(sorted(pairs)),
        padding=Finite(n_pad),
        delta_prime=delta_prime,
    )
