"""Closed-form tail models for diagonal value sequences, with exact counting.

A tail model describes the infinite part of a nonincreasing positive value
sequence: geometric c*r^n, power c*n^(-p), or reciprocal factorial 1/n!.
Everything here is decided with exact integer/rational arithmetic; no model
value is ever approximated by a float.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Optional, Union

from .errors import DeltaRangeError


def check_delta(delta: Fraction) -> Fraction:
    # A Fraction is kept in lowest terms with a positive denominator, so
    # 0 < numerator < denominator means 0 < delta < 1: such a delta is
    # returned as it is.
    if type(delta) is Fraction and 0 < delta.numerator < delta.denominator:
        return delta
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise DeltaRangeError(f"delta must lie in (0, 1), got {delta}")
    return delta


def iroot(x: int, k: int, start: Optional[int] = None) -> int:
    """Floor of the k-th root of a nonnegative integer, by integer Newton steps.

    ``start`` is an optional positive guess at the root. Any guess gives the
    same answer; one close to the root saves steps.
    """
    if x < 0 or k < 1 or (start is not None and start < 1):
        raise ValueError("iroot needs x >= 0, k >= 1 and a positive start")
    if x < 2 or k == 1:
        return x
    if k == 2:
        return math.isqrt(x)
    # Start above the root (x < 2^bits). One Newton step from any positive
    # guess also lands at or above the floor root: the real step is at least
    # x^(1/k) by AM-GM, and flooring x / r^(k-1) first does not change the
    # floor of the step. From above, Newton steps decrease monotonically to
    # the floor root and stop there.
    r = 1 << -(-x.bit_length() // k)
    if start is not None:
        r = min(r, ((k - 1) * start + x // start ** (k - 1)) // k)
    s = ((k - 1) * r + x // r ** (k - 1)) // k
    while s < r:
        r = s
        s = ((k - 1) * r + x // r ** (k - 1)) // k
    return r


def pow_delta(delta: Fraction, j: int) -> Fraction:
    """delta**j for any integer j, exactly."""
    if j >= 0:
        return Fraction(delta.numerator**j, delta.denominator**j)
    return Fraction(delta.denominator**-j, delta.numerator**-j)


def least_true(pred: Callable[[int], bool], lo: int, hi: Optional[int] = None) -> int:
    """The least x > lo with pred(x), for a pred that is False up to some
    integer and True from there on.

    pred(lo) is taken to be False and pred(hi), when hi is given, True;
    neither is evaluated. Probes lo + 1, lo + 2, lo + 4, ... and then bisects
    the last gap, so an answer d above lo costs O(log d) evaluations.
    """
    base, step = lo, 1
    while hi is None or base + step < hi:
        if pred(base + step):
            hi = base + step
            break
        lo, step = base + step, 2 * step
    while hi - lo > 1:  # pred(lo) is False and pred(hi) True
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _floor_log(x: Union[int, Fraction], base: Union[int, Fraction]) -> int:
    """floor(log_base(x)) for rational x > 0 and base > 1, exactly.

    A float estimate from integer logs picks the candidate; exact integer
    comparisons confirm it. A candidate off by e costs O(log e) comparisons,
    so the answer never depends on the float's accuracy.
    """
    u, v = x.numerator, x.denominator
    bn, bd = base.numerator, base.denominator
    if u <= 0 or bn <= bd:
        raise ValueError(f"floor_log needs x > 0 and base > 1, got {x}, {base}")
    return floor_log_ratio(u, v, bn, bd)


def floor_log_ratio(u: int, v: int, bn: int, bd: int) -> int:
    """floor(log_(bn/bd)(u/v)) for positive integers with bn > bd, as
    _floor_log; neither ratio needs to be in lowest terms."""

    def at_most(d: int) -> bool:  # base^d <= x
        if d >= 0:
            return bn**d * v <= u * bd**d
        return bd**-d * v <= u * bn**-d

    # Integer logs: a float ratio may under- or overflow for extreme values.
    guess = math.floor((math.log2(u) - math.log2(v)) / (math.log2(bn) - math.log2(bd)))
    if at_most(guess):
        return least_true(lambda d: not at_most(d), guess) - 1
    return -least_true(lambda d: at_most(-d), -guess)


def bucket_index(value: Fraction, delta: Fraction) -> int:
    """The j with delta^(j+1) <= value < delta^j."""
    value = Fraction(value)
    if value <= 0:
        raise ValueError(f"bucket_index needs a positive value, got {value}")
    return -_floor_log(value, 1 / delta) - 1


ROOT_SCALE = 10**9  # root bounds are integers over ROOT_SCALE


def root_bracket(num: int, den: int, k: int, scale: int = ROOT_SCALE) -> tuple[int, int]:
    """Integers lo <= hi with lo/scale <= (num/den)**(1/k) <= hi/scale.

    lo is the floor root at that scale; hi = lo when it is exact, else lo + 1.
    """
    y = num * scale**k
    lo = iroot(y // den, k)
    return lo, (lo if lo**k * den == y else lo + 1)


def ratio_root_lower(x: Fraction, k: int, scale: int = ROOT_SCALE) -> Fraction:
    """A rational lower bound for x**(1/k) (x > 0), exact when possible."""
    if x <= 0:
        raise ValueError("positive x required")
    if k == 1:
        return x
    return Fraction(root_bracket(x.numerator, x.denominator, k, scale)[0], scale)


def ratio_root_upper(x: Fraction, k: int, scale: int = ROOT_SCALE) -> Fraction:
    """A rational upper bound for x**(1/k) (x > 0), exact when possible."""
    if x <= 0:
        raise ValueError("positive x required")
    if k == 1:
        return x
    return Fraction(root_bracket(x.numerator, x.denominator, k, scale)[1], scale)


# ---------------------------------------------------------------------------
# Tail models (value sequences, model index n >= 1)


@dataclass(frozen=True)
class ZeroTail:
    pass


@dataclass(frozen=True)
class GeometricSeq:
    """term(n) = c * r**n."""

    c: Fraction
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "r", Fraction(self.r))
        if self.c <= 0 or not 0 < self.r < 1:
            raise ValueError(f"geometric tail needs c > 0, 0 < r < 1, got {self}")


@dataclass(frozen=True)
class PowerSeq:
    """term(n) = c * n**(-p)."""

    c: Fraction
    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "p", Fraction(self.p))
        if self.c <= 0 or self.p <= 0:
            raise ValueError(f"power tail needs c > 0, p > 0, got {self}")


@dataclass(frozen=True)
class FactorialSeq:
    """term(n) = 1 / n!."""


TailModel = Union[ZeroTail, GeometricSeq, PowerSeq, FactorialSeq]

_FACTORIALS = [1, 1]


def factorial(n: int) -> int:
    while len(_FACTORIALS) <= n:
        _FACTORIALS.append(_FACTORIALS[-1] * len(_FACTORIALS))
    return _FACTORIALS[n]


def term_value(model: TailModel, n: int) -> Optional[Fraction]:
    """Exact value of term n, or None when it is irrational.

    With p = a/b in lowest terms, n^(-p) is rational exactly when n is a
    perfect b-th power.
    """
    if n < 1:
        raise ValueError("model index starts at 1")
    if isinstance(model, GeometricSeq):
        return model.c * model.r**n
    if isinstance(model, PowerSeq):
        a, b = model.p.numerator, model.p.denominator
        m = iroot(n, b)
        if m**b != n:
            return None
        return model.c * Fraction(1, m**a)
    if isinstance(model, FactorialSeq):
        return Fraction(1, factorial(n))
    raise TypeError(f"no terms on {model!r}")


def term_bounds(model: TailModel, first: int, last: int) -> list[tuple[int, int, int, int]]:
    """Bounds (lo num, lo den, hi num, hi den) of the terms first..last.

    Geometric terms, integer-exponent powers and factorials are exact. A
    fractional power c * n^(-a/b) divides c by the root_bracket bounds of
    n^(a/b), those of ratio_root_lower and ratio_root_upper, so it is exact
    where term_value is.
    """
    args = range(first, last + 1)
    if isinstance(model, GeometricSeq):
        (cn, cd), (rn, rd) = model.c.as_integer_ratio(), model.r.as_integer_ratio()
        num, den = cn * rn**first, cd * rd**first
        out = []
        for _ in args:
            out.append((num, den, num, den))
            num, den = num * rn, den * rd
        return out
    if isinstance(model, PowerSeq):
        cn, cd = model.c.as_integer_ratio()
        a, b = model.p.as_integer_ratio()
        if b == 1:
            return [(cn, d, cn, d) for d in (cd * u**a for u in args)]
        num = cn * ROOT_SCALE
        out = []
        for u in args:
            lo, hi = root_bracket(u**a, 1, b)
            out.append((num, cd * hi, num, cd * lo))
        return out
    if isinstance(model, FactorialSeq):
        return [(1, f, 1, f) for f in map(factorial, args)]
    raise TypeError(f"no terms on {model!r}")


def term_cmp(model: TailModel, n: int, t: Fraction) -> int:
    """Sign of term(n) - t, exactly (works for fractional powers too)."""
    t = Fraction(t)
    if isinstance(model, PowerSeq):
        a, b = model.p.numerator, model.p.denominator
        # c * n^(-a/b) vs t  <=>  c^b vs t^b * n^a
        lhs = model.c.numerator**b * t.denominator**b
        rhs = t.numerator**b * model.c.denominator**b * n**a
        return (lhs > rhs) - (lhs < rhs)
    value = term_value(model, n)
    return (value > t) - (value < t)


def _last_index_ge(model: TailModel, t: Fraction) -> int:
    """The largest n with term(n) >= t (0 or less when there is none)."""
    if isinstance(model, PowerSeq):
        # c * n^(-a/b) >= t  <=>  n^a <= (c/t)^b  <=>  n^a <= floor((c/t)^b)
        a, b = model.p.numerator, model.p.denominator
        c = model.c
        bound = (c.numerator * t.denominator) ** b // (c.denominator * t.numerator) ** b
        return iroot(bound, a)
    if isinstance(model, GeometricSeq):
        # c * r^n >= t  <=>  (1/r)^n <= c/t
        return _floor_log(model.c / t, 1 / model.r)
    if isinstance(model, FactorialSeq):
        # 1/n! >= t  <=>  n! <= floor(1/t)
        bound = t.denominator // t.numerator
        while _FACTORIALS[-1] <= bound:
            factorial(len(_FACTORIALS))
        return bisect.bisect_right(_FACTORIALS, bound) - 1
    raise TypeError(f"no terms on {model!r}")


def count_ge(model: TailModel, start: int, t: Fraction) -> int:
    """#{n >= start : term(n) >= t} for a decreasing model and t > 0."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("threshold must be positive")
    if isinstance(model, ZeroTail):
        return 0
    return max(0, _last_index_ge(model, t) - start + 1)


@dataclass(frozen=True)
class SeqSpan:
    """A run of tail terms: model indices n >= start, each value mult times."""

    model: TailModel
    start: int = 1
    mult: int = 1

    def __post_init__(self):
        if self.start < 1 or self.mult < 1:
            raise ValueError(f"bad sequence span {self}")
        if isinstance(self.model, ZeroTail):
            raise ValueError("zero tail has no terms")

    def count_ge(self, t: Fraction) -> int:
        return self.mult * count_ge(self.model, self.start, t)

    def cum_to_bucket(self, delta: Fraction, h: int) -> int:
        """Number of values in buckets <= h, i.e. values >= delta^(h+1)."""
        return self.count_ge(pow_delta(delta, h + 1))

    def cum_range(self, delta: Fraction, lo: int, hi: int) -> list[int]:
        """[cum_to_bucket(delta, h) for h in lo..hi], in integers only.

        The threshold delta^(h+1) is kept as N/D (not in lowest terms) and
        stepped one bucket by N *= delta's numerator, D *= its denominator.
        """
        if hi < lo:
            return []
        e = lo + 1
        dn, dd = delta.numerator, delta.denominator
        big_n, big_d = (dn**e, dd**e) if e >= 0 else (dd**-e, dn**-e)
        model, start = self.model, self.start
        out = []
        if isinstance(model, PowerSeq):
            # c * n^(-a/b) >= N/D  <=>  n^a <= floor(X / Y) with
            # X = (c_num * D)^b and Y = (c_den * N)^b.
            # The real root grows by g = delta^(-b/a) per bucket, so from the
            # last two roots r0 <= r1, r1 * r1 // r0 misses the next root by
            # about g^2 + 2g at most, however large the roots: a start that
            # leaves Newton little to do.
            a, b = model.p.numerator, model.p.denominator
            x = (model.c.numerator * big_d) ** b
            y = (model.c.denominator * big_n) ** b
            step_x, step_y = dd**b, dn**b
            r0 = r1 = 0
            for _ in range(hi - lo + 1):
                # Through the module global, so a wrapper rebound over
                # iroot sees every bucket.
                r0, r1 = r1, iroot(x // y, a, r1 * r1 // r0 + 1 if r0 else None)
                out.append(r1)
                x *= step_x
                y *= step_y
        else:
            # The last index n >= t only moves forward as the threshold falls.
            n = max(start - 1, _last_index_ge(model, Fraction(big_n, big_d)))
            if isinstance(model, GeometricSeq):
                # term(n + 1) >= N/D  <=>  c_num r_num^(n+1) D >= c_den r_den^(n+1) N
                rn, rd = model.r.numerator, model.r.denominator
                left = model.c.numerator * rn ** (n + 1) * big_d
                right = model.c.denominator * rd ** (n + 1) * big_n
                for _ in range(hi - lo + 1):
                    while left >= right:
                        n += 1
                        left *= rn
                        right *= rd
                    out.append(n)
                    left *= dd
                    right *= dn
            elif isinstance(model, FactorialSeq):
                # term(n + 1) >= N/D  <=>  (n + 1)! N <= D
                fact = factorial(n + 1)
                for _ in range(hi - lo + 1):
                    while fact * big_n <= big_d:
                        n += 1
                        fact *= n + 1
                    out.append(n)
                    big_n *= dn
                    big_d *= dd
            else:
                raise TypeError(f"no terms on {model!r}")
        mult, skip = self.mult, start - 1
        return [mult * (n - skip) if n > skip else 0 for n in out]

    def bucket_count(self, delta: Fraction, j: int) -> int:
        return self.cum_to_bucket(delta, j) - self.cum_to_bucket(delta, j - 1)

    def first_bucket(self, delta: Fraction) -> int:
        """Bucket index of the first (largest) tail term."""
        model = self.model
        if isinstance(model, PowerSeq):
            # (c * n^(-a/b))^b = c^b / n^a is rational, and it lies in bucket
            # j of delta^b exactly when the term lies in bucket j of delta.
            a, b = model.p.numerator, model.p.denominator
            return bucket_index(model.c**b / self.start**a, delta**b)
        return bucket_index(term_value(model, self.start), delta)

    def first_term_value(self) -> Optional[Fraction]:
        return term_value(self.model, self.start)

    def drop_head(self, k: int) -> Optional["SeqSpan"]:
        """The span with the first k values removed (k a multiple of mult)."""
        if k % self.mult:
            return None
        return SeqSpan(self.model, self.start + k // self.mult, self.mult)


# ---------------------------------------------------------------------------
# The sparse factorial bucket rule: count 1 at indices floor(log_{1/delta} n!)

# Per delta: the marks found so far, and the frontier n, n! and the mark of
# n!, which is the first mark not yet recorded.
_SPARSE_CACHE: dict[Fraction, tuple[list[int], int, int, int]] = {}


def _sparse_indices(delta: Fraction, up_to: int) -> list[int]:
    """Sorted distinct indices of the rule, covering every index <= up_to.

    The list is the cache's own and may run past up_to; do not modify it.
    """
    marks, n, fact, j = _SPARSE_CACHE.get(delta, ([], 1, 1, 0))  # 1! has mark 0
    base = 1 / delta
    while j <= up_to:
        if not marks or j > marks[-1]:
            marks.append(j)
        n += 1
        fact *= n
        j = _floor_log(fact, base)
    _SPARSE_CACHE[delta] = (marks, n, fact, j)
    return marks


def sparse_rule_count(delta: Fraction, k: int, h: int) -> int:
    """Number of rule indices in [k, h]."""
    if h < 0 or h < k:
        return 0
    marks = _sparse_indices(delta, h)
    return bisect.bisect_right(marks, h) - bisect.bisect_left(marks, k)


def sparse_rule_count_range(delta: Fraction, k: int, lo: int, hi: int) -> list[int]:
    """[sparse_rule_count(delta, k, h) for h in lo..hi]."""
    if hi < lo:
        return []
    per_bucket = [0] * (hi - lo + 1)
    if hi >= 0:
        marks = _sparse_indices(delta, hi)
        for j in marks[bisect.bisect_left(marks, k) : bisect.bisect_right(marks, hi)]:
            per_bucket[max(j - lo, 0)] += 1
    return list(accumulate(per_bucket))
