"""Exact bucket indexing, tail-sequence models, and root bounds.

Oracles used here are deliberately naive: direct enumeration with
``Fraction`` arithmetic or search over exact term comparisons, independent of
the library's closed-form counts.
"""

import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from opequiv import tails
from opequiv.errors import DeltaRangeError
from opequiv.tails import (
    FactorialSeq,
    GeometricSeq,
    PowerSeq,
    SeqSpan,
    ZeroTail,
    _floor_log,
    bucket_index,
    check_delta,
    count_ge,
    factorial,
    iroot,
    pow_delta,
    ratio_root_lower,
    ratio_root_upper,
    sparse_rule_count,
    sparse_rule_count_range,
    term_bounds,
    term_cmp,
    term_value,
)

deltas = st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(3, 7), F(9, 10)])


# ---------------------------------------------------------------------------
# Oracles


def bucket_oracle(value: F, delta: F) -> int:
    """Smallest j with value >= delta^(j+1), by linear walk from 0."""
    j = 0
    while pow_delta(delta, j) <= value:  # value >= delta^j: walk shallower
        j -= 1
    while value < pow_delta(delta, j + 1):  # value below the bucket floor
        j += 1
    return j


def check_count_ge(model, start: int, t: F, got: int) -> None:
    """Verify a claimed count against the defining inequalities.

    For small counts, enumerate outright; always confirm the boundary terms
    term(start + got - 1) >= t > term(start + got) exactly.
    """
    if got <= 2000:
        manual = 0
        n = start
        while term_cmp(model, n, t) >= 0:
            manual += 1
            n += 1
        assert got == manual
        return
    assert term_cmp(model, start + got - 1, t) >= 0
    assert term_cmp(model, start + got, t) < 0


def count_ge_search_oracle(model, start: int, t: F) -> int:
    """count_ge by doubling then bisection over exact term comparisons."""
    if term_cmp(model, start, t) < 0:
        return 0
    lo, hi = start, start + 1
    while term_cmp(model, hi, t) >= 0:
        lo = hi
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if term_cmp(model, mid, t) >= 0:
            lo = mid
        else:
            hi = mid
    return lo - start + 1


def floor_log_oracle(x: F, base: F) -> int:
    """floor(log_base x) by a linear walk from 0."""
    d, power = 0, F(1)  # power == base**d
    while power > x:
        d, power = d - 1, power / base
    while power * base <= x:
        d, power = d + 1, power * base
    return d


def sparse_marks_oracle(delta: F, up_to_bucket: int) -> list:
    """Distinct bucket marks floor(log_{1/delta} n!), n = 1, 2, ..., capped."""
    marks = set()
    n = 1
    while True:
        f = F(factorial(n))
        j = 0
        while (1 / delta) ** (j + 1) <= f:
            j += 1
        if j > up_to_bucket:
            return sorted(marks)
        marks.add(j)
        n += 1


# ---------------------------------------------------------------------------
# delta validation and powers


def test_check_delta():
    assert check_delta(F(1, 2)) == F(1, 2)
    for bad in (F(3, 2), F(1), F(0), F(-1, 2)):
        with pytest.raises(DeltaRangeError):
            check_delta(bad)


def test_check_delta_returns_a_valid_fraction_itself():
    delta = F(3, 7)
    assert check_delta(delta) is delta
    # Other rationals are still converted, and a subclass is not trusted.
    class Odd(F):
        pass

    for given, expected in ((0.5, F(1, 2)), ("2/5", F(2, 5)), (Odd(1, 3), F(1, 3))):
        got = check_delta(given)
        assert type(got) is F and got == expected


@pytest.mark.parametrize(
    "bad, shown",
    [(F(3, 2), "3/2"), (F(1), "1"), (F(0), "0"), (F(-1, 2), "-1/2"), (2, "2"), ("7/7", "1"), (-0.25, "-1/4")],
)
def test_check_delta_rejects_with_the_same_message(bad, shown):
    with pytest.raises(DeltaRangeError) as err:
        check_delta(bad)
    assert str(err.value) == f"delta must lie in (0, 1), got {shown}"


def test_pow_delta():
    assert pow_delta(F(1, 2), 3) == F(1, 8)
    assert pow_delta(F(1, 2), 0) == 1
    assert pow_delta(F(1, 2), -2) == 4
    assert pow_delta(F(2, 3), 2) == F(4, 9)


# ---------------------------------------------------------------------------
# Bucket indexing


def test_bucket_index_examples():
    half = F(1, 2)
    assert bucket_index(F(1), half) == -1  # [1, 2)
    assert bucket_index(F(1, 2), half) == 0  # [1/2, 1)
    assert bucket_index(F(3, 4), half) == 0
    assert bucket_index(F(1, 4), half) == 1
    assert bucket_index(F(3), half) == -2  # [2, 4)
    assert bucket_index(F(1, 3), half) == 1  # [1/4, 1/2)


@given(
    deltas,
    st.fractions(
        min_value=F(1, 10**6), max_value=F(10**6)
    ),
)
def test_bucket_index_matches_oracle(delta, value):
    assert bucket_index(value, delta) == bucket_oracle(value, delta)


@given(deltas, st.integers(min_value=-30, max_value=30))
def test_bucket_edges(delta, j):
    # delta^(j+1) is the smallest value of bucket j; delta^j starts bucket j-1.
    assert bucket_index(pow_delta(delta, j + 1), delta) == j
    assert bucket_index(pow_delta(delta, j), delta) == j - 1


# ---------------------------------------------------------------------------
# Integer roots and rational root bounds


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=6))
def test_iroot(x, k):
    r = iroot(x, k)
    assert r**k <= x < (r + 1) ** k


@given(st.integers(min_value=0, max_value=2**4096))
def test_iroot_square_matches_isqrt(x):
    assert iroot(x, 2) == math.isqrt(x)


@given(st.integers(min_value=2**1100, max_value=2**3000), st.integers(min_value=3, max_value=7))
def test_iroot_brackets_past_float_range(x, k):
    r = iroot(x, k)  # no float conversion, so no OverflowError
    assert r**k <= x < (r + 1) ** k


def test_iroot_exact_powers():
    for k in range(2, 8):
        for r in (2, 3, 10**20 + 7, 2**400 - 1):
            assert iroot(r**k, k) == r
            assert iroot(r**k - 1, k) == r - 1


def within_lines(fn, *args, lines=20_000):
    """fn(*args), raising once it has run ``lines`` lines of Python.

    A loop that never ends then fails the test instead of hanging it.
    """
    left = [lines]

    def trace(frame, event, arg):
        if event == "line":
            left[0] -= 1
            if left[0] < 0:
                raise RuntimeError(f"{fn.__name__}{args[1:]} ran more than {lines} lines")
        return trace

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        return fn(*args)
    finally:
        sys.settrace(old)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(0, 10**6), st.integers(0, 2**4096)),
    st.integers(min_value=2, max_value=7),
    st.sampled_from(["one", "below", "at", "above", "far above"]),
)
def test_iroot_from_any_start_matches_cold_start(x, k, where):
    r = within_lines(iroot, x, k)
    start = {
        "one": 1,
        "below": max(r - 1, 1),
        "at": max(r, 1),
        "above": r + 1,
        "far above": (r + 1) << 4200,
    }[where]
    assert within_lines(iroot, x, k, start) == r


def test_iroot_start_at_exact_powers():
    # A start at the root of an exact power is a fixed point of the Newton
    # step, which is where a loop that does not stop on equality would spin.
    for k in range(3, 8):
        for r in (2, 3, 10**20 + 7, 2**400 - 1):
            for x in (r**k - 1, r**k, r**k + 1):
                starts = (None, 1, r - 1, r, r + 1, r << 300)
                roots = [within_lines(iroot, x, k, start) for start in starts]
                assert roots == [r - (x < r**k)] * len(starts)


def test_iroot_rejects_a_start_below_one():
    with pytest.raises(ValueError):
        iroot(100, 3, 0)


@given(st.integers(-100, 100), st.integers(1, 10**4), st.one_of(st.none(), st.integers(0, 10**4)))
@example(5, 1, 0)
def test_least_true_matches_a_linear_scan(lo, gap, beyond):
    # pred is False below lo + gap and True from there; hi, when given, is
    # at or above that threshold (beyond = 0 with gap = 1 puts lo = hi - 1,
    # where nothing is evaluated).
    threshold = lo + gap
    hi = None if beyond is None else threshold + beyond
    calls = []

    def pred(x):
        assert x > lo and (hi is None or x < hi), "pred evaluated at lo or hi"
        calls.append(x)
        return x >= threshold

    linear = next(x for x in range(lo + 1, threshold + 1) if x >= threshold)
    assert tails.least_true(pred, lo, hi) == linear
    assert len(calls) <= 2 * math.ceil(math.log2(gap)) + 2


@given(
    st.fractions(min_value=F(1, 10**30), max_value=F(10**30)),
    st.sampled_from([F(2), F(3, 2), F(10, 9), F(7), F(21, 20)]),
)
def test_floor_log_matches_oracle(x, base):
    assert _floor_log(x, base) == floor_log_oracle(x, base)


def test_floor_log_at_exact_powers_and_big_ints():
    for base in (F(2), F(3, 2), F(10, 9)):
        for d in range(-40, 41):
            assert _floor_log(base**d, base) == d
    big = math.factorial(3000)
    d = _floor_log(big, F(3))
    assert 3**d <= big < 3 ** (d + 1)
    with pytest.raises(ValueError):
        _floor_log(F(0), F(2))
    with pytest.raises(ValueError):
        _floor_log(F(5), F(1))


@given(
    st.fractions(min_value=F(1, 1000), max_value=F(1000)),
    st.integers(min_value=1, max_value=5),
)
def test_root_bounds_bracket(x, k):
    lo = ratio_root_lower(x, k)
    hi = ratio_root_upper(x, k)
    assert lo > 0
    assert lo**k <= x <= hi**k
    assert hi - lo <= F(2, 10**9)


def test_root_bounds_exact_when_rational():
    assert ratio_root_lower(F(9, 4), 2) == F(3, 2)
    assert ratio_root_upper(F(9, 4), 2) == F(3, 2)
    assert ratio_root_lower(F(27), 3) == 3


# ---------------------------------------------------------------------------
# Tail models


def test_term_values():
    geo = GeometricSeq(F(3), F(1, 2))
    assert term_value(geo, 2) == F(3, 4)
    pw = PowerSeq(F(1), F(2))
    assert term_value(pw, 3) == F(1, 9)
    assert term_value(PowerSeq(F(1), F(1, 2)), 5) is None  # irrational
    # n^(-a/b) is rational exactly when n is a perfect b-th power.
    assert term_value(PowerSeq(F(3), F(3, 2)), 1) == 3
    assert term_value(PowerSeq(F(3), F(3, 2)), 4) == F(3, 8)
    assert term_value(PowerSeq(F(1), F(2, 3)), 27) == F(1, 9)
    assert term_value(PowerSeq(F(1), F(2, 3)), 26) is None
    assert term_value(FactorialSeq(), 4) == F(1, 24)


def test_term_cmp_fractional_power_exact():
    # term(n) = n^(-1/2): term(4) = 1/2 exactly.
    m = PowerSeq(F(1), F(1, 2))
    assert term_cmp(m, 4, F(1, 2)) == 0
    assert term_cmp(m, 4, F(499, 1000)) > 0
    assert term_cmp(m, 4, F(501, 1000)) < 0
    # term(2) = 2^(-1/2), strictly between 0.7071 and 0.7072.
    assert term_cmp(m, 2, F(7071, 10000)) > 0
    assert term_cmp(m, 2, F(7072, 10000)) < 0


def test_model_validation():
    with pytest.raises(ValueError):
        GeometricSeq(F(1), F(3, 2))
    with pytest.raises(ValueError):
        GeometricSeq(F(-1), F(1, 2))
    with pytest.raises(ValueError):
        PowerSeq(F(1), F(0))


models = st.one_of(
    st.builds(
        GeometricSeq,
        st.fractions(min_value=F(1, 8), max_value=F(8)),
        st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(7, 8)]),
    ),
    st.builds(
        PowerSeq,
        st.fractions(min_value=F(1, 8), max_value=F(8)),
        st.sampled_from([F(1), F(2), F(1, 2), F(3, 2), F(3)]),
    ),
    st.just(FactorialSeq()),
)


@given(models, st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=8))
def test_term_bounds_bracket_each_term(model, first, width):
    # Exact wherever term_value is; strictly around an irrational term.
    got = term_bounds(model, first, first + width)
    assert len(got) == width + 1
    for n, (ln, ld, hn, hd) in zip(range(first, first + width + 1), got):
        v = term_value(model, n)
        if v is not None:
            assert F(ln, ld) == v == F(hn, hd)
        else:
            assert term_cmp(model, n, F(ln, ld)) > 0 > term_cmp(model, n, F(hn, hd))


@given(models, st.integers(min_value=1, max_value=12), st.fractions(min_value=F(1, 10**4), max_value=F(10)))
def test_terms_decrease(model, n, t):
    # Monotonicity, exactly where values are rational ...
    v = term_value(model, n)
    w = term_value(model, n + 1)
    if v is not None and w is not None:
        assert v >= w
    # ... and via threshold comparisons in every case: a later term above t
    # forces the earlier term above t too.
    if term_cmp(model, n + 1, t) >= 0:
        assert term_cmp(model, n, t) >= 0


@settings(max_examples=60)
@given(
    models,
    st.integers(min_value=1, max_value=5),
    st.fractions(min_value=F(1, 10**5), max_value=F(10)),
)
def test_count_ge_matches_oracle(model, start, t):
    got = count_ge(model, start, t)
    assert got >= 0
    if got == 0:
        assert term_cmp(model, start, t) < 0
    else:
        check_count_ge(model, start, t, got)


frac_powers = st.builds(
    PowerSeq,
    st.fractions(min_value=F(1, 8), max_value=F(8)),
    st.builds(F, st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=5)),
)


@settings(max_examples=300)
@given(
    st.one_of(models, frac_powers),
    st.integers(min_value=1, max_value=9),
    st.one_of(
        st.fractions(min_value=F(1, 10**30), max_value=F(10**3)),
        st.builds(lambda d, j: d**j, st.sampled_from([F(1, 2), F(2, 3), F(9, 10)]), st.integers(0, 400)),
    ),
)
def test_count_ge_matches_search_oracle(model, start, t):
    assert count_ge(model, start, t) == count_ge_search_oracle(model, start, t)


def test_count_ge_examples():
    assert count_ge(PowerSeq(F(1), F(1)), 1, F(1, 10)) == 10  # 1/n >= 1/10
    assert count_ge(FactorialSeq(), 1, F(1, 24)) == 4
    assert count_ge(GeometricSeq(F(1), F(1, 2)), 1, F(1, 8)) == 3
    assert count_ge(ZeroTail(), 1, F(1, 8)) == 0


# ---------------------------------------------------------------------------
# Sequence spans


def test_seqspan_mult_semantics():
    span = SeqSpan(PowerSeq(F(1), F(1)), start=1, mult=3)
    # Each value 1/n repeated 3 times: values >= 1/4 are n = 1..4, tripled.
    assert span.count_ge(F(1, 4)) == 12


def test_seqspan_cum_and_buckets():
    half = F(1, 2)
    span = SeqSpan(PowerSeq(F(1), F(1)), start=1, mult=1)
    # Values 1, 1/2, ..., in buckets -1, 0, 1, 1, 2, ...
    assert span.cum_to_bucket(half, -1) == 1  # value 1
    assert span.cum_to_bucket(half, 0) == 2  # + value 1/2
    assert span.cum_to_bucket(half, 1) == 4  # + 1/3, 1/4
    assert span.bucket_count(half, 1) == 2
    assert span.first_bucket(half) == -1


def test_seqspan_cum_matches_enumeration():
    half = F(1, 2)
    span = SeqSpan(GeometricSeq(F(5), F(1, 3)), start=2, mult=2)
    for h in range(-2, 12):
        floor = pow_delta(half, h + 1)
        manual = 0
        for n in range(2, 80):
            if term_value(span.model, n) >= floor:
                manual += 2
        assert span.cum_to_bucket(half, h) == manual


def test_seqspan_drop_head():
    span = SeqSpan(PowerSeq(F(1), F(1)), start=1, mult=2)
    assert span.drop_head(4) == SeqSpan(PowerSeq(F(1), F(1)), start=3, mult=2)
    assert span.drop_head(3) is None  # not a multiple of mult
    assert span.first_term_value() == 1


def test_seqspan_rejects_zero_tail():
    with pytest.raises(ValueError):
        SeqSpan(ZeroTail(), 1, 1)


# ---------------------------------------------------------------------------
# Sparse factorial rule


@given(deltas)
@settings(max_examples=10, deadline=None)
def test_sparse_rule_matches_oracle(delta):
    top = 40
    marks = sparse_marks_oracle(delta, top)
    for k in range(-2, top, 5):
        for h in range(k, top, 7):
            expected = sum(1 for m in marks if k <= m <= h)
            assert sparse_rule_count(delta, k, h) == expected


def test_sparse_rule_repeat_computes_no_floor_log(monkeypatch):
    delta = F(5, 11)  # a base no earlier test uses, so the cache starts cold
    calls = []
    real = tails._floor_log

    def counting(x, base):
        calls.append(x)
        return real(x, base)

    monkeypatch.setattr(tails, "_floor_log", counting)
    first = sparse_rule_count(delta, 0, 300)
    assert calls
    calls.clear()
    assert sparse_rule_count(delta, 0, 300) == first
    assert sparse_rule_count(delta, 5, 120) == sum(1 for m in sparse_marks_oracle(delta, 120) if m >= 5)
    assert calls == []
    assert first == len(sparse_marks_oracle(delta, 300))


def test_sparse_rule_examples():
    # delta = 1/2: marks at floor(log2 n!) = 0, 1, 2, 4, 6, 9, 12, ...
    half = F(1, 2)
    assert sparse_rule_count(half, 0, 0) == 1  # 1! -> 0
    assert sparse_rule_count(half, 0, 2) == 3  # 0, 1, 2
    assert sparse_rule_count(half, 3, 4) == 1  # mark 4 (4! = 24, log2 in [4,5))
    assert sparse_rule_count(half, 5, 6) == 1  # mark 6 (5! = 120)


# ---------------------------------------------------------------------------
# Range counts against the per-bucket counts they batch

# Below 1/3, one bucket can hold two factorial terms (1/(n+2) >= delta).
range_deltas = st.sampled_from([F(1, 2), F(2, 3), F(5, 11), F(1, 10)])
range_models = st.sampled_from(
    [
        PowerSeq(F(1), F(1)),
        PowerSeq(F(3), F(5, 2)),
        PowerSeq(F(7, 3), F(2, 3)),
        PowerSeq(F(1, 9), F(3)),
        # r on both sides of delta = 1/2, 2/3 and 5/11
        GeometricSeq(F(3), F(1, 3)),
        GeometricSeq(F(5, 2), F(3, 5)),
        GeometricSeq(F(1, 7), F(9, 10)),
        FactorialSeq(),
    ]
)


@settings(max_examples=400, deadline=None)
@given(
    range_models,
    st.integers(1, 20),
    st.integers(1, 3),
    range_deltas,
    # lo as low as -40 starts every range where the count is still 0
    st.integers(-40, 60),
    st.integers(-3, 80),
)
def test_seqspan_cum_range_matches_per_bucket(model, start, mult, delta, lo, width):
    span = SeqSpan(model, start, mult)
    hi = lo + width - 1  # width 0 and below: an empty range
    assert span.cum_range(delta, lo, hi) == [
        span.cum_to_bucket(delta, h) for h in range(lo, hi + 1)
    ]


@settings(max_examples=200, deadline=None)
@given(range_deltas, st.integers(-30, 40), st.integers(-40, 60), st.integers(-3, 80))
def test_sparse_rule_count_range_matches_per_bucket(delta, k, lo, width):
    hi = lo + width - 1
    assert sparse_rule_count_range(delta, k, lo, hi) == [
        sparse_rule_count(delta, k, h) for h in range(lo, hi + 1)
    ]


def first_bucket_walk(span: SeqSpan, delta: F) -> int:
    """The first bucket by one scalar count per bucket: down from -1 by 16
    until the count is 0, then up one bucket at a time."""
    lo = -1
    while span.cum_to_bucket(delta, lo) > 0:
        lo -= 16
    hi = lo
    while span.cum_to_bucket(delta, hi) == 0:
        hi += 1
    return hi


small_starts = st.integers(1, 20)
first_bucket_spans = st.one_of(
    # large constants put the first term far above 1, large starts far below
    st.builds(
        SeqSpan,
        st.builds(
            PowerSeq,
            st.fractions(min_value=F(1, 10**6), max_value=F(10**9)),
            st.sampled_from([F(1), F(5, 2), F(2, 3), F(3), F(1, 7)]),
        ),
        st.one_of(small_starts, st.integers(1, 10**12)),
        st.integers(1, 3),
    ),
    st.builds(
        SeqSpan,
        st.builds(
            GeometricSeq,
            st.sampled_from([F(1, 10**40), F(1, 10**9), F(3, 1000), F(1), F(10**6)]),
            st.sampled_from([F(1, 3), F(3, 5), F(9, 10)]),
        ),
        small_starts,
        st.integers(1, 3),
    ),
    st.builds(SeqSpan, st.just(FactorialSeq()), small_starts, st.integers(1, 3)),
)


@settings(max_examples=300, deadline=None)
@given(first_bucket_spans, range_deltas)
def test_first_bucket_matches_bucket_walk(span, delta):
    assert span.first_bucket(delta) == first_bucket_walk(span, delta)
