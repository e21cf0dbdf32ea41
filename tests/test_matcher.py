"""Tests for window-hypothesis verification and constructive bucket matching."""

from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opequiv import (
    BucketFunction,
    DeltaMismatchError,
    Finite,
    HypothesisViolationError,
    MatchMode,
    SpecError,
    ZERO,
    build_matching,
    find_hypothesis_violation,
    pow_delta,
    verify_hypotheses,
    window_count,
)
from opequiv import _matchcore_py
from opequiv.matcher import _sdr

HALF = F(1, 2)
ONE_SIDED = MatchMode.ONE_SIDED
STRICT = MatchMode.TWO_SIDED_STRICT


def bf(counts, N=1, M=F(1), delta=HALF):
    return BucketFunction(delta=delta, counts=counts, N=N, M=M)


# ---------------------------------------------------------------------------
# Bucket functions


def test_bucket_function_validation():
    with pytest.raises(SpecError):
        bf({}, N=0)
    with pytest.raises(SpecError):
        bf({}, M=F(1, 2))
    with pytest.raises(SpecError):
        bf({0.5: 1})
    with pytest.raises(SpecError):
        bf({0: -1})
    with pytest.raises(SpecError):
        bf({0: True})
    # Bucket -3 holds values >= 4, impossible under the bound M=2.
    with pytest.raises(SpecError):
        bf({-3: 1}, M=F(2))
    bf({-3: 1}, M=F(4))
    # Only the lowest bucket can break the bound, wherever it sits in the mapping,
    # and the error names it.
    with pytest.raises(SpecError, match="bucket -3 "):
        bf({5: 1, -3: 1}, M=F(2))
    with pytest.raises(SpecError, match="bucket -4 "):
        bf({5: 1, -3: 1, -4: 1}, M=F(2))
    bf({5: 1, -2: 1}, M=F(2))


def test_bucket_function_normalizes_counts():
    f = bf({0: Finite(2), 3: 0, 5: 1})
    assert f.counts == {0: 2, 5: 1}
    assert f.total() == 3
    assert f.support() == (0, 5)
    assert f.elements() == [(0, 0), (0, 1), (5, 0)]


def test_window_count():
    f = bf({0: 2, 2: 1, 5: 3})
    assert window_count(f, 0, 2) == 3
    assert window_count(f, 1, 10) == 4
    assert window_count(f, 3, 2) == 0


def test_pair_checks():
    with pytest.raises(DeltaMismatchError):
        verify_hypotheses(bf({}), bf({}, delta=F(1, 3)), all_k=True)
    with pytest.raises(SpecError):
        verify_hypotheses(bf({}, N=1), bf({}, N=2), all_k=False)


# ---------------------------------------------------------------------------
# Hypothesis verification


def test_verify_identical_and_simple_shift():
    f = bf({2: 3})
    assert verify_hypotheses(f, f, all_k=True)
    # One bucket apart: each window's widened counterpart still covers it.
    assert verify_hypotheses(bf({1: 1}), bf({0: 1}), all_k=True)


def test_violation_certificate_example():
    v = find_hypothesis_violation(bf({0: 2}), bf({0: 1}), all_k=True)
    assert v is not None and v.side == "tau" and v.k == 0 and v.length == 1
    # The same pair passes when only windows k >= N = 1 are checked.
    assert verify_hypotheses(bf({0: 2}), bf({0: 1}), all_k=False)


def test_violation_reports_sigma_side():
    v = find_hypothesis_violation(bf({}), bf({3: 1}), all_k=False)
    assert v is not None and v.side == "sigma" and v.k == 3


def oracle_violations(tau, sigma, all_k):
    """Brute-force window scan over a range generously covering both supports."""
    idx = list(tau.counts) + list(sigma.counts) + [tau.N]
    lo, hi = min(idx) - 3, max(idx) + 3
    out = []
    for a, b, side in ((tau, sigma, "tau"), (sigma, tau, "sigma")):
        for k in range(tau.N if not all_k else lo, hi + 1):
            for length in range(1, hi - lo + 2):
                if window_count(a, k, k + length - 1) > window_count(b, k - 1, k + length):
                    out.append((side, k, length))
    return out


@st.composite
def function_pairs(draw):
    delta = draw(st.sampled_from([HALF, F(1, 3)]))
    n = draw(st.integers(1, 3))
    m_bound = F(1) / delta  # covers buckets down to -2 for both bases
    counts = st.dictionaries(st.integers(-2, 6), st.integers(0, 5), max_size=5)
    tau = BucketFunction(delta=delta, counts=draw(counts), N=n, M=m_bound)
    sigma = BucketFunction(delta=delta, counts=draw(counts), N=n, M=m_bound)
    return tau, sigma


@given(function_pairs(), st.booleans())
@settings(max_examples=200)
def test_verification_matches_brute_force(pair, all_k):
    tau, sigma = pair
    hits = oracle_violations(tau, sigma, all_k)
    got = find_hypothesis_violation(tau, sigma, all_k)
    assert (got is None) == (not hits)
    if got is not None:
        # The reported window is itself a genuine violation within bounds.
        f, g = (tau, sigma) if got.side == "tau" else (sigma, tau)
        assert window_count(f, got.k, got.k + got.length - 1) > window_count(
            g, got.k - 1, got.k + got.length
        )
        if not all_k:
            assert got.k >= tau.N


# ---------------------------------------------------------------------------
# Matching construction: worked examples


def test_match_identical_strict():
    f = bf({2: 3})
    r = build_matching(f, f, STRICT)
    assert r.case_tag == "I"
    assert r.padding == ZERO
    assert r.delta_prime == F(1, 4)
    assert sorted(a for a, _ in r.pairing) == f.elements()
    assert sorted(b for _, b in r.pairing) == f.elements()


def test_match_one_bucket_apart():
    r = build_matching(bf({1: 1}), bf({0: 1}), ONE_SIDED)
    assert r.case_tag == "I"
    assert r.pairing == (((1, 0), (0, 0)),)
    assert r.delta_prime == F(1, 4)


def test_match_pads_left_side():
    r = build_matching(bf({}, M=F(2)), bf({-1: 2}, M=F(2)), ONE_SIDED)
    assert r.case_tag == "II"
    assert r.padding == Finite(2)
    assert r.delta_prime == F(1, 4)
    # Pads are unit-value elements in bucket -1 with fresh ordinals.
    assert r.pairing == ((((-1, 0)), (-1, 0)), (((-1, 1)), (-1, 1)))


def test_match_pads_right_side():
    r = build_matching(bf({0: 2}), bf({0: 1}), ONE_SIDED)
    assert r.case_tag == "III"
    assert r.padding == Finite(1)
    assert len(r.pairing) == 2


def test_strict_mode_rejects_unequal_totals():
    with pytest.raises(HypothesisViolationError) as exc:
        build_matching(bf({}, M=F(2)), bf({-1: 2}, M=F(2)), STRICT)
    assert exc.value.side == "sigma"


def test_match_is_deterministic():
    tau = bf({-1: 1, 1: 2, 3: 4}, N=2, M=F(2))
    sigma = bf({0: 2, 2: 3, 4: 2}, N=2, M=F(2))
    assert build_matching(tau, sigma, ONE_SIDED) == build_matching(tau, sigma, ONE_SIDED)


# ---------------------------------------------------------------------------
# Matching construction: structural properties


def element_interval(f: BucketFunction, el: tuple[int, int]):
    """Admissible value interval [lo, hi] for an element, pads being exactly 1."""
    j, i = el
    if j == -1 and i >= f.counts.get(-1, 0):
        return (F(1), F(1))  # padding element
    lo = pow_delta(f.delta, j + 1)
    hi = min(pow_delta(f.delta, j), f.M)
    return (lo, hi)


@given(function_pairs(), st.sampled_from([ONE_SIDED, STRICT]))
@settings(max_examples=200)
def test_match_structure(pair, mode):
    tau, sigma = pair
    ok = verify_hypotheses(tau, sigma, mode is STRICT)
    try:
        r = build_matching(tau, sigma, mode)
    except HypothesisViolationError:
        assert not ok
        return
    assert ok

    # The pairing is a bijection between the element sets plus declared pads.
    left = [a for a, _ in r.pairing]
    right = [b for _, b in r.pairing]
    assert len(set(left)) == len(left) and len(set(right)) == len(right)
    base_t, base_s = tau.counts.get(-1, 0), sigma.counts.get(-1, 0)
    pads_left = sorted(e for e in left if e[0] == -1 and e[1] >= base_t)
    pads_right = sorted(e for e in right if e[0] == -1 and e[1] >= base_s)
    assert sorted(e for e in left if e not in pads_left) == tau.elements()
    assert sorted(e for e in right if e not in pads_right) == sigma.elements()
    n_pad = abs(tau.total() - sigma.total())
    assert r.padding == Finite(n_pad)
    assert len(r.pairing) == max(tau.total(), sigma.total())

    # Case tags track which side was padded.
    if tau.total() == sigma.total():
        assert r.case_tag == "I" and not pads_left and not pads_right
    elif tau.total() < sigma.total():
        assert r.case_tag == "II" and len(pads_left) == n_pad and not pads_right
    else:
        assert r.case_tag == "III" and len(pads_right) == n_pad and not pads_left

    # Every matched pair respects the certified ratio bound.
    m_bound = max(tau.M, sigma.M)
    expected_dp = min(tau.delta**2, pow_delta(tau.delta, tau.N) / m_bound)
    assert r.delta_prime == expected_dp
    for a, b in r.pairing:
        lo_a, hi_a = element_interval(tau, a)
        lo_b, hi_b = element_interval(sigma, b)
        worst = min(lo_a / hi_b, lo_b / hi_a)
        assert worst >= r.delta_prime


@given(function_pairs())
@settings(max_examples=150)
def test_strict_success_forces_equal_totals(pair):
    tau, sigma = pair
    if verify_hypotheses(tau, sigma, all_k=True):
        assert tau.total() == sigma.total()
        r = build_matching(tau, sigma, STRICT)
        assert r.case_tag == "I" and r.padding == ZERO


# ---------------------------------------------------------------------------
# Fixed point


def oracle_partition(tau, sigma, mode):
    """The iterate-until-stable least fixed point, and the partition it induces.

    Returns (f1, f2, f3, g3, phi, psi_inv): T elements matched by psi^-1, T'
    elements matched by phi, the leftover shallow elements of each side
    (sorted), and the two maps.
    """
    all_k = mode is STRICT
    t_all, s_all = tau.elements(), sigma.elements()
    t_deep = t_all if all_k else [e for e in t_all if e[0] >= tau.N]
    s_deep = s_all if all_k else [e for e in s_all if e[0] >= sigma.N]
    phi = _sdr(t_deep, s_all)
    psi = _sdr(s_deep, t_all)
    t_deep_set, s_deep_set = set(t_deep), set(s_deep)
    e0 = set()
    while True:
        image = {phi[t] for t in e0 & t_deep_set}
        nxt = set(t_all) - {psi[s] for s in s_deep_set if s not in image}
        if nxt == e0:
            break
        e0 = nxt
    f1 = [t for t in t_all if t not in e0]
    f2 = sorted(e0 & t_deep_set)
    f3 = sorted(e0 - t_deep_set)
    g2 = {phi[t] for t in f2}
    g1 = {s for s in s_deep if s not in g2}
    g3 = sorted(s for s in s_all if s not in g2 and s not in g1)
    psi_inv = {v: k for k, v in psi.items()}
    return f1, f2, f3, g3, phi, psi_inv


@given(function_pairs(), st.sampled_from([ONE_SIDED, STRICT]))
@settings(max_examples=200)
def test_fixed_point_matches_iterated_oracle(pair, mode):
    tau, sigma = pair
    if not verify_hypotheses(tau, sigma, mode is STRICT):
        return
    r = build_matching(tau, sigma, mode)
    f1, f2, f3, g3, phi, psi_inv = oracle_partition(tau, sigma, mode)
    pairs = [(t, psi_inv[t]) for t in f1] + [(t, phi[t]) for t in f2]
    pairs += list(zip(f3, g3))
    n_cross = min(len(f3), len(g3))
    base_t, base_s = tau.counts.get(-1, 0), sigma.counts.get(-1, 0)
    pairs += [((-1, base_t + i), s) for i, s in enumerate(g3[n_cross:])]
    pairs += [(t, (-1, base_s + i)) for i, t in enumerate(f3[n_cross:])]
    case = "II" if len(f3) < len(g3) else "III" if len(g3) < len(f3) else "I"
    assert r.pairing == tuple(sorted(pairs))
    assert r.case_tag == case
    assert r.padding == Finite(abs(len(f3) - len(g3)))


# ---------------------------------------------------------------------------
# Kernels


def oracle_windows(a, b, k0, k1, hi):
    """Brute-force window scan with explicit zero padding outside the arrays."""

    def at(x, i):
        return x[i] if 0 <= i < len(x) else 0

    for k in range(k0, k1 + 1):
        for l in range(1, hi - k + 2):
            left = sum(at(a, i) for i in range(k, k + l))
            right = sum(at(b, i) for i in range(k - 1, k + l + 1))
            if left > right:
                return (k, l)
    return None


@given(
    st.lists(st.integers(0, 5), max_size=10),
    st.lists(st.integers(0, 5), max_size=10),
    st.sampled_from([-2, 0, 1]),
    st.data(),
)
@settings(max_examples=300)
def test_verify_windows_matches_padded_oracle(a, b, k0, data):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    # hi and k1 may run past the arrays; k1 may also stop before k0.
    k1 = data.draw(st.integers(k0 - 1, n + 3))
    hi = data.draw(st.integers(k0 - 1, n + 3))
    assert _matchcore_py.verify_windows(a, b, k0, k1, hi) == oracle_windows(a, b, k0, k1, hi)


def test_verify_windows_start_past_the_arrays():
    # The scan runs on past n = 2, where every entry counts as zero.
    assert _matchcore_py.verify_windows([0, 1], [1, 0], 0, 4, 4) is None
    assert _matchcore_py.verify_windows([1, 1], [0, 0], 3, 5, 6) is None


def test_verify_windows_negative_window_end_counts_zero():
    # For k + l < 0 the window lies left of the arrays and sums to zero; it
    # must not wrap round to a's last entry. The first violation from k = -3
    # is the window that first reaches a[2].
    a, b = [0, 0, 5], [0, 0, 0]
    assert oracle_windows(a, b, -3, 0, 2) == (-3, 6)
    assert _matchcore_py.verify_windows(a, b, -3, 0, 2) == (-3, 6)
    assert _matchcore_py.verify_windows([0, 7], [0, 0], -4, -3, -2) is None


def oracle_first_window(u, v):
    """Double loop: least start i, then least length l, with u[i + l - 1] > v[i]."""
    for i in range(min(len(u), len(v))):
        for l in range(1, len(u) - i + 1):
            if u[i + l - 1] > v[i]:
                return (i, l)
    return None


@pytest.mark.parametrize("extra", [-4, -1, 0, 1, 3])
@given(st.lists(st.integers(-6, 6), max_size=12), st.data())
@settings(max_examples=150)
def test_first_window_matches_double_loop(extra, u, data):
    # v shorter than, as long as and longer than u; either may be empty.
    n = max(0, len(u) + extra)
    v = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    assert _matchcore_py.first_window(u, v) == oracle_first_window(u, v)


def test_first_window_edges():
    assert _matchcore_py.first_window([], []) is None
    assert _matchcore_py.first_window([5], []) is None
    assert _matchcore_py.first_window([], [-5]) is None
    # A later start whose window ends first loses to the earlier start.
    assert _matchcore_py.first_window([0, 1, 9], [2, 0, 0]) == (0, 3)
    # Past the end of v only the starts v covers count.
    assert _matchcore_py.first_window([0, 0, 1], [0]) == (0, 3)
    assert _matchcore_py.first_window([0, -2, 1], [1, -1]) == (1, 2)


def oracle_sdr(t_buckets, s_buckets, width):
    """Least-slot greedy with both bisections and a linear probe per element."""
    used = [False] * len(s_buckets)
    out = []
    for j in t_buckets:
        lo = bisect_left(s_buckets, j - width)
        hi = bisect_right(s_buckets, j + width)
        slot = next((i for i in range(lo, hi) if not used[i]), -1)
        if slot >= 0:
            used[slot] = True
        out.append(slot)
    return out


@given(
    st.lists(st.integers(-4, 6), max_size=25).map(sorted),
    st.lists(st.integers(-4, 6), max_size=25).map(sorted),
    st.integers(0, 2),
)
@settings(max_examples=300)
def test_sdr_match_matches_per_element_oracle(t_buckets, s_buckets, width):
    assert _matchcore_py.sdr_match(t_buckets, s_buckets, width) == oracle_sdr(
        t_buckets, s_buckets, width
    )
