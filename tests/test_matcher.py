"""Tests for window-hypothesis verification and constructive bucket matching."""

import json
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction as F
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opequiv import (
    BucketFunction,
    DeltaMismatchError,
    Finite,
    HypothesisViolationError,
    MatchMode,
    MatchResult,
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
# Matching construction: the element-level matcher as the oracle


def oracle_element_sdr(dom, codomain):
    assignment = oracle_sdr([e[0] for e in dom], [e[0] for e in codomain], 1)
    assert -1 not in assignment
    return {el: codomain[slot] for el, slot in zip(dom, assignment)}


def oracle_build_matching(tau, sigma, mode):
    """The element-level build_matching the index form replaced: tuple-keyed
    maps, a set for the fixed point and one sort of the pairs at the end."""
    all_k = mode is STRICT
    bad = find_hypothesis_violation(tau, sigma, all_k)
    if bad is not None:
        raise HypothesisViolationError(bad.side, bad.k, bad.length)
    delta, N = tau.delta, tau.N
    t_all = tau.elements()
    s_all = sigma.elements()
    t_deep = t_all if all_k else [e for e in t_all if e[0] >= N]
    s_deep = s_all if all_k else [e for e in s_all if e[0] >= N]
    phi = oracle_element_sdr(t_deep, s_all)
    psi = oracle_element_sdr(s_deep, t_all)
    psi_inv = {v: k for k, v in psi.items()}
    e0 = set()
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
    pairs = [(t, psi_inv[t]) for t in f1] + [(t, phi[t]) for t in f2]
    n_cross = min(len(f3), len(g3))
    pairs += list(zip(f3[:n_cross], g3[:n_cross]))
    n_pad = abs(len(f3) - len(g3))
    if len(f3) < len(g3):
        case = "II"
        base = tau.counts.get(-1, 0)
        pairs += [((-1, base + i), s) for i, s in enumerate(g3[n_cross:])]
    elif len(g3) < len(f3):
        case = "III"
        base = sigma.counts.get(-1, 0)
        pairs += [(t, (-1, base + i)) for i, t in enumerate(f3[n_cross:])]
    else:
        case = "I"
    delta_prime = min(delta * delta, pow_delta(delta, N) / max(tau.M, sigma.M))
    return MatchResult(case, tuple(sorted(pairs)), Finite(n_pad), delta_prime)


def jittered_pair(rng):
    """Bucket functions over buckets -3..6 that often satisfy the window
    hypotheses: sigma moves some of tau's elements by one bucket each, and
    one side may carry a shallow surplus; one pair in five is independent."""
    delta = rng.choice([HALF, F(1, 3)])
    n = rng.randint(1, 3)
    m_bound = delta**-2  # the lowest bucket, -3, starts at delta^-2 = M
    keys = rng.sample(range(-3, 7), rng.randint(0, 6))
    t = {j: rng.randint(1, 6) for j in keys}
    if rng.random() < 0.2:
        s = {j: rng.randint(1, 6) for j in rng.sample(range(-3, 7), rng.randint(0, 6))}
    else:
        s = dict(t)
        for j in keys:
            moved = rng.randint(0, t[j])
            to = min(6, max(-3, j + rng.choice((-1, 1))))
            s[j] -= moved
            s[to] = s.get(to, 0) + moved
        surplus = t if rng.random() < 0.5 else s
        for _ in range(rng.randint(0, 4)):
            j = rng.randint(-3, n - 1)
            surplus[j] = surplus.get(j, 0) + 1
    return (
        BucketFunction(delta=delta, counts=t, N=n, M=m_bound),
        BucketFunction(delta=delta, counts=s, N=n, M=m_bound),
    )


def differential_outcome(tau, sigma, mode):
    """Compare build_matching with the oracle; returns the case or "violation"."""
    try:
        expected = oracle_build_matching(tau, sigma, mode)
    except HypothesisViolationError as e:
        with pytest.raises(HypothesisViolationError) as got:
            build_matching(tau, sigma, mode)
        assert (got.value.side, got.value.k, got.value.length) == (e.side, e.k, e.length)
        return "violation"
    got = build_matching(tau, sigma, mode)
    assert got == expected
    assert json.dumps(got.pairing) == json.dumps(expected.pairing)
    return got.case_tag


@given(st.randoms(use_true_random=False), st.sampled_from([ONE_SIDED, STRICT]))
@settings(max_examples=400)
def test_build_matching_matches_the_element_level_oracle(rng, mode):
    differential_outcome(*jittered_pair(rng), mode)


def test_the_differential_sample_reaches_every_case():
    # The pairs above reach each outcome, padding next to a real bucket -1
    # on the padded side, and negative buckets in strict matches.
    rng = random.Random(19)
    seen = Counter()
    for mode in (ONE_SIDED, STRICT):
        for _ in range(300):
            tau, sigma = jittered_pair(rng)
            case = differential_outcome(tau, sigma, mode)
            seen[mode, case] += 1
            padded = {"II": tau, "III": sigma}.get(case)
            if padded is not None and padded.counts.get(-1):
                seen["pads after bucket -1", case] += 1
            if case == "I" and mode is STRICT and min(tau.counts, default=0) < 0:
                seen["strict, negative buckets"] += 1
    assert all(seen[ONE_SIDED, case] >= 24 for case in ("violation", "I", "II", "III"))
    assert seen[STRICT, "violation"] >= 24 and seen[STRICT, "I"] >= 24
    assert seen["pads after bucket -1", "II"] >= 8 and seen["pads after bucket -1", "III"] >= 8
    assert seen["strict, negative buckets"] >= 8


# ---------------------------------------------------------------------------
# Fixed point


def claimed_map(dom, cod, all_k):
    """The element map of ``_sdr``'s run-level claims: bucket j's ordinal i
    goes to the element ``first slot + i`` of ``cod``, in (bucket, ordinal) order."""
    keys = [j for j in sorted(dom.counts) if all_k or j >= dom.N]
    cod_keys = sorted(cod.counts)
    claims = _sdr(keys, [dom.counts[j] for j in keys], cod_keys, [cod.counts[j] for j in cod_keys])
    cod_all = cod.elements()
    return {(j, i): cod_all[slot + i] for j, slot in zip(keys, claims) for i in range(dom.counts[j])}


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
    phi = claimed_map(tau, sigma, all_k)
    psi = claimed_map(sigma, tau, all_k)
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


def claims_as_slots(t_buckets, s_buckets, width):
    """``sdr_claims`` on the runs of two sorted bucket lists, one slot per
    element (each bucket's interval from its first slot), or None."""
    t_runs = [(j, len(list(run))) for j, run in groupby(t_buckets)]
    s_runs = [(j, len(list(run))) for j, run in groupby(s_buckets)]
    claims = _matchcore_py.sdr_claims(
        [j for j, _ in t_runs], [c for _, c in t_runs],
        [j for j, _ in s_runs], [c for _, c in s_runs], width,
    )
    if claims is None:
        return None
    return [slot + i for (_, c), slot in zip(t_runs, claims) for i in range(c)]


@given(
    st.lists(st.integers(-4, 6), max_size=25).map(sorted),
    st.lists(st.integers(-4, 6), max_size=25).map(sorted),
    st.integers(0, 2),
)
@settings(max_examples=300)
def test_sdr_claims_match_the_per_element_oracle(t_buckets, s_buckets, width):
    expected = oracle_sdr(t_buckets, s_buckets, width)
    got = claims_as_slots(t_buckets, s_buckets, width)
    assert got == (None if -1 in expected else expected)


def test_sdr_claims_edges():
    # One claim per bucket, from the least free slot of its window on.
    assert _matchcore_py.sdr_claims([0, 1], [2, 1], [0, 1, 2], [1, 1, 2], 1) == [0, 2]
    assert _matchcore_py.sdr_claims([], [], [0], [3], 1) == []
    assert _matchcore_py.sdr_claims([0], [1], [], [], 1) is None
    # A bucket whose window holds too few free slots fails as a whole.
    assert _matchcore_py.sdr_claims([0, 1], [2, 2], [0, 1], [2, 1], 1) is None


def union_find_sdr(t_buckets, s_buckets, width):
    """The union-find greedy that the slot pointer replaced, kept as its oracle."""
    parent = list(range(len(s_buckets) + 1))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    out = []
    for j in t_buckets:
        lo = bisect_left(s_buckets, j - width)
        hi = bisect_right(s_buckets, j + width)
        slot = find(lo)
        if slot < hi:
            parent[slot] = slot + 1
        out.append(slot if slot < hi else -1)
    return out


@given(
    st.lists(st.integers(0, 12), max_size=30).map(sorted),
    st.lists(st.integers(0, 12), max_size=30).map(sorted),
    st.integers(0, 2),
)
@settings(max_examples=300)
def test_sdr_claims_match_the_union_find_greedy(t_buckets, s_buckets, width):
    expected = union_find_sdr(t_buckets, s_buckets, width)
    got = claims_as_slots(t_buckets, s_buckets, width)
    assert got == (None if -1 in expected else expected)
