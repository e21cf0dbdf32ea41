"""Tests for the window-domination conditions on bucket measures."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import accumulate, islice
from operator import add, sub

import pytest
import test_acceptance as acceptance
from hypothesis import given, settings
from hypothesis import strategies as st

from opequiv import (
    ALEPH0,
    Aleph,
    BucketMeasure,
    CompactDiagonal,
    ConstantRay,
    DeltaMismatchError,
    DirectSum,
    FactorialSeq,
    Finite,
    GeometricRay,
    GeometricSeq,
    PowerSeq,
    ScaledIdentity,
    SeqRay,
    SeqSpan,
    SparseRay,
    UnsupportedTailError,
    card_add,
    card_le,
    card_sum,
    check_condition_S,
    check_condition_S_tilde,
    condition_s_outcome,
    condition_s_tilde_outcome,
    identity_measure,
    lemma_s_tilde_consistency,
    modulus_data,
)
from opequiv import _matchcore_py, conditions, engine, tails
from opequiv.tails import _floor_log, pow_delta, ratio_root_lower, sparse_rule_count

HALF = F(1, 2)


def meas(buckets, atoms=(), delta=HALF):
    return BucketMeasure(delta=delta, buckets=buckets, atoms=atoms)


def diag_inverse():
    return modulus_data(CompactDiagonal(prefix=(), tail=PowerSeq(F(1), F(1))), HALF)


def dominated(a, b, q, k_lo, k_hi, l_max, k_min=None, h_max=None):
    """Brute-force check of both window inequalities at widening q, over the
    windows [k, h] with k_lo <= k <= k_hi (and k >= k_min), h - k < l_max
    and, when h_max is set, h <= h_max. Counts are summed bucket by bucket
    from ``BucketMeasure.window_count``."""
    if k_min is not None:
        k_lo = max(k_lo, k_min)
    h_top = k_hi + l_max - 1 if h_max is None else min(h_max, k_hi + l_max - 1)
    for f, g in ((a, b), (b, a)):
        fc = [f.window_count(j, j) for j in range(k_lo, h_top + 1)]
        gc = [g.window_count(j, j) for j in range(k_lo - q, h_top + q + 1)]
        for i in range(k_hi - k_lo + 1):
            n = min(l_max, len(fc) - i)
            # f over [k, h] and g over [k - q, h + q], for h = k, k + 1, ...
            left = accumulate(fc[i : i + n], card_add)
            below = card_sum(gc[i : i + 2 * q])  # g over [k - q, k + q - 1]
            widened = accumulate(gc[i + 2 * q : i + 2 * q + n], card_add, initial=below)
            if not all(map(card_le, left, islice(widened, 1, None))):
                return False
    return True


def assert_violation_genuine(a, b, out, k_min=None):
    """A reported violation names a window that really fails at q_used."""
    v = out.violation
    assert v is not None and not out.present
    f, g = (a, b) if v.side == "left" else (b, a)
    left = f.window_count(v.k, v.k + v.length - 1)
    right = g.window_count(v.k - out.q_used, v.k + v.length - 1 + out.q_used)
    assert not card_le(left, right)
    if k_min is not None:
        assert v.k >= k_min


# ---------------------------------------------------------------------------
# Strong form: examples


def test_identical_measures_certify_at_q1():
    for m in (
        meas({0: Finite(2), 3: Finite(1)}),
        meas({1: Finite(2)}, atoms=(ConstantRay(2, Finite(3)),)),
        meas({}, atoms=(SparseRay(1),)),
        diag_inverse(),
        modulus_data(CompactDiagonal(prefix=(), tail=FactorialSeq()), HALF),
        modulus_data(CompactDiagonal(prefix=(), tail=GeometricSeq(F(1), F(1, 3))), HALF),
        meas({}, atoms=(GeometricRay(2, 3),)),
        meas({}, atoms=(ConstantRay(0, ALEPH0),)),
    ):
        out = condition_s_outcome(m, m, q_max=12)
        assert out.present and out.q_used == 1 and out.delta_prime == m.delta


def test_single_values_three_buckets_apart():
    # Values 3 (bucket -2) and 1/3 (bucket 1): reach 3 is needed and enough.
    out = condition_s_outcome(meas({-2: Finite(1)}), meas({1: Finite(1)}))
    assert out.present and out.q_used == 3 and out.delta_prime == F(1, 8)
    assert check_condition_S(meas({-2: Finite(1)}), meas({1: Finite(1)})) == F(1, 8)


def test_offset_constant_rays():
    a = meas({}, atoms=(ConstantRay(0, Finite(1)),))
    b = meas({}, atoms=(ConstantRay(5, Finite(1)),))
    out = condition_s_outcome(a, b)
    assert out.present and out.q_used == 5 and out.delta_prime == F(1, 32)


def test_infinite_vs_finite_identity_fails():
    out = condition_s_outcome(
        identity_measure(HALF, ALEPH0), identity_measure(HALF, Finite(5)), q_max=12
    )
    assert out.violation is not None and out.violation.side == "left"
    assert out.violation.k == -1
    assert_violation_genuine(
        identity_measure(HALF, ALEPH0), identity_measure(HALF, Finite(5)), out
    )


def test_aleph_levels_are_not_interchangeable():
    a = identity_measure(HALF, ALEPH0)
    b = identity_measure(HALF, Aleph(1))
    out = condition_s_outcome(a, b, q_max=12)
    # The aleph-1 window on the right cannot be absorbed by aleph-0 mass.
    assert out.violation is not None and out.violation.side == "right"
    assert_violation_genuine(a, b, out)


def test_growth_rate_mismatch_is_refuted():
    g2 = meas({}, atoms=(GeometricRay(0, 2),))
    g3 = meas({}, atoms=(GeometricRay(0, 3),))
    out = condition_s_outcome(g2, g3, q_max=12)
    assert out.violation is not None and out.violation.side == "right"
    assert_violation_genuine(g2, g3, out)

    dense = diag_inverse()  # ~2^k per window
    sparse = meas({}, atoms=(SparseRay(0),))  # ~l marks per window
    out = condition_s_outcome(dense, sparse, q_max=12)
    assert out.violation is not None and out.violation.side == "left"
    assert_violation_genuine(dense, sparse, out)


def test_geometric_value_tails_with_different_ratios():
    gh = modulus_data(CompactDiagonal(prefix=(), tail=GeometricSeq(F(1), HALF)), HALF)
    gt = modulus_data(CompactDiagonal(prefix=(), tail=GeometricSeq(F(1), F(1, 3))), HALF)
    out = condition_s_outcome(gh, gt, q_max=12)
    assert out.violation is not None and out.violation.side == "left"
    assert_violation_genuine(gh, gt, out)


def test_uncertified_tail_combinations_raise():
    # Distinct atom families with compatible densities have no certificate:
    # the checker must refuse rather than guess.
    with pytest.raises(UnsupportedTailError):
        condition_s_outcome(meas({}, atoms=(GeometricRay(0, 2),)), diag_inverse(), q_max=12)
    gh = modulus_data(CompactDiagonal(prefix=(), tail=GeometricSeq(F(1), HALF)), HALF)
    with pytest.raises(UnsupportedTailError):
        condition_s_outcome(gh, meas({}, atoms=(ConstantRay(0, Finite(1)),)), q_max=12)


def test_offset_sparse_rules_eventually_separate():
    # Gaps between factorial marks grow without bound, so no fixed widening
    # bridges an offset pair; the checker locates a deep witness window.
    sp0 = meas({}, atoms=(SparseRay(0),))
    sp3 = meas({}, atoms=(SparseRay(3),))
    out = condition_s_outcome(sp0, sp3, q_max=12)
    assert out.violation is not None and out.violation.side == "left"
    assert_violation_genuine(sp0, sp3, out)


def test_delta_mismatch_rejected():
    with pytest.raises(DeltaMismatchError):
        condition_s_outcome(meas({}), meas({}, delta=F(1, 3)))


# ---------------------------------------------------------------------------
# Cutoff form: examples


def test_cutoff_examples():
    diag = diag_inverse()
    out = condition_s_tilde_outcome(diag, diag)
    assert (out.delta_prime, out.n_cutoff, out.q_used) == (HALF, 1, 1)

    # Identities of any value: no mass at buckets k >= 1, vacuously present.
    one = identity_measure(HALF, ALEPH0)
    two = modulus_data(ScaledIdentity(F(2), ALEPH0), HALF)
    out = condition_s_tilde_outcome(one, two)
    assert (out.delta_prime, out.n_cutoff, out.q_used) == (HALF, 1, 1)
    assert check_condition_S_tilde(one, two) == (HALF, 1)


def test_cutoff_cannot_hide_unbounded_small_spectrum():
    # diag(1/n) keeps mass in every deep window; an identity has none there.
    diag, one = diag_inverse(), identity_measure(HALF, ALEPH0)
    out = condition_s_tilde_outcome(diag, one, q_max=12, n_max=12)
    assert out.violation is not None and out.violation.side == "left"
    assert_violation_genuine(diag, one, out, k_min=1)
    out = condition_s_tilde_outcome(one, diag, q_max=12, n_max=12)
    assert out.violation is not None and out.violation.side == "right"
    assert check_condition_S_tilde(diag, one, q_max=12, n_max=12) is None


# ---------------------------------------------------------------------------
# Randomized soundness on finite measures


finite_measures = st.dictionaries(
    st.integers(-3, 5), st.integers(0, 5), max_size=5
).map(lambda d: meas({j: Finite(c) for j, c in d.items()}))


@given(finite_measures, finite_measures)
@settings(max_examples=150)
def test_strong_form_on_finite_measures(a, b):
    # For finitely supported measures the strong condition is equivalent to
    # equal totals: a wide-enough window sees everything on both sides.
    out = condition_s_outcome(a, b)
    assert out.present == (a.total_mass() == b.total_mass())
    idx = list(a.buckets) + list(b.buckets) + [0]
    lo, hi, span = min(idx) - 1, max(idx) + 1, max(idx) - min(idx) + 3
    if out.present:
        assert out.delta_prime == HALF**out.q_used
        assert dominated(a, b, out.q_used, lo, hi, span)
        # Minimality of the certified widening.
        assert out.q_used == 1 or not dominated(a, b, out.q_used - 1, lo, hi, span)
    else:
        assert_violation_genuine(a, b, out)


def test_cutoff_refusal_past_the_scan_horizon_reaches_long_windows():
    # Two per bucket against one: at q = 400 a window [k, k + l - 1] fails
    # only once 2l > l + 800. The cutoff puts every window past the scanned
    # segments, so the stretch beyond them, from N on, must be that long.
    a = meas({}, (ConstantRay(0, Finite(2)),))
    b = meas({}, (ConstantRay(0, Finite(1)),))
    out = condition_s_tilde_outcome(a, b, q_max=400, n_max=1000)
    assert out.violation == conditions.WindowViolation("left", 1000, 801)
    assert_violation_genuine(a, b, out, k_min=1000)


@given(finite_measures, finite_measures)
@settings(max_examples=150)
def test_cutoff_form_on_finite_measures(a, b):
    # With a cutoff available, finitely supported measures always comply:
    # pushing N past both supports leaves nothing to dominate.
    out = condition_s_tilde_outcome(a, b)
    assert out.present and out.q_used == 1
    idx = list(a.buckets) + list(b.buckets) + [0]
    lo, hi, span = min(idx) - 1, max(idx) + 1, max(idx) - min(idx) + 3
    assert dominated(a, b, 1, lo, hi, span, k_min=out.n_cutoff)
    # Minimality of the cutoff at the certified widening.
    if out.n_cutoff > 1:
        assert not dominated(a, b, 1, lo, hi, span, k_min=out.n_cutoff - 1)


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 2))
@settings(max_examples=80)
def test_aleph_point_distance_sets_the_reach(ja, jb, level):
    a = meas({ja: Aleph(level)})
    b = meas({jb: Aleph(level)})
    out = condition_s_outcome(a, b)
    assert out.present
    assert out.q_used == max(1, abs(ja - jb))


point_measures = st.dictionaries(
    st.integers(-4, 8),
    st.one_of(st.integers(0, 5).map(Finite), st.sampled_from([ALEPH0, Aleph(1)])),
    max_size=6,
).map(meas)


@given(point_measures, point_measures, st.integers(1, 3), st.sampled_from([None, 0, 3]))
@settings(max_examples=300, deadline=None)
def test_segments_between_infinite_points_match_brute_force(a, b, q, k_min):
    # Windows whose widening reaches an infinite bucket of b are dominated and
    # those holding one of a's are settled by coverage; the segments cut out
    # between them must hold every other window.
    out = conditions._outcome_at(*conditions._prepare(a, b), q, k_min)
    idx = list(a.buckets) + list(b.buckets) + [0]
    lo, hi, span = min(idx) - 1, max(idx) + 1, max(idx) - min(idx) + 3
    assert out.present == dominated(a, b, q, lo, hi, span, k_min)
    if not out.present:
        assert_violation_genuine(a, b, out, k_min)


# ---------------------------------------------------------------------------
# Consistency between the two forms under identity augmentation


def test_augmentation_consistency_examples():
    diag = diag_inverse()
    one = identity_measure(HALF, ALEPH0)
    two = meas({-2: ALEPH0})
    assert lemma_s_tilde_consistency(diag, diag, (ALEPH0, ALEPH0))
    assert lemma_s_tilde_consistency(one, two, (ALEPH0, ALEPH0))
    # Negative case: both forms must refuse together.
    assert lemma_s_tilde_consistency(diag, one, (ALEPH0, ALEPH0))
    assert lemma_s_tilde_consistency(
        meas({0: Finite(2)}), meas({1: Finite(2)}), (Finite(3), Finite(3))
    )


# ---------------------------------------------------------------------------
# Count arrays against the direct sum they replace


def _atom_cum(atom, h: int, delta: F) -> int:
    """Count contributed by a finite-count atom to buckets <= h."""
    if isinstance(atom, ConstantRay):
        return max(0, h - atom.start + 1) * atom.count.n
    if isinstance(atom, GeometricRay):
        if h < atom.start:
            return 0
        b = atom.base
        return (b ** (h + 1) - b**atom.start) // (b - 1)
    if isinstance(atom, SparseRay):
        return sparse_rule_count(delta, atom.start, h)
    if isinstance(atom, SeqRay):
        return atom.span.cum_to_bucket(delta, h)
    raise TypeError(f"unknown atom {atom!r}")


def oracle_cum(m, h):
    """Finite count in buckets <= h: explicit counts plus each atom's own sum."""
    total = sum(c.n for j, c in m.buckets.items() if j <= h and not isinstance(c, Aleph))
    for a in m.atoms:
        if not (isinstance(a, ConstantRay) and isinstance(a.count, Aleph)):
            total += _atom_cum(a, h, m.delta)
    return total


count_atoms = st.one_of(
    st.builds(ConstantRay, st.integers(-4, 6), st.sampled_from([Finite(1), Finite(3), ALEPH0])),
    st.builds(GeometricRay, st.integers(0, 4), st.integers(2, 3)),
    st.builds(SparseRay, st.integers(0, 4)),
    st.builds(
        lambda model, start, mult: SeqRay(SeqSpan(model, start, mult)),
        st.sampled_from(
            [
                PowerSeq(F(1), F(1)),
                PowerSeq(F(8), F(2)),  # values up to 8: negative buckets
                GeometricSeq(F(3), F(1, 3)),
                FactorialSeq(),
            ]
        ),
        st.integers(1, 3),
        st.integers(1, 2),
    ),
)
count_measures = st.builds(
    lambda buckets, atoms: meas(buckets, tuple(atoms)),
    st.dictionaries(
        st.integers(-6, 8), st.sampled_from([Finite(1), Finite(2), Finite(5), ALEPH0]), max_size=4
    ),
    st.lists(count_atoms, max_size=2),
)


@given(
    count_measures,
    # Queries in any order, below base and far above the last feature.
    st.lists(st.integers(-12, 40) | st.sampled_from([-200, 150, 300]), min_size=1, max_size=12),
    st.integers(-12, 40),
    st.integers(-2, 30),
)
@settings(max_examples=120, deadline=None)
def test_count_array_matches_direct_sum(m, hs, lo, width):
    side = conditions._Side(m)
    for h in hs:
        assert side.cum_range(h, h) == [oracle_cum(m, h)]
    assert side.cum_range(side.base, side.base) == [0]
    hi = lo + width - 1  # width 0 and below: an empty range
    assert side.cum_range(lo, hi) == [oracle_cum(m, h) for h in range(lo, hi + 1)]


fact_counts = st.one_of(
    st.integers(0, 4),  # plain ints are coerced, zeros dropped
    st.integers(0, 4).map(Finite),
    st.integers(0, 2).map(Aleph),
)
fact_atoms = st.one_of(
    st.builds(ConstantRay, st.integers(-4, 12), st.integers(1, 3).map(Finite)),
    st.builds(ConstantRay, st.integers(-4, 12), st.integers(0, 2).map(Aleph)),
    st.builds(
        lambda model, start, mult: SeqRay(SeqSpan(model, start, mult)),
        st.sampled_from([PowerSeq(F(1), F(1)), GeometricSeq(F(1), F(1, 3)), FactorialSeq()]),
        st.integers(1, 4),
        st.integers(1, 2),
    ),
)


@given(
    st.dictionaries(st.integers(-6, 14), fact_counts, max_size=6),
    st.lists(fact_atoms, max_size=3),
    st.one_of(st.integers(0, 3).map(Finite), st.integers(0, 2).map(Aleph)),
    st.one_of(st.integers(0, 3).map(Finite), st.integers(0, 2).map(Aleph)),
)
@settings(max_examples=150, deadline=None)
def test_recorded_facts_match_a_recomputation(given_buckets, atoms, kernel, cokernel):
    m = BucketMeasure(HALF, given_buckets, tuple(atoms), kernel, cokernel)
    assert set(m.buckets) == {j for j, c in given_buckets.items() if c not in (0, Finite(0))}

    def infinite_ray(a):
        return isinstance(a, ConstantRay) and isinstance(a.count, Aleph)

    finite = {j: c.n for j, c in m.buckets.items() if isinstance(c, Finite)}
    points = sorted((j, c.level) for j, c in m.buckets.items() if isinstance(c, Aleph))
    rays = sorted((a.start, a.count.level) for a in m.atoms if infinite_ray(a))
    # Every atom covers infinitely many nonempty buckets.
    mass = card_sum([*m.buckets.values(), *(a.count if infinite_ray(a) else ALEPH0 for a in m.atoms)])
    assert m.aleph_points() == points and m.aleph_rays() == rays
    assert m.total_mass() == mass
    assert m.is_compact() == (not points and not rays)
    assert m.domain_dim() == card_add(mass, kernel)
    assert m.codomain_dim() == card_add(mass, cokernel)
    # The methods hand out fresh lists.
    m.aleph_points().append((99, 0))
    m.aleph_rays().append((99, 0))
    assert m.aleph_points() == points and m.aleph_rays() == rays

    side = conditions._Side(m)
    firsts = [*finite, *(a.first_bucket(HALF) for a in m.atoms if not infinite_ray(a))]
    structural = firsts + [j for j, _ in points] + [s for s, _ in rays]
    assert side.finite_explicit == finite and side.explicit_total == sum(finite.values())
    assert list(side.aleph_points) == points and list(side.aleph_rays) == rays
    assert side.aleph_ray_start == min((s for s, _ in rays), default=None)
    assert side.base == (min(firsts) - 1 if firsts else 0)
    assert sorted(side.structural) == sorted(structural)
    assert side.first_structural == min(structural, default=None)
    assert side.last_structural == max(structural, default=None)
    assert side.last_explicit == max(finite, default=None)
    assert side.last_aleph == max((j for j, _ in points), default=None)


def test_growing_a_power_tail_side_counts_no_bucket_by_bucket(monkeypatch):
    calls = []
    real = tails.count_ge

    def counting(model, start, t):
        calls.append(t)
        return real(model, start, t)

    monkeypatch.setattr(tails, "count_ge", counting)
    made = []
    for depth in (20, 200, 2000):
        calls.clear()
        side = conditions._Side(meas({}, (SeqRay(SeqSpan(PowerSeq(F(1), F(1)))),)))
        [top] = side.cum_range(side.base + depth, side.base + depth)
        assert top == 2 ** (side.base + depth + 1)  # values 1/n >= 2^-(h+1)
        made.append(len(calls))
    assert made[0] == made[1] == made[2]


def test_first_buckets_are_found_once_per_side(monkeypatch):
    calls = []
    for cls in (ConstantRay, GeometricRay, SparseRay, SeqRay):

        def counting(self, delta, real=cls.first_bucket):
            calls.append(self)
            return real(self, delta)

        monkeypatch.setattr(cls, "first_bucket", counting)
    checks = []
    real_check = conditions._check_both
    monkeypatch.setattr(
        conditions, "_check_both", lambda *args: checks.append(args[2]) or real_check(*args)
    )
    a = meas({2: Finite(1)}, (SeqRay(SeqSpan(PowerSeq(F(1), F(1)))),))
    b = meas({}, (SeqRay(SeqSpan(PowerSeq(F(1, 8), F(1)))),))
    out = condition_s_outcome(a, b, q_max=16)
    assert out.present and len(set(checks)) > 2  # several widenings tried
    assert calls == [a.atoms[0], b.atoms[0]]


def test_tail_facts_are_computed_once_per_side(monkeypatch):
    calls = []
    for name in ("_ray_like", "_rule_density"):
        real = getattr(conditions, name)
        monkeypatch.setattr(
            conditions, name, lambda x, *rest, real=real: calls.append(x) or real(x, *rest)
        )
    checks = []
    real_check = conditions._check_both
    monkeypatch.setattr(
        conditions, "_check_both", lambda *args: checks.append(args[2]) or real_check(*args)
    )
    a = meas({2: Finite(3), 5: Finite(4)}, (SeqRay(SeqSpan(PowerSeq(F(1), F(1)))),))
    b = meas({}, (SeqRay(SeqSpan(PowerSeq(F(1, 8), F(1)))),))
    sa, sb = conditions._prepare(a, b)
    assert (sa.explicit_total, sb.explicit_total) == (7, 0)
    assert sa.spans == [a.atoms[0].span] and sb.densities == [("exp_root", F(1))]
    calls.clear()
    out = condition_s_outcome(a, b, q_max=16)
    assert out.present and len(set(checks)) > 2  # several widenings tried
    assert calls == [a.atoms[0], a.atoms[0], b.atoms[0], b.atoms[0]]


# ---------------------------------------------------------------------------
# Galloping search against the linear search it replaces


def linear_s(a, b, q_max=64):
    """Check q_max, then every q from 1 upward."""
    sa, sb = conditions._prepare(a, b)
    worst = conditions._outcome_at(sa, sb, q_max, None)
    if worst.violation is not None:
        return worst
    for q in range(1, q_max + 1):
        out = conditions._outcome_at(sa, sb, q, None)
        if out.present:
            return out
    raise UnsupportedTailError(
        worst.unsupported
        or "window domination neither certified nor refuted within the search caps"
    )


def linear_s_tilde(a, b, q_max=64, n_max=64):
    """Check (q_max, n_max), then every q from 1 upward; bisect N at the first
    q that works."""
    sa, sb = conditions._prepare(a, b)
    worst = conditions._outcome_at(sa, sb, q_max, n_max)
    if worst.violation is not None:
        return conditions.ConditionOutcome(
            q_used=worst.q_used, n_cutoff=n_max, violation=worst.violation
        )
    unsupported = worst.unsupported
    for q in range(1, q_max + 1):
        wide = conditions._outcome_at(sa, sb, q, n_max)
        if wide.unsupported is not None:
            unsupported = wide.unsupported
            continue
        if not wide.present:
            continue
        lo, hi, best = 1, n_max, n_max
        while lo <= hi:
            mid = (lo + hi) // 2
            if conditions._outcome_at(sa, sb, q, mid).present:
                best, hi = mid, mid - 1
            else:
                lo = mid + 1
        return conditions.ConditionOutcome(
            delta_prime=conditions.pow_delta(a.delta, q), n_cutoff=best, q_used=q
        )
    raise UnsupportedTailError(
        unsupported
        or "cutoff window domination neither certified nor refuted within the search caps"
    )


def search_result(search, *args):
    """(q_used, n_cutoff, violation) of an outcome, or the refusal's note."""
    try:
        out = search(*args)
    except UnsupportedTailError as e:
        return str(e)
    return (out.q_used, out.n_cutoff, out.violation)


def test_galloping_search_matches_linear_on_acceptance_generators(monkeypatch):
    # Record every search that criteria 5, 9 and 10 make, through the engine
    # and through lemma_s_tilde_consistency, with the result it gave.
    searches = {"S": conditions.condition_s_outcome, "S~": conditions.condition_s_tilde_outcome}
    seen = {}

    def recorder(name):
        def search(*args):
            key = (name, repr(args))
            try:
                out = searches[name](*args)
            except UnsupportedTailError as e:
                seen.setdefault(key, (name, args, str(e)))
                raise
            seen.setdefault(key, (name, args, (out.q_used, out.n_cutoff, out.violation)))
            return out

        return search

    for module in (conditions, engine):
        monkeypatch.setattr(module, "condition_s_outcome", recorder("S"))
        monkeypatch.setattr(module, "condition_s_tilde_outcome", recorder("S~"))
    acceptance.test_criterion_05()
    acceptance.test_criterion_09()
    acceptance.test_criterion_10()
    monkeypatch.undo()

    linear = {"S": linear_s, "S~": linear_s_tilde}
    deep = 0
    for name, args, result in seen.values():
        assert result == search_result(linear[name], *args), (name, args)
        deep += isinstance(result, tuple) and result[2] is None and result[0] >= 3
    # The generators reach the bisection, not only q = 1 and refusals.
    assert len(seen) > 1000 and deep > 100


def test_uncertified_q_max_refuses_with_its_own_note(monkeypatch):
    # No certificate at q_max: the search stops after that one check, and the
    # refusal carries the note the linear search ends with.
    a = meas({}, atoms=(GeometricRay(0, 2),))
    b = diag_inverse()
    calls = []
    check = conditions._check_both

    def counted(sa, sb, q, k_min):
        calls.append(q)
        return check(sa, sb, q, k_min)

    monkeypatch.setattr(conditions, "_check_both", counted)
    for search, oracle, args in (
        (condition_s_outcome, linear_s, (a, b, 12)),
        (condition_s_tilde_outcome, linear_s_tilde, (a, b, 12, 12)),
    ):
        calls.clear()
        note = search_result(search, *args)
        assert calls == [12]
        assert isinstance(note, str) and note == search_result(oracle, *args)


def test_both_searches_gallop_from_one_then_bisect(monkeypatch):
    calls = []
    check = conditions._check_both
    monkeypatch.setattr(
        conditions, "_check_both", lambda sa, sb, q, k: calls.append((q, k)) or check(sa, sb, q, k)
    )
    # Infinite points five buckets apart certify from q = 5 on.
    out = condition_s_outcome(meas({0: ALEPH0}), meas({5: ALEPH0}), q_max=16)
    assert out.q_used == 5
    assert [q for q, _ in calls] == [16, 1, 2, 4, 8, 6, 5]
    # One value at bucket 3 against nothing: q = 1 holds from N = 4 on.
    calls.clear()
    out = condition_s_tilde_outcome(meas({3: Finite(1)}), meas({}), q_max=16, n_max=16)
    assert (out.q_used, out.n_cutoff) == (1, 4)
    assert calls == [(16, 16), (1, 16), (1, 1), (1, 2), (1, 4), (1, 3)]


cutoff_measures = st.builds(
    lambda buckets, rays: meas(buckets, tuple(rays)),
    st.dictionaries(
        st.integers(-3, 20), st.one_of(st.integers(1, 6).map(Finite), st.just(ALEPH0)), max_size=5
    ),
    st.lists(
        st.builds(ConstantRay, st.integers(-3, 20), st.sampled_from([Finite(1), Finite(2), ALEPH0])),
        max_size=2,
    ),
)


@given(cutoff_measures, cutoff_measures, st.integers(1, 16), st.integers(1, 16))
@settings(max_examples=200, deadline=None)
def test_galloping_cutoff_search_matches_bisection_on_random_pairs(a, b, q_max, n_max):
    # The search gallops N from 1 where the oracle bisects [1, n_max]; both
    # rest on presence being monotone in N, so a disagreement would show a
    # pair where it is not.
    args = (a, b, q_max, n_max)
    assert search_result(condition_s_tilde_outcome, *args) == search_result(linear_s_tilde, *args)


@given(cutoff_measures, cutoff_measures, st.integers(1, 16))
@settings(max_examples=200, deadline=None)
def test_galloping_strong_search_matches_linear_on_random_pairs(a, b, q_max):
    args = (a, b, q_max)
    assert search_result(condition_s_outcome, *args) == search_result(linear_s, *args)


# ---------------------------------------------------------------------------
# The covering floor the q search starts from


@st.composite
def far_apart_pairs(draw):
    """The same counts on both sides, each of b's buckets moved up to 30
    buckets past a's, so that single-bucket windows need wide widenings."""
    counts = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    gap = draw(st.integers(1, 8))
    shifts = draw(st.lists(st.integers(0, 30), min_size=len(counts), max_size=len(counts)))
    a = {40 + i * gap: c for i, c in enumerate(counts)}
    b = {}
    for (j, c), s in zip(a.items(), shifts):
        b[j + s] = b.get(j + s, 0) + c
    a, b = ({j: Finite(c) for j, c in m.items()} for m in (a, b))
    atoms = draw(st.sampled_from([(), (ConstantRay(140, Finite(2)),), (GeometricRay(140, 2),)]))
    if draw(st.booleans()):
        a[-1] = b[-1] = ALEPH0
    return meas(a, atoms), meas(b, atoms)


@given(far_apart_pairs(), st.integers(1, 48), st.sampled_from([None, 1, 30, 48]))
@settings(max_examples=120, deadline=None)
def test_covering_floor_is_never_certified(pair, q_max, n_max):
    a, b = pair
    sa, sb = conditions._prepare(a, b)
    if not conditions._outcome_at(sa, sb, q_max, n_max).present:
        return
    f = conditions._covering_floor(sa, sb, q_max, n_max)
    assert 0 <= f < q_max
    if f >= 1:
        assert not conditions._outcome_at(sa, sb, f, n_max).present
        explicit = sorted(set(a.buckets) | set(b.buckets))
        assert any(not dominated(a, b, f, j, j, 1, n_max) for j in explicit)
    # Starting there changes no answer of either search.
    if n_max is None:
        assert search_result(condition_s_outcome, a, b, q_max) == search_result(linear_s, a, b, q_max)
    else:
        args = (a, b, q_max, n_max)
        assert search_result(condition_s_tilde_outcome, *args) == search_result(linear_s_tilde, *args)


@pytest.mark.parametrize("q_max", [32, 40, 48])
def test_shifted_block_needs_two_widenings(monkeypatch, q_max):
    # The window-scan benchmark's shape: a 16-bucket block shifted by
    # q_max - 1 against itself, an infinite bucket at -1 and the same
    # geometric ray on each side. Only q_max - 1 covers the block's last
    # bucket, so the floor is q_max - 2 and the q search checks once.
    calls = []
    check = conditions._check_both
    monkeypatch.setattr(
        conditions, "_check_both", lambda sa, sb, q, k: calls.append((q, k)) or check(sa, sb, q, k)
    )
    block = [3, 1, 6, 2, 5, 5, 1, 4, 2, 6, 3, 1, 2, 4, 6, 1]
    k0, shift = q_max + 6, q_max - 1
    ray = (GeometricRay(k0 + shift + len(block) + q_max + 8, 2),)

    def side(at):
        return meas({-1: ALEPH0, **{at + i: Finite(c) for i, c in enumerate(block)}}, ray)

    t, s = side(k0), side(k0 + shift)
    assert condition_s_outcome(t, s, q_max).q_used == q_max - 1
    assert calls == [(q_max, None), (q_max - 1, None)]
    calls.clear()
    out = condition_s_tilde_outcome(t, s, q_max, 16)
    assert (out.q_used, out.n_cutoff) == (q_max - 1, 1)
    assert calls == [(q_max, 16), (q_max - 1, 16), (q_max - 1, 1)]


# ---------------------------------------------------------------------------
# Segment scan against direct window counts


def window(m, k, h):
    """Finite count in buckets [k, h], from the direct sums."""
    return oracle_cum(m, h) - oracle_cum(m, k - 1)


def lex_first_violation(a, b, q, k_lo, seg_hi):
    """Least k, then least length, of a window [k, h] inside [k_lo, seg_hi]
    whose count exceeds b's widened window [k - q, h + q]."""
    for k in range(k_lo, seg_hi + 1):
        for h in range(k, seg_hi + 1):
            if window(a, k, h) > window(b, k - q, h + q):
                return (k, h - k + 1)
    return None


finite_atoms = st.one_of(
    st.builds(ConstantRay, st.integers(-4, 6), st.sampled_from([Finite(1), Finite(2), Finite(3)])),
    st.builds(GeometricRay, st.integers(0, 4), st.integers(2, 3)),
    st.builds(SparseRay, st.integers(0, 4)),
    st.builds(
        lambda model, start, mult: SeqRay(SeqSpan(model, start, mult)),
        st.sampled_from([PowerSeq(F(1), F(1)), PowerSeq(F(8), F(2)), FactorialSeq()]),
        st.integers(1, 3),
        st.integers(1, 2),
    ),
)
finite_measures = st.builds(
    lambda buckets, atoms: meas(buckets, tuple(atoms)),
    st.dictionaries(st.integers(-6, 12), st.sampled_from([Finite(1), Finite(2), Finite(5)]), max_size=4),
    st.lists(finite_atoms, max_size=2),
)


@given(
    finite_measures,
    finite_measures,
    st.sampled_from([1, 2, 5]),
    st.integers(-10, 14),
    st.integers(0, 24),
    st.sampled_from([None, 3]),
)
@settings(max_examples=150, deadline=None)
def test_segment_scan_matches_direct_window_counts(a, b, q, seg_lo, width, k_min):
    seg_hi = seg_lo + width
    k_lo = seg_lo if k_min is None else max(seg_lo, k_min)
    hit, v_min = conditions._scan_segment(
        conditions._Side(a), conditions._Side(b), q, seg_lo, seg_hi, k_min
    )
    if k_lo > seg_hi:
        assert (hit, v_min) == (None, 0)
        return
    assert hit == lex_first_violation(a, b, q, k_lo, seg_hi)
    v = [oracle_cum(a, m) - oracle_cum(b, m - q) for m in range(k_lo - 1, seg_hi + 1)]
    assert v_min == min(v)


finite_counts = st.dictionaries(st.integers(-4, 10), st.integers(1, 5), max_size=6)


@given(finite_counts, finite_counts, st.integers(-6, 6), st.integers(0, 14))
@settings(max_examples=200, deadline=None)
def test_segment_scan_and_matcher_scan_agree_at_widening_one(ca, cb, seg_lo, width):
    # The matcher's hypotheses are the segment windows at q = 1: dense arrays
    # over [seg_lo - 1, seg_hi + 1] hold every count either scan reads.
    seg_hi = seg_lo + width
    lo = seg_lo - 1
    dense = [[c.get(j, 0) for j in range(lo, seg_hi + 2)] for c in (ca, cb)]
    got = _matchcore_py.verify_windows(*dense, 1, width + 1, width + 1)
    expected = None if got is None else (got[0] + lo, got[1])
    sides = [conditions._Side(meas({j: Finite(n) for j, n in c.items()})) for c in (ca, cb)]
    hit, _ = conditions._scan_segment(*sides, 1, seg_lo, seg_hi, None)
    assert hit == expected


def test_long_segment_scan_matches_the_scan_over_grown_arrays():
    cases = Counter()

    @given(
        finite_measures,
        finite_measures,
        st.sampled_from([1, 2, 5]),
        st.integers(-10, 14),
        st.integers(40, 400),
        st.sampled_from([None, 3]),
        st.integers(0, 6),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def check(a, b, q, seg_lo, width, k_min, heavy):
        # A heavy bucket of a at the segment's start makes its first start
        # fail in some draws.
        a = replace(a, buckets={**a.buckets, seg_lo: Finite(heavy)}) if heavy else a
        seg_hi = seg_lo + width
        k_lo = seg_lo if k_min is None else max(seg_lo, k_min)
        full_a, full_b = conditions._Side(a), conditions._Side(b)
        ca = full_a.cum_range(k_lo - 1, seg_hi)
        cb = full_b.cum_range(k_lo - 1 - q, seg_hi + q)
        v = list(map(sub, ca, cb))
        expected = _matchcore_py.first_window(list(map(sub, ca[1:], cb[2 * q + 1 :])), v)
        expected = None if expected is None else (k_lo + expected[0], expected[1])

        sa, sb = conditions._Side(a), conditions._Side(b)
        hit, v_min = conditions._scan_segment(sa, sb, q, seg_lo, seg_hi, k_min)
        assert hit == expected
        if hit is None:
            cases["no window"] += 1
            assert v_min == min(v)
        elif hit[0] == k_lo and seg_hi - k_lo + 1 > 2 * (2 * q + 16):
            # A segment longer than two first prefixes (2q + 16 buckets
            # each) is counted only out to the doubling prefix that holds
            # the hit: less than twice its length past k_lo, plus the first
            # prefix.
            cases["long, first start"] += 1
            reach = k_lo - 1 + 2 * hit[1] + 2 * q + 16
            assert sa.base + len(sa.cum) - 1 < reach
            assert sb.base + len(sb.cum) - 1 < reach + q

    check()
    checked = sum(cases.values())
    for case in ("no window", "long, first start"):
        assert cases[case] >= checked // 25, cases


def test_long_segment_scan_finds_a_later_start_from_its_prefixes():
    # a's 50 values at bucket 40 fit in b's widened window only while it
    # reaches b's 50 at bucket 0, so no window starting at 0 or 1 fails,
    # and [2, 40] is the first that does. The prefixes tried at start 0
    # find nothing, and the full scan over their counts finds it.
    ma, mb = meas({40: Finite(50)}), meas({0: Finite(50)})
    hit, _ = conditions._scan_segment(conditions._Side(ma), conditions._Side(mb), 1, 0, 300, None)
    assert hit == (2, 39) == lex_first_violation(ma, mb, 1, 0, 300)


@pytest.mark.parametrize("q, expected", [(1, (10, 3)), (100, (10, 111))])
def test_segment_scan_on_constant_densities(q, expected):
    # Two per bucket against one per bucket: the window [10, 9 + l] holds 2l
    # against b's l + 2q when b's widened window stays inside b's ray, and
    # l + 10 + q once it reaches below bucket 0.
    ma = meas({}, atoms=(ConstantRay(0, Finite(2)),))
    mb = meas({}, atoms=(ConstantRay(0, Finite(1)),))
    hit, _ = conditions._scan_segment(conditions._Side(ma), conditions._Side(mb), q, 10, 209, None)
    assert hit == expected
    assert lex_first_violation(ma, mb, q, 10, 209) == expected


@pytest.mark.parametrize("b_bucket, expected", [(8, (10, 1)), (9, None), (11, None), (12, (5, 6))])
def test_segment_scan_reaches_both_edges_of_the_widening(b_bucket, expected):
    # Bucket 10 of a holds 3; b's widened window [9, 11] must hold them. With
    # b at 12, the window [5, 10] already fails against b's [4, 11].
    ma, mb = meas({10: Finite(3)}), meas({b_bucket: Finite(3)})
    hit, _ = conditions._scan_segment(conditions._Side(ma), conditions._Side(mb), 1, 5, 14, None)
    assert hit == expected
    assert lex_first_violation(ma, mb, 1, 5, 14) == expected


# ---------------------------------------------------------------------------
# Eventual-domination bounds against the ladder of depths they settle at once


def deepest_rung(x, y, q, delta, h_from, offset):
    """Whether the envelope bound holds at the deepest rung, the one depth
    h_from + 47 * max(4, q); _span_dom's depth searches end there."""
    h0 = h_from + 47 * max(4, q)
    return conditions._span_depth(x, y, q, delta, h0, h0, offset) is not None


def span_dom_ladder(x, y, q, delta, h_from, offset):
    """The bound tried at each of the 48 depths h_from + t * max(4, q)."""
    rungs = range(h_from, h_from + 48 * max(4, q), max(4, q))
    return first_holding_rung(x, y, q, delta, rungs, offset) is not None


def first_holding_rung(x, y, q, delta, rungs, offset):
    """The first of the depths ``rungs`` at which the envelope bound holds,
    with both counts made there, or None."""
    mx, my = x.model, y.model
    sx, sy = x.start, y.start
    ax, ay = x.mult, y.mult
    c0 = ay * sy - ax * sx + ax

    def count_x(h0):
        return x.count_ge(pow_delta(delta, h0 + 1)) // ax

    def count_y(h0):
        return y.count_ge(pow_delta(delta, h0 + q + 1)) // ay

    def ladder(bound_ok):
        for h0 in rungs:
            nx = count_x(h0)
            if nx < 1 or count_y(h0) < 1:
                continue
            if bound_ok(h0, nx):
                return h0
        return None

    if isinstance(mx, PowerSeq) and isinstance(my, PowerSeq) and mx.p == my.p:
        p = mx.p
        big_r = (F(my.c) / F(mx.c)) * pow_delta(delta, -q)
        rho_lo = ratio_root_lower(big_r**p.denominator, p.numerator)
        eps = ay * rho_lo - ax
        if eps <= 0:
            return None
        return ladder(lambda h0, nx: F(nx + sx - 1) * eps - c0 >= offset)

    if isinstance(mx, GeometricSeq) and isinstance(my, GeometricSeq) and mx.r == my.r:
        if ay < ax:
            return None
        big_r = (F(my.c) / F(mx.c)) * pow_delta(delta, -q)
        x_lo = _floor_log(big_r, 1 / mx.r)
        return ladder(lambda h0, nx: (ay - ax) * (nx + sx - 1) + ay * x_lo - c0 >= offset)

    if isinstance(mx, FactorialSeq) and isinstance(my, FactorialSeq):
        if ay < ax:
            return None

        def ok(h0, nx):
            n_star = nx + sx - 1
            return ay * (n_star - sy + 1) - ax * (n_star - sx + 1) >= offset

        return ladder(ok)

    return None


span_consts = st.sampled_from([F(1, 8), F(1, 3), F(1), F(2), F(3), F(7, 2), F(100)])


@st.composite
def span_dom_pairs(draw):
    family = draw(st.sampled_from(["power", "geometric", "factorial", "mixed"]))
    if family == "power":
        p = draw(st.sampled_from([F(1), F(5, 2), F(2, 3), F(3)]))
        mx, my = PowerSeq(draw(span_consts), p), PowerSeq(draw(span_consts), p)
    elif family == "geometric":
        r = draw(st.sampled_from([F(1, 3), F(3, 5), F(9, 10)]))
        mx, my = GeometricSeq(draw(span_consts), r), GeometricSeq(draw(span_consts), r)
    elif family == "factorial":
        mx = my = FactorialSeq()
    else:
        mx, my = PowerSeq(F(1), F(1)), GeometricSeq(F(1), F(1, 2))
    spans = [SeqSpan(m, draw(st.integers(1, 20)), draw(st.integers(1, 3))) for m in (mx, my)]
    return spans[0], spans[1]


@given(
    span_dom_pairs(),
    st.integers(1, 64),
    st.sampled_from([F(1, 2), F(2, 3), F(1, 10)]),
    st.integers(-40, 60),
    st.integers(-300, 300),
)
@settings(max_examples=300, deadline=None)
def test_span_dom_matches_the_ladder(pair, q, delta, h_from, offset):
    x, y = pair
    expected = span_dom_ladder(x, y, q, delta, h_from, offset)
    assert deepest_rung(x, y, q, delta, h_from, offset) == expected
    assert deepest_rung(y, x, q, delta, h_from, -offset) == span_dom_ladder(
        y, x, q, delta, h_from, -offset
    )


def deepest_rung_bounds(q, h_from):
    """(x, y, largest certified offset) for one pair of each family at
    delta = 1/2, worked out by hand at the depth h0 = h_from + 47 * max(4, q)."""
    h0 = h_from + 47 * max(4, q)
    # x: 2^-n, y: twice each of 2^-n. x counts h0 + 1 terms; the bound is
    # (2 - 1) * (h0 + 1) + 2 * floor(log2(2^q)) - c0, with c0 = 2 - 1 + 1.
    geometric = (
        SeqSpan(GeometricSeq(F(1), F(1, 2))),
        SeqSpan(GeometricSeq(F(1), F(1, 2)), 1, 2),
        h0 + 1 + 2 * q - 2,
    )
    # x: 1/n, y: 2/n. x counts 2^(h0 + 1) terms, y/x's ratio is 2^(q + 1),
    # so eps = 2^(q + 1) - 1, and c0 = 1.
    power = (
        SeqSpan(PowerSeq(F(1), F(1))),
        SeqSpan(PowerSeq(F(2), F(1))),
        2 ** (h0 + 1) * (2 ** (q + 1) - 1) - 1,
    )
    # x: 1/n!, y: twice each. The bound is 2n - n = n for the largest n with
    # n! <= 2^(h0 + 1).
    n = 1
    while tails.factorial(n + 1) <= 2 ** (h0 + 1):
        n += 1
    factorial_pair = (SeqSpan(FactorialSeq()), SeqSpan(FactorialSeq(), 1, 2), n)
    return [geometric, power, factorial_pair]


@pytest.mark.parametrize("q", [1, 4, 9])
@pytest.mark.parametrize("h_from", [-30, 0, 17])
def test_span_dom_certifies_up_to_the_deepest_rung_bound(q, h_from):
    for x, y, bound in deepest_rung_bounds(q, h_from):
        for dom in (deepest_rung, span_dom_ladder):
            assert dom(x, y, q, HALF, h_from, bound)
            assert not dom(x, y, q, HALF, h_from, bound + 1)


def test_span_dom_refuses_a_gap_below_its_deepest_rung():
    # The bound holds at the deepest rung, but the differences at h = 4..10
    # lie below the offset 118; _span_dom's search between h_from and that
    # rung gives the first depth that holds, 11, where the difference is 128.
    x = SeqSpan(PowerSeq(F(7, 2), F(3)), 17, 2)
    y = SeqSpan(PowerSeq(F(1, 8), F(3)), 3, 3)
    gaps = [
        y.count_ge(pow_delta(HALF, h + 9)) - x.count_ge(pow_delta(HALF, h + 1)) for h in range(4, 12)
    ]
    assert gaps == [24, 30, 42, 54, 69, 90, 108, 128]
    assert deepest_rung(x, y, 8, HALF, 4, 118)
    assert conditions._span_depth(x, y, 8, HALF, 4, 4 + 47 * 8, 118) == 11


def test_span_dom_counts_at_most_twice(monkeypatch):
    calls = []
    real = tails.count_ge

    def counting(model, start, t):
        calls.append(t)
        return real(model, start, t)

    monkeypatch.setattr(tails, "count_ge", counting)
    for x, y, bound in deepest_rung_bounds(4, 0):
        for offset in (bound, bound + 1, -(10**6)):  # certified, refused, certified
            calls.clear()
            deepest_rung(x, y, 4, HALF, 0, offset)
            assert len(calls) <= 2


@given(
    span_dom_pairs(),
    st.integers(1, 64),
    st.sampled_from([F(1, 2), F(2, 3), F(1, 10)]),
    st.integers(-40, 60),
    st.integers(0, 120),
    st.integers(-300, 300),
)
@settings(max_examples=150, deadline=None)
def test_span_depth_is_the_first_rung_that_holds(pair, q, delta, h_lo, width, offset):
    x, y = pair
    h_top = h_lo + width
    for u, v, off in ((x, y, offset), (y, x, -offset)):
        expected = first_holding_rung(u, v, q, delta, range(h_lo, h_top + 1), off)
        assert conditions._span_depth(u, v, q, delta, h_lo, h_top, off) == expected


@pytest.mark.parametrize("h_lo", [-40, 0, 1, 90, 187, 188])
def test_span_depth_counts_once_per_halving(monkeypatch, h_lo):
    # One count per depth tried: h_lo, the deepest rung, then a galloping
    # search between them, so at most 2 * (ceil(log2(h_top - h_lo + 2)) + 1).
    h_top = 47 * 4
    limit = 2 * ((h_top - h_lo + 1).bit_length() + 1)
    depths = range(h_lo, h_top + 1)
    calls = []
    real = tails.count_ge

    def counting(model, start, t):
        calls.append(t)
        return real(model, start, t)

    for d in [*range(max(h_lo, 0), h_top, 23), h_top]:
        # Each pair's largest offset certified at depth d, one more, and none.
        for x, y, bound in deepest_rung_bounds(4, d - h_top):
            for offset in (bound, bound + 1, -(10**6)):
                expected = first_holding_rung(x, y, 4, HALF, depths, offset)
                calls.clear()
                with monkeypatch.context() as mp:
                    mp.setattr(tails, "count_ge", counting)
                    got = conditions._span_depth(x, y, 4, HALF, h_lo, h_top, offset)
                assert got == expected and len(calls) <= limit
                if offset == bound:
                    assert got is not None and got <= d


def test_left_violation_skips_the_right_direction(monkeypatch):
    # Only the probe runs _check_direction, on sa alone; _locate reads its refusal.
    directions = []
    real = conditions._check_direction
    monkeypatch.setattr(
        conditions, "_check_direction", lambda a, *rest, **kw: directions.append(a) or real(a, *rest, **kw)
    )
    sa, sb = conditions._prepare(meas({0: Finite(2)}), meas({3: Finite(2)}))
    out = conditions._outcome_at(sa, sb, 1, None)
    assert out.violation.side == "left"
    assert directions == [sa]


def aleph_plus_diagonals(*tails):
    x = ScaledIdentity(F(1), ALEPH0)
    for tail in tails:
        x = DirectSum(x, CompactDiagonal((), tail))
    return modulus_data(x, HALF)


def test_only_the_q_max_check_looks_past_the_horizon(monkeypatch):
    stretches = []
    real = conditions._analytic_violation

    def counted(a, b, q, *rest):
        stretches.append((len(a.finite_atoms), q))
        return real(a, b, q, *rest)

    monkeypatch.setattr(conditions, "_analytic_violation", counted)
    # 1·(1/3)^n against 2·(1/3)^n: the q_max check certifies, and the probes
    # below it that do not certify never look past the horizon.
    t = aleph_plus_diagonals(GeometricSeq(F(1), F(1, 3)))
    s = aleph_plus_diagonals(GeometricSeq(F(2), F(1, 3)))
    out = condition_s_outcome(t, s, q_max=24)
    assert (out.present, out.q_used, stretches) == (True, 3, [])
    # 1/n! against twice 1/n!: T's one atom is among S's, so the left
    # direction is certified without a stretch, and the right scan's window
    # is the answer.
    t = aleph_plus_diagonals(FactorialSeq())
    s = aleph_plus_diagonals(FactorialSeq(), FactorialSeq())
    out = condition_s_outcome(t, s, q_max=16)
    assert out.violation == conditions.WindowViolation("right", 16, 41)
    assert stretches == []
    # S's factorial as one atom of multiplicity 2 does not cover T's: the
    # left direction has no certificate at q_max = 16 and its stretch finds
    # nothing, so the right scan's window is the answer, after exactly one
    # stretch.
    s = aleph_plus_diagonals()
    s = replace(s, atoms=(SeqRay(SeqSpan(FactorialSeq(), 1, 2)),))
    out = condition_s_outcome(t, s, q_max=16)
    assert out.violation == conditions.WindowViolation("right", 16, 41)
    assert stretches == [(1, 16)]  # T's one factorial tail, at q_max


# ---------------------------------------------------------------------------
# Bounded densities: the exact width of a geometric span


@pytest.mark.parametrize("r", [F(1, 3), F(1, 2), F(2, 3), F(39, 40), F(999, 1000)])
@pytest.mark.parametrize("delta", [F(1, 2), F(1, 3), F(1, 1000)])
def test_geometric_span_width_is_one_past_the_least_power_below_delta(r, delta):
    w, acc = 1, r
    while acc > delta:
        acc, w = acc * r, w + 1
    assert conditions._bounded_span_width(GeometricSeq(F(1), r), delta) == w + 1


def test_bounded_certificate_refuses_a_wide_geometric_span():
    # 1, 39/40, (39/40)^2, ... puts 272-273 values in each bucket at delta
    # 1/1000, more than the 260 per bucket of S: the width must not be capped.
    delta = F(1, 1000)
    t = meas({-1: ALEPH0}, (SeqRay(SeqSpan(GeometricSeq(F(1), F(39, 40)))),), delta)
    s = meas({-1: ALEPH0}, (ConstantRay(0, Finite(260)),), delta)
    assert t.window_count(20, 419) == Finite(109137)  # window [20, 419] at q = 8
    assert s.window_count(12, 427) == Finite(108160)
    a, b = conditions._Side(t), conditions._Side(s)
    assert a.densities == [("bounded", F(274))]
    got = conditions._tail_certificate(a, b, 8, conditions._structural_horizon(a, b, 8))
    assert got == "bounded tail density without a dominating coverage bound"


# ---------------------------------------------------------------------------
# Identical tail generators


def remainder_certifies(a, b, q, seg_lo, k_min):
    """The certificate that identical generators once took: the explicit
    buckets alone, scanned from the last segment's start, must dominate."""

    def remainder(side):
        explicit = {j: Finite(c) for j, c in side.finite_explicit.items()}
        return conditions._Side(meas(explicit, delta=side.delta))

    ea, eb = remainder(a), remainder(b)
    top = max([seg_lo] + ea.structural + eb.structural) + q + 2
    hit, _ = conditions._scan_segment(ea, eb, q, seg_lo, top, k_min)
    return hit is None


shared_atoms = st.one_of(
    st.builds(ConstantRay, st.integers(-4, 14), st.integers(1, 3).map(Finite)),
    st.builds(GeometricRay, st.integers(0, 14), st.integers(2, 3)),
    st.builds(SparseRay, st.integers(0, 14)),
    st.builds(
        lambda model, start: SeqRay(SeqSpan(model, start)),
        st.sampled_from([PowerSeq(F(1), F(1)), PowerSeq(F(1, 4), F(2)), GeometricSeq(F(1), F(1, 3)), FactorialSeq()]),
        st.integers(1, 4),
    ),
)


@st.composite
def shared_generator_pairs(draw, covered=False):
    """Explicit buckets -4..14, all moved down by 150 or not, an optional
    aleph0 at -1 on both sides, and the same one or two tail atoms; with
    ``covered``, the second side holds one or two tail atoms more."""
    shift = draw(st.sampled_from([0, -150]))

    def explicit():
        got = draw(st.dictionaries(st.integers(-4, 14), st.integers(1, 3), max_size=4))
        return {j + shift: Finite(c) for j, c in got.items()}

    a, b = explicit(), explicit()
    if draw(st.booleans()):
        a[-1] = b[-1] = ALEPH0
    atoms = draw(st.lists(shared_atoms, min_size=1, max_size=2))
    more = draw(st.lists(shared_atoms, min_size=1, max_size=2)) if covered else []

    def moved(xs):
        # Constant rays move with the buckets; the other atoms cannot start below 0.
        return tuple(replace(x, start=x.start + shift) if isinstance(x, ConstantRay) else x for x in xs)

    return meas(a, moved(atoms)), meas(b, moved(atoms + more))


@given(
    shared_generator_pairs(),
    st.integers(1, 4),
    st.one_of(st.none(), st.integers(-2, 10), st.integers(10, 80)),
)
@settings(max_examples=40, deadline=None)
def test_identical_generators_certify_from_the_scan_minimum(pair, q, k_min):
    a, b = pair
    starts = []
    scan, locate = conditions._scan_segment, conditions._locate

    def recording_scan(x, y, q, seg_lo, seg_hi, k_min):
        starts.append(seg_lo)
        return scan(x, y, q, seg_lo, seg_hi, k_min)

    def compared_locate(x, y, q, k_min, refused):
        got = locate(x, y, q, k_min, refused)
        if isinstance(got, str):  # no window up to the horizon: the certificate's note stands
            h_scan = conditions._horizon(x, y, q)
            # With no window start left in the scan, the last segment began at k_min.
            seg_lo = starts[-1] if k_min is None or k_min <= h_scan else k_min
            # Whatever the remainder scan certified, the scan minimum certifies.
            assert not remainder_certifies(x, y, q, seg_lo, k_min)
        return got

    sa, sb = conditions._prepare(a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conditions, "_scan_segment", recording_scan)
        mp.setattr(conditions, "_locate", compared_locate)
        out = conditions._outcome_at(sa, sb, q, k_min)
    if out.present:
        # The probes scanned only to h_from; recount well past the horizon.
        lo = min([0, *a.buckets, *b.buckets, *(x.first_bucket(HALF) for x in a.atoms)]) - q - 2
        h_top = conditions._horizon(sa, sb, q) + 60
        assert dominated(a, b, q, lo, h_top, h_top - lo + 1, k_min, h_max=h_top)


@pytest.mark.parametrize("q_max", [1, 4, 64])
def test_identical_constant_rays_fall_back_to_the_density_certificate(q_max):
    # T's three values at 8 against S's two at 2: at q = 1, V(7) = 16 - 16 = 0
    # lies below |Ea| - |Eb| = 1, so the identical-generator bound fails. S's
    # two values per bucket cover T's two, so the bounded-density certificate
    # holds once the scan to h_from finds no window, in both forms.
    ray = (ConstantRay(0, Finite(2)),)
    t, s = meas({8: Finite(3)}, ray), meas({2: Finite(2)}, ray)
    out = condition_s_outcome(t, s, q_max)
    assert (out.q_used, out.delta_prime) == (1, HALF)
    out = condition_s_tilde_outcome(t, s, q_max, 64)
    assert (out.q_used, out.n_cutoff) == (1, 1)


@st.composite
def identical_constant_ray_pairs(draw):
    """(T, S, q, k_min): the same one or two constant rays on both sides,
    0-4 explicit buckets of 1-4 values each in -4..14, and maybe aleph0 at
    -1 on both sides."""
    rays = st.builds(ConstantRay, st.integers(-4, 14), st.integers(1, 3).map(Finite))
    atoms = tuple(draw(st.lists(rays, min_size=1, max_size=2)))
    aleph = draw(st.booleans())

    def side():
        buckets = draw(st.dictionaries(st.integers(-4, 14), st.integers(1, 4).map(Finite), max_size=4))
        if aleph:
            buckets[-1] = ALEPH0
        return meas(buckets, atoms)

    return side(), side(), draw(st.integers(1, 4)), draw(st.sampled_from([None, 0, 3, 10]))


def test_identical_constant_rays_certify_only_dominated_directions():
    # Wherever a direction certifies, by the identical-generator bound or by
    # the density certificate after it fails, a brute-force recount well
    # past the horizon finds no failing window; the fallback certifies a
    # share of the directions.
    outcomes = Counter()

    @given(identical_constant_ray_pairs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def check(case):
        t, s, q, k_min = case
        sa, sb = conditions._prepare(t, s)
        lo = min([0, *t.buckets, *s.buckets, *(x.start for x in t.atoms)]) - q - 2
        hi = conditions._horizon(sa, sb, q) + 60
        for (f, g), (a, b) in zip(((t, s), (s, t)), ((sa, sb), (sb, sa))):
            probe = probe_against_one_scan(a, b, q, k_min)
            if probe is None:
                assert first_failing_start(f, g, q, lo, hi, k_min) is None
            depth, bound, _ = conditions._tail_certificate(a, b, q, conditions._structural_horizon(a, b, q))
            short = (k_min is None or k_min <= depth) and conditions._scan_to(a, b, q, k_min, depth)[1] < bound
            outcomes[short, probe is None] += 1

    check()
    assert outcomes[True, True] >= sum(outcomes.values()) // 25, outcomes


def test_cutoff_past_the_scan_horizon_leaves_no_window_for_the_remainder():
    # T has two extra values at -150, beside one per bucket from -150 on in
    # both. The q search runs at N = 64, and for q < 52 every window starts
    # past the scan horizon, 12 + q, so none holds T's extra values and no
    # scan minimum is read. A default minimum of 0, read against T's
    # explicit surplus of 2, would refuse each of those q.
    ray = (ConstantRay(-150, Finite(1)),)
    t = meas({-200: ALEPH0, -150: Finite(2)}, ray)
    s = meas({-200: ALEPH0}, ray)
    sa, sb = conditions._prepare(t, s)
    assert conditions._outcome_at(sa, sb, 1, 64).present
    out = condition_s_tilde_outcome(t, s)
    assert (out.q_used, out.n_cutoff) == (1, 1)


def first_failing_start(f, g, q, lo, hi, k_min=None):
    """Brute force: the least k of a window [k, h] of f, lo <= k <= h <= hi
    and k >= k_min, that holds more than g's [k - q, h + q], or None. Counts
    come bucket by bucket from ``BucketMeasure.window_count``; aleph0, the
    only infinite level drawn, counts 10^30 in f and 10^40 in g, so a
    window of g holding one covers any window of f, and one of f holding
    one exceeds any finite window of g."""

    def counts(m, lo, hi, aleph):
        got = (m.window_count(j, j) for j in range(lo, hi + 1))
        return [aleph if isinstance(c, Aleph) else c.n for c in got]

    if k_min is not None:
        lo = max(lo, k_min)
    cf = list(accumulate(counts(f, lo, hi, 10**30), initial=0))  # cf[i]: f over [lo, lo + i - 1]
    cg = list(accumulate(counts(g, lo - q, hi + q, 10**40), initial=0))  # from lo - q
    # [k, h] fails iff u[h - lo] > v[k - lo], as in the scan's U and V.
    u = [cf[i + 1] - cg[i + 1 + 2 * q] for i in range(hi - lo + 1)]
    v = [cf[i] - cg[i] for i in range(hi - lo + 1)]
    top = list(accumulate(reversed(u), max))[::-1]  # max of u from each start on
    return next((lo + i for i in range(hi - lo + 1) if top[i] > v[i]), None)


@given(shared_generator_pairs(covered=True), st.integers(1, 4))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_covered_generators_certify_only_dominated_directions(pair, q):
    # S holds T's tail atoms and more, so T against S can take the covered
    # certificate; S against T never can. Wherever either direction's probe
    # certifies, no window fails well past the horizon, nor in one scan to
    # the deeper of the horizon and the certificate's depth.
    t, s = pair
    sa, sb = conditions._prepare(t, s)
    lo = min([0, *t.buckets, *s.buckets, *(x.first_bucket(HALF) for x in s.atoms)]) - q - 2
    hi = conditions._horizon(sa, sb, q) + 60
    for (f, g), (a, b) in zip(((t, s), (s, t)), ((sa, sb), (sb, sa))):
        for k_min in (None, 0, 3, 10, 40):
            if probe_against_one_scan(a, b, q, k_min) is None:
                assert first_failing_start(f, g, q, lo, hi, k_min) is None


def test_covered_generators_take_the_certificate_on_a_share_of_pairs():
    branches = Counter()

    @given(shared_generator_pairs(covered=True), st.integers(1, 4))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def check(pair, q):
        sa, sb = conditions._prepare(*pair)
        if conditions._untailed(sa, sb) or conditions._density_note(sa, sb) is None:
            branches["other"] += 1
        else:
            certified = conditions._check_direction(sa, sb, q, None) is None
            branches["certified" if certified else "refused"] += 1

    check()
    checked = sum(branches.values())
    assert branches["certified"] >= checked // 5, branches
    assert branches["refused"] >= checked // 25, branches


def test_covered_constant_rays_keep_the_density_certificate():
    # T's ray is among S's, but the covered certificate's V-minimum, -2,
    # lies below T's explicit surplus of 1. S's constant rays cover T's
    # density of 1 per bucket, and that certificate needs no V-minimum: it
    # is tried first, as before covered generators certified.
    t = meas({0: Finite(1)}, (ConstantRay(0, Finite(1)),))
    s = meas({}, (ConstantRay(-3, Finite(1)), ConstantRay(0, Finite(1))))
    sa, sb = conditions._prepare(t, s)
    h_from = conditions._structural_horizon(sa, sb, 1)
    assert conditions._covers(sa, sb) and not conditions._covers(sb, sa)
    depth = conditions._shared_depth(sa, sb, 1, h_from)
    assert conditions._scan_to(sa, sb, 1, None, depth) == (None, -2)
    assert conditions._tail_certificate(sa, sb, 1, h_from) == (h_from, None, None)
    assert probe_against_one_scan(sa, sb, 1, None) is None


# ---------------------------------------------------------------------------
# Probes that stop at a certificate's depth against the located check


@st.composite
def depth_certificate_cases(draw):
    """(T, S, q) whose tails take a certificate of a depth: the same one or
    two atoms of any kind on both sides; those atoms on T and one more on S;
    one same-family span on each side, each with its own constant, start
    and multiplicity; spans 1/n against (1 + tiny)/(2^q n), from a later
    start, whose bound first holds deep, past the scan horizon; or a
    factorial span or a SparseRay, maybe beside a constant ray, against a
    constant ray that covers its per-bucket bound, which for the factorial
    span holds only deep. Or one side has no tail. Each side has 0-4
    explicit buckets and maybe aleph0 at -1; q is 1..8."""
    q = draw(st.integers(1, 8))

    def side(atoms):
        buckets = draw(st.dictionaries(st.integers(-4, 14), st.integers(1, 3).map(Finite), max_size=4))
        if draw(st.booleans()):
            buckets[-1] = ALEPH0
        return meas(buckets, tuple(atoms))

    def span(model, starts, mult=None):
        return [SeqRay(SeqSpan(model, draw(starts), mult or draw(st.integers(1, 3))))]

    # Deep spans and densities certify in one direction only: drawn twice as often.
    kinds = ["identical", "covered", "spans", "one tail"] + ["deep spans", "density"] * 2
    kind = draw(st.sampled_from(kinds))
    if kind == "spans":
        family = draw(st.sampled_from(["power", "geometric", "factorial"]))
        if family == "power":
            p = draw(st.sampled_from([F(1), F(5, 2), F(3)]))
            models = [PowerSeq(draw(span_consts), p) for _ in range(2)]
        elif family == "geometric":
            r = draw(st.sampled_from([F(1, 3), F(3, 5), F(9, 10)]))
            models = [GeometricSeq(draw(span_consts), r) for _ in range(2)]
        else:
            models = [FactorialSeq()] * 2
        t_atoms, s_atoms = (span(m, st.integers(1, 20)) for m in models)
    elif kind == "deep spans":
        # With one multiplicity, eps = 2^-e in the power bound, exact at
        # p = 1, so the bound first holds about e buckets deep.
        c = draw(span_consts)
        tiny = F(1, 2 ** draw(st.integers(60, 420)))
        mult = draw(st.integers(1, 3))
        t_atoms = span(PowerSeq(c, F(1)), st.integers(1, 5), mult)
        s_atoms = span(PowerSeq(c * (1 + tiny) / 2**q, F(1)), st.integers(10, 20), mult)
    elif kind == "density":
        rays = st.builds(ConstantRay, st.integers(-4, 14), st.integers(1, 3).map(Finite))
        if draw(st.booleans()):
            t_atoms = span(FactorialSeq(), st.integers(1, 6), draw(st.integers(1, 2)))
        else:
            t_atoms = [SparseRay(draw(st.integers(0, 14)))]
        t_atoms += draw(st.lists(rays, max_size=1))
        cap = sum(int(v) for _, v in conditions._Side(meas({}, tuple(t_atoms))).densities)
        s_atoms = [ConstantRay(draw(st.integers(-4, 14)), Finite(cap + draw(st.integers(0, 1))))]
    else:
        t_atoms = draw(st.lists(shared_atoms, min_size=1, max_size=2))
        s_atoms = {"identical": t_atoms, "covered": t_atoms + [draw(shared_atoms)]}.get(kind, [])
    t, s = side(t_atoms), side(s_atoms)
    return (t, s, q) if draw(st.booleans()) else (s, t, q)


def certificate_depth(a, b, q):
    """The depth _check_direction scans to for a against b at q, or None
    after a note alone."""
    h_from = conditions._structural_horizon(a, b, q)
    if conditions._untailed(a, b):
        return h_from
    cert = conditions._tail_certificate(a, b, q, h_from)
    return None if isinstance(cert, str) else cert[0]


def first_window_to_depth(a, b, q, k_min):
    """The first window of one scan to the deeper of the horizon and the
    certificate's depth, the windows a refusal is located among."""
    h_end = conditions._horizon(a, b, q)
    depth = certificate_depth(a, b, q)
    return conditions._scan_to(a, b, q, k_min, h_end if depth is None else max(h_end, depth))[0]


def probe_against_one_scan(a, b, q, k_min):
    """_check_direction's answer; wherever it certifies, one scan to the
    deeper of the horizon and the certificate's depth finds no window."""
    probe = conditions._check_direction(a, b, q, k_min)
    if probe is None:
        assert first_window_to_depth(a, b, q, k_min) is None
    return probe


def certificate_branch(a, b, q):
    """Which certificate _check_direction takes for a against b at q."""
    if conditions._untailed(a, b):
        return "untailed"
    h_from = conditions._structural_horizon(a, b, q)
    cert = conditions._tail_certificate(a, b, q, h_from)
    if isinstance(cert, str):
        return "note"
    depth, bound, _ = cert
    if bound is None:
        return "density" if depth == h_from else "factorial density"
    if a.generator_key == b.generator_key:
        return "identical"
    if conditions._covers(a, b):
        return "covered"
    return "span past the horizon" if depth > conditions._horizon(a, b, q) else "span"


def test_probe_certifies_exactly_when_the_located_check_does():
    branches = Counter()

    @given(depth_certificate_cases())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def check(case):
        t, s, q = case
        sa, sb = conditions._prepare(t, s)
        for a, b in ((sa, sb), (sb, sa)):
            branches[certificate_branch(a, b, q)] += 1
            for k_min in (None, 0, 3, 10, 40):
                probe_against_one_scan(a, b, q, k_min)

    check()
    checked = sum(branches.values())
    for branch in (
        "identical",
        "covered",
        "span",
        "span past the horizon",
        "density",
        "factorial density",
        "note",
        "untailed",
    ):
        assert branches[branch] >= checked // 25, branches


@st.composite
def bounded_density_cases(draw):
    """(T, S, q): T's tail atoms are mostly constant rays and geometric
    spans, whose per-bucket counts are bounded from their first bucket on,
    and now and then a growing GeometricRay, a SparseRay or a factorial
    span, whose are not: at delta 1/100 the factorials 15! and 16! share a
    bucket, and such pairs recur up to about 100!, far past any ray start.
    S's are constant rays, whose counts fall short of T's cap, just meet it
    or reach past it, about a third of the cases each. Each side has 0-4 explicit buckets of 1-6 values and maybe aleph0
    at -1; q is 1..6 and delta 1/2, 1/10 or 1/100."""
    q = draw(st.integers(1, 6))
    delta = draw(st.sampled_from([HALF, F(1, 10), F(1, 100)]))

    def side(atoms):
        buckets = draw(st.dictionaries(st.integers(-4, 14), st.integers(1, 6).map(Finite), max_size=4))
        if draw(st.booleans()):
            buckets[-1] = ALEPH0
        return meas(buckets, tuple(atoms), delta)

    def t_atom():
        kind = draw(st.sampled_from(["const"] * 3 + ["span"] * 3 + ["growing", "sparse", "factorial"]))
        if kind == "const":
            return ConstantRay(draw(st.integers(-4, 14)), Finite(draw(st.integers(1, 3))))
        if kind == "span":
            r = draw(st.sampled_from([F(1, 3), F(3, 5), F(9, 10)]))
            model = GeometricSeq(draw(span_consts), r)
            return SeqRay(SeqSpan(model, draw(st.integers(1, 6)), draw(st.integers(1, 2))))
        if kind == "growing":
            return GeometricRay(draw(st.integers(0, 14)), 2)
        if kind == "factorial":
            return SeqRay(SeqSpan(FactorialSeq(), draw(st.integers(1, 6)), draw(st.integers(1, 2))))
        return SparseRay(draw(st.integers(0, 14)))

    t = side([t_atom() for _ in range(draw(st.integers(1, 2)))])
    cap = sum(int(v) for _, v in conditions._Side(t).densities)
    fit = draw(st.sampled_from(["short", "tight", "cover"]))  # S against the cap
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    if fit == "tight":
        counts = [cap]
    elif fit == "cover":
        counts[0] += max(0, cap - sum(counts))
    s = side(ConstantRay(draw(st.integers(-4, 14)), Finite(c)) for c in counts)
    return t, s, q


def test_bounded_density_probes_certify_exactly_when_the_located_check_does():
    # The bounded-density certificate gives the depth h_from, so its probes
    # scan only that far; _locate's scan runs on to the horizon.
    outcomes = Counter()

    @given(bounded_density_cases())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def check(case):
        t, s, q = case
        a, b = conditions._prepare(t, s)
        h_from = conditions._structural_horizon(a, b, q)
        branch = conditions._tail_certificate(a, b, q, h_from) == (h_from, None, None)
        for k_min in (None, 0, 3, 10, 40):
            probe = probe_against_one_scan(a, b, q, k_min)
            outcomes[branch, probe is None] += 1

    check()
    checked = sum(outcomes.values())
    for key in ((True, True), (True, False), (False, False)):
        assert outcomes[key] >= checked // 25, outcomes


def test_a_refusal_is_located_to_the_first_window_of_one_scan():
    # _locate takes the probe's refusal and scans only to the horizon. What
    # it reports must be the first window of one scan to the deeper of the
    # horizon and the certificate's depth, or the probe's note when that
    # scan finds none; a window the probe found is always among its windows.
    located = Counter()

    @given(
        st.one_of(depth_certificate_cases(), bounded_density_cases()),
        st.sampled_from([None, 0, 3, 8, 12]),
    )
    @settings(max_examples=400, deadline=None, derandomize=True)
    def check(case, k_min):
        t, s, q = case
        sa, sb = conditions._prepare(t, s)
        for a, b in ((sa, sb), (sb, sa)):
            got = conditions._check_direction(a, b, q, k_min)
            if got is None:
                continue
            reported = conditions._locate(a, b, q, k_min, got)
            first = first_window_to_depth(a, b, q, k_min)
            assert first is not None or isinstance(got, str)
            assert reported == (got if first is None else first)
            kind = {str: "note", tuple: "window"}
            located[kind[type(got)], kind[type(reported)]] += 1

    check()
    checked = sum(located.values())
    for key in (("window", "window"), ("note", "window"), ("note", "note")):
        assert located[key] >= checked // 25, located


@pytest.mark.parametrize("q", [1, 2, 4])
def test_factorial_spans_keep_the_located_check_at_small_delta(q):
    # At delta 1/100 the values 1/15! and 1/16! share a bucket, and such
    # pairs recur up to about 1/100!, far past h_from: a constant ray of one
    # value per bucket covers the span's cap of 1 only from there on, so a
    # window starting at 10 fails, and the depth h_from must not certify it:
    # the certificate holds from the horizon.
    t = meas({}, (SeqRay(SeqSpan(FactorialSeq(), 1, 1)),), F(1, 100))
    s = meas({}, (ConstantRay(0, Finite(1)),), F(1, 100))
    a, b = conditions._prepare(t, s)
    h_from = conditions._structural_horizon(a, b, q)
    assert conditions._tail_certificate(a, b, q, h_from) == (conditions._horizon(a, b, q), None, None)
    got = conditions._check_direction(a, b, q, 10)
    assert got is not None
    window = conditions._locate(a, b, q, 10, got)
    assert isinstance(window, tuple) and window[0] >= 10


def test_a_span_depth_past_the_horizon_is_scanned_to(monkeypatch):
    # 1/n against (1 + 2^-200)/(4n) from n = 12, with S's eleven values at
    # bucket 4 for the eleven terms its span lacks: the span bound holds from
    # depth 200, past the horizon 169. The probe scans to that depth before
    # it certifies, not to the horizon; a refusal is located by a scan to
    # the horizon, and a window the probe found past it is reported as is.
    t = meas({-1: ALEPH0}, (SeqRay(SeqSpan(PowerSeq(F(1), F(1)))),))
    y = PowerSeq((1 + F(1, 2**200)) / 4, F(1))
    s = meas({-1: ALEPH0, 4: Finite(11)}, (SeqRay(SeqSpan(y, 12)),))
    a, b = conditions._prepare(t, s)
    h_from = conditions._structural_horizon(a, b, 2)
    depth, bound, _ = conditions._tail_certificate(a, b, 2, h_from)
    assert (depth, bound, conditions._horizon(a, b, 2)) == (200, 0, 169)
    ends = []
    scan = conditions._scan_to

    def recording(a, b, q, k_min, h_end):
        ends.append(h_end)
        return scan(a, b, q, k_min, h_end)

    monkeypatch.setattr(conditions, "_scan_to", recording)
    assert conditions._check_direction(a, b, 2, None) is None
    assert ends == [200]
    assert a.base + len(a.cum) > 200 and b.base + len(b.cum) > 202
    assert conditions._locate(a, b, 2, None, (180, 3)) == (180, 3)
    assert conditions._locate(a, b, 2, None, "a note") == "a note"
    assert ends == [200, 169, 169]


def test_a_refusal_reports_the_first_of_the_two_windows():
    # _locate's scan to the horizon finds [-3, 0] first. A probe's window
    # that ends past the horizon is among the windows of a longer scan, and
    # is reported only where it comes first.
    sa, sb = conditions._prepare(meas({0: Finite(2)}), meas({3: Finite(2)}))
    assert conditions._scan_to(sa, sb, 1, None, conditions._horizon(sa, sb, 1))[0] == (-3, 4)
    assert conditions._locate(sa, sb, 1, None, (-4, 400)) == (-4, 400)
    assert conditions._locate(sa, sb, 1, None, (-3, 400)) == (-3, 4)
    assert conditions._locate(sa, sb, 1, None, "a note") == (-3, 4)


def certifying_sides(monkeypatch, t, s, q_max):
    """The two sides of a condition_s_outcome that certifies at q_max."""
    sides = []
    prepare = conditions._prepare
    monkeypatch.setattr(conditions, "_prepare", lambda a, b: sides.extend(prepare(a, b)) or sides)
    assert condition_s_outcome(t, s, q_max).present
    return sides


@pytest.mark.parametrize("q_max", [32, 40, 48])
def test_certified_shifted_block_counts_stop_past_the_last_explicit_bucket(monkeypatch, q_max):
    # The window-scan benchmark's shifted block (see test_shifted_block_needs_two_widenings):
    # identical generators hold from h_from, so no count past it plus q is made.
    block = [3, 1, 6, 2, 5, 5, 1, 4, 2, 6, 3, 1, 2, 4, 6, 1]
    k0, shift = q_max + 6, q_max - 1
    ray = (GeometricRay(k0 + shift + len(block) + q_max + 8, 2),)

    def side(at):
        return meas({-1: ALEPH0, **{at + i: Finite(c) for i, c in enumerate(block)}}, ray)

    sides = certifying_sides(monkeypatch, side(k0), side(k0 + shift), q_max)
    last = max(sides[0].structural + sides[1].structural)
    assert all(x.base + len(x.cum) - 1 < last + 2 * q_max + 4 for x in sides)


def test_certified_factorial_prefix_counts_stop_past_the_last_explicit_bucket(monkeypatch):
    # The tail-certify benchmark's factorial-prefix pair: 1/n! against the
    # same tail after one value 1, at q_max = 16. Its span certificate holds
    # from h_from, where the scan horizon for factorial tails lies near 650.
    diagonal = CompactDiagonal((F(1),), FactorialSeq())
    t = aleph_plus_diagonals(FactorialSeq())
    s = modulus_data(DirectSum(ScaledIdentity(F(1), ALEPH0), diagonal), HALF)
    sides = certifying_sides(monkeypatch, t, s, 16)
    last = max(sides[0].structural + sides[1].structural)
    assert conditions._horizon(*sides, 16) > 600
    assert all(x.base + len(x.cum) - 1 < last + 2 * 16 + 4 for x in sides)


# ---------------------------------------------------------------------------
# Identical generators hold from the last explicit or infinite bucket


def depth_from_h_from(monkeypatch):
    """Make identical generators certify from h_from, where every explicit
    bucket and every feature lies behind: the reference depth."""
    real = conditions._tail_certificate

    def tail_certificate(a, b, q, h_from):
        got = real(a, b, q, h_from)
        if a.generator_key == b.generator_key:
            return h_from, *got[1:]
        return got

    monkeypatch.setattr(conditions, "_tail_certificate", tail_certificate)


def aleph_after_surplus():
    # T's two extra values at 10 lie below the infinite bucket at 50 that
    # both sides share; past its cut V is 2 + q, the explicit surplus D = 2.
    ray = (ConstantRay(0, Finite(1)),)
    return meas({10: Finite(2), 50: ALEPH0}, ray), meas({50: ALEPH0}, ray)


def test_identical_generators_scan_past_the_last_infinite_bucket():
    t, s = aleph_after_surplus()
    out = condition_s_outcome(t, s, 8)
    assert (out.q_used, out.delta_prime) == (2, F(1, 4))
    a, b = conditions._prepare(t, s)
    for q in (2, 3, 5):
        h_from = conditions._structural_horizon(a, b, q)
        # Past the depth: D = 2, and the density fallback from h_from.
        assert conditions._tail_certificate(a, b, q, h_from) == (50 + q + 1, 2, h_from)
        assert probe_against_one_scan(a, b, q, None) is None


def test_a_depth_short_of_the_last_cut_refuses_what_h_from_certifies(monkeypatch):
    # Stopping at the last explicit bucket, or at the end of b's cut
    # [50 - q, 50 + q], leaves the scan's last segment below the infinite
    # bucket, whose V-minimum 0 lies below D = 2, so every probe fails, and
    # the q_max check, which reads the V-minimum at the same depth, fails
    # with them. The constant rays' density fallback would mask that, so the
    # patched certificates answer the note instead.
    t, s = aleph_after_surplus()
    real = conditions._tail_certificate
    note = "identical tail generators but undominated explicit remainder"

    def explicit_only(a, b, q, h_from):
        ends = [*a.finite_explicit, *(j - q for j in b.finite_explicit)]
        return max(ends, default=h_from), real(a, b, q, h_from)[1], note

    def inside_the_cut(a, b, q, h_from):
        depth, bound, _ = real(a, b, q, h_from)
        return depth - 1, bound, note

    for tail_certificate in (explicit_only, inside_the_cut):
        monkeypatch.setattr(conditions, "_tail_certificate", tail_certificate)
        with pytest.raises(UnsupportedTailError, match=note):
            condition_s_outcome(t, s, 8)


def test_a_short_depth_is_read_alike_by_the_probe_and_the_located_check(monkeypatch):
    # The patched depths of the test above end below the last segment's
    # start (explicit_only) or inside the infinite bucket's cut
    # (inside_the_cut). Only the probe reads the V-minimum there. From q = 2
    # on it refuses T against S with the note, and _locate, scanning on to
    # the horizon, finds no window and reports that note; at q = 1 T's
    # window [-3, 10] fails and is reported as the probe found it. S against
    # T certifies at every q.
    t, s = aleph_after_surplus()
    a, b = conditions._prepare(t, s)
    real = conditions._tail_certificate
    note = "identical tail generators but undominated explicit remainder"

    def explicit_only(a, b, q, h_from):
        ends = [*a.finite_explicit, *(j - q for j in b.finite_explicit)]
        return max(ends, default=h_from), real(a, b, q, h_from)[1], note

    def inside_the_cut(a, b, q, h_from):
        depth, bound, _ = real(a, b, q, h_from)
        return depth - 1, bound, note

    for tail_certificate in (explicit_only, inside_the_cut):
        monkeypatch.setattr(conditions, "_tail_certificate", tail_certificate)
        for q in range(1, 9):
            probe = conditions._check_direction(a, b, q, None)
            assert probe == (note if q > 1 else (-3, 14)), (tail_certificate.__name__, q)
            assert conditions._locate(a, b, q, None, probe) == probe
            assert probe_against_one_scan(b, a, q, None) is None


@pytest.mark.parametrize("q_max", [32, 40, 48])
def test_shifted_block_probes_stay_below_the_shared_ray(monkeypatch, q_max):
    # The shape of test_shifted_block_needs_two_widenings: the geometric
    # ray both sides share starts past every explicit bucket plus q_max, and
    # no probe or q_max check counts it (h_from lies past its start).
    block = [3, 1, 6, 2, 5, 5, 1, 4, 2, 6, 3, 1, 2, 4, 6, 1]
    k0, shift = q_max + 6, q_max - 1
    start = k0 + shift + len(block) + q_max + 8
    ray = (GeometricRay(start, 2),)

    def side(at):
        return meas({-1: ALEPH0, **{at + i: Finite(c) for i, c in enumerate(block)}}, ray)

    reached = []
    count = conditions._atom_cum_range
    monkeypatch.setattr(
        conditions, "_atom_cum_range", lambda x, lo, hi, d: reached.append(hi) or count(x, lo, hi, d)
    )
    t, s = side(k0), side(k0 + shift)
    assert condition_s_outcome(t, s, q_max).q_used == q_max - 1
    assert condition_s_tilde_outcome(t, s, q_max, 16).q_used == q_max - 1
    assert reached and max(reached) < start


shared_tail_atoms = st.one_of(
    st.builds(ConstantRay, st.integers(-4, 20), st.integers(1, 3).map(Finite)),
    st.builds(GeometricRay, st.integers(0, 20), st.integers(2, 3)),
    st.builds(SparseRay, st.integers(0, 14)),
    st.builds(
        lambda model, start, mult: SeqRay(SeqSpan(model, start, mult)),
        st.one_of(
            st.builds(PowerSeq, span_consts, st.sampled_from([F(1), F(5, 2)])),
            st.builds(GeometricSeq, span_consts, st.sampled_from([F(1, 3), F(9, 10)])),
            st.just(FactorialSeq()),
        ),
        st.integers(1, 6),
        st.integers(1, 2),
    ),
)


@st.composite
def identical_tail_pairs(draw):
    """(T, S, q_max, n_max): the same one or two finite tail atoms on both
    sides, 0-6 explicit finite buckets each in -4..20, and aleph0 buckets
    on either side, among the explicit ones or past them up to 40."""
    atoms = tuple(draw(st.lists(shared_tail_atoms, min_size=1, max_size=2)))

    def side():
        buckets = draw(st.dictionaries(st.integers(-4, 20), st.integers(1, 4).map(Finite), max_size=6))
        for j in draw(st.lists(st.integers(-6, 40), max_size=2)):
            buckets[j] = ALEPH0
        return meas(buckets, atoms)

    return side(), side(), draw(st.integers(1, 10)), draw(st.integers(0, 30))


@given(identical_tail_pairs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_identical_generator_depth_changes_no_outcome(case):
    t, s, q_max, n_max = case
    got = outcome_or_note(condition_s_outcome, t, s, q_max)
    got_tilde = outcome_or_note(condition_s_tilde_outcome, t, s, q_max, n_max)
    with pytest.MonkeyPatch.context() as mp:
        depth_from_h_from(mp)
        assert outcome_or_note(condition_s_outcome, t, s, q_max) == got
        assert outcome_or_note(condition_s_tilde_outcome, t, s, q_max, n_max) == got_tilde


# ---------------------------------------------------------------------------
# Tail counts shared by the two sides of a decision


@st.composite
def shared_span_sides(draw):
    """(T, S, delta, q): one to three spans of one family, power, geometric
    or factorial, each side taking one to three of them, a span maybe twice
    and maybe on both sides, each copy with its own multiplicity 1..3,
    beside 0-3 explicit buckets; delta 1/2, 1/10 or 1/100 and q 1..16."""
    delta = draw(st.sampled_from([HALF, F(1, 10), F(1, 100)]))
    family = draw(st.sampled_from(["power", "geometric", "factorial"]))
    if family == "power":
        p = draw(st.sampled_from([F(1), F(5, 2), F(3)]))
        model = st.builds(PowerSeq, span_consts, st.just(p))
    elif family == "geometric":
        model = st.builds(GeometricSeq, span_consts, st.sampled_from([F(1, 3), F(3, 5), F(9, 10)]))
    else:
        model = st.just(FactorialSeq())
    pool = draw(st.lists(st.tuples(model, st.integers(1, 6)), min_size=1, max_size=3))

    def side():
        picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        atoms = tuple(SeqRay(SeqSpan(m, start, draw(st.integers(1, 3)))) for m, start in picks)
        buckets = draw(st.dictionaries(st.integers(-4, 14), st.integers(1, 3).map(Finite), max_size=3))
        return meas(buckets, atoms, delta)

    return side(), side(), delta, draw(st.integers(1, 16))


@given(
    shared_span_sides(),
    st.lists(st.tuples(st.booleans(), st.integers(-20, 60), st.integers(0, 30)), min_size=1, max_size=6),
    st.integers(-10, 40),
    st.integers(0, 120),
    st.integers(-300, 300),
)
@settings(max_examples=150, deadline=None)
def test_shared_tail_counts_match_the_per_atom_counts(case, queries, h_lo, width, offset):
    t, s, delta, q = case
    store = conditions._Tails(delta)
    a, b = conditions._Side(t, store), conditions._Side(s, store)
    # Each side's array is the per-atom sum, in whatever order the sides grow.
    for on_a, lo, length in queries:
        side, m = (a, t) if on_a else (b, s)
        hi = lo + length
        expected = [sum(c.n for j, c in m.buckets.items() if j <= h) for h in range(lo, hi + 1)]
        for atom in m.atoms:
            expected = list(map(add, expected, conditions._atom_cum_range(atom, lo, hi, delta)))
        assert side.cum_range(lo, hi) == expected
    # The depths read from the shared counts, wherever they reach, are the
    # ones made from scalar counts alone.
    for (x, cx), (y, cy) in [(u, v) for u in a.atom_counts for v in b.atom_counts]:
        for u, v, counts, off in ((x, y, (cx, cy), offset), (y, x, (cy, cx), -offset)):
            expected = conditions._span_depth(u.span, v.span, q, delta, h_lo, h_lo + width, off)
            got = conditions._span_depth(u.span, v.span, q, delta, h_lo, h_lo + width, off, counts)
            assert got == expected


@pytest.mark.parametrize(
    "t, s, expected",
    [
        # The benchmark's factorial-multiplicity pair: 1/n! once against twice.
        (
            aleph_plus_diagonals(FactorialSeq()),
            aleph_plus_diagonals(FactorialSeq(), FactorialSeq()),
            conditions.ConditionOutcome(q_used=16, violation=conditions.WindowViolation("right", 16, 41)),
        ),
        # Identical generators: 1/n twice on each side, S with two values more.
        (
            aleph_plus_diagonals(PowerSeq(F(1), F(1)), PowerSeq(F(1), F(1))),
            modulus_data(
                DirectSum(
                    ScaledIdentity(F(1), ALEPH0),
                    DirectSum(
                        CompactDiagonal((F(2), F(1)), PowerSeq(F(1), F(1))),
                        CompactDiagonal((), PowerSeq(F(1), F(1))),
                    ),
                ),
                HALF,
            ),
            conditions.ConditionOutcome(delta_prime=HALF, q_used=1),
        ),
    ],
    ids=["factorial-multiplicity", "identical-generators"],
)
def test_a_span_is_counted_once_per_bucket_in_a_decision(monkeypatch, t, s, expected):
    counted = []
    real = tails.SeqSpan.cum_range

    def recording(self, delta, lo, hi):
        counted.extend((self.model, self.start, h) for h in range(lo, hi + 1))
        return real(self, delta, lo, hi)

    monkeypatch.setattr(tails.SeqSpan, "cum_range", recording)
    assert condition_s_outcome(t, s, q_max=16) == expected
    assert counted and len(set(counted)) == len(counted)


# ---------------------------------------------------------------------------
# Span alignment


def power_from(model_start):
    span = SeqSpan(PowerSeq(F(1), F(1)), model_start)
    return meas({-1: ALEPH0}, (ConstantRay(0, Finite(1)), SeqRay(span)))


def test_span_alignment_moves_the_earlier_start():
    # Without alignment the two generators differ and no certificate applies.
    t, s = power_from(1), power_from(2)
    aligned, same = conditions._align_seq_rays(t, s)
    assert same is s and aligned.atoms[1].span.start == 2
    out = condition_s_outcome(t, s, q_max=8)
    assert out.present and out.q_used == 1 and out.delta_prime == HALF


def test_span_alignment_moves_the_earlier_start_of_s():
    t, s = power_from(2), power_from(1)
    same, aligned = conditions._align_seq_rays(t, s)
    assert same is t and aligned.atoms[1].span.start == 2
    out = condition_s_outcome(t, s, q_max=8)
    assert out.present and out.q_used == 1 and out.delta_prime == HALF


# ---------------------------------------------------------------------------
# The per-bucket floor that the bounded-density certificate once applied
# against a growing b, kept as an oracle: it certified a -> b only when b -> a
# had no certificate, so removing it changes no outcome and no note.


def exp_floor_beyond(side, j0, q):
    """A proven lower bound on side's count in every single bucket j' > j0 - q,
    using only atoms with provable growth; None when no bound is derivable."""
    best = F(0)
    for atom in side.finite_atoms:
        if isinstance(atom, GeometricRay) and j0 - q >= atom.start:
            best = max(best, F(atom.base) ** (j0 - q))
        if isinstance(atom, SeqRay) and isinstance(atom.span.model, PowerSeq):
            span = atom.span
            p = span.model.p
            g_lo = ratio_root_lower(pow_delta(side.delta, -p.denominator), p.numerator)
            if g_lo <= 1:
                continue
            cum = span.count_ge(pow_delta(side.delta, j0 - q + 1))
            best = max(best, cum * (g_lo - 1) - span.mult)
    return best if best > 0 else None


def certificate_with_floor(fired):
    """The tail certificate with the floor: past the scan horizon, each
    bucket of b holds at least the floor, and so pays for a's cap."""
    real = conditions._tail_certificate

    def certify(a, b, q, h_from):
        got = real(a, b, q, h_from)
        if got == "bounded tail density without a dominating coverage bound":
            h_scan = conditions._horizon(a, b, q)
            floor = exp_floor_beyond(b, h_scan, q)
            if floor is not None and floor >= sum(v for _, v in a.densities):
                fired.append((a, b, q))
                return h_scan, None, None
        return got

    return certify


def outcome_or_note(form, t, s, *limits):
    try:
        return form(t, s, *limits)
    except UnsupportedTailError as e:
        return str(e)


def with_and_without_floor(form, t, s, *limits):
    fired = []
    plain = outcome_or_note(form, t, s, *limits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conditions, "_tail_certificate", certificate_with_floor(fired))
        floored = outcome_or_note(form, t, s, *limits)
    return plain, floored, fired


def test_floor_settled_pair_keeps_its_outcome():
    t = meas({-1: ALEPH0}, (ConstantRay(0, Finite(3)),))
    s = meas({-1: ALEPH0}, (GeometricRay(0, 2),))
    plain, floored, fired = with_and_without_floor(condition_s_outcome, t, s, 8)
    assert fired and plain == floored
    assert plain.violation == conditions.WindowViolation("right", 8, 1)


small_starts = st.integers(0, 5)
bounded_atoms = st.one_of(
    st.builds(ConstantRay, small_starts, st.integers(1, 4).map(Finite)),
    st.builds(SparseRay, small_starts),
    st.builds(
        lambda c, r, start, mult: SeqRay(SeqSpan(GeometricSeq(c, r), start, mult)),
        st.sampled_from([F(1), F(1, 2), F(3)]),
        st.sampled_from([F(1, 5), F(1, 3), F(1, 2), F(2, 3)]),
        st.integers(1, 4),
        st.integers(1, 2),
    ),
    st.builds(
        lambda start, mult: SeqRay(SeqSpan(FactorialSeq(), start, mult)),
        st.integers(1, 4),
        st.integers(1, 2),
    ),
)
growing_atoms = st.one_of(
    st.builds(GeometricRay, small_starts, st.integers(2, 3)),
    st.builds(
        lambda c, p, start, mult: SeqRay(SeqSpan(PowerSeq(c, p), start, mult)),
        st.sampled_from([F(1), F(1, 4), F(5)]),
        st.sampled_from([F(1), F(2), F(3), F(1, 2), F(5, 2)]),
        st.integers(1, 4),
        st.integers(1, 2),
    ),
)


@st.composite
def floor_pairs(draw):
    """(bounded side, growing side): the only shape the floor could certify."""

    def side(atoms):
        buckets = draw(st.dictionaries(st.integers(-2, 8), st.integers(1, 3).map(Finite), max_size=3))
        if draw(st.booleans()):
            buckets[-1] = ALEPH0
        return meas(buckets, tuple(atoms))

    bounded = side(draw(st.lists(bounded_atoms, min_size=1, max_size=2)))
    extra = draw(st.lists(bounded_atoms, max_size=1))
    growing = side([draw(growing_atoms)] + extra)
    return bounded, growing


@given(floor_pairs(), st.booleans(), st.integers(1, 4), st.sampled_from([4, 16, 64]))
@settings(max_examples=60, deadline=None)
def test_removed_floor_changes_no_outcome_or_note(pair, bounded_left, q_max, n_max):
    t, s = pair if bounded_left else pair[::-1]
    for form, limits in (
        (condition_s_outcome, (q_max,)),
        (condition_s_tilde_outcome, (q_max, n_max)),
    ):
        plain, floored, _ = with_and_without_floor(form, t, s, *limits)
        assert plain == floored
