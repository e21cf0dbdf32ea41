"""Tests for the window-domination conditions on bucket measures."""

from fractions import Fraction as F

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
    card_le,
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


def dominated(a, b, q, k_lo, k_hi, l_max, k_min=None):
    """Brute-force check of both window inequalities at widening q."""
    for f, g in ((a, b), (b, a)):
        for k in range(k_lo if k_min is None else max(k_lo, k_min), k_hi + 1):
            for length in range(1, l_max + 1):
                left = f.window_count(k, k + length - 1)
                right = g.window_count(k - q, k + length - 1 + q)
                if not card_le(left, right):
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
    out = conditions._check_both(*conditions._prepare(a, b), q, k_min)
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
    worst = conditions._check_both(sa, sb, q_max, None)
    if worst.violation is not None:
        return worst
    for q in range(1, q_max + 1):
        out = conditions._check_both(sa, sb, q, None)
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
    worst = conditions._check_both(sa, sb, q_max, n_max)
    if worst.violation is not None:
        return conditions.ConditionOutcome(
            q_used=worst.q_used, n_cutoff=n_max, violation=worst.violation
        )
    unsupported = worst.unsupported
    for q in range(1, q_max + 1):
        wide = conditions._check_both(sa, sb, q, n_max)
        if wide.unsupported is not None:
            unsupported = wide.unsupported
            continue
        if not wide.present:
            continue
        lo, hi, best = 1, n_max, n_max
        while lo <= hi:
            mid = (lo + hi) // 2
            if conditions._check_both(sa, sb, q, mid).present:
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
    if not conditions._check_both(sa, sb, q_max, n_max).present:
        return
    f = conditions._covering_floor(sa, sb, q_max, n_max)
    assert 0 <= f < q_max
    if f >= 1:
        assert not conditions._check_both(sa, sb, f, n_max).present
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


def span_dom_ladder(x, y, q, delta, h_from, offset):
    """_span_dom's bound tried at each of the 48 depths h_from + t * max(4, q)."""
    mx, my = x.model, y.model
    sx, sy = x.start, y.start
    ax, ay = x.mult, y.mult
    c0 = ay * sy - ax * sx + ax

    def count_x(h0):
        return x.count_ge(pow_delta(delta, h0 + 1)) // ax

    def count_y(h0):
        return y.count_ge(pow_delta(delta, h0 + q + 1)) // ay

    def ladder(bound_ok):
        stride = max(4, q)
        for t in range(48):
            h0 = h_from + t * stride
            nx = count_x(h0)
            if nx < 1 or count_y(h0) < 1:
                continue
            if bound_ok(h0, nx):
                return True
        return False

    if isinstance(mx, PowerSeq) and isinstance(my, PowerSeq) and mx.p == my.p:
        p = mx.p
        big_r = (F(my.c) / F(mx.c)) * pow_delta(delta, -q)
        rho_lo = ratio_root_lower(big_r**p.denominator, p.numerator)
        eps = ay * rho_lo - ax
        if eps <= 0:
            return False
        return ladder(lambda h0, nx: F(nx + sx - 1) * eps - c0 >= offset)

    if isinstance(mx, GeometricSeq) and isinstance(my, GeometricSeq) and mx.r == my.r:
        if ay < ax:
            return False
        big_r = (F(my.c) / F(mx.c)) * pow_delta(delta, -q)
        x_lo = _floor_log(big_r, 1 / mx.r)
        return ladder(lambda h0, nx: (ay - ax) * (nx + sx - 1) + ay * x_lo - c0 >= offset)

    if isinstance(mx, FactorialSeq) and isinstance(my, FactorialSeq):
        if ay < ax:
            return False

        def ok(h0, nx):
            n_star = nx + sx - 1
            return ay * (n_star - sy + 1) - ax * (n_star - sx + 1) >= offset

        return ladder(ok)

    return False


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
    assert conditions._span_dom(x, y, q, delta, h_from, offset) == expected
    assert conditions._span_dom(y, x, q, delta, h_from, -offset) == span_dom_ladder(
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
        for dom in (conditions._span_dom, span_dom_ladder):
            assert dom(x, y, q, HALF, h_from, bound)
            assert not dom(x, y, q, HALF, h_from, bound + 1)


@pytest.mark.xfail(reason="_span_dom tests its bound at the deepest rung only; the depths between h_from and that rung go unchecked")
def test_span_dom_refuses_a_gap_below_its_deepest_rung():
    x = SeqSpan(PowerSeq(F(7, 2), F(3)), 17, 2)
    y = SeqSpan(PowerSeq(F(1, 8), F(3)), 3, 3)
    gaps = [
        y.count_ge(pow_delta(HALF, h + 9)) - x.count_ge(pow_delta(HALF, h + 1)) for h in range(4, 11)
    ]
    assert gaps == [24, 30, 42, 54, 69, 90, 108]  # each below the offset 118
    assert not conditions._span_dom(x, y, 8, HALF, 4, 118)


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
            conditions._span_dom(x, y, 4, HALF, 0, offset)
            assert len(calls) <= 2


def test_left_violation_skips_the_right_direction(monkeypatch):
    directions = []
    real = conditions._check_direction
    monkeypatch.setattr(
        conditions, "_check_direction", lambda a, *rest: directions.append(a) or real(a, *rest)
    )
    sa, sb = conditions._prepare(meas({0: Finite(2)}), meas({3: Finite(2)}))
    out = conditions._check_both(sa, sb, 1, None)
    assert out.violation.side == "left"
    assert directions == [sa]


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
    got = conditions._tail_certificate(a, b, 8, 0, 500, None, 0)
    assert got == "bounded tail density without a dominating coverage bound"


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
    real = conditions._tail_certificate

    def certify(a, b, q, seg_lo, h_scan, k_min, v_last):
        got = real(a, b, q, seg_lo, h_scan, k_min, v_last)
        if got == "bounded tail density without a dominating coverage bound":
            floor = exp_floor_beyond(b, h_scan, q)
            if floor is not None and floor >= sum(v for _, v in a.densities):
                fired.append((a, b, q))
                return None
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
