"""Tests for the equivalence decision engine and witness construction."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opequiv import (
    ALEPH0,
    BucketMeasure,
    Buckets,
    CompactDiagonal,
    ConstantRay,
    DeltaRangeError,
    EngineParams,
    EquivalenceWitness,
    FactorialSeq,
    Finite,
    FiniteMatrix,
    GeometricRay,
    GeometricSeq,
    LeftByDim,
    PowerSeq,
    RightByDim,
    ScaledIdentity,
    SpecError,
    Verdict,
    ZERO,
    ZeroTail,
    build_witness,
    comparable_after_shift,
    decide_extension_family,
    decide_strong,
    direct_sum,
    kernel_condition,
    modulus_data,
)

HALF = F(1, 2)


def diag(*vals, tail=None, **kw):
    return CompactDiagonal(prefix=tuple(F(v) for v in vals), tail=tail or ZeroTail(), **kw)


def inv_n():
    return diag(tail=PowerSeq(F(1), F(1)))  # 1, 1/2, 1/3, ...


def inv_fact():
    return diag(tail=FactorialSeq())  # 1, 1/2, 1/6, ...


def prepend_ones(spec, m):
    if m == 0:
        return spec
    return direct_sum(ScaledIdentity(F(1), Finite(m)), spec)


I_INF = ScaledIdentity(F(1), ALEPH0)


# ---------------------------------------------------------------------------
# Verdict and parameter invariants


def test_verdict_invariants():
    with pytest.raises(ValueError):
        Verdict("strong", True, "KernelMismatch")
    with pytest.raises(ValueError):
        Verdict("strong", False, "Established")
    with pytest.raises(ValueError):
        Verdict("strong", False, "KernelMismatch", witness=EquivalenceWitness(delta_prime=F(1)))
    ok = Verdict("extension", True, "Established", witness=EquivalenceWitness(delta_prime=F(1)))
    assert ok.holds and ok.witness.delta_prime == F(1)


def test_engine_params_validation():
    with pytest.raises(DeltaRangeError):
        EngineParams(delta=F(3, 2))
    with pytest.raises(DeltaRangeError):
        EngineParams(delta=F(0))
    assert EngineParams().delta == HALF


# ---------------------------------------------------------------------------
# Shift comparability of diagonal data


def test_comparable_after_shift_table():
    assert comparable_after_shift(inv_n(), inv_n()) == (0, F(1))
    # One prepended unit: the identity pairing still has envelope 1/2.
    assert comparable_after_shift(inv_n(), prepend_ones(inv_n(), 1)) == (0, HALF)
    # Factorial tails force exact tail alignment; the envelope is then exact.
    assert comparable_after_shift(inv_fact(), inv_fact()) == (0, F(1))
    assert comparable_after_shift(inv_fact(), prepend_ones(inv_fact(), 1)) == (1, F(1))
    # Structurally different decay is never shift-comparable.
    assert comparable_after_shift(inv_n(), diag(tail=PowerSeq(F(1), F(2)))) is None
    assert (
        comparable_after_shift(
            diag(tail=GeometricSeq(F(1), HALF)), diag(tail=GeometricSeq(F(1), F(1, 3)))
        )
        is None
    )
    assert comparable_after_shift(inv_n(), inv_fact()) is None


def test_comparable_after_shift_rejects_infinite_identities():
    with pytest.raises(SpecError):
        comparable_after_shift(I_INF, I_INF)


# ---------------------------------------------------------------------------
# Strong equivalence decisions


def test_strong_kernel_mismatch():
    wide = FiniteMatrix(((1, 0, 0), (0, 1, 0)))  # kernel 1, cokernel 0
    tall = FiniteMatrix(((1, 0), (0, 1), (0, 0)))  # kernel 0, cokernel 1
    v = decide_strong(wide, tall)
    assert not v.holds and v.reason == "KernelMismatch"
    assert not kernel_condition(wide, tall)


def test_strong_finite_diagonals_one_bucket_apart():
    v = decide_strong(diag("1/2", "1/4"), diag("1/4", "1/8"))
    assert v.holds and v.reason == "Established"
    assert v.witness.delta_prime == HALF
    assert v.witness.shift == 0
    assert v.witness.pairing == ((1, 1), (2, 2))


def test_strong_prepended_units_bound_the_envelope():
    # Unit values in front of the same tail distort ratios by at most m+1.
    for m in (1, 2, 5):
        v = decide_strong(inv_n(), prepend_ones(inv_n(), m))
        assert v.holds
        assert v.witness.delta_prime == F(1, m + 1)
        assert v.witness.shift == m
        assert v.witness.pairing is None  # infinite instance: no finite pairing


def test_strong_fractional_power_tail_with_rational_head():
    # 3 n^(-3/2) has the rational first term 3, so the value path can pull
    # it ahead of the 2*I_3 block and settle the shift exactly.
    tail = diag(tail=PowerSeq(F(3), F(3, 2)))
    v = decide_strong(tail, direct_sum(ScaledIdentity(F(2), Finite(3)), tail))
    assert v.holds and v.reason == "Established"
    assert v.witness.shift == 3


def test_strong_dimension_mismatch_is_not_comparable():
    v = decide_strong(diag("1/2"), prepend_ones(diag("1/2"), 1))
    assert not v.holds and v.reason == "NotComparable"


def test_strong_incompatible_tails():
    v = decide_strong(inv_n(), inv_fact())
    assert not v.holds and v.reason == "NotComparable"


def test_strong_compact_pair_honours_svd_tol():
    # At svd_tol 10^-6 both matrices have rank 1: the 1e-7 singular value of T
    # is dropped by the measure and by the value inventory alike.
    t = FiniteMatrix(((1, 0), (0, 1e-7)))
    s = FiniteMatrix(((1, 0), (0, 0)))
    p = EngineParams(svd_tol=F(1, 10**6))
    v = decide_strong(t, s, p)
    assert v.holds and v.reason == "Established"
    assert v.witness.delta_prime == F(1)
    assert v.witness.shift == 0
    assert v.witness.pairing == ((1, 1),)
    assert decide_extension_family(t, s, p).witness.delta_prime == F(1)
    # At the default tolerance T has rank 2 and the kernels differ.
    assert decide_strong(t, s).reason == "KernelMismatch"


@pytest.mark.parametrize("decide", [decide_strong, decide_extension_family])
def test_one_svd_per_matrix_leaf(monkeypatch, decide):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    v = decide(FiniteMatrix(((1, 0), (0, 0.5))), FiniteMatrix(((0.5, 0), (0, 1))))
    assert v.holds and len(calls) == 2
    calls.clear()
    pair = direct_sum(FiniteMatrix(((1,),)), FiniteMatrix(((0.5,),)))
    v = decide(pair, FiniteMatrix(((0.5, 0), (0, 1))))
    assert v.holds and len(calls) == 3


def test_strong_noncompact_uses_window_condition():
    v = decide_strong(I_INF, ScaledIdentity(F(1), Finite(5)))
    assert not v.holds and v.reason == "ConditionSFailed"
    v = decide_strong(I_INF, ScaledIdentity(F(2), ALEPH0))
    assert v.holds and v.witness.delta_prime == HALF


def test_strong_refusal_names_the_lexicographically_first_window():
    # S doubles T's factorial tail. The scan reports the least start, then
    # the least length; the window ending first starts later ([17, 52]).
    t = direct_sum(I_INF, inv_fact())
    s = direct_sum(direct_sum(I_INF, inv_fact()), inv_fact())
    v = decide_strong(t, s, EngineParams(q_max=16))
    assert not v.holds and v.reason == "ConditionSFailed"
    assert v.notes == (
        "right window at bucket 16 of length 41 is undominated at every widening up to 16",
    )
    # S's window [16, 56] against T's widened [0, 72], recounted directly.
    ms, mt = modulus_data(s, HALF), modulus_data(t, HALF)
    assert ms.window_count(16, 56) == Finite(22)
    assert mt.window_count(16 - 16, 56 + 16) == Finite(21)


def test_strong_matrix_against_diagonal():
    v = decide_strong(FiniteMatrix(((0.5, 0), (0, 0.25))), diag("1/2", "1/4"))
    assert v.holds and v.witness.delta_prime == F(1)
    assert v.witness.pairing == ((1, 1), (2, 2))


def test_strong_with_other_base():
    p = EngineParams(delta=F(1, 3))
    v = decide_strong(diag("1/3"), diag("1/9"), p)
    assert v.holds and v.witness.delta_prime == F(1, 3)


def test_strong_bucket_only_data_is_inconclusive():
    b = Buckets(BucketMeasure(HALF, {0: Finite(1)}))
    v = decide_strong(b, b)
    assert not v.holds and v.reason == "Inconclusive"
    assert any("bucket-count data" in n for n in v.notes)


# ---------------------------------------------------------------------------
# Extension-family decisions, path by path


def test_extension_finite_dimensional_side():
    v = decide_extension_family(diag("1/2", "1/4"), diag("1/2"))
    assert v.holds
    assert v.witness.extension_side == RightByDim(Finite(1))
    assert v.witness.pairing == ((1, 1),)
    assert any("finite-dimensional" in n for n in v.notes)

    v = decide_extension_family(ScaledIdentity(F(1), Finite(5)), ScaledIdentity(F(1), Finite(7)))
    assert v.holds and v.witness.extension_side == LeftByDim(Finite(2))
    assert v.witness.pairing == tuple((i, i) for i in range(1, 6))
    assert v.witness.delta_prime == F(1)


def test_extension_closed_range_pair():
    v = decide_extension_family(I_INF, ScaledIdentity(F(2), ALEPH0))
    assert v.holds
    assert v.witness.delta_prime == F(1, 4)  # coarse bound over buckets -2..-1
    assert any("closed range" in n for n in v.notes)


def test_extension_compact_power_tail_allows_shift():
    v = decide_extension_family(inv_n(), prepend_ones(inv_n(), 1))
    assert v.holds and v.witness.delta_prime == HALF and v.witness.shift == 1


def test_extension_compact_factorial_tail_is_rigid():
    # Factorial decay admits no index shift: prepending units breaks the
    # relation even though the tails agree.
    for m in (1, 2, 3):
        v = decide_extension_family(inv_fact(), prepend_ones(inv_fact(), m))
        assert not v.holds and v.reason == "NotComparable"
    v = decide_extension_family(inv_fact(), inv_fact())
    assert v.holds


def test_extension_one_compact_absorption():
    v = decide_extension_family(inv_n(), direct_sum(I_INF, inv_n()))
    assert v.holds and v.witness.delta_prime == F(1) and v.witness.shift == 0
    assert any("absorbed" in n for n in v.notes)


def test_extension_one_compact_rejection():
    v = decide_extension_family(inv_n(), I_INF)
    assert not v.holds and v.reason == "NotComparable"


def test_extension_noncompact_pair_with_cutoff():
    a = direct_sum(inv_n(), I_INF)
    b = direct_sum(ScaledIdentity(F(2), ALEPH0), inv_n())
    v = decide_extension_family(a, b)
    assert v.holds and v.witness.delta_prime == HALF
    assert any("cutoff" in n for n in v.notes)
    assert any("widening" in n for n in v.notes)
    # Equal ambient dimensions let the cutoff certificate upgrade.
    assert any("strong" in n for n in v.notes)


def test_extension_noncompact_pair_failing_cutoff():
    v = decide_extension_family(direct_sum(inv_n(), I_INF), I_INF)
    assert not v.holds and v.reason == "ConditionSTildeFailed"
    assert v.notes  # carries the located window description


def test_cutoff_refusal_names_a_window_past_the_cutoff():
    # T holds 2 per bucket, S 1 per bucket, both beside aleph0 at -1. The
    # stretch past the scan horizon starts at the cutoff, not below it.
    mt = BucketMeasure(HALF, {-1: ALEPH0}, atoms=(ConstantRay(0, Finite(2)),))
    ms = BucketMeasure(HALF, {-1: ALEPH0}, atoms=(ConstantRay(0, Finite(1)),))
    v = decide_extension_family(Buckets(mt), Buckets(ms), EngineParams(q_max=4, n_max=1000))
    assert not v.holds and v.reason == "ConditionSTildeFailed"
    assert v.notes == (
        "left window at bucket 1000 of length 9 is undominated at every "
        "widening up to 4 with cutoff 1000",
    )
    # T's window [1000, 1008] against S's widened [996, 1012], recounted.
    assert mt.window_count(1000, 1008) == Finite(18)
    assert ms.window_count(996, 1012) == Finite(17)


def test_extension_finite_bucket_data_decides_by_dimensions():
    ta = Buckets(BucketMeasure(HALF, {0: Finite(1)}))
    tb = Buckets(BucketMeasure(HALF, {1: Finite(1)}))
    v = decide_extension_family(ta, tb)
    assert v.holds and v.reason == "Established"


def test_extension_unsupported_tails_are_inconclusive():
    g2 = BucketMeasure(HALF, {-1: ALEPH0}, atoms=(GeometricRay(0, 2),))
    dm = modulus_data(inv_n(), HALF)
    sr = BucketMeasure(HALF, dict(dm.buckets) | {-1: ALEPH0}, dm.atoms)
    v = decide_extension_family(Buckets(g2), Buckets(sr))
    assert not v.holds and v.reason == "Inconclusive"
    assert any("unsupported" in n.lower() for n in v.notes)


# ---------------------------------------------------------------------------
# Witness construction on demand


def test_build_witness_at_requested_extension():
    t = s = inv_n()
    v = decide_extension_family(t, s)
    w = build_witness(t, s, v, extension=2)
    assert w.delta_prime == F(1, 3)
    assert w.shift == 2
    assert w.extension_side == LeftByDim(Finite(2))


def test_build_witness_rejects_impossible_extension():
    t = s = diag("1/2", "1/4")
    v = decide_extension_family(t, s)
    with pytest.raises(SpecError):
        build_witness(t, s, v, extension=3)


def test_build_witness_matches_buckets():
    ta = Buckets(BucketMeasure(HALF, {0: Finite(1)}))
    tb = Buckets(BucketMeasure(HALF, {1: Finite(1)}))
    v = decide_extension_family(ta, tb)
    w = build_witness(ta, tb, v)
    assert w.pairing == (((0, 0), (1, 0)),)
    assert w.delta_prime == F(1, 4)


def test_build_witness_defaults_to_verdict_witness():
    t = s = inv_n()
    v = decide_extension_family(t, s)
    assert build_witness(t, s, v) == v.witness


# ---------------------------------------------------------------------------
# Cross-relation properties

DYADIC = [F(1, 2**i) for i in range(0, 6)]


@st.composite
def finite_diagonals(draw):
    vals = draw(st.lists(st.sampled_from(DYADIC), min_size=0, max_size=5))
    kernel = draw(st.integers(0, 2))
    cokernel = draw(st.integers(0, 2))
    return CompactDiagonal(
        prefix=tuple(sorted(vals, reverse=True)),
        kernel_dim=Finite(kernel),
        cokernel_dim=Finite(cokernel),
    )


@given(finite_diagonals(), finite_diagonals())
@settings(max_examples=150)
def test_strong_implies_extension_and_extension_matches_kernels(t, s):
    ve = decide_extension_family(t, s)
    assert ve.holds == kernel_condition(t, s)
    vs = decide_strong(t, s)
    if vs.holds:
        assert ve.holds
        assert vs.witness.delta_prime is not None


@given(finite_diagonals())
@settings(max_examples=60)
def test_reflexivity_on_finite_diagonals(t):
    vs = decide_strong(t, t)
    assert vs.holds and vs.witness.delta_prime == F(1)
    ve = decide_extension_family(t, t)
    assert ve.holds
