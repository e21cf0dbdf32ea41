"""Tests for the equivalence decision engine and witness construction."""

from collections import Counter
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
    SeqSpan,
    SpecError,
    UnsupportedTailError,
    Verdict,
    ZERO,
    ZeroTail,
    build_witness,
    comparable_after_shift,
    decide_extension_family,
    decide_strong,
    direct_sum,
    flatten_values,
    kernel_condition,
    modulus_data,
)
from opequiv.engine import _Seq, _bounds_at, _shift_envelope, _tail_piece, _value_pair_witness

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


@pytest.mark.parametrize("svd_tol", [-1, F(-1, 10**9), -0.5])
def test_engine_params_reject_a_negative_svd_tol(svd_tol):
    # A negative tolerance would keep a matrix's zero singular values, which
    # have no bucket.
    with pytest.raises(SpecError, match="svd_tol"):
        EngineParams(svd_tol=svd_tol)
    assert EngineParams(svd_tol=0).svd_tol == 0


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


def test_comparable_after_shift_tries_the_length_difference_of_finite_data():
    assert comparable_after_shift(diag("1/4", "1/8"), diag("1/4")) == (-1, HALF)
    assert comparable_after_shift(diag("1/4"), diag("1/2", "1/4")) == (1, F(1))


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


def test_extra_value_beside_a_shared_tail_holds_at_widening_one():
    # T = I_aleph0 + 1/n + 1/1000 against S = I_aleph0 + 1/n. The extra value
    # of T sits among values of the shared tail 1/n, and S's window widened by
    # one bucket holds more of them than T's extra value needs.
    t = direct_sum(direct_sum(I_INF, inv_n()), diag("1/1000"))
    s = direct_sum(I_INF, inv_n())
    v = decide_strong(t, s)
    assert v.holds and v.witness.delta_prime == HALF
    assert v.notes == ("window widening exponent 1",)
    v = decide_extension_family(t, s)
    assert v.holds and v.witness.delta_prime == HALF
    assert v.notes[:2] == ("window cutoff N=1", "widening exponent 1")


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
# Value-comparison refusals (both relations normalise the value sequences)


def assert_inconclusive(v, note):
    assert (v.holds, v.reason, v.notes) == (False, "Inconclusive", (note,))


@pytest.mark.parametrize("decide", [decide_strong, decide_extension_family])
def test_value_comparison_refuses_two_tails_in_one_operand(decide):
    two_tails = direct_sum(inv_n(), diag(tail=PowerSeq(F(1), F(2))))
    v = decide(two_tails, inv_n())
    assert_inconclusive(v, "value comparison supports at most one symbolic tail per operand")


@pytest.mark.parametrize("decide", [decide_strong, decide_extension_family])
def test_value_comparison_refuses_irrational_tail_values_above_an_explicit_one(decide):
    # n^(-1/2) is irrational from n = 2 on and stays above 1/1000 until n = 10^6.
    t = direct_sum(diag(tail=PowerSeq(F(1), F(1, 2))), diag("1/1000"))
    assert_inconclusive(decide(t, t), "cannot interleave irrational tail values with explicit ones")


@pytest.mark.parametrize("decide", [decide_strong, decide_extension_family])
def test_prefix_check_bounds_the_tail_head_pulled_into_the_prefix(decide):
    # Placing 1/100 among the values of 1/n pulls the 99 terms above it out of
    # the tail, which needs prefix_check + 64 >= 99.
    t = direct_sum(inv_n(), diag("1/100"))
    for budget in (17, 34):
        v = decide(t, t, EngineParams(prefix_check=budget))
        assert_inconclusive(v, "tail-head normalization exceeded the prefix budget")
    for params in (EngineParams(prefix_check=35), None):
        v = decide(t, t, params)
        assert v.holds and v.witness.delta_prime == F(1) and v.witness.shift == 0


def test_extension_compact_operator_against_an_infinite_ray_is_not_comparable():
    ray = Buckets(BucketMeasure(HALF, {}, (ConstantRay(0, ALEPH0),)))
    v = decide_extension_family(inv_n(), ray)
    assert (v.holds, v.reason) == (False, "NotComparable")
    assert v.notes == ("a compact operator cannot match unboundedly many infinite-dimensional buckets",)


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


def test_build_witness_needs_the_verdicts_own_witness():
    t = s = inv_n()
    bare = Verdict("extension", True, "Established")
    with pytest.raises(SpecError, match="carries no witness"):
        build_witness(t, s, bare)


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


# ---------------------------------------------------------------------------
# The integer-pair envelope against the Fraction formula it replaces


def fraction_envelope(t, s, m):
    """_shift_envelope computed with one Fraction per piece, as it was before
    the running minimum became an integer pair; kept as the oracle."""
    lt, ls = t.finite_len(), s.finite_len()
    if (lt is None) != (ls is None):
        return None
    if lt is not None and ls - lt != m:
        return None
    n_min = max(1, 1 - m)
    hi = lt if lt is not None else max(t.head_len, s.head_len - m)
    pieces = [F(1)]
    for n in range(n_min, hi + 1):
        (tlo, thi), (slo, shi) = _bounds_at(t, n), _bounds_at(s, n + m)
        pieces.append(min(tlo / shi, slo / thi))
    if lt is None:
        got = _tail_piece(t, s, m, hi + 1)
        if got is None:
            return None
        pieces.append(got)
    return min(pieces)


def envelope_outcome(envelope, t, s, m):
    try:
        return ("envelope", envelope(t, s, m))
    except UnsupportedTailError as e:
        return ("refused", str(e))


_head_values = st.fractions(min_value=F(1, 1000), max_value=F(8), max_denominator=1000)
_span_consts = st.fractions(min_value=F(1, 16), max_value=F(16), max_denominator=60)


@st.composite
def envelope_cases(draw):
    """(t, s, m): value sequences and a shift in -3..3.

    Finite pairs mostly have the lengths a shift m can cover; tailed pairs
    mostly share a tail family and a multiplicity, so that the tail piece
    is bounded.
    """
    m = draw(st.integers(-3, 3))

    def head(size=None):
        sizes = {"min_size": size, "max_size": size} if size is not None else {"max_size": 8}
        return tuple(sorted(draw(st.lists(_head_values, **sizes)), reverse=True))

    kinds = ["finite"] * 2 + ["power", "fractional power", "geometric", "factorial", "mixed"]
    kind = draw(st.sampled_from(kinds))
    if kind == "finite":
        t_vals = head()
        size = len(t_vals) + m if draw(st.integers(0, 3)) else draw(st.integers(0, 8))
        return _Seq(t_vals, None), _Seq(head(max(0, size)), None), m
    if kind == "power":
        p = F(draw(st.integers(1, 3)))
        models = [PowerSeq(draw(_span_consts), p) for _ in range(2)]
    elif kind == "fractional power":
        p = draw(st.sampled_from([F(1, 2), F(3, 2), F(5, 3), F(7, 4)]))
        models = [PowerSeq(draw(_span_consts), p) for _ in range(2)]
    elif kind == "geometric":
        r = draw(st.sampled_from([F(1, 2), F(1, 3), F(3, 4)]))
        models = [GeometricSeq(draw(_span_consts), r) for _ in range(2)]
    elif kind == "factorial":
        models = [FactorialSeq()] * 2
    else:
        families = [
            PowerSeq(draw(_span_consts), F(1)),
            PowerSeq(draw(_span_consts), F(3, 2)),
            GeometricSeq(draw(_span_consts), F(1, 2)),
            FactorialSeq(),
        ]
        models = [draw(st.sampled_from(families)) for _ in range(2)]
    mult = draw(st.integers(1, 2))
    mults = [mult, mult if draw(st.integers(0, 9)) else 3 - mult]
    t, s = (
        _Seq(head(), SeqSpan(model, draw(st.integers(1, 5)), k))
        for model, k in zip(models, mults)
    )
    return t, s, m


def test_integer_envelope_matches_the_fraction_formula():
    outcomes = Counter()

    @given(envelope_cases())
    @settings(max_examples=600, deadline=None, derandomize=True)
    def check(case):
        t, s, m = case
        got = envelope_outcome(_shift_envelope, t, s, m)
        assert got == envelope_outcome(fraction_envelope, t, s, m)
        tailed = "tailed" if t.span is not None else "finite"
        outcomes[tailed, got[0] if got[1] is not None else None] += 1

    check()
    checked = sum(outcomes.values())
    for key in (("finite", "envelope"), ("finite", None), ("tailed", "envelope"), ("tailed", None)):
        assert outcomes[key] >= checked // 25, outcomes
    assert outcomes["tailed", "refused"] >= 1, outcomes


@st.composite
def finite_value_specs(draw):
    """A direct sum of finite diagonals and scaled identities, and its values."""
    parts, values = [], []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            prefix = tuple(sorted(draw(st.lists(_head_values, max_size=6)), reverse=True))
            parts.append(CompactDiagonal(prefix=prefix))
            values.extend(prefix)
        else:
            value, dim = draw(_head_values), draw(st.integers(0, 3))
            parts.append(ScaledIdentity(value, Finite(dim)))
            values.extend([value] * dim)
    spec = parts[0]
    for part in parts[1:]:
        spec = direct_sum(spec, part)
    return spec, sorted(values, reverse=True)


@given(finite_value_specs(), finite_value_specs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_value_pair_witness_matches_the_fraction_formula(a, b):
    (spec_a, va), (spec_b, vb) = a, b
    assert flatten_values(spec_a).values == tuple(va)
    dp = F(1)
    for x, y in zip(va, vb):
        dp = min(dp, x / y, y / x)
    got = _value_pair_witness(spec_a, spec_b, F(1, 10**9))
    assert got.delta_prime == dp
    assert got.pairing == tuple((i, i) for i in range(1, min(len(va), len(vb)) + 1))
