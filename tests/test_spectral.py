"""Tests for the spectral data model: atoms, measures, reduction, membership."""

import math
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opequiv import (
    ALEPH0,
    Aleph,
    BoundaryAmbiguityError,
    BucketMeasure,
    Buckets,
    CoefficientSeq,
    CompactDiagonal,
    ConstantRay,
    DeltaMismatchError,
    FactorialSeq,
    Finite,
    FiniteMatrix,
    GeometricRay,
    GeometricSeq,
    PowerSeq,
    ScaledIdentity,
    SeqRay,
    SeqSpan,
    SparseRay,
    SpecError,
    UnsupportedTailError,
    ZERO,
    ZeroTail,
    bucket_index,
    card_add,
    direct_sum,
    flatten_values,
    identity_measure,
    kernel_condition,
    merge_measures,
    modulus_data,
    range_membership,
    truncate_inventory,
)
from opequiv.spectral import _bucket_counts
from opequiv.tails import pow_delta, sparse_rule_count

HALF = F(1, 2)


def meas(buckets, atoms=(), kernel=ZERO, cokernel=ZERO, delta=HALF):
    return BucketMeasure(
        delta=delta, buckets=buckets, atoms=atoms, kernel_dim=kernel, cokernel_dim=cokernel
    )


# ---------------------------------------------------------------------------
# Tail atoms


def test_constant_ray_counts():
    ray = ConstantRay(start=3, count=Finite(2))
    assert ray.count_at(2, HALF) == ZERO
    assert ray.count_at(3, HALF) == Finite(2)
    assert ray.count_at(100, HALF) == Finite(2)
    # Window 1..5 overlaps at 3,4,5.
    assert ray.window_count(1, 5, HALF) == Finite(6)
    assert ray.window_count(4, 3, HALF) == ZERO
    # Finitely many per bucket but infinitely many buckets.
    assert ray.total() == ALEPH0
    assert ConstantRay(0, ALEPH0).total() == ALEPH0


def test_constant_ray_rejects_zero_count():
    with pytest.raises(SpecError):
        ConstantRay(start=0, count=ZERO)


def test_geometric_ray_counts():
    ray = GeometricRay(start=1, base=2)
    assert ray.count_at(0, HALF) == ZERO
    assert ray.count_at(1, HALF) == Finite(2)
    assert ray.count_at(5, HALF) == Finite(32)
    # Sum of 2^j for j = 1..4 is 30.
    assert ray.window_count(1, 4, HALF) == Finite(30)
    assert ray.window_count(0, 4, HALF) == Finite(30)
    assert ray.total() == ALEPH0


def test_geometric_ray_validation():
    with pytest.raises(SpecError):
        GeometricRay(start=-1, base=2)
    with pytest.raises(SpecError):
        GeometricRay(start=0, base=1)


def test_sparse_ray_window_matches_pointwise():
    ray = SparseRay(start=0)
    for k in range(0, 12):
        total = sum(ray.count_at(j, HALF).n for j in range(k, 20))
        assert ray.window_count(k, 19, HALF) == Finite(total)
    assert ray.total() == ALEPH0
    assert ray.first_bucket(HALF) == 0  # log2(1!) = 0


def sparse_first_bucket_by_steps(ray: SparseRay, delta: F) -> int:
    """The first rule index >= max(0, start), by the stepping search the
    galloping one replaced: up 8 buckets at a time, then back one by one."""
    s = max(0, ray.start)
    j = s
    while sparse_rule_count(delta, s, j) == 0:
        j += 8
    while sparse_rule_count(delta, s, j - 1) > 0:
        j -= 1
    return j


@pytest.mark.parametrize("delta", [F(1, 2), F(2, 3), F(1, 10)])
def test_sparse_first_bucket_matches_the_stepping_search(delta):
    for start in range(-3, 41):
        ray = SparseRay(start)
        assert ray.first_bucket(delta) == sparse_first_bucket_by_steps(ray, delta)


def test_seq_ray_power_law_counts():
    # Values 1/n for n >= 1: one value in bucket -1 (n=1), one in bucket 0
    # (n=2), then 2^j values in bucket j for j >= 1.
    ray = SeqRay(SeqSpan(PowerSeq(F(1), F(1)), 1, 1))
    assert ray.count_at(-1, HALF) == Finite(1)
    assert ray.count_at(0, HALF) == Finite(1)
    for j in range(1, 7):
        assert ray.count_at(j, HALF) == Finite(2**j)
    assert ray.window_count(1, 3, HALF) == Finite(2 + 4 + 8)
    assert ray.first_bucket(HALF) == -1


def test_seq_ray_multiplicity_scales_counts():
    single = SeqRay(SeqSpan(PowerSeq(F(1), F(1)), 1, 1))
    triple = SeqRay(SeqSpan(PowerSeq(F(1), F(1)), 1, 3))
    for j in range(-1, 8):
        assert triple.count_at(j, HALF) == Finite(3 * single.count_at(j, HALF).n)


# ---------------------------------------------------------------------------
# Bucket measures


def test_measure_drops_zero_buckets_and_coerces_ints():
    m = meas({0: 2, 3: ZERO, 5: Finite(0), 7: Finite(1)})
    assert set(m.buckets) == {0, 7}
    assert m.buckets[0] == Finite(2)


def test_measure_rejects_non_integer_bucket():
    with pytest.raises(SpecError):
        meas({"0": Finite(1)})


@pytest.mark.parametrize("bad", ["x", 1.5, F(1, 2), None, True, -1])
def test_measure_rejects_counts_that_are_not_cardinals(bad):
    # One validation pass at construction: a decision never meets such a
    # count (it used to die on ``.n`` or with a bare TypeError).
    with pytest.raises(SpecError, match=r"^bucket 3 must be a cardinal .* got "):
        meas({0: 2, 3: bad})
    for field in ("kernel_dim", "cokernel_dim"):
        with pytest.raises(SpecError, match=rf"^{field} must be a cardinal .* got "):
            BucketMeasure(HALF, {0: 2}, **{field: bad})


def test_count_at_adds_atoms_to_explicit():
    m = meas({2: Finite(5)}, atoms=(ConstantRay(2, Finite(1)),))
    assert m.count_at(1) == ZERO
    assert m.count_at(2) == Finite(6)
    assert m.count_at(3) == Finite(1)


def test_window_count_sums_pointwise():
    m = meas(
        {0: Finite(1), 2: ALEPH0},
        atoms=(SparseRay(0), ConstantRay(5, Finite(2))),
    )
    for k in range(-2, 8):
        for h in range(k - 1, 10):
            expected = ZERO
            for j in range(k, h + 1):
                expected = card_add(expected, m.count_at(j))
            assert m.window_count(k, h) == expected


def test_support_and_classification():
    empty = meas({})
    assert empty.total_mass() == ZERO
    assert empty.is_compact() and empty.has_closed_range()

    finite = meas({-1: Finite(2), 3: Finite(1)})
    assert finite.total_mass() == Finite(3)
    assert finite.is_compact() and finite.has_closed_range()

    tailed = meas({0: Finite(1)}, atoms=(ConstantRay(4, Finite(1)),))
    assert tailed.total_mass() == ALEPH0
    assert tailed.is_compact() and not tailed.has_closed_range()

    fat = meas({-1: ALEPH0})
    assert fat.aleph_points() == [(-1, 0)]
    assert not fat.is_compact() and fat.has_closed_range()

    fat_ray = meas({}, atoms=(ConstantRay(0, Aleph(1)),))
    assert fat_ray.aleph_rays() == [(0, 1)]
    assert not fat_ray.is_compact() and not fat_ray.has_closed_range()


def test_domain_and_codomain_dims():
    m = meas({0: Finite(3)}, kernel=Finite(2), cokernel=ALEPH0)
    assert m.domain_dim() == Finite(5)
    assert m.codomain_dim() == ALEPH0


def test_measure_json_shapes():
    m = meas(
        {-1: ALEPH0, 2: Finite(3)},
        atoms=(
            ConstantRay(0, Finite(1)),
            GeometricRay(1, 2),
            SparseRay(0),
            SeqRay(SeqSpan(GeometricSeq(F(1), F(1, 3)), 2, 2)),
        ),
        kernel=Finite(1),
    )
    out = m.to_json()
    assert out["delta"] == "1/2"
    assert out["buckets"] == {"-1": "aleph0", "2": 3}
    assert out["kernel"] == 1 and out["cokernel"] == 0
    kinds = [t["kind"] for t in out["tails"]]
    assert kinds == ["constant", "geometric_count", "sparse_factorial", "sequence"]
    seq = out["tails"][-1]
    assert seq["model"] == {"kind": "geometric", "c": "1", "r": "1/3"}
    assert seq["model_start"] == 2 and seq["multiplicity"] == 2
    # Atom-free measures serialize without a tails key.
    assert "tails" not in meas({0: Finite(1)}).to_json()


# ---------------------------------------------------------------------------
# Merging and the identity measure


def test_merge_requires_same_delta():
    with pytest.raises(DeltaMismatchError):
        merge_measures(meas({}), meas({}, delta=F(1, 3)))


@st.composite
def measures(draw):
    buckets = draw(
        st.dictionaries(
            st.integers(-3, 6),
            st.one_of(
                st.integers(0, 9).map(Finite),
                st.integers(0, 2).map(Aleph),
            ),
            max_size=4,
        )
    )
    atoms = []
    if draw(st.booleans()):
        atoms.append(ConstantRay(draw(st.integers(-2, 4)), Finite(draw(st.integers(1, 3)))))
    if draw(st.booleans()):
        atoms.append(SparseRay(draw(st.integers(0, 3))))
    return meas(
        buckets,
        atoms=tuple(atoms),
        kernel=Finite(draw(st.integers(0, 3))),
        cokernel=Finite(draw(st.integers(0, 3))),
    )


@given(measures(), measures(), st.integers(-4, 10))
@settings(max_examples=120)
def test_merge_is_pointwise_cardinal_sum(a, b, j):
    merged = merge_measures(a, b)
    assert merged.count_at(j) == card_add(a.count_at(j), b.count_at(j))
    assert merged.total_mass() == card_add(a.total_mass(), b.total_mass())
    assert merged.kernel_dim == card_add(a.kernel_dim, b.kernel_dim)
    assert merged.cokernel_dim == card_add(a.cokernel_dim, b.cokernel_dim)


def test_identity_measure():
    assert identity_measure(HALF, ZERO).buckets == {}
    m = identity_measure(HALF, ALEPH0)
    assert m.buckets == {-1: ALEPH0}
    assert identity_measure(HALF, Finite(4)).count_at(-1) == Finite(4)


# ---------------------------------------------------------------------------
# Operator specifications and their validation


def test_matrix_validation():
    with pytest.raises(SpecError):
        FiniteMatrix(rows=())
    with pytest.raises(SpecError):
        FiniteMatrix(rows=((1, 2), (3,)))
    m = FiniteMatrix(rows=((1, 2, 3), (4, 5, 6)))
    assert m.n_rows == 2 and m.n_cols == 3


@pytest.mark.parametrize(
    "entry",
    [math.nan, math.inf, -math.inf, complex(math.nan, 0), complex(1, math.inf), complex(0, -math.inf)],
)
def test_matrix_rejects_non_finite_entries(entry):
    # Without the check, a decision on such a matrix ends in numpy's
    # LinAlgError from the SVD.
    with pytest.raises(SpecError, match="finite"):
        FiniteMatrix(rows=((entry, 0), (0, 1)))
    with pytest.raises(SpecError, match="finite"):
        FiniteMatrix(np.array([[1, 0], [0, entry]]))


def test_compact_diagonal_validation():
    with pytest.raises(SpecError):
        CompactDiagonal(prefix=(F(1), F(0)))
    with pytest.raises(SpecError):
        CompactDiagonal(prefix=(F(1, 4), F(1, 2)))  # increasing
    with pytest.raises(SpecError):
        # First tail term is 1, which exceeds the last prefix entry 1/4.
        CompactDiagonal(prefix=(F(1, 4),), tail=PowerSeq(F(1), F(1)))
    CompactDiagonal(prefix=(F(1),), tail=PowerSeq(F(1), F(1)))  # ok: 1 >= 1


def test_scaled_identity_validation():
    with pytest.raises(SpecError):
        ScaledIdentity(value=F(0), dim=Finite(1))
    ScaledIdentity(value=F(3), dim=ALEPH0)


# ---------------------------------------------------------------------------
# Reduction to modulus data


def test_modulus_data_diagonal_example():
    spec = CompactDiagonal(prefix=(HALF, F(1, 4), F(1, 8)))
    m = modulus_data(spec, HALF)
    assert m.buckets == {0: Finite(1), 1: Finite(1), 2: Finite(1)}
    assert m.kernel_dim == ZERO and m.cokernel_dim == ZERO


def test_modulus_data_diagonal_tail_atom():
    spec = CompactDiagonal(prefix=(), tail=PowerSeq(F(1), F(1)))
    m = modulus_data(spec, HALF)
    assert len(m.atoms) == 1 and isinstance(m.atoms[0], SeqRay)
    for j in range(1, 6):
        assert m.count_at(j) == Finite(2**j)


def test_modulus_data_square_matrix_with_kernel():
    m = modulus_data(FiniteMatrix(rows=((3, 0), (0, 0))), HALF)
    assert m.buckets == {-2: Finite(1)}  # 3 lies in [2, 4)
    assert m.kernel_dim == Finite(1) and m.cokernel_dim == Finite(1)


def test_modulus_data_rectangular_matrix():
    m = modulus_data(FiniteMatrix(rows=((1, 0, 0), (0, 2, 0))), HALF)
    assert m.buckets == {-1: Finite(1), -2: Finite(1)}
    assert m.kernel_dim == Finite(1)  # 3 columns, rank 2
    assert m.cokernel_dim == ZERO


def test_modulus_data_complex_matrix():
    m = modulus_data(FiniteMatrix(rows=((0, 1j), (1, 0))), HALF)
    assert m.buckets == {-1: Finite(2)}
    assert m.kernel_dim == ZERO and m.cokernel_dim == ZERO


def test_modulus_data_boundary_ambiguity():
    # A singular value within svd_tol of the bucket edge 1/2 (but not equal to
    # it) cannot be bucketed reliably.
    with pytest.raises(BoundaryAmbiguityError):
        modulus_data(FiniteMatrix(rows=((0.5 + 1e-12,),)), HALF)
    # Exactly on the edge is fine: 1/2 belongs to bucket 0 by the half-open
    # convention, and exact equality is not ambiguous.
    assert modulus_data(FiniteMatrix(rows=((0.5,),)), HALF).buckets == {0: Finite(1)}


def _per_value_buckets(values, delta, thresh):
    """The per-value bucketing that the float pass replaces, kept as its oracle."""
    tol = F(thresh)
    buckets = {}
    for s in values:
        value = F(s)
        j = bucket_index(value, delta)
        for edge_exp in (j, j + 1):
            edge = pow_delta(delta, edge_exp)
            if abs(value - edge) <= tol and value != edge:
                raise BoundaryAmbiguityError(s, float(edge))
        buckets[j] = card_add(buckets.get(j, ZERO), Finite(1))
    return buckets


def _float_pass(values, delta, thresh):
    return _bucket_counts(np.array(values, dtype=float), delta, thresh)


def _bucketing(fn, values, delta, thresh):
    try:
        return ("buckets", list(fn(values, delta, thresh).items()))
    except BoundaryAmbiguityError as e:
        return ("ambiguous", e.value, e.boundary, str(e))


@st.composite
def singular_value_lists(draw):
    delta = draw(st.sampled_from([HALF, F(2, 3), F(3, 4), F(1, 10)]))
    thresh = draw(
        st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 1e-9, 3.5e-7, 0.01, 2.0**-30, 3 * 2.0**-45, 0.25])
        | st.floats(min_value=0.0, max_value=0.1, allow_subnormal=True)
    )
    j_range = {HALF: (-1020, 1070), F(2, 3): (-1700, 1800), F(3, 4): (-2400, 2500), F(1, 10): (-300, 320)}[delta]
    edge_exps = st.integers(-40, 40) | st.integers(*j_range)

    def near_edge():
        edge = float(pow_delta(delta, draw(edge_exps)))
        base = draw(st.sampled_from([edge, edge - thresh, edge + thresh]))
        return draw(st.sampled_from([base, math.nextafter(base, 0), math.nextafter(base, math.inf)]))

    values = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["edge", "edge", "edge", "random", "subnormal"]))
        if kind == "edge":
            v = near_edge()
        elif kind == "random":
            v = draw(st.floats(min_value=1e-300, max_value=1e300))
        else:
            v = draw(st.floats(min_value=5e-324, max_value=2.2250738585072014e-308, allow_subnormal=True))
        if 0 < v < math.inf:
            values.append(v)
    return delta, thresh, draw(st.permutations(values))


@given(singular_value_lists())
@settings(max_examples=400, deadline=None)
def test_float_bucketing_matches_the_per_value_oracle(case):
    # Values on an edge, one ulp either side, at +-tol from it and one ulp
    # beyond, plus subnormals: same buckets in the same order, and the same
    # BoundaryAmbiguityError on the same value and edge.
    delta, thresh, values = case
    got = _bucketing(_float_pass, values, delta, thresh)
    assert got == _bucketing(_per_value_buckets, values, delta, thresh)


@pytest.mark.parametrize("delta", [HALF, F(2, 3), F(1, 10), F(999, 1000), F(1, 10**40)])
def test_float_bucketing_takes_the_exact_test_near_edges(delta):
    # An edge value, its float neighbours and a value within tol of the edge:
    # each must match the oracle, whichever path settles it.
    for j in (-3, 0, 1, 7):
        edge = float(pow_delta(delta, j))
        for thresh in (0.0, 2.0**-30 * edge, 1e-9 * edge):
            near = (edge, math.nextafter(edge, 0), math.nextafter(edge, math.inf), edge * (1 + 1e-12))
            for v in near + (edge + thresh, edge - thresh):
                got = _bucketing(_float_pass, [v], delta, thresh)
                assert got == _bucketing(_per_value_buckets, [v], delta, thresh)


def test_finite_matrix_holds_one_read_only_complex_array():
    source = np.array([[1, 2], [3, 4]])
    m = FiniteMatrix(source)
    source[0, 0] = 9  # the matrix keeps its own copy
    assert m.array.dtype == np.complex128 and not m.array.flags.writeable
    assert m.rows == ((1 + 0j, 2 + 0j), (3 + 0j, 4 + 0j))
    assert m == FiniteMatrix(((1, 2), (3, 4))) and hash(m) == hash(FiniteMatrix(((1, 2), (3, 4))))
    assert m != FiniteMatrix(((1, 2),)) and m != FiniteMatrix(((1, 2), (3, 5)))
    with pytest.raises(SpecError):
        FiniteMatrix(np.zeros((0, 3)))
    with pytest.raises(SpecError):
        FiniteMatrix(np.zeros(3))
    for name in ("array", "rows", "singular_values"):
        with pytest.raises(FrozenInstanceError):
            setattr(m, name, np.eye(2))


def test_modulus_data_scaled_identity():
    assert modulus_data(ScaledIdentity(F(1), ALEPH0), HALF).buckets == {-1: ALEPH0}
    assert modulus_data(ScaledIdentity(F(3), Finite(2)), HALF).buckets == {-2: Finite(2)}
    assert modulus_data(ScaledIdentity(F(1), ZERO), HALF).buckets == {}


def test_modulus_data_buckets_passthrough_checks_delta():
    m = meas({0: Finite(1)})
    assert modulus_data(Buckets(m), HALF) is m
    with pytest.raises(DeltaMismatchError):
        modulus_data(Buckets(m), F(1, 3))


@st.composite
def prefixes_with_edges(draw):
    """(delta, prefix): a nonincreasing prefix that holds exact bucket edges,
    values just either side of an edge, and repeated values."""
    delta = draw(st.sampled_from([HALF, F(1, 3), F(2, 3), F(5, 7)]))
    edges = st.integers(-4, 8).map(lambda j: pow_delta(delta, j))
    beside = st.tuples(edges, st.sampled_from([F(1, 10**6), F(-1, 10**6)])).map(
        lambda pair: pair[0] * (1 + pair[1])
    )
    free = st.fractions(min_value=F(1, 64), max_value=F(8))
    vals = draw(st.lists(edges | beside | free, min_size=1, max_size=12))
    vals += [draw(st.sampled_from(vals)) for _ in range(draw(st.integers(0, 4)))]
    return delta, sorted(vals, reverse=True)


@given(prefixes_with_edges())
@settings(max_examples=200)
def test_modulus_data_matches_bucketed_values(case):
    # A diagonal's measure is exactly the histogram of bucket_index over its
    # values. The buckets are half-open, [delta^(j+1), delta^j), so a value
    # on an edge opens the lower bucket.
    delta, vals = case
    m = modulus_data(CompactDiagonal(prefix=tuple(vals)), delta)
    expected = {}
    for v in vals:
        j = bucket_index(v, delta)
        expected[j] = expected.get(j, 0) + 1
    assert {j: c.n for j, c in m.buckets.items()} == expected


@given(measures(), measures())
@settings(max_examples=60)
def test_direct_sum_measure_is_merge(a, b):
    sum_measure = modulus_data(direct_sum(Buckets(a), Buckets(b)), HALF)
    merged = merge_measures(a, b)
    assert sum_measure.buckets == merged.buckets
    assert sum_measure.total_mass() == merged.total_mass()


def test_kernel_condition():
    a = FiniteMatrix(rows=((3, 0), (0, 0)))
    b = FiniteMatrix(rows=((0, 1), (0, 0)))
    assert kernel_condition(a, b)  # both have kernel 1, cokernel 1
    assert not kernel_condition(a, FiniteMatrix(rows=((1, 0), (0, 1))))
    # Rectangular shapes compare both defects independently.
    tall = FiniteMatrix(rows=((1, 0), (0, 1), (0, 0)))  # cokernel 1
    wide = FiniteMatrix(rows=((1, 0, 0), (0, 1, 0)))  # kernel 1
    assert not kernel_condition(tall, wide)
    sick = CompactDiagonal(prefix=(F(1),), kernel_dim=ALEPH0, cokernel_dim=ALEPH0)
    assert kernel_condition(sick, sick)
    assert not kernel_condition(sick, CompactDiagonal(prefix=(F(1),)))


# ---------------------------------------------------------------------------
# Range membership


def diag_inverse_integers():
    """Measure of diag(1, 1/2, 1/3, ...): dense in every bucket j >= -1."""
    return modulus_data(CompactDiagonal(prefix=(), tail=PowerSeq(F(1), F(1))), HALF)


def test_range_membership_rejects_off_spectrum_components():
    m = meas({2: Finite(1)})
    with pytest.raises(SpecError):
        range_membership(m, CoefficientSeq(explicit={3: F(1)}))
    assert range_membership(m, CoefficientSeq(explicit={2: F(5)}))
    # Zero entries are dropped and never obstruct.
    assert range_membership(m, CoefficientSeq(explicit={3: F(0), 2: F(1)}))


def test_range_membership_finite_support_always_in_range():
    m = diag_inverse_integers()
    x = CoefficientSeq(explicit={-1: F(7), 0: F(1), 5: F(1, 32)})
    assert range_membership(m, x)


def test_range_membership_geometric_tail_threshold():
    m = diag_inverse_integers()
    assert range_membership(m, CoefficientSeq({}, tail=GeometricSeq(F(1), F(1, 4)), tail_from=0))
    assert not range_membership(m, CoefficientSeq({}, tail=GeometricSeq(F(1), HALF), tail_from=0))
    assert not range_membership(m, CoefficientSeq({}, tail=GeometricSeq(F(1), F(3, 4)), tail_from=0))


def test_range_membership_power_and_factorial_tails():
    m = diag_inverse_integers()
    assert not range_membership(m, CoefficientSeq({}, tail=PowerSeq(F(1), F(2)), tail_from=0))
    assert range_membership(m, CoefficientSeq({}, tail=FactorialSeq(), tail_from=0))


def test_range_membership_tail_needs_dense_spectrum():
    # Closed-range measures have no spectrum beyond a point: an infinite tail
    # of components has nowhere to sit.
    with pytest.raises(SpecError):
        range_membership(
            meas({0: Finite(1)}), CoefficientSeq({}, tail=FactorialSeq(), tail_from=0)
        )
    # Sparse spectra (factorial marks) leave gaps inside every horizon.
    with pytest.raises(SpecError):
        range_membership(
            meas({}, atoms=(SparseRay(0),)),
            CoefficientSeq({}, tail=GeometricSeq(F(1), F(1, 4)), tail_from=0),
        )


def test_range_membership_constant_ray_is_dense():
    m = meas({}, atoms=(ConstantRay(0, Finite(1)),))
    assert range_membership(m, CoefficientSeq({}, tail=GeometricSeq(F(1), F(1, 3)), tail_from=0))
    assert not range_membership(m, CoefficientSeq({}, tail=PowerSeq(F(1), F(3)), tail_from=0))


def test_coefficient_seq_validation():
    with pytest.raises(SpecError):
        CoefficientSeq(explicit={0: F(-1)})
    assert CoefficientSeq(explicit={}, tail=ZeroTail()).tail is None


@pytest.mark.parametrize("small", [1.01e-9, 0.99e-9])
@pytest.mark.parametrize("shape", ["square", "wide", "tall"])
def test_measure_and_inventory_share_one_rank_rule(small, shape):
    # A singular value just above or just below svd_tol * sigma_max: both
    # reductions must keep or drop it alike. delta = 10^-6 keeps the kept value
    # clear of every bucket edge.
    rows = {
        "square": ((1, 0), (0, small)),
        "wide": ((1, 0, 0), (0, small, 0)),
        "tall": ((1, 0), (0, small), (0, 0)),
    }[shape]
    spec = FiniteMatrix(rows=rows)
    m = modulus_data(spec, F(1, 10**6))
    inv = flatten_values(spec)
    assert (m.kernel_dim, m.cokernel_dim) == (inv.kernel_dim, inv.cokernel_dim)
    rank = 2 if small > 1e-9 else 1
    assert len(inv.values) == m.total_mass().n == rank
    assert m.kernel_dim == Finite(spec.n_cols - rank)
    assert m.cokernel_dim == Finite(spec.n_rows - rank)


# ---------------------------------------------------------------------------
# Value inventories


def test_flatten_values_collects_and_sorts():
    spec = direct_sum(
        CompactDiagonal(prefix=(F(1, 4),)),
        ScaledIdentity(F(3), Finite(2)),
    )
    inv = flatten_values(spec)
    assert inv.values == (F(3), F(3), F(1, 4))
    assert inv.spans == () and inv.aleph_values == ()


def test_flatten_values_merges_equal_tails_into_multiplicity():
    one = CompactDiagonal(prefix=(), tail=PowerSeq(F(1), F(1)))
    inv = flatten_values(direct_sum(one, one))
    assert len(inv.spans) == 1
    assert inv.spans[0].mult == 2 and inv.spans[0].start == 1


def test_flatten_values_records_infinite_identities():
    inv = flatten_values(ScaledIdentity(F(1, 2), ALEPH0))
    assert inv.aleph_values == ((F(1, 2), 0),)


def test_flatten_values_accumulates_defects():
    spec = direct_sum(
        FiniteMatrix(rows=((0, 0), (0, 1))),
        CompactDiagonal(prefix=(F(1),), kernel_dim=Finite(2)),
    )
    inv = flatten_values(spec)
    assert inv.kernel_dim == Finite(3) and inv.cokernel_dim == Finite(1)
    assert inv.values == (F(1), F(1))


def test_flatten_values_rejects_bucket_data():
    with pytest.raises(UnsupportedTailError):
        flatten_values(Buckets(meas({0: Finite(1)})))


def test_truncate_inventory():
    inv = flatten_values(
        direct_sum(
            CompactDiagonal(prefix=(F(1), HALF, F(1, 4), F(1, 8)), tail=ZeroTail()),
            CompactDiagonal(prefix=(), tail=PowerSeq(F(1), F(1))),
        )
    )
    cut = truncate_inventory(inv, HALF, 2)
    # Strictly below 1/4: only the 1/8 survives from the explicit values.
    assert cut.values == (F(1, 8),)
    # 1/n >= 1/4 for n = 1..4, so the span restarts at n = 5.
    assert cut.spans[0].start == 5 and cut.spans[0].mult == 1
    assert cut.aleph_values == ()


def test_truncate_inventory_aleph_handling():
    shallow = flatten_values(ScaledIdentity(F(1), ALEPH0))
    cut = truncate_inventory(shallow, HALF, 2)
    assert cut.aleph_values == ()  # the value 1 sits above the bar and is dropped
    deep = flatten_values(ScaledIdentity(F(1, 8), ALEPH0))
    with pytest.raises(SpecError):
        truncate_inventory(deep, HALF, 2)
