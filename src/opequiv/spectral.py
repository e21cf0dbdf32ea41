"""Spectral data model for operators.

An operator is described either concretely (a finite matrix, a diagonal
sequence with a closed-form tail, a scaled identity) or abstractly by a bucket
measure: for a base ratio delta, bucket j counts the spectral dimension of the
modulus in the interval [delta^(j+1), delta^j). Bucket counts are cardinals;
infinite tails of buckets are carried symbolically by tail atoms so that
bucketing, direct sums, and window counts stay exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property, reduce
from fractions import Fraction
from itertools import chain
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .cardinal import (
    ALEPH0,
    ZERO,
    Aleph,
    Cardinal,
    Finite,
    as_cardinal,
    card_add,
    card_scale,
    card_to_json,
    finite,
    is_finite,
)
from .errors import (
    BoundaryAmbiguityError,
    DeltaMismatchError,
    SpecError,
    UnsupportedTailError,
)
from .tails import (
    FactorialSeq,
    GeometricSeq,
    PowerSeq,
    SeqSpan,
    TailModel,
    ZeroTail,
    bucket_index,
    check_delta,
    count_ge,
    least_true,
    pow_delta,
    sparse_rule_count,
    term_cmp,
)

# ---------------------------------------------------------------------------
# Tail atoms: symbolic bucket counts for all indices j >= start.


@dataclass(frozen=True)
class ConstantRay:
    """count(j) = count for every j >= start."""

    start: int
    count: Cardinal

    def __post_init__(self):
        if isinstance(self.count, int):
            object.__setattr__(self, "count", as_cardinal(self.count))
        if self.count == ZERO:
            raise SpecError("constant tail with zero count is meaningless")

    def count_at(self, j: int, delta: Fraction) -> Cardinal:
        return self.count if j >= self.start else ZERO

    def window_count(self, k: int, h: int, delta: Fraction) -> Cardinal:
        overlap = h - max(k, self.start) + 1
        return card_scale(self.count, max(0, overlap))

    def total(self) -> Cardinal:
        # Infinitely many buckets, each nonzero.
        return self.count if isinstance(self.count, Aleph) else ALEPH0

    def first_bucket(self, delta: Fraction) -> int:
        return self.start


@dataclass(frozen=True)
class GeometricRay:
    """count(j) = base**j for every j >= start (start >= 0, base >= 2)."""

    start: int
    base: int

    def __post_init__(self):
        if self.start < 0 or self.base < 2:
            raise SpecError(
                f"geometric bucket tail needs start >= 0 and base >= 2, got {self}"
            )

    def count_at(self, j: int, delta: Fraction) -> Cardinal:
        return Finite(self.base**j) if j >= self.start else ZERO

    def window_count(self, k: int, h: int, delta: Fraction) -> Cardinal:
        lo = max(k, self.start)
        if h < lo:
            return ZERO
        b = self.base
        return Finite((b ** (h + 1) - b**lo) // (b - 1))

    def total(self) -> Cardinal:
        return ALEPH0

    def first_bucket(self, delta: Fraction) -> int:
        return self.start


@dataclass(frozen=True)
class SparseRay:
    """count 1 at every rule index floor(log_{1/delta}(n!)) that is >= start."""

    start: int

    def count_at(self, j: int, delta: Fraction) -> Cardinal:
        if j < self.start:
            return ZERO
        return Finite(sparse_rule_count(delta, j, j))

    def window_count(self, k: int, h: int, delta: Fraction) -> Cardinal:
        return Finite(sparse_rule_count(delta, max(k, self.start), h))

    def total(self) -> Cardinal:
        return ALEPH0

    def first_bucket(self, delta: Fraction) -> int:
        s = max(0, self.start)
        return least_true(lambda j: sparse_rule_count(delta, s, j) > 0, s - 1)


@dataclass(frozen=True)
class SeqRay:
    """Bucket counts of a diagonal value-sequence tail (internal atom)."""

    span: SeqSpan

    def count_at(self, j: int, delta: Fraction) -> Cardinal:
        return Finite(self.span.bucket_count(delta, j))

    def window_count(self, k: int, h: int, delta: Fraction) -> Cardinal:
        if h < k:
            return ZERO
        got = self.span.cum_to_bucket(delta, h) - self.span.cum_to_bucket(delta, k - 1)
        return Finite(got)

    def total(self) -> Cardinal:
        return ALEPH0

    def first_bucket(self, delta: Fraction) -> int:
        return self.span.first_bucket(delta)


TailAtom = Union[ConstantRay, GeometricRay, SparseRay, SeqRay]


# ---------------------------------------------------------------------------
# Bucket measures


def _cardinal(value, what: str) -> Cardinal:
    """as_cardinal(value), with SpecError naming ``what`` for a value that is
    neither a cardinal nor an int >= 0."""
    try:
        return as_cardinal(value)
    except (TypeError, ValueError):
        raise SpecError(
            f"{what} must be a cardinal (Finite, Aleph or an int >= 0), got {value!r}"
        ) from None


@dataclass(frozen=True, init=False)
class BucketMeasure:
    """Spectral dimension per bucket, plus kernel and cokernel dimensions.

    ``buckets`` holds explicit counts; ``atoms`` contribute additively on top
    for all indices they cover. Zero explicit entries are dropped on
    construction. ``buckets`` is read-only once built.

    Construction validates every count in one pass and records what the
    decisions read, so that no later call walks the buckets again:
    ``_finite`` maps each finite explicit bucket to its count as an int,
    ``_finite_total`` is their sum, ``_aleph_points`` the infinite explicit
    buckets and ``_aleph_rays`` the infinite constant atoms, each as a
    sorted tuple of (index, level), and ``_mass`` the total mass.
    """

    delta: Fraction
    buckets: Mapping[int, Cardinal]
    atoms: tuple[TailAtom, ...] = ()
    kernel_dim: Cardinal = ZERO
    cokernel_dim: Cardinal = ZERO

    def __init__(
        self,
        delta: Fraction,
        buckets: Mapping[int, Cardinal],
        atoms: tuple[TailAtom, ...] = (),
        kernel_dim: Cardinal = ZERO,
        cokernel_dim: Cardinal = ZERO,
    ):
        delta = check_delta(delta)
        clean, counts, points = {}, {}, []
        for j, c in buckets.items():
            if not isinstance(j, int):
                raise SpecError(f"bucket index must be an integer, got {j!r}")
            if not isinstance(c, Finite):
                if isinstance(c, Aleph):
                    clean[j] = c
                    points.append((j, c.level))
                    continue
                c = _cardinal(c, f"bucket {j}")
            if c.n:
                clean[j] = c
                counts[j] = c.n
        atoms = tuple(atoms)
        total = sum(counts.values())
        infinite = [clean[j] for j, _ in points]
        rays = []
        for a in atoms:
            infinite.append(a.total())
            if isinstance(a, ConstantRay) and isinstance(a.count, Aleph):
                rays.append((a.start, a.count.level))
        points.sort()
        rays.sort()
        # Frozen: the fields and the facts go in with one update.
        vars(self).update(
            delta=delta,
            buckets=clean,
            atoms=atoms,
            kernel_dim=_cardinal(kernel_dim, "kernel_dim"),
            cokernel_dim=_cardinal(cokernel_dim, "cokernel_dim"),
            _finite=counts,
            _finite_total=total,
            _aleph_points=tuple(points),
            _aleph_rays=tuple(rays),
            _mass=reduce(card_add, infinite, finite(total)),
        )

    # -- pointwise and window counts

    def count_at(self, j: int) -> Cardinal:
        total = self.buckets.get(j, ZERO)
        for atom in self.atoms:
            total = card_add(total, atom.count_at(j, self.delta))
        return total

    def window_count(self, k: int, h: int) -> Cardinal:
        """Total count over buckets k..h inclusive (empty if h < k)."""
        if h < k:
            return ZERO
        total = ZERO
        for j, c in self.buckets.items():
            if k <= j <= h:
                total = card_add(total, c)
        for atom in self.atoms:
            total = card_add(total, atom.window_count(k, h, self.delta))
        return total

    # -- totals and classification

    def total_mass(self) -> Cardinal:
        return self._mass

    def domain_dim(self) -> Cardinal:
        return card_add(self._mass, self.kernel_dim)

    def codomain_dim(self) -> Cardinal:
        return card_add(self._mass, self.cokernel_dim)

    def aleph_points(self) -> list[tuple[int, int]]:
        """Explicit infinite buckets as sorted (index, aleph level) pairs."""
        return list(self._aleph_points)

    def aleph_rays(self) -> list[tuple[int, int]]:
        """(start, level) for each constant atom with an infinite count."""
        return list(self._aleph_rays)

    def is_compact(self) -> bool:
        """Every bucket finite-dimensional: no infinite bucket or infinite ray."""
        return not self._aleph_points and not self._aleph_rays

    def has_closed_range(self) -> bool:
        """Spectrum bounded away from zero: no counts beyond some bucket."""
        return not self.atoms

    def to_json(self) -> dict:
        out = {
            "delta": str(self.delta),
            "buckets": {str(j): card_to_json(c) for j, c in sorted(self.buckets.items())},
            "kernel": card_to_json(self.kernel_dim),
            "cokernel": card_to_json(self.cokernel_dim),
        }
        tails = []
        for atom in self.atoms:
            if isinstance(atom, ConstantRay):
                tails.append(
                    {"kind": "constant", "start": atom.start, "count": card_to_json(atom.count)}
                )
            elif isinstance(atom, GeometricRay):
                tails.append({"kind": "geometric_count", "start": atom.start, "base": atom.base})
            elif isinstance(atom, SparseRay):
                tails.append({"kind": "sparse_factorial", "start": atom.start})
            else:
                span = atom.span
                tails.append(
                    {
                        "kind": "sequence",
                        "model": model_json(span.model),
                        "model_start": span.start,
                        "multiplicity": span.mult,
                    }
                )
        if tails:
            out["tails"] = tails
        return out


def model_json(model: TailModel) -> dict:
    if isinstance(model, ZeroTail):
        return {"kind": "zero"}
    if isinstance(model, GeometricSeq):
        return {"kind": "geometric", "c": str(model.c), "r": str(model.r)}
    if isinstance(model, PowerSeq):
        return {"kind": "power_law", "c": str(model.c), "p": str(model.p)}
    return {"kind": "factorial"}


def merge_measures(a: BucketMeasure, b: BucketMeasure) -> BucketMeasure:
    """Pointwise cardinal sum (the measure of a direct sum)."""
    if a.delta != b.delta:
        raise DeltaMismatchError(
            f"cannot merge measures with different bases {a.delta} and {b.delta}"
        )
    buckets = dict(a.buckets)
    for j, c in b.buckets.items():
        buckets[j] = card_add(buckets.get(j, ZERO), c)
    return BucketMeasure(
        delta=a.delta,
        buckets=buckets,
        atoms=a.atoms + b.atoms,
        kernel_dim=card_add(a.kernel_dim, b.kernel_dim),
        cokernel_dim=card_add(a.cokernel_dim, b.cokernel_dim),
    )


def identity_measure(delta: Fraction, dim: Cardinal) -> BucketMeasure:
    """The measure of the identity: all spectrum is the value 1, bucket -1."""
    delta = check_delta(delta)
    if dim == ZERO:
        return BucketMeasure(delta, {})
    return BucketMeasure(delta, {-1: dim})


# ---------------------------------------------------------------------------
# Operator specifications


class FiniteMatrix:
    """A dense matrix, held as one read-only complex128 array.

    ``rows`` is a nested sequence of numbers, row-major, or a 2-D array; the
    matrix keeps its own copy. ``rows`` reads back as a tuple of tuples of
    complex numbers.
    """

    def __init__(self, rows):
        if not isinstance(rows, np.ndarray):
            rows = tuple(tuple(r) for r in rows)
            if not rows or not rows[0]:
                raise SpecError("matrix dimensions must be >= 1")
            if any(len(r) != len(rows[0]) for r in rows):
                raise SpecError("matrix rows have unequal lengths")
        array = np.array(rows, dtype=complex)
        if array.ndim != 2 or not array.size:
            raise SpecError("matrix dimensions must be >= 1")
        if not np.isfinite(array).all():
            raise SpecError("matrix entries must be finite")
        array.flags.writeable = False
        object.__setattr__(self, "array", array)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def rows(self) -> tuple[tuple[complex, ...], ...]:
        return tuple(map(tuple, self.array.tolist()))

    def __eq__(self, other):
        if not isinstance(other, FiniteMatrix):
            return NotImplemented
        return bool(np.array_equal(self.array, other.array))

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"FiniteMatrix(rows={self.rows!r})"

    @property
    def n_rows(self) -> int:
        return self.array.shape[0]

    @property
    def n_cols(self) -> int:
        return self.array.shape[1]

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Nonincreasing singular values, computed once per matrix (read-only)."""
        sigma = np.linalg.svd(self.array, compute_uv=False)
        sigma.flags.writeable = False
        return sigma


@dataclass(frozen=True)
class CompactDiagonal:
    """Nonincreasing positive diagonal: a finite prefix plus a tail model."""

    prefix: tuple[Fraction, ...]
    tail: TailModel = ZeroTail()
    kernel_dim: Cardinal = ZERO
    cokernel_dim: Cardinal = ZERO

    def __post_init__(self):
        prefix = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in self.prefix)
        object.__setattr__(self, "prefix", prefix)
        if any(v.numerator <= 0 for v in prefix):
            raise SpecError("diagonal prefix values must be positive")
        if any(
            u.numerator * v.denominator < v.numerator * u.denominator
            for u, v in zip(prefix, prefix[1:])
        ):
            raise SpecError("diagonal prefix must be nonincreasing")
        if prefix and not isinstance(self.tail, ZeroTail):
            # Every prefix entry must dominate the first tail term.
            if term_cmp(self.tail, 1, prefix[-1]) > 0:
                raise SpecError("prefix entries must be >= the first tail term")
        for field in ("kernel_dim", "cokernel_dim"):
            value = getattr(self, field)
            if isinstance(value, int):
                object.__setattr__(self, field, as_cardinal(value))


@dataclass(frozen=True)
class ScaledIdentity:
    """value * identity on a space of the given dimension."""

    value: Fraction
    dim: Cardinal

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value <= 0:
            raise SpecError("scaled identity needs a positive value")
        if isinstance(self.dim, int):
            object.__setattr__(self, "dim", as_cardinal(self.dim))


@dataclass(frozen=True)
class Buckets:
    measure: BucketMeasure


@dataclass(frozen=True)
class DirectSum:
    left: "OperatorSpec"
    right: "OperatorSpec"


OperatorSpec = Union[FiniteMatrix, CompactDiagonal, ScaledIdentity, Buckets, DirectSum]

DEFAULT_SVD_TOL = Fraction(1, 10**9)


def direct_sum(a: OperatorSpec, b: OperatorSpec) -> OperatorSpec:
    return DirectSum(a, b)


# ---------------------------------------------------------------------------
# Reduction to modulus data


def _kept_singular_values(
    spec: FiniteMatrix, svd_tol: Fraction
) -> tuple[np.ndarray, float]:
    """The singular values above svd_tol * sigma_max (the rank rule), and that bar."""
    sigma = spec.singular_values
    thresh = float(svd_tol) * float(sigma[0])
    return sigma[sigma > thresh], thresh


def _exact_bucket(s: float, delta: Fraction, tol: Fraction) -> int:
    """bucket_index of s, refusing a value within tol of an edge of its bucket.

    A value exactly on an edge is not ambiguous: the half-open buckets place
    it.
    """
    value = Fraction(s)
    j = bucket_index(value, delta)
    for edge_exp in (j, j + 1):
        edge = pow_delta(delta, edge_exp)
        if abs(value - edge) <= tol and value != edge:
            raise BoundaryAmbiguityError(s, float(edge))
    return j


_HALF = Fraction(1, 2)
_SMALLEST_NORMAL = np.finfo(float).tiny


def _bucket_counts(kept: np.ndarray, delta: Fraction, thresh: float) -> dict[int, Cardinal]:
    """Bucket counts of the kept singular values, in order of first occurrence.

    For delta = 1/2 one float pass settles each value that lies farther than
    thresh from both edges of its bucket. The others (none, on most matrices),
    and every value for any other delta, take _exact_bucket in order, so the
    first ambiguous value raises, as a value-by-value loop would.
    """
    if delta != _HALF:
        tol = Fraction(thresh)
        counts = Counter(_exact_bucket(s, delta, tol) for s in kept.tolist())
        return {j: Finite(n) for j, n in counts.items()}
    with np.errstate(all="ignore"):
        # v = m * 2^e with 1/2 <= m < 1, so v lies in [2^(e-1), 2^e), bucket
        # -e. Both distances to the edges are exact float subtractions.
        _, e = np.frexp(kept)
        low = kept - np.ldexp(1.0, e - 1)
        high = np.ldexp(1.0, e - 1) - low  # 2^e - v, with no overflow at e = 1024
        # A value on its lower edge is not ambiguous.
        unsure = ((low <= thresh) & (low != 0)) | (high <= thresh)
        # Zero, negative (bucket_index refuses them), non-finite and subnormal
        # values take the exact test as well.
        unsure |= ~np.isfinite(kept) | (kept < _SMALLEST_NORMAL)
        out = np.where(unsure, 0, -e).astype(int).tolist()
    flagged = np.flatnonzero(unsure)
    if len(flagged):
        tol = Fraction(thresh)
        for i in flagged.tolist():
            out[i] = _exact_bucket(float(kept[i]), delta, tol)
    return {j: Finite(n) for j, n in Counter(out).items()}


def _matrix_measure(
    spec: FiniteMatrix, delta: Fraction, svd_tol: Fraction
) -> BucketMeasure:
    kept, thresh = _kept_singular_values(spec, svd_tol)
    return BucketMeasure(
        delta=delta,
        buckets=_bucket_counts(kept, delta, thresh),
        kernel_dim=Finite(spec.n_cols - len(kept)),
        cokernel_dim=Finite(spec.n_rows - len(kept)),
    )


def _prefix_bucket_counts(prefix: tuple[Fraction, ...], delta: Fraction) -> dict[int, int]:
    """Bucket counts of a nonincreasing prefix of positive rationals.

    The bucket index never falls along the prefix, so one walk suffices: a
    value stays in the current bucket j while it is at least the bucket's
    lower edge delta^(j+1), held as an integer pair (en, ed) and compared by
    cross-multiplication. bucket_index runs once per occupied bucket.
    """
    counts: dict[int, int] = {}
    j = None
    en, ed = 1, 0  # no bucket yet: every value lies below this edge
    for v in prefix:
        if v.numerator * ed < en * v.denominator:
            j = bucket_index(v, delta)
            counts[j] = 0
            edge = pow_delta(delta, j + 1)
            en, ed = edge.numerator, edge.denominator
        counts[j] += 1
    return counts


def _diagonal_measure(spec: CompactDiagonal, delta: Fraction) -> BucketMeasure:
    buckets = {j: Finite(n) for j, n in _prefix_bucket_counts(spec.prefix, delta).items()}
    atoms: tuple[TailAtom, ...] = ()
    if not isinstance(spec.tail, ZeroTail):
        atoms = (SeqRay(SeqSpan(spec.tail, 1, 1)),)
    return BucketMeasure(
        delta=delta,
        buckets=buckets,
        atoms=atoms,
        kernel_dim=spec.kernel_dim,
        cokernel_dim=spec.cokernel_dim,
    )


def modulus_data(
    spec: OperatorSpec,
    delta: Fraction,
    svd_tol: Fraction = DEFAULT_SVD_TOL,
) -> BucketMeasure:
    """The bucket measure of the operator's modulus at base delta."""
    delta = check_delta(delta)
    if isinstance(spec, FiniteMatrix):
        return _matrix_measure(spec, delta, Fraction(svd_tol))
    if isinstance(spec, CompactDiagonal):
        return _diagonal_measure(spec, delta)
    if isinstance(spec, ScaledIdentity):
        if spec.dim == ZERO:
            return BucketMeasure(delta, {})
        j = bucket_index(spec.value, delta)
        return BucketMeasure(delta, {j: spec.dim})
    if isinstance(spec, Buckets):
        if spec.measure.delta != delta:
            raise DeltaMismatchError(
                f"bucket spec uses base {spec.measure.delta}, requested {delta}"
            )
        return spec.measure
    if isinstance(spec, DirectSum):
        return merge_measures(
            modulus_data(spec.left, delta, svd_tol),
            modulus_data(spec.right, delta, svd_tol),
        )
    raise TypeError(f"not an operator spec: {spec!r}")


def kernel_condition(
    a: OperatorSpec,
    b: OperatorSpec,
    delta: Fraction = Fraction(1, 2),
    svd_tol: Fraction = DEFAULT_SVD_TOL,
) -> bool:
    """Equal kernel dimensions and equal cokernel dimensions."""
    ma = modulus_data(a, delta, svd_tol)
    mb = modulus_data(b, delta, svd_tol)
    return ma.kernel_dim == mb.kernel_dim and ma.cokernel_dim == mb.cokernel_dim


# ---------------------------------------------------------------------------
# Range membership for diagonal positive operators


@dataclass(frozen=True)
class CoefficientSeq:
    """Component norms ||x_n|| per bucket index n.

    Explicit entries list finitely many norms; an optional tail model supplies
    ||x_n|| = term(n - tail_from + 1) for every n >= tail_from.
    """

    explicit: Mapping[int, Fraction]
    tail: Optional[TailModel] = None
    tail_from: int = 0

    def __post_init__(self):
        clean = {}
        for n, v in self.explicit.items():
            v = Fraction(v)
            if v < 0:
                raise SpecError("component norms must be nonnegative")
            if v:
                clean[int(n)] = v
        object.__setattr__(self, "explicit", clean)
        if isinstance(self.tail, ZeroTail):
            object.__setattr__(self, "tail", None)


def _measure_dense_from(measure: BucketMeasure, start: int) -> bool:
    """Whether every bucket n >= start has a nonzero count."""
    horizon = start + 96
    for atom in measure.atoms:
        if isinstance(atom, (ConstantRay, GeometricRay)):
            horizon = max(horizon, atom.start + 1)
        elif isinstance(atom, SeqRay):
            model = atom.span.model
            if isinstance(model, GeometricSeq) and model.r < measure.delta:
                return False  # consecutive values skip buckets
            if isinstance(model, FactorialSeq):
                return False
        else:
            return False  # sparse rule has unbounded gaps
    if not measure.atoms:
        return False
    return all(measure.count_at(n) != ZERO for n in range(start, horizon))


def range_membership(measure: BucketMeasure, x: CoefficientSeq) -> bool:
    """Whether sum_{n>=0} delta^(-2n) ||x_n||^2 converges.

    Components must sit where the measure has spectrum; components in buckets
    n < 0 never obstruct membership and are ignored by the sum.
    """
    delta = measure.delta
    for n, v in x.explicit.items():
        if v and measure.count_at(n) == ZERO:
            raise SpecError(f"component at bucket {n} where the operator has no spectrum")
    if x.tail is not None and not _measure_dense_from(measure, x.tail_from):
        raise SpecError(
            "tail components extend over buckets where the operator has no spectrum"
        )

    if x.tail is None:
        return True  # finite sum
    tail = x.tail
    if isinstance(tail, GeometricSeq):
        # Terms (delta^-2n) c^2 r^(2n'): geometric with ratio (r/delta)^2.
        return tail.r < delta
    if isinstance(tail, PowerSeq):
        return False  # delta^(-2n) swamps any polynomial decay
    if isinstance(tail, FactorialSeq):
        return True  # 1/(n!)^2 beats any geometric growth
    raise UnsupportedTailError(f"no convergence analysis for tail {tail!r}")


# ---------------------------------------------------------------------------
# Exact value inventories (for comparability of diagonal data)


@dataclass(frozen=True)
class ValueInventory:
    """Flattened diagonal data: finite values, sequence spans, infinite atoms.

    ``values`` is sorted nonincreasing. ``aleph_values`` lists (value, level)
    for identity summands on infinite-dimensional spaces.
    """

    values: tuple[Fraction, ...]
    spans: tuple[SeqSpan, ...]
    aleph_values: tuple[tuple[Fraction, int], ...]
    kernel_dim: Cardinal
    cokernel_dim: Cardinal


def flatten_values(
    spec: OperatorSpec, svd_tol: Fraction = DEFAULT_SVD_TOL
) -> ValueInventory:
    """Collect the exact diagonal values of a spec built from value-exact parts.

    Bucket-only specs carry no recoverable values and are rejected.
    """
    runs: list[Sequence[Fraction]] = []  # each leaf's values, nonincreasing
    spans: dict[tuple, SeqSpan] = {}
    alephs: list[tuple[Fraction, int]] = []
    kernel = ZERO
    cokernel = ZERO

    def walk(node: OperatorSpec):
        nonlocal kernel, cokernel
        if isinstance(node, DirectSum):
            walk(node.left)
            walk(node.right)
            return
        if isinstance(node, FiniteMatrix):
            kept, _thresh = _kept_singular_values(node, svd_tol)
            runs.append(list(map(Fraction, kept.tolist())))
            kernel = card_add(kernel, Finite(node.n_cols - len(kept)))
            cokernel = card_add(cokernel, Finite(node.n_rows - len(kept)))
            return
        if isinstance(node, CompactDiagonal):
            runs.append(node.prefix)
            kernel = card_add(kernel, node.kernel_dim)
            cokernel = card_add(cokernel, node.cokernel_dim)
            if not isinstance(node.tail, ZeroTail):
                key = (type(node.tail).__name__, node.tail, 1)
                if key in spans:
                    old = spans[key]
                    spans[key] = SeqSpan(old.model, old.start, old.mult + 1)
                else:
                    spans[key] = SeqSpan(node.tail, 1, 1)
            return
        if isinstance(node, ScaledIdentity):
            if node.dim == ZERO:
                return
            if is_finite(node.dim):
                runs.append([node.value] * node.dim.n)
            else:
                alephs.append((node.value, node.dim.level))
            return
        if isinstance(node, Buckets):
            raise UnsupportedTailError(
                "bucket-count data carries no exact values; "
                "value comparison needs diagonal or matrix components"
            )
        raise TypeError(f"not an operator spec: {node!r}")

    walk(spec)
    runs = [run for run in runs if run]
    if len(runs) == 1:
        values = tuple(runs[0])  # one run is sorted already
    else:
        values = tuple(sorted(chain.from_iterable(runs), reverse=True))
    return ValueInventory(
        values=values,
        spans=tuple(spans.values()),
        aleph_values=tuple(sorted(alephs, reverse=True)),
        kernel_dim=kernel,
        cokernel_dim=cokernel,
    )


def truncate_inventory(
    inv: ValueInventory, delta: Fraction, cutoff: int
) -> ValueInventory:
    """Keep only values strictly below delta^cutoff (buckets j >= cutoff)."""
    bar = pow_delta(delta, cutoff)
    kept = tuple(v for v in inv.values if v < bar)
    spans = []
    for span in inv.spans:
        drop = count_ge(span.model, span.start, bar)
        spans.append(SeqSpan(span.model, span.start + drop, span.mult))
    for value, _level in inv.aleph_values:
        if value < bar:
            raise SpecError("cannot truncate through an infinite-dimensional value")
    return ValueInventory(
        values=kept,
        spans=tuple(spans),
        aleph_values=(),
        kernel_dim=inv.kernel_dim,
        cokernel_dim=inv.cokernel_dim,
    )
