"""Decision engine for operator equivalence relations.

Two relations are decided. The strong relation identifies operators up to
invertible changes of basis on both sides; the extension relation identifies
them after allowing identity-style enlargements of the spaces. Verdicts carry
a reason tag, and holding verdicts carry a constructive witness: a ratio
envelope delta', a shift/extension description, and (for bucketed data) an
explicit element pairing.

Compact pairs are decided exactly on their value sequences; pairs with
essential spectrum reduce to window-domination conditions on their bucket
measures. Tail combinations outside the certified families produce an
``Inconclusive`` verdict instead of a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Union

from .cardinal import Aleph, Cardinal, Finite, card_lt, is_finite
from .conditions import condition_s_outcome, condition_s_tilde_outcome
from .errors import HypothesisViolationError, SpecError, UnsupportedTailError
from .matcher import BucketFunction, MatchMode, build_matching
from .spectral import (
    Buckets,
    BucketMeasure,
    DEFAULT_SVD_TOL,
    DirectSum,
    OperatorSpec,
    ValueInventory,
    flatten_values,
    modulus_data,
    truncate_inventory,
)
from .tails import (
    FactorialSeq,
    GeometricSeq,
    PowerSeq,
    SeqSpan,
    check_delta,
    pow_delta,
    ratio_root_lower,
    ratio_root_upper,
    term_cmp,
    term_value,
)

RELATION_STRONG = "strong"
RELATION_EXTENSION = "extension"

REASON_ESTABLISHED = "Established"
REASON_KERNEL = "KernelMismatch"
REASON_S = "ConditionSFailed"
REASON_S_TILDE = "ConditionSTildeFailed"
REASON_NOT_COMPARABLE = "NotComparable"
REASON_INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class LeftByDim:
    """The left operand needs an extension of this dimension."""

    dim: Cardinal


@dataclass(frozen=True)
class RightByDim:
    """The right operand needs an extension of this dimension."""

    dim: Cardinal


ExtensionSide = Union[LeftByDim, RightByDim]


@dataclass(frozen=True)
class EquivalenceWitness:
    """Constructive data backing a holding verdict.

    ``delta_prime`` bounds every matched ratio into [delta', 1/delta'];
    ``extension_side`` says which operand was enlarged and by how much;
    ``shift`` is the index offset aligning the two value sequences; and
    ``pairing`` (for bucketed data) lists matched (bucket, ordinal) ids.
    """

    delta_prime: Optional[Fraction] = None
    extension_side: Optional[ExtensionSide] = None
    shift: Optional[int] = None
    pairing: Optional[tuple] = None


@dataclass(frozen=True)
class Verdict:
    relation: str
    holds: bool
    reason: str
    witness: Optional[EquivalenceWitness] = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.holds != (self.reason == REASON_ESTABLISHED):
            raise SpecError("a verdict holds exactly when its reason is Established")
        if self.witness is not None and not self.holds:
            raise SpecError("only a holding verdict carries a witness")


@dataclass(frozen=True)
class EngineParams:
    delta: Fraction = Fraction(1, 2)
    svd_tol: Fraction = DEFAULT_SVD_TOL
    q_max: int = 64
    n_max: int = 64
    prefix_check: int = 256

    def __post_init__(self):
        object.__setattr__(self, "delta", check_delta(Fraction(self.delta)))
        object.__setattr__(self, "svd_tol", Fraction(self.svd_tol))
        if self.svd_tol < 0:
            raise SpecError(f"svd_tol must be >= 0, got {self.svd_tol}")
        if self.q_max < 1 or self.n_max < 1 or self.prefix_check < 1:
            raise SpecError("search caps must be positive")


# ---------------------------------------------------------------------------
# Normalized value sequences and shift comparability


@dataclass(frozen=True)
class _Seq:
    """Nonincreasing explicit values followed by at most one tail span."""

    values: tuple[Fraction, ...]
    span: Optional[SeqSpan]

    @property
    def head_len(self) -> int:
        return len(self.values)

    def finite_len(self) -> Optional[int]:
        return None if self.span is not None else len(self.values)


def _normalize(inv: ValueInventory, prefix_check: int) -> _Seq:
    if len(inv.spans) > 1:
        raise UnsupportedTailError(
            "value comparison supports at most one symbolic tail per operand"
        )
    span = inv.spans[0] if inv.spans else None
    values = list(inv.values)  # nonincreasing already
    pulled = 0
    while span is not None and values:
        head = span.first_term_value()
        if head is None:
            # Irrational leading terms: fine if already ordered below the
            # explicit values, otherwise the interleaving is not expressible.
            if term_cmp(span.model, span.start, values[-1]) > 0:
                raise UnsupportedTailError(
                    "cannot interleave irrational tail values with explicit ones"
                )
            break
        if head > values[-1]:
            values = sorted(values + [head] * span.mult, reverse=True)
            span = span.drop_head(span.mult)
            pulled += span.mult if span else 0
            if pulled > prefix_check + 64:
                raise UnsupportedTailError(
                    "tail-head normalization exceeded the prefix budget"
                )
            continue
        break
    return _Seq(values=tuple(values), span=span)


def _pow_frac_bounds(x: Fraction, p: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bounds for x**p with x > 0, p > 0."""
    y = x**p.numerator
    if p.denominator == 1:
        return y, y
    return ratio_root_lower(y, p.denominator), ratio_root_upper(y, p.denominator)


def _bounds_at(seq: _Seq, n: int) -> tuple[Fraction, Fraction]:
    """Rational bounds for the n-th value (1-based)."""
    if n <= seq.head_len:
        v = seq.values[n - 1]
        return v, v
    span = seq.span
    if span is None:
        raise SpecError(f"value index {n} beyond a finite sequence")
    arg = span.start + (n - seq.head_len - 1) // span.mult
    v = term_value(span.model, arg)
    if v is not None:
        return v, v
    m = span.model  # PowerSeq with fractional exponent
    lo, hi = _pow_frac_bounds(Fraction(arg), m.p)
    return m.c / hi, m.c / lo


def _least_ratio(pairs) -> tuple[int, int]:
    """min(1, x/y, y/x) over pairs (x, y) of positive rationals, as an
    integer pair (numerator, denominator).

    Candidates are compared by cross-multiplication, so no Fraction is built
    per pair.
    """
    bn = bd = 1
    for x, y in pairs:
        a = x.numerator * y.denominator
        b = y.numerator * x.denominator
        if a > b:
            a, b = b, a
        if a * bd < bn * b:
            bn, bd = a, b
    return bn, bd


def _bounded_pairs(t: _Seq, s: _Seq, m: int, lo: int, hi: int):
    """Pairs for _least_ratio that bound min(r, 1/r), r = t_n / s_{n+m}, from
    below for every n in lo..hi.

    With tlo <= t_n <= thi and slo <= s_{n+m} <= shi the bound is
    min(tlo/shi, slo/thi); their reciprocals shi/tlo >= slo/thi and
    thi/slo >= tlo/shi never undercut it, so the pairs (tlo, shi) and
    (slo, thi) give it exactly, and one pair suffices for exact values.
    """
    for n in range(lo, hi + 1):
        tlo, thi = _bounds_at(t, n)
        slo, shi = _bounds_at(s, n + m)
        yield tlo, shi
        if tlo is not thi or slo is not shi:  # the same object for an exact value
            yield slo, thi


def _tail_piece(t: _Seq, s: _Seq, m: int, n_pure: int) -> Optional[Fraction]:
    """Envelope over all n >= n_pure (both values inside their tail spans),
    or None when the ratios are unbounded there."""
    st, ss = t.span, s.span
    if st.mult != ss.mult:
        raise UnsupportedTailError("tail multiplicity mismatch in value comparison")
    k = st.mult
    mt, ms = st.model, ss.model
    pieces = []
    for n in range(n_pure, n_pure + k):
        u = st.start + (n - t.head_len - 1) // k
        v = ss.start + (n + m - s.head_len - 1) // k
        d = v - u
        if isinstance(mt, FactorialSeq) and isinstance(ms, FactorialSeq):
            if d != 0:
                return None  # ratio (u+d)!/u! is unbounded
            pieces.append(Fraction(1))
            continue
        if isinstance(mt, GeometricSeq) and isinstance(ms, GeometricSeq):
            if mt.r != ms.r:
                return None
            ratio = (mt.c / ms.c) * pow(mt.r, -d)
            pieces.append(min(ratio, 1 / ratio))
            continue
        if isinstance(mt, PowerSeq) and isinstance(ms, PowerSeq):
            if mt.p != ms.p:
                return None
            r_inf = mt.c / ms.c
            cands = [r_inf, 1 / r_inf]
            if d != 0:
                # ratio(u') = r_inf * ((u'+d)/u')^p is monotone in u' >= u,
                # so the endpoint at u and the limit bound the whole range.
                blo, bhi = _pow_frac_bounds(Fraction(u + d, u), mt.p)
                cands.extend([r_inf * blo, 1 / (r_inf * bhi)])
            pieces.append(min(cands))
            continue
        return None  # different tail families never stay within constants
    return min(pieces)


def _shift_envelope(t: _Seq, s: _Seq, m: int) -> Optional[Fraction]:
    """Ratio envelope delta' for the pairing t_n <-> s_{n+m}, or None.

    The pairing must cover both sequences completely except for the shifted
    head (s_1..s_m for m > 0, t_1..t_{-m} for m < 0); those entries become
    extension dimensions.
    """
    lt, ls = t.finite_len(), s.finite_len()
    if (lt is None) != (ls is None):
        return None  # one sequence ends, the other continues: no coverage
    if lt is not None and ls - lt != m:
        return None
    n_min = max(1, 1 - m)
    # Indices n_min..both pair two explicit values; past them (tails only)
    # at least one value comes from a tail span.
    both = max(n_min - 1, min(t.head_len, s.head_len - m))
    pairs = zip(t.values[n_min - 1 : both], s.values[n_min + m - 1 : both + m])
    if lt is not None:
        return Fraction(*_least_ratio(pairs))
    hi = max(t.head_len, s.head_len - m)
    env = Fraction(*_least_ratio(chain(pairs, _bounded_pairs(t, s, m, both + 1, hi))))
    got = _tail_piece(t, s, m, hi + 1)
    if got is None:
        return None
    return min(env, got)


def _family_key(model) -> tuple:
    if isinstance(model, PowerSeq):
        return ("power", model.p)
    if isinstance(model, GeometricSeq):
        return ("geometric", model.r)
    return ("factorial",)


def _alignment_shift(t: _Seq, s: _Seq) -> Optional[int]:
    """The m that makes tail arguments coincide index-for-index."""
    if t.span is None or s.span is None:
        return None
    if t.span.mult != s.span.mult:
        return None
    if _family_key(t.span.model) != _family_key(s.span.model):
        return None
    k = t.span.mult
    return s.head_len - t.head_len + k * (t.span.start - s.span.start)


def _shift_candidates(t: _Seq, s: _Seq) -> list[int]:
    cands = [0]
    got = _alignment_shift(t, s)
    if got is not None:
        cands.append(got)
    if t.span is None and s.span is None:
        cands.append(len(s.values) - len(t.values))
    out = []
    for m in cands:
        if m not in out:
            out.append(m)
    return out


def _first_shift(t: _Seq, s: _Seq) -> Optional[tuple[int, Fraction]]:
    """(m, d') for the first candidate shift with a bounded pairing, or None."""
    for m in _shift_candidates(t, s):
        env = _shift_envelope(t, s, m)
        if env is not None:
            return (m, env)
    return None


def comparable_after_shift(
    t: OperatorSpec, s: OperatorSpec, prefix_check: int = 256
) -> Optional[tuple[int, Fraction]]:
    """Search a shift m with every ratio t_n / s_{n+m} inside [d', 1/d'].

    Returns (m, d') for the first certified shift (no-shift first, then the
    structural alignment), or None when no candidate admits a bounded
    pairing. Defined for compact diagonal data.
    """
    inv_t = flatten_values(t)
    inv_s = flatten_values(s)
    if inv_t.aleph_values or inv_s.aleph_values:
        raise SpecError("shift comparability is defined for compact diagonal data")
    return _first_shift(_normalize(inv_t, prefix_check), _normalize(inv_s, prefix_check))


def _m0_envelope(
    a: OperatorSpec, b: OperatorSpec, p: EngineParams
) -> Optional[tuple[Fraction, int]]:
    """Identity-pairing envelope (no extension allowed) plus the structural
    alignment offset, for compact pairs."""
    nt = _normalize(flatten_values(a, p.svd_tol), p.prefix_check)
    ns = _normalize(flatten_values(b, p.svd_tol), p.prefix_check)
    env = _shift_envelope(nt, ns, 0)
    if env is None:
        return None
    shift = _alignment_shift(nt, ns)
    if shift is None:
        shift = 0
    return env, shift


# ---------------------------------------------------------------------------
# Witness helpers


def _card_diff(small: Cardinal, big: Cardinal) -> Cardinal:
    if isinstance(big, Aleph):
        return big
    return Finite(big.n - small.n)


def _coarse_witness(
    ma: BucketMeasure, mb: BucketMeasure, delta: Fraction
) -> EquivalenceWitness:
    """Support-width ratio bound plus the total-dimension difference; used for
    finite-dimensional and closed-range pairs where any bijection works."""
    idx = list(ma.buckets) + list(mb.buckets)
    dp = pow_delta(delta, max(idx) + 1 - min(idx)) if idx else Fraction(1)
    ta, tb = ma.total_mass(), mb.total_mass()
    side: Optional[ExtensionSide] = None
    if card_lt(ta, tb):
        side = LeftByDim(_card_diff(ta, tb))
    elif card_lt(tb, ta):
        side = RightByDim(_card_diff(tb, ta))
    return EquivalenceWitness(delta_prime=dp, extension_side=side)


def _value_pair_witness(
    a: OperatorSpec, b: OperatorSpec, svd_tol: Fraction
) -> Optional[EquivalenceWitness]:
    """Sorted-value identity pairing for finite-dimensional pairs."""
    try:
        inv_a = flatten_values(a, svd_tol)
        inv_b = flatten_values(b, svd_tol)
    except UnsupportedTailError:
        return None
    if inv_a.spans or inv_b.spans or inv_a.aleph_values or inv_b.aleph_values:
        return None
    va, vb = inv_a.values, inv_b.values  # nonincreasing
    overlap = min(len(va), len(vb))
    dp = Fraction(*_least_ratio(zip(va, vb)))
    side: Optional[ExtensionSide] = None
    if len(va) < len(vb):
        side = LeftByDim(Finite(len(vb) - len(va)))
    elif len(vb) < len(va):
        side = RightByDim(Finite(len(va) - len(vb)))
    pairing = tuple((i + 1, i + 1) for i in range(overlap))
    return EquivalenceWitness(delta_prime=dp, extension_side=side, pairing=pairing)


def bucket_function(
    m: BucketMeasure, label: str, nm: Optional[tuple] = None
) -> BucketFunction:
    """The matcher's view of a finite bucket measure.

    ``nm`` is an explicit (N, M); by default N = 1 and M is the top of the
    highest occupied bucket, at least 1.
    """
    if m.atoms or m.aleph_points():
        raise SpecError(f"match needs finitely many finite buckets on {label}")
    counts = {j: c.n for j, c in m.buckets.items()}
    if nm is not None:
        n_cut, cap = nm
    else:
        n_cut = 1
        cap = max(Fraction(1), pow_delta(m.delta, min(counts))) if counts else Fraction(1)
    return BucketFunction(delta=m.delta, counts=counts, N=n_cut, M=cap)


def _matcher_witness(ma: BucketMeasure, mb: BucketMeasure) -> Optional[EquivalenceWitness]:
    try:
        tau = bucket_function(ma, "T")
        sigma = bucket_function(mb, "S")
        result = build_matching(tau, sigma, MatchMode.ONE_SIDED)
    except (SpecError, HypothesisViolationError):
        return None
    side: Optional[ExtensionSide] = None
    if result.case_tag == "II":
        side = LeftByDim(result.padding)
    elif result.case_tag == "III":
        side = RightByDim(result.padding)
    return EquivalenceWitness(
        delta_prime=result.delta_prime,
        extension_side=side,
        pairing=result.pairing,
    )


def _is_bucket_only(spec: OperatorSpec) -> bool:
    if isinstance(spec, Buckets):
        return True
    if isinstance(spec, DirectSum):
        return _is_bucket_only(spec.left) and _is_bucket_only(spec.right)
    return False


# ---------------------------------------------------------------------------
# Decision procedures


def decide_strong(
    a: OperatorSpec, b: OperatorSpec, params: Optional[EngineParams] = None
) -> Verdict:
    """Equality up to invertible factors on both sides."""
    p = params or EngineParams()
    try:
        ma = modulus_data(a, p.delta, p.svd_tol)
        mb = modulus_data(b, p.delta, p.svd_tol)
        if (ma.kernel_dim, ma.cokernel_dim) != (mb.kernel_dim, mb.cokernel_dim):
            return Verdict(RELATION_STRONG, False, REASON_KERNEL)
        if ma.is_compact() and mb.is_compact():
            got = _m0_envelope(a, b, p)
            if got is None:
                return Verdict(RELATION_STRONG, False, REASON_NOT_COMPARABLE)
            env, shift = got
            pairing = None
            if is_finite(ma.total_mass()) and is_finite(mb.total_mass()):
                pairing = tuple((n, n) for n in range(1, ma.total_mass().n + 1))
            witness = EquivalenceWitness(delta_prime=env, shift=shift, pairing=pairing)
            return Verdict(RELATION_STRONG, True, REASON_ESTABLISHED, witness)
        out = condition_s_outcome(ma, mb, p.q_max)
        if out.present:
            witness = EquivalenceWitness(delta_prime=out.delta_prime)
            return Verdict(
                RELATION_STRONG,
                True,
                REASON_ESTABLISHED,
                witness,
                notes=(f"window widening exponent {out.q_used}",),
            )
        v = out.violation
        return Verdict(
            RELATION_STRONG,
            False,
            REASON_S,
            notes=(
                f"{v.side} window at bucket {v.k} of length {v.length} "
                f"is undominated at every widening up to {p.q_max}",
            ),
        )
    except UnsupportedTailError as e:
        return Verdict(RELATION_STRONG, False, REASON_INCONCLUSIVE, notes=(str(e),))


def decide_extension_family(
    a: OperatorSpec, b: OperatorSpec, params: Optional[EngineParams] = None
) -> Verdict:
    """The (coinciding) extension relations, decided by operator class."""
    p = params or EngineParams()
    rel = RELATION_EXTENSION
    try:
        ma = modulus_data(a, p.delta, p.svd_tol)
        mb = modulus_data(b, p.delta, p.svd_tol)
        if (ma.kernel_dim, ma.cokernel_dim) != (mb.kernel_dim, mb.cokernel_dim):
            return Verdict(rel, False, REASON_KERNEL)

        if is_finite(ma.total_mass()) and is_finite(mb.total_mass()):
            witness = _value_pair_witness(a, b, p.svd_tol) or _coarse_witness(
                ma, mb, p.delta
            )
            return Verdict(
                rel,
                True,
                REASON_ESTABLISHED,
                witness,
                notes=("both operators act on finite-dimensional spaces",),
            )

        if ma.has_closed_range() and mb.has_closed_range():
            return Verdict(
                rel,
                True,
                REASON_ESTABLISHED,
                _coarse_witness(ma, mb, p.delta),
                notes=("both operators have closed range",),
            )

        if ma.is_compact() and mb.is_compact():
            got = _m0_envelope(a, b, p)
            if got is None:
                return Verdict(rel, False, REASON_NOT_COMPARABLE)
            env, shift = got
            witness = EquivalenceWitness(delta_prime=env, shift=shift)
            return Verdict(rel, True, REASON_ESTABLISHED, witness)

        if ma.is_compact() != mb.is_compact():
            noncompact = mb if ma.is_compact() else ma
            if noncompact.aleph_rays():
                return Verdict(
                    rel,
                    False,
                    REASON_NOT_COMPARABLE,
                    notes=(
                        "a compact operator cannot match unboundedly many "
                        "infinite-dimensional buckets",
                    ),
                )
            c_star = max(j for j, _ in noncompact.aleph_points()) + 1
            inv_a = truncate_inventory(flatten_values(a, p.svd_tol), p.delta, c_star)
            inv_b = truncate_inventory(flatten_values(b, p.svd_tol), p.delta, c_star)
            got = _first_shift(
                _normalize(inv_a, p.prefix_check), _normalize(inv_b, p.prefix_check)
            )
            if got is None:
                return Verdict(rel, False, REASON_NOT_COMPARABLE)
            m, env = got
            return Verdict(
                rel,
                True,
                REASON_ESTABLISHED,
                EquivalenceWitness(delta_prime=env, shift=m),
                notes=(
                    "values at or above the infinite-bucket cutoff are "
                    "absorbed by the infinite identity component",
                ),
            )

        out = condition_s_tilde_outcome(ma, mb, p.q_max, p.n_max)
        if out.present:
            notes = [
                f"window cutoff N={out.n_cutoff}",
                f"widening exponent {out.q_used}",
            ]
            if (
                ma.domain_dim() == mb.domain_dim()
                and ma.codomain_dim() == mb.codomain_dim()
            ):
                notes.append(
                    "ambient dimensions agree: the relation upgrades to the "
                    "strong one"
                )
            witness = EquivalenceWitness(delta_prime=out.delta_prime)
            return Verdict(rel, True, REASON_ESTABLISHED, witness, notes=tuple(notes))
        v = out.violation
        return Verdict(
            rel,
            False,
            REASON_S_TILDE,
            notes=(
                f"{v.side} window at bucket {v.k} of length {v.length} is "
                f"undominated at every widening up to {p.q_max} "
                f"with cutoff {p.n_max}",
            ),
        )
    except UnsupportedTailError as e:
        return Verdict(rel, False, REASON_INCONCLUSIVE, notes=(str(e),))


def build_witness(
    tt: OperatorSpec,
    ss: OperatorSpec,
    verdict: Verdict,
    extension: Optional[int] = None,
    params: Optional[EngineParams] = None,
) -> EquivalenceWitness:
    """Constructive witness for a holding verdict.

    With ``extension`` set, the pairing t_n <-> s_{n+extension} is certified
    instead (the shifted head becomes the extension); for purely bucketed
    pairs the element-level pairing is produced by the window matcher. Any
    other holding verdict returns the witness it carries.
    """
    p = params or EngineParams()
    if extension is not None:
        inv_t = flatten_values(tt, p.svd_tol)
        inv_s = flatten_values(ss, p.svd_tol)
        if inv_t.aleph_values or inv_s.aleph_values:
            raise SpecError("requested-extension pairing needs compact data")
        nt = _normalize(inv_t, p.prefix_check)
        ns = _normalize(inv_s, p.prefix_check)
        env = _shift_envelope(nt, ns, extension)
        if env is None:
            raise SpecError(
                f"no bounded pairing exists at the requested extension {extension}"
            )
        side: Optional[ExtensionSide] = None
        if extension > 0:
            side = LeftByDim(Finite(extension))
        elif extension < 0:
            side = RightByDim(Finite(-extension))
        return EquivalenceWitness(
            delta_prime=env, extension_side=side, shift=extension
        )
    if not verdict.holds:
        raise SpecError("cannot build a witness for a relation that fails")
    if _is_bucket_only(tt) and _is_bucket_only(ss):
        ma = modulus_data(tt, p.delta, p.svd_tol)
        mb = modulus_data(ss, p.delta, p.svd_tol)
        got = _matcher_witness(ma, mb)
        if got is not None:
            return got
        return _coarse_witness(ma, mb, p.delta)
    if verdict.witness is None:
        raise SpecError("the holding verdict carries no witness")
    return verdict.witness
