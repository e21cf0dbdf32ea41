"""Seeded generators for the benchmark's four workloads.

Each generator takes a ``random.Random`` and returns the workload's round: a
fixed-order list of operations, each one JSON pair document in the format of
``opequiv decide`` / ``opequiv match``. The seed changes the numbers inside
the documents (matrix entries, prefix values, tail constants, bucket counts,
block positions) but not the shape of the round: every seed yields the same
templates in the same order, so run-to-run cost stays comparable and a
failing operation stays in the round on every seed.

``meta`` carries what a checker needs that it cannot read from the document
itself: the construction rank of complex matrices, and the verdict a
construction guarantees (``holds``) where it guarantees one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

WORKLOADS = ("value-path", "window-scan", "tail-certify", "match-build")


@dataclass
class Op:
    name: str
    command: str  # "decide" or "match"
    doc: dict
    meta: dict = field(default_factory=dict)
    text: str = field(init=False)  # the document as the program reads it

    def __post_init__(self):
        self.text = json.dumps(self.doc)


# ---------------------------------------------------------------------------
# Document pieces


def frac(x) -> str:
    return str(Fraction(x))


def power(c, p) -> dict:
    return {"kind": "power_law", "c": frac(c), "p": frac(p)}


def geometric(c, r) -> dict:
    return {"kind": "geometric", "c": frac(c), "r": frac(r)}


FACTORIAL = {"kind": "factorial"}


def diag(prefix=(), tail=None, kernel=0, cokernel=0) -> dict:
    out = {"kind": "compact_diagonal", "prefix": [frac(v) for v in prefix]}
    if tail is not None:
        out["tail"] = tail
    if kernel:
        out["kernel"] = kernel
    if cokernel:
        out["cokernel"] = cokernel
    return out


def ident(value, dim) -> dict:
    return {"kind": "scaled_identity", "value": frac(value), "dim": dim}


def dsum(*parts) -> dict:
    out = parts[0]
    for part in parts[1:]:
        out = {"kind": "direct_sum", "left": out, "right": part}
    return out


def buckets(counts: dict, tails=(), delta="1/2", **extra) -> dict:
    out = {
        "kind": "buckets",
        "delta": delta,
        "buckets": {str(j): c for j, c in sorted(counts.items())},
    }
    if tails:
        out["tails"] = list(tails)
    out.update(extra)
    return out


def pair(t: dict, s: dict, **options) -> dict:
    return {"T": t, "S": s, "options": options}


INF_ID = ident(1, "aleph0")  # the identity on an infinite-dimensional space


# ---------------------------------------------------------------------------
# value-path: matrices and compact diagonals

_EDGE_GAP = 1e-6  # distance kept between a singular value and a bucket edge, relative to the largest


def _svd_safe(mat: np.ndarray, rank: int) -> bool:
    """Numerical rank ``rank`` with a clear gap, and no singular value near a
    bucket edge (delta = 1/2).

    A value near an edge makes the program refuse with BoundaryAmbiguityError,
    and one near the rank cut makes the numerical rank differ from the exact
    one: documented refusals, not the cost this workload measures.
    """
    sigma = [float(s) for s in np.linalg.svd(mat, compute_uv=False)]
    top = sigma[0]
    if any(s <= 1e-6 * top for s in sigma[:rank]) or any(s > 1e-12 * top for s in sigma[rank:]):
        return False
    # The program's own ambiguity band is svd_tol * top = 1e-9 * top.
    return all(abs(s - 2.0 ** round(np.log2(s))) > _EDGE_GAP * top for s in sigma[:rank])


def _known_rank(n: int, m: int, r: int, entry) -> list:
    """An n x m product of random n x r and r x m factors: rank at most r,
    and exactly r for all but a vanishing share of draws."""
    b = np.array([[entry() for _ in range(r)] for _ in range(n)])
    c = np.array([[entry() for _ in range(m)] for _ in range(r)])
    return (b @ c).tolist()  # small integer entries: exact in int64 and float64


def _int_entry(rng):
    return lambda: rng.randint(-4, 4)


def _gauss_entry(rng):
    return lambda: complex(rng.randint(-2, 2), rng.randint(-2, 2))


def _int_matrix(rng, n, m, r=None):
    while True:
        if r is None:
            rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        else:
            rows = _known_rank(n, m, r, _int_entry(rng))
        if _svd_safe(np.array(rows, dtype=float), min(n, m) if r is None else r):
            return rows


def _rational_matrix(rng, n, m, r=None):
    while True:
        base = (
            [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
            if r is None
            else _known_rank(n, m, r, _int_entry(rng))
        )
        dens = [rng.randint(1, 7) for _ in range(n)]  # one denominator per row
        rows = [[Fraction(x, d) for x in row] for row, d in zip(base, dens)]
        flt = np.array([[float(x) for x in row] for row in rows])
        if _svd_safe(flt, min(n, m) if r is None else r):
            return [[str(x) for x in row] for row in rows]


def _complex_matrix(rng, n, m, r):
    while True:
        rows = _known_rank(n, m, r, _gauss_entry(rng))
        if _svd_safe(np.array(rows, dtype=complex), r):
            return [[[int(z.real), int(z.imag)] for z in row] for row in rows]


def _matrix(rows) -> dict:
    return {"kind": "matrix", "rows": rows}


def _prefix(rng, length: int, floor: Fraction) -> list:
    """``length`` nonincreasing rationals, each >= floor."""
    vals = [floor * (1 + Fraction(rng.randint(0, 64), 16)) for _ in range(length)]
    return sorted(vals, reverse=True)


def value_path(rng: random.Random) -> list[Op]:
    ops = []

    def add(name, doc, **meta):
        ops.append(Op(name, "decide", doc, meta))

    # Matrices. Square pairs of equal rank hold under the strong relation;
    # rectangular pairs with equal defects hold under the extension relation.
    for n in (4, 16, 64, 128):
        add(f"int-square-{n}", pair(_matrix(_int_matrix(rng, n, n)), _matrix(_int_matrix(rng, n, n)), relation="strong"))
    add("int-rank-mismatch-24", pair(
        _matrix(_int_matrix(rng, 24, 24, 22)), _matrix(_int_matrix(rng, 24, 24, 20)), relation="strong"))
    for (n, m, r), d in (((12, 16, 8), 8), ((40, 48, 32), 8)):
        add(f"int-rect-{n}x{m}", pair(
            _matrix(_int_matrix(rng, n, m, r)),
            _matrix(_int_matrix(rng, n + d, m + d, r + d)),
            relation="extension"))
    add("int-defect-mismatch-20x24", pair(
        _matrix(_int_matrix(rng, 20, 24, 16)), _matrix(_int_matrix(rng, 20, 24, 12)), relation="extension"))
    add("int-unequal-length-strong", pair(
        _matrix(_int_matrix(rng, 6, 8, 6)), _matrix(_int_matrix(rng, 10, 12, 10)), relation="strong"))
    for n in (8, 32):
        add(f"rational-square-{n}", pair(
            _matrix(_rational_matrix(rng, n, n)), _matrix(_rational_matrix(rng, n, n)), relation="strong"))
    add("rational-rect-16x20", pair(
        _matrix(_rational_matrix(rng, 16, 20, 12)), _matrix(_rational_matrix(rng, 20, 24, 16)), relation="extension"))
    for n in (8, 48):
        add(f"complex-square-{n}", pair(
            _matrix(_complex_matrix(rng, n, n, n)), _matrix(_complex_matrix(rng, n, n, n)), relation="strong"),
            rank={"T": n, "S": n})
    add("complex-rect-20x16", pair(
        _matrix(_complex_matrix(rng, 20, 16, 10)), _matrix(_complex_matrix(rng, 26, 22, 16)), relation="extension"),
        rank={"T": 10, "S": 16})
    add("complex-rank-mismatch-16", pair(
        _matrix(_complex_matrix(rng, 16, 16, 16)), _matrix(_complex_matrix(rng, 16, 16, 13)), relation="strong"),
        rank={"T": 16, "S": 13})

    # Compact diagonals: one tail per side, prefixes of 0..200 entries,
    # identity blocks in front, both relations. Lengths, exponents and
    # block sizes are fixed per template; the seed draws the values.
    lengths = (0, 3, 20, 200)
    for i, relation in enumerate(("strong", "extension") * 2):
        p = 1 + i % 2
        c_t, c_s = Fraction(rng.randint(1, 6), 2), Fraction(rng.randint(1, 6), 2)
        t = diag(_prefix(rng, lengths[i], c_t), power(c_t, p))
        s = dsum(ident(1, 2 + i), diag(_prefix(rng, lengths[3 - i], c_s), power(c_s, p)))
        add(f"power-int-{relation}-{i}", pair(t, s, relation=relation))
    for i, (relation, p) in enumerate((("strong", "1/2"), ("extension", "3/2"), ("strong", "5/2"))):
        # Fractional exponents: every explicit value stays >= the first tail
        # term, the case the value path supports.
        c_t, c_s = Fraction(1, rng.randint(1, 4)), Fraction(1, rng.randint(1, 4))
        t = diag(_prefix(rng, lengths[i + 1], c_t), power(c_t, p))
        s = dsum(ident(1, 2), diag(_prefix(rng, lengths[i], c_s), power(c_s, p)))
        add(f"power-frac-{relation}-{p}", pair(t, s, relation=relation))
    for i, relation in enumerate(("strong", "extension")):
        r = (Fraction(1, 3), Fraction(2, 3))[i]
        c_t, c_s = Fraction(rng.randint(1, 8), 4), Fraction(rng.randint(1, 8), 4)
        t = dsum(ident(2, 2), diag(_prefix(rng, lengths[i + 1], c_t * r), geometric(c_t, r)))
        s = diag(_prefix(rng, lengths[i + 2], c_s * r), geometric(c_s, r))
        add(f"geometric-{relation}", pair(t, s, relation=relation))
    # Factorial tails hold only when both sides carry equally many explicit
    # values in front of the tail; one more on one side is NotComparable.
    for relation, extra in (("strong", 0), ("extension", 0), ("extension", 1)):
        t = dsum(ident(1, 2), diag(_prefix(rng, 10, Fraction(1)), FACTORIAL))
        s = dsum(ident(1, 4 + extra), diag(_prefix(rng, 8, Fraction(1)), FACTORIAL))
        add(f"factorial-{relation}-{extra}", pair(t, s, relation=relation))
    add("families-differ", pair(
        diag(_prefix(rng, 8, Fraction(1)), power(1, 2)),
        diag(_prefix(rng, 8, Fraction(1, 2)), geometric(1, Fraction(1, 2))),
        relation="extension"))
    add("exponents-differ", pair(
        diag(_prefix(rng, 5, Fraction(1)), power(1, 1)),
        diag(_prefix(rng, 5, Fraction(1)), power(1, 2)),
        relation="strong"))
    add("kernel-mismatch", pair(
        diag(_prefix(rng, 10, Fraction(1)), power(1, 1), kernel=1),
        diag(_prefix(rng, 10, Fraction(1)), power(1, 1), cokernel=1),
        relation="extension"))
    # Finite diagonals.
    add("finite-strong-equal", pair(diag(_prefix(rng, 30, Fraction(1, 9))), diag(_prefix(rng, 30, Fraction(1, 9))), relation="strong"))
    add("finite-strong-unequal", pair(diag(_prefix(rng, 30, Fraction(1, 9))), diag(_prefix(rng, 33, Fraction(1, 9))), relation="strong"))
    add("finite-extension-unequal", pair(diag(_prefix(rng, 35, Fraction(1, 9))), diag(_prefix(rng, 30, Fraction(1, 9))), relation="extension"))

    # The kept failure: the same document on every seed. Correct answer:
    # Established with shift 3; the program answers Inconclusive because
    # tails.term_value gives no value for any term of a fractional-exponent
    # power tail, not even the rational first term 3 * 1^(-3/2) = 3.
    add("kept-fractional-head", pair(
        diag((), power(3, "3/2")), dsum(ident(2, 3), diag((), power(3, "3/2"))), relation="strong"),
        kept_failure=True)
    return ops


# ---------------------------------------------------------------------------
# window-scan: bucket operands, infinite buckets, constant and geometric rays


def _block(rng, length: int) -> list[int]:
    return [rng.randint(1, 6) for _ in range(length)]


def _place(block: list[int], at: int) -> dict:
    return {at + i: c for i, c in enumerate(block)}


def window_scan(rng: random.Random) -> list[Op]:
    """Every operand carries an infinite bucket at -1 (an infinite identity
    block), so both relations reach the window search; explicit blocks sit
    beyond q_max so that the infinite bucket never settles them."""
    ops = []

    def add(name, t, s, relation, q_max, holds):
        doc = pair(buckets(t["counts"], t["tails"]), buckets(s["counts"], s["tails"]),
                   relation=relation, q_max=q_max)
        ops.append(Op(name, "decide", doc, {"holds": holds}))

    def side(counts, tails):
        return {"counts": {-1: "aleph0", **counts}, "tails": tails}

    for i in range(18):
        # Holding: the same block, shifted by q_max - 1, so q = q_max - 1 is
        # the least widening that dominates. Identical rays further out.
        relation = "strong" if i < 10 else "extension"
        q_max = 40 if i < 10 else (32, 48)[i % 2]
        shift = q_max - 1
        blk = _block(rng, 16)
        k0 = q_max + 6
        ray_at = k0 + shift + len(blk) + q_max + 8
        ray = ({"kind": "constant", "start": ray_at, "count": rng.randint(1, 3)}
               if i % 2 else {"kind": "geometric_count", "start": ray_at, "base": rng.randint(2, 3)})
        add(f"shifted-block-{relation}-{i}", side(_place(blk, k0), [ray]),
            side(_place(blk, k0 + shift), [ray]), relation, q_max, True)
    for i, relation in enumerate(("strong", "extension")):
        # Holding: rays of equal density starting four buckets apart.
        count = rng.randint(1, 3)
        blk = _block(rng, 12)
        add(f"lagged-rays-{relation}",
            side(_place(blk, 66), [{"kind": "constant", "start": 80, "count": count}]),
            side(_place(blk, 70), [{"kind": "constant", "start": 84, "count": count}]),
            relation, 32, True)
    for i in range(4):
        # Refusal: one bucket heavier than everything the other side holds
        # within reach of q_max.
        relation = ("strong", "extension")[i % 2]
        blk = _block(rng, 16)
        ray = {"kind": "constant", "start": 200, "count": 1}
        t_counts = _place(blk, 40)
        t_counts[75] = 400 + rng.randint(0, 100)
        add(f"heavy-bucket-{relation}-{i}", side(t_counts, [ray]),
            side(_place(blk, 44), [ray]), relation, 32, False)
    for i in range(4):
        # Refusal: a denser constant ray on one side; only a long window shows it.
        relation = ("strong", "extension")[i % 2]
        blk = _block(rng, 12)
        add(f"dense-ray-{relation}-{i}",
            side(_place(blk, 66), [{"kind": "constant", "start": 72, "count": 1}]),
            side(_place(blk, 66), [{"kind": "constant", "start": 72, "count": 2}]),
            relation, 16, False)
    return ops


# ---------------------------------------------------------------------------
# tail-certify: noncompact pairs whose decision rests on tail certificates


def tail_certify(rng: random.Random) -> list[Op]:
    """An infinite identity summed with diagonal tails, and bucket operands
    with sparse-rule and sequence tails.

    The cost of these decisions swings by up to 2x with a tail constant or
    one explicit bucket, so the seed moves only what leaves the work alike:
    explicit values in front of factorial and harmonic tails, and the power
    tail's constant by whole powers of delta^3 (a shift of whole buckets).
    """
    ops = []

    def add(name, t, s, relation, q_max, holds):
        ops.append(Op(name, "decide", pair(t, s, relation=relation, q_max=q_max), {"holds": holds}))

    def inf(*parts):
        return dsum(INF_ID, *parts)

    k = rng.randint(0, 2)
    add("power-3-strong", inf(diag((), power(Fraction(1, 8 ** k), 3))),
        inf(diag((), power(Fraction(3, 8 ** k), 3))), "strong", 16, True)
    add("power-5/2-extension", inf(diag((), power(1, "5/2"))),
        inf(diag((), power(2, "5/2"))), "extension", 16, True)
    add("power-3-vs-4", inf(diag((), power(1, 3))), inf(diag((), power(1, 4))), "strong", 16, False)
    r = Fraction(1, 3)
    for k in range(3):
        # Three alike decisions, the round's middle by cost, so that its
        # median operation is one kind: c = r^j drops j leading terms and
        # leaves the work alike.
        c = r ** (k + rng.randint(0, 1))
        add(f"geometric-strong-{k}", inf(diag((), geometric(c, r))),
            inf(diag((), geometric(2 * c, r))), "strong", 24, True)
    add("geometric-ratio-differs", inf(diag((), geometric(1, r))),
        inf(diag((), geometric(1, Fraction(1, 5)))), "extension", 16, False)
    add("factorial-prefix", inf(diag((), FACTORIAL)),
        inf(diag([rng.randint(1, 3)], FACTORIAL)), "strong", 16, True)
    add("factorial-multiplicity", inf(diag((), FACTORIAL)),
        inf(diag((), FACTORIAL), diag((), FACTORIAL)), "strong", 16, False)
    add("factorial-doubled-prefix", inf(diag((), FACTORIAL), diag((), FACTORIAL)),
        inf(diag([rng.randint(2, 4), 1], FACTORIAL), diag((), FACTORIAL)), "strong", 16, True)
    add("power-identical-generators", inf(diag((), power(1, 1)), diag((), power(1, 1))),
        inf(diag(sorted((rng.randint(1, 3) for _ in range(2)), reverse=True), power(1, 1)),
            diag((), power(1, 1))), "strong", 16, True)
    sparse = {"kind": "sparse_factorial", "start": 0}
    add("sparse-extension", buckets({-1: "aleph0"}, [sparse]),
        buckets({-1: "aleph0", 3: 1}, [sparse]), "extension", 16, True)
    add("sparse-vs-constant", buckets({-1: "aleph0"}, [sparse]),
        buckets({-1: "aleph0"}, [{"kind": "constant", "start": 0, "count": 1}]), "strong", 16, False)
    seq_geo = {"kind": "sequence", "model": geometric(1, Fraction(1, 3))}
    add("sequence-geometric", buckets({-1: "aleph0"}, [seq_geo]),
        buckets({-1: "aleph0", 2: 2}, [seq_geo]), "strong", 32, True)
    seq_fact = {"kind": "sequence", "model": FACTORIAL, "multiplicity": 2}
    add("sequence-factorial", buckets({-1: "aleph0"}, [seq_fact]),
        buckets({-1: "aleph0", 1: 2}, [seq_fact]), "extension", 16, True)
    return ops


# ---------------------------------------------------------------------------
# match-build: the bucket matcher on finite bucket pairs


def _jitter(rng, counts: dict[int, int], moves: int) -> dict[int, int]:
    """Move up to ``moves`` elements, each at most once and by one bucket:
    every window of either side then fits in the other's one-bucket widening."""
    out = dict(counts)
    unmoved = dict(counts)
    keys = sorted(counts)
    for _ in range(moves):
        j = rng.choice(keys)
        if unmoved[j] == 0:
            continue
        unmoved[j] -= 1
        nj = j + rng.choice((-1, 1))
        if keys[0] <= nj <= keys[-1]:
            out[j] -= 1
            out[nj] = out.get(nj, 0) + 1
    return {j: c for j, c in out.items() if c}


def match_build(rng: random.Random) -> list[Op]:
    ops = []

    def add(name, t, s, mode, n_cut, holds, m_cap="1"):
        doc = pair(buckets(t, N=n_cut, M=m_cap), buckets(s, N=n_cut, M=m_cap), mode=mode)
        ops.append(Op(name, "match", doc, {"holds": holds}))

    def spread(positions, total):
        """``total`` elements over ``positions``: one each, the rest at random."""
        counts = dict.fromkeys(positions, 1)
        for _ in range(total - len(positions)):
            counts[rng.choice(positions)] += 1
        return counts

    def dense(n_buckets, total):
        return spread(list(range(n_buckets)), total)

    def wide(n_buckets, total):
        return spread(sorted(rng.sample(range(n_buckets), 7 * n_buckets // 10)), total)

    # Dense pairs over at most 64 buckets.
    t = dense(64, 9600)
    add("dense-10k-one-sided", t, _jitter(rng, t, 2000), "one_sided", 4, True)
    for i in range(4):
        # A shallow surplus on one side: that side's partner gets padded.
        t = dense(48, 2880)
        s = _jitter(rng, t, 500)
        if i % 2:
            t[1] += 50
        else:
            s[0] += 50
        add(f"dense-3k-padded-{('left', 'right')[i % 2]}-{i}", t, s, "one_sided", 4, True)
    t = dense(32, 1920)
    add("dense-2k-strict", t, _jitter(rng, t, 400), "two_sided_strict", 4, True)
    t = dense(48, 2880)
    s = _jitter(rng, t, 300)
    s[30] += 500  # one deep bucket no widened window can pay for
    add("dense-deep-excess", t, s, "one_sided", 4, False)
    t = dense(48, 2880)
    s = _jitter(rng, t, 300)
    s[0] += 200  # shallow excess: fine one-sided, a violation when strict
    add("dense-shallow-excess-strict", t, s, "two_sided_strict", 4, False)
    # Wide pairs: supports of 512 to 1024 buckets, about two elements each.
    t = wide(512, 700)
    add("wide-512-strict", t, _jitter(rng, t, 200), "two_sided_strict", 4, True)
    t = wide(1024, 1400)
    s = _jitter(rng, t, 300)
    s[900] = s.get(900, 0) + 40
    add("wide-1024-deep-excess", t, s, "one_sided", 4, False)
    t = wide(768, 1050)
    add("wide-768-one-sided", t, _jitter(rng, t, 300), "one_sided", 8, True)
    return ops


GENERATORS = {
    "value-path": value_path,
    "window-scan": window_scan,
    "tail-certify": tail_certify,
    "match-build": match_build,
}


def generate(workload: str, seed: int) -> list[Op]:
    """The workload's round of operations for ``seed``; deterministic."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
