"""Tests of the benchmark's output checkers and generators.

Run from the repository root: ``python3 -m pytest perfbench -q``. The
checkers are tested on hand-made reports, each with a wrong answer the
checker must reject; none of these tests runs the program.
"""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import Op  # noqa: E402


def fraction_rank(rows) -> int:
    """Textbook Gaussian elimination over Fraction: the reference."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def decide(t, s, **options) -> Op:
    return Op("case", "decide", wl.pair(t, s, **options))


def verdict(reason, witness=None, notes=()):
    return {"relation": "strong", "holds": reason == "Established", "reason": reason,
            "witness": witness, "notes": list(notes)}


def witness(delta_prime, shift=None, pairing=None, side=None):
    return {"delta_prime": delta_prime, "extension_side": side, "shift": shift, "pairing": pairing}


# ---------------------------------------------------------------------------
# Exact rank and matrices


def test_exact_rank_matches_fraction_elimination():
    rng = random.Random(7)
    for _ in range(60):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        r = rng.randint(0, min(n, m))
        b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(r)] for _ in range(n)]
        c = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(r)]
        rows = [[sum((b[i][k] * c[k][j] for k in range(r)), Fraction(0)) for j in range(m)]
                for i in range(n)]
        assert checks.exact_rank(rows) == fraction_rank(rows)


def test_matrix_check_accepts_exact_delta_and_rejects_wrong_ones():
    op = decide(wl._matrix([[2, 0], [0, 1]]), wl._matrix([[3, 0], [0, 1]]), relation="strong")
    good = verdict("Established", witness("2/3", 0, [[1, 1], [2, 2]]))
    assert checks.check(op, 0, good) is None
    bad = verdict("Established", witness("3/4", 0, [[1, 1], [2, 2]]))
    assert "delta'" in checks.check(op, 0, bad)
    assert checks.check(op, 1, verdict("KernelMismatch")) is not None


def test_matrix_check_uses_exact_rank_for_kernels():
    op = decide(wl._matrix([[1, 2], [2, 4]]), wl._matrix([[1, 0], [0, 1]]), relation="strong")
    assert checks.check(op, 1, verdict("KernelMismatch")) is None
    assert checks.check(op, 0, verdict("Established", witness("1/2", 0, [[1, 1]]))) is not None


# ---------------------------------------------------------------------------
# Compact diagonals


def harmonic_pair(m):
    t = wl.diag((), wl.power(1, 1))
    return decide(t, wl.dsum(wl.ident(1, m), t), relation="strong")


def test_diagonal_check_on_prepended_units():
    op = harmonic_pair(2)
    assert checks.check(op, 0, verdict("Established", witness("1/3", 2))) is None
    assert "ratio" in checks.check(op, 0, verdict("Established", witness("1/2", 2)))
    assert "shift" in checks.check(op, 0, verdict("Established", witness("1/3", 1)))
    assert "below" in checks.check(op, 0, verdict("Established", witness("1/4", 2)))


def test_diagonal_check_compares_fractional_powers_exactly():
    # t_n = n^(-3/2), s = (1, 1, 2^(-3/2), ...): the worst ratio is 2^(-3/2).
    t = wl.diag((), wl.power(1, "3/2"))
    op = decide(t, wl.dsum(wl.ident(1, 1), t), relation="strong")
    below = verdict("Established", witness("3535533/10000000", 1))  # just below 2^(-3/2)
    above = verdict("Established", witness("3535534/10000000", 1))  # just above
    assert checks.check(op, 0, below) is None
    assert checks.check(op, 0, above) is not None


def test_diagonal_check_refusals():
    op = decide(wl.diag((), wl.power(1, 2)), wl.diag((), wl.geometric(1, Fraction(1, 2))),
                relation="extension")
    assert checks.check(op, 1, verdict("NotComparable")) is None
    assert checks.check(op, 0, verdict("Established", witness("1/2", 0))) is not None
    fact = wl.diag((), wl.FACTORIAL)
    op = decide(fact, wl.dsum(wl.ident(1, 1), fact), relation="extension")
    assert checks.check(op, 1, verdict("NotComparable")) is None


# ---------------------------------------------------------------------------
# Window recounter


def test_integer_roots_and_logs():
    for x in list(range(200)) + [2**4096 - 1, 2**4096, 3**500]:
        for k in (1, 2, 3, 5):
            r = checks.iroot(x, k)
            assert r**k <= x < (r + 1) ** k
    for x in (Fraction(1), Fraction(7, 3), Fraction(1, 1024), Fraction(10**30, 7)):
        for base in (Fraction(2), Fraction(3, 2)):
            j = checks.floor_log(x, base)
            assert base**j <= x < base ** (j + 1)


def test_bucket_counts_match_enumeration():
    m = checks.Measure(Fraction(1, 2))
    assert [m.bucket(v) for v in (Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(2))] == [-1, 0, 0, -2]
    tails = [
        {"kind": "sequence", "model": wl.power(3, "3/2"), "multiplicity": 2},
        {"kind": "sequence", "model": wl.geometric(2, Fraction(1, 3)), "model_start": 2},
        {"kind": "sequence", "model": wl.FACTORIAL},
    ]
    for tail in tails:
        m.tails = [tail]
        fin, _ = m.counts(-3, 12)
        want = [0] * 16
        model = tail["model"]
        for n in range(tail.get("model_start", 1), 4000):
            # bucket j holds 2^-(j+1) <= v < 2^-j
            j = math.ceil(-checks.log_value(checks.term(model, n)) / math.log(2)) - 1
            if j > 12:
                break
            want[j + 3] += tail.get("multiplicity", 1)
        assert fin == want, tail
    m.tails = [{"kind": "sparse_factorial", "start": 0}]
    fin, _ = m.counts(0, 60)
    marks = {math.floor(math.log2(math.factorial(n))) for n in range(1, 40)}
    assert [j for j in range(61) if fin[j]] == sorted(j for j in marks if j <= 60)


def bucket_pair(t_counts, s_counts, tails=(), **options):
    t = wl.buckets({-1: "aleph0", **t_counts}, tails)
    s = wl.buckets({-1: "aleph0", **s_counts}, tails)
    return decide(t, s, **options)


def test_window_check_holding_witness():
    op = bucket_pair({10: 3}, {12: 3}, relation="strong", q_max=8)
    good = verdict("Established", witness("1/4"), ["window widening exponent 2"])
    assert checks.check(op, 0, good) is None
    early = verdict("Established", witness("1/2"), ["window widening exponent 1"])
    assert "undominated" in checks.check(op, 0, early)


def test_window_check_refusal_window():
    op = bucket_pair({10: 5}, {10: 1}, relation="strong", q_max=4)
    note = "{} window at bucket 10 of length 1 is undominated at every widening up to 4"
    assert checks.check(op, 1, verdict("ConditionSFailed", notes=[note.format("left")])) is None
    assert "dominated" in checks.check(op, 1, verdict("ConditionSFailed", notes=[note.format("right")]))


def test_window_recount_sees_infinite_buckets():
    a = checks.Measure(Fraction(1, 2))
    a.explicit = {20: checks.Aleph(0)}
    b = checks.Measure(Fraction(1, 2))
    b.explicit = {23: checks.Aleph(0), 5: 1000}
    assert checks.first_violation(a, b, 2, None, 0, 40) == (20, 20)
    assert checks.first_violation(a, b, 3, None, 0, 40) is None


# ---------------------------------------------------------------------------
# Matcher reports


def match_op(t, s, mode="one_sided"):
    doc = wl.pair(wl.buckets(t, N=1, M="1"), wl.buckets(s, N=1, M="1"), mode=mode)
    return Op("case", "match", doc)


def test_match_check_bijection_and_ratios():
    op = match_op({0: 2, 1: 1}, {0: 1, 1: 2})
    pairing = [[[0, 0], [0, 0]], [[0, 1], [1, 0]], [[1, 0], [1, 1]]]
    good = {"holds": True, "case": "I", "pairing": pairing, "padding": 0, "delta_prime": "1/4"}
    assert checks.check(op, 0, good) is None
    dup = dict(good, pairing=[pairing[0], pairing[0], pairing[2]])
    assert "exactly once" in checks.check(op, 0, dup)
    tight = dict(good, delta_prime="1/2")
    assert checks.check(op, 0, tight) is not None


def test_match_check_recounts_violations():
    op = match_op({5: 10}, {5: 1})
    good = {"holds": False, "violation": {"side": "tau", "k": 5, "length": 1}}
    assert checks.check(op, 1, good) is None
    wrong = {"holds": False, "violation": {"side": "sigma", "k": 5, "length": 1}}
    assert checks.check(op, 1, wrong) is not None
    assert checks.check(op, 0, {"holds": True, "case": "I", "pairing": [], "padding": 0,
                                "delta_prime": "1/4"}) is not None


# ---------------------------------------------------------------------------
# Generators


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    a = [op.text for op in wl.generate(workload, 11)]
    assert a == [op.text for op in wl.generate(workload, 11)]
    assert [op.name for op in wl.generate(workload, 12)] == [op.name for op in wl.generate(workload, 11)]
