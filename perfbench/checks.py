"""Output checks made apart from the program.

Nothing here imports ``opequiv``. Each check reads the pair document the
program was given and the JSON report it produced, recomputes what the report
claims by its own means, and returns ``None`` when the report holds up or a
message saying what does not:

- matrices: exact rank by Gaussian elimination over the rationals (done
  fraction-free, Bareiss style, on the integer matrix scaled by its row
  denominators) or the construction rank of complex matrices; delta' from
  numpy's singular values; kernel and cokernel dimensions.
- compact diagonals: the value sequences are merged from the document and
  compared exactly (fractional powers by integer powers), on the first 256
  terms, for delta'; the shift is the difference in explicit values in front
  of the aligned tails.
- bucket measures: a window recounter built from each side's own buckets and
  tails (integer roots for power tails, floors of log n! for the sparse
  rule) checks a holding verdict at its reported widening q and cutoff N
  over a horizon past every structural index, and recounts the violating
  window a refusal names.
- matcher reports: the pairing is a bijection with the right padding, every
  pair's value ratio is within delta', the window hypotheses are recounted
  for a holding case, and the named window is recounted for a violation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from numpy import array as _array
from numpy.linalg import svd as _svd

PREFIX_TERMS = 256  # diagonal terms compared exactly
HORIZON_SLACK = 160  # buckets recounted past the last structural index
REL_TOL = 1e-9  # float tolerance for delta' taken from floating-point SVD


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check(op, code: int, report: dict) -> Optional[str]:
    """None when ``report`` is a correct output for ``op``, else why not."""
    try:
        if op.command == "match":
            check_match(op.doc, code, report, op.meta)
        elif _has_kind(op.doc, "matrix"):
            check_matrices(op.doc, code, report, op.meta)
        elif _has_kind(op.doc, "buckets") or _has_infinite(op.doc):
            check_windows(op.doc, code, report, op.meta)
        else:
            check_diagonals(op.doc, code, report)
    except CheckError as e:
        return str(e)
    return None


def _walk(node):
    yield node
    if node.get("kind") == "direct_sum":
        yield from _walk(node["left"])
        yield from _walk(node["right"])


def _has_kind(doc, kind) -> bool:
    return any(n["kind"] == kind for side in ("T", "S") for n in _walk(doc[side]))


def _has_infinite(doc) -> bool:
    return any(
        isinstance(n.get("dim"), str) for side in ("T", "S") for n in _walk(doc[side])
    )


def _expect_code(code: int, report: dict, meta: dict) -> None:
    holds = report.get("holds")
    _require(code == (0 if holds else 1), f"exit code {code} with holds={holds}")
    if "holds" in meta:
        _require(holds == meta["holds"], f"holds={holds}, construction says {meta['holds']}")


def _option(doc, key, default):
    return doc.get("options", {}).get(key, default)


# ---------------------------------------------------------------------------
# Exact rank


def exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank over the rationals: each row is scaled to integers, then
    fraction-free elimination keeps every entry an exact integer minor."""
    m = []
    for row in rows:
        den = math.lcm(*(Fraction(x).denominator for x in row))
        m.append([int(Fraction(x) * den) for x in row])
    n_rows, n_cols = len(m), len(m[0])
    rank, prev = 0, 1
    for col in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        p = top[col]
        for i in range(rank + 1, n_rows):
            row = m[i]
            f = row[col]
            for k in range(col + 1, n_cols):
                row[k] = (row[k] * p - f * top[k]) // prev
            row[col] = 0
        prev = p
        rank += 1
        if rank == n_rows:
            break
    return rank


def _entry(x) -> complex:
    if isinstance(x, list):
        return complex(x[0], x[1])
    if isinstance(x, str):
        return complex(float(Fraction(x)))
    return complex(x)


# ---------------------------------------------------------------------------
# Matrices


def check_matrices(doc, code, report, meta) -> None:
    relation = _option(doc, "relation", "extension")
    sides = {}
    for label in ("T", "S"):
        node = doc[label]
        _require(node["kind"] == "matrix", "mixed matrix documents are not generated")
        rows = node["rows"]
        if any(isinstance(x, list) for row in rows for x in row):
            rank = meta["rank"][label]  # complex: the construction rank
        else:
            rank = exact_rank([[Fraction(x) for x in row] for row in rows])
        sigma = _svd(_array([[_entry(x) for x in row] for row in rows]), compute_uv=False)
        values = sorted((float(s) for s in sigma[:rank]), reverse=True)
        sides[label] = (len(rows[0]) - rank, len(rows) - rank, values)
    _expect_code(code, report, meta)
    (kt, ct, vt), (ks, cs, vs) = sides["T"], sides["S"]
    if (kt, ct) != (ks, cs):
        _require(report["reason"] == "KernelMismatch",
                 f"kernel/cokernel ({kt},{ct}) vs ({ks},{cs}) but reason {report['reason']}")
        return
    if relation == "strong" and len(vt) != len(vs):
        _require(report["reason"] == "NotComparable",
                 f"ranks {len(vt)} and {len(vs)} differ but reason {report['reason']}")
        return
    _require(report["reason"] == "Established", f"expected Established, got {report['reason']}")
    w = report["witness"]
    overlap = min(len(vt), len(vs))
    want = min([1.0] + [min(a / b, b / a) for a, b in zip(vt, vs)])
    got = float(Fraction(w["delta_prime"]))
    _require(abs(got - want) <= REL_TOL * want, f"delta' {got} but singular values give {want}")
    _require(w["pairing"] == [[i, i] for i in range(1, overlap + 1)], "pairing is not the sorted-value identity")
    if relation == "strong":
        _require(w["shift"] == 0 and w["extension_side"] is None, "strong matrix witness has an extension")
    else:
        side = None
        if len(vt) != len(vs):
            side = {"side": "left" if len(vt) < len(vs) else "right", "dim": abs(len(vt) - len(vs))}
        _require(w["extension_side"] == side, f"extension side {w['extension_side']}, expected {side}")


# ---------------------------------------------------------------------------
# Compact diagonals: exact value sequences


@dataclass(frozen=True)
class Value:
    """coef * base^(-p): explicit values have base 1."""

    coef: Fraction
    base: int = 1
    p: Fraction = Fraction(0)


def ratio_ge(x: Value, y: Value, d: Fraction) -> bool:
    """x / y >= d, exactly (d > 0)."""
    b = math.lcm(x.p.denominator, y.p.denominator)
    ax, ay = int(x.p * b), int(y.p * b)
    # x/y = (cx/cy) * by^py / bx^px; raise both sides to the power b.
    lhs = (x.coef / (y.coef * d)) ** b * Fraction(y.base) ** ay
    return lhs >= Fraction(x.base) ** ax


def log_value(v: Value) -> float:
    """Natural log of the value, for ordering and float-side bounds only."""
    c = v.coef
    return math.log(c.numerator) - math.log(c.denominator) - float(v.p) * math.log(v.base)


def term(tail: dict, n: int) -> Value:
    kind = tail["kind"]
    if kind == "power_law":
        return Value(Fraction(tail["c"]), n, Fraction(tail["p"]))
    if kind == "geometric":
        return Value(Fraction(tail["c"]) * Fraction(tail["r"]) ** n)
    if kind == "factorial":
        return Value(Fraction(1, math.factorial(n)))
    raise CheckError(f"no terms for tail {kind}")


def _diagonal_parts(node):
    """(explicit values, tails, kernel, cokernel) of a compact operand."""
    values, tails, kernel, cokernel = [], [], 0, 0
    for n in _walk(node):
        if n["kind"] == "compact_diagonal":
            values.extend(Value(Fraction(v)) for v in n["prefix"])
            if "tail" in n and n["tail"]["kind"] != "zero":
                tails.append(n["tail"])
            kernel += n.get("kernel", 0)
            cokernel += n.get("cokernel", 0)
        elif n["kind"] == "scaled_identity":
            values.extend([Value(Fraction(n["value"]))] * n["dim"])
        elif n["kind"] != "direct_sum":
            raise CheckError(f"unexpected operand kind {n['kind']}")
    return values, tails, kernel, cokernel


def merged(values: list[Value], tail: Optional[dict], count: int) -> list[Value]:
    """The first ``count`` entries of the nonincreasing value sequence."""
    explicit = sorted(values, key=log_value, reverse=True)
    for a, b in zip(explicit, explicit[1:]):
        _require(ratio_ge(a, b, Fraction(1)), "explicit values out of order")
    out, i, n = [], 0, 1
    while len(out) < count:
        t = term(tail, n) if tail is not None else None
        if i < len(explicit) and (t is None or ratio_ge(explicit[i], t, Fraction(1))):
            out.append(explicit[i])
            i += 1
        elif t is not None:
            out.append(t)
            n += 1
        else:
            break
    return out


def _family(tail: dict) -> tuple:
    kind = tail["kind"]
    if kind == "power_law":
        return (kind, Fraction(tail["p"]))
    if kind == "geometric":
        return (kind, Fraction(tail["r"]))
    return (kind,)


def _limit_ratio(tt: dict, ts: dict, a: int, b: int) -> float:
    """lim t_n / s_n for aligned-family tails with a and b explicit values."""
    if tt["kind"] == "power_law":
        return float(Fraction(tt["c"]) / Fraction(ts["c"]))
    if tt["kind"] == "geometric":
        return float(Fraction(tt["c"]) / Fraction(ts["c"]) * Fraction(tt["r"]) ** (b - a))
    return 1.0


def check_diagonals(doc, code, report) -> None:
    relation = _option(doc, "relation", "extension")
    vt, tt, kt, ct = _diagonal_parts(doc["T"])
    vs, ts, ks, cs = _diagonal_parts(doc["S"])
    _require(len(tt) <= 1 and len(ts) <= 1, "one tail per operand is generated")
    _expect_code(code, report, {})
    reason = report["reason"]
    if (kt, ct) != (ks, cs):
        _require(reason == "KernelMismatch", f"kernel dims differ but reason {reason}")
        return
    tail_t, tail_s = (tt or [None])[0], (ts or [None])[0]
    a, b = len(vt), len(vs)
    if tail_t is None and tail_s is None:
        if relation == "strong" and a != b:
            _require(reason == "NotComparable", f"lengths {a} and {b} but reason {reason}")
            return
        _require(reason == "Established", f"finite diagonals, reason {reason}")
        seq_t, seq_s = merged(vt, None, a), merged(vs, None, b)
        overlap = min(a, b)
        want = min([Fraction(1)] + [min(x.coef / y.coef, y.coef / x.coef) for x, y in zip(seq_t, seq_s)])
        w = report["witness"]
        _require(Fraction(w["delta_prime"]) == want, f"delta' {w['delta_prime']}, exact {want}")
        _require(w["pairing"] == [[i, i] for i in range(1, overlap + 1)], "pairing is not the identity")
        side = None
        if a != b:
            side = {"side": "left" if a < b else "right", "dim": abs(a - b)}
        _require(w["extension_side"] == side, f"extension side {w['extension_side']}, expected {side}")
        if relation == "strong":
            _require(w["shift"] == 0, f"shift {w['shift']} on equal finite lengths")
        return
    comparable = (
        tail_t is not None
        and tail_s is not None
        and _family(tail_t) == _family(tail_s)
        and (tail_t["kind"] != "factorial" or a == b)
    )
    if not comparable:
        _require(reason == "NotComparable", f"unbounded value ratios but reason {reason}")
        return
    _require(reason == "Established", f"bounded value ratios but reason {reason}")
    w = report["witness"]
    _require(w["shift"] == b - a, f"shift {w['shift']}, tails align at {b - a}")
    _require(w["pairing"] is None and w["extension_side"] is None, "infinite sequences with a finite witness")
    d = Fraction(w["delta_prime"])
    _require(0 < d <= 1, f"delta' {d} outside (0, 1]")
    seq_t, seq_s = merged(vt, tail_t, PREFIX_TERMS), merged(vs, tail_s, PREFIX_TERMS)
    worst = _limit_ratio(tail_t, tail_s, a, b)
    worst = min(worst, 1 / worst)
    for n, (x, y) in enumerate(zip(seq_t, seq_s), start=1):
        _require(ratio_ge(x, y, d) and ratio_ge(y, x, d), f"term {n}: ratio outside [delta', 1/delta'] = {d}")
        r = math.exp(-abs(log_value(x) - log_value(y)))
        worst = min(worst, r)
    _require(float(d) >= worst * (1 - 1e-6), f"delta' {d} is below the attained bound {worst}")


# ---------------------------------------------------------------------------
# Bucket measures and the window recounter


@dataclass(frozen=True)
class Aleph:
    level: int


def _card(x):
    if isinstance(x, str):
        _require(x.startswith("aleph"), f"bad cardinal {x!r}")
        return Aleph(int(x[5:]))
    return int(x)


def iroot(x: int, k: int) -> int:
    """Floor of the k-th root of x >= 0, by integer Newton steps."""
    if x < 2 or k == 1:
        return x
    if k == 2:
        return math.isqrt(x)
    r = 1 << -(-x.bit_length() // k)  # >= the root
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def floor_log(x: Fraction, base: Fraction) -> int:
    """floor(log_base x) for x > 0, base > 1, exactly."""
    j = int(math.floor((x.numerator.bit_length() - x.denominator.bit_length())
                       / math.log2(base)))
    while base**j > x:
        j -= 1
    while base ** (j + 1) <= x:
        j += 1
    return j


class Measure:
    """Bucket counts of one operand: explicit buckets plus tail rules."""

    def __init__(self, delta: Fraction):
        self.delta = delta
        self.explicit: dict[int, object] = {}
        self.tails: list[dict] = []
        self.kernel = 0
        self.cokernel = 0

    def add(self, j: int, c) -> None:
        old = self.explicit.get(j, 0)
        if isinstance(old, Aleph) or isinstance(c, Aleph):
            levels = [x.level for x in (old, c) if isinstance(x, Aleph)]
            self.explicit[j] = Aleph(max(levels))
        else:
            self.explicit[j] = old + c

    def bucket(self, v: Fraction) -> int:
        """The j with delta^(j+1) <= v < delta^j."""
        return -floor_log(v, 1 / self.delta) - 1

    # -- tail rules

    def _seq_count_ge(self, tail: dict, t: Fraction) -> int:
        """#{n >= start : term(n) >= t}, times the multiplicity."""
        model, start, mult = tail["model"], tail.get("model_start", 1), tail.get("multiplicity", 1)
        kind = model["kind"]
        if kind == "power_law":
            c, p = Fraction(model["c"]), Fraction(model["p"])
            # c n^(-a/b) >= t  <=>  n^a <= (c/t)^b
            top = iroot(math.floor((c / t) ** p.denominator), p.numerator)
        elif kind == "geometric":
            c, r = Fraction(model["c"]), Fraction(model["r"])
            # c r^n >= t  <=>  (1/r)^n <= c/t
            top = floor_log(c / t, 1 / r) if c >= t else 0
        elif kind == "factorial":
            top, f = 0, 1
            while f * (top + 1) <= 1 / t:
                top += 1
                f *= top
        else:
            raise CheckError(f"unknown model {kind}")
        return mult * max(0, top - start + 1)

    def sparse_marks(self):
        """The sparse rule's indices floor(log_{1/delta} n!), ascending."""
        last, n, f = None, 1, 1
        while True:
            j = floor_log(Fraction(f), 1 / self.delta)
            if j != last:
                yield j
                last = j
            n += 1
            f *= n

    def first_bucket(self, tail: dict) -> int:
        kind = tail["kind"]
        if kind in ("constant", "geometric_count"):
            return tail["start"]
        if kind == "sparse_factorial":
            return next(j for j in self.sparse_marks() if j >= tail["start"])
        # Sequence: the bucket of its first term, from a float estimate
        # corrected by exact counts.
        v = log_value(term(tail["model"], tail.get("model_start", 1)))
        j = math.floor(-v / -math.log(self.delta))
        while self._seq_count_ge(tail, self.delta ** (j + 1)) == 0:
            j += 1
        while self._seq_count_ge(tail, self.delta**j) > 0:
            j -= 1
        return j

    def counts(self, lo: int, hi: int):
        """(finite counts, aleph levels or -1) for buckets lo..hi."""
        size = hi - lo + 1
        fin = [0] * size
        lev = [-1] * size
        for j, c in self.explicit.items():
            if lo <= j <= hi:
                if isinstance(c, Aleph):
                    lev[j - lo] = max(lev[j - lo], c.level)
                else:
                    fin[j - lo] += c
        for tail in self.tails:
            kind = tail["kind"]
            if kind == "constant":
                c = _card(tail["count"])
                for j in range(max(lo, tail["start"]), hi + 1):
                    if isinstance(c, Aleph):
                        lev[j - lo] = max(lev[j - lo], c.level)
                    else:
                        fin[j - lo] += c
            elif kind == "geometric_count":
                for j in range(max(lo, tail["start"]), hi + 1):
                    fin[j - lo] += tail["base"] ** j
            elif kind == "sparse_factorial":
                for j in self.sparse_marks():
                    if j > hi:
                        break
                    if j >= max(lo, tail["start"]):
                        fin[j - lo] += 1
            else:
                prev = self._seq_count_ge(tail, self.delta**lo)
                for j in range(lo, hi + 1):
                    cum = self._seq_count_ge(tail, self.delta ** (j + 1))
                    fin[j - lo] += cum - prev
                    prev = cum
        return fin, lev

    def structural(self) -> list[int]:
        return list(self.explicit) + [self.first_bucket(t) for t in self.tails]


def measure_of(node: dict, delta: Fraction) -> Measure:
    """The operand's bucket measure at base delta, from the document alone."""
    m = Measure(delta)
    for n in _walk(node):
        kind = n["kind"]
        if kind == "buckets":
            _require(Fraction(n["delta"]) == delta, "bucket operand on another base")
            for j, c in n.get("buckets", {}).items():
                m.add(int(j), _card(c))
            m.tails.extend(n.get("tails", ()))
            m.kernel, m.cokernel = m.kernel + _card(n.get("kernel", 0)), m.cokernel + _card(n.get("cokernel", 0))
        elif kind == "scaled_identity":
            m.add(m.bucket(Fraction(n["value"])), _card(n["dim"]))
        elif kind == "compact_diagonal":
            for v in n["prefix"]:
                m.add(m.bucket(Fraction(v)), 1)
            if "tail" in n and n["tail"]["kind"] != "zero":
                m.tails.append({"kind": "sequence", "model": n["tail"]})
            m.kernel += n.get("kernel", 0)
            m.cokernel += n.get("cokernel", 0)
    return m


def _exceeds(x, y) -> bool:
    """Window count x > window count y, as cardinals (level, finite)."""
    if x[0] >= 0 or y[0] >= 0:
        return x[0] > y[0]
    return x[1] > y[1]


def first_violation(a: Measure, b: Measure, q: int, k_min: Optional[int], lo: int, hi: int):
    """The first window [k, h] within lo..hi (k >= k_min) where a's count
    exceeds b's count on [k-q, h+q], or None."""
    fa, la = a.counts(lo, hi)
    fb, lb = b.counts(lo - q, hi + q)
    base = lo - q
    pb = [0]
    for x in fb:
        pb.append(pb[-1] + x)
    # nearest aleph level of b at or after each position, for the widening
    next_aleph = [None] * (len(lb) + 1)
    for i in range(len(lb) - 1, -1, -1):
        next_aleph[i] = i if lb[i] >= 0 else next_aleph[i + 1]
    for k in range(lo if k_min is None else max(lo, k_min), hi + 1):
        nxt = next_aleph[k - q - base]
        if la[k - lo] >= 0:
            # a's own infinite bucket: the tightest window containing it is [k, k]
            if not max(lb[k - q - base:k + q - base + 1]) >= la[k - lo]:
                return k, k
            continue
        total = 0
        for h in range(k, hi + 1):
            if la[h - lo] >= 0:
                break  # longer windows contain a's infinite bucket: settled above
            if nxt is not None and nxt <= h + q - base:
                break  # b's widened window is infinite from here on
            total += fa[h - lo]
            if total > pb[h + q - base + 1] - pb[k - q - base]:
                return k, h
    return None


def window_count(m: Measure, k: int, h: int):
    fin, lev = m.counts(k, h)
    return (max(lev) if lev else -1), sum(fin)


_HOLD_Q = re.compile(r"widening exponent (\d+)")
_HOLD_N = re.compile(r"window cutoff N=(\d+)")
_REFUSE = re.compile(
    r"(left|right) window at bucket (-?\d+) of length (\d+) is undominated at every "
    r"widening up to (\d+)(?: with cutoff (\d+))?"
)


def check_windows(doc, code, report, meta) -> None:
    relation = _option(doc, "relation", "extension")
    q_max = _option(doc, "q_max", 64)
    n_max = _option(doc, "N_max", 64)
    delta = Fraction(_option(doc, "delta", "1/2"))
    mt, ms = measure_of(doc["T"], delta), measure_of(doc["S"], delta)
    _expect_code(code, report, meta)
    reason = report["reason"]
    if (mt.kernel, mt.cokernel) != (ms.kernel, ms.cokernel):
        _require(reason == "KernelMismatch", f"kernel dims differ but reason {reason}")
        return
    notes = " ".join(report["notes"])
    if report["holds"]:
        got_q = _HOLD_Q.search(notes)
        _require(got_q is not None, f"holding verdict without a widening: {notes!r}")
        q = int(got_q.group(1))
        _require(1 <= q <= q_max, f"widening {q} outside 1..{q_max}")
        _require(Fraction(report["witness"]["delta_prime"]) == mt.delta**q, "delta' is not delta^q")
        n_cut = None
        if relation == "extension":
            got_n = _HOLD_N.search(notes)
            _require(got_n is not None, f"extension verdict without a cutoff: {notes!r}")
            n_cut = int(got_n.group(1))
            _require(1 <= n_cut <= n_max, f"cutoff {n_cut} outside 1..{n_max}")
        idx = mt.structural() + ms.structural()
        lo, hi = min(idx) - q - 2, max(idx) + 2 * q + HORIZON_SLACK
        for name, a, b in (("left", mt, ms), ("right", ms, mt)):
            hit = first_violation(a, b, q, n_cut, lo, hi)
            _require(hit is None, f"{name} window {hit} is undominated at q={q}, N={n_cut}")
        return
    want = "ConditionSFailed" if relation == "strong" else "ConditionSTildeFailed"
    _require(reason == want, f"refusal {reason}, expected {want}")
    got = _REFUSE.search(notes)
    _require(got is not None, f"refusal without a window: {notes!r}")
    side, k, length, q = got.group(1), int(got.group(2)), int(got.group(3)), int(got.group(4))
    _require(q == q_max, f"refusal at widening {q}, not q_max={q_max}")
    if relation == "extension":
        _require(got.group(5) is not None and int(got.group(5)) == n_max and k >= n_max,
                 f"window at {k} is below the cutoff {n_max}")
    a, b = (mt, ms) if side == "left" else (ms, mt)
    h = k + length - 1
    _require(_exceeds(window_count(a, k, h), window_count(b, k - q, h + q)),
             f"{side} window [{k}, {h}] is dominated at q={q}")


# ---------------------------------------------------------------------------
# Matcher reports


def _hypothesis_violation(ca: dict, cb: dict, k_min: Optional[int]):
    """First window [k, k+l-1] of ca (k >= k_min) with more elements than
    cb's window [k-1, k+l], by direct recount."""
    if not ca:
        return None
    lo = min(list(ca) + list(cb)) - 2
    hi = max(list(ca) + list(cb)) + 2
    pa, pb = [0], [0]
    for j in range(lo, hi + 1):
        pa.append(pa[-1] + ca.get(j, 0))
        pb.append(pb[-1] + cb.get(j, 0))
    k0 = min(ca) if k_min is None else max(k_min, min(ca))
    for k in range(k0, max(ca) + 1):
        for h in range(k, max(ca) + 1):
            if pa[h - lo + 1] - pa[k - lo] > pb[h + 1 - lo + 1] - pb[k - 1 - lo]:
                return k, h - k + 1
    return None


def check_match(doc, code, report, meta) -> None:
    t, s = doc["T"], doc["S"]
    delta = Fraction(t["delta"])
    n_cut, cap = t.get("N", 1), Fraction(t.get("M", 1))
    strict = _option(doc, "mode", "one_sided") == "two_sided_strict"
    ct = {int(j): c for j, c in t["buckets"].items() if c}
    cs = {int(j): c for j, c in s["buckets"].items() if c}
    _expect_code(code, report, meta)
    k_min = None if strict else n_cut
    if not report["holds"]:
        v = report["violation"]
        ca, cb = (ct, cs) if v["side"] == "tau" else (cs, ct)
        k, length = v["k"], v["length"]
        _require(strict or k >= n_cut, f"violation at k={k} below N={n_cut}")
        inside = sum(c for j, c in ca.items() if k <= j <= k + length - 1)
        widened = sum(c for j, c in cb.items() if k - 1 <= j <= k + length)
        _require(inside > widened, f"window [{k}, {k + length - 1}] of {v['side']} is dominated")
        return
    for name, ca, cb in (("tau", ct, cs), ("sigma", cs, ct)):
        hit = _hypothesis_violation(ca, cb, k_min)
        _require(hit is None, f"holding match but {name} window {hit} is undominated")
    case, padding = report["case"], report["padding"]
    pairs = report["pairing"]
    left = [tuple(p[0]) for p in pairs]
    right = [tuple(p[1]) for p in pairs]
    pad_left = {"II": padding}.get(case, 0)
    pad_right = {"III": padding}.get(case, 0)
    _require(case in ("I", "II", "III") and (case != "I" or padding == 0), f"case {case} with padding {padding}")
    _require(not strict or case == "I", "strict mode padded")

    def elements(counts, pads):
        out = [(j, i) for j, c in counts.items() for i in range(c)]
        out += [(-1, counts.get(-1, 0) + i) for i in range(pads)]
        return sorted(out)

    _require(sorted(left) == elements(ct, pad_left), "pairing does not cover T exactly once")
    _require(sorted(right) == elements(cs, pad_right), "pairing does not cover S exactly once")
    d = Fraction(report["delta_prime"])
    _require(d >= min(delta**2, delta**n_cut / cap), f"delta' {d} is weaker than the window bound")

    def interval(cell, counts):
        j, i = cell
        if j == -1 and i >= counts.get(-1, 0):
            return Fraction(1), Fraction(1)  # padding element of value 1
        return delta ** (j + 1), min(delta**j, cap)

    for (x, y) in zip(left, right):
        xl, xh = interval(x, ct)
        yl, yh = interval(y, cs)
        _require(min(xl / yh, yl / xh) >= d, f"pair {x}-{y} can leave [delta', 1/delta']")
