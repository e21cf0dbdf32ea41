"""Command-line front end.

Reads a JSON document describing a pair of operators ("T" and "S") plus
options, and dispatches one of three commands: ``decide`` runs the relation
engine and reports the verdict, ``match`` runs the bucket matcher directly on
two bucketed operands, and ``inspect`` reports the computed bucket measure of
each operand. The machine-readable report goes to standard output, a short
human summary to standard error. Exit codes: 0 the relation holds, 1 it
fails, 2 error or inconclusive.

All rationals travel as exact "p/q" strings (plain integers also accepted);
floating-point numbers are accepted only inside matrix rows. Cardinals are
plain integers or "aleph<level>" strings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

import numpy as np

from .cardinal import Cardinal, ZERO, canonical_int, card_from_json, card_to_json
from .engine import (
    EngineParams,
    EquivalenceWitness,
    LeftByDim,
    REASON_INCONCLUSIVE,
    RELATION_EXTENSION,
    RELATION_STRONG,
    Verdict,
    bucket_function,
    decide_extension_family,
    decide_strong,
)
from .errors import HypothesisViolationError, SchemaError, SpecError
from .matcher import MatchMode, MatchResult, build_matching
from .spectral import (
    Buckets,
    BucketMeasure,
    CompactDiagonal,
    ConstantRay,
    DirectSum,
    FiniteMatrix,
    GeometricRay,
    OperatorSpec,
    ScaledIdentity,
    SeqRay,
    SparseRay,
    model_json,
    modulus_data,
)
from .tails import (
    FactorialSeq,
    GeometricSeq,
    PowerSeq,
    SeqSpan,
    TailModel,
    ZeroTail,
)

_RELATIONS = (RELATION_STRONG, RELATION_EXTENSION)
_MODES = {"one_sided": MatchMode.ONE_SIDED, "two_sided_strict": MatchMode.TWO_SIDED_STRICT}


@dataclass(frozen=True)
class SpecDocument:
    """A parsed input document: the operator pair plus run options."""

    t: OperatorSpec
    s: OperatorSpec
    relation: str
    params: EngineParams
    match_mode: MatchMode = MatchMode.ONE_SIDED
    # Optional per-side (N, M) for the match command, in T/S order.
    bucket_nm: tuple = (None, None)


# ---------------------------------------------------------------------------
# Parsing


def _fail(path: str, message: str):
    raise SchemaError(path or "/", message)


def _obj(node, path: str, required: tuple, optional: tuple = ()) -> dict:
    if not isinstance(node, dict):
        _fail(path, f"expected an object, got {type(node).__name__}")
    for key in node:
        if key not in required and key not in optional:
            _fail(f"{path}/{key}", "unknown key")
    for key in required:
        if key not in node:
            _fail(path, f"missing required key {key!r}")
    return node


# A strict rational: an integer or "p/q" string of ASCII digits, no sign but
# a leading minus, no spaces or underscores, and a denominator that starts
# with 1-9. int() parses these exactly as Fraction(str) would.
_RATIONAL = r"-?[0-9]+(?:/[1-9][0-9]*)?"
_STRICT_RATIONAL = re.compile(_RATIONAL)


def _frac(node, path: str) -> Fraction:
    if isinstance(node, bool):
        _fail(path, f"expected a rational, got {node!r}")
    if isinstance(node, float):
        _fail(path, "floating-point numbers are not exact here; use a 'p/q' string")
    if not isinstance(node, (int, str)):
        _fail(path, f"expected an integer or a 'p/q' string, got {type(node).__name__}")
    if isinstance(node, str) and _STRICT_RATIONAL.fullmatch(node):
        p, _, q = node.partition("/")
        try:
            return Fraction(int(p), int(q or 1))
        except ValueError:  # beyond int()'s digit limit: Fraction(node) reports it
            pass
    try:
        return Fraction(node)
    except (ValueError, ZeroDivisionError) as e:
        _fail(path, f"bad rational {node!r}: {e}")


def _svd_tol(node, path: str) -> Fraction:
    """The rank tolerance: a nonnegative rational or finite float, within the
    float range."""
    if isinstance(node, float):
        if not math.isfinite(node):
            _fail(path, f"expected a finite number, got {node!r}")
        tol = Fraction(node)
    else:
        tol = _frac(node, path)
        try:
            float(tol)  # the rank rule compares singular values with float(tol) * sigma_max
        except OverflowError:
            _fail(path, f"svd_tol {node!r} lies beyond the float range")
    if tol < 0:
        _fail(path, f"svd_tol must be >= 0, got {node!r}")
    return tol


def _card(node, path: str) -> Cardinal:
    try:
        return card_from_json(node)
    except ValueError as e:
        _fail(path, str(e))


def _int(node, path: str, minimum: Optional[int] = 0) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        _fail(path, f"expected an integer, got {node!r}")
    if minimum is not None and node < minimum:
        _fail(path, f"expected an integer >= {minimum}, got {node}")
    return node


def _tail_model(node, path: str) -> TailModel:
    obj = _obj(node, path, ("kind",), ("c", "r", "p"))
    kind = obj["kind"]
    try:
        if kind == "zero":
            return ZeroTail()
        if kind == "geometric":
            return GeometricSeq(_frac(obj["c"], f"{path}/c"), _frac(obj["r"], f"{path}/r"))
        if kind == "power_law":
            return PowerSeq(_frac(obj["c"], f"{path}/c"), _frac(obj["p"], f"{path}/p"))
        if kind == "factorial":
            return FactorialSeq()
    except KeyError as e:
        _fail(path, f"missing required key {e.args[0]!r}")
    except SchemaError:
        raise
    except ValueError as e:
        _fail(path, str(e))
    _fail(f"{path}/kind", f"unknown tail kind {kind!r}")


def _atom(node, path: str):
    obj = _obj(node, path, ("kind",), ("start", "count", "base", "model", "model_start", "multiplicity"))
    kind = obj["kind"]
    try:
        if kind == "constant":
            return ConstantRay(
                _int(obj["start"], f"{path}/start", minimum=None),
                _card(obj["count"], f"{path}/count"),
            )
        if kind == "geometric_count":
            return GeometricRay(
                _int(obj["start"], f"{path}/start"), _int(obj["base"], f"{path}/base", 2)
            )
        if kind == "sparse_factorial":
            return SparseRay(_int(obj["start"], f"{path}/start"))
        if kind == "sequence":
            model = _tail_model(obj["model"], f"{path}/model")
            span = SeqSpan(
                model,
                _int(obj.get("model_start", 1), f"{path}/model_start", 1),
                _int(obj.get("multiplicity", 1), f"{path}/multiplicity", 1),
            )
            return SeqRay(span)
    except KeyError as e:
        _fail(path, f"missing required key {e.args[0]!r}")
    except SchemaError:
        raise
    except ValueError as e:
        _fail(path, str(e))
    _fail(f"{path}/kind", f"unknown tail-count kind {kind!r}")


def _bucket_error(raw: dict, path: str):
    """Raise the error of the first rejected entry of a "buckets" object, in
    document order."""
    for key, value in raw.items():
        if canonical_int(key) is None:
            _fail(f"{path}/buckets/{key}", f"bucket index {key!r} is not an integer in canonical form")
        try:
            card_from_json(value)
        except ValueError as e:
            _fail(f"{path}/buckets/{key}", str(e))


def _measure(obj: dict, path: str) -> BucketMeasure:
    raw = obj.get("buckets", {})
    if not isinstance(raw, dict):
        _fail(f"{path}/buckets", "expected an object mapping bucket index to count")
    # All entries at once: a key is in canonical form exactly when it reads
    # back as itself (canonical_int's test). The pointer is built only for a
    # rejected entry.
    try:
        index = list(map(int, raw))
        counts = list(map(card_from_json, raw.values()))
    except ValueError:
        index = None
    if index is None or list(map(str, index)) != list(raw):
        _bucket_error(raw, path)
    buckets = dict(zip(index, counts))
    atoms = tuple(
        _atom(node, f"{path}/tails/{i}") for i, node in enumerate(obj.get("tails", ()))
    )
    try:
        return BucketMeasure(
            delta=_frac(obj["delta"], f"{path}/delta"),
            buckets=buckets,
            atoms=atoms,
            kernel_dim=_card(obj["kernel"], f"{path}/kernel") if "kernel" in obj else ZERO,
            cokernel_dim=_card(obj["cokernel"], f"{path}/cokernel") if "cokernel" in obj else ZERO,
        )
    except SchemaError:
        raise
    except ValueError as e:
        _fail(path, str(e))


_NOT_FINITE = "matrix entries must be finite and within the float range"


def _matrix_entry(node, path: str) -> complex:
    """One matrix entry, converted on its own so that an error names its pointer."""
    if isinstance(node, bool):
        _fail(path, f"expected a number, got {node!r}")
    try:
        if isinstance(node, (int, float)):
            value = complex(node)
        elif isinstance(node, str):
            value = complex(float(_frac(node, path)))
        elif (
            isinstance(node, list)
            and len(node) == 2
            and all(type(x) in (int, float) for x in node)
        ):
            value = complex(*node)
        else:
            _fail(path, f"expected a number, 'p/q' string, or [re, im] pair, got {node!r}")
    except OverflowError:
        _fail(path, _NOT_FINITE)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        _fail(path, _NOT_FINITE)
    return value


_NUMBERS = {int, float}
# A row of strict rationals joined by single spaces skips Fraction.
_STRICT_ROW = re.compile(f"{_RATIONAL}(?: {_RATIONAL})*")


def _fast_row(row: list, out: np.ndarray) -> bool:
    """Fill out (one complex row) from a row of plain numbers, strict "p/q"
    strings or [re, im] number pairs; False for any other row, or an entry
    beyond the float range, which the per-entry path then reports.

    Each value is the one _matrix_entry gives: int / int true division is
    correctly rounded, as float(Fraction) is.
    """
    pairs = out.view(float)  # re, im interleaved
    kinds = set(map(type, row))
    try:
        if kinds <= _NUMBERS:
            pairs[::2] = row
            return float not in kinds or np.isfinite(pairs).all()
        if kinds == {str}:
            text = " ".join(row)
            if not _STRICT_ROW.fullmatch(text):
                return False
            values = []
            for s in row:
                p, _, q = s.partition("/")
                values.append(int(p) / int(q) if q else int(p))
            pairs[::2] = values
            return True
        if kinds == {list} and set(map(len, row)) == {2}:
            flat = [x for pair in row for x in pair]
            if set(map(type, flat)) <= _NUMBERS:
                pairs[:] = flat
                return np.isfinite(pairs).all()
    except (OverflowError, ValueError):  # beyond float range, or int()'s digit limit
        pass
    return False


def _matrix_rows(rows, path: str) -> np.ndarray:
    """The matrix of a "rows" node, as a complex128 array.

    Errors come in document order: the first bad row or entry, then unequal
    row lengths.
    """
    if not isinstance(rows, list) or not rows:
        _fail(path, "expected a nonempty array of rows")
    out = None
    ragged = False
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            _fail(f"{path}/{i}", "expected a nonempty array of numbers")
        if out is None:
            out = np.zeros((len(rows), len(row)), dtype=complex)
        if len(row) != out.shape[1]:
            ragged = True
        elif _fast_row(row, out[i]):
            continue
        values = [_matrix_entry(x, f"{path}/{i}/{j}") for j, x in enumerate(row)]
        if not ragged:
            out[i] = values
    if ragged:
        _fail(path, "rows must all have the same length")
    return out


def _parse_operator(node, path: str) -> tuple[OperatorSpec, Optional[tuple]]:
    """Returns the spec plus optional (N, M) matcher parameters (buckets only)."""
    if not isinstance(node, dict) or "kind" not in node:
        _fail(path, "expected an object with a 'kind' key")
    kind = node["kind"]
    if kind == "compact_diagonal":
        obj = _obj(node, path, ("kind", "prefix"), ("tail", "kernel", "cokernel"))
        prefix = obj["prefix"]
        if not isinstance(prefix, list):
            _fail(f"{path}/prefix", "expected an array of rationals")
        values = [_frac(v, f"{path}/prefix/{i}") for i, v in enumerate(prefix)]
        pn, pd = 1, 0  # the previous value; none yet, so above every value
        for i, v in enumerate(values):
            vn, vd = v.numerator, v.denominator
            if vn <= 0:
                _fail(f"{path}/prefix/{i}", "singular values must be positive")
            if vn * pd > pn * vd:
                _fail(f"{path}/prefix/{i}", "prefix must be nonincreasing")
            pn, pd = vn, vd
        tail = _tail_model(obj["tail"], f"{path}/tail") if "tail" in obj else ZeroTail()
        try:
            spec = CompactDiagonal(
                prefix=tuple(values),
                tail=tail,
                kernel_dim=_card(obj.get("kernel", 0), f"{path}/kernel"),
                cokernel_dim=_card(obj.get("cokernel", 0), f"{path}/cokernel"),
            )
        except SchemaError:
            raise
        except ValueError as e:
            _fail(path, str(e))
        return spec, None
    if kind == "matrix":
        obj = _obj(node, path, ("kind", "rows"))
        return FiniteMatrix(_matrix_rows(obj["rows"], f"{path}/rows")), None
    if kind == "scaled_identity":
        obj = _obj(node, path, ("kind", "value", "dim"))
        value = _frac(obj["value"], f"{path}/value")
        try:
            spec = ScaledIdentity(value=value, dim=_card(obj["dim"], f"{path}/dim"))
        except SchemaError:
            raise
        except ValueError as e:
            _fail(path, str(e))
        return spec, None
    if kind == "buckets":
        obj = _obj(
            node,
            path,
            ("kind", "delta"),
            ("buckets", "tails", "kernel", "cokernel", "N", "M"),
        )
        measure = _measure(obj, path)
        nm = None
        if "N" in obj or "M" in obj:
            nm = (
                _int(obj.get("N", 1), f"{path}/N", 1),
                _frac(obj.get("M", 1), f"{path}/M"),
            )
        return Buckets(measure), nm
    if kind == "direct_sum":
        obj = _obj(node, path, ("kind", "left", "right"))
        left, _ = _parse_operator(obj["left"], f"{path}/left")
        right, _ = _parse_operator(obj["right"], f"{path}/right")
        return DirectSum(left, right), None
    _fail(f"{path}/kind", f"unknown operator kind {kind!r}")


# Options that set an EngineParams field: key -> (field, reader). An option
# the document leaves out keeps the field's default.
_PARAM_OPTIONS = {
    "delta": ("delta", _frac),
    "svd_tol": ("svd_tol", _svd_tol),
    "q_max": ("q_max", partial(_int, minimum=1)),
    "N_max": ("n_max", partial(_int, minimum=1)),
    "prefix_check": ("prefix_check", partial(_int, minimum=1)),
}


def parse_spec(text: str) -> SpecDocument:
    """Parse and validate a JSON input document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        _fail("", f"invalid JSON: {e}")
    top = _obj(data, "", ("T", "S"), ("options",))
    t, t_nm = _parse_operator(top["T"], "/T")
    s, s_nm = _parse_operator(top["S"], "/S")
    opts = _obj(
        top.get("options", {}),
        "/options",
        (),
        ("delta", "svd_tol", "q_max", "N_max", "prefix_check", "relation", "mode"),
    )
    relation = opts.get("relation", RELATION_EXTENSION)
    if relation not in _RELATIONS:
        _fail("/options/relation", f"expected one of {_RELATIONS}, got {relation!r}")
    mode_key = opts.get("mode", "one_sided")
    if mode_key not in _MODES:
        _fail("/options/mode", f"expected one of {tuple(_MODES)}, got {mode_key!r}")
    params = EngineParams(
        **{
            field: read(opts[key], f"/options/{key}")
            for key, (field, read) in _PARAM_OPTIONS.items()
            if key in opts
        }
    )
    return SpecDocument(
        t=t,
        s=s,
        relation=relation,
        params=params,
        match_mode=_MODES[mode_key],
        bucket_nm=(t_nm, s_nm),
    )


# ---------------------------------------------------------------------------
# Serialization


def spec_to_json(spec: OperatorSpec, nm: Optional[tuple] = None) -> dict:
    if isinstance(spec, CompactDiagonal):
        out = {"kind": "compact_diagonal", "prefix": [str(v) for v in spec.prefix]}
        if not isinstance(spec.tail, ZeroTail):
            out["tail"] = model_json(spec.tail)
        if spec.kernel_dim != ZERO:
            out["kernel"] = card_to_json(spec.kernel_dim)
        if spec.cokernel_dim != ZERO:
            out["cokernel"] = card_to_json(spec.cokernel_dim)
        return out
    if isinstance(spec, FiniteMatrix):
        rows = [
            [x.real if x.imag == 0 else [x.real, x.imag] for x in row]
            for row in spec.rows
        ]
        return {"kind": "matrix", "rows": rows}
    if isinstance(spec, ScaledIdentity):
        return {
            "kind": "scaled_identity",
            "value": str(spec.value),
            "dim": card_to_json(spec.dim),
        }
    if isinstance(spec, Buckets):
        out = {"kind": "buckets"}
        out.update(spec.measure.to_json())
        if nm is not None:
            out["N"], out["M"] = nm[0], str(nm[1])
        return out
    if isinstance(spec, DirectSum):
        return {
            "kind": "direct_sum",
            "left": spec_to_json(spec.left),
            "right": spec_to_json(spec.right),
        }
    raise SpecError(f"cannot serialize {spec!r}")


def serialize_document(doc: SpecDocument) -> dict:
    mode_key = next(k for k, v in _MODES.items() if v is doc.match_mode)
    return {
        "T": spec_to_json(doc.t, doc.bucket_nm[0]),
        "S": spec_to_json(doc.s, doc.bucket_nm[1]),
        "options": {
            "delta": str(doc.params.delta),
            "svd_tol": str(doc.params.svd_tol),
            "q_max": doc.params.q_max,
            "N_max": doc.params.n_max,
            "prefix_check": doc.params.prefix_check,
            "relation": doc.relation,
            "mode": mode_key,
        },
    }


def witness_to_json(w: EquivalenceWitness) -> dict:
    side = None
    if w.extension_side is not None:
        side = {
            "side": "left" if isinstance(w.extension_side, LeftByDim) else "right",
            "dim": card_to_json(w.extension_side.dim),
        }
    pairing = None
    if w.pairing is not None:
        # Entries are either term indices (ints) or bucket cells (j, i).
        pairing = [
            [a if isinstance(a, int) else list(a), b if isinstance(b, int) else list(b)]
            for a, b in w.pairing
        ]
    return {
        "delta_prime": None if w.delta_prime is None else str(w.delta_prime),
        "extension_side": side,
        "shift": w.shift,
        "pairing": pairing,
    }


def verdict_to_json(v: Verdict) -> dict:
    return {
        "relation": v.relation,
        "holds": v.holds,
        "reason": v.reason,
        "witness": None if v.witness is None else witness_to_json(v.witness),
        "notes": list(v.notes),
    }


def match_to_json(r: MatchResult) -> dict:
    return {
        "case": r.case_tag,
        "pairing": r.pairing,  # json writes its nested tuples as arrays
        "padding": card_to_json(r.padding),
        "delta_prime": str(r.delta_prime),
    }


# ---------------------------------------------------------------------------
# Commands


def _decide(doc: SpecDocument) -> tuple[dict, str, int]:
    if doc.relation == RELATION_STRONG:
        verdict = decide_strong(doc.t, doc.s, doc.params)
    else:
        verdict = decide_extension_family(doc.t, doc.s, doc.params)
    if verdict.holds:
        code = 0
    elif verdict.reason == REASON_INCONCLUSIVE:
        code = 2
    else:
        code = 1
    text = f"{verdict.relation} relation {'holds' if verdict.holds else 'fails'}: {verdict.reason}"
    if verdict.witness is not None and verdict.witness.delta_prime is not None:
        text += f" (delta' = {verdict.witness.delta_prime})"
    for note in verdict.notes:
        text += f"\n  note: {note}"
    return verdict_to_json(verdict), text, code


def _match(doc: SpecDocument) -> tuple[dict, str, int]:
    fns = []
    for label, spec, nm in (("T", doc.t, doc.bucket_nm[0]), ("S", doc.s, doc.bucket_nm[1])):
        if not isinstance(spec, Buckets):
            raise SpecError(
                f"match needs bucketed operands; {label} has kind {type(spec).__name__}"
            )
        fns.append(bucket_function(spec.measure, label, nm))
    tau, sigma = fns
    try:
        result = build_matching(tau, sigma, doc.match_mode)
    except HypothesisViolationError as e:
        report = {
            "holds": False,
            "violation": {"side": e.side, "k": e.k, "length": e.length},
        }
        return report, f"window hypotheses fail: {e}", 1
    text = (
        f"case {result.case_tag}: {len(result.pairing)} pairs, "
        f"padding {card_to_json(result.padding)}, delta' = {result.delta_prime}"
    )
    return {"holds": True, **match_to_json(result)}, text, 0


def _inspect(doc: SpecDocument) -> tuple[dict, str, int]:
    report = {}
    lines = []
    for label, spec in (("T", doc.t), ("S", doc.s)):
        measure = modulus_data(spec, doc.params.delta, doc.params.svd_tol)
        report[label] = measure.to_json()
        lines.append(
            f"{label}: {len(measure.buckets)} buckets, "
            f"kernel {card_to_json(measure.kernel_dim)}, "
            f"cokernel {card_to_json(measure.cokernel_dim)}"
        )
    return report, "\n".join(lines), 0


def run(command: str, doc: SpecDocument) -> tuple[dict, str, int]:
    """Dispatch a parsed document; returns (report, summary, exit code)."""
    if command == "decide":
        return _decide(doc)
    if command == "match":
        return _match(doc)
    if command == "inspect":
        return _inspect(doc)
    raise SpecError(f"unknown command {command!r}")


# ---------------------------------------------------------------------------
# Entry point


def _apply_overrides(doc: SpecDocument, args: argparse.Namespace) -> SpecDocument:
    params = doc.params
    updates = {}
    if args.delta is not None:
        updates["delta"] = _frac(args.delta, "--delta")
    if args.svd_tol is not None:
        updates["svd_tol"] = _svd_tol(args.svd_tol, "--svd-tol")
    if args.q_max is not None:
        updates["q_max"] = args.q_max
    if args.n_max is not None:
        updates["n_max"] = args.n_max
    if args.prefix_check is not None:
        updates["prefix_check"] = args.prefix_check
    if updates:
        params = dataclasses.replace(params, **updates)
    return dataclasses.replace(
        doc,
        params=params,
        relation=args.relation or doc.relation,
        match_mode=_MODES[args.mode] if args.mode else doc.match_mode,
    )


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="opequiv",
        description="Decide operator equivalence relations from JSON specifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "decide": "decide the requested equivalence relation for the pair",
        "match": "run the bucket matcher directly on two bucketed operands",
        "inspect": "report the computed bucket measure of each operand",
    }
    for name, text in helps.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument(
            "--input",
            required=True,
            help="path of the JSON document, or - for standard input",
        )
        sp.add_argument("--relation", choices=_RELATIONS)
        sp.add_argument("--delta", help="bucket base as p/q, e.g. 1/2")
        sp.add_argument("--q-max", dest="q_max", type=int)
        sp.add_argument("--n-max", dest="n_max", type=int)
        sp.add_argument("--svd-tol", dest="svd_tol")
        sp.add_argument("--prefix-check", dest="prefix_check", type=int)
        sp.add_argument("--mode", choices=tuple(_MODES))
    args = parser.parse_args(argv)
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        doc = parse_spec(text)
        doc = _apply_overrides(doc, args)
        report, summary, code = run(args.command, doc)
    except OSError as e:
        print(json.dumps({"error": "InputError", "message": str(e)}))
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:  # SpecError and friends subclass ValueError
        print(json.dumps({"error": type(e).__name__, "message": str(e)}))
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:  # parsing and reduction recurse once per nesting level
        message = "the document nests too deeply"
        print(json.dumps({"error": "SpecError", "message": message}))
        print(f"error: {message}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2))
    if summary:
        print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
