"""Tests for the JSON front end: parsing, serialization, commands, exit codes."""

import io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opequiv import (
    Buckets,
    CompactDiagonal,
    DeltaRangeError,
    DirectSum,
    EngineParams,
    FiniteMatrix,
    ScaledIdentity,
    SchemaError,
    SpecError,
    decide_extension_family,
    decide_strong,
)
from opequiv.cli import (
    main,
    parse_spec,
    run,
    serialize_document,
    verdict_to_json,
)
from opequiv.tails import FactorialSeq, PowerSeq


def doc(t, s, **options):
    out = {"T": t, "S": s}
    if options:
        out["options"] = options
    return json.dumps(out)


POWER_DIAG = {"kind": "compact_diagonal", "prefix": [], "tail": {"kind": "power_law", "c": "1", "p": "1"}}
FACT_DIAG = {"kind": "compact_diagonal", "prefix": [], "tail": {"kind": "factorial"}}
UNIT = {"kind": "scaled_identity", "value": 1, "dim": 1}


# ---------------------------------------------------------------------------
# Parsing


def test_parse_minimal_pair_defaults():
    parsed = parse_spec(doc(dict(POWER_DIAG, kernel=0, cokernel=0), POWER_DIAG, relation="extension"))
    assert parsed.t == CompactDiagonal(prefix=(), tail=PowerSeq(Fraction(1), Fraction(1)))
    assert parsed.t == parsed.s
    assert parsed.relation == "extension"
    assert parsed.params == EngineParams()
    assert parsed.bucket_nm == (None, None)


def test_parse_matrix_entries():
    parsed = parse_spec(doc({"kind": "matrix", "rows": [[3, 0.5], ["1/3", [0, 1]]]}, UNIT))
    assert isinstance(parsed.t, FiniteMatrix)
    assert parsed.t.rows == ((3 + 0j, 0.5 + 0j), (complex(1 / 3), 1j))
    assert isinstance(parsed.s, ScaledIdentity)


def test_parse_nested_direct_sum():
    parsed = parse_spec(doc({"kind": "direct_sum", "left": UNIT, "right": FACT_DIAG}, UNIT))
    assert parsed.t == DirectSum(ScaledIdentity(Fraction(1), 1), CompactDiagonal((), FactorialSeq()))


def test_parse_bucket_operand_with_matcher_parameters():
    parsed = parse_spec(
        doc(
            {"kind": "buckets", "delta": "1/2", "buckets": {"0": 2, "-1": "aleph0"}, "N": 2, "M": "3/2"},
            {"kind": "buckets", "delta": "1/2", "buckets": {}, "tails": [{"kind": "sparse_factorial", "start": 0}]},
        )
    )
    assert isinstance(parsed.t, Buckets) and isinstance(parsed.s, Buckets)
    assert parsed.bucket_nm == ((2, Fraction(3, 2)), None)


def test_delta_out_of_range_rejected():
    with pytest.raises(DeltaRangeError):
        parse_spec(doc(UNIT, UNIT, delta="3/2"))


@pytest.mark.parametrize(
    "document, path_fragment",
    [
        ('{"T": 1, "S": {"kind": "matrix", "rows": [[1]]}}', "/T"),  # not an object
        (doc(UNIT, UNIT)[:-2], "/"),  # truncated JSON
        ('{"S": %s}' % json.dumps(UNIT), "/"),  # missing T
        (doc(dict(UNIT, extra=1), UNIT), "/T/extra"),  # unknown key
        (doc({"kind": "mystery"}, UNIT), "/T/kind"),  # unknown operand kind
        (doc({"kind": "matrix", "rows": [[1, 2], [3]]}, UNIT), "/T/rows"),  # ragged
        (doc({"kind": "matrix", "rows": []}, UNIT), "/T/rows"),  # empty
        (doc({"kind": "matrix", "rows": [[True]]}, UNIT), "/T/rows/0/0"),  # bool
        (doc(UNIT, {"kind": "matrix", "rows": [[1, 2.5], ["1/2", [1]]]}), "/S/rows/1/1"),
        (doc({"kind": "compact_diagonal", "prefix": [0.5]}, UNIT), "/T/prefix/0"),  # float
        (doc({"kind": "compact_diagonal", "prefix": ["1/4", "1/2"]}, UNIT), "/T/prefix/1"),
        (doc({"kind": "compact_diagonal", "prefix": ["0"]}, UNIT), "/T/prefix/0"),
        (doc({"kind": "compact_diagonal", "prefix": [], "tail": {"kind": "odd"}}, UNIT), "/T/tail/kind"),
        (doc({"kind": "scaled_identity", "value": "1/0", "dim": 1}, UNIT), "/T/value"),
        (doc({"kind": "scaled_identity", "value": 1, "dim": -2}, UNIT), "/T/dim"),
        (doc({"kind": "scaled_identity", "value": 1, "dim": "alephX"}, UNIT), "/T/dim"),
        (doc({"kind": "buckets", "delta": "1/2", "buckets": {"x": 1}}, UNIT), "/T/buckets/x"),
        (doc({"kind": "buckets", "delta": "1/2", "tails": [{"kind": "constant", "start": 0}]}, UNIT), "/T/tails/0"),
        (doc(UNIT, UNIT, delta=0.5), "/options/delta"),  # floats only in matrix rows
        (doc(UNIT, UNIT, relation="weak"), "/options/relation"),
        (doc(UNIT, UNIT, mode="diagonal"), "/options/mode"),
        (doc(UNIT, UNIT, q_max=0), "/options/q_max"),
    ],
)
def test_schema_violations_carry_pointer_paths(document, path_fragment):
    with pytest.raises(SchemaError) as info:
        parse_spec(document)
    assert info.value.path.startswith(path_fragment)


def test_float_tolerance_option_is_accepted():
    parsed = parse_spec(doc(UNIT, UNIT, svd_tol=1e-6))
    assert parsed.params.svd_tol == Fraction(1e-6)
    # The tolerance reaches the value path of a compact pair: both matrices
    # have rank 1 at 10^-6.
    parsed = parse_spec(
        doc(
            {"kind": "matrix", "rows": [[1, 0], [0, 1e-7]]},
            {"kind": "matrix", "rows": [[1, 0], [0, 0]]},
            relation="strong",
            svd_tol="1/1000000",
        )
    )
    report, _, code = run("decide", parsed)
    assert (report["reason"], code) == ("Established", 0)
    assert report["witness"]["delta_prime"] == "1"
    assert report["witness"]["shift"] == 0
    assert report["witness"]["pairing"] == [[1, 1]]


# ---------------------------------------------------------------------------
# Serialization round-trip


ROUND_TRIP_DOCS = [
    doc(POWER_DIAG, FACT_DIAG, relation="strong", delta="1/3", q_max=7),
    doc({"kind": "compact_diagonal", "prefix": ["2", "1"], "tail": {"kind": "geometric", "c": "1", "r": "1/3"}, "kernel": 2}, UNIT),
    doc({"kind": "compact_diagonal", "prefix": ["3/2"]}, {"kind": "compact_diagonal", "prefix": [], "tail": {"kind": "zero"}, "cokernel": "aleph0"}),
    doc({"kind": "matrix", "rows": [[1, [2, -3]], [0.25, "1/7"]]}, {"kind": "matrix", "rows": [[0]]}),
    doc({"kind": "scaled_identity", "value": "5/4", "dim": "aleph1"}, UNIT, mode="two_sided_strict"),
    doc(
        {
            "kind": "buckets",
            "delta": "2/5",
            "buckets": {"-1": 1, "3": "aleph0"},
            "tails": [
                {"kind": "constant", "start": 5, "count": 2},
                {"kind": "geometric_count", "start": 0, "base": 3},
                {"kind": "sparse_factorial", "start": 1},
                {"kind": "sequence", "model": {"kind": "power_law", "c": "1", "p": "2"}, "model_start": 2, "multiplicity": 3},
            ],
            "kernel": 1,
            "N": 3,
            "M": "2",
        },
        {"kind": "direct_sum", "left": UNIT, "right": POWER_DIAG},
        N_max=9,
        prefix_check=17,
    ),
]


@pytest.mark.parametrize("document", ROUND_TRIP_DOCS)
def test_round_trip_preserves_documents(document):
    parsed = parse_spec(document)
    again = parse_spec(json.dumps(serialize_document(parsed)))
    assert again == parsed
    assert serialize_document(again) == serialize_document(parsed)


@st.composite
def operand_nodes(draw, depth: int = 0):
    kinds = ["compact_diagonal", "matrix", "scaled_identity", "buckets"]
    if depth == 0:
        kinds.append("direct_sum")
    kind = draw(st.sampled_from(kinds))
    small = st.integers(1, 4)
    frac = st.builds(lambda p, q: f"{p}/{q}", small, small)
    tail = st.sampled_from(
        [
            {"kind": "zero"},
            {"kind": "factorial"},
            {"kind": "geometric", "c": "1", "r": "1/3"},
            {"kind": "power_law", "c": "1/2", "p": "2"},
        ]
    )
    card = st.one_of(st.integers(0, 4), st.sampled_from(["aleph0", "aleph2"]))
    if kind == "compact_diagonal":
        prefix = sorted(draw(st.lists(st.integers(1, 9), max_size=3)), reverse=True)
        return {
            "kind": kind,
            "prefix": [f"{v}" for v in prefix],
            "tail": draw(tail),
            "kernel": draw(card),
            "cokernel": draw(card),
        }
    if kind == "matrix":
        width = draw(st.integers(1, 3))
        entry = st.one_of(
            st.integers(-3, 3),
            st.floats(-2, 2, allow_nan=False),
            frac,
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(list),
        )
        rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=3))
        return {"kind": kind, "rows": rows}
    if kind == "scaled_identity":
        return {"kind": kind, "value": draw(frac), "dim": draw(st.one_of(st.integers(1, 5), st.just("aleph0")))}
    if kind == "buckets":
        atom = st.one_of(
            st.builds(lambda s, c: {"kind": "constant", "start": s, "count": c}, st.integers(-2, 5), st.one_of(st.integers(1, 3), st.just("aleph0"))),
            st.builds(lambda s, b: {"kind": "geometric_count", "start": s, "base": b}, st.integers(0, 4), st.integers(2, 4)),
            st.builds(lambda s: {"kind": "sparse_factorial", "start": s}, st.integers(0, 6)),
            st.builds(
                lambda m, ms, mult: {"kind": "sequence", "model": m, "model_start": ms, "multiplicity": mult},
                st.sampled_from([{"kind": "factorial"}, {"kind": "power_law", "c": "1", "p": "1"}]),
                st.integers(1, 3),
                st.integers(1, 2),
            ),
        )
        node = {
            "kind": kind,
            "delta": draw(st.sampled_from(["1/2", "1/3", "2/5"])),
            "buckets": {str(draw(st.integers(-3, 6))): draw(card) for _ in range(draw(st.integers(0, 3)))},
            "tails": draw(st.lists(atom, max_size=2)),
            "kernel": draw(card),
        }
        if draw(st.booleans()):
            node["N"] = draw(st.integers(1, 3))
            node["M"] = draw(st.sampled_from(["1", "3/2", "4"]))
        return node
    return {
        "kind": "direct_sum",
        "left": draw(operand_nodes(depth=depth + 1)),
        "right": draw(operand_nodes(depth=depth + 1)),
    }


@settings(max_examples=120, deadline=None)
@given(
    t=operand_nodes(),
    s=operand_nodes(),
    relation=st.sampled_from(["strong", "extension"]),
    delta=st.sampled_from(["1/2", "1/3", "9/10"]),
    q_max=st.integers(1, 99),
)
def test_round_trip_on_generated_documents(t, s, relation, delta, q_max):
    parsed = parse_spec(doc(t, s, relation=relation, delta=delta, q_max=q_max))
    again = parse_spec(json.dumps(serialize_document(parsed)))
    assert again == parsed


# ---------------------------------------------------------------------------
# Commands and exit codes


def test_decide_matches_direct_library_call():
    text = doc(
        {"kind": "matrix", "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 0]]},
        {"kind": "matrix", "rows": [[1, 0], [0, 0]]},
    )
    for relation, fn in (("extension", decide_extension_family), ("strong", decide_strong)):
        parsed = parse_spec(doc(json.loads(text)["T"], json.loads(text)["S"], relation=relation))
        report, _, code = run("decide", parsed)
        assert report == verdict_to_json(fn(parsed.t, parsed.s, parsed.params))
        assert code == 0 if report["holds"] else code in (1, 2)


def test_decide_rank_two_versus_rank_one_matrices_holds():
    parsed = parse_spec(
        doc(
            {"kind": "matrix", "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 0]]},
            {"kind": "matrix", "rows": [[1, 0], [0, 0]]},
        )
    )
    report, summary, code = run("decide", parsed)
    assert code == 0
    assert report["holds"] is True
    assert report["witness"]["delta_prime"] is not None
    assert "holds" in summary


def test_decide_rigid_tail_prepend_fails():
    parsed = parse_spec(doc(FACT_DIAG, {"kind": "direct_sum", "left": UNIT, "right": FACT_DIAG}))
    report, _, code = run("decide", parsed)
    assert (report["holds"], report["reason"], code) == (False, "NotComparable", 1)


def test_decide_inconclusive_exits_two():
    bucket = {"kind": "buckets", "delta": "1/2", "buckets": {"0": 1}}
    parsed = parse_spec(doc(bucket, bucket, relation="strong"))
    report, _, code = run("decide", parsed)
    assert report["reason"] == "Inconclusive"
    assert code == 2


def test_decide_fractional_power_tails_beside_infinite_identity():
    # I_aleph0 (+) diag(n^(-2/3)) against I_aleph0 (+) diag(2 n^(-2/3)): the
    # tail certificate takes exact roots of numbers far past float range.
    def side(c):
        tail = {"kind": "power_law", "c": c, "p": "2/3"}
        return {
            "kind": "direct_sum",
            "left": {"kind": "scaled_identity", "value": 1, "dim": "aleph0"},
            "right": {"kind": "compact_diagonal", "prefix": [], "tail": tail},
        }

    parsed = parse_spec(doc(side("1"), side("2"), relation="strong", q_max=64))
    report, _, code = run("decide", parsed)
    assert (report["holds"], report["reason"], code) == (True, "Established", 0)


def test_inspect_reports_measures():
    parsed = parse_spec(
        doc(
            {"kind": "matrix", "rows": [[0.5, 0, 0], [0, 0.25, 0], [0, 0, 0.125]]},
            {"kind": "compact_diagonal", "prefix": ["1"], "kernel": 2},
        )
    )
    report, summary, code = run("inspect", parsed)
    assert code == 0
    assert report["T"]["buckets"] == {"0": 1, "1": 1, "2": 1}
    assert report["S"]["buckets"] == {"-1": 1}
    assert report["S"]["kernel"] == 2
    assert "T: 3 buckets" in summary


def test_decide_aligns_sequence_spans_that_start_apart():
    # 1/n from n = 1 against 1/n from n = 2: the leading 1 joins the infinite
    # bucket, after which the two generators are identical.
    def operand(model_start):
        power = {"kind": "power_law", "c": "1", "p": "1"}
        return {
            "kind": "buckets",
            "delta": "1/2",
            "buckets": {"-1": "aleph0"},
            "tails": [
                {"kind": "constant", "start": 0, "count": 1},
                {"kind": "sequence", "model": power, "model_start": model_start},
            ],
        }

    parsed = parse_spec(doc(operand(1), operand(2), relation="strong", q_max=8))
    report, _, code = run("decide", parsed)
    assert code == 0
    assert report["holds"] is True
    assert report["witness"]["delta_prime"] == "1/2"
    assert report["notes"] == ["window widening exponent 1"]


def test_match_reports_pairing_and_case():
    parsed = parse_spec(
        doc(
            {"kind": "buckets", "delta": "1/2", "buckets": {"1": 1}},
            {"kind": "buckets", "delta": "1/2", "buckets": {"0": 1}},
        )
    )
    report, _, code = run("match", parsed)
    assert code == 0
    assert report == {
        "holds": True,
        "case": "I",
        "pairing": [[[1, 0], [0, 0]]],
        "padding": 0,
        "delta_prime": "1/4",
    }


def test_match_shallow_surplus_is_absorbed_by_padding():
    # Surplus in bucket 0 sits above the cutoff, so the short side is padded.
    parsed = parse_spec(
        doc(
            {"kind": "buckets", "delta": "1/2", "buckets": {"0": 3}},
            {"kind": "buckets", "delta": "1/2", "buckets": {"0": 1}},
        )
    )
    report, _, code = run("match", parsed)
    assert code == 0
    assert report["case"] == "III"
    assert report["padding"] == 2


def test_match_violation_reports_witness_window():
    # Surplus in bucket 2 is deep; padding lives at bucket -1 and cannot help.
    parsed = parse_spec(
        doc(
            {"kind": "buckets", "delta": "1/2", "buckets": {"2": 2}},
            {"kind": "buckets", "delta": "1/2", "buckets": {"2": 1}},
        )
    )
    report, summary, code = run("match", parsed)
    assert code == 1
    assert report["holds"] is False
    assert report["violation"] == {"side": "tau", "k": 2, "length": 1}
    assert "window hypotheses fail" in summary


def test_match_rejects_non_bucket_operands():
    parsed = parse_spec(doc(UNIT, {"kind": "buckets", "delta": "1/2", "buckets": {"0": 1}}))
    with pytest.raises(SpecError, match="bucketed"):
        run("match", parsed)


def test_match_rejects_symbolic_tails():
    parsed = parse_spec(
        doc(
            {"kind": "buckets", "delta": "1/2", "tails": [{"kind": "constant", "start": 0, "count": 1}]},
            {"kind": "buckets", "delta": "1/2", "buckets": {"0": 1}},
        )
    )
    with pytest.raises(SpecError, match="finitely many"):
        run("match", parsed)


def test_run_rejects_unknown_command():
    parsed = parse_spec(doc(UNIT, UNIT))
    with pytest.raises(SpecError):
        run("bogus", parsed)


@settings(max_examples=60, deadline=None)
@given(
    rows_t=st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=2, max_size=2),
    rows_s=st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=3, max_size=3),
    relation=st.sampled_from(["strong", "extension"]),
)
def test_exit_codes_track_the_verdict(rows_t, rows_s, relation):
    parsed = parse_spec(
        doc({"kind": "matrix", "rows": rows_t}, {"kind": "matrix", "rows": rows_s}, relation=relation)
    )
    try:
        report, _, code = run("decide", parsed)
    except SpecError:
        # e.g. a singular value within tolerance of a bucket boundary; the
        # entry point maps this to exit code 2, checked elsewhere.
        return
    if report["holds"]:
        assert code == 0
    elif report["reason"] == "Inconclusive":
        assert code == 2
    else:
        assert code == 1
    assert report["relation"] == relation


# ---------------------------------------------------------------------------
# Entry point


def write_input(tmp_path, text):
    path = tmp_path / "pair.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_main_decide_file_input(tmp_path, capsys):
    path = write_input(tmp_path, doc(UNIT, UNIT))
    assert main(["decide", "--input", path]) == 0
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert report["holds"] is True
    assert "holds" in out.err


def test_main_reads_standard_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(doc(UNIT, UNIT)))
    assert main(["decide", "--input", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


def test_main_missing_file_reports_input_error(tmp_path, capsys):
    assert main(["decide", "--input", str(tmp_path / "absent.json")]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "InputError"


def test_main_schema_error_reports_type_and_path(tmp_path, capsys):
    path = write_input(tmp_path, doc(dict(UNIT, extra=1), UNIT))
    assert main(["decide", "--input", path]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "SchemaError"
    assert "/T/extra" in report["message"]


def test_main_delta_out_of_range_reports_error_type(tmp_path, capsys):
    path = write_input(tmp_path, doc(UNIT, UNIT, delta="7/4"))
    assert main(["decide", "--input", path]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "DeltaRangeError"


def test_main_relation_flag_overrides_the_file(tmp_path, capsys):
    text = doc(
        {"kind": "compact_diagonal", "prefix": ["1/2", "1/4"]},
        {"kind": "compact_diagonal", "prefix": ["1/2", "1/4"]},
        relation="extension",
    )
    path = write_input(tmp_path, text)
    assert main(["decide", "--input", path, "--relation", "strong"]) == 0
    assert json.loads(capsys.readouterr().out)["relation"] == "strong"


def test_main_delta_flag_rebuckets_the_measure(tmp_path, capsys):
    text = doc(
        {"kind": "matrix", "rows": [[0.5, 0, 0], [0, 0.25, 0], [0, 0, 0.125]]},
        {"kind": "matrix", "rows": [[1]]},
    )
    path = write_input(tmp_path, text)
    assert main(["inspect", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["T"]["buckets"] == {"0": 1, "1": 1, "2": 1}
    assert main(["inspect", "--input", path, "--delta", "1/8"]) == 0
    assert json.loads(capsys.readouterr().out)["T"]["buckets"] == {"0": 3}


def test_numeric_overrides_replace_engine_parameters():
    import argparse

    parsed = parse_spec(doc(UNIT, UNIT))
    flags = argparse.Namespace(
        delta="1/3", svd_tol="1/512", q_max=7, n_max=9, prefix_check=33, relation=None, mode=None
    )
    from opequiv.cli import _apply_overrides

    updated = _apply_overrides(parsed, flags)
    assert updated.params == EngineParams(
        delta=Fraction(1, 3),
        svd_tol=Fraction(1, 512),
        q_max=7,
        n_max=9,
        prefix_check=33,
    )
    assert updated.relation == parsed.relation
    untouched = argparse.Namespace(
        delta=None, svd_tol=None, q_max=None, n_max=None, prefix_check=None, relation=None, mode=None
    )
    assert _apply_overrides(parsed, untouched) == parsed


def test_main_mode_flag_switches_matcher_strictness(tmp_path, capsys):
    # One-sided matching pads the empty side; strict matching forbids pads
    # and therefore needs equal totals.
    text = doc(
        {"kind": "buckets", "delta": "1/2", "buckets": {}},
        {"kind": "buckets", "delta": "1/2", "buckets": {"-1": 2}},
    )
    path = write_input(tmp_path, text)
    assert main(["match", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["case"] == "II"
    assert main(["match", "--input", path, "--mode", "two_sided_strict"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is False
    assert report["violation"]["side"] == "sigma"


def test_main_bad_flag_value_is_a_schema_error(tmp_path, capsys):
    path = write_input(tmp_path, doc(UNIT, UNIT))
    assert main(["decide", "--input", path, "--delta", "fast"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "SchemaError"


# ---------------------------------------------------------------------------
# Matrix input


BIG = "1" + "0" * 400  # an integer beyond the float range


@pytest.mark.parametrize(
    "document, pointer",
    [
        ('{"T": %s, "S": %s, "options": {"svd_tol": 1e400}}' % (json.dumps(UNIT), json.dumps(UNIT)), "/options/svd_tol"),
        ('{"T": %s, "S": %s, "options": {"svd_tol": NaN}}' % (json.dumps(UNIT), json.dumps(UNIT)), "/options/svd_tol"),
        ('{"T": {"kind": "matrix", "rows": [[1]]}, "S": {"kind": "matrix", "rows": [[1]]}, "options": {"svd_tol": "1e400"}}', "/options/svd_tol"),
        ('{"T": {"kind": "matrix", "rows": [[1, %s]]}, "S": {"kind": "matrix", "rows": [[1]]}}' % BIG, "/T/rows/0/1"),
        ('{"T": {"kind": "matrix", "rows": [[1, 0], [NaN, 1]]}, "S": {"kind": "matrix", "rows": [[1]]}}', "/T/rows/1/0"),
        ('{"T": {"kind": "matrix", "rows": [[1]]}, "S": {"kind": "matrix", "rows": [[Infinity]]}}', "/S/rows/0/0"),
        ('{"T": {"kind": "matrix", "rows": [[1e400, 0], [0, 1]]}, "S": {"kind": "matrix", "rows": [[1]]}}', "/T/rows/0/0"),
        ('{"T": {"kind": "matrix", "rows": [[[1, NaN]]]}, "S": {"kind": "matrix", "rows": [[1]]}}', "/T/rows/0/0"),
        ('{"T": {"kind": "matrix", "rows": [["%s/3"]]}, "S": {"kind": "matrix", "rows": [[1]]}}' % BIG, "/T/rows/0/0"),
        ('{"T": {"kind": "matrix", "rows": [[1, "1/2", -Infinity]]}, "S": {"kind": "matrix", "rows": [[1]]}}', "/T/rows/0/2"),
    ],
    ids=[
        "svd_tol-overflow",
        "svd_tol-nan",
        "svd_tol-rational-beyond-float",
        "int-beyond-float",
        "nan-entry",
        "infinity-entry",
        "float-overflow-entry",
        "nan-in-pair",
        "rational-beyond-float",
        "infinity-in-mixed-row",
    ],
)
def test_main_rejects_non_finite_numbers_at_their_pointer(tmp_path, capsys, document, pointer):
    path = write_input(tmp_path, document)
    assert main(["decide", "--input", path]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "SchemaError"
    assert report["message"].startswith(pointer + ": ")


RANK_ONE = {"kind": "matrix", "rows": [[1, 0], [0, 0]]}


@pytest.mark.parametrize("svd_tol", ["-1", -1, -0.5, "-1/1000"])
def test_main_rejects_a_negative_svd_tol_at_its_pointer(tmp_path, capsys, svd_tol):
    # A negative tolerance keeps the zero singular value of a rank-one
    # matrix, which has no bucket.
    path = write_input(tmp_path, doc(RANK_ONE, RANK_ONE, svd_tol=svd_tol))
    assert main(["decide", "--input", path]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "SchemaError"
    assert report["message"].startswith("/options/svd_tol: ")


def test_main_rejects_a_negative_svd_tol_flag(tmp_path, capsys):
    path = write_input(tmp_path, doc(RANK_ONE, RANK_ONE))
    assert main(["decide", "--input", path, "--svd-tol=-1"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "SchemaError"
    assert report["message"].startswith("--svd-tol: ")
    # Zero stays allowed: the zero singular value is still dropped.
    assert main(["decide", "--input", path, "--svd-tol", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


FIXTURES = Path(__file__).resolve().parent / "fixtures" / "matrix"


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.json") if p.name != "expected.json"))
def test_matrix_documents_replay_byte_for_byte(name, capsys):
    # expected.json holds the stdout, stderr and exit code of
    # `opequiv decide --input NAME.json` as recorded before matrices were
    # parsed in bulk; the matrix path must keep reproducing them exactly.
    expected = json.loads((FIXTURES / "expected.json").read_text(encoding="utf-8"))[name]
    code = main(["decide", "--input", str(FIXTURES / f"{name}.json")])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (expected["exit_code"], expected["stdout"], expected["stderr"])


SHARED_GENERATOR = Path(__file__).resolve().parent / "fixtures" / "shared-generator"


# bucket-20000.json, the same pair one bucket deeper, is kept for timing the
# fix: today it takes seconds and answers the same, so no test runs it.
@pytest.mark.xfail(reason="identical tail generators leave the explicit remainder to dominate on its own")
@pytest.mark.parametrize("bucket", [200, 2000])
def test_shared_generator_pair_holds_at_widening_one(bucket, capsys):
    # T = aleph0 at -1 + one value at the bucket + the tail 1/n; S = aleph0
    # at -1 + the same tail. The widened window of S at q = 1 pays for the
    # extra value of T, so condition S holds with delta' = delta.
    code = main(["decide", "--input", str(SHARED_GENERATOR / f"bucket-{bucket}.json")])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["holds"], report["witness"]["delta_prime"]) == (0, True, "1/2")


def _per_entry_rows(rows, path="/T/rows"):
    """The per-entry matrix parser that the bulk path replaces, kept as its oracle."""
    if not isinstance(rows, list) or not rows:
        raise SchemaError(path, "expected a nonempty array of rows")
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{path}/{i}", "expected a nonempty array of numbers")
        values = []
        for j, x in enumerate(row):
            where = f"{path}/{i}/{j}"
            if type(x) in (int, float):
                values.append(complex(x))
            elif isinstance(x, bool):
                raise SchemaError(where, f"expected a number, got {x!r}")
            elif isinstance(x, str):
                try:
                    values.append(complex(float(Fraction(x))))
                except (ValueError, ZeroDivisionError) as e:
                    raise SchemaError(where, f"bad rational {x!r}: {e}")
            elif (
                isinstance(x, list)
                and len(x) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in x)
            ):
                values.append(complex(*x))
            else:
                raise SchemaError(where, f"expected a number, 'p/q' string, or [re, im] pair, got {x!r}")
        parsed.append(values)
    if len({len(r) for r in parsed}) != 1:
        raise SchemaError(path, "rows must all have the same length")
    return np.array(parsed, dtype=complex)


def _bits(parse, rows):
    try:
        array = parse(rows)
    except SchemaError as e:
        return ("error", e.path, str(e))
    return ("array", array.shape, array.view(np.uint64).tolist())


_ints = st.integers(-10, 10) | st.integers(-(2**80), 2**80) | st.integers(-(10**300), 10**300)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_strict = st.integers(-(10**20), 10**20).map(str) | st.builds(
    "{}/{}".format, st.integers(-(10**20), 10**20), st.integers(1, 10**20)
)
_loose = st.sampled_from(
    ["1.5", " 3/4", "1_000", "+2", "1/0", "1/05", "-0", "-0/3", "007", "1e-3", "abc", "", "3/ 4", "2/-3", "١٢"]
)
_pairs = st.lists(_ints | _floats, min_size=2, max_size=2)
_bad = st.sampled_from([True, False, None, [1], [1, 2, 3], [True, 1], ["1", 2], {}, [[1, 2]]])
_ENTRIES = {
    "int": _ints,
    "float": _floats,
    "number": _ints | _floats,
    "strict": _strict,
    "string": _strict | _loose,
    "pair": _pairs,
    "uneven pairs": st.lists(_ints | _floats, min_size=1, max_size=3),
    "mixed": _ints | _floats | _strict | _loose | _pairs | _bad,
}


@st.composite
def matrix_rows(draw):
    if draw(st.integers(0, 40)) == 0:
        return draw(st.sampled_from([[], {}, "rows", [[]]]))
    width = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["row"] * 12 + ["ragged", "not a list"]))
        if shape == "not a list":
            rows.append(draw(st.sampled_from([None, 3, "1/2", {}, []])))
            continue
        n = draw(st.sampled_from([width - 1, width + 1])) if shape == "ragged" else width
        style = draw(st.sampled_from(sorted(_ENTRIES)))
        rows.append(draw(st.lists(_ENTRIES[style], min_size=n, max_size=n)))
    return rows


@given(matrix_rows())
@settings(max_examples=300, deadline=None)
def test_bulk_matrix_parser_matches_the_per_entry_oracle(rows):
    # Plain numbers, strict and other rational strings, [re, im] pairs, bools,
    # ragged and non-list rows, all finite: the same complex128 array bit for
    # bit (-0.0 included), or the same SchemaError path and message.
    def bulk(r):
        return parse_spec(doc({"kind": "matrix", "rows": r}, UNIT)).t.array

    got, want = _bits(bulk, rows), _bits(_per_entry_rows, json.loads(json.dumps(rows)))
    assert got == want
    if got[0] == "array":
        assert np.array_equal(bulk(rows), _per_entry_rows(rows))
