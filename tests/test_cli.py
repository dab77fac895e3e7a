"""Command-line behavior: exit codes, formats, and diagnostics."""

import json
import warnings
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sepsets import (
    Partition,
    ScoreMethod,
    ValueTable,
    score_vector,
    table_to_dict,
    validate_partition,
)
from sepsets import cli
from sepsets.cli import _table_json, main

from conftest import TOY_VALUES

TOY_CSV = "data/toy.csv"
GOLDEN = Path(__file__).parent / "golden"
TABLE_GOLDEN = {
    **{f"{command}-{name}.json": [command, str(GOLDEN / f"{name}.json")]
       for command in ("scores", "partition")
       for name in ("toy", "table-n6", "table-n8-twin", "table-n10")},
    **{f"{command}-toy.markdown": [command, str(GOLDEN / "toy.json"), "--output", "markdown"]
       for command in ("scores", "partition")},
}


@pytest.fixture
def toy_table_file(tmp_path, toy_table):
    path = tmp_path / "toy_table.json"
    path.write_text(json.dumps(table_to_dict(toy_table)))
    return path


@pytest.fixture
def additive_table_file(tmp_path):
    values = [0.0, 1.0, 2.0, 3.0]
    path = tmp_path / "additive.json"
    path.write_text(json.dumps({"n": 2, "values": values}))
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("stem", TABLE_GOLDEN)
def test_scores_and_partition_stdout_match_golden_file(capsys, stem):
    # Written by the commands as they stood before score_vectors and the
    # audit read one feature walk in the importance module. Shapley
    # figures come from a BLAS dot product, whose last bits may differ
    # under another BLAS kernel.
    assert main(TABLE_GOLDEN[stem]) == 0
    expected = (GOLDEN / f"{stem}.stdout").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_scores_json_envelope(capsys, toy_table_file):
    code, out, _ = run(capsys, ["scores", str(toy_table_file)])
    assert code == 0
    payload = json.loads(out)
    assert payload["tool"] == "sepsets"
    assert payload["command"] == "scores"
    assert len(payload["input_sha256"]) == 64
    report = payload["report"]
    assert report["n"] == 3
    assert set(report["methods"]) == {"bivariate", "ablation", "shapley", "mci"}
    assert report["methods"]["mci"]["witness_contexts"] == [0, 0, 1]


def test_scores_output_is_byte_stable_json(capsys, toy_table_file):
    code, out, _ = run(capsys, ["scores", str(toy_table_file)])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_cli_scores_match_library(capsys, toy_table_file, toy_table):
    _, out, _ = run(capsys, ["scores", str(toy_table_file)])
    report = json.loads(out)["report"]
    for method in ScoreMethod:
        expected = score_vector(method, toy_table).scores
        assert np.allclose(report["methods"][method.value]["scores"], expected)


def test_scores_from_csv(capsys):
    code, out, _ = run(capsys, ["scores", TOY_CSV, "--target", "y"])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["features"] == ["f0", "f1", "f2"]
    assert np.allclose(report["methods"]["bivariate"]["scores"], [0.5, 0.5, 1 / 3])


def test_scores_csv_requires_target(capsys):
    code, _, err = run(capsys, ["scores", TOY_CSV])
    assert code == 1
    assert "--target" in err


def test_scores_method_selection(capsys, toy_table_file):
    code, out, _ = run(capsys, ["scores", str(toy_table_file), "--method", "mci"])
    assert code == 0
    assert list(json.loads(out)["report"]["methods"]) == ["mci"]


def test_markdown_output(capsys, toy_table_file):
    code, out, _ = run(capsys, ["scores", str(toy_table_file), "--output", "markdown"])
    assert code == 0
    assert out.startswith("# sepsets scores")
    assert "| feature |" in out


def test_malformed_json_gives_coordinates(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "values": [0, 1, 2,]}')
    code, _, err = run(capsys, ["scores", str(bad)])
    assert code == 1
    assert "line 1" in err and "column" in err


def test_unrecognized_payload(capsys, tmp_path):
    mystery = tmp_path / "mystery.json"
    mystery.write_text('{"rows": 3}')
    code, _, err = run(capsys, ["scores", str(mystery)])
    assert code == 1
    assert "unrecognized" in err


def test_wrong_kind_for_command(capsys, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(
        json.dumps({"n": 1, "instances": [{"weight": 1.0, "values": [0.0, 1.0]}]})
    )
    code, _, err = run(capsys, ["scores", str(space)])
    assert code == 1
    assert "space" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["scores", str(tmp_path / "absent.json")])
    assert code == 1
    assert "error" in err


def test_audit_exit_codes(capsys, toy_table_file, additive_table_file):
    code, out, _ = run(capsys, ["audit", str(toy_table_file)])
    assert code == 0  # violations alone do not fail the run
    assert json.loads(out)["report"]["violations"]

    code, _, _ = run(capsys, ["audit", str(toy_table_file), "--fail-on-violation"])
    assert code == 3

    code, out, _ = run(capsys, ["audit", str(additive_table_file), "--fail-on-violation"])
    assert code == 0
    assert json.loads(out)["report"]["violations"] == []


def test_audit_report_structure(capsys, toy_table_file):
    _, out, _ = run(capsys, ["audit", str(toy_table_file)])
    report = json.loads(out)["report"]
    checks = {row["check"]: row for row in report["checks"]}
    assert "empty_set_value[table]" in checks
    assert not checks["elimination[table,ablation]"]["passed"]
    assert checks["elimination[table,ablation]"]["witness"]["rhs"] == pytest.approx(0.5)
    assert checks["symmetry[table,mci,z_pair]"]["passed"]


def test_audit_sample_space(capsys, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(
        json.dumps(
            {
                "n": 2,
                "instances": [
                    {"weight": 0.5, "values": [0.0, 0.0, 1.0, 2.0]},
                    {"weight": 0.5, "values": [0.0, 1.0, 1.0, 1.0]},
                ],
            }
        )
    )
    code, out, _ = run(capsys, ["audit", str(space), "--fail-on-violation"])
    assert code == 3
    report = json.loads(out)["report"]
    assert "importance_consistency[mci]" in report["violations"]
    assert "value_consistency[global]" not in report["violations"]


def test_audit_sample_space_respects_max_features(capsys, tmp_path):
    # The cap is checked before the instances are read.
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"n": 21, "instances": [{"weight": 1.0, "values": [0.0] * 4}]}))
    code, out, err = run(capsys, ["audit", str(space)])
    assert (code, out, err) == (1, "", "error: n=21 exceeds the cap of 20 features\n")


def test_audit_rejects_partition_files(capsys, tmp_path):
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"n": 2, "blocks": [[0], [1]]}))
    code, _, err = run(capsys, ["audit", str(part)])
    assert code == 1
    assert "partition" in err


def test_partition_command(capsys, toy_table_file, tmp_path):
    out_file = tmp_path / "partition.json"
    code, out, _ = run(
        capsys,
        [
            "partition",
            str(toy_table_file),
            "--with-oracle",
            "--partition-out",
            str(out_file),
        ],
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["partition"]["blocks"] == [[0, 1], [2]]
    assert report["oracle"]["agrees"] is True
    saved = json.loads(out_file.read_text())
    assert saved["blocks"] == [[0, 1], [2]]
    for entry in report["block_reports"]:
        assert entry["separable"]


def test_partition_oracle_disagreement_exits_3(capsys, toy_table_file, monkeypatch):
    # Singletons split the toy table's connected pair {0, 1}.
    def singletons(table, tol):
        partition = Partition.singletons(table.n)
        return partition, validate_partition(table, partition, tol)

    monkeypatch.setattr("sepsets.cli.maximal_partition_reports", singletons)
    code, _, err = run(capsys, ["partition", str(toy_table_file), "--with-oracle"])
    assert code == 3
    assert "error: oracle disagreement: fast ((0,), (1,), (2,)) vs exhaustive ((0, 1), (2,))" in err


def test_partition_oracle_cap(capsys, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"n": 13, "values": [0.0] * (1 << 13)}))
    code, _, err = run(capsys, ["partition", str(big), "--with-oracle"])
    assert (code, err) == (1, "error: exhaustive enumeration is capped at 12 features, got n=13\n")


def test_eval_dataset_writes_table(capsys, tmp_path):
    table_out = tmp_path / "table.json"
    code, out, _ = run(
        capsys,
        ["eval-dataset", TOY_CSV, "--target", "y", "--table-out", str(table_out)],
    )
    assert code == 0
    saved = json.loads(table_out.read_text())
    assert saved["n"] == 3
    assert np.allclose(saved["values"], TOY_VALUES, atol=1e-9)
    report = json.loads(out)["report"]
    assert report["features"] == ["f0", "f1", "f2"]
    assert report["rows"] == 3
    assert report["notes"] == []


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1 << n, max_size=1 << n
        )
    )
)
@example([-0.0, 5e-324, 1e308, -1e308])
@example([0.0, -0.0, 5e-324, -5e-324, 1e308, 2.2250738585072014e-308, 0.1, 1e16])
# The edges of the range where orjson's text is kept, on both sides.
@example([1e-4, np.nextafter(1e-4, 0), 1e16, np.nextafter(1e16, 0), 1e15, 1e-5, 5e-324, 0.0])
@example([-1e-4, -np.nextafter(1e-4, 0), -1e16, -np.nextafter(1e16, 0), -1e15, -1e-5, -0.0, 1.0])
# An n=10 table of both kinds of token, from 1e-320 to 1e300 in magnitude.
@example((np.geomspace(1e-320, 1e300, 1 << 10) * np.resize([1, -1, -1], 1 << 10)).tolist())
def test_table_json_matches_indented_json(values):
    table = ValueTable(len(values).bit_length() - 1, values)
    expected = json.dumps(table_to_dict(table), indent=2, sort_keys=True) + "\n"
    assert _table_json(table) == expected.encode()


def test_orjson_writes_repr_where_the_table_writer_keeps_its_text():
    # _table_json keeps orjson's text for zeros and for 1e-4 <= |x| < 1e16.
    # A release of orjson that writes another notation there fails here.
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64)
    magnitudes = 10 ** rng.uniform(-4, 16, 200_000) * rng.uniform(1, 1.5, 200_000)
    edges = [1e-4, np.nextafter(1e-4, 1), np.nextafter(1e16, 0), 1e15, 0.0, 1.0, 0.1, 123.0]
    values = np.concatenate([bits, magnitudes, edges])
    values = np.concatenate([values, -values])
    size = np.abs(values)
    values = values[((size >= 1e-4) & (size < 1e16)) | (values == 0)]
    assert values.size > 200_000
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    assert text[1:-1].split(b",") == [repr(x).encode() for x in values.tolist()]


def test_eval_dataset_notes_weight_normalization(capsys, tmp_path):
    csv_path = tmp_path / "weighted.csv"
    csv_path.write_text("a,y,w\n0.0,1.0,1.0\n1.0,2.0,1.0\n2.0,1.5,2.0\n")
    table_out = tmp_path / "table.json"
    code, out, _ = run(
        capsys,
        [
            "eval-dataset",
            str(csv_path),
            "--target",
            "y",
            "--weight-col",
            "w",
            "--table-out",
            str(table_out),
        ],
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["features"] == ["a"]
    assert len(report["notes"]) == 1
    assert "normalized" in report["notes"][0]


def test_csv_cell_diagnostics(capsys, tmp_path):
    csv_path = tmp_path / "broken.csv"
    csv_path.write_text("a,y\n1.0,2.0\noops,3.0\n")
    code, _, err = run(
        capsys,
        ["eval-dataset", str(csv_path), "--target", "y", "--table-out", str(tmp_path / "t.json")],
    )
    assert code == 1
    assert "row 3" in err and "'a'" in err and "oops" in err


def test_csv_missing_target_lists_columns(capsys, tmp_path):
    csv_path = tmp_path / "cols.csv"
    csv_path.write_text("a,b\n1.0,2.0\n")
    code, _, err = run(
        capsys,
        ["eval-dataset", str(csv_path), "--target", "z", "--table-out", str(tmp_path / "t.json")],
    )
    assert code == 1
    assert "'z'" in err and "a" in err


def test_csv_ragged_row(capsys, tmp_path):
    csv_path = tmp_path / "ragged.csv"
    csv_path.write_text("a,y\n1.0,2.0\n3.0\n")
    code, _, err = run(capsys, ["scores", str(csv_path), "--target", "y"])
    assert code == 1
    assert "row 3" in err


def test_csv_repeated_header_name(capsys, tmp_path):
    # Looking columns up by name would read the first "a" twice and
    # silently drop the second.
    csv_path = tmp_path / "repeated.csv"
    csv_path.write_text("a,y,a\n1.0,2.0,3.0\n4.0,5.0,7.0\n")
    code, _, err = run(
        capsys,
        ["eval-dataset", str(csv_path), "--target", "y", "--table-out", str(tmp_path / "t.json")],
    )
    assert code == 1
    assert "'a'" in err and "more than once" in err


@pytest.mark.parametrize(
    "name, content, argv, message",
    [
        ("t.csv", "a,y\n1.0,2.0\n", ["audit"],
         "audit expects a value-table or sample-space JSON file"),
        ("t.json", "{}", ["eval-dataset", "--target", "y"], "eval-dataset expects a CSV file"),
        ("t.csv", "a,y\n1.0,2.0\n", ["scores", "--target", "y", "--weight-col", "w"],
         "{path}: no column named 'w'; columns are ['a', 'y']"),
        ("t.csv", "y,w\n1.0,2.0\n", ["scores", "--target", "y", "--weight-col", "w"],
         "{path}: no feature columns remain"),
        ("t.csv", "", ["scores", "--target", "y"],
         "{path}: need a header row and at least one data row"),
        # The report file is written before stdout, so a failed write prints no report.
        ("t.json", '{"n": 1, "values": [0, 1]}', ["scores", "--out", "{path}/x.json"],
         "[Errno 20] Not a directory: '{path}/x.json'"),
    ],
    ids=[
        "audit-csv", "eval-dataset-json", "missing-weight-col", "no-features", "empty-csv",
        "bad-out",
    ],
)
def test_input_errors_exit_one_with_one_error_line(capsys, tmp_path, name, content, argv, message):
    path = tmp_path / name
    path.write_text(content)
    table_out = ["--table-out", str(tmp_path / "out.json")] if argv[0] == "eval-dataset" else []
    options = [option.format(path=path) for option in argv[1:]]
    code, out, err = run(capsys, [argv[0], str(path), *options, *table_out])
    assert (code, out, err) == (1, "", f"error: {message.format(path=path)}\n")


@pytest.mark.parametrize("command", ["scores", "eval-dataset"])
def test_weight_column_cannot_be_the_target(capsys, tmp_path, command):
    table_out = tmp_path / "t.json"
    argv = [command, TOY_CSV, "--target", "y", "--weight-col", "y"]
    if command == "eval-dataset":
        argv += ["--table-out", str(table_out)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"error: {TOY_CSV}: column 'y' cannot be both the target and the weights\n"
    assert not table_out.exists()


@pytest.mark.parametrize(
    "name, content, command, options",
    [
        ("bad.json", b'{"n": 1, "values": "\xff"}', "partition", []),
        ("bad.csv", b"a,y\n1.0,\xff\n", "eval-dataset", ["--target", "y", "--table-out", "t.json"]),
    ],
    ids=["json", "csv"],
)
def test_non_utf8_input_exits_one(capsys, tmp_path, name, content, command, options):
    path = tmp_path / name
    path.write_bytes(content)
    code, _, err = run(capsys, [command, str(path), *options])
    assert code == 1
    assert f"{path}: not UTF-8 text" in err


@pytest.mark.parametrize("rows", [1, 5000])
def test_csv_bad_byte_gives_one_error_wherever_it_sits(capsys, tmp_path, rows):
    # The header repeats a column. The file is judged not UTF-8 whether
    # its bad byte sits in the first block the decoder reads or far past it.
    path = tmp_path / "bad.csv"
    path.write_bytes(b"a,a\n" + b"1,2\n" * rows + b"\xff,3\n")
    code, out, err = run(capsys, ["scores", str(path), "--target", "a"])
    assert (code, out, err) == (1, "", f"error: {path}: not UTF-8 text\n")


@pytest.mark.parametrize("command", ["eval-dataset", "scores"])
def test_csv_obeys_the_one_table_cap(capsys, tmp_path, command):
    # CSV datasets have no cap of their own: 17 columns build, 21 exceed
    # the table cap of 20.
    table_out = tmp_path / "t.json"

    def attempt(columns, *options):
        csv_path = tmp_path / f"wide{columns}.csv"
        header = [f"f{i}" for i in range(columns)] + ["y"]
        rows = np.random.default_rng(columns).normal(size=(3, columns + 1))
        lines = [",".join(header)] + [",".join(map(repr, row.tolist())) for row in rows]
        csv_path.write_text("\n".join(lines) + "\n")
        argv = [command, str(csv_path), "--target", "y", *options]
        if command == "eval-dataset":
            argv += ["--table-out", str(table_out)]
        code, _, err = run(capsys, argv)
        written = table_out.exists()
        table_out.unlink(missing_ok=True)
        return code, err, written

    code, err, written = attempt(17)
    assert code == 0 and err == ""
    assert written == (command == "eval-dataset")
    code, err, written = attempt(21)
    assert code == 1 and not written
    assert err == "error: n=21 exceeds the cap of 20 features\n"


def _space(weight, values):
    return {"n": 1, "instances": [{"weight": weight, "values": values}]}


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": 1, "values": [0, "a"]}, "value at index 1 must be a number, got 'a'"),
        ({"n": 1, "values": [0, {"a": 1}]}, "value at index 1 must be a number"),
        ({"n": 1, "values": [0, "1.5"]}, "value at index 1 must be a number"),
        ({"n": 1, "values": [0, True]}, "value at index 1 must be a number"),
        ({"n": 1, "values": [0, 10**400]}, "every value must lie within the float range"),
        (_space("x", [0, 1]), "weight at index 0 must be a number"),
        (_space([1], [0, 1]), "weight at index 0 must be a number"),
        (_space("0.5", [0, 1]), "weight at index 0 must be a number"),
        (_space(True, [0, 1]), "weight at index 0 must be a number"),
        (_space(10**400, [0, 1]), "every weight must lie within the float range"),
        (_space(1, [0, "1"]), "value at index 1 must be a number"),
    ],
    ids=[
        "value-string",
        "value-object",
        "value-numeric-string",
        "value-bool",
        "value-huge-integer",
        "weight-string",
        "weight-list",
        "weight-numeric-string",
        "weight-bool",
        "weight-huge-integer",
        "space-value-string",
    ],
)
def test_non_numbers_in_json_exit_one(capsys, tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["audit", str(path)])
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and message in lines[0]


def test_space_value_errors_name_the_instance(capsys, tmp_path):
    path = tmp_path / "space.json"
    good = {"weight": 1, "values": [0, 1]}
    path.write_text(json.dumps({"n": 1, "instances": [good, {"weight": 1, "values": [0, "x"]}]}))
    code, _, err = run(capsys, ["audit", str(path)])
    assert code == 1
    assert err == "error: instance 1: value at index 1 must be a number, got 'x'\n"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)
_NUMBER = st.integers() | st.floats()


@st.composite
def _loader_payloads(draw):
    """A table or sample-space payload over n <= 3, valid or damaged in one place."""
    n = draw(st.integers(min_value=1, max_value=3))

    def cells():
        return draw(st.lists(_NUMBER, min_size=1 << n, max_size=1 << n))

    if draw(st.booleans()):
        payload = {"n": n, "values": cells()}
        holder = payload
    else:
        count = draw(st.integers(1, 3))
        rows = [{"weight": draw(_NUMBER), "values": cells()} for _ in range(count)]
        payload = {"n": n, "instances": rows}
        holder = draw(st.sampled_from(rows))
    damage = draw(st.sampled_from(["none", "n", "cell", "values", "weight", "instances"]))
    if damage == "n":
        payload["n"] = draw(_JSON)
    elif damage == "cell":
        holder["values"][draw(st.integers(0, (1 << n) - 1))] = draw(_JSON)
    elif damage == "values":
        holder["values"] = draw(_JSON)
    elif damage == "weight" and "weight" in holder:
        holder["weight"] = draw(_JSON)
    elif damage == "instances" and "instances" in payload:
        payload["instances"] = draw(_JSON)
    return payload


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_loader_payloads())
# Weights whose sum overflows once crashed the weight normalization.
@example({"n": 1, "instances": [{"weight": 1e308, "values": [0, 0]}] * 2})
def test_json_loaders_exit_zero_or_one_with_an_error_line(capsys, tmp_path, payload):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(payload))
    command = "scores" if "values" in payload else "audit"
    with warnings.catch_warnings():
        # A numpy warning would print lines of its own next to the error line.
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run(capsys, [command, str(path)])
    assert code in (0, 1)
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


# json reads every one of these; orjson rejects the literals and reads
# integers wider than 64 bits as floats.
_AWKWARD_NUMBERS = st.sampled_from(
    ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400]
) | (st.integers(2**64, 10**30) | st.integers(-(10**30), -(2**63) - 1)).map(str)


@st.composite
def _json_documents(draw):
    """Bytes of a loader payload or any JSON value, given at most one
    awkward number, lone surrogate, BOM or invalid UTF-8 byte."""
    payload = draw(_loader_payloads() | _JSON)
    twist = draw(st.sampled_from(["none", "number", "surrogate", "bom", "bytes"]))
    mark = "@twist@"
    if twist == "number":
        values = payload.get("values") if isinstance(payload, dict) else None
        spot = draw(st.sampled_from(["cell", "nested", "n"]))
        if spot == "n" and isinstance(payload, dict):
            payload["n"] = mark
        elif isinstance(values, list) and values:
            values[draw(st.integers(0, len(values) - 1))] = mark if spot == "cell" else [mark]
        else:
            payload = [payload, mark]
    elif twist == "surrogate" and isinstance(payload, dict):
        payload["\ud800" + draw(st.text(max_size=2))] = draw(_JSON)
    text = json.dumps(payload)
    if twist == "number":
        text = text.replace(f'"{mark}"', draw(_AWKWARD_NUMBERS))
    data = text.encode()
    if twist == "bom":
        data = b"\xef\xbb\xbf" + data
    elif twist == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


def _orjson_rejects(raw):
    raise orjson.JSONDecodeError("rejected", "", 0)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_json_documents(), st.sampled_from(["scores", "audit", "partition"]))
def test_orjson_path_reports_what_the_json_path_reports(
    capsys, tmp_path, monkeypatch, data, command
):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    fast = run(capsys, [command, str(path)])
    with monkeypatch.context() as patch:
        patch.setattr(orjson, "loads", _orjson_rejects)
        reference = run(capsys, [command, str(path)])
    assert fast == reference


def test_valid_and_over_cap_inputs_never_reach_json_loads(
    capsys, toy_table_file, tmp_path, monkeypatch
):
    space = tmp_path / "space.json"
    space.write_text(json.dumps(_space(1.0, [0.0, 1.0])))
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"n": 21, "values": [0.0] * 4}))

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    with monkeypatch.context() as patch:
        patch.setattr(json, "loads", refuse)
        results = [
            run(capsys, argv)
            for argv in [
                ["scores", str(toy_table_file)],
                ["partition", str(toy_table_file)],
                ["audit", str(toy_table_file)],
                ["audit", str(space)],
                ["scores", str(wide)],
            ]
        ]
    for code, out, err in results[:-1]:
        assert code == 0 and err == ""
        assert json.loads(out)["tool"] == "sepsets"
    assert results[-1] == (1, "", "error: n=21 exceeds the cap of 20 features\n")


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            '{"n": 100000000000000000000, "values": [0, 1]}',
            "n=100000000000000000000 exceeds the cap of 20 features",
        ),
        (
            '{"n": 1, "values": [0, [100000000000000000000]]}',
            "value at index 1 must be a number, got [100000000000000000000]",
        ),
        (
            '{"n": 1, "instances": [{"weight": 1, "values": [0, {"a": -100000000000000000000}]}]}',
            "instance 0: value at index 1 must be a number, got {'a': -100000000000000000000}",
        ),
    ],
    ids=["feature-count", "table-value", "space-value"],
)
def test_error_lines_quote_wide_integers_as_written(capsys, tmp_path, payload, message):
    # orjson reads an integer wider than 64 bits as a float.
    path = tmp_path / "wide.json"
    path.write_text(payload)
    code, out, err = run(capsys, ["audit", str(path)])
    assert (code, out, err) == (1, "", f"error: {message}\n")


# Deep enough for json to give up on every Python version, whose C
# recursion limits range from about 1000 to 10000 levels.
_DEPTH = 100_000


@pytest.mark.parametrize("command", ["scores", "audit", "partition"])
@pytest.mark.parametrize(
    "document",
    ["[" * _DEPTH + "]" * _DEPTH, '{"n": 1, "values": ' + "[" * _DEPTH + "]" * _DEPTH + "}"],
    ids=["array", "values"],
)
def test_deep_nesting_exits_one_with_an_error_line(capsys, tmp_path, command, document):
    path = tmp_path / "deep.json"
    path.write_text(document)
    code, out, err = run(capsys, [command, str(path)])
    assert (code, out, err) == (1, "", f"error: {path}: JSON nested too deeply to parse\n")


def test_many_brackets_never_reach_orjson(capsys, tmp_path, monkeypatch):
    # orjson 3.8 has no depth limit and crashes the process on an object
    # nested 70,000 deep; more than 1024 brackets go to json instead.
    seen, loads = [], orjson.loads
    monkeypatch.setattr(orjson, "loads", lambda raw: seen.append(raw) or loads(raw))
    shallow, deep = tmp_path / "shallow.json", tmp_path / "deep.json"
    instance = {"weight": 1, "values": [0, 1]}
    shallow.write_text(json.dumps({"n": 1, "instances": [instance] * 511}))
    deep.write_text(json.dumps({"n": 1, "instances": [instance] * 512}))
    assert run(capsys, ["audit", str(shallow)])[0] == 0
    assert len(seen) == 1
    assert run(capsys, ["audit", str(deep)])[0] == 0
    assert len(seen) == 1


# Finite, but its dividend at {0, 1} is -1e308 - 2e308.
_HUGE = [0, 1e308, 1e308, -1e308]
_DIVIDEND_OVERFLOW = "interaction dividends overflow the float range"


@pytest.mark.parametrize(
    "argv, values, message",
    [
        pytest.param(["scores"], _HUGE, "scores must be finite", id="scores-scores must be finite"),
        pytest.param(["audit"], _HUGE, _DIVIDEND_OVERFLOW, id="audit-dividend overflow"),
        pytest.param(["partition"], _HUGE, _DIVIDEND_OVERFLOW, id="partition-dividend overflow"),
        # Without Shapley the audit transforms nothing. Feature 0 gains
        # 2e308 over the empty context, so its MCI score overflows.
        pytest.param(
            ["audit", "--method", "mci"],
            [-1e308, 1e308, 0, 0],
            "scores must be finite",
            id="audit-mci-scores must be finite",
        ),
        # Feature 0 loses 2e308 in context {1}, yet its MCI score is 1e308:
        # only the monotonicity residual overflows.
        pytest.param(
            ["audit", "--method", "mci"],
            _HUGE,
            "monotonicity residual overflows the float range",
            id="audit-mci-residual overflow",
        ),
    ],
)
def test_overflow_gives_one_error_line_and_no_warnings(capsys, tmp_path, argv, values, message):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 2, "values": values}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
    assert [str(w.message) for w in caught] == []
    assert (code, out, err) == (1, "", f"error: {message}\n")


@st.composite
def _csv_inputs(draw):
    """CSV bytes for a dataset of 1 to 3 features, valid or damaged in one
    place, with the command and the columns it names."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 3)))] + ["y", "w"]
    rows = draw(
        st.lists(
            st.lists(st.floats(), min_size=len(names), max_size=len(names)),
            min_size=1,
            max_size=5,
        )
    )
    cells = [[repr(v) for v in row] for row in rows]
    options = ["--target", "y"]
    if draw(st.booleans()):
        options += ["--weight-col", "w"]
    damages = ["none", "ragged", "cell", "field", "repeated", "header", "blank-body", "bytes"]
    damage = draw(st.sampled_from(damages + ["target"]))
    if damage == "ragged":
        row = draw(st.sampled_from(cells))
        if draw(st.booleans()):
            row.append(draw(st.text(max_size=3)))
        else:
            row.pop()
    elif damage == "cell":
        draw(st.sampled_from(cells))[draw(st.integers(0, len(names) - 1))] = draw(
            st.text(max_size=4)
        )
    elif damage == "field":
        # Past the csv module's field limit, or NUL (a csv error before Python 3.11).
        draw(st.sampled_from(cells))[0] = draw(st.sampled_from(["1" * 131073, "1\x00"]))
    elif damage == "repeated":
        names[draw(st.integers(1, len(names) - 1))] = names[0]
    elif damage == "header":
        if draw(st.booleans()):
            names = None
        else:
            names[draw(st.integers(0, len(names) - 1))] = ""
    elif damage == "blank-body":
        cells = [[" "] * draw(st.integers(0, 2))] * draw(st.integers(0, 2))
    elif damage == "target":
        options[1] = draw(st.text(max_size=3))
    lines = ([names] if names is not None else []) + cells
    data = "".join(",".join(line) + "\n" for line in lines).encode()
    if damage == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"])) + data[at:]
    return draw(st.sampled_from(["eval-dataset", "scores"])), data, options


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_csv_inputs())
def test_csv_loader_exits_zero_or_one_with_an_error_line(capsys, tmp_path, case):
    command, data, options = case
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    argv = [command, str(path), *options]
    if command == "eval-dataset":
        argv += ["--table-out", str(tmp_path / "t.json")]
    with warnings.catch_warnings():
        # A warning would print lines of its own next to the error line.
        warnings.simplefilter("error")
        code, _, err = run(capsys, argv)
    assert code in (0, 1)
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


# Cells orjson and float() might read differently, or not at all, and a
# field one past the csv module's field limit.
_AWKWARD_CELLS = [
    "1_0",
    "\u0661\u0662",
    " 1.5 ",
    "+.5",
    "nan",
    "-Infinity",
    "1e400",
    '"1.5"',
    '"1,5"',
    '"1"2',
    ' "1"',
    "#",
    "",
    "1\xa0",
    "\x1c1",
    "\ufeff1",
    "1\x00",
    "0" * 131072 + "1",
    "-0",
    '"-0"',
    "1e-0",
    "00",
    "1.",
    "18446744073709551617",
    "true",
    '"\\u0031"',
]


@st.composite
def _csv_documents(draw):
    """CSV bytes of plain numbers, perhaps with one awkward cell or
    header name, blank rows, a BOM and any line ending, and the argv
    tail that reads it."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 3)))] + ["y"]
    plain = st.floats(-1e3, 1e3).map(repr) | st.integers(-9, 9).map(str)
    rows = draw(
        st.lists(st.lists(plain, min_size=len(names), max_size=len(names)), min_size=1, max_size=4)
    )
    options = ["--target", "y"]
    if draw(st.booleans()):
        names.append("w")
        for row in rows:
            row.append(repr(draw(st.floats(0.1, 2.0))))
        options += ["--weight-col", "w"]
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_AWKWARD_CELLS))
    if draw(st.booleans()):
        names[0] = draw(st.sampled_from(['"x0"', '"x,0"', '"x\n0"', " x0 "]))
    lines = [",".join(names)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        # '","' is no blank row: its one cell holds a comma.
        blank = draw(st.sampled_from(["", ",", " , ", "  ", ",,,,", '"",""', '","']))
        lines.insert(draw(st.integers(0, len(lines))), blank)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text.encode(), options


def _loaded(path, data, options):
    """What ``_load_csv`` returns, with each array's shape and bits, or its error."""
    weight_col = "w" if "--weight-col" in options else None
    try:
        loaded = cli._load_csv(path, data, "y", weight_col)
    except cli._UsageError as exc:
        return str(exc)
    return [(a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a for a in loaded]


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_csv_documents(), st.sampled_from(["scores", "eval-dataset"]))
# Each would pass orjson and fail the walk, or give other rows or other
# bits, without its own guard: a separator byte, a field past the limit,
# a lone CR ending the header, a BOM in the body, a quote after a blank,
# an integer -0, a JSON literal, rows of one cell under a longer header.
@example((b"x0,y\n\x1c1,2\n3,5\n", ["--target", "y"]), "eval-dataset")
@example((("x0,y\n0." + "0" * 131071 + "1,2\n3,5\n").encode(), ["--target", "y"]), "scores")
@example((b"x0,y\r1,2\n3,5\n4,4\n", ["--target", "y"]), "eval-dataset")
@example(("x0,y\n\ufeff1,2\n3,5\n".encode(), ["--target", "y"]), "scores")
@example((b'x0,y\n "1",2\n3,5\n', ["--target", "y"]), "scores")
@example((b"x0,y\n-0,2\n3,5\n", ["--target", "y"]), "eval-dataset")
@example((b"x0,y\ntrue,2\n3,5\n", ["--target", "y"]), "scores")
@example((b"x0,y\n1\n2\n", ["--target", "y"]), "scores")
def test_fast_csv_path_reports_what_the_row_walk_reports(
    capsys, tmp_path, monkeypatch, case, command
):
    data, options = case
    path, table_out = tmp_path / "doc.csv", tmp_path / "t.json"
    path.write_bytes(data)
    argv = [command, str(path), *options]
    if command == "eval-dataset":
        argv += ["--table-out", str(table_out)]

    def outcome():
        table_out.unlink(missing_ok=True)
        result = run(capsys, argv)
        written = table_out.read_bytes() if table_out.exists() else None
        return result, written, _loaded(path, data, options)

    fast = outcome()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_fast_csv", lambda raw: None)
        reference = outcome()
    assert fast == reference


@pytest.mark.parametrize("data", [b"x0,y\n", b"x0,y\n\n\n", b"\xef\xbb\xbfx0,y\r\n , \r\n"])
def test_csv_without_rows_gives_one_error_line_and_no_warnings(capsys, tmp_path, data):
    # No warning may print next to the error line.
    path = tmp_path / "empty.csv"
    path.write_bytes(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["scores", str(path), "--target", "y"])
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (1, "")
    assert err == f"error: {path}: need a header row and at least one data row\n"


@pytest.mark.parametrize(
    "layout",
    [
        "plain",
        "bom-crlf-no-final-eol",
        "quoted-blank-lines",
        "quoted-header-newline",
        "blank-cell-rows",
        "quoted-blank-cells",
    ],
)
def test_valid_csv_layouts_never_reach_the_row_walk(capsys, tmp_path, monkeypatch, layout):
    def refuse(*args):
        raise AssertionError("row walk called")

    lines = Path(TOY_CSV).read_text().split()
    text = {
        "plain": "\n".join(lines) + "\n",
        "bom-crlf-no-final-eol": "\ufeff" + "\r\n".join(lines),
        "quoted-blank-lines": "\n\n".join('"' + line.replace(",", '","') + '"' for line in lines),
        # The first column is named "f\n0": the header takes two lines.
        "quoted-header-newline": '"f\n0"' + "\r\n\r\n".join(lines).removeprefix("f0") + "\n",
        # Rows of blank cells, which the walk skips, between every two
        # rows, the second time between rows of quoted cells.
        "blank-cell-rows": "\n , , , \n".join(lines) + "\n\t,,\n",
        "quoted-blank-cells": "\r\n , \r\n".join(
            '"' + line.replace(",", '","') + '"' for line in lines
        ),
    }[layout]
    path, table_out = tmp_path / "toy.csv", tmp_path / "t.json"
    path.write_bytes(text.encode())
    monkeypatch.setattr(cli, "_walk_csv", refuse)
    code, _, err = run(capsys, ["eval-dataset", str(path), "--target", "y", "--table-out", str(table_out)])
    assert (code, err) == (0, "")
    values = json.loads(table_out.read_text())["values"]
    assert np.allclose(values, TOY_VALUES, atol=1e-9)


def test_demo_commands(capsys):
    for name in ("mci-nonlinearity", "twin-features", "collider", "toy-separable"):
        code, out, _ = run(capsys, ["demo", name])
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == f"demo {name}"
        assert payload["report"]["claims"]


def test_demo_collider_flags(capsys):
    code, out, _ = run(
        capsys, ["demo", "collider", "--p-cancer-0", "0.1", "--p-cancer-1", "0.6"]
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["inputs"]["p_cancer"] == [0.1, 0.6]


@pytest.mark.parametrize("name", ["mci-nonlinearity", "twin-features", "toy-separable"])
def test_collider_flags_are_refused_by_the_other_demos(capsys, name):
    code, out, err = run(capsys, ["demo", name, "--p-smoke", "0.4"])
    assert (code, out, err) == (1, "", "error: unrecognized arguments: --p-smoke 0.4\n")


def test_demo_markdown(capsys):
    code, out, _ = run(capsys, ["demo", "toy-separable", "--output", "markdown"])
    assert code == 0
    assert out.startswith("# sepsets demo toy-separable")


def test_out_file_matches_stdout(capsys, toy_table_file, tmp_path):
    copy = tmp_path / "report.json"
    code, out, _ = run(capsys, ["scores", str(toy_table_file), "--out", str(copy)])
    assert code == 0
    assert copy.read_text() == out


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, ["scores"])  # missing input path
    assert code == 1
    assert err
    code, _, err = run(capsys, ["partition", TOY_CSV])
    assert code == 1


def test_invalid_tolerance_rejected(capsys, toy_table_file, tmp_path):
    # The parser refuses the flag, before any input is read or written.
    table_out = tmp_path / "t.json"
    for argv in [
        ["scores", str(toy_table_file)],
        ["eval-dataset", TOY_CSV, "--target", "y", "--table-out", str(table_out)],
        ["demo", "toy-separable"],
    ]:
        code, out, err = run(capsys, [*argv, "--tol", "-1"])
        message = "error: argument --tol: tolerance must be positive and finite, got -1.0\n"
        assert (code, out, err) == (1, "", message)
    assert not table_out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["scores", "t.json"],
        ["audit", "t.json"],
        ["partition", "t.json"],
        ["eval-dataset", TOY_CSV, "--target", "y", "--table-out", "t.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_max_features_is_an_unknown_argument(capsys, argv):
    code, out, err = run(capsys, [*argv, "--max-features", "20"])
    assert (code, out) == (1, "")
    assert err == "error: unrecognized arguments: --max-features 20\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "sepsets" in capsys.readouterr().out


def test_table_cap_respected(capsys, tmp_path):
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"n": 21, "values": [0.0] * (1 << 21)}))
    code, out, err = run(capsys, ["scores", str(wide)])
    assert (code, out, err) == (1, "", "error: n=21 exceeds the cap of 20 features\n")
