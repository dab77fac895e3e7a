"""Command-line behavior: exit codes, formats, and diagnostics."""

import hashlib
import itertools
import json
import numbers
import os
import reprlib
import struct
import subprocess
import sys
import threading
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sepsets
from sepsets import (
    Partition,
    ScoreMethod,
    ValueTable,
    score_vector,
    table_to_dict,
    validate_partition,
)
from sepsets import cli, inputs
from sepsets.cli import main
from sepsets.scenarios import ColliderParams
from sepsets.inputs import table_json

import audit_oracle
from conftest import TOY_VALUES, seeded_table

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
    # audit read one feature walk in the importance module; the Shapley
    # lines were rewritten when Shapley became numpy's pairwise sum. Those
    # figures may differ in their last bits under a numpy with another
    # summation order.
    assert main(TABLE_GOLDEN[stem]) == 0
    expected = (GOLDEN / f"{stem}.stdout").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ["scores", "audit"])
def test_stdout_does_not_depend_on_the_blas_thread_count(tmp_path, command):
    # At n=16 each Shapley score sums 2^15 weighted marginals, and the
    # audit runs two transforms of 2^16 entries: no figure may depend on
    # how many threads OpenBLAS has.
    path = tmp_path / "t16.json"
    path.write_text(json.dumps(table_to_dict(seeded_table(16, 0, False))))
    src = str(Path(sepsets.__file__).parents[1])
    stdouts = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", "from sepsets.cli import console_main; console_main()",
             command, str(path)],
            env=env, capture_output=True, check=True, timeout=120,
        )
        stdouts.append(done.stdout)
    assert stdouts[0] == stdouts[1]


@pytest.mark.parametrize("module", ["sepsets", "sepsets.cli"])
def test_python_dash_m_runs_the_command(module):
    env = {**os.environ, "PYTHONPATH": str(Path(sepsets.__file__).parents[1])}

    def python_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv], env=env, capture_output=True, timeout=120
        )

    done = python_m("demo", "toy-separable")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / "demo-toy-separable.json.stdout").read_bytes()
    done = python_m("demo", "no-such-demo")
    assert (done.returncode, done.stdout) == (1, b"")
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


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


def test_audit_of_huge_weights_matches_unit_weights(capsys, tmp_path):
    # Weights may be in any finite units, even where their sum overflows.
    reports = []
    for weight in (1e308, 1):
        space = tmp_path / f"space-{weight}.json"
        instances = [
            {"weight": weight, "values": [0.0, 0.0, 1.0, 2.0]},
            {"weight": weight, "values": [0.0, 1.0, 1.0, 1.0]},
        ]
        space.write_text(json.dumps({"n": 2, "instances": instances}))
        code, out, err = run(capsys, ["audit", str(space)])
        assert (code, err) == (0, "")
        envelope = json.loads(out)
        del envelope["input_sha256"]
        reports.append(envelope)
    assert reports[0] == reports[1]


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
    assert table_out.read_bytes() == (GOLDEN / "toy.json").read_bytes()
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
    assert table_json(table) == expected.encode()


def test_orjson_writes_repr_where_the_table_writer_keeps_its_text():
    # table_json keeps orjson's text for zeros and for 1e-4 <= |x| < 1e16.
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


@pytest.mark.parametrize("failing", ["side-file", "out"])
@pytest.mark.parametrize("command", ["eval-dataset", "partition"])
def test_a_failed_write_leaves_no_output_file(capsys, tmp_path, toy_table_file, command, failing):
    # Every output file is written before stdout. When one cannot be
    # written, those already written are removed and no report prints.
    good, bad = tmp_path / "written.json", tmp_path / "missing" / "x.json"
    side, out = (bad, good) if failing == "side-file" else (good, bad)
    if command == "eval-dataset":
        argv = [command, TOY_CSV, "--target", "y", "--table-out", str(side)]
    else:
        argv = [command, str(toy_table_file), "--partition-out", str(side)]
    code, stdout, err = run(capsys, [*argv, "--out", str(out)])
    assert (code, stdout, err) == (1, "", f"error: [Errno 2] No such file or directory: '{bad}'\n")
    assert not good.exists()


@pytest.mark.parametrize(
    "command, clash",
    [
        pytest.param("eval-dataset", "out", id="eval-dataset"),
        pytest.param("partition", "out", id="partition"),
        pytest.param("partition", "out-link", id="out-is-a-hard-link-to-the-partition-file"),
        pytest.param("eval-dataset", "side-input", id="table-out-names-the-input"),
        pytest.param("partition", "side-input", id="partition-out-names-the-input"),
        pytest.param("eval-dataset", "out-input", id="out-names-the-input"),
        pytest.param("eval-dataset", "side-link", id="table-out-is-a-hard-link-to-the-input"),
    ],
)
def test_one_file_named_for_two_outputs_is_refused(
    capsys, tmp_path, toy_table_file, command, clash
):
    # Else the report would overwrite the table or partition file, or the
    # input itself. Nothing is written: every file keeps its SHA-256.
    if command == "eval-dataset":
        source = tmp_path / "toy.csv"
        source.write_bytes(Path(TOY_CSV).read_bytes())
        argv, side = [command, str(source), "--target", "y"], "--table-out"
    else:
        source, argv, side = toy_table_file, [command, str(toy_table_file)], "--partition-out"
    x, link = tmp_path / "x.json", tmp_path / "link"
    (tmp_path / "sub").mkdir()
    if clash == "out-link":
        x.write_text("{}\n")
    if clash.endswith("link"):
        os.link(x if clash == "out-link" else source, link)
    twice, input_named = "is named for more than one output file", "names the input file"
    flags, named, message = {
        "out": ([side, str(x), "--out"], tmp_path / "sub" / ".." / "x.json", twice),
        "out-link": ([side, str(x), "--out"], link, twice),
        "side-input": ([side], tmp_path / "sub" / ".." / source.name, input_named),
        "out-input": ([side, str(x), "--out"], tmp_path / "sub" / ".." / source.name, input_named),
        "side-link": ([side], link, input_named),
    }[clash]

    def digests():
        return {f: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.rglob("*.*")}

    before = digests()
    code, stdout, err = run(capsys, [*argv, *flags, str(named)])
    assert (code, stdout, err) == (1, "", f"error: {named} {message}\n")
    assert digests() == before


_UNRECOGNIZED = (
    'unrecognized input: expected keys "values" (table), "instances" (sample space), '
    'or "blocks" (partition)'
)
_SCORES_EXPECTS = "scores expects a value-table JSON file or a CSV file"
_AUDIT_EXPECTS = "audit expects a value-table or sample-space JSON file"
_PARTITION_EXPECTS = "partition expects a value-table JSON file"
_CSV_ONLY = "--target and --weight-col apply to CSV input only"
_KIND_FILES = {
    "table": ("t.json", '{"n": 1, "values": [0, 1]}'),
    "space": ("s.json", '{"n": 1, "instances": [{"weight": 1, "values": [0, 1]}]}'),
    "partition": ("p.json", '{"n": 2, "blocks": [[0], [1]]}'),
    "unrecognized": ("u.json", '{"rows": 3}'),
    "non-object": ("a.json", "[0, 1]"),
    "csv": ("d.csv", "x,y\n1,2\n2,3\n4,4\n"),
}


# None is a report with exit 0; a string is the one error line, with exit 1.
# A kind may carry options. --target y goes to scores with the CSV file
# and to eval-dataset with every file.
@pytest.mark.parametrize(
    "command, kind, error",
    [
        ("scores", "table", None),
        ("scores", "space", f"{_SCORES_EXPECTS}, got a space file"),
        ("scores", "partition", f"{_SCORES_EXPECTS}, got a partition file"),
        ("scores", "unrecognized", _UNRECOGNIZED),
        ("scores", "non-object", "input JSON must be an object"),
        ("scores", "csv", None),
        ("audit", "table", None),
        ("audit", "space", None),
        ("audit", "partition", f"{_AUDIT_EXPECTS}, got a partition file"),
        ("audit", "unrecognized", _UNRECOGNIZED),
        ("audit", "non-object", "input JSON must be an object"),
        ("audit", "csv", _AUDIT_EXPECTS),
        ("partition", "table", None),
        ("partition", "space", f"{_PARTITION_EXPECTS}, got a space file"),
        ("partition", "partition", f"{_PARTITION_EXPECTS}, got a partition file"),
        ("partition", "unrecognized", _UNRECOGNIZED),
        ("partition", "non-object", "input JSON must be an object"),
        ("partition", "csv", _PARTITION_EXPECTS),
        ("eval-dataset", "table", "eval-dataset expects a CSV file"),
        ("eval-dataset", "space", "eval-dataset expects a CSV file"),
        ("eval-dataset", "partition", "eval-dataset expects a CSV file"),
        ("eval-dataset", "unrecognized", "eval-dataset expects a CSV file"),
        ("eval-dataset", "non-object", "eval-dataset expects a CSV file"),
        ("eval-dataset", "csv", None),
        ("scores", "table --target y", _CSV_ONLY),
        ("scores", "table --weight-col w", _CSV_ONLY),
    ],
)
def test_each_command_takes_its_kinds_of_input(capsys, tmp_path, command, kind, error):
    kind, *options = kind.split()
    name, content = _KIND_FILES[kind]
    path = tmp_path / name
    path.write_text(content)
    argv = [command, str(path), *options]
    if command == "eval-dataset" or (command, kind) == ("scores", "csv"):
        argv += ["--target", "y"]
    if command == "eval-dataset":
        argv += ["--table-out", str(tmp_path / "out.json")]
    code, out, err = run(capsys, argv)
    if error is None:
        assert (code, err) == (0, "")
        assert json.loads(out)["command"] == command
    else:
        assert (code, out, err) == (1, "", f"error: {error}\n")


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


def _depth(raw):
    """The deepest nesting of lists and objects in the JSON bytes ``raw``,
    strings and their escapes stepped over, as a parser meets it."""
    depth = deepest = 0
    in_string = escaped = False
    for byte in raw:
        if in_string:
            if escaped:
                escaped = False
            elif byte == 0x5C:
                escaped = True
            elif byte == 0x22:
                in_string = False
        elif byte == 0x22:
            in_string = True
        elif byte in b"[{":
            depth += 1
            deepest = max(deepest, depth)
        elif byte in b"]}":
            depth -= 1
    return deepest


def _nested(depth, opener):
    """A value nested ``depth`` deep in lists ("[") or objects ("{")."""
    if opener == "[":
        return "[" * depth + "1" + "]" * depth
    return '{"a":' * depth + "1" + "}" * depth


@pytest.mark.parametrize("opener", ["[", "{"], ids=["lists", "objects"])
def test_documents_nested_past_1024_never_reach_orjson(capsys, tmp_path, monkeypatch, opener):
    # orjson 3.8 has no depth limit and crashes the process on an object
    # nested 70,000 deep. No text handed to it may nest past 1024, whatever
    # the count of brackets: a document at 1024 reaches it, one at 1025 goes
    # to json, and spaces of 512 and 4000 instances reach it.
    seen, loads = [], orjson.loads
    monkeypatch.setattr(orjson, "loads", lambda raw: seen.append(bytes(raw)) or loads(raw))
    path = tmp_path / "doc.json"
    for depth in (1024, 1025):
        # The object around "x" is one level.
        text = '{"n": 1, "values": [0, 1], "x": %s}' % _nested(depth - 1, opener)
        path.write_text(text)
        seen.clear()
        code, _, err = run(capsys, ["scores", str(path)])
        depths = [_depth(raw) for raw in seen]
        assert max(depths, default=0) == 1024 if depth == 1024 else max(depths, default=0) < 1024
        assert code == 0 if depth == 1024 else err.endswith("JSON nested too deeply to parse\n")
    instance = {"weight": 1, "values": [0, 1]}
    for count in (512, 4000):
        path.write_text(json.dumps({"n": 1, "instances": [instance] * count}))
        seen.clear()
        assert run(capsys, ["audit", str(path)])[0] == 0
        assert seen and all(_depth(raw) <= 1024 for raw in seen)


def test_brackets_in_a_string_do_not_count_toward_the_depth(capsys, tmp_path, monkeypatch):
    path = tmp_path / "noted.json"
    path.write_text(json.dumps({"n": 1, "values": [0, 1], "note": "[" * _DEPTH}))

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(json, "loads", refuse)
    code, out, err = run(capsys, ["scores", str(path)])
    assert (code, err) == (0, "")
    assert orjson.loads(out)["tool"] == "sepsets"


# A value table in each layout the block reader must read: json.dumps,
# table_json's indent=2, "values" before "n" with no blanks, a "t" and an
# "f" in a string of the shell, before or after the list, where the reader
# does not search for them, and a lone "[" or "]" in such a string.
_LAYOUTS = {
    "compact": lambda n, cells: '{"n": %d, "values": [%s]}' % (n, ", ".join(cells)),
    "indented": lambda n, cells: (
        '{\n  "n": %d,\n  "values": [\n    %s\n  ]\n}\n' % (n, ",\n    ".join(cells))
    ),
    "values-first": lambda n, cells: '{"values": [%s],"n":%d}' % (",".join(cells), n),
    "noted-before": lambda n, cells: (
        '{"note": "true false", "n": %d, "values": [%s]}' % (n, ", ".join(cells))
    ),
    "noted-after": lambda n, cells: (
        '{"n": %d, "values": [%s], "note": "true false"}' % (n, ", ".join(cells))
    ),
    "open-bracket-before": lambda n, cells: (
        '{"note": "[", "n": %d, "values": [%s]}' % (n, ", ".join(cells))
    ),
    "close-bracket-before": lambda n, cells: (
        '{"note": "]", "n": %d, "values": [%s]}' % (n, ", ".join(cells))
    ),
    "open-bracket-after": lambda n, cells: (
        '{"n": %d, "values": [%s], "note": "["}' % (n, ", ".join(cells))
    ),
    "close-bracket-after": lambda n, cells: (
        '{"n": %d, "values": [%s], "note": "]"}' % (n, ", ".join(cells))
    ),
}

# An integer -0, integers, values at the ends of the float range, and
# integers wider than 64 bits, which orjson reads as floats.
_EDGE_CELLS = [
    "-0", "0", "-0.0", "17", "-9007199254740993", "18446744073709551615",
    "18446744073709551616", "-123456789012345678901234567890", "5e-324",
    "-2.2250738585072014e-308", "1.7976931348623157e308", "-1.7976931348623157E+308",
    "1e-5", "0.1", "1E5", "1e+0",
]


def _table_read(raw):
    """What ``_read_json`` reads from ``raw`` as a table: n and the
    values' bits, or the error's type and text."""
    try:
        table = inputs._read_json(Path("doc.json"), raw, ("table",), "scores expects a table")
    except sepsets.SepsetsError as exc:
        return type(exc), str(exc)
    assert not table.values.flags.writeable
    return table.n, table.values.tobytes()


def _whole_read(raw, monkeypatch):
    """``_table_read`` with the block reader declining every document."""
    with monkeypatch.context() as patch:
        patch.setattr(inputs, "_block_read", lambda raw, accepts: None)
        return _table_read(raw)


@pytest.mark.parametrize("block_values", [1, 3, 1 << 14])
@pytest.mark.parametrize("layout", _LAYOUTS)
def test_block_reader_reads_the_bits_of_the_whole_parse(monkeypatch, layout, block_values):
    monkeypatch.setattr(inputs, "_MIN_LIST_BYTES", 0)
    monkeypatch.setattr(inputs, "_BLOCK_VALUES", block_values)
    raw = _LAYOUTS[layout](4, _EDGE_CELLS).encode()
    assert inputs._block_read(raw, ("table",)) is not None
    assert _table_read(raw) == _whole_read(raw, monkeypatch)


def _last_cell(cell):
    return _LAYOUTS["compact"](2, ["0", "0", "0", cell])


_DECLINED = {
    **{
        name: _last_cell(cell)
        for name, cell in [
            ("plus", "+1"), ("leading-dot", ".5"), ("trailing-dot", "1."),
            ("leading-zero", "01"), ("bare-exponent", "1e"), ("nan", "NaN"),
            ("past-the-range", "1e400"), ("wide-past-the-range", "1" + "0" * 400),
            ("string", '"1"'), ("true", "true"), ("null", "null"), ("object", '{"x": 1}'),
            ("string-with-a-comma", '"1,2"'),
        ]
    },
    "double-comma": '{"n": 2, "values": [0, 0,, 0, 0]}',
    "trailing-comma": '{"n": 2, "values": [0, 0, 0, 0,]}',
    "leading-comma": '{"n": 2, "values": [, 0, 0, 0, 0]}',
    "bom": "\ufeff" + _last_cell("0"),
    "nested-array": '{"n": 2, "values": [0, 0, [0], 0]}',
    "second-array": '{"n": 2, "values": [0, 0, 0, 0], "blocks": [0]}',
    "list-under-another-key": '{"n": 2, "values": 5, "x": [0, 0, 0, 0]}',
    # Past _ORJSON_MAX_OPENERS, so json must read it.
    "many-braces": '{"n": 2, "values": [0, 0, 0, 0], "x": %s1%s}' % ('{"a":' * 1100, "}" * 1100),
    "values-key-twice": '{"values": 7, "n": 2, "values": [0, 0, 0, 0]}',
    "values-key-twice-list-first": '{"n": 2, "values": [0, 0, 0, 0], "values": 7}',
    # 2^n values in two lists, each under a "values" key.
    "values-split-in-two-lists": '{"n": 2, "values": [0, 0], "x": {"values": [0, 0]}}',
    "too-few": _LAYOUTS["compact"](2, ["0"] * 3),
    "too-many": _LAYOUTS["compact"](2, ["0"] * 5),
    "float-n": '{"n": 2.0, "values": [0, 0, 0, 0]}',
    "over-cap": '{"n": 21, "values": [0, 0, 0, 0]}',
    "bare-list": "[0, 0, 0, 0]",
    # A list in a string of the shell, a "]" before the "[", a second
    # list, "values" not holding the list, and a boolean, which would pack
    # as a float, in the first, a middle or the last block.
    "list-in-a-string": '{"note": "[0]", "n": 2, "values": [0, 0, 0, 0]}',
    "close-before-open": '{"n": 2, "note": "]", "values": "[0, 0, 0, 0"}',
    "second-array-before": '{"blocks": [0], "n": 2, "values": [0, 0, 0, 0]}',
    "list-inside-values": '{"n": 2, "values": {"x": [0, 0, 0, 0]}}',
    "true-in-the-first-block": _LAYOUTS["compact"](4, ["true"] + ["0"] * 15),
    "false-in-a-middle-block": _LAYOUTS["compact"](4, ["0"] * 7 + ["false"] + ["0"] * 8),
    "false-in-the-last-block": _LAYOUTS["compact"](4, ["0"] * 15 + ["false"]),
}


@pytest.mark.parametrize("block_values", [1, 1 << 14])
@pytest.mark.parametrize("name", _DECLINED)
def test_block_reader_declines_what_it_might_read_otherwise(monkeypatch, name, block_values):
    # Its lists are short: at the default _MIN_LIST_BYTES, each is declined unread.
    monkeypatch.setattr(inputs, "_MIN_LIST_BYTES", 0)
    monkeypatch.setattr(inputs, "_BLOCK_VALUES", block_values)
    raw = _DECLINED[name].encode()
    assert inputs._block_read(raw, ("table", "space")) is None
    assert _table_read(raw) == _whole_read(raw, monkeypatch)


# Integer and float zeros of both signs, an odd integer past 2^53, the
# largest unsigned 64-bit integer and the ends of the float range.
_PACKED_CELLS = [
    "0", "-0", "0.0", "-0.0", str(2**53 + 1), str(2**64 - 1), "5e-324",
    "1.7976931348623157e308", "-1.7976931348623157e308",
]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.sampled_from(_PACKED_CELLS)
            | st.floats(allow_nan=False, allow_infinity=False).map(repr)
            | st.integers(-(2**200), 2**200).map(str),
            min_size=1 << n,
            max_size=1 << n,
        )
    )
)
def test_packed_values_hold_the_bits_numpy_converts_to(cells):
    n = len(cells).bit_length() - 1
    raw = _LAYOUTS["compact"](n, cells).encode()
    items = json.loads(raw)["values"]
    want = np.asarray(items, np.float64).tobytes()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inputs, "_MIN_LIST_BYTES", 0)
        assert inputs._block_read(raw, ("table",)).values.tobytes() == want
    assert sepsets.table_from_dict({"n": n, "values": items}).values.tobytes() == want
    space = sepsets.space_from_dict({"n": n, "instances": [{"weight": 1, "values": items}]})
    assert space.values[0].tobytes() == want
    # Many instances, each packed in place into its row of the stack.
    rows = [items[k:] + items[:k] for k in range(5)]
    payload = {"n": n, "instances": [{"weight": k, "values": r} for k, r in enumerate(rows)]}
    space = sepsets.space_from_dict(payload)
    assert space.values.tobytes() == np.asarray(rows, np.float64).tobytes()


@pytest.mark.parametrize("n", [15, 16])
def test_block_edges_next_to_the_table_file_line_breaks(monkeypatch, n):
    # 2^14 values a block: one block ends at a comma and a line break.
    rng = np.random.default_rng(n)
    values = rng.normal(size=1 << n) * np.geomspace(1e-6, 1e20, 1 << n)
    raw = table_json(ValueTable(n, values))
    table = inputs._block_read(raw, ("table",))
    assert table is not None and table.values.tobytes() == values.tobytes()
    assert _table_read(raw) == _whole_read(raw, monkeypatch)


# Cells that are not numbers, spliced into random bodies: the block
# reader must decline each, whichever block it falls in.
_NOT_NUMBERS = ["null", '{"x": 1}', '"1,2"', "true", "false"]


def _a_packable_number(cell):
    if cell in _NOT_NUMBERS:
        return False
    try:
        float(int(cell))
    except ValueError:  # a float's repr
        return True
    except OverflowError:
        return False
    return True


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.floats(allow_nan=False, allow_infinity=False).map(repr)
            | st.integers().map(str)
            | st.integers(2**64, 2**1100).map(lambda k: f"-{k}")
            | st.just("-0")
            | st.sampled_from(_NOT_NUMBERS),
            min_size=1 << n,
            max_size=1 << n,
        )
    ),
    st.sampled_from(list(_LAYOUTS)),
    st.sampled_from([1, 2, 3, 1 << 14]),
)
def test_block_reader_matches_the_whole_parse_on_random_tables(
    monkeypatch, cells, layout, block_values
):
    raw = _LAYOUTS[layout](len(cells).bit_length() - 1, cells).encode()
    with monkeypatch.context() as patch:
        patch.setattr(inputs, "_MIN_LIST_BYTES", 0)
        patch.setattr(inputs, "_BLOCK_VALUES", block_values)
        fast = _table_read(raw)
        read = inputs._block_read(raw, ("table",)) is not None
    assert fast == _whole_read(raw, monkeypatch)
    # Only a cell that is not a number, or an integer past the float
    # range, sends a table on.
    assert read == all(map(_a_packable_number, cells))


def test_reading_a_table_holds_under_two_tables_beyond_the_file(tmp_path):
    n = 18
    path = tmp_path / "t18.json"
    values = np.random.default_rng(0).normal(size=1 << n)
    path.write_text(json.dumps({"n": n, "values": values.tolist()}))
    tracemalloc.start()
    try:
        loaded = inputs.read_input(path, "scores", ("table",)).loaded
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.values.tobytes() == values.tobytes()
    assert peak - path.stat().st_size < 2 * (8 << n)


def test_a_table_from_its_dict_form_is_packed_into_its_own_array():
    n = 18
    payload = {"n": n, "values": np.random.default_rng(0).normal(size=1 << n).tolist()}
    tracemalloc.start()
    try:
        table = sepsets.table_from_dict(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.values.tobytes() == np.asarray(payload["values"]).tobytes()
    # One table and a block of packing arguments; a second copy would be 2x.
    assert peak < 1.25 * (8 << n)


def _parent_json_reals(items, what, out):
    """``inputs._json_reals`` as it was with a type scan before the packing:
    the reference for the error it raises."""

    def real(kind):
        return issubclass(kind, numbers.Real) and not issubclass(kind, bool)

    if not all(map(real, set(map(type, items)))):
        at = next(i for i, x in enumerate(items) if not real(type(x)))
        raise sepsets.TableError(
            f"{what} at index {at} must be a number, got {reprlib.repr(items[at])}"
        )
    try:
        for at in range(0, len(items), inputs._BLOCK_VALUES):
            run = items[at : at + inputs._BLOCK_VALUES]
            struct.pack_into(f"{len(run)}d", out, 8 * at, *run)
    except struct.error:
        raise sepsets.TableError(f"every {what} must lie within the float range") from None
    return out


# Each item orjson or json can give that is not a float64: a string, a
# null, a list, an object, the booleans and an integer past the float range.
_NOT_REALS = ["x", None, [1], {"a": 1}, True, False, 10**400]


def _reals_outcome(reals, items):
    try:
        return reals(items, "value", np.empty(len(items))).tobytes()
    except sepsets.TableError as exc:
        return str(exc)


@pytest.mark.parametrize("size", [1, 1 << 14, (1 << 14) + 1])
def test_json_reals_names_the_offender_the_type_scan_named(size):
    # Zeros and ones among the numbers, where a boolean would pack alike.
    base = [0.0, 1, 2.5, 1.0, 0, -0.0, 7] * (size // 7 + 1)
    spots = sorted({0, size // 2, size - 1})
    cases = [[(at, bad)] for at in spots for bad in _NOT_REALS]
    cases += [
        [(first, one), (second, other)]
        for first, second in itertools.combinations(spots, 2)
        for one in _NOT_REALS
        for other in _NOT_REALS
    ]
    for case in [[]] + cases:
        items = base[:size]
        for at, bad in case:
            items[at] = bad
        want = _reals_outcome(_parent_json_reals, items)
        assert _reals_outcome(inputs._json_reals, items) == want, case


_AUDIT = ("table", "space")


def _space_read(path):
    """What ``read_input`` reads from the file at ``path`` for audit: n and
    the bits of the weights and values, or the error's type and text."""
    try:
        space = inputs.read_input(path, "audit", _AUDIT).loaded
    except sepsets.SepsetsError as exc:
        return type(exc), str(exc)
    return space.n, space.weights.tobytes(), space.values.tobytes()


def _whole_space_read(path, monkeypatch):
    """``_space_read`` with the space reader declining every document."""
    with monkeypatch.context() as patch:
        patch.setattr(inputs, "_block_read", lambda raw, accepts: None)
        return _space_read(path)


# A sample space in each layout the space reader must read: json.dumps,
# indent=2, "values" before "weight" with no blanks, and a note holding a
# "[", a "t", an "f" and an escaped quote in a string of the shell.
_SPACE_LAYOUTS = {
    "compact": lambda n, rows: json.dumps({"n": n, "instances": rows}),
    "indented": lambda n, rows: json.dumps({"n": n, "instances": rows}, indent=2),
    "values-first": lambda n, rows: json.dumps(
        {"n": n, "instances": [{"values": r["values"], "weight": r["weight"]} for r in rows]},
        separators=(",", ":"),
    ),
    "noted": lambda n, rows: json.dumps({"note": '[tf"', "n": n, "instances": rows}),
}

# Integer and float zeros, integers past 2^53 and 2^64, and the ends of the
# float range, among random values.
_SPACE_EDGES = [0, -0.0, 1, 2**53 + 1, 2**64 + 1, -(2**70), 5e-324, 1.7976931348623157e308]


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    # At most 2^15 values: at 1 value a call a space is 2^15 orjson calls.
    st.integers(1, 14).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, min(40, 1 << 15 - n)))
    ),
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(_SPACE_LAYOUTS)),
    st.sampled_from([1, 3, 1 << 14]),
)
def test_space_reader_reads_the_bits_of_the_whole_parse(
    tmp_path, monkeypatch, shape, seed, layout, block_values
):
    n, k = shape
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(k, 1 << n)) * 10.0 ** rng.integers(-300, 300, size=(k, 1 << n))
    cells = values.tolist()
    for _ in range(rng.integers(0, 8)):
        cells[rng.integers(k)][rng.integers(1 << n)] = _SPACE_EDGES[rng.integers(len(_SPACE_EDGES))]
    weights = rng.uniform(0, 10, size=k).tolist()
    weights[0] = int(rng.integers(1, 5))
    rows = [{"weight": w, "values": c} for w, c in zip(weights, cells)]
    path = tmp_path / "space.json"
    path.write_text(_SPACE_LAYOUTS[layout](n, rows))
    with monkeypatch.context() as patch:
        patch.setattr(inputs, "_MIN_LIST_BYTES", 0)
        patch.setattr(inputs, "_BLOCK_VALUES", block_values)
        assert inputs._block_read(path.read_bytes(), _AUDIT) is not None
        fast = _space_read(path)
    assert fast == _whole_space_read(path, monkeypatch)


def _space_text(*rows, n=1, head=""):
    return '{%s"n": %d, "instances": [%s]}' % (head, n, ", ".join(rows))


_ROW = '{"weight": 1, "values": [0, 1]}'

# Each the space reader must leave to the whole parse, with the cause in a
# middle instance where there are several.
_SPACE_DECLINED = {
    **{
        name: _space_text(_ROW, '{"weight": 1, "values": [0, %s]}' % cell, _ROW)
        for name, cell in [
            ("true", "true"), ("plus", "+1"), ("nan", "NaN"), ("past-the-range", "1e400"),
            ("string", '"1"'), ("nested-list", "[1]"), ("null", "null"), ("object", '{"x": 1}'),
        ]
    },
    "short-instance": _space_text(_ROW, '{"weight": 1, "values": [0]}', _ROW),
    "long-instance": _space_text(_ROW, '{"weight": 1, "values": [0, 1, 2]}', _ROW),
    "missing-weight": _space_text(_ROW, '{"values": [0, 1]}', _ROW),
    "weight-list": _space_text(_ROW, '{"weight": [1], "values": [0, 1]}', _ROW),
    "weight-string": _space_text(_ROW, '{"weight": "1", "values": [0, 1]}', _ROW),
    "negative-weight": _space_text(_ROW, '{"weight": -1, "values": [0, 1]}', _ROW),
    "values-key-twice": _space_text(_ROW, '{"weight": 1, "values": 7, "values": [0, 1]}'),
    "values-key-twice-list-first": _space_text(
        _ROW, '{"weight": 1, "values": [0, 1], "values": 7}'
    ),
    "top-level-values": _space_text(_ROW, head='"values": 5, '),
    "empty-instances": _space_text(),
    "bom": "\ufeff" + _space_text(_ROW),
    "trailing-comma": _space_text(_ROW, _ROW + ","),
    "over-cap": _space_text(_ROW, n=21),
    "list-in-a-string": _space_text(_ROW, head='"note": "[0, 1]", '),
    "second-list": _space_text(_ROW, head='"x": [0, 1], '),
    # A list under another key, with as many lists as "values" keys.
    "values-not-a-list": _space_text(_ROW, '{"weight": 1, "values": 7, "x": [0, 1]}'),
    # Two lists of one value, as many values as one instance holds.
    "fewer-instances-than-lists": _space_text(
        '{"weight": 1, "values": [1]}', head='"values": 5, "x": [0], '
    ),
    "deep-objects": _space_text(_ROW, head='"x": %s, ' % _nested(1100, "{")),
    # 2^n values a list on average: only where each list ends tells them
    # from a space, wherever the calls start and end.
    **{
        f"lists-of-{'-'.join(map(str, lengths))}": _space_text(
            *['{"weight": 1, "values": [%s]}' % ",".join(["1.25"] * m) for m in lengths], n=n
        )
        for n, lengths in [(2, (6, 2)), (3, (8, 10, 6))]
    },
}


@pytest.mark.parametrize("block_values", [1, 1 << 14])
@pytest.mark.parametrize("name", _SPACE_DECLINED)
def test_space_reader_declines_what_it_might_read_otherwise(
    tmp_path, monkeypatch, name, block_values
):
    path = tmp_path / "space.json"
    path.write_text(_SPACE_DECLINED[name], encoding="utf-8")
    with monkeypatch.context() as patch:
        patch.setattr(inputs, "_MIN_LIST_BYTES", 0)
        patch.setattr(inputs, "_BLOCK_VALUES", block_values)
        assert inputs._block_read(path.read_bytes(), _AUDIT) is None
        fast = _space_read(path)
    assert fast == _whole_space_read(path, monkeypatch)


def test_space_reader_leaves_short_instances_to_the_whole_parse(tmp_path, monkeypatch):
    # Lists under _MIN_LIST_BYTES read faster in the whole parse.
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"n": 3, "instances": [{"weight": 1, "values": [0.5] * 8}] * 3}))
    assert inputs._block_read(path.read_bytes(), _AUDIT) is None
    monkeypatch.setattr(inputs, "_MIN_LIST_BYTES", 0)
    assert inputs._block_read(path.read_bytes(), _AUDIT) is not None
    assert _space_read(path) == _whole_space_read(path, monkeypatch)


def test_reading_a_space_holds_under_one_and_a_half_stacks_beyond_the_file(tmp_path):
    n, k = 14, 64
    path = tmp_path / "s14.json"
    values = np.random.default_rng(0).normal(size=(k, 1 << n))
    rows = [{"weight": 1, "values": row} for row in values.tolist()]
    path.write_text(json.dumps({"n": n, "instances": rows}))
    del rows
    tracemalloc.start()
    try:
        loaded = inputs.read_input(path, "audit", ("table", "space")).loaded
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.values.tobytes() == values.tobytes()
    # The whole parse holds every value as a Python float in its instance's list.
    assert peak - path.stat().st_size < 1.5 * values.nbytes


def _cells(n):
    return [repr(v) for v in np.random.default_rng(n).normal(size=1 << n).tolist()]


# Lists the block reader reads apart: an n=12 table, and 3 instances at n=9.
_TABLE12 = _LAYOUTS["compact"](12, _cells(12))
_SPACE9 = json.dumps(
    {
        "n": 9,
        "instances": [
            {"weight": 1, "values": row}
            for row in np.random.default_rng(9).normal(size=(3, 512)).tolist()
        ],
    }
)

# Files with "@" where a byte that is not UTF-8 goes, and the commands that
# read them: in the shell and in the body of a table the block reader would
# read, in a table under _MIN_LIST_BYTES, which it declines unread, and in
# an instance's list of a space it would read.
_BAD_BYTE_FILES = {
    "table-shell": (["scores", "audit"], _TABLE12.replace("{", '{"note": "@", ', 1)),
    "table-body": (["scores", "audit"], _TABLE12.replace("[", "[@", 1)),
    "small-table": (["scores", "audit"], '{"n": 2, "values": [0, @1, 2, 3]}'),
    "space-list": (["audit", "partition"], _SPACE9.replace('"values": [', '"values": [@', 1)),
}


@pytest.mark.parametrize("bad", [b"\xff", b"\xed\xa0\x80"], ids=["ff", "lone-surrogate"])
@pytest.mark.parametrize("place", _BAD_BYTE_FILES)
def test_a_file_not_utf8_gives_one_error_line_wherever_the_byte_sits(capsys, tmp_path, place, bad):
    commands, text = _BAD_BYTE_FILES[place]
    assert (inputs._block_read(text.replace("@", "").encode(), _AUDIT) is None) == (
        place == "small-table"
    )
    path = tmp_path / "bad.json"
    path.write_bytes(text.encode().replace(b"@", bad))
    for command in commands:
        assert run(capsys, [command, str(path)]) == (1, "", f"error: {path}: not UTF-8 text\n")


def test_a_bom_led_table_gives_the_json_error_line(capsys, tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + _TABLE12.encode())
    message = "JSON parse error at line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"
    assert run(capsys, ["scores", str(path)]) == (1, "", f"error: {path}: {message}\n")


def test_a_note_of_non_ascii_text_is_read_by_the_block_reader(capsys, tmp_path, monkeypatch):
    path = tmp_path / "noted.json"
    path.write_text(_TABLE12.replace("{", '{"note": "caf\u00e9 \u2211 \U0001f600", ', 1))
    assert inputs._block_read(path.read_bytes(), ("table",)) is not None
    fast = run(capsys, ["scores", str(path)])
    with monkeypatch.context() as patch:
        patch.setattr(inputs, "_block_read", lambda raw, accepts: None)
        assert run(capsys, ["scores", str(path)]) == fast
    assert fast[0] == 0


def test_an_escape_in_a_document_past_1024_openers_skips_the_depth_scan(capsys, tmp_path):
    # 2000 instances open 4000 brackets and braces; with a backslash in the
    # shell no quote count is trusted, so json reads the file, as orjson
    # reads the one without.
    rows = ", ".join(['{"weight": 1, "values": [0, 1]}'] * 2000)
    reports = []
    for note in ("a\\nb", "anb"):
        path = tmp_path / "many.json"
        path.write_text('{"note": "%s", "n": 1, "instances": [%s]}' % (note, rows))
        assert inputs._shallow(path.read_bytes()) == (note == "anb")
        code, out, err = run(capsys, ["audit", str(path)])
        assert (code, err) == (0, "")
        reports.append({**json.loads(out), "input_sha256": None})
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    ("text", "message"),
    [
        # Too few bytes for 2^20 values: declined before a value is read.
        (
            '{"n": 20, "values": [%s]}' % ", ".join(_cells(9)[:300]),
            "expected 1048576 values for n=20, got shape (300,)",
        ),
        # A "values" key in a string of the shell, and an instance that is a list.
        (
            '{"n": 8, "instances": [[%s]], "x": "values"}' % ", ".join(_cells(8)),
            'instance 0 needs keys "weight" and "values"',
        ),
    ],
    ids=["too-short-for-n", "instance-not-an-object"],
)
def test_a_declined_block_read_gives_the_whole_parse_error_line(capsys, tmp_path, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert inputs._block_read(path.read_bytes(), _AUDIT) is None
    assert run(capsys, ["audit", str(path)]) == (1, "", f"error: {message}\n")


# A document of each kind, and documents with both a top-level "values"
# and "instances", which are tables.
_CROSS_KIND = {
    "space": _SPACE9,
    "table": _LAYOUTS["compact"](9, _cells(9)),
    "values-and-instances": _SPACE9[:-1] + ', "values": [%s]}' % ", ".join(_cells(9)),
    "values-number-and-instances": _SPACE9[:-1] + ', "values": 5}',
    "values-empty-and-instances": _SPACE9[:-1] + ', "values": []}',
}


@pytest.mark.parametrize("min_list_bytes", [inputs._MIN_LIST_BYTES, 0])
@pytest.mark.parametrize("name", _CROSS_KIND)
def test_each_kind_reads_as_the_whole_parse_reads_it(
    capsys, tmp_path, monkeypatch, name, min_list_bytes
):
    path = tmp_path / "doc.json"
    path.write_text(_CROSS_KIND[name])
    monkeypatch.setattr(inputs, "_MIN_LIST_BYTES", min_list_bytes)
    commands = ["scores", "audit", "partition"]
    fast = [run(capsys, [command, str(path)]) for command in commands]
    with monkeypatch.context() as patch:
        patch.setattr(inputs, "_block_read", lambda raw, accepts: None)
        assert [run(capsys, [command, str(path)]) for command in commands] == fast
    scores, audit, partition = fast
    if name == "space":
        assert scores == (1, "", f"error: {_SCORES_EXPECTS}, got a space file\n")
        assert partition == (1, "", f"error: {_PARTITION_EXPECTS}, got a space file\n")
    elif audit[0] == 0:
        assert isinstance(inputs.read_input(path, "audit", _AUDIT).loaded, ValueTable)
    if name == "values-number-and-instances":
        assert audit[2] == 'error: "values" must be a list of reals in mask order\n'


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
        # The dividends are finite, but feature 0's ablation and Shapley
        # scores overflow, as do the monotonicity and both elimination
        # residuals: the scores are checked before any row is built.
        pytest.param(
            ["audit"],
            [0, -1e308, 1.7e308, -9e307],
            "scores must be finite",
            id="audit-scores must be finite",
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


def test_audit_reports_the_first_overflowing_row_in_row_order(capsys, tmp_path):
    # Every score is finite, and the minimalism row of ablation comes
    # before the elimination rows, whose residuals overflow too.
    path = tmp_path / "huge.json"
    values = [0.0, 1.7e308, -5e307, 1.0, 9e307, 1e308, 5e307, -5e307]
    path.write_text(json.dumps({"n": 3, "values": values}))
    code, out, err = run(capsys, ["audit", str(path)])
    assert (code, out, err) == (1, "", "error: minimalism residual overflows the float range\n")


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
    """What ``_load_csv`` returns, with each array's shape and bits and
    the weight sum's bits, or its error."""
    weight_col = "w" if "--weight-col" in options else None
    try:
        *arrays, features, raw_sum = inputs._load_csv(path, data, "y", weight_col)
    except inputs._UsageError as exc:
        return str(exc)
    # A NaN sum (from a NaN weight) is unequal to itself; its hex is not.
    return [(a.shape, a.tobytes()) if a is not None else a for a in arrays] + [
        features,
        raw_sum.hex(),
    ]


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
        patch.setattr(inputs, "_fast_csv", lambda raw: None)
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
    monkeypatch.setattr(inputs, "_walk_csv", refuse)
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


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    for _ in range(3):
        assert run(capsys, ["demo", "toy-separable"])[0] == 0
    assert builds == [1]


def test_a_reused_parser_keeps_no_rule_choice(capsys):
    toy = str(GOLDEN / "toy.json")
    assert run(capsys, ["audit", toy, "--method", "mci"])[0] == 0
    code, out, _ = run(capsys, ["audit", toy])
    assert code == 0
    assert out == (GOLDEN / "toy.all.stdout").read_text(encoding="utf-8")
    labels = [check["check"] for check in json.loads(out)["report"]["checks"]]
    for m in ScoreMethod:
        assert f"elimination[table,{m.value}]" in labels


def test_a_reused_parser_keeps_no_collider_flag(capsys):
    assert run(capsys, ["demo", "collider", "--p-smoke", "0.4"])[0] == 0
    code, out, _ = run(capsys, ["demo", "collider"])
    assert code == 0
    assert out == (GOLDEN / "demo-collider.json.stdout").read_text(encoding="utf-8")
    assert json.loads(out)["report"]["inputs"]["p_smoke"] == ColliderParams().p_smoke


@pytest.mark.parametrize(
    "bad",
    [
        ["audit", "TOY", "--method", "nope"],
        ["audit", "TOY", "--tol", "-1"],
        ["demo", "collider", "--p-smoke"],
        ["scores"],
    ],
)
def test_a_usage_error_leaves_the_parser_as_a_fresh_one(capsys, bad):
    toy = str(GOLDEN / "toy.json")
    good = ["audit", toy, "--method", "mci", "--method", "ablation"]
    assert run(capsys, [toy if arg == "TOY" else arg for arg in bad])[0] == 1
    after_error = run(capsys, good)
    cli._parser.cache_clear()
    assert run(capsys, good) == after_error
    assert after_error[1] == (GOLDEN / "toy.mci-ablation.stdout").read_text(encoding="utf-8")


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


def test_a_tolerance_that_is_no_number_is_refused(capsys):
    code, out, err = run(capsys, ["demo", "collider", "--tol", "abc"])
    assert (code, out, err) == (1, "", "error: argument --tol: invalid float value: 'abc'\n")


@pytest.mark.parametrize(
    "text, message",
    [
        # Blank lines only: the fast reader finds no header, and neither does the walk.
        ("\n \n,,\n", "need a header row and at least one data row"),
        # A quoted header name past the csv module's field limit, with commas
        # throughout, fails the fast reader's header read, and the walk's.
        ('"' + "a," * 70000 + '",y\n1,2\n', "line 1: field larger than field limit (131072)"),
    ],
    ids=["blank-lines", "long-header-name"],
)
def test_a_csv_file_without_a_readable_header_is_refused(capsys, tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code, out, err = run(capsys, ["scores", str(path), "--target", "y"])
    assert (code, out, err) == (1, "", f"error: {path}: {message}\n")


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


@pytest.fixture
def hash_threads(monkeypatch):
    """Every thread ``read_input`` makes, recorded as it is made."""
    made = []

    class Recorded(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(inputs, "threading", types.SimpleNamespace(Thread=Recorded))
    return made


def _hash_input(tmp_path: Path, kind: str) -> tuple[Path, list[str]]:
    """A file that takes the read path ``kind`` names, and a command that reads it."""
    if kind == "csv":
        table_out = str(tmp_path / "t.json")
        return Path(TOY_CSV), ["eval-dataset", TOY_CSV, "--target", "y", "--table-out", table_out]
    rng = np.random.default_rng(5)
    if kind == "sample space":
        rows = [{"weight": w, "values": rng.normal(size=1 << 8).tolist()} for w in (1, 2, 3)]
        payload, command = {"n": 8, "instances": rows}, "audit"
    else:
        n = 16 if kind == "block-read table" else 3
        values = [0.0] + rng.normal(size=(1 << n) - 1).tolist()
        payload, command = {"n": n, "values": values}, "scores"
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    return path, [command, str(path)]


@pytest.mark.parametrize("kind", ["block-read table", "whole-parse table", "sample space", "csv"])
def test_input_sha256_is_the_digest_of_the_bytes_read(capsys, tmp_path, hash_threads, kind):
    path, argv = _hash_input(tmp_path, kind)
    raw = path.read_bytes()
    if kind.endswith("table"):
        assert (inputs._block_read(raw, ("table",)) is None) == (kind == "whole-parse table")
    before = threading.active_count()
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["input_sha256"] == hashlib.sha256(raw).hexdigest()
    # One helper thread hashed the file, and it was joined before the report.
    assert [t.is_alive() for t in hash_threads] == [False]
    assert threading.active_count() == before


@pytest.mark.parametrize(
    ("name", "content", "options", "message"),
    [
        (
            "bad.json",
            lambda: b'{"n": 1, "values": [0, 1,]}',
            [],
            "{path}: JSON parse error at line 1 column 26: Expecting value",
        ),
        (
            "n21.json",
            lambda: json.dumps({"n": 21, "values": [0] * (1 << 21)}).encode(),
            [],
            "n=21 exceeds the cap of 20 features",
        ),
        ("bad.csv", lambda: b"a,y\n1,\xff2\n3,4\n", ["--target", "y"], "{path}: not UTF-8 text"),
    ],
)
def test_a_refused_input_leaves_no_hash_thread(
    capsys, tmp_path, hash_threads, name, content, options, message
):
    path = tmp_path / name
    path.write_bytes(content())
    before = threading.active_count()
    code, out, err = run(capsys, ["scores", str(path), *options])
    assert (code, out, err) == (1, "", f"error: {message.format(path=path)}\n")
    assert [t.is_alive() for t in hash_threads] == [False]
    assert threading.active_count() == before


def test_the_hash_thread_is_joined_when_the_parse_raises(tmp_path, monkeypatch, hash_threads):
    path = tmp_path / "n16.json"
    path.write_text(json.dumps({"n": 16, "values": [0.0] * (1 << 16)}))

    def fail(*args):
        raise RuntimeError("parse failed")

    monkeypatch.setattr(inputs, "_read_json", fail)
    with pytest.raises(RuntimeError, match="parse failed"):
        inputs.read_input(path, "scores", ("table",))
    assert [t.is_alive() for t in hash_threads] == [False]


@st.composite
def _fuzz_values(draw, n):
    """2^n values: normal, small integers or zeros, v(empty) zero or not, scaled by 2^k."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "integer", "zero"]))
    if kind == "normal":
        values = rng.normal(size=1 << n)
    else:
        values = rng.integers(-3, 4, size=1 << n) * float(kind == "integer")
    values[0] = draw(st.sampled_from([1.0, -3.0])) if draw(st.booleans()) else 0.0
    return (values * 2.0 ** draw(st.integers(-1000, 1000))).tolist()


@st.composite
def _fuzz_cases(draw):
    """A subcommand, and a table at n <= 6 for it or, for audit, maybe a
    space of at most 8 such instances."""
    command = draw(
        st.sampled_from(
            [["scores"], ["audit"], ["audit", "--fail-on-violation"], ["partition"],
             ["partition", "--with-oracle"]]
        )
    )
    n = draw(st.integers(1, 6))
    if command[0] != "audit" or draw(st.booleans()):
        return command, {"n": n, "values": draw(_fuzz_values(n))}
    rows = draw(st.lists(st.tuples(st.floats(1e-3, 1e3), _fuzz_values(n)), min_size=1, max_size=8))
    return command, {"n": n, "instances": [{"weight": w, "values": v} for w, v in rows]}


def _partition_contract_holds(table, tol):
    """v(empty) = 0, and every dividend is 0 or beyond tol: then the
    separable sets are the unions of the shortcut's blocks."""
    dividends = sepsets.mobius_transform(table).dividends
    return table.values[0] == 0 and bool(np.all((dividends == 0) | (np.abs(dividends) > tol)))


@settings(
    max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    case=_fuzz_cases(),
    output=st.sampled_from(["json", "markdown"]),
    methods=st.lists(st.sampled_from([m.value for m in sepsets.ALL_METHODS]), max_size=4),
    # Log-uniform in [1e-15, 1e300].
    tol=st.floats(-15, 300).map(lambda e: 10.0**e),
)
# At a tol past some dividends the shortcut's blocks need not be
# separable, and need not be the oracle's: each block's report says so.
@example(
    case=(["partition"], {"n": 3, "values": [0, 0, 0, 0.6, 0, 0.6, 0, 1.2]}),
    output="json", methods=[], tol=1.0,
)
@example(
    case=(["partition", "--with-oracle"], {"n": 3, "values": [-2, -1, -2, 1, 2, 1, 1, 1]}),
    output="json", methods=[], tol=2.39,
)
def test_subcommands_exit_0_1_or_3_and_agree_with_their_oracles(
    capsys, tmp_path, case, output, methods, tol
):
    command, payload = case
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = [*command, str(path), "--output", output, "--tol", repr(tol)]
    if command[0] != "partition":
        argv += [arg for name in methods for arg in ("--method", name)]
    with warnings.catch_warnings():
        # A numpy warning would print lines of its own next to the report.
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 3)
    if code == 1 or code == 3 and command[0] == "partition":
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert code == 1 or "--with-oracle" in command
        return
    assert err == ""
    report = json.loads(out)["report"] if output == "json" else None
    tol = sepsets.Tolerance(tol)
    is_table = "values" in payload
    loaded = (sepsets.table_from_dict if is_table else sepsets.space_from_dict)(payload)
    if command[0] == "audit":
        chosen = tuple(dict.fromkeys(map(ScoreMethod.parse, methods))) or sepsets.ALL_METHODS
        if is_table:
            rows = audit_oracle.audit_rows(loaded, "table", chosen, tol)
        else:
            rows = audit_oracle.space_rows(loaded, chosen, tol)
        failed = [label for label, rep in rows if not rep.passed]
        assert code == (3 if failed and "--fail-on-violation" in command else 0)
        if report is None:
            assert out.endswith("\n\n" + sepsets.axioms.report_rows_markdown(rows))
        else:
            checks = [{"check": label, **rep.to_dict()} for label, rep in rows]
            assert json.dumps(report["checks"], sort_keys=True) == json.dumps(checks, sort_keys=True)
            assert report["violations"] == failed
    elif command[0] == "partition":
        assert code == 0
        if report is None:
            rows = [line.split(" | ")[0] for line in out.splitlines() if line.startswith("| [")]
            blocks = [json.loads(row[2:]) for row in rows]
        else:
            blocks = report["partition"]["blocks"]
            for entry in report["block_reports"]:
                assert entry["separable"] == (entry["worst_residual"] <= tol.absolute)
            if "--with-oracle" in command:
                assert report["oracle"]["agrees"]
        if _partition_contract_holds(loaded, tol.absolute):
            oracle = sepsets.maximal_partition_oracle(loaded, tol)
            assert blocks == [list(block) for block in oracle.block_indices()]
    else:
        assert code == 0
