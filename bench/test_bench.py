"""Tests of the benchmark itself: inputs, output checks and the tracer.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import sepsets.axioms  # noqa: E402
import sepsets.cli  # noqa: E402
from sepsets import ValueTable, maximal_partition_oracle  # noqa: E402

import run  # noqa: E402
from spans import Tracer, _wrap, instrument, layer_totals, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Input,
    canonical_blocks,
    check_job,
    make_inputs,
    planted_values,
    small_sizes,
    split_features,
)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(tmp_path, workload):
    first, second, other = (tmp_path / name for name in ("a", "b", "c"))
    for directory, seed in ((first, 5), (second, 5), (other, 6)):
        directory.mkdir()
        make_inputs(workload, seed, directory)
    assert _files(first) == _files(second)
    assert _files(first) != _files(other)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [6, 8, 10])
def test_planted_blocks_are_the_oracle_partition(seed, n):
    rng = np.random.default_rng([seed, n])
    count = int(rng.integers(1, n + 1))
    sizes = small_sizes(rng, n, count, n - count + 1)
    blocks = split_features([int(f) for f in rng.permutation(n)], sizes)
    oracle = maximal_partition_oracle(ValueTable(n, planted_values(rng, n, blocks)))
    assert sorted(oracle.blocks) == sorted(blocks)


def test_twin_pair_and_null_feature_keep_the_planted_partition():
    rng = np.random.default_rng(3)
    n = 9
    blocks = [0b000011111, 0b011100000]  # feature 8 is null
    values = planted_values(rng, n, blocks, twin=(1, 3))
    masks = np.arange(1 << n)
    outside = masks[(masks & 0b1010) == 0]
    assert np.allclose(values[outside | 0b10], values[outside | 0b1000], atol=1e-15)
    assert np.array_equal(values[masks | (1 << 8)], values[masks])
    oracle = maximal_partition_oracle(ValueTable(n, values))
    assert sorted(oracle.blocks) == sorted(blocks + [1 << 8])


def _cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert sepsets.cli.main(argv) == 0
    return out.getvalue()


def test_table_checks_accept_the_cli_and_reject_a_wrong_score(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    n = 8
    blocks = split_features(list(range(n)), [3, 3, 2])
    values = planted_values(rng, n, blocks)
    text = json.dumps({"n": n, "values": values.tolist()})
    (tmp_path / "t.json").write_text(text)
    monkeypatch.chdir(tmp_path)
    facts = {"sha256": hashlib.sha256(text.encode()).hexdigest(), "n": n, "values": values, "blocks": blocks}
    inp = Input("t", [["partition", "t.json"], ["scores", "t.json"]], facts=facts)
    outputs = [_cli_stdout(argv) for argv in inp.commands]
    assert check_job("table-n20", inp, outputs) == []
    assert json.loads(outputs[0])["report"]["partition"]["blocks"] == canonical_blocks(blocks)

    scores = json.loads(outputs[1])
    scores["report"]["methods"]["ablation"]["scores"][2] += 1e-12
    assert check_job("table-n20", inp, [outputs[0], json.dumps(scores)]) != []
    wrong_blocks = dict(facts, blocks=split_features(list(range(n)), [4, 2, 2]))
    assert check_job("table-n20", Input("t", inp.commands, facts=wrong_blocks), outputs) != []
    assert check_job("table-n20", inp, [outputs[0], "{}"]) != []


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["job", 0, 100, -1],
        ["a", 10, 70, 0],
        ["b", 20, 35, 1],
        ["c", 30, 50, 1],  # overlaps b: together they cover 20..50
        ["d", 60, 90, 1],  # runs past its parent's end: only 60..70 counts for a
        ["e", 65, 80, 4],
    ]
    assert self_times(spans) == [40, 20, 15, 20, 15, 15]
    per_name, per_module = layer_totals([["m.x", 0, 10, -1], ["m.y", 2, 5, 0], ["n.z", 6, 7, 0]])
    assert per_name["m.x"] == pytest.approx({"self_s": 6e-9, "inclusive_s": 10e-9, "calls": 1})
    assert per_module == pytest.approx({"m": 9e-9, "n": 1e-9})


def test_wrapped_nested_calls_record_parents_and_self_time():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    wrapped_leaf = _wrap(tracer, "mod.leaf", leaf)

    def outer():
        time.sleep(0.01)
        wrapped_leaf()
        wrapped_leaf()

    root = tracer.start_job()
    _wrap(tracer, "mod.outer", outer)()
    tracer.close(root)
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["job", "mod.outer", "mod.leaf", "mod.leaf"]
    assert parents == [-1, 0, 1, 1]
    own = self_times(tracer.spans)
    outer_span = tracer.spans[1]
    leaves = sum(s[2] - s[1] for s in tracer.spans[2:])
    assert own[1] == outer_span[2] - outer_span[1] - leaves
    assert 0.009 < own[1] / 1e9 < 0.05


def test_instrument_wraps_every_importers_binding(tmp_path, monkeypatch):
    (tmp_path / "t.json").write_text(json.dumps({"n": 3, "values": [0, 1, 2, 3, 1, 2, 3, 5]}))
    monkeypatch.chdir(tmp_path)
    originals = (sepsets.cli.check_elimination, sepsets.axioms.score_vector, sepsets.cli.main)
    tracer = Tracer()
    undo = instrument(tracer)
    try:
        assert sepsets.cli.check_elimination is not originals[0]
        assert sepsets.axioms.score_vector is not originals[1]
        root = tracer.start_job()
        _cli_stdout(["audit", "t.json"])
        tracer.close(root)
    finally:
        undo()
    assert (sepsets.cli.check_elimination, sepsets.axioms.score_vector, sepsets.cli.main) == originals
    names = [s[0] for s in tracer.spans]
    assert "axioms.check_elimination" in names
    assert "subset_algebra.eliminate" in names
    # MCI is scored for the audit, and again by every minimalism check.
    assert tracer.counts["importance.score_vector.repeats"] >= 4
    index = names.index("importance.score_vector.shapley")
    chain = []
    while index >= 0:
        chain.append(tracer.spans[index][0])
        index = tracer.spans[index][3]
    assert chain[-2:] == ["cli.main", "job"]


@pytest.mark.parametrize(
    ("count", "percentile", "beyond"), [(5, 0, 4), (11, 9, 10), (20, 50, 10), (100, 90, 10)]
)
def test_tail_is_the_highest_percentile_with_ten_jobs_beyond(count, percentile, beyond):
    times = [float(i) for i in range(count)]
    value, got_percentile, got_beyond = run.tail_of(times[::-1])
    assert (got_percentile, got_beyond) == (percentile, beyond)
    assert value == times[count - 1 - beyond]


def test_job_p50_weighs_each_input_alike():
    jobs = [{"input": 0, "seconds": s} for s in (1.0, 2.0, 30.0)]
    jobs += [{"input": 1, "seconds": s} for s in (4.0, 5.0, 6.0, 7.0)]
    assert run.job_p50(jobs) == pytest.approx((2.0 + 5.5) / 2)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
