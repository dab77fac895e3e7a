"""Seeded inputs and output checks for the benchmark workloads.

A workload is a list of inputs. Each input is one file in the work
directory plus the command lines that make up one job on it. Inputs
depend only on the seed. The checks read only a job's output bytes and
the facts planted when the input was made. Neither side calls sepsets,
so a change to the program can change neither what it is measured on
nor what it is judged against.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import numpy as np

RULES = ("bivariate", "ablation", "shapley", "mci")


@dataclass
class Input:
    """The CLI command lines of one job on one input file.

    ``extra_outputs`` names files a job writes that the checks read.
    ``facts`` holds what the generator planted; it stays with the
    benchmark and is never shown to the program.
    """

    label: str
    commands: list[list[str]]
    extra_outputs: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


# ------------------------------------------------------------ table building


def subset_sums(dividends: np.ndarray, n: int) -> np.ndarray:
    """Values from interaction dividends: v(T) is the sum of d(W) over W within T."""
    out = np.array(dividends, dtype=np.float64).reshape((2,) * n)
    for axis in range(n):
        lo = out[(slice(None),) * axis + (0, Ellipsis)]
        hi = out[(slice(None),) * axis + (1, Ellipsis)]
        hi += lo
    return out.reshape(-1)


def swap_bits(masks: np.ndarray, a: int, b: int) -> np.ndarray:
    """Each mask with bits ``a`` and ``b`` exchanged."""
    differ = ((masks >> a) ^ (masks >> b)) & 1
    return masks ^ ((differ << a) | (differ << b))


def planted_values(
    rng: np.random.Generator, n: int, blocks: list[int], twin: tuple[int, int] | None = None
) -> np.ndarray:
    """A value table whose maximal separable partition is exactly ``blocks``.

    Every nonempty subset of a block carries a nonzero dividend, so each
    block is connected; no dividend crosses blocks, so blocks never
    merge. A dividend on k of a block's b features has magnitude in
    [0.5, 1] / (C(b, k) * b). That keeps |v| of order one, so rounding
    in the 2^n-term sums stays far below the tolerance, and keeps every
    dividend far above it (at least 1.3e-7 at b = 20). Features outside
    every block are null. With ``twin``, the dividends are made
    symmetric in that pair, so the two features are interchangeable.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    pop = np.bitwise_count(masks)
    dividends = np.zeros(1 << n)
    for block in blocks:
        b = block.bit_count()
        inside = ((masks & ~block) == 0) & (masks != 0)
        k = pop[inside]
        scale = np.array([comb(b, i) * b for i in range(b + 1)], dtype=np.float64)[k]
        sign = rng.choice((-1.0, 1.0), size=k.size)
        dividends[inside] = sign * rng.uniform(0.5, 1.0, size=k.size) / scale
    if twin is not None:
        dividends = 0.5 * (dividends + dividends[swap_bits(masks, *twin)])
    return subset_sums(dividends, n)


def split_features(features: list[int], sizes: list[int]) -> list[int]:
    """Consecutive runs of ``features`` with the given sizes, as bitmasks."""
    blocks, at = [], 0
    for size in sizes:
        blocks.append(sum(1 << f for f in features[at : at + size]))
        at += size
    return blocks


def small_sizes(rng: np.random.Generator, total: int, count: int, largest: int) -> list[int]:
    """A random composition of ``total`` into ``count`` parts of 1..``largest``."""
    sizes = [1] * count
    for _ in range(total - count):
        open_parts = [i for i, s in enumerate(sizes) if s < largest]
        sizes[int(rng.choice(open_parts))] += 1
    return sizes


def canonical_blocks(blocks: list[int]) -> list[list[int]]:
    """Blocks as ascending index lists, ordered by lowest member (the CLI's order)."""
    ordered = sorted(blocks, key=lambda b: b & -b)
    return [[i for i in range(b.bit_length()) if (b >> i) & 1] for b in ordered]


def _write(path: Path, text: str) -> str:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _table_json(n: int, values: np.ndarray) -> str:
    return json.dumps({"n": n, "values": values.tolist()})


# ------------------------------------------------------------ the workloads


def make_table_n20(rng: np.random.Generator, work: Path) -> list[Input]:
    """Two n=20 tables, one on each branch of the partition's union step.

    The dense table has 1 or 2 blocks, the largest of 17 to 20 features,
    so over 65536 dividends are nonzero. The sparse one has 6 to 10
    blocks of at most 4 features, so only a few hundred are.
    """
    n = 20
    dense_count = int(rng.integers(1, 3))
    dense_sizes = [n] if dense_count == 1 else [int(rng.integers(17, 20))]
    if dense_count == 2:
        dense_sizes.append(n - dense_sizes[0])
    sparse_sizes = small_sizes(rng, n, int(rng.integers(6, 11)), 4)
    inputs = []
    for label, sizes in (("dense", dense_sizes), ("sparse", sparse_sizes)):
        blocks = split_features([int(f) for f in rng.permutation(n)], sizes)
        values = planted_values(rng, n, blocks)
        file = f"{label}.json"
        sha = _write(work / file, _table_json(n, values))
        facts = {"sha256": sha, "n": n, "values": values, "blocks": blocks}
        inputs.append(Input(label, [["partition", file], ["scores", file]], facts=facts))
    return inputs


def make_audit(rng: np.random.Generator, work: Path) -> list[Input]:
    """An n=16 table, where the table-only checks dominate and elimination
    is skipped by its feature cap, and a sample space of n=12 tables,
    where elimination dominates and the sample-space checks run."""
    return _audit_table_n16(rng, work) + _audit_space_n12(rng, work)


def _audit_table_n16(rng: np.random.Generator, work: Path) -> list[Input]:
    """One n=16 table: a dense block of 8 to 10 features holding a twin
    pair, small blocks of at most 3 features, and one null feature."""
    n = 16
    order = [int(f) for f in rng.permutation(n)]
    big = int(rng.integers(8, 11))
    rest = n - 1 - big
    sizes = [big] + small_sizes(rng, rest, int(rng.integers((rest + 2) // 3, rest + 1)), 3)
    blocks = split_features(order[1:], sizes)
    values = planted_values(rng, n, blocks, twin=(order[1], order[2]))
    sha = _write(work / "table.json", _table_json(n, values))
    return [Input("table", [["audit", "table.json"]], facts={"sha256": sha})]


def _audit_space_n12(rng: np.random.Generator, work: Path) -> list[Input]:
    """A sample space of 16 weighted n=12 tables with 1 to 4 planted blocks each."""
    n = 12
    instances = []
    for _ in range(16):
        count = int(rng.integers(1, 5))
        sizes = small_sizes(rng, n, count, n - count + 1)
        blocks = split_features([int(f) for f in rng.permutation(n)], sizes)
        values = planted_values(rng, n, blocks)
        instances.append({"weight": float(rng.uniform(0.5, 1.5)), "values": values.tolist()})
    sha = _write(work / "space.json", json.dumps({"n": n, "instances": instances}))
    return [Input("space", [["audit", "space.json"]], facts={"sha256": sha})]


def make_eval_dataset_n12(rng: np.random.Generator, work: Path) -> list[Input]:
    """2000 weighted rows of 12 feature columns, one a copy of another.

    Eleven correlated normal columns, a duplicate of one of them at a
    random position, a target with a linear part, one interaction and
    noise, and row weights in [0.2, 2].
    """
    m, distinct = 2000, 11
    base = rng.normal(size=(m, distinct)) @ (np.eye(distinct) + 0.3 * rng.normal(size=(distinct, distinct)))
    original = int(rng.integers(0, distinct))
    duplicate = int(rng.integers(0, distinct + 1))
    X = np.insert(base, duplicate, base[:, original], axis=1)
    if duplicate <= original:
        original += 1
    y = base @ rng.normal(size=distinct) + 0.5 * base[:, 0] * base[:, 1] + rng.normal(size=m)
    w = rng.uniform(0.2, 2.0, size=m)
    names = [f"x{j:02d}" for j in range(X.shape[1])]
    lines = [",".join(names + ["y", "w"])]
    for row, target, weight in zip(X.tolist(), y.tolist(), w.tolist()):
        lines.append(",".join(repr(v) for v in row + [target, weight]))
    sha = _write(work / "data.csv", "\n".join(lines) + "\n")
    command = ["eval-dataset", "data.csv", "--target", "y", "--weight-col", "w", "--table-out", "table_out.json"]
    facts = {"sha256": sha, "X": X, "y": y, "w": w, "original": original, "duplicate": duplicate}
    return [Input("dataset", [command], extra_outputs=["table_out.json"], facts=facts)]


WORKLOADS = {
    "table-n20": make_table_n20,
    "audit": make_audit,
    "eval-dataset-n12": make_eval_dataset_n12,
}


def make_inputs(workload: str, seed: int, work: Path) -> list[Input]:
    """Write the workload's inputs for ``seed`` into ``work``."""
    return WORKLOADS[workload](np.random.default_rng([seed, _workload_salt(workload)]), work)


def _workload_salt(workload: str) -> int:
    return int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")


# ------------------------------------------------------------ output checks


def check_job(workload: str, inp: Input, outputs: list[str]) -> list[str]:
    """Problems found in one job's outputs; an empty list means correct.

    ``outputs`` holds the stdout of each command, then the contents of
    each extra output file, in order.
    """
    try:
        return _check_job(workload, inp, outputs)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"output lacks the expected structure: {exc!r}"]


def _check_job(workload: str, inp: Input, outputs: list[str]) -> list[str]:
    problems = []
    reports = []
    for argv, text in zip(inp.commands, outputs):
        envelope = json.loads(text)
        if envelope["input_sha256"] != inp.facts["sha256"]:
            problems.append(f"{argv[0]}: input_sha256 does not match the input file")
        reports.append(envelope["report"])
    extras = outputs[len(inp.commands) :]
    if workload == "table-n20":
        problems += _check_partition(inp.facts, reports[0]) + _check_scores(inp.facts, reports[1])
    elif workload == "audit":
        problems += _check_audit(reports[0], require_shapley_consistency=inp.label == "space")
    elif workload == "eval-dataset-n12":
        problems += _check_eval(inp.facts, reports[0], json.loads(extras[0]))
    return problems


def audit_rows(workload: str, outputs: list[str]) -> int:
    """Number of audit rows in a job's outputs (0 for other workloads or bad output)."""
    if workload != "audit":
        return 0
    try:
        return len(json.loads(outputs[0])["report"]["checks"])
    except (KeyError, IndexError, TypeError, ValueError):
        return 0


def _check_partition(facts: dict, report: dict) -> list[str]:
    problems = []
    if report["partition"]["blocks"] != canonical_blocks(facts["blocks"]):
        problems.append(
            f"partition {report['partition']['blocks']} is not the planted "
            f"{canonical_blocks(facts['blocks'])}"
        )
    if not all(entry["separable"] for entry in report["block_reports"]):
        problems.append("a block report is not separable")
    return problems


def _check_scores(facts: dict, report: dict) -> list[str]:
    v, n = facts["values"], facts["n"]
    full = (1 << n) - 1
    methods = report["methods"]
    if sorted(methods) != sorted(RULES):
        return [f"scores cover rules {sorted(methods)}"]
    problems = []
    gap = abs(sum(methods["shapley"]["scores"]) - (v[full] - v[0]))
    if gap > 1e-6:
        problems.append(f"Shapley scores miss v(N) - v(empty) by {gap:.3g}")
    for f in range(n):
        bit = 1 << f
        if methods["bivariate"]["scores"][f] != float(v[bit]):
            problems.append(f"bivariate score of feature {f} is not v({{{f}}})")
        if methods["ablation"]["scores"][f] != float(v[full] - v[full ^ bit]):
            problems.append(f"ablation score of feature {f} is not v(N) - v(N - {f})")
        witness = methods["mci"]["witness_contexts"][f]
        if witness & bit or methods["mci"]["scores"][f] != float(v[witness | bit] - v[witness]):
            problems.append(f"MCI witness {witness} of feature {f} does not replay its score")
    return problems


def _check_audit(report: dict, require_shapley_consistency: bool) -> list[str]:
    problems = []
    for row in report["checks"]:
        if row["passed"] != (row["residual"] <= row["tol"]):
            problems.append(f"{row['check']}: passed disagrees with residual <= tol")
        if ("witness" in row) == row["passed"]:
            problems.append(f"{row['check']}: witness present on a pass or missing on a failure")
    if require_shapley_consistency:
        rows = [r for r in report["checks"] if r["check"] == "importance_consistency[shapley]"]
        if len(rows) != 1 or not rows[0]["passed"]:
            problems.append("Shapley importance consistency did not pass")
    return problems


def weighted_r2(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """Explained variance of a weighted, intercept-free least-squares fit."""
    sw = np.sqrt(w / w.sum())
    design, target = X * sw[:, None], y * sw
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = design @ coef - target
    return 1.0 - float(resid @ resid) / float(target @ target)


def _check_eval(facts: dict, report: dict, table: dict) -> list[str]:
    values = np.asarray(table["values"], dtype=np.float64)
    n = facts["X"].shape[1]
    problems = []
    if table["n"] != n or values.shape != (1 << n,):
        return [f"table file has n={table['n']} and {values.shape[0]} values"]
    if values[0] != 0.0 or report["empty_set_value"] != 0.0:
        problems.append("v(empty) is not 0")
    direct = weighted_r2(facts["X"], facts["y"], facts["w"])
    if abs(values[-1] - direct) > 1e-10 or report["full_set_value"] != values[-1]:
        problems.append(f"v(N) = {values[-1]!r} but a direct fit gives {direct!r}")
    dup, orig = 1 << facts["duplicate"], 1 << facts["original"]
    masks = np.arange(1 << n, dtype=np.int64)
    with_dup = masks[(masks & dup != 0) & (masks & orig == 0)]
    drift = float(np.max(np.abs(values[with_dup] - values[with_dup ^ dup ^ orig])))
    if drift > 1e-10:
        problems.append(f"swapping the duplicate for its original moves a value by {drift:.3g}")
    return problems
