"""Benchmark of the sepsets command line.

Usage, from the root of a checkout (no install needed; it runs ``src``):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run measures one workload. It writes the workload's inputs for the
seed into ``.bench_out/``, then starts a fresh worker process that runs
in-process ``sepsets.cli.main`` jobs one after another (one client, a
closed loop) for ``S`` seconds, with BLAS held to one thread. Every
job's output is checked. The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, measured untraced. With
``--trace 1`` the worker alternates untraced rounds with rounds that
wrap sepsets' public functions (see spans.py), and the metrics are
per-layer figures per traced job, plus the tracing overhead.

A record of the run goes to ``.bench_out/<workload>-seed<N>-trace<T>.json``:
the environment, the metrics, every job time, the SHA-256 of every job's
stdout per input, and, when traced, the per-layer totals behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import MODULES, layer_totals
from workloads import WORKLOADS, audit_rows, check_job, make_inputs

BENCH = Path(__file__).resolve().parent
BLAS_THREADS = "1"
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sepsets.cli; "
    "print(time.perf_counter() - t, sepsets.cli.__file__)"
)

# job_tail_s is printed and recorded but not a guarded metric: a run holds
# only about 14 to 40 jobs, so the highest percentile with 10 jobs beyond
# it lies between the minimum and about p75, not in the tail.
END_TO_END = {
    "job_p50_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}
SELF_SPANS = (
    "subset_algebra.table_from_dict",
    "subset_algebra.mobius_transform",
    "subset_algebra.eliminate",
    "importance.score_vector.bivariate",
    "importance.score_vector.ablation",
    "importance.score_vector.shapley",
    "importance.score_vector.mci",
    "separability.maximal_partition",
    "separability.validate_partition",
    "separability.is_separable",
    "axioms.check_triviality",
    "axioms.check_symmetry",
    "axioms.check_minimalism",
    "axioms.check_monotonicity",
    "axioms.check_marginal_contribution",
    "axioms.check_empty_set",
    "axioms.check_elimination",
    "sample_space.space_from_dict",
    "sample_space.global_table",
    "sample_space.check_value_consistency",
    "sample_space.check_importance_consistency",
    "dataset_eval.new_dataset",
    "dataset_eval.r2_value_table",
    "dataset_eval.value_table_from_metric",
)
COUNTED_SPANS = ("subset_algebra.eliminate", "importance.score_vector", "separability.is_separable")
# Per-layer figures are per traced job; a layer a workload never calls reads 0.
PER_LAYER = {
    "cli.self_s": "s/job",
    **{f"{name}.self_s": "s/job" for name in SELF_SPANS},
    **{f"{name}.calls": "calls/job" for name in COUNTED_SPANS},
    "importance.score_vector.repeat_ratio": "ratio",
    "axioms.checks": "rows/job",
    **{f"{module}.share": "ratio" for module in MODULES},
    "trace.overhead_ratio": "ratio",
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def tail_of(times: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile with at least 10 jobs beyond it.

    Nearest-rank percentiles. Returns the value, the percentile and the
    number of jobs beyond it; below 11 jobs no percentile qualifies, so
    the minimum is returned as percentile 0.
    """
    ordered = sorted(times)
    count = len(ordered)
    percentile = max(0, 100 * (count - 10) // count)
    rank = max(1, math.ceil(percentile * count / 100))
    return ordered[rank - 1], percentile, count - rank


def job_p50(jobs: list[dict]) -> float:
    """Median job time on each input, averaged over the inputs.

    Inputs of one workload can differ in cost (audit's n=16 table and
    n=12 sample space do), so a median over all their jobs together would
    jump between the inputs' times as the job count changes parity.
    """
    per_input: dict = {}
    for job in jobs:
        per_input.setdefault(job["input"], []).append(job["seconds"])
    return statistics.fmean(statistics.median(times) for times in per_input.values())


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, args) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_at_start": list(os.getloadavg()),
    }


def child_env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def from_src(path: str, src: Path) -> bool:
    return Path(path).resolve().is_relative_to(src.resolve())


def measure_setup(root: Path, src: Path, env: dict) -> list[float]:
    """Import times of ``sepsets.cli``, each in a fresh process."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env, capture_output=True, text=True, timeout=60
        )
        if probe.returncode != 0:
            fail(f"importing sepsets.cli failed:\n{probe.stderr}")
        seconds, path = probe.stdout.split()
        if not from_src(path, src):
            fail(f"sepsets.cli was imported from {path}, not from {src}")
        samples.append(float(seconds))
    return samples


def layer_metrics(result: dict, workload: str, traced: list[dict], plain: list[dict]) -> tuple[dict, dict]:
    """Per-job layer figures from the traced jobs' spans, and the per-name
    and per-module totals behind them."""
    per_name, per_module = layer_totals(result["spans"])
    jobs = len(traced)
    job_s = sum(per_module.values())

    def total(name: str, key: str) -> float:
        return per_name.get(name, {}).get(key, 0)

    scored = sum(t["calls"] for name, t in per_name.items() if name.startswith("importance.score_vector."))
    values = {"cli.self_s": per_module.get("cli", 0.0) / jobs}
    for name in SELF_SPANS:
        values[f"{name}.self_s"] = total(name, "self_s") / jobs
    values["subset_algebra.eliminate.calls"] = total("subset_algebra.eliminate", "calls") / jobs
    values["importance.score_vector.calls"] = scored / jobs
    values["separability.is_separable.calls"] = total("separability.is_separable", "calls") / jobs
    repeats = result["counts"].get("importance.score_vector.repeats", 0)
    values["importance.score_vector.repeat_ratio"] = repeats / scored if scored else 0.0
    outputs = result["outputs"]
    rows = sum(audit_rows(workload, [outputs[d] for d in job["digests"]]) for job in traced)
    values["axioms.checks"] = rows / jobs
    for module in MODULES:
        values[f"{module}.share"] = per_module.get(module, 0.0) / job_s
    values["trace.overhead_ratio"] = job_p50(traced) / job_p50(plain) - 1.0
    layers = {
        "module_share": {m: s / job_s for m, s in sorted(per_module.items())},
        "per_job": {n: {k: v / jobs for k, v in t.items()} for n, t in sorted(per_name.items())},
    }
    return values, layers


def run_worker(work: Path, env: dict) -> dict:
    """Run the worker on ``work/spec.json`` and return its result."""
    try:
        worker = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "spec.json", "result.json"],
            cwd=work,
            env=env,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"the worker did not finish within {WORKER_TIMEOUT_S} s")
    if worker.returncode != 0:
        fail(f"the worker exited with {worker.returncode}:\n{worker.stderr}")
    return json.loads((work / "result.json").read_text())


def check_outputs(workload: str, inputs: list, result: dict) -> list[dict]:
    """One entry per failed job: a nonzero exit, a crash, or a failed output check."""
    # Outputs are deterministic, so each distinct set of output bytes is checked once.
    verdicts: dict = {}
    failures = []
    for job in result["jobs"]:
        if job["ok"]:
            key = (job["input"], tuple(job["digests"]))
            if key not in verdicts:
                texts = [result["outputs"][d] for d in job["digests"]]
                verdicts[key] = check_job(workload, inputs[job["input"]], texts)
            problems = verdicts[key]
        else:
            problems = [f"exit or crash: {job['error'].strip()}"]
        if problems:
            failures.append({"input": inputs[job["input"]].label, "problems": problems})
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "sepsets" / "cli.py").is_file():
        fail(f"no sepsets sources under {src}; run from the root of a checkout")
    env = child_env(src)
    record = {"environment": environment(root, args)}

    setup = [] if args.trace else measure_setup(root, src, env)

    out_dir = root / ".bench_out"
    work = out_dir / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    inputs = make_inputs(args.workload, args.seed, work)
    record["input_seconds"] = time.perf_counter() - started
    spec = {
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": [{"commands": i.commands, "extra_outputs": i.extra_outputs} for i in inputs],
    }
    (work / "spec.json").write_text(json.dumps(spec))
    result = run_worker(work, env)
    shutil.rmtree(work)
    if not from_src(result["sepsets_file"], src):
        fail(f"the worker imported sepsets from {result['sepsets_file']}, not from {src}")
    failures = check_outputs(args.workload, inputs, result)
    attempted = len(result["jobs"])
    failed = len(failures)

    plain = [j for j in result["jobs"] if j["phase"] == "plain"]
    traced = [j for j in result["jobs"] if j["phase"] == "traced"]
    times = [j["seconds"] for j in plain]
    tail, percentile, beyond = tail_of(times)
    record["jobs"] = [{k: v for k, v in j.items() if k != "error"} for j in result["jobs"]]
    record["job_tail"] = {"seconds": tail, "percentile": percentile, "jobs_beyond": beyond, "jobs": len(times)}
    record["stdout_sha256"] = {
        i.label: {
            " ".join(argv): sorted({j["digests"][k] for j in result["jobs"] if j["input"] == index})
            for k, argv in enumerate(i.commands)
        }
        for index, i in enumerate(inputs)
    }
    record["failures"] = failures[:20]
    record["setup_samples_s"] = setup

    if args.trace:
        metrics, record["layers"] = layer_metrics(result, args.workload, traced, plain)
        units = PER_LAYER
    else:
        metrics = {
            "job_p50_s": job_p50(plain),
            "jobs_per_s": len(plain) / result["elapsed"],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
    record["metrics"] = metrics
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )

    print(f"workload {args.workload}, seed {args.seed}, {len(plain)} untraced and {len(traced)} traced jobs")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:12.6g} {units[name]}")
    if not args.trace:
        print(f"  {'failed_ratio':45s} {failed / attempted:12.6g} ratio")
        print(f"  {'job_tail_s':45s} {tail:12.6g} s (p{percentile} of {len(times)} jobs, {beyond} beyond it)")
    else:
        shares = record["layers"]["module_share"]
        print("  module shares of job time: " + ", ".join(f"{m} {s:.3f}" for m, s in shares.items()))
    for failure in failures[:5]:
        print(f"  FAILED on {failure['input']}: {'; '.join(failure['problems'])[:500]}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
