"""One workload's closed loop, in a fresh process of its own.

Usage: python3 bench/worker.py SPEC RESULT  (run from the work directory)

SPEC is a JSON file: ``seconds``, ``trace`` and ``inputs``, each input
holding the CLI ``commands`` of one job and its ``extra_outputs``. The
worker runs one untimed round, one job per input, then rounds of one job
per input, in-process through ``sepsets.cli.main``, until ``seconds``
have passed. With ``trace`` set, rounds alternate between untraced and
traced, so that a drift in machine speed during the run weighs on both
alike, and the run ends after a traced round. Outputs are kept once per
distinct SHA-256 and checked by the caller, not here, so checking costs
neither time nor memory in this process. RESULT gets the job records,
the distinct outputs, the peak RSS and, when traced, the spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import sepsets.cli

from spans import Tracer, instrument


def run_job(inp: dict, tracer: Tracer | None) -> tuple[float, bool, list[str], str]:
    """Run one job's commands; returns seconds, ok, outputs, and any error text."""
    stdouts = []
    errors = io.StringIO()
    ok = True
    root = tracer.start_job() if tracer is not None else None
    start = time.perf_counter()
    for argv in inp["commands"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errors):
            try:
                code = sepsets.cli.main(argv)
            except Exception:  # a crash is a failed job, not a failed benchmark
                code = None
                traceback.print_exc(file=errors)
        ok = ok and code == 0
        stdouts.append(out.getvalue())
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.close(root)
    for name in inp["extra_outputs"]:
        try:
            stdouts.append(Path(name).read_text(encoding="utf-8"))
        except OSError as exc:
            ok = False
            stdouts.append("")
            errors.write(f"{name}: {exc}\n")
    return seconds, ok, stdouts, errors.getvalue()


def run_rounds(inputs: list, seconds: float, tracer: Tracer | None, jobs: list, outputs: dict) -> float:
    """Whole rounds until ``seconds`` have passed; returns the seconds taken.

    With a tracer, odd rounds run traced.
    """
    start = time.perf_counter()
    for round_no in itertools.count():
        traced = tracer is not None and round_no % 2 == 1
        undo = instrument(tracer) if traced else None
        for index, inp in enumerate(inputs):
            took, ok, texts, error = run_job(inp, tracer if traced else None)
            digests = []
            for text in texts:
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                outputs.setdefault(digest, text)
                digests.append(digest)
            phase = "traced" if traced else "plain"
            jobs.append({"phase": phase, "input": index, "seconds": took, "ok": ok, "digests": digests, "error": error})
        if undo is not None:
            undo()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (tracer is None or traced):
            return elapsed


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    jobs: list = []
    outputs: dict = {}
    run_rounds(spec["inputs"], 0.0, None, jobs, outputs)
    for job in jobs:
        job["phase"] = "warmup"
    tracer = Tracer() if spec["trace"] else None
    elapsed = run_rounds(spec["inputs"], spec["seconds"], tracer, jobs, outputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "sepsets_file": sepsets.cli.__file__,
        "jobs": jobs,
        "elapsed": elapsed,
        "outputs": outputs,
        "peak_rss_mb": peak_rss_mb,
        "spans": tracer.spans if tracer else [],
        "counts": dict(tracer.counts) if tracer else {},
    }
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
