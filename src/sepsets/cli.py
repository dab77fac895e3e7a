"""Command-line interface.

Subcommands: ``scores``, ``audit``, ``partition``, ``eval-dataset``,
and ``demo``.

Exit codes: 0 on success, 1 on usage, parse, or validation errors,
3 when ``--fail-on-violation`` is set and an audit check failed, or
when ``partition --with-oracle`` disagrees with the exhaustive oracle.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .axioms import audit_table, report_rows_markdown
from .errors import SepsetsError, TableError
from .importance import ALL_METHODS, ScoreMethod, score_vectors
from .inputs import _UsageError, partition_to_dict, read_input, table_json
from .sample_space import audit_space
from .separability import (
    ORACLE_MAX_FEATURES,
    maximal_partition_oracle,
    maximal_partition_reports,
)
from .scenarios import (
    ColliderParams,
    ScenarioReport,
    demo_collider,
    demo_mci_nonlinearity,
    demo_toy_separable,
    demo_twin_features,
    render_scenario_markdown,
)
from .subset_algebra import DEFAULT_TOL, Tolerance, ValueTable

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    # Exit code 1 for usage problems instead of argparse's default 2.
    def error(self, message: str) -> NoReturn:
        raise _UsageError(message)


def _tolerance(text: str) -> Tolerance:
    """The ``--tol`` flag, checked while the arguments are parsed."""
    try:
        return Tolerance(float(text))
    except TableError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    shown = np.format_float_scientific(DEFAULT_TOL.absolute, trim="-", exp_digits=1)
    p.add_argument(
        "--tol", type=_tolerance, default=DEFAULT_TOL, help=f"absolute tolerance (default {shown})"
    )
    p.add_argument(
        "--output",
        choices=("json", "markdown"),
        default="json",
        help="report format on stdout (default json)",
    )
    p.add_argument("--out", type=Path, default=None, help="also write the report to this file")


def _add_methods(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--method",
        action="append",
        choices=[m.value for m in ALL_METHODS],
        default=None,
        help="scoring rule; repeatable, defaults to all four",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sepsets", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sepsets {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scores = sub.add_parser("scores", help="importance scores of a table or CSV dataset")
    p_scores.add_argument("input", type=Path)
    p_scores.add_argument("--target", default=None, help="CSV target column name")
    p_scores.add_argument("--weight-col", default=None, help="CSV weight column name")
    _add_methods(p_scores)
    _add_common(p_scores)
    p_scores.set_defaults(func=run_scores)

    p_audit = sub.add_parser("audit", help="axiom audit of a table or sample space")
    p_audit.add_argument("input", type=Path)
    p_audit.add_argument(
        "--fail-on-violation",
        action="store_true",
        help="exit with code 3 when any check fails",
    )
    _add_methods(p_audit)
    _add_common(p_audit)
    p_audit.set_defaults(func=run_audit)

    p_part = sub.add_parser("partition", help="maximal separable partition of a table")
    p_part.add_argument("input", type=Path)
    p_part.add_argument(
        "--with-oracle",
        action="store_true",
        help=f"cross-check against exhaustive enumeration (n <= {ORACLE_MAX_FEATURES})",
    )
    p_part.add_argument(
        "--partition-out", type=Path, default=None, help="write the partition file here"
    )
    _add_common(p_part)
    p_part.set_defaults(func=run_partition)

    p_eval = sub.add_parser("eval-dataset", help="derive a value table from a CSV dataset")
    p_eval.add_argument("input", type=Path)
    p_eval.add_argument("--target", required=True, help="target column name")
    p_eval.add_argument("--weight-col", default=None, help="weight column name")
    p_eval.add_argument(
        "--table-out", type=Path, required=True, help="write the value-table file here"
    )
    _add_common(p_eval)
    p_eval.set_defaults(func=run_eval_dataset)

    p_demo = sub.add_parser("demo", help="run a built-in scenario")
    scenarios = p_demo.add_subparsers(dest="name", required=True)
    for name, scenario in (
        ("mci-nonlinearity", lambda args, tol: demo_mci_nonlinearity(tol)),
        ("twin-features", lambda args, tol: demo_twin_features(tol)),
        ("collider", _collider),
        ("toy-separable", lambda args, tol: demo_toy_separable(tol)),
    ):
        scenarios.add_parser(name).set_defaults(func=run_demo, scenario=scenario)
    p_col, d = scenarios.choices["collider"], ColliderParams()
    p_col.add_argument("--p-smoke", type=float, default=d.p_smoke)
    p_col.add_argument("--p-earache", type=float, default=d.p_earache)
    (g00, g01), (g10, g11) = d.p_gum
    p_col.add_argument("--p-gum-00", type=float, default=g00, help="P(gum | no smoke, no earache)")
    p_col.add_argument("--p-gum-01", type=float, default=g01, help="P(gum | no smoke, earache)")
    p_col.add_argument("--p-gum-10", type=float, default=g10, help="P(gum | smoke, no earache)")
    p_col.add_argument("--p-gum-11", type=float, default=g11, help="P(gum | smoke, earache)")
    c0, c1 = d.p_cancer
    p_col.add_argument("--p-cancer-0", type=float, default=c0, help="P(cancer | no smoke)")
    p_col.add_argument("--p-cancer-1", type=float, default=c1, help="P(cancer | smoke)")
    for p in scenarios.choices.values():
        _add_common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that every :func:`main` call in a process shares: parsing
    returns a fresh namespace and leaves the parser as it was, so one built
    parser serves them all."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        # Values near the float maximum overflow in the transforms. The
        # finiteness checks report that in one error line, which numpy's
        # warnings would only precede with lines of their own.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (SepsetsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


def _methods(args) -> tuple[ScoreMethod, ...]:
    """The requested rules, each once in first-named order; all four by default."""
    if args.method is None:
        return ALL_METHODS
    return tuple(dict.fromkeys(ScoreMethod.parse(name) for name in args.method))


def _file_key(path: Path):
    """One key for a file under any of its names (a hard link too); a
    file that does not exist yet is keyed by its resolved path."""
    try:
        stat = path.stat()
    except OSError:
        return path.resolve()
    return stat.st_dev, stat.st_ino


def _emit(args, command: str, digest: str | None, report: dict, markdown: str, files=()) -> None:
    """Write ``files``, (path, bytes) pairs, and the report to ``--out``,
    then print the report. Two of them naming one file, or one naming the
    input file, are refused before any is written. Every file is written
    before stdout; a failed write unlinks the files already written and
    re-raises."""
    envelope = {
        "tool": "sepsets",
        "version": __version__,
        "command": command,
        "tolerance": args.tol.absolute,
        "input_sha256": digest,
        "report": report,
    }
    if args.output == "json":
        text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    else:
        head = [
            f"# sepsets {command}",
            "",
            f"- version: {__version__}",
            f"- tolerance: {args.tol.absolute:.12g}",
        ]
        if digest is not None:
            head.append(f"- input sha256: {digest}")
        text = "\n".join(head) + "\n\n" + markdown
    if args.out is not None:
        files = [*files, (args.out, text.encode("utf-8"))]
    # A demo reads no input file.
    source = _file_key(args.input) if hasattr(args, "input") else None
    seen = set()
    for path, _ in files:
        key = _file_key(path)
        if key == source:
            raise _UsageError(f"{path} names the input file")
        if key in seen:
            raise _UsageError(f"{path} is named for more than one output file")
        seen.add(key)
    written = []
    try:
        for path, data in files:
            path.write_bytes(data)
            written.append(path)
    except OSError:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    sys.stdout.write(text)


# ---------------------------------------------------------------- subcommands


def run_scores(args) -> int:
    got = read_input(args.input, "scores", ("table", "csv"), args.target, args.weight_col)
    table = got.loaded
    # A CSV dataset's feature names, and its notes if it has any.
    extras = {key: v for key, v in (("features", got.features), ("notes", got.notes)) if v}
    methods = _methods(args)
    per_method: dict = {}
    for m, vec in score_vectors(methods, table).items():
        entry: dict = {"scores": [float(x) for x in vec.scores]}
        if vec.witnesses is not None:
            entry["witness_contexts"] = list(vec.witnesses)
        per_method[m.value] = entry
    report = {"n": table.n, **extras, "methods": per_method}

    lines = ["| feature | " + " | ".join(m.value for m in methods) + " |"]
    lines.append("| --- |" + " --- |" * len(methods))
    for f in range(table.n):
        cells = " | ".join(f"{per_method[m.value]['scores'][f]:.12g}" for m in methods)
        lines.append(f"| {f} | {cells} |")
    _emit(args, "scores", got.digest, report, "\n".join(lines) + "\n")
    return _EXIT_OK


def run_audit(args) -> int:
    notes: list[str] = []
    methods = _methods(args)
    loaded, digest = read_input(args.input, "audit", ("table", "space"))[:2]
    if isinstance(loaded, ValueTable):
        rows, _ = audit_table(loaded, "table", methods, args.tol)
    else:
        rows = audit_space(loaded, methods, args.tol)
        notes.append(
            "value consistency compares the aggregated global table against itself; "
            "it fails only for an externally supplied claim"
        )

    violations = [label for label, rep in rows if not rep.passed]
    report = {
        "checks": [{"check": label, **rep.to_dict()} for label, rep in rows],
        "violations": violations,
        "notes": notes,
    }
    _emit(args, "audit", digest, report, report_rows_markdown(rows))
    if violations and args.fail_on_violation:
        return _EXIT_VIOLATION
    return _EXIT_OK


def run_partition(args) -> int:
    table, digest = read_input(args.input, "partition", ("table",))[:2]
    partition, block_reports = maximal_partition_reports(table, args.tol)
    report = {
        "partition": partition_to_dict(partition),
        "block_reports": [
            {
                "block": list(rep_block),
                "separable": rep.separable,
                "worst_context": rep.worst_T,
                "worst_residual": rep.worst_residual,
            }
            for rep_block, rep in zip(partition.block_indices(), block_reports)
        ],
    }
    if args.with_oracle:
        oracle = maximal_partition_oracle(table, args.tol)
        agrees = oracle.blocks == partition.blocks
        report["oracle"] = {"blocks": partition_to_dict(oracle)["blocks"], "agrees": agrees}
        if not agrees:
            print(
                f"error: oracle disagreement: fast {partition.block_indices()} "
                f"vs exhaustive {oracle.block_indices()}",
                file=sys.stderr,
            )
            return _EXIT_VIOLATION
    files = []
    if args.partition_out is not None:
        text = json.dumps(partition_to_dict(partition), indent=2, sort_keys=True) + "\n"
        files.append((args.partition_out, text.encode("utf-8")))

    lines = ["| block | separable | worst context | worst residual |", "| --- | --- | --- | --- |"]
    for entry in report["block_reports"]:
        lines.append(
            f"| {entry['block']} | {'yes' if entry['separable'] else 'NO'} "
            f"| {entry['worst_context']} | {entry['worst_residual']:.12g} |"
        )
    _emit(args, "partition", digest, report, "\n".join(lines) + "\n", files)
    return _EXIT_OK


def run_eval_dataset(args) -> int:
    table, digest, rows, names, notes = read_input(
        args.input, "eval-dataset", ("csv",), args.target, args.weight_col
    )
    report = {
        "rows": rows,
        "n": table.n,
        "features": names,
        "empty_set_value": float(table.values[0]),
        "full_set_value": float(table.values[table.full_mask]),
        "table_file": str(args.table_out),
        "notes": notes,
    }
    lines = [
        f"- rows: {rows}",
        f"- features: {', '.join(names)}",
        f"- full-set value: {report['full_set_value']:.12g}",
        f"- table written to: {args.table_out}",
    ]
    lines += [f"- note: {n}" for n in notes]
    files = [(args.table_out, table_json(table))]
    _emit(args, "eval-dataset", digest, report, "\n".join(lines) + "\n", files)
    return _EXIT_OK


def _collider(args, tol: Tolerance) -> ScenarioReport:
    params = ColliderParams(
        p_smoke=args.p_smoke,
        p_earache=args.p_earache,
        p_gum=((args.p_gum_00, args.p_gum_01), (args.p_gum_10, args.p_gum_11)),
        p_cancer=(args.p_cancer_0, args.p_cancer_1),
    )
    return demo_collider(params, tol)


def run_demo(args) -> int:
    report = args.scenario(args, args.tol)
    digest = hashlib.sha256(
        json.dumps(report.inputs, sort_keys=True).encode("utf-8")
    ).hexdigest()
    _emit(args, f"demo {args.name}", digest, report.to_dict(), render_scenario_markdown(report))
    return _EXIT_OK


if __name__ == "__main__":
    console_main()
