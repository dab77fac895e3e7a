"""Command-line interface.

Subcommands: ``scores``, ``audit``, ``partition``, ``eval-dataset``,
and ``demo``. Inputs are JSON files (value table, sample space,
partition) or CSV datasets; the file kind is sniffed from its keys,
CSV from its extension. Every report embeds the tool version, the
tolerance in force, and a content hash of the input so results can be
tied back to exactly what produced them.

Exit codes: 0 on success, 1 on usage, parse, or validation errors,
3 when ``--fail-on-violation`` is set and an audit check failed, or
when ``partition --with-oracle`` disagrees with the exhaustive oracle.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import re
import sys
from pathlib import Path
from typing import Iterator

import numpy as np
import orjson

from . import __version__
from .axioms import audit_table, report_rows_markdown
from .dataset_eval import new_dataset, r2_value_table
from .errors import SepsetsError, TableError
from .importance import ALL_METHODS, ScoreMethod, score_vectors
from .sample_space import SampleSpace, audit_space, space_from_dict
from .separability import (
    ORACLE_MAX_FEATURES,
    maximal_partition_oracle,
    maximal_partition_reports,
    partition_to_dict,
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
from .subset_algebra import DEFAULT_TOL, Tolerance, ValueTable, table_from_dict

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_VIOLATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Exit code 1 for usage problems instead of argparse's default 2.
    def error(self, message: str) -> "typing.NoReturn":  # type: ignore[name-defined]
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        # Values near the float maximum overflow in the transforms. The
        # finiteness checks report that in one error line, which numpy's
        # warnings would only precede with lines of their own.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except json.JSONDecodeError as exc:
        print(
            f"error: {args.input}: JSON parse error at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return _EXIT_USAGE
    except (_UsageError, SepsetsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


# ---------------------------------------------------------------- input handling


def _not_utf8(path: Path) -> _UsageError:
    return _UsageError(f"{path}: not UTF-8 text")


# orjson 3.8 parses without a depth limit: an object nested 70,000 deep
# overflows the C stack and kills the process. A document is handed to it
# only when its count of "[" and "{" bytes, a bound on its depth, is at
# most the depth past which newer orjson releases reject a document.
_ORJSON_MAX_OPENERS = 1024


def _few_openers(raw: bytes) -> bool:
    """True when ``raw`` holds at most ``_ORJSON_MAX_OPENERS`` "[" and "{" bytes.

    ``bytes.find`` is a memchr: about 3 ms over a 24 MB table, where
    ``bytes.count`` takes 25 ms.
    """
    budget = _ORJSON_MAX_OPENERS
    for opener in b"[{":
        at = raw.find(opener)
        while at >= 0:
            budget -= 1
            if budget < 0:
                return False
            at = raw.find(opener, at + 1)
    return True


def _stdlib_loads(path: Path, raw: bytes) -> object:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    try:
        return json.loads(text)
    except RecursionError:
        raise _UsageError(f"{path}: JSON nested too deeply to parse") from None


def _read_json(
    args, kinds: tuple[str, ...], wrong_kind: str
) -> tuple[ValueTable | SampleSpace, str]:
    """The value table or sample space in a JSON input, and the SHA-256 of its bytes.

    ``kinds`` names the payloads the command accepts; any other is
    reported by ``wrong_kind``, formatted with the payload's ``kind``.

    orjson parses the bytes, five times faster than json on a 2^20
    table. json stays the reference, and reads every other document:
    those orjson rejects (NaN, Infinity and numbers past the float range,
    lone surrogates, a BOM, invalid UTF-8), those with too many brackets
    to hand to orjson, and those whose payload fails a ``TableError``
    check. Only those error lines quote numbers from the payload, and
    orjson turns integers wider than 64 bits into floats. Cap and kind
    errors are the same from either parser, so a table over the cap is
    not parsed twice.
    """

    def build(payload: object) -> ValueTable | SampleSpace:
        kind = _sniff(payload)
        if kind not in kinds:
            raise _UsageError(wrong_kind.format(kind=kind))
        from_dict = table_from_dict if kind == "table" else space_from_dict
        return from_dict(payload)

    raw = args.input.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if _few_openers(raw):
        try:
            return build(orjson.loads(raw)), digest
        except (orjson.JSONDecodeError, TableError):
            pass
    return build(_stdlib_loads(args.input, raw)), digest


def _sniff(payload: dict) -> str:
    if not isinstance(payload, dict):
        raise _UsageError("input JSON must be an object")
    if "values" in payload:
        return "table"
    if "instances" in payload:
        return "space"
    if "blocks" in payload:
        return "partition"
    raise _UsageError(
        'unrecognized input: expected keys "values" (table), "instances" '
        '(sample space), or "blocks" (partition)'
    )


def _csv_reader(raw: bytes):
    return csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline=""))


def _nonblank(rows: Iterator[list[str]]) -> Iterator[list[str]]:
    return (r for r in rows if r and any(cell.strip() for cell in r))


def _csv_rows(path: Path, raw: bytes) -> Iterator[list[str]]:
    """Nonblank CSV rows, one at a time; csv-module errors become usage errors."""
    reader = _csv_reader(raw)
    try:
        yield from _nonblank(reader)
    except csv.Error as exc:  # an oversized field, or NUL before Python 3.11
        raise _UsageError(f"{path}: line {reader.line_num}: {exc}") from None


def _columns(
    path: Path, header: list[str], target: str, weight_col: str | None
) -> tuple[list[str], list[int], int, int | None]:
    """The feature names, and the indices of the feature, target and
    weight columns, of a checked header row of stripped names."""
    seen: set[str] = set()
    for name in header:
        if name in seen:
            raise _UsageError(f"{path}: column {name!r} appears more than once in the header")
        seen.add(name)
    if target not in header:
        raise _UsageError(f"{path}: no column named {target!r}; columns are {header}")
    if weight_col is not None and weight_col not in header:
        raise _UsageError(f"{path}: no column named {weight_col!r}; columns are {header}")
    if weight_col == target:
        raise _UsageError(f"{path}: column {target!r} cannot be both the target and the weights")
    feature_names = [h for h in header if h != target and h != weight_col]
    if not feature_names:
        raise _UsageError(f"{path}: no feature columns remain")
    w_idx = header.index(weight_col) if weight_col is not None else None
    return feature_names, [header.index(h) for h in feature_names], header.index(target), w_idx


# The bytes a CSV body may hold for orjson to read its lines: those of
# JSON numbers and of strings without escapes, commas, and the blanks and
# line ends JSON allows between values.
_JSON_ROW_BYTES = b'0123456789+-.eE", \t\r\n'

# An integer -0, which orjson reads as 0 and float() as -0.0. An exponent
# "e-0" is read alike by both.
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?![\d.eE])(?<![eE]-0)")

# Lines per orjson call. One call on a whole body of 2000 rows of 14
# cells holds every row as Python floats at once: 1.6 MB more at peak.
_BLOCK_LINES = 256


def _fast_csv(raw: bytes) -> tuple[list[str], np.ndarray] | None:
    """The header row and the numeric body of a CSV file, the body's
    lines read by orjson as JSON arrays; None where the row walk must decide.

    The csv module reads the header. orjson is trusted only where it
    reads the cells the walk would read. Files it may read differently go
    to the walk: those with a body byte outside ``_JSON_ROW_BYTES``, an
    integer -0, a quote after a blank (the csv module keeps it in the
    cell, JSON opens a string), a lone CR (the csv module ends a line
    there), or a comma-free run of bytes that may reach the csv module's
    field limit. Every cell orjson reads as a number lies in such a run,
    so no field the walk would see exceeds the limit.

    A quoted cell arrives as a JSON string, which ``float()`` converts.
    Lines of blanks and commas are dropped, as the walk drops them. Any
    other line the walk drops (``"",""``) or reads (``.5``) fails here.
    """
    if b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n"):
        return None
    # A run of 2 * step bytes holds a whole aligned block of step bytes,
    # so when each block holds a comma, every comma-free run is shorter.
    step = csv.field_size_limit() // 2
    if any(raw.find(b",", at, at + step) < 0 for at in range(0, len(raw) - step + 1, step)):
        return None
    reader = _csv_reader(raw)
    try:
        header = next(_nonblank(reader), None)
    except csv.Error:
        return None
    if header is None:
        return None
    # Every line ends at a LF, so the body is the lines past the header's.
    lines = [line for line in raw.split(b"\n")[reader.line_num :] if line.strip(b" \t\r,")]
    if not lines:
        return None
    values = np.empty((len(lines), len(header)))
    try:
        for at in range(0, len(lines), _BLOCK_LINES):
            text = b"\n".join(lines[at : at + _BLOCK_LINES])
            quoted = b'"' in text
            if (
                text.translate(None, _JSON_ROW_BYTES)
                or _INTEGER_MINUS_ZERO.search(text)
                or quoted and (b' "' in text or b'\t"' in text)
            ):
                return None
            rows = orjson.loads(b"[[" + text.replace(b"\n", b"],[") + b"]]")
            if quoted:
                rows = [[float(c) if isinstance(c, str) else c for c in row] for row in rows]
            block = np.array(rows, dtype=np.float64)
            if block.shape[1] != len(header):
                return None
            values[at : at + len(rows)] = block
    except ValueError:  # orjson.JSONDecodeError, a cell float() rejects, or a ragged block
        return None
    return [h.strip() for h in header], values


def _walk_csv(
    path: Path, raw: bytes, target: str, weight_col: str | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, list[str]]:
    """The reference parse: one ``float()`` call per cell, and malformed
    cells reported by coordinate."""
    rows = _csv_rows(path, raw)
    header, first = next(rows, None), next(rows, None)
    if first is None:
        raise _UsageError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in header]
    feature_names, f_idx, t_idx, w_idx = _columns(path, header, target, weight_col)

    def parse(cell: str, row_no: int, col_name: str) -> float:
        try:
            return float(cell)
        except ValueError:
            raise _UsageError(
                f"{path}: row {row_no}, column {col_name!r}: "
                f"could not parse {cell.strip()!r} as a number"
            ) from None

    X, y, w = [], [], []
    for row_no, row in enumerate(itertools.chain([first], rows), start=2):
        if len(row) != len(header):
            raise _UsageError(
                f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
            )
        X.append([parse(row[i], row_no, header[i]) for i in f_idx])
        y.append(parse(row[t_idx], row_no, target))
        if w_idx is not None:
            w.append(parse(row[w_idx], row_no, weight_col))
    return np.array(X), np.array(y), np.array(w) if w_idx is not None else None, feature_names


def _load_csv(
    path: Path, raw: bytes, target: str, weight_col: str | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, list[str], float]:
    """CSV file contents to arrays, and the raw sum of the weights.

    Bytes that are not UTF-8 anywhere in the file are one error, decided
    before the header is read. orjson reads the body of a file of plain
    numbers; the row walk decides every file orjson rejects or is not
    trusted with, so values and error lines are the walk's.
    """
    if not raw.isascii():  # ASCII is UTF-8; the check builds no decoded copy
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
    parsed = _fast_csv(raw)
    if parsed is None:
        X, y, weights, feature_names = _walk_csv(path, raw, target, weight_col)
    else:
        # orjson read the whole file, so the walk would reach the header
        # checks too and fail them the same way.
        header, body = parsed
        feature_names, f_idx, t_idx, w_idx = _columns(path, header, target, weight_col)
        X = body[:, f_idx]
        # Contiguous, as the walk's arrays are: a strided sum may add its
        # terms in another order.
        y = body[:, t_idx].copy()
        weights = body[:, w_idx].copy() if w_idx is not None else None
    # Huge weights sum to inf, and the note says so.
    raw_sum = float(weights.sum()) if weights is not None else 1.0
    return X, y, weights, feature_names, raw_sum


def _csv_table(args) -> tuple[ValueTable, int, list[str], list[str], str]:
    """The fit-quality table of a CSV dataset, held to the table cap.

    Returns the table, the row count, the feature names, notes for the
    report and the input digest.
    """
    raw = args.input.read_bytes()
    X, y, w, names, raw_sum = _load_csv(args.input, raw, args.target, args.weight_col)
    data = new_dataset(X, y, w)
    table = r2_value_table(data)
    notes = []
    if w is not None and abs(raw_sum - 1.0) > 1e-12:
        notes.append(f"weight column summed to {raw_sum:.12g}; weights normalized")
    return table, data.m, names, notes, hashlib.sha256(raw).hexdigest()


def _table_from_input(args) -> tuple[ValueTable, str, dict]:
    """A value table from either a JSON table file or a CSV dataset."""
    if args.input.suffix.lower() == ".csv":
        if args.target is None:
            raise _UsageError("CSV input needs --target")
        table, _, names, notes, digest = _csv_table(args)
        extras: dict = {"features": names}
        if notes:
            extras["notes"] = notes
        return table, digest, extras
    table, digest = _read_json(
        args, ("table",), "expected a value table or CSV dataset, got a {kind} file"
    )
    return table, digest, {}


def _methods(args) -> tuple[ScoreMethod, ...]:
    """The requested rules, each once in first-named order; all four by default."""
    if args.method is None:
        return ALL_METHODS
    return tuple(dict.fromkeys(ScoreMethod.parse(name) for name in args.method))


def _emit(args, command: str, digest: str | None, report: dict, markdown: str) -> None:
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
        args.out.write_text(text, encoding="utf-8")
    sys.stdout.write(text)


# ---------------------------------------------------------------- subcommands


def run_scores(args) -> int:
    table, digest, extras = _table_from_input(args)
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
    _emit(args, "scores", digest, report, "\n".join(lines) + "\n")
    return _EXIT_OK


def run_audit(args) -> int:
    notes: list[str] = []
    methods = _methods(args)

    if args.input.suffix.lower() == ".csv":
        raise _UsageError("audit expects a value-table or sample-space JSON file")
    loaded, digest = _read_json(
        args, ("table", "space"), "audit expects a value table or sample space, got a {kind} file"
    )
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
    if args.input.suffix.lower() == ".csv":
        raise _UsageError("partition expects a value-table JSON file")
    table, digest = _read_json(args, ("table",), "partition expects a value-table JSON file")
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
    if args.partition_out is not None:
        args.partition_out.write_text(
            json.dumps(partition_to_dict(partition), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    lines = ["| block | separable | worst context | worst residual |", "| --- | --- | --- | --- |"]
    for entry in report["block_reports"]:
        lines.append(
            f"| {entry['block']} | {'yes' if entry['separable'] else 'NO'} "
            f"| {entry['worst_context']} | {entry['worst_residual']:.12g} |"
        )
    _emit(args, "partition", digest, report, "\n".join(lines) + "\n")
    return _EXIT_OK


def _table_json(table: ValueTable) -> bytes:
    """``json.dumps(table_to_dict(table), indent=2, sort_keys=True) + "\\n"``, byte for byte.

    orjson writes the values. Its text equals ``float.__repr__``, which
    json writes, for zeros and for 1e-4 <= |x| < 1e16. It writes every
    other value as null, and that value's repr takes the null's place.
    The line breaks come last; no float's text contains ",". Each step
    rebinds ``text``, so the copy it was made from is freed at once.
    """
    values = table.values
    odd = (values != 0) & ((np.abs(values) < 1e-4) | (np.abs(values) >= 1e16))
    text = orjson.dumps(np.where(odd, np.nan, values), option=orjson.OPT_SERIALIZE_NUMPY)
    if odd.any():
        pieces = text.split(b"null")
        tokens = [b""] * (2 * len(pieces) - 1)
        tokens[0::2] = pieces
        tokens[1::2] = map(str.encode, map(repr, values[odd].tolist()))
        text = b"".join(tokens)
    text = text.replace(b",", b",\n    ")
    head = b'{\n  "n": %d,\n  "values": [\n    ' % table.n
    return b"".join((head, memoryview(text)[1:-1], b"\n  ]\n}\n"))


def run_eval_dataset(args) -> int:
    if args.input.suffix.lower() != ".csv":
        raise _UsageError("eval-dataset expects a CSV file")
    table, rows, names, notes, digest = _csv_table(args)
    args.table_out.write_bytes(_table_json(table))
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
    _emit(args, "eval-dataset", digest, report, "\n".join(lines) + "\n")
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
