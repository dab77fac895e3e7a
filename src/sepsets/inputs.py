"""Every file format of sepsets. ``read_input`` reads each input file
once into a value table or a sample space; the dict forms of a value
table, a sample space and a partition are what their JSON files hold;
``table_json`` writes table files.

A JSON value table or sample space whose lists of numbers hold 4 KiB
or more each (about 200 values) is read by ``_block_read``: orjson
parses only the shell left around the lists, and ``_read_lists`` reads
them in one walk, each orjson call filled with whole lists and a piece,
cut at a comma, of the one that does not fit, straight into one float64
array, a table's or the rows of a space's stack; those parses prove
each list held only numbers. orjson parses every other JSON document
whole when it nests at most 1024 deep, and Python's json reads those
orjson rejects or is not trusted with. Only the files ``_block_read``
declines, and CSV files, are checked for UTF-8 text first.
``_json_reals`` packs the parsed numbers into the array that keeps
them: a table's own array, or an instance's row of a sample space's
stack; it looks at types only where a boolean may hide or an error
needs wording. orjson reads a CSV body of plain numbers in blocks of
lines, and the csv module's row walk reads every other CSV file. Each
fast path declines what it might read otherwise, so every value and
every error line is the reference parser's.

The file's SHA-256 runs on one helper thread while the calling thread
parses the same bytes, and ``read_input`` joins it before it returns or
raises. hashlib releases the GIL on buffers of 2 KiB or more and the
parsers hold it, so the two run on two cores at once.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import numbers
import operator
import re
import reprlib
import struct
import threading
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np
import orjson

from .dataset_eval import new_dataset, r2_value_table
from .errors import PartitionError, SepsetsError, TableError
from .sample_space import SampleSpace, _check_finite
from .separability import Partition
from .subset_algebra import ValueTable, _adopt, _check_table_array, check_feature_count


class _UsageError(SepsetsError):
    """A bad argument, or an input file of the wrong kind or form."""


class Input(NamedTuple):
    """A table or space, its file's SHA-256, and a CSV dataset's rows, features and notes."""

    loaded: ValueTable | SampleSpace
    digest: str
    rows: int | None = None
    features: list[str] | None = None
    notes: list[str] | None = None


def read_input(
    path: Path, command: str, accepts: tuple[str, ...], target=None, weight_col=None
) -> Input:
    """The file at ``path``, which ``command`` reads as one of ``accepts``:
    ``"table"`` or ``"space"`` JSON, or a ``"csv"`` dataset with ``target``.

    A ``.csv`` suffix means CSV, and any other file is JSON whose keys
    name its kind. A file of a family the command takes no kind of, or
    JSON given ``target`` or ``weight_col``, is refused unread, and one
    not UTF-8 anywhere before the whole-document parser or the CSV
    reader runs.

    The digest is the SHA-256 of the bytes parsed. One helper thread
    hashes them while this thread parses them, and is joined before this
    function returns or raises, so no thread outlives the call.
    """
    names = {"table": "value-table", "space": "sample-space"}
    json_kinds = [names[k] for k in accepts if k != "csv"]
    families = [f"a {' or '.join(json_kinds)} JSON file"] if json_kinds else []
    if "csv" in accepts:
        families.append("a CSV file")
    expects = f"{command} expects {' or '.join(families)}"
    is_csv = path.suffix.lower() == ".csv"
    if not any((kind == "csv") == is_csv for kind in accepts):
        raise _UsageError(expects)
    if is_csv and target is None:
        raise _UsageError("CSV input needs --target")
    if not is_csv and (target, weight_col) != (None, None):
        raise _UsageError("--target and --weight-col apply to CSV input only")
    raw = path.read_bytes()
    sha = hashlib.sha256()
    hasher = threading.Thread(target=sha.update, args=(raw,))
    hasher.start()
    try:
        if not is_csv:
            parsed = Input(_read_json(path, raw, accepts, expects), "")
        else:
            _check_utf8(path, raw)
            X, y, w, features, raw_sum = _load_csv(path, raw, target, weight_col)
            data = new_dataset(X, y, w)
            notes = []
            if w is not None and abs(raw_sum - 1.0) > 1e-12:
                notes.append(f"weight column summed to {raw_sum:.12g}; weights normalized")
            parsed = Input(r2_value_table(data), "", data.m, features, notes)
    finally:
        hasher.join()
    return parsed._replace(digest=sha.hexdigest())


# orjson 3.8 parses without a depth limit: an object nested 70,000 deep, or
# a list nested 10^7 deep, overflows the C stack and kills the process. A
# document is handed to it only when it nests at most as deep as newer
# orjson releases accept.
_ORJSON_MAX_OPENERS = 1024

# Bytes per step of the depth scan: each step's temporaries stay near 8 MB.
_SCAN_BYTES = 1 << 20


def _check_utf8(path: Path, raw: bytes) -> None:
    if not raw.isascii():  # ASCII is UTF-8; the check builds no decoded copy
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            raise _UsageError(f"{path}: not UTF-8 text") from None


def _shallow(raw: bytes) -> bool:
    """True when ``raw`` nests at most ``_ORJSON_MAX_OPENERS`` deep, so orjson may parse it.

    The count of "[" and "{" bytes bounds the depth, and is the first
    test; it stops one byte past the bound. ``bytes.find`` is a memchr:
    about 1 ms over a 24 MB table, where ``bytes.count`` takes 8 ms. A
    document with more is scanned with numpy, ``_SCAN_BYTES`` at a time:
    its depth is the largest count of opened "[" and "{" less closed "]"
    and "}", outside strings. Without a backslash no quote is escaped, so
    a byte lies in a string when an odd number of quotes precede it. A
    document with a backslash keeps the count. Where orjson stops at an
    error, the bytes before it are a valid start of a document and the
    scan reads their depth exactly, so orjson never nests deeper.
    """
    budget = _ORJSON_MAX_OPENERS
    for opener in b"[{":
        at = raw.find(opener)
        while at >= 0 and budget >= 0:
            budget -= 1
            at = raw.find(opener, at + 1)
    if budget >= 0:
        return True
    if b"\\" in raw:
        return False
    data = np.frombuffer(raw, np.uint8)
    depth, quotes = 0, 0
    for at in range(0, data.size, _SCAN_BYTES):
        chunk = data[at : at + _SCAN_BYTES]
        folded = chunk | 0x20  # "[" and "]" become "{" and "}"
        marks = chunk[(folded == 0x7B) | (folded == 0x7D) | (chunk == 0x22)]
        quoted = marks == 0x22
        outside = (np.cumsum(quoted) + quotes) % 2 == 0
        steps = np.where(outside & ~quoted, np.where((marks | 0x20) == 0x7B, 1, -1), 0)
        levels = np.cumsum(steps) + depth
        if levels.size:
            if levels.max() > _ORJSON_MAX_OPENERS:
                return False
            depth = int(levels[-1])
        quotes += int(quoted.sum())
    return True


def _stdlib_loads(path: Path, raw: bytes) -> object:
    try:
        return json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise _UsageError(
            f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise _UsageError(f"{path}: JSON nested too deeply to parse") from None


def _read_json(
    path: Path, raw: bytes, accepts: tuple[str, ...], expects: str
) -> ValueTable | SampleSpace:
    """The table or space in the JSON ``raw``, of a kind in ``accepts``.

    ``_block_read`` reads a table or space of plain numbers first. A file
    it declines must be UTF-8 text; one it reads is: orjson parsed every
    byte of it but the commas and brackets at its cuts, which are ASCII,
    and orjson refuses invalid UTF-8 and lone surrogates. orjson parses
    every other document whole, five times faster than json on a 2^20
    table. json stays the reference, and reads the rest: documents orjson
    rejects (NaN, Infinity and numbers past the float range, lone
    surrogates, a BOM), those nested too deeply to hand to orjson, and
    those whose payload fails a ``TableError`` check. Only those error
    lines quote numbers from the payload, and orjson turns integers wider
    than 64 bits into floats. Cap and kind errors are the same from
    either parser, so a table over the cap is not parsed twice.
    """

    def build(payload: object) -> ValueTable | SampleSpace:
        kind = _sniff(payload)
        if kind not in accepts:
            raise _UsageError(f"{expects}, got a {kind} file")
        from_dict = table_from_dict if kind == "table" else space_from_dict
        return from_dict(payload)

    if (loaded := _block_read(raw, accepts)) is not None:
        return loaded
    _check_utf8(path, raw)
    if _shallow(raw):
        try:
            return build(orjson.loads(raw))
        except (orjson.JSONDecodeError, TableError):
            pass
    return build(_stdlib_loads(path, raw))


# Values per orjson call on the lists of a document, and per struct call in
# _json_reals. One call on a whole 2^20 table holds every value as a
# Python float at once, 32 MB more at peak, and one struct call takes its
# values as one tuple of arguments.
_BLOCK_VALUES = 1 << 14

# Bytes no list of numbers holds: those of true and false, and "{", which
# opens the objects orjson 3.8 may nest past its stack.
_NOT_IN_NUMBERS = (b"t", b"f", b"{")

# The shortest list _block_read reads, about 200 values, more than the 128
# of an n=7 table. Each list it reads apart costs a cut, a piece of the
# shell and a piece of a call: spaces of 16 values an instance read 1.5x
# slower than the whole parse, 128 at par, and 256 or more 3-11% faster.
_MIN_LIST_BYTES = 1 << 12


def _read_lists(raw: bytes, spans: list[tuple[int, int]], out: np.ndarray) -> bool:
    """Pack the lists ``raw[s : e + 1]`` of ``spans``, in order, into the
    float64 array ``out``; False unless each held ``out.size // len(spans)``
    numbers. No span may hold a "[" past its first byte.

    One walk fills each orjson call with about ``_BLOCK_VALUES`` values
    and packs them as doubles. A call takes whole lists while they fit,
    with a null between each two, and cuts the one that does not fit at
    the first comma past its room; the rest starts the next call. So each
    null ends a list, and a call ends mid-list or at the last list's end.
    No call's text holds a "t", "f" or "{", so no item is true or false,
    which would pack as 1.0 and 0.0. The nulls must fill exactly the
    places every ``size + 1`` items from where the first piece's list
    ends if it holds ``size``, and are dropped; any other null, string,
    object or list fails the packing. So each call read only numbers, and
    a list of numbers is number text, commas and blanks (RFC 8259 section
    5): no cut fell inside a value, and each list but the last ended after
    a multiple of ``size`` numbers. orjson refuses an empty piece next to
    a null, and an empty call is refused, so those ends increase, and the
    last is ``out.size``: each list held ``size`` numbers.
    """
    size, stop = out.size // len(spans), spans[-1][1]
    # Bytes per call, for calls of about _BLOCK_VALUES values.
    step = max(1, (stop - spans[0][0]) * _BLOCK_VALUES // out.size)
    view, filled, parts, room = memoryview(raw), 0, [b"["], step
    try:
        for start, end in spans:
            start += 1
            while start <= end:
                # Up to the first comma past the room, or the rest of the list.
                cut = raw.find(b",", start + room, end)
                cut = end if cut < 0 else cut
                parts.append(view[start:cut])
                room = max(0, room - (cut - start))
                if cut == end != stop:
                    parts.append(b",null,")
                    break
                parts.append(b"]")
                text = b"".join(parts)
                if any(text.find(byte) >= 0 for byte in _NOT_IN_NUMBERS):
                    return False
                items = orjson.loads(text)
                # The places of the nulls between pieces, each after a list's last number.
                first = size - filled % size
                if not items or items[first :: size + 1] != [None] * (len(parts) // 2 - 1):
                    return False
                del items[first :: size + 1]
                # A struct.error: past the end of the array, or not a number.
                struct.pack_into(f"{len(items)}d", out, 8 * filled, *items)
                filled += len(items)
                parts, room, start = [b"["], step, cut + 1
    except (ValueError, struct.error):  # ValueError: a JSONDecodeError
        return False
    return filled == out.size


def _block_read(raw: bytes, accepts: tuple[str, ...]) -> ValueTable | SampleSpace | None:
    """The value table or sample space in ``raw``, of a kind in ``accepts``,
    its lists read by ``_read_lists`` straight into one float64 array, a
    table's or the rows of a space's (k, 2^n) stack; None where the
    whole-document parse must decide.

    The lists read are the file's innermost ones: each "[" whose next
    bracket is a "]". A list under ``_MIN_LIST_BYTES``, or more than
    ``_ORJSON_MAX_OPENERS`` other "[" bytes, declines the file before a
    shell is built. The shell is ``raw`` with those k lists emptied, and
    must hold the "values" key k times. orjson parses it, and it must be
    an object with an "n" within the cap. With a "values" key it is a
    table, as ``_sniff`` reads it, whose "values" is an empty list and k
    is 1. Any other is a space, with an "instances" list of k objects,
    each with a "weight" and an empty "values" list. ``_read_lists``
    proves the k lists held only numbers, 2^n each, so no quote. An empty
    list in the shell is a "[" with only blanks before its "]": in the
    file that is an innermost list, one of the k. So the k empty lists
    named are the k lists, in order, each outside every string; and any
    other list of the file would hold an innermost one, so there is none.
    Any other document, a weight that is not a number, or a table or
    space with a value that is not finite goes to the whole parse, so
    every value and error line is its own.
    """
    spans, others, close = [], 0, -1
    at = raw.find(b"[")
    while at >= 0:
        after = raw.find(b"[", at + 1)
        if close < at:
            close = raw.find(b"]", at + 1)
            if close < 0:
                break
        if 0 <= after < close:
            others += 1
            if others > _ORJSON_MAX_OPENERS:
                return None
        elif close - at < _MIN_LIST_BYTES:
            return None
        else:
            spans.append((at, close))
        at = after
    if not spans:
        return None
    view = memoryview(raw)
    starts = [0] + [end for _, end in spans]
    stops = [start + 1 for start, _ in spans] + [len(raw)]
    shell = b"".join(map(view.__getitem__, map(slice, starts, stops)))
    if shell.count(b'"values"') != len(spans) or not _shallow(shell):
        return None
    try:
        payload = orjson.loads(shell)
        n = payload["n"]
        check_feature_count(n)
        # A list of m numbers takes at least 2m + 1 bytes, so no more are allocated.
        if len(raw) < len(spans) << (n + 1):
            return None
        if "values" in payload:
            if "table" not in accepts or payload["values"] != [] or len(spans) != 1:
                return None
            values = np.empty(1 << n)
            if not _read_lists(raw, spans, values) or not np.all(np.isfinite(values)):
                return None
            return _adopt(ValueTable, n, values)
        rows = payload["instances"]
        if "space" not in accepts or type(rows) is not list or len(rows) != len(spans):
            return None
        if set(map(type, rows)) != {dict}:
            return None
        if list(map(operator.itemgetter("values"), rows)).count([]) != len(rows):
            return None
        weights = list(map(operator.itemgetter("weight"), rows))
        weights = _json_reals(weights, "weight", np.empty(len(rows)))
        values = np.empty((len(rows), 1 << n))
        if not _read_lists(raw, spans, values.reshape(-1)):
            return None
        return SampleSpace(n, weights, values)
    # A JSONDecodeError or SepsetsError, or a shell of another form.
    except (ValueError, TypeError, KeyError):
        return None


def table_to_dict(table: ValueTable) -> dict:
    """JSON-ready form: ``{"n": ..., "values": [...]}`` in mask order."""
    return {"n": table.n, "values": [float(v) for v in table.values]}


def _json_reals(items: list, what: str, out: np.ndarray) -> np.ndarray:
    """``out``, a float64 array of ``len(items)`` entries, with the JSON numbers
    ``items`` packed into it; a string, object, array, null or boolean is an error.

    The packing refuses all of these but booleans, which pack as 1.0 and
    0.0, so types are looked at only to find a boolean or to word an error:
    those of a run's entries that packed as 0.0 or 1.0, and all of them
    after a run fails to pack.
    """

    def real(kind: type) -> bool:
        return issubclass(kind, numbers.Real) and not issubclass(kind, bool)

    def check(indices: Iterable[int]) -> None:
        picked = list(map(items.__getitem__, indices))
        # One check per distinct element type keeps this cheap on 2^20 values.
        if not all(map(real, set(map(type, picked)))):
            at = next(i for i, x in zip(indices, picked) if not real(type(x)))
            got = reprlib.repr(items[at])
            raise TableError(f"{what} at index {at} must be a number, got {got}")

    try:
        for at in range(0, len(items), _BLOCK_VALUES):
            run = items[at : at + _BLOCK_VALUES]
            struct.pack_into(f"{len(run)}d", out, 8 * at, *run)
            packed = out[at : at + len(run)]
            check((at + np.flatnonzero((packed == 0.0) | (packed == 1.0))).tolist())
    except struct.error:  # not a number, or an integer past the float range
        check(range(len(items)))
        raise TableError(f"every {what} must lie within the float range") from None
    return out


def table_from_dict(payload: dict) -> ValueTable:
    """Parse the dict form produced by :func:`table_to_dict` into the table's own array."""
    if not isinstance(payload, dict) or "n" not in payload or "values" not in payload:
        raise TableError('a value table needs keys "n" and "values"')
    n = payload["n"]
    check_feature_count(n)
    items = payload["values"]
    if not isinstance(items, (list, tuple)):
        raise TableError('"values" must be a list of reals in mask order')
    values = _json_reals(items, "value", np.empty(len(items)))
    return _adopt(ValueTable, n, _check_table_array(values, n))


def space_to_dict(space: SampleSpace) -> dict:
    """JSON-ready form mirroring the on-disk sample-space format."""
    rows = zip(space.weights.tolist(), space.values)
    return {"n": space.n, "instances": [{"weight": w, "values": v.tolist()} for w, v in rows]}


def space_from_dict(payload: dict) -> SampleSpace:
    """Parse the dict form of :func:`space_to_dict`, each instance packed
    straight into its row of one (k, 2^n) array."""
    if not isinstance(payload, dict) or "n" not in payload or "instances" not in payload:
        raise TableError('a sample space needs keys "n" and "instances"')
    n = payload["n"]
    check_feature_count(n)
    rows = payload["instances"]
    if not isinstance(rows, list) or not rows:
        raise TableError('"instances" must be a nonempty list')

    def has(key: str) -> bool:
        return all(map(dict.__contains__, rows, itertools.repeat(key)))

    if not (all(map(isinstance, rows, itertools.repeat(dict))) and has("weight") and has("values")):
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or "weight" not in row or "values" not in row:
                raise TableError(f'instance {i} needs keys "weight" and "values"')
    weights = list(map(operator.itemgetter("weight"), rows))
    weights = _json_reals(weights, "weight", np.empty(len(rows)))
    cells = list(map(operator.itemgetter("values"), rows))
    size, lists = 1 << n, (list, tuple)
    if all(map(isinstance, cells, itertools.repeat(lists))) and set(map(len, cells)) == {size}:
        fit = len(cells)
    else:  # No row past the first instance of the wrong length, which is refused.
        fit = next(i for i, c in enumerate(cells) if not isinstance(c, lists) or len(c) != size)
    values = np.empty((fit, size))
    # Instances are packed in runs of about _BLOCK_VALUES values, at least one
    # instance each. A run that fails, or that holds the first instance of the
    # wrong length, is packed instance by instance to find and word the error.
    per, flat = max(1, _BLOCK_VALUES >> n), values.reshape(-1)
    for at in range(0, len(cells), per):
        run = cells[at : at + per]
        if at + len(run) <= fit:
            items = list(itertools.chain.from_iterable(run))
            try:
                _json_reals(items, "value", flat[at << n : (at << n) + len(items)])
                continue
            except TableError:
                pass
        for i, items in enumerate(run, at):
            try:
                if not isinstance(items, lists):
                    raise TableError('"values" must be a list of reals in mask order')
                # A wrong-length instance is packed apart: its type and range errors come first.
                _json_reals(items, "value", values[i] if i < fit else np.empty(len(items)))
                if i == fit:
                    shape = (len(items),)
                    raise TableError(f"expected {size} values for n={n}, got shape {shape}")
            except TableError as exc:
                _check_finite(values[:i])  # an earlier instance that is not finite comes first
                raise TableError(f"instance {i}: {exc}") from None
    return SampleSpace(n, weights, values)


def partition_to_dict(partition: Partition) -> dict:
    """JSON-ready form: blocks as ascending index lists, canonical order."""
    return {"n": partition.n, "blocks": [list(b) for b in partition.block_indices()]}


def partition_from_dict(payload: dict) -> Partition:
    if not isinstance(payload, dict) or "n" not in payload or "blocks" not in payload:
        raise PartitionError('a partition needs keys "n" and "blocks"')
    n = payload["n"]
    check_feature_count(n)
    blocks = payload["blocks"]
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise PartitionError('"blocks" must be a list of index lists')
    for k, block in enumerate(blocks):
        seen: set[int] = set()
        for i in block:
            if not isinstance(i, int) or isinstance(i, bool):
                raise PartitionError(f"block {k}: feature index {i!r} is not an integer")
            if not 0 <= i < n:
                raise PartitionError(f"block {k}: feature index {i} out of range for n={n}")
            # A repeat would vanish in the block's bitmask.
            if i in seen:
                raise PartitionError(f"block {k}: feature index {i} appears more than once")
            seen.add(i)
    return Partition.from_indices(n, blocks)


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
    """The UTF-8 CSV file ``raw`` as arrays, and the raw sum of the weights.

    orjson reads the body of a file of plain numbers; the row walk
    decides every file orjson rejects or is not trusted with, so values
    and error lines are the walk's.
    """
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


def table_json(table: ValueTable) -> bytes:
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
