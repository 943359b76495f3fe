"""Request/feedback containers and the JSONL log format.

One log line per request:

    {"request_id": ..., "user_id": ...,
     "candidates": [{"item_id": ..., "features": [...]}, ...],
     "exposed": [indices into candidates],
     "feedback": {"click": [...], "like": [...]}}

Floats are serialized with Python's repr, so a write/read cycle is
bit-exact. `read_logs` checks every record, against a `LogSchema` when one
is given, names the line of the first bad record, and returns the log as
one `LogTable`, as `simulator.gen_log` does: a column per field, with
every request's candidates stacked on one axis and zero-padded to the
largest n in the log. Its values are checked once, when it is built or
read back from `read_logs`'s cache (a binary copy of the table that spares
a repeated read of an unchanged log its JSON parse); training takes
minibatches from it by row number (`LogTable.take`), and its unchecked
`ExposureLog` views serve code that walks it by request. `slate_indices`
is the one slate rule, and the only code that reads the type of a slate
index. `CsvRecord` lays out the CSV reports (the bench and eval reports,
the generator's curve).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DataError, EmptyCandidatesError, InvalidSlateError, ShapeError

__all__ = [
    "slate_indices",
    "FeedbackMatrix",
    "RequestBatch",
    "ExposureLog",
    "LogTable",
    "LogSchema",
    "read_logs",
    "write_logs",
    "write_jsonl",
    "CsvRecord",
]


# entries that are numbers but not indices (np.array reads True as 1)
_NOT_INDEX = (bool, np.bool_, float, np.floating)
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1
# up to this many slates (one slate, a serving pool) the repeat and range
# rules run row by row in Python, which is faster there than NumPy
_ROW_BY_ROW = 8


def slate_indices(slates, n, m: int) -> np.ndarray:
    """K slates (SlateSequences or index sequences) as one (K, m) int64 array.

    The one slate rule, shared by every stage that takes a slate, and the
    only code that reads the type of a slate index: SlateSequence and
    RequestBatch keep their indices as they are given. `n` is one
    candidate count for every slate or a sequence of one count per slate.
    Each rule runs over the whole pool before the next: an empty pool raises
    EmptyCandidatesError; a slate without exactly m items, ShapeError; a
    float or bool entry, a repeated item, or an index outside 0..n-1, past
    int64 too (in that order), InvalidSlateError. An entry that is neither a number nor a
    numeric string keeps NumPy's own error. Each message names the first
    slate that breaks its rule.
    """
    if isinstance(slates, np.ndarray):
        rows = slates  # an index array: its rows are the slates
    else:
        slates = list(slates)
        rows = [getattr(s, "indices", s) for s in slates]
    if not len(rows):
        raise EmptyCandidatesError("no slates to choose from")
    counts = n if hasattr(n, "__len__") else [n] * len(rows)
    try:
        idx = np.array(rows)
    except ValueError:  # slates of different lengths
        idx = None
    if idx is None or idx.shape != (len(rows), m) or len(counts) != len(rows):
        raise ShapeError(f"expected {len(counts)} slate(s) of {m} items")
    # an integer past int64 makes the array float, object or (when no entry
    # fits int64) uint64; it is out of range for any n, and is read back as a
    # Python int for the rules below to name
    past_int64 = idx.dtype.kind in "fOu" and any(
        isinstance(i, (int, np.integer)) and not _INT64_MIN <= i <= _INT64_MAX
        for row in rows for i in row)
    # np.array([()]) is float64, so only a non-empty float array holds a float
    if idx.dtype.kind in "fb" and idx.size and not past_int64:
        raise InvalidSlateError("slate index is not an integer")
    # np.array also reads a bool among ints as 0 or 1, so the type of each
    # entry of a pool that is not an index array, or of an object array, is
    # looked at
    if (idx.dtype.kind == "O" or not isinstance(slates, np.ndarray)) and any(
            issubclass(t, _NOT_INDEX) for t in {type(i) for row in rows for i in row}):
        raise InvalidSlateError("slate index is not an integer")
    if not past_int64:
        idx = idx.astype(np.int64, copy=False)
        if m and len(idx) > _ROW_BY_ROW:
            # the whole pool at once: a repeat equals the entry s places to its
            # left for some shift s, and each row's entries lie in 0..n-1. (Not
            # through np.sort, whose code alone adds 0.25 MB of resident memory
            # to a process that sorts nothing else.)
            if not (any(np.count_nonzero(idx[:, s:] == idx[:, :-s]) for s in range(1, m))
                    or idx.min() < 0 or (idx.T >= np.asarray(n)).any()):
                return idx
        rows = idx.tolist()
    else:
        rows = [[int(i) for i in row] for row in rows]
    # row by row: a small pool, a large one with a bad slate to name, or one
    # with an integer past int64
    for row in rows:
        if len(set(row)) != m:
            raise InvalidSlateError(f"slate repeats an item: {tuple(row)}")
    for row, count in zip(rows, counts):
        if m and (min(row) < 0 or max(row) >= count):
            raise InvalidSlateError(f"slate index out of range for n={count}: {tuple(row)}")
    return idx


@dataclass(frozen=True)
class FeedbackMatrix:
    """Per-interaction-type outcomes for the m exposed items, one row per type."""

    values: np.ndarray
    types: tuple[str, ...]

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", arr)
        if arr.ndim != 2 or arr.shape[0] != len(self.types):
            raise ShapeError(
                f"feedback shape {arr.shape} does not match {len(self.types)} types"
            )
        if not np.isfinite(arr).all():
            raise ShapeError("feedback contains non-finite values")

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def row(self, type_name: str) -> np.ndarray:
        return self.values[self.types.index(type_name)]


@dataclass
class RequestBatch:
    """One user request: n candidates with features, optional exposure label.

    User context enters through the per-candidate cross features (the
    affinity column in the simulator), so candidates are self-contained.
    `exposed` is kept as it is given, as a tuple: only the slate rule,
    `slate_indices`, reads the type of its indices.
    """

    request_id: int
    user_id: int
    item_ids: np.ndarray
    features: np.ndarray
    exposed: tuple[int, ...] | None = None
    feedback: FeedbackMatrix | None = None

    def __post_init__(self):
        self.item_ids = np.asarray(self.item_ids, dtype=np.int64)
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != self.item_ids.shape[0]:
            raise ShapeError("features must be one row per candidate item")
        if not np.isfinite(self.features).all():
            raise ShapeError("candidate features contain non-finite values")
        if self.exposed is not None:
            self.exposed = tuple(self.exposed)

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class ExposureLog:
    """A logged request whose slate and feedback are guaranteed present."""

    request: RequestBatch

    def __post_init__(self):
        req = self.request
        if req.exposed is None or req.feedback is None:
            raise InvalidSlateError("exposure log needs a slate and feedback")
        slate_indices([req.exposed], req.n, req.feedback.m)

    @property
    def exposed(self) -> tuple[int, ...]:
        return self.request.exposed

    @property
    def feedback(self) -> FeedbackMatrix:
        return self.request.feedback


def _log_to_record(log: ExposureLog) -> dict:
    # .tolist() gives Python floats; json writes them, like NumPy's, by
    # float.__repr__. A request built by hand may hold NumPy ints in its slate,
    # which json cannot write.
    req = log.request
    return {
        "request_id": req.request_id,
        "user_id": req.user_id,
        "candidates": [
            {"item_id": item, "features": row}
            for item, row in zip(req.item_ids.tolist(), req.features.tolist())
        ],
        "exposed": [int(i) for i in log.exposed],
        "feedback": dict(zip(log.feedback.types, log.feedback.values.tolist())),
    }


def _trusted(cls, **values):
    """A `cls` dataclass holding `values`, its checks not run. Set one by one in
    field order, they stay in compact attribute storage, not a dict per view."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


def _padded(rows: list[np.ndarray], n: list[int]) -> np.ndarray:
    """N requests' arrays, request i's of n[i] rows, as one (N, max n, ...)
    array: request i's rows first, zeros after them. An array of another
    length, or whose other axes differ from the first's, is a ValueError."""
    tail = rows[0].shape[1:]
    out = np.zeros((len(rows), max(n)) + tail, dtype=rows[0].dtype)
    for i, (r, length) in enumerate(zip(rows, n)):
        if r.shape != (length,) + tail:
            raise ValueError(f"rows of shape {r.shape} do not stack on {rows[0].shape}")
        out[i, :length] = r
    return out


@dataclass(frozen=True, eq=False)
class LogTable(Sequence):
    """A log of N exposures as columns.

    features is (N, width, d_x) and item_ids (N, width), both zero-padded
    after each request's n[i] real rows, where width is the largest n in the
    table; exposed is (N, m), feedback (N, T, m) with its rows in `types`
    order. table[i] is request i as an ExposureLog of views into the table,
    unchecked: `read_logs`, `simulator.gen_log` and `of` (through the logs
    it stacks) check a table's values when they build it.
    """

    request_id: np.ndarray
    user_id: np.ndarray
    item_ids: np.ndarray
    features: np.ndarray
    n: np.ndarray
    exposed: np.ndarray
    feedback: np.ndarray
    types: tuple[str, ...]

    @classmethod
    def of(cls, logs) -> LogTable:
        """`logs` itself when it is a LogTable; a sequence of ExposureLogs
        stacked into one otherwise. The logs must share their feature width,
        slate length and feedback types."""
        if isinstance(logs, LogTable):
            return logs
        logs = list(logs)
        if not logs:
            return cls.empty()
        reqs = [log.request for log in logs]
        shared = ({log.feedback.types for log in logs}, {r.features.shape[1] for r in reqs},
                  {len(log.exposed) for log in logs})
        if any(len(values) > 1 for values in shared):
            raise ShapeError("logs with different feedback types, feature widths or "
                             "slate lengths do not stack")
        return cls._stack([r.request_id for r in reqs], [r.user_id for r in reqs],
                          [r.item_ids for r in reqs], [r.features for r in reqs],
                          [log.exposed for log in logs],
                          [log.feedback.values for log in logs], logs[0].feedback.types)

    @classmethod
    def empty(cls) -> LogTable:
        """A table of no requests."""
        ids = np.zeros(0, dtype=np.int64)
        return cls(ids, ids, np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0, 0)), ids,
                   np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0, 0)), ())

    @classmethod
    def _stack(cls, request_ids, user_ids, item_ids, features, exposed, feedback,
               types) -> LogTable:
        """One table from per-request columns, at least one request: item_ids
        (n,), features (n, d_x), m slate indices and (T, m) feedback each.
        Columns that do not stack raise ValueError or OverflowError."""
        n = [len(f) for f in features]
        return cls(request_id=np.array(request_ids, dtype=np.int64),
                   user_id=np.array(user_ids, dtype=np.int64),
                   item_ids=_padded(item_ids, n),
                   features=_padded(features, n),
                   n=np.array(n, dtype=np.int64),
                   exposed=np.array(exposed, dtype=np.int64),
                   feedback=np.stack(feedback),
                   types=tuple(types))

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, i: int) -> ExposureLog:
        n = int(self.n[i])
        feedback = _trusted(FeedbackMatrix, values=self.feedback[i], types=self.types)
        return _trusted(ExposureLog, request=_trusted(
            RequestBatch, request_id=int(self.request_id[i]), user_id=int(self.user_id[i]),
            item_ids=self.item_ids[i, :n], features=self.features[i, :n],
            exposed=tuple(self.exposed[i].tolist()), feedback=feedback))

    def take(self, rows) -> LogTable:
        """The requests at `rows`, in that order, padded only to the largest
        n among them: a training minibatch."""
        n = self.n[rows]
        width = int(n.max(initial=0))
        return LogTable(self.request_id[rows], self.user_id[rows],
                        self.item_ids[rows, :width], self.features[rows, :width], n,
                        self.exposed[rows], self.feedback[rows], self.types)


@dataclass(frozen=True)
class LogSchema:
    """What every record of a log must match: feature width d_x, slate length
    m and, unless None, at most n_max candidates."""

    d_x: int
    m: int
    n_max: int | None = None


def _numbers(rows, field: str) -> np.ndarray:
    """JSON numbers only: a float64 array would read "0.5" as 0.5 and True
    as 1.0, so the array is built without a dtype and checked first. Among
    numbers, true and false still read as 1 and 0, so the entries of a table
    of numbers are checked for them one by one."""
    arr = np.array(rows)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"{field} must hold numbers only, got {arr.dtype} entries")
    if arr.ndim == 2 and bool in {type(v) for row in rows for v in row}:
        raise TypeError(f"{field} must hold numbers only, got a boolean")
    return arr.astype(np.float64, copy=False)


def _integer(value, field: str) -> int:
    """A JSON integer that fits int64: int() would read "7" as 7 and 2.9 as 2."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, got {value!r}")
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise OverflowError(f"{field} {value} does not fit in int64")
    return value


class _Record(NamedTuple):
    """One parsed log line: its fields have the right JSON types, and its
    arrays are not yet checked for shape or finiteness, nor its slate."""

    line: int
    request_id: int
    user_id: int
    item_ids: np.ndarray
    features: np.ndarray
    exposed: list
    types: tuple[str, ...]
    feedback: np.ndarray


def _parse(rec: dict, line: int) -> _Record:
    cands = rec["candidates"]
    feedback = rec["feedback"]
    if not isinstance(feedback, dict):
        raise TypeError("feedback must be an object with one row per type")
    exposed = rec["exposed"]
    # JSON integers only: int() would read 1.7 as 1 and "012345" as a slate
    if not isinstance(exposed, list) or any(type(i) is not int for i in exposed):
        raise TypeError(f"exposed must be a list of integers, got {exposed!r}")
    request_id = _integer(rec["request_id"], "request_id")
    user_id = _integer(rec["user_id"], "user_id")
    item_ids = [c["item_id"] for c in cands]
    bad = [i for i in item_ids if type(i) is not int]
    if bad:
        raise TypeError(f"item_id must be an integer, got {bad[0]!r}")
    types = tuple(feedback)
    return _Record(line, request_id, user_id, np.array(item_ids, dtype=np.int64),
                   _numbers([c["features"] for c in cands], "features"), exposed, types,
                   _numbers([feedback[t] for t in types], "feedback"))


# what a record that does not parse raises; read_logs reports each as DataError
_RECORD_ERRORS = (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError,
                  ShapeError, InvalidSlateError)


def _check_values(records: list[_Record]) -> LogTable | None:
    """The parsed records stacked into one table whose values pass
    `_check_table`, the check a cache hit runs. Only when that check fails,
    or the records do not stack, are they built one at a time, in order,
    through RequestBatch, FeedbackMatrix and ExposureLog: a feature row per
    item and a feedback row per type, finite values, and the one slate rule
    against each record's own n and feedback width. The first bad record
    raises DataError with its line; None if none is bad, for records that
    differ in feature width, slate length or feedback types (`_misfit`)."""
    try:
        _, request_ids, user_ids, item_ids, features, exposed, types, feedback = zip(*records)
        table = LogTable._stack(request_ids, user_ids, item_ids, features, exposed, feedback,
                                types[0])
        _check_table(table)
        return table
    except _RECORD_ERRORS:
        pass
    for r in records:
        try:
            ExposureLog(RequestBatch(r.request_id, r.user_id, r.item_ids, r.features,
                                     tuple(r.exposed), FeedbackMatrix(r.feedback, r.types)))
        except _RECORD_ERRORS as exc:
            raise DataError(f"malformed log record: {exc}", line=r.line) from exc
    return None


def _misfit(records: list[_Record], schema: LogSchema | None) -> DataError | None:
    """The first record that has other feedback types than the first record
    or does not fit `schema` (without one, the first record's feature width
    and slate length), as a DataError with its line; None if all fit. A
    record is checked for its types, width, n_max and slate length, in that
    order."""
    first = records[0]
    d_x = schema.d_x if schema else first.features.shape[1]
    m = schema.m if schema else len(first.exposed)
    want_d_x = f"config d_x={d_x}" if schema else f"the first record's {d_x}"
    want_m = f"config m={m}" if schema else f"the first record's {m}"
    n_max = schema.n_max if schema else None
    for r in records:
        if r.types != first.types:
            message = (f"feedback types {list(r.types)} differ from "
                       f"the first record's {list(first.types)}")
        elif r.features.shape[1] != d_x:
            message = f"features have width {r.features.shape[1]}, {want_d_x}"
        elif n_max is not None and len(r.item_ids) > n_max:
            message = f"{len(r.item_ids)} candidates exceed n_max={n_max}"
        elif len(r.exposed) != m:
            message = f"slate has {len(r.exposed)} positions, {want_m}"
        else:
            continue
        return DataError(message, line=r.line)
    return None


def write_logs(path, logs) -> None:
    write_jsonl(path, map(_log_to_record, logs))


def write_jsonl(path, rows) -> None:
    """One JSON object per line; floats keep full repr precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row))
            fh.write("\n")


class CsvRecord:
    """Base of a dataclass written as a CSV header and one row, both read off
    its fields in one pass. A field named in CSV_EXPAND writes the (column,
    value) pairs its function returns for the record, possibly none; any
    other field writes one column of its own name. Ints are written with str,
    other values with repr(float(v)), so that a cell parses back to its value
    (NumPy 2 reprs a NumPy scalar as "np.float64(...)")."""

    CSV_EXPAND: dict = {}

    def csv_columns(self) -> list[tuple[str, str]]:
        columns = []
        for f in fields(self):
            expand = self.CSV_EXPAND.get(f.name)
            pairs = [(f.name, getattr(self, f.name))] if expand is None else expand(self)
            columns += [(name, str(v) if isinstance(v, (int, np.integer)) else repr(float(v)))
                        for name, v in pairs]
        return columns

    def csv_header(self) -> str:
        return ",".join(name for name, _ in self.csv_columns())

    def csv_row(self) -> str:
        return ",".join(cell for _, cell in self.csv_columns())

    def to_csv(self) -> str:
        return self.csv_header() + "\n" + self.csv_row() + "\n"


def _read_records(raw: bytes) -> list[_Record]:
    """The records of the log whose file holds `raw`, parsed. A line that
    does not parse raises DataError, after the records before it are
    checked (`_check_values`)."""
    records: list[_Record] = []
    # BytesIO ends a piece after each b"\n"; splitting each piece again ends
    # lines where a text-mode read does, at "\r\n", "\r" or "\n". No UTF-8
    # character holds a \r or \n byte, so each line decodes on its own.
    lines = (line for piece in io.BytesIO(raw) for line in piece.splitlines(keepends=True))
    for lineno, raw_line in enumerate(lines, start=1):
        body = raw_line.rstrip(b"\r\n")
        try:
            # as a text-mode read gives the line: its break read as "\n"
            line = body.decode("utf-8") + ("\n" if body != raw_line else "")
            if not line.strip():
                continue
            records.append(_parse(json.loads(line), lineno))
        except _RECORD_ERRORS as exc:
            if records:
                _check_values(records)
            raise DataError(f"malformed log record: {exc}", line=lineno) from exc
    return records


# The layout of a cache file: an 8-byte prefix, then a JSON header padded
# with spaces to a multiple of 8 bytes, then each column's raw bytes in
# _COLUMNS order, each padded to a multiple of 8, so that every column starts
# 8-byte aligned. The prefix holds the header's length and its CRC-32, both
# little-endian uint32; the header holds the version, the log's digest, the
# feedback types and each column's dtype and shape, from which the columns'
# offsets follow. The columns carry no CRC (one would double the cost of a
# hit): their values get the checks a parse runs. Bump the version when the
# layout changes: a cache file of another version is a miss.
_CACHE_VERSION = 2
_COLUMNS = ("request_id", "user_id", "item_ids", "features", "n", "exposed", "feedback")


def _cache_file(cache_dir, path) -> str:
    """The one cache file of the log at `path`, named from its resolved
    path, so a log whose content changes overwrites its own entry. The name
    keeps the .npz suffix of version 1, whose files the new ones replace."""
    key = hashlib.sha256(os.fsencode(os.path.realpath(path))).hexdigest()[:32]
    return os.path.join(cache_dir, f"{key}.npz")


def _check_table(table: LogTable) -> None:
    """The value checks read_logs runs on a log, parsed and stacked or read
    from a cache file: columns of the dtypes and shapes a parse gives,
    agreeing on the number of requests, n from 1 to the padded width that
    the largest n sets, finite features and feedback, and the slate rule
    against n."""
    t = table
    ints = (t.request_id, t.user_id, t.item_ids, t.n, t.exposed)
    if (any(a.dtype != np.int64 for a in ints)
            or t.features.dtype != np.float64 or t.feedback.dtype != np.float64):
        raise ShapeError("log columns have other dtypes than a parsed log")
    rows = len(t.n)
    if not (rows and t.n.ndim == t.request_id.ndim == t.user_id.ndim == 1
            and len(t.request_id) == len(t.user_id) == rows
            and t.item_ids.ndim == 2 and t.features.ndim == 3 and t.exposed.ndim == 2
            and t.item_ids.shape == t.features.shape[:2] and len(t.item_ids) == rows
            and len(t.exposed) == rows
            and t.feedback.shape == (rows, len(t.types), t.exposed.shape[1])
            and t.n.min() >= 1 and t.n.max() == t.item_ids.shape[1]):
        raise ShapeError("log columns do not agree")
    if not (np.isfinite(t.features).all() and np.isfinite(t.feedback).all()):
        raise ShapeError("log holds non-finite values")
    slate_indices(t.exposed, t.n, t.exposed.shape[1])


def _load_cached(file: str, digest: str) -> LogTable | None:
    """The table cached in `file` for the log of SHA-256 `digest`, its values
    checked; None on a miss. The file is read whole into one buffer, which
    the columns view, writable."""
    try:
        with open(file, "rb") as fh:
            buf = bytearray(os.fstat(fh.fileno()).st_size)
            if fh.readinto(buf) != len(buf):
                return None
        size, crc = int.from_bytes(buf[:4], "little"), int.from_bytes(buf[4:8], "little")
        head = buf[8:8 + size]
        if len(head) != size or zlib.crc32(head) != crc:
            return None
        header = json.loads(head)
        types, columns = header["types"], header["columns"]
        if (header["version"] != _CACHE_VERSION or header["digest"] != digest
                or type(types) is not list or any(type(t) is not str for t in types)
                or list(columns) != list(_COLUMNS)):
            return None
        arrays, offset = [], 8 + size
        for name in _COLUMNS:
            dtype, shape = np.dtype(columns[name]["dtype"]), tuple(columns[name]["shape"])
            if any(type(d) is not int or d < 0 for d in shape):
                return None
            count = math.prod(shape)
            arrays.append(np.frombuffer(buf, dtype, count, offset).reshape(shape))
            nbytes = count * dtype.itemsize
            offset += nbytes + -nbytes % 8
        if offset != len(buf):
            return None
        table = LogTable(*arrays, tuple(types))
        _check_table(table)
    except Exception:
        # damaged bytes raise many types (UnicodeDecodeError, KeyError,
        # TypeError, ValueError, ...); the log itself is still there to parse
        return None
    return table


def _fits(table: LogTable, schema: LogSchema | None) -> bool:
    """Whether every request of `table` fits `schema`."""
    return schema is None or (
        table.features.shape[2] == schema.d_x and table.exposed.shape[1] == schema.m
        and (schema.n_max is None or table.n.max() <= schema.n_max))


def _write_cache(file: str, digest: str, table: LogTable) -> None:
    """Writes `table` to `file` through a temporary file in its directory and
    os.replace, so a reader finds the old file or the new one, never part of
    one. A directory that cannot be written leaves the log uncached."""
    directory = os.path.dirname(file)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
    except OSError:
        return
    arrays = [np.ascontiguousarray(getattr(table, c)) for c in _COLUMNS]
    head = json.dumps({
        "version": _CACHE_VERSION, "digest": digest, "types": list(table.types),
        "columns": {c: {"dtype": a.dtype.str, "shape": list(a.shape)}
                    for c, a in zip(_COLUMNS, arrays)}}).encode()
    head += b" " * (-len(head) % 8)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(len(head).to_bytes(4, "little") + zlib.crc32(head).to_bytes(4, "little"))
            fh.write(head)
            for a in arrays:
                fh.write(a)
                fh.write(bytes(-a.nbytes % 8))
        os.replace(tmp, file)
    except OSError:  # a full disk, say
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def read_logs(path, schema: LogSchema | None = None, cache_dir=None) -> LogTable:
    """Every record of a JSONL log, as one LogTable.

    A record that does not parse raises DataError with its line number. The
    checks on values (shapes, finiteness, slates) run over the whole log once
    every line has parsed, and over the lines before a line that does not
    parse, so the first bad record is always the one reported. Then the
    first record that does not fit `schema` (without one, the first record's
    feature width and slate length) or has other feedback types than the
    first record raises DataError with its line.

    With `cache_dir`, a non-empty table is also kept there in a versioned
    flat file (the layout is at _CACHE_VERSION), keyed by the SHA-256 of the
    log's bytes, one file per log path. A later read of the same bytes loads
    that table and runs the value checks on it in place of the parse. A
    table that does not fit `schema` is parsed again, so the error names its
    line as it does uncached. A cache file that does not read back is a
    miss; one that cannot be written is left out.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open log {path}: {exc}") from exc
    if cache_dir is not None:
        # the bytes hashed are the bytes parsed, so a log rewritten while it
        # is read cannot be cached under the other content's digest
        digest = hashlib.sha256(raw).hexdigest()
        file = _cache_file(cache_dir, path)
        table = _load_cached(file, digest)
        if table is not None and _fits(table, schema):
            return table
    records = _read_records(raw)
    del raw  # the text is larger than its records: free it before stacking them
    if not records:
        return LogTable.empty()
    table = _check_values(records)
    misfit = _misfit(records, schema)
    if misfit is not None:
        raise misfit
    if cache_dir is not None:
        _write_cache(file, digest, table)
    return table
