"""Request/feedback containers and the JSONL log format.

One log line per request:

    {"request_id": ..., "user_id": ...,
     "candidates": [{"item_id": ..., "features": [...]}, ...],
     "exposed": [indices into candidates],
     "feedback": {"click": [...], "like": [...]}}

Floats are serialized with Python's repr, so a write/read cycle is
bit-exact. `read_logs` checks every record as it reads it, against a
`LogSchema` when one is given, and names the line of the first bad record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyCandidatesError, InvalidSlateError, ShapeError

__all__ = [
    "slate_indices",
    "FeedbackMatrix",
    "RequestBatch",
    "ExposureLog",
    "LogSchema",
    "read_logs",
    "write_logs",
    "write_jsonl",
]


def slate_indices(slates, n, m: int) -> np.ndarray:
    """K slates (SlateSequences or index sequences) as one (K, m) int64 array.

    The one slate rule, shared by every stage that takes a slate. `n` is one
    candidate count for every slate or a sequence of one count per slate.
    Each rule runs over the whole pool before the next: an empty pool raises
    EmptyCandidatesError; a slate without exactly m items, ShapeError; a
    float entry, a repeated item, or an index outside 0..n-1 (in that order),
    InvalidSlateError. An entry that is neither a number nor a numeric string
    keeps NumPy's own error.
    """
    rows = [getattr(s, "indices", s) for s in slates]
    if not rows:
        raise EmptyCandidatesError("no slates to choose from")
    counts = n if hasattr(n, "__len__") else [n] * len(rows)
    try:
        idx = np.array(rows)
    except ValueError:  # slates of different lengths
        idx = None
    if idx is None or idx.shape != (len(rows), m) or len(counts) != len(rows):
        raise ShapeError(f"expected {len(counts)} slate(s) of {m} items")
    # np.array([()]) is float64, so only a non-empty float array holds a float
    if idx.dtype.kind == "f" and idx.size:
        raise InvalidSlateError("slate index is not an integer")
    idx = idx.astype(np.int64, copy=False)
    rows = idx.tolist()
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
            # int() would truncate 1.7 to 1: a float stays for slate_indices to reject
            self.exposed = tuple(i if isinstance(i, (float, np.floating)) else int(i)
                                 for i in self.exposed)

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
    # .tolist() gives Python floats; json writes them, like NumPy's, by float.__repr__
    req = log.request
    return {
        "request_id": req.request_id,
        "user_id": req.user_id,
        "candidates": [
            {"item_id": item, "features": row}
            for item, row in zip(req.item_ids.tolist(), req.features.tolist())
        ],
        "exposed": list(log.exposed),
        "feedback": dict(zip(log.feedback.types, log.feedback.values.tolist())),
    }


def _numbers(rows, field: str) -> np.ndarray:
    """JSON numbers only: a float64 array would read "0.5" as 0.5 and True
    as 1.0, so the array is built without a dtype and checked first."""
    arr = np.array(rows)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"{field} must hold numbers only, got {arr.dtype} entries")
    return arr.astype(np.float64, copy=False)


def _record_to_log(rec: dict) -> ExposureLog:
    cands = rec["candidates"]
    feedback = rec["feedback"]
    if not isinstance(feedback, dict):
        raise TypeError("feedback must be an object with one row per type")
    exposed = rec["exposed"]
    # JSON integers only: int() would read 1.7 as 1 and "012345" as a slate
    if not isinstance(exposed, list) or any(type(i) is not int for i in exposed):
        raise TypeError(f"exposed must be a list of integers, got {exposed!r}")
    # and so are the ids: int() would read "7" as 7 and 2.9 as 2
    for field in ("request_id", "user_id"):
        if type(rec[field]) is not int:
            raise TypeError(f"{field} must be an integer, got {rec[field]!r}")
    item_ids = [c["item_id"] for c in cands]
    bad = [i for i in item_ids if type(i) is not int]
    if bad:
        raise TypeError(f"item_id must be an integer, got {bad[0]!r}")
    types = tuple(feedback.keys())
    req = RequestBatch(
        request_id=rec["request_id"],
        user_id=rec["user_id"],
        item_ids=np.array(item_ids, dtype=np.int64),
        features=_numbers([c["features"] for c in cands], "features"),
        exposed=tuple(exposed),
        feedback=FeedbackMatrix(_numbers([feedback[t] for t in types], "feedback"), types),
    )
    return ExposureLog(req)


@dataclass(frozen=True)
class LogSchema:
    """What every record of a log must match: feature width d_x, slate length
    m and, unless None, at most n_max candidates."""

    d_x: int
    m: int
    n_max: int | None = None


def _mismatch(log: ExposureLog, schema: LogSchema | None,
              types: tuple[str, ...] | None) -> str | None:
    """Why a parsed record does not fit the schema or the first record's
    feedback types, or None."""
    req = log.request
    if types is not None and log.feedback.types != types:
        return (f"feedback types {list(log.feedback.types)} differ from "
                f"the first record's {list(types)}")
    if schema is None:
        return None
    if req.features.shape[1] != schema.d_x:
        return f"features have width {req.features.shape[1]}, config d_x={schema.d_x}"
    if schema.n_max is not None and req.n > schema.n_max:
        return f"{req.n} candidates exceed n_max={schema.n_max}"
    if len(log.exposed) != schema.m:
        return f"slate has {len(log.exposed)} positions, config m={schema.m}"
    return None


def write_logs(path, logs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for log in logs:
            fh.write(json.dumps(_log_to_record(log)))
            fh.write("\n")


def write_jsonl(path, rows) -> None:
    """One JSON object per line; floats keep full repr precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row))
            fh.write("\n")


def read_logs(path, schema: LogSchema | None = None) -> list[ExposureLog]:
    """Every record of a JSONL log. A record that does not parse raises
    DataError with its line number; once every line has parsed, so does the
    first record that does not fit `schema` or has other feedback types than
    the first record."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open log {path}: {exc}") from exc
    out = []
    misfit = None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                log = _record_to_log(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    OverflowError, ShapeError, InvalidSlateError) as exc:
                raise DataError(f"malformed log record: {exc}", line=lineno) from exc
            if misfit is None:
                problem = _mismatch(log, schema, out[0].feedback.types if out else None)
                if problem is not None:
                    misfit = DataError(problem, line=lineno)
            out.append(log)
    if misfit is not None:
        raise misfit
    return out
