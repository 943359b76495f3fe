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

from .errors import DataError, InvalidSlateError, ShapeError

__all__ = [
    "FeedbackMatrix",
    "RequestBatch",
    "ExposureLog",
    "LogSchema",
    "read_logs",
    "write_logs",
    "write_jsonl",
]


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
            self.exposed = tuple(int(i) for i in self.exposed)

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
        n = req.n
        if len(set(req.exposed)) != len(req.exposed):
            raise InvalidSlateError(f"duplicate exposed index in {req.exposed}")
        if any(i < 0 or i >= n for i in req.exposed):
            raise InvalidSlateError(f"exposed index out of range for n={n}")
        if req.feedback.m != len(req.exposed):
            raise ShapeError("feedback columns must match slate length")

    @property
    def exposed(self) -> tuple[int, ...]:
        return self.request.exposed

    @property
    def feedback(self) -> FeedbackMatrix:
        return self.request.feedback


def _log_to_record(log: ExposureLog) -> dict:
    req = log.request
    return {
        "request_id": req.request_id,
        "user_id": req.user_id,
        "candidates": [
            {"item_id": int(item), "features": list(row)}
            for item, row in zip(req.item_ids, req.features)
        ],
        "exposed": list(log.exposed),
        "feedback": {
            t: list(log.feedback.values[b]) for b, t in enumerate(log.feedback.types)
        },
    }


def _record_to_log(rec: dict) -> ExposureLog:
    cands = rec["candidates"]
    feedback = rec["feedback"]
    types = tuple(feedback.keys())
    req = RequestBatch(
        request_id=int(rec["request_id"]),
        user_id=int(rec["user_id"]),
        item_ids=np.array([c["item_id"] for c in cands], dtype=np.int64),
        features=np.array([c["features"] for c in cands], dtype=np.float64),
        exposed=tuple(rec["exposed"]),
        feedback=FeedbackMatrix(np.array([feedback[t] for t in types]), types),
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
                    ShapeError, InvalidSlateError) as exc:
                raise DataError(f"malformed log record: {exc}", line=lineno) from exc
            if misfit is None:
                problem = _mismatch(log, schema, out[0].feedback.types if out else None)
                if problem is not None:
                    misfit = DataError(problem, line=lineno)
            out.append(log)
    if misfit is not None:
        raise misfit
    return out
