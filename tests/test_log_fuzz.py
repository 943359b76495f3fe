"""Damaged JSONL logs through the CLI: each fails with exit 2 and names the
first bad line, with or without a table cache warmed on the same path; and
logs with up to three faulty lines, whose whole error line must be the one a
plain-Python reference parser, written here, gives."""

import contextlib
import copy
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slaterank.cli import LOG_CACHE_DIR, main

N_MAX, M, D_X = 8, 6, 10
# a JSON value of each type but int and float, and one of each number type
OTHER_TYPES = ("7", None, True, False, [], {})
NOT_AN_INTEGER = OTHER_TYPES + (1.5, 2.0)
NOT_A_LIST = ("x", None, True, 3, 0.5, {})
NOT_AN_OBJECT = ("x", None, True, 3, 0.5, [])


@dataclass(frozen=True)
class Boundary:
    cfg: str
    log: Path
    records: list
    cold: Path  # an out_dir no table was ever cached in
    warm: Path  # an out_dir whose cache holds the good log's table


@pytest.fixture(scope="module")
def boundary(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    cfg = root / "run.cfg"
    cfg.write_text("\n".join([
        "seed=3", "num_requests=5", "world.num_users=20", "world.num_items=60",
        f"world.n_candidates={N_MAX}", f"generator.n_max={N_MAX}", "generator.d=8",
        "generator.h=2", "generator.L=1", "generator.d_t=8", "train.epochs=1",
        f"paths.train_log={root}/train.jsonl",
        f"paths.generator_checkpoint={root}/gen.npz",
        f"paths.out_dir={root}/warm",
    ]) + "\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["train-generator", "--config", str(cfg)]) == 0
    assert any((root / "warm" / LOG_CACHE_DIR).iterdir())
    log = root / "train.jsonl"
    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    return Boundary(str(cfg), log, records, root / "cold", root / "warm")


def wrong_width(rec, draw, ragged=True):
    width = draw(st.sampled_from([0, D_X - 1, D_X + 1, 2 * D_X]))
    cands = rec["candidates"]
    # every candidate of the record, or (ragged) perhaps only one of them
    for c in cands if not ragged or draw(st.booleans()) else [draw(st.sampled_from(cands))]:
        c["features"] = (c["features"] * 2)[:width]


def too_many_candidates(rec, draw):
    extra = N_MAX - len(rec["candidates"]) + draw(st.integers(1, 3))
    rec["candidates"] += [{"item_id": 10_000 + i, "features": [0.25] * D_X}
                          for i in range(extra)]


def bad_slate(rec, draw, huge=(2 ** 40, 2 ** 64, -2 ** 70)):
    exposed, n = rec["exposed"], len(rec["candidates"])
    j = draw(st.integers(0, M - 1))
    how = draw(st.sampled_from(["repeat", "range", "short", "short_with_feedback", "long"]))
    if how == "repeat":
        exposed[j] = exposed[(j + 1) % M]
    elif how == "range":
        exposed[j] = draw(st.sampled_from([-1, n, n + 5, *huge]))
    elif how == "long":
        exposed.append(next(i for i in range(n) if i not in exposed))
    else:
        del exposed[j]
        if how == "short_with_feedback":
            for row in rec["feedback"].values():
                del row[j]


def non_finite(rec, draw):
    value = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    if draw(st.booleans()):
        row = draw(st.sampled_from(rec["candidates"]))["features"]
    else:
        row = draw(st.sampled_from(list(rec["feedback"].values())))
    row[draw(st.integers(0, len(row) - 1))] = value


def missing_key(rec, draw):
    key = draw(st.sampled_from(
        ["request_id", "user_id", "candidates", "exposed", "feedback", "item_id", "features"]))
    del (rec if key in rec else draw(st.sampled_from(rec["candidates"])))[key]


def wrong_json_type(rec, draw):
    cand = draw(st.sampled_from(rec["candidates"]))
    row = draw(st.sampled_from(list(rec["feedback"].values())))
    # (the object holding the field, the field, values of a wrong type)
    field = draw(st.sampled_from([
        (rec, "request_id", NOT_AN_INTEGER), (rec, "user_id", NOT_AN_INTEGER),
        (cand, "item_id", NOT_AN_INTEGER), (rec["exposed"], 0, NOT_AN_INTEGER),
        (cand["features"], 0, OTHER_TYPES), (row, 0, OTHER_TYPES),
        (rec, "candidates", NOT_A_LIST), (cand, "features", NOT_A_LIST),
        (rec, "exposed", NOT_A_LIST), (rec["feedback"], next(iter(rec["feedback"])),
                                       NOT_A_LIST),
        (rec, "feedback", NOT_AN_OBJECT),
    ]))
    holder, key, values = field
    holder[key] = copy.deepcopy(draw(st.sampled_from(values)))


MUTATIONS = (wrong_width, too_many_candidates, bad_slate, non_finite, missing_key,
             wrong_json_type)
# bytes that are not UTF-8: two invalid start bytes, a lone continuation
# byte, an overlong "/", an encoded surrogate and a cut-off three-byte character
NOT_UTF8 = (b"\xff\xfe", b"\x80", b"\xc0\xaf", b"\xed\xa0\x80", b"\xe2\x82")


@st.composite
def damaged_logs(draw, records):
    """(the log's bytes with one line damaged, that line's number)."""
    lines = [json.dumps(rec).encode() for rec in records]
    kind = draw(st.sampled_from(MUTATIONS + ("record_type", "empty_first", "not_utf8")))
    line = 1 if kind == "empty_first" else draw(st.integers(1, len(lines)))
    if kind == "empty_first":
        lines[0] = b"{}"
    elif kind == "record_type":
        lines[line - 1] = json.dumps(draw(st.sampled_from(NOT_AN_OBJECT))).encode()
    elif kind == "not_utf8":
        text = lines[line - 1]
        at = draw(st.integers(0, len(text)))
        lines[line - 1] = text[:at] + draw(st.sampled_from(NOT_UTF8)) + text[at:]
    else:
        rec = copy.deepcopy(records[line - 1])
        kind(rec, draw)
        lines[line - 1] = json.dumps(rec).encode()
    return b"\n".join(lines) + b"\n", line


def run_cli(cfg, out_dir):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["train-generator", "--config", cfg, "--set", f"paths.out_dir={out_dir}"])
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_damaged_log_exits_2_naming_its_first_bad_line(boundary, data):
    raw, line = data.draw(damaged_logs(boundary.records))
    boundary.log.write_bytes(raw)
    # main returns for a SlaterankError and lets any other exception through
    cold = run_cli(boundary.cfg, boundary.cold)
    warm = run_cli(boundary.cfg, boundary.warm)
    assert cold[0] == 2, cold[1]
    assert cold[1].startswith(f"error: line {line}: "), cold[1]
    assert warm == cold


# ------------------------------------------- the reader against a reference


def reference_parse(body: bytes):
    """One log line read by the format's rules, written out in plain Python:
    the record's fields, or the exception that names why the line does not
    read as a record. The fields are read in the reader's order."""
    rec = json.loads(body.decode("utf-8") + "\n")
    cands, feedback, exposed = rec["candidates"], rec["feedback"], rec["exposed"]
    if not isinstance(feedback, dict):
        raise TypeError("feedback must be an object with one row per type")
    if not isinstance(exposed, list) or any(type(i) is not int for i in exposed):
        raise TypeError(f"exposed must be a list of integers, got {exposed!r}")
    for key in ("request_id", "user_id"):
        if type(rec[key]) is not int:
            raise TypeError(f"{key} must be an integer, got {rec[key]!r}")
        if not -2 ** 63 <= rec[key] < 2 ** 63:
            raise OverflowError(f"{key} {rec[key]} does not fit in int64")
    item_ids = [c["item_id"] for c in cands]
    bad = [i for i in item_ids if type(i) is not int]
    if bad:
        raise TypeError(f"item_id must be an integer, got {bad[0]!r}")
    features = [c["features"] for c in cands]
    rows = [feedback[t] for t in feedback]
    for field, table in (("features", features), ("feedback", rows)):
        entries = [v for row in table for v in row]
        # of the values that are not numbers, the test puts in only None
        # and {}, which NumPy holds as objects, and true and false
        if any(type(v) not in (int, float, bool) for v in entries):
            raise TypeError(f"{field} must hold numbers only, got object entries")
        if any(type(v) is bool for v in entries):
            raise TypeError(f"{field} must hold numbers only, got a boolean")
    return tuple(feedback), rows, features, exposed


def reference_value_fault(record) -> str | None:
    """Why a parsed record breaks its own rules, checked in the order the
    reader builds it (feedback, candidates, then the slate), or None."""
    _, rows, features, exposed = record
    m, n = len(rows[0]), len(features)
    if not all(math.isfinite(v) for row in rows for v in row):
        return "feedback contains non-finite values"
    if not all(math.isfinite(v) for row in features for v in row):
        return "candidate features contain non-finite values"
    if len(exposed) != m:
        return f"expected 1 slate(s) of {m} items"
    if len(set(exposed)) != m:
        return f"slate repeats an item: {tuple(exposed)}"
    if min(exposed) < 0 or max(exposed) >= n:
        return f"slate index out of range for n={n}: {tuple(exposed)}"
    return None


def reference_misfit(record, first) -> str | None:
    """Why a record that keeps its own rules does not fit the command's
    config or the log's first record, or None."""
    types, _, features, exposed = record
    if types != first[0]:
        return f"feedback types {list(types)} differ from the first record's {list(first[0])}"
    if len(features[0]) != D_X:
        return f"features have width {len(features[0])}, config d_x={D_X}"
    if len(features) > N_MAX:
        return f"{len(features)} candidates exceed n_max={N_MAX}"
    if len(exposed) != M:
        return f"slate has {len(exposed)} positions, config m={M}"
    return None


def reference_error(lines: list[bytes]) -> str:
    """The error the reader's contract gives for these log lines: the first
    line that does not read as a record, unless a record before it breaks
    its own rules; with every line read, the first record that breaks its
    own rules, and then the first that does not fit."""
    records = []

    def first_broken():
        return next((f"line {number}: malformed log record: {fault}"
                     for number, record in records
                     if (fault := reference_value_fault(record))), None)

    for number, body in enumerate(lines, start=1):
        if not body.strip():
            continue
        try:
            records.append((number, reference_parse(body)))
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            return first_broken() or f"line {number}: malformed log record: {exc}"
    first = records[0][1]
    return first_broken() or next(f"line {number}: {misfit}" for number, record in records
                                  if (misfit := reference_misfit(record, first)))


def refused_value(rec, draw):
    cand = draw(st.sampled_from(rec["candidates"]))
    row = draw(st.sampled_from([cand["features"], *rec["feedback"].values()]))
    # (the object holding the field, the field, values the rules refuse)
    holder, key, values = draw(st.sampled_from([
        (rec, "request_id", NOT_AN_INTEGER + (2 ** 63, -2 ** 63 - 1)),
        (rec, "user_id", NOT_AN_INTEGER + (2 ** 63, -2 ** 63 - 1)),
        (cand, "item_id", NOT_AN_INTEGER),
        (rec["exposed"], draw(st.integers(0, M - 1)), NOT_AN_INTEGER),
        (row, draw(st.integers(0, len(row) - 1)), (None, {}, True, False)),
        (rec, "exposed", NOT_A_LIST), (rec, "feedback", NOT_AN_OBJECT),
    ]))
    holder[key] = copy.deepcopy(draw(st.sampled_from(values)))


def other_feedback_types(rec, draw):
    feedback = rec["feedback"]
    name = draw(st.sampled_from(sorted(feedback)))
    row = feedback.pop(name)
    if draw(st.booleans()):
        feedback["share"] = row


# faults whose message the reference parser words: NumPy's own message for
# a ragged feature table is left to the test above
REFERENCE_FAULTS = (partial(bad_slate, huge=(2 ** 40, 2 ** 63, 2 ** 64, -2 ** 70)),
                    refused_value, missing_key,
                    partial(wrong_width, ragged=False), other_feedback_types,
                    too_many_candidates, non_finite)


@st.composite
def faulty_lines(draw, records):
    """The log's lines, without their breaks, with one to three of them
    damaged, and perhaps a blank line put in."""
    lines = [json.dumps(rec).encode() for rec in records]
    for i in draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=3,
                           unique=True)):
        kind = draw(st.sampled_from(REFERENCE_FAULTS + ("cut", "not_utf8", "not_an_object")))
        if kind == "cut":
            lines[i] = lines[i][:draw(st.integers(1, len(lines[i]) - 1))]
        elif kind == "not_utf8":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.sampled_from(NOT_UTF8)) + lines[i][at:]
        elif kind == "not_an_object":
            lines[i] = json.dumps(draw(st.sampled_from(NOT_AN_OBJECT))).encode()
        else:
            rec = copy.deepcopy(records[i])
            kind(rec, draw)
            lines[i] = json.dumps(rec).encode()
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([b"", b" \t"])))
    return lines


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_faulty_log_exits_2_with_the_reference_parsers_message(boundary, data):
    lines = data.draw(faulty_lines(boundary.records))
    boundary.log.write_bytes(b"\n".join(lines) + b"\n")
    assert run_cli(boundary.cfg, boundary.cold) == (2, f"error: {reference_error(lines)}\n")
