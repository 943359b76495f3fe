"""Damaged JSONL logs through the CLI: each fails with exit 2 and names the
first bad line, with or without a table cache warmed on the same path."""

import contextlib
import copy
import io
import json
import math
from dataclasses import dataclass
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


def wrong_width(rec, draw):
    width = draw(st.sampled_from([0, D_X - 1, D_X + 1, 2 * D_X]))
    cands = rec["candidates"]
    # every candidate of the record, or one of them
    for c in cands if draw(st.booleans()) else [draw(st.sampled_from(cands))]:
        c["features"] = (c["features"] * 2)[:width]


def too_many_candidates(rec, draw):
    extra = N_MAX - len(rec["candidates"]) + draw(st.integers(1, 3))
    rec["candidates"] += [{"item_id": 10_000 + i, "features": [0.25] * D_X}
                          for i in range(extra)]


def bad_slate(rec, draw):
    exposed, n = rec["exposed"], len(rec["candidates"])
    j = draw(st.integers(0, M - 1))
    how = draw(st.sampled_from(["repeat", "range", "short", "short_with_feedback", "long"]))
    if how == "repeat":
        exposed[j] = exposed[(j + 1) % M]
    elif how == "range":
        exposed[j] = draw(st.sampled_from([-1, n, n + 5, 2 ** 40, 2 ** 64, -2 ** 70]))
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
