"""The columnar log: read_logs builds one LogTable, training slices it by row
number, and the reader still names the line of the first bad record."""

import io
import itertools
import json
import math
import os
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import counted_parses
from slaterank.ar import ar_sequence_loss, init_ar_params
from slaterank.cli import main
from slaterank.data import (
    ExposureLog,
    FeedbackMatrix,
    LogSchema,
    LogTable,
    RequestBatch,
    read_logs,
    write_logs,
)
from slaterank.errors import DataError, ShapeError
from slaterank.evaluator import EvaluatorConfig, init_evaluator_params, train_evaluator
from slaterank.generator import GeneratorConfig, _stack_requests, init_generator_params
from slaterank.numerics import Tape
from slaterank.objectives import UtilitySpec, utilities, utility
from slaterank.training import train_ar, train_generator

D_X, M, N_MAX = 4, 3, 9
CFG = GeneratorConfig(n_max=N_MAX, m=M, d=8, h=2, L=1, d_x=D_X, d_t=5)
SCHEMA = LogSchema(D_X, M, N_MAX)


def ragged_logs(count, seed=0, m=M, types=("click", "like")):
    rng = np.random.default_rng(seed)
    logs = []
    for i in range(count):
        n = int(rng.integers(m, N_MAX + 1))
        logs.append(ExposureLog(RequestBatch(
            request_id=10 * i + 3, user_id=int(rng.integers(0, 50)),
            item_ids=rng.choice(1000, size=n, replace=False),
            features=rng.normal(size=(n, D_X)),
            exposed=tuple(rng.choice(n, size=m, replace=False).tolist()),
            feedback=FeedbackMatrix(rng.random((len(types), m)).round(2), types))))
    return logs


def old_record_to_log(rec):
    """The per-record parse read_logs used before the table, kept here as the
    reference the table must match."""
    feedback = rec["feedback"]
    types = tuple(feedback.keys())
    return ExposureLog(RequestBatch(
        request_id=rec["request_id"], user_id=rec["user_id"],
        item_ids=np.array([c["item_id"] for c in rec["candidates"]], dtype=np.int64),
        features=np.array([c["features"] for c in rec["candidates"]]).astype(np.float64),
        exposed=tuple(rec["exposed"]),
        feedback=FeedbackMatrix(np.array([feedback[t] for t in types]).astype(np.float64),
                                types)))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def write_lines(path, records):
    path.write_text("".join(
        (rec if isinstance(rec, str) else json.dumps(rec)) + "\n" for rec in records),
        encoding="utf-8")


def test_read_logs_table_equals_the_per_record_parse(tmp_path):
    path = tmp_path / "log.jsonl"
    write_logs(path, ragged_logs(25, seed=1))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    # JSON integers among the features and feedback read as floats, as before
    records[4]["candidates"][1]["features"] = [1, -2, 0, 7]
    records[6]["feedback"]["click"] = [1, 0, 1]
    write_lines(path, records)
    old = [old_record_to_log(rec) for rec in records]
    table = read_logs(path, SCHEMA)

    assert len(table) == len(old) and table.types == ("click", "like")
    width = max(log.request.n for log in old)
    assert table.features.shape == (len(old), width, D_X)
    assert table.item_ids.shape == (len(old), width)
    assert table.exposed.dtype == np.int64 and table.feedback.dtype == np.float64
    for i, log in enumerate(old):
        req, n = log.request, log.request.n
        assert table.n[i] == n
        assert table.request_id[i] == req.request_id and table.user_id[i] == req.user_id
        assert same_bits(table.item_ids[i, :n], req.item_ids)
        assert same_bits(table.features[i, :n], req.features)
        assert not table.features[i, n:].any() and not table.item_ids[i, n:].any()
        assert table.exposed[i].tolist() == list(log.exposed)
        assert same_bits(table.feedback[i], log.feedback.values)
        view = table[i]  # the ExposureLog view holds the same values, as Python ints
        assert view.request.request_id == req.request_id
        assert type(view.request.request_id) is int and type(view.exposed[0]) is int
        assert view.exposed == log.exposed and view.feedback.types == log.feedback.types
        assert same_bits(view.request.features, req.features)
        assert same_bits(view.feedback.values, log.feedback.values)

    # stacking the logs themselves gives the same table
    stacked = LogTable.of(old)
    for field in ("request_id", "user_id", "item_ids", "features", "n", "exposed",
                  "feedback"):
        assert same_bits(getattr(stacked, field), getattr(table, field)), field
    assert LogTable.of(table) is table


def test_table_is_a_sequence_of_exposure_logs(tmp_path):
    logs = ragged_logs(6, seed=2)
    table = LogTable.of(logs)
    assert [log.request.request_id for log in table] == [3, 13, 23, 33, 43, 53]
    assert table[-1].request.request_id == 53
    with pytest.raises(IndexError):
        table[6]
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n", encoding="utf-8")
    empty = read_logs(blank, SCHEMA)
    assert len(empty) == 0 and not empty and list(empty) == []
    with pytest.raises(ShapeError):
        LogTable.of([logs[0], ragged_logs(1, m=M - 1)[0]])
    with pytest.raises(ShapeError):
        LogTable.of([logs[0], ragged_logs(1, types=("click",))[0]])


def zero_padded(reqs):
    """The requests' feature rows stacked and zero-padded to the largest n,
    and the mask of real rows (None when nothing is padded), one request at
    a time."""
    ns = [r.n for r in reqs]
    feats = np.zeros((len(reqs), max(ns), D_X))
    for b, r in enumerate(reqs):
        feats[b, :r.n] = r.features
    valid = np.arange(max(ns)) < np.array(ns)[:, None] if min(ns) < max(ns) else None
    return feats, valid


def test_index_slice_minibatch_equals_stack_requests():
    logs = ragged_logs(12, seed=3)
    table = LogTable.of(logs)
    ns = table.n
    rows = np.array([5, 0, 7, 2])
    equal = np.flatnonzero(ns == ns[0])[:2]
    assert len(equal) == 2 and ns[rows].min() < ns[rows].max()
    for pick in (rows, equal):
        batch = table.take(pick)
        feats, valid = zero_padded([logs[i].request for i in pick])
        assert same_bits(batch.features, feats)
        assert same_bits(batch.exposed, table.exposed[pick])
        got_feats, got_valid = _stack_requests(batch, CFG)
        assert same_bits(got_feats, feats)
        if pick is equal:  # nothing padded: no mask at all
            assert valid is None and got_valid is None
        else:
            assert np.array_equal(got_valid, valid)


def test_table_slates_of_another_length_are_a_shape_error():
    table = LogTable.of(ragged_logs(4, m=M - 1))
    want = f"logged slates have {M - 1} items, config m={M}"
    with pytest.raises(ShapeError, match=want):
        ar_sequence_loss(table, init_ar_params(CFG), CFG, Tape())
    with pytest.raises(ShapeError, match=want):
        train_ar(table, init_ar_params(CFG), CFG)
    # the generator's trainer fails before its first minibatch, as the others do
    with pytest.raises(ShapeError, match=want):
        train_generator(table, init_generator_params(CFG), CFG,
                        UtilitySpec(types=("click", "like"), weights=(1.0, 0.5), tau=0.0))
    ev_cfg = EvaluatorConfig(d=8, h=2, d_x=D_X, m=M)
    with pytest.raises(ShapeError, match=want):
        train_evaluator(table, init_evaluator_params(ev_cfg), ev_cfg)


def test_table_utilities_have_the_bits_of_utility():
    # 20 positions and three types: long enough rows for pairwise summation
    rng = np.random.default_rng(4)
    types = ("click", "like", "share")
    spec = UtilitySpec(types=("like", "click", "share"), weights=(0.3, 1.1, -0.7), tau=0.0)
    logs = [ExposureLog(RequestBatch(
        request_id=i, user_id=0, item_ids=np.arange(20), features=np.zeros((20, 2)),
        exposed=tuple(range(20)),
        feedback=FeedbackMatrix(rng.normal(size=(3, 20)) * 10.0 ** rng.integers(-8, 8),
                                types))) for i in range(40)]
    got = utilities(LogTable.of(logs), spec)
    want = np.array([utility(log.feedback, spec) for log in logs])
    assert same_bits(got, want)


def test_a_bad_value_is_reported_before_a_later_syntax_error(tmp_path, capsys):
    path = tmp_path / "log.jsonl"
    write_logs(path, ragged_logs(6, seed=5))
    lines = path.read_text().splitlines()
    lines[3] = lines[3][:-7]  # line 4 no longer parses as JSON
    for damage in (
            # a non-numeric feature, found as line 2 is read
            lambda rec: rec["candidates"][0].update(features=["0.5", 1.0, 2.0, 3.0]),
            # a non-finite feature and a repeated slate item, both found when
            # the values of the lines read so far are checked together
            lambda rec: rec["candidates"][0].update(features=[float("inf"), 1.0, 2.0, 3.0]),
            lambda rec: rec.update(exposed=[rec["exposed"][0]] * M)):
        rec = json.loads(lines[1])
        damage(rec)
        write_lines(path, [lines[0], json.dumps(rec)] + lines[2:])
        with pytest.raises(DataError, match="^line 2: malformed"):
            read_logs(path, SCHEMA)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"paths.train_log={path}\ngenerator.d_x={D_X}\ngenerator.m={M}\n"
                       f"paths.out_dir={tmp_path}\n", encoding="utf-8")
        assert main(["train-evaluator", "--config", str(cfg)]) == 2
        assert "line 2: malformed" in capsys.readouterr().err
    # the syntax error alone is still line 4's
    write_lines(path, lines)
    with pytest.raises(DataError, match="^line 4: malformed"):
        read_logs(path, SCHEMA)


def test_a_bad_first_record_is_reported_with_its_line(tmp_path):
    # the checks over the whole log take their slate length from record 1
    path = tmp_path / "log.jsonl"
    write_logs(path, ragged_logs(3, seed=7))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for damage in (lambda rec: rec.update(feedback={}),
                   lambda rec: rec.update(candidates=[], exposed=[])):
        first = dict(records[0])
        damage(first)
        write_lines(path, [first] + records[1:])
        with pytest.raises(DataError, match="^line 1: malformed"):
            read_logs(path, SCHEMA)


def test_a_record_that_would_broadcast_into_the_table_is_reported_with_its_line(tmp_path):
    # scalar features on n = D_X candidates, or one feature per candidate,
    # would broadcast into the stacked feature table; each record is a bad one
    path = tmp_path / "log.jsonl"
    write_logs(path, ragged_logs(3, seed=7))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for features, match in (([0.5], "^line 2: malformed log record: features must be one row"),
                            ([[0.5]], "^line 2: features have width 1")):
        second = json.loads(json.dumps(records[1]))
        second["candidates"] = second["candidates"][:D_X]
        second["exposed"] = list(range(M))
        for cand in second["candidates"]:
            cand["features"] = features[0]
        write_lines(path, [records[0], second, records[2]])
        with pytest.raises(DataError, match=match):
            read_logs(path, SCHEMA)


def test_a_schema_misfit_keeps_its_own_line(tmp_path):
    path = tmp_path / "log.jsonl"
    write_logs(path, ragged_logs(8, seed=6))
    records = [json.loads(line) for line in path.read_text().splitlines()]

    def wider(rec):
        return dict(rec, candidates=[dict(c, features=c["features"] + [0.0])
                                     for c in rec["candidates"]])

    write_lines(path, records[:2] + [wider(records[2])] + records[3:])
    with pytest.raises(DataError, match="^line 3: features have width 5, config d_x=4"):
        read_logs(path, SCHEMA)
    # without a schema the first record sets the width
    with pytest.raises(DataError, match="^line 3: features have width 5, the first record's 4"):
        read_logs(path)
    # a record that does not parse wins over an earlier misfit
    write_lines(path, records[:2] + [wider(records[2])] + records[3:6] + ["{"] + records[7:])
    with pytest.raises(DataError, match="^line 7: malformed"):
        read_logs(path, SCHEMA)
    # and the first of several misfits is the one reported
    cands = records[5]["candidates"]
    more = cands + [dict(cands[0], item_id=999)] * (N_MAX + 1 - len(cands))
    write_lines(path, records[:5] + [dict(records[5], candidates=more), wider(records[6])]
                + records[7:])
    with pytest.raises(DataError, match=f"^line 6: {N_MAX + 1} candidates exceed n_max"):
        read_logs(path, SCHEMA)


# ---- the table cache of read_logs ----

COLUMNS = ("request_id", "user_id", "item_ids", "features", "n", "exposed", "feedback")


def assert_same_table(got, want):
    for field in COLUMNS:
        assert same_bits(getattr(got, field), getattr(want, field)), field
    assert got.types == want.types


def test_a_cached_table_equals_the_parsed_one(tmp_path, monkeypatch):
    path, cache = tmp_path / "log.jsonl", tmp_path / "cache"
    write_logs(path, ragged_logs(25, seed=1))
    parsed = read_logs(path, SCHEMA)
    parses = counted_parses(monkeypatch)
    assert_same_table(read_logs(path, SCHEMA, cache_dir=cache), parsed)
    assert len(parses) == 1 and len(list(cache.iterdir())) == 1
    # a hit under this schema and under none: no parse, the same columns,
    # writable as a parse gives them
    for schema in (SCHEMA, None):
        hit = read_logs(path, schema, cache_dir=cache)
        assert_same_table(hit, parsed)
        assert all(getattr(hit, field).flags.writeable for field in COLUMNS)
    assert len(parses) == 1


def test_a_log_rewritten_with_its_size_and_mtime_is_a_miss(tmp_path):
    path, cache = tmp_path / "log.jsonl", tmp_path / "cache"
    write_logs(path, ragged_logs(6, seed=3))
    assert read_logs(path, SCHEMA, cache_dir=cache).request_id[0] == 3
    before = path.stat()
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"request_id": 3,', '"request_id": 4,', 1), encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    table = read_logs(path, SCHEMA, cache_dir=cache)
    assert table.request_id[0] == 4
    assert_same_table(table, read_logs(path, SCHEMA))
    assert len(list(cache.iterdir())) == 1  # the path's one cache file, overwritten


def split_cache_file(raw: bytes) -> tuple[dict, bytes]:
    """A cache file's header, as a dict, and the column bytes after it."""
    size = int.from_bytes(raw[:4], "little")
    return json.loads(raw[8:8 + size]), raw[8 + size:]


def cache_file(header: dict, body: bytes) -> bytes:
    """The bytes of a cache file with `header` and the column bytes `body`,
    framed as read_logs frames one: the header padded, its length and a
    CRC-32 that matches it, so the CRC passes and only the later checks can
    refuse the file."""
    head = json.dumps(header).encode()
    head += b" " * (-len(head) % 8)
    prefix = len(head).to_bytes(4, "little") + zlib.crc32(head).to_bytes(4, "little")
    return prefix + head + body


def same_size_shapes(shape):
    """Other shapes with as many entries as `shape`: its axes permuted, and
    its first two merged or the last two merged."""
    shape = tuple(shape)
    others = {tuple(p) for p in itertools.permutations(shape)}
    if len(shape) > 1:
        others |= {(shape[0] * shape[1],) + shape[2:], shape[:-2] + (shape[-2] * shape[-1],)}
    others |= {(1,) + shape, shape + (1,)}
    return sorted(others - {shape})


@st.composite
def damaged_cache_files(draw, good: bytes, table: LogTable) -> bytes:
    """`good`, the cache file read_logs writes for `table`, damaged in one way."""
    header, body = split_cache_file(good)
    start = len(good) - len(body)  # where the first column begins
    kind = draw(st.sampled_from([
        "truncated in the header", "truncated in a column", "garbled header bytes",
        "renamed type", "garbled header field", "header overruns the file",
        "bad value", "version 1", "column overruns the file", "other dtype",
        "other shape"]))
    if kind == "truncated in the header":
        return good[:draw(st.integers(0, start - 1))]
    if kind == "truncated in a column":
        return good[:draw(st.integers(start, len(good) - 1))]
    if kind == "garbled header bytes":  # the prefix or the header, under the old CRC
        at = draw(st.integers(0, start - 1))
        junk = draw(st.binary(min_size=1, max_size=min(24, start - at)))
        assume(junk != good[at:at + len(junk)])
        return good[:at] + junk + good[at + len(junk):]
    if kind == "renamed type":  # still valid JSON of the same length: only the CRC tells
        name = draw(st.sampled_from(table.types))
        at = good.index(json.dumps(name).encode(), 8) + 1 + draw(st.integers(0, len(name) - 1))
        letter = draw(st.sampled_from(b"aeiouxyz"))
        assume(letter != good[at])
        return good[:at] + bytes([letter]) + good[at + 1:]
    if kind == "garbled header field":  # with a CRC that matches the garbling
        key = draw(st.sampled_from(["version", "digest", "types", "columns"]))
        # (types renamed behind a matching CRC would read as renamed: no
        # check can tell them from the log's own, so no value here does that)
        value = draw(st.sampled_from([None, 0, 1, 2.5, "x", "click", [], ["click"],
                                      ["click", 7], ["click", "like", "share"], {},
                                      "0" * 64]))
        garbled = dict(header)
        if draw(st.booleans()):
            del garbled[key]
        else:
            garbled[key] = value
        if garbled == header:
            garbled["version"] = 1
        return cache_file(garbled, body)
    if kind == "header overruns the file":  # its length in the prefix, past the end
        size = draw(st.integers(len(good) - 7, 2 ** 32 - 1))
        return size.to_bytes(4, "little") + good[4:]
    if kind == "bad value":  # one entry that the value checks refuse
        column, bad = draw(st.sampled_from([
            ("features", np.nan), ("features", -np.inf), ("feedback", np.nan),
            ("exposed", -1), ("exposed", 2 ** 40), ("n", 0), ("n", 2 ** 40)]))
        spec = header["columns"][column]
        entry = (sum(math.prod(header["columns"][c]["shape"])
                     for c in COLUMNS[:COLUMNS.index(column)])
                 + draw(st.integers(0, math.prod(spec["shape"]) - 1)))
        at = start + 8 * entry
        return good[:at] + np.array(bad, dtype=spec["dtype"]).tobytes() + good[at + 8:]
    if kind == "version 1":  # an .npz at the same path
        npz = io.BytesIO()
        np.savez(npz, version=1, digest=header["digest"], types=np.array(table.types),
                 **{c: getattr(table, c) for c in COLUMNS})
        return npz.getvalue()
    # one column's entry in the header, under a CRC that matches it
    column = draw(st.sampled_from(COLUMNS))
    spec = header["columns"][column]
    if kind == "column overruns the file":
        shape = list(spec["shape"])
        axis = draw(st.integers(0, len(shape) - 1))
        shape[axis] += draw(st.sampled_from([1, 2, 1000, 2 ** 40]))
        spec = dict(spec, shape=shape)
    elif kind == "other dtype":
        dtype = draw(st.sampled_from(
            ["<f8", "<i8", "<u8", ">i8", ">f8", "<i4", "<f4", "|u1", "<c16", "|V8", "|O"]))
        assume(np.dtype(dtype) != np.dtype(spec["dtype"]))
        spec = dict(spec, dtype=dtype)
    else:  # another shape of as many entries
        spec = dict(spec, shape=draw(st.sampled_from(same_size_shapes(spec["shape"]))))
    return cache_file(dict(header, columns=dict(header["columns"], **{column: spec})), body)


def read_outcome(path, schema, cache_dir=None):
    """read_logs's table, or the type and message of the error it raises."""
    try:
        return read_logs(path, schema, cache_dir=cache_dir)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def cached_log(tmp_path_factory):
    """A ragged log, the directory of its table cache, and the cache file's
    bytes as read_logs writes them."""
    root = tmp_path_factory.mktemp("cached_log")
    path, cache = root / "log.jsonl", root / "cache"
    write_logs(path, ragged_logs(8, seed=4))
    read_logs(path, SCHEMA, cache_dir=cache)
    (file,) = cache.iterdir()
    return path, cache, file, file.read_bytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_cache_file_that_does_not_read_back_is_a_miss_and_is_rewritten(
        cached_log, monkeypatch, data):
    """Each damaged file is a miss: the read gives the table, or the error,
    of a read without the cache, and a read that succeeds rewrites the file,
    so the next read is a hit."""
    path, cache, file, good = cached_log
    parses = counted_parses(monkeypatch)
    table = read_logs(path, SCHEMA)
    n_max = int(table.n.max())
    schema = data.draw(st.sampled_from([SCHEMA, None, LogSchema(D_X, M, n_max - 1),
                                        LogSchema(D_X + 1, M)]), label="schema")
    damaged = data.draw(damaged_cache_files(good, table), label="damaged")
    want = read_outcome(path, schema)
    file.write_bytes(damaged)
    parses.clear()
    got = read_outcome(path, schema, cache)
    if isinstance(want, LogTable):
        assert_same_table(got, want)
    else:
        assert got == want
    assert len(parses) == 1
    if isinstance(want, LogTable):  # rewritten: the next read is a hit
        assert file.read_bytes() == good
        parses.clear()
        assert_same_table(read_logs(path, schema, cache_dir=cache), want)
        assert not parses
    file.write_bytes(good)


def test_a_schema_misfit_on_a_cached_table_reports_its_line(tmp_path):
    path, cache = tmp_path / "log.jsonl", tmp_path / "cache"
    write_logs(path, ragged_logs(8, seed=6))
    table = read_logs(path, cache_dir=cache)
    n_max = int(table.n.max()) - 1
    line = int(np.argmax(table.n > n_max)) + 1
    for schema in (LogSchema(D_X, M, n_max), LogSchema(D_X + 1, M), LogSchema(D_X, M + 1)):
        with pytest.raises(DataError) as uncached:
            read_logs(path, schema)
        with pytest.raises(DataError) as cached:
            read_logs(path, schema, cache_dir=cache)
        assert str(cached.value) == str(uncached.value)
    assert str(cached.value).startswith("line 1: slate has")
    with pytest.raises(DataError, match=f"^line {line}: {n_max + 1} candidates exceed"):
        read_logs(path, LogSchema(D_X, M, n_max), cache_dir=cache)


def test_a_cache_dir_that_cannot_be_written_leaves_the_log_uncached(tmp_path):
    path = tmp_path / "log.jsonl"
    write_logs(path, ragged_logs(5, seed=8))
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, so no directory can be made under it", encoding="utf-8")
    table = read_logs(path, SCHEMA, cache_dir=blocker / "cache")
    assert_same_table(table, read_logs(path, SCHEMA))
    assert blocker.is_file()


def test_line_breaks_and_positions_read_as_in_text_mode(tmp_path):
    # "\r\n" and "\r" end lines as "\n" does, and the JSON error of a cut-off
    # record gives the position a text-mode read of the line gives
    path = tmp_path / "log.jsonl"
    write_logs(path, ragged_logs(4, seed=9))
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_bytes(f"{lines[0]}\r\n{lines[1]}\r{lines[2][:-1]}\r\n{lines[3]}\n".encode())
    with open(path, encoding="utf-8") as fh:
        cut = list(fh)[2]
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(cut)
    assert str(want.value).startswith("Expecting ',' delimiter: line 2 column 1")
    with pytest.raises(DataError) as got:
        read_logs(path, SCHEMA)
    assert str(got.value) == f"line 3: malformed log record: {want.value}"
    path.write_bytes(f"{lines[0]}\r\n\r\n{lines[1]}\r{lines[2]}\r\n{lines[3]}".encode())
    assert_same_table(read_logs(path, SCHEMA), LogTable.of(ragged_logs(4, seed=9)))
