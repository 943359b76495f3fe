"""Damaged `.npz` checkpoints through the CLI: `generate` and `evaluate`
each fail with exit 2 and a message that names the damaged file, and never
with an exception other than a SlaterankError."""

import contextlib
import io
import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slaterank.cli import main

VERSION_KEY, META_KEY = "__checkpoint_version__", "__meta__"


@dataclass(frozen=True)
class Trained:
    cfg: str
    files: dict  # checkpoint path -> its good bytes


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small pipeline with both checkpoints written and a test log."""
    root = tmp_path_factory.mktemp("checkpoints")
    cfg = root / "run.cfg"
    cfg.write_text("\n".join([
        "seed=5", "num_requests=40", "world.num_users=30", "world.num_items=120",
        "world.n_candidates=8", "generator.n_max=8", "generator.d=8", "generator.h=2",
        "generator.L=1", "generator.d_t=8", "evaluator.d=8", "evaluator.h=2",
        "train.epochs=1", "train.batch_size=16",
        f"paths.train_log={root}/train.jsonl", f"paths.test_log={root}/test.jsonl",
        f"paths.generator_checkpoint={root}/gen.npz",
        f"paths.evaluator_checkpoint={root}/ev.npz",
        f"paths.out_dir={root}/out",
    ]) + "\n", encoding="utf-8")
    cfg = str(cfg)
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["simulate", "--config", cfg, "--policy", "affinity_greedy",
                 "--out", f"{root}/test.jsonl", "--num-requests", "20"]) == 0
    assert main(["train-generator", "--config", cfg]) == 0
    assert main(["train-evaluator", "--config", cfg]) == 0
    for command in ("generate", "evaluate"):
        assert main([command, "--config", cfg]) == 0
    files = {root / name: (root / name).read_bytes() for name in ("gen.npz", "ev.npz")}
    return Trained(cfg, files)


def npz_bytes(arrays: dict) -> bytes:
    out = io.BytesIO()
    np.savez(out, **arrays)
    return out.getvalue()


def other_shapes(shape):
    """Shapes a parameter of `shape` must not load with."""
    shape = tuple(shape)
    others = {shape + (1,), shape[:-1], (2,) + shape, (shape[0] + 1,) + shape[1:],
              shape[:-1] + (shape[-1] + 1,), (max(shape[0] - 1, 0),) + shape[1:],
              tuple(reversed(shape))}
    return sorted(others - {shape})


@st.composite
def damaged_checkpoints(draw, good: bytes) -> bytes:
    """`good`, a checkpoint as train-* writes it, damaged in one way."""
    with np.load(io.BytesIO(good)) as payload:
        arrays = {key: payload[key] for key in payload.files}
    names = sorted(key for key in arrays if key.startswith("param:"))
    kind = draw(st.sampled_from([
        "missing parameter", "extra parameter", "misshapen parameter",
        "non-finite value", "wrong dtype", "missing meta", "bad meta",
        "mismatched meta", "missing version", "wrong version", "cut short"]))
    if kind == "cut short":
        return good[:draw(st.integers(0, len(good) - 1))]
    if kind in ("missing meta", "missing version"):
        del arrays[META_KEY if kind == "missing meta" else VERSION_KEY]
    elif kind == "bad meta":
        arrays[META_KEY] = draw(st.sampled_from([
            np.array("{not json"), np.array(""), np.array("[1, 2]"), np.array("null"),
            np.array("7"), np.array([1.0, 2.0]), np.array(b"{}")]))
    elif kind == "mismatched meta":
        meta = json.loads(str(arrays[META_KEY]))
        key = draw(st.sampled_from(sorted(meta)))
        if draw(st.booleans()):
            del meta[key]
        else:
            meta[key] = draw(st.sampled_from(
                [None, "generator2", 0, 3, 1000, [], ["click"], {"d": 8}]))
        arrays[META_KEY] = np.array(json.dumps(meta))
    elif kind == "wrong version":
        arrays[VERSION_KEY] = draw(st.sampled_from([
            np.array([0]), np.array([2]), np.array([-1]), np.zeros(0, dtype=np.int64),
            np.array(1), np.array([[1]]), np.array([1, 1]), np.array([np.nan]),
            np.array([np.inf]), np.array(["x"]), np.array([2 ** 62]),
            # int() reads each of these as 1
            np.array([1.7]), np.array([1.0]), np.array(["1"]), np.array([True])]))
    else:
        key = draw(st.sampled_from(names))
        value = arrays[key]
        if kind == "missing parameter":
            del arrays[key]
        elif kind == "extra parameter":
            arrays[key + ".extra"] = value.copy()
        elif kind == "misshapen parameter":
            shape = draw(st.sampled_from(other_shapes(value.shape)))
            arrays[key] = np.resize(value, shape)
        elif kind == "non-finite value":
            value = value.copy()
            value.flat[draw(st.integers(0, value.size - 1))] = draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
            arrays[key] = value
        else:  # wrong dtype
            arrays[key] = value.astype(draw(st.sampled_from(
                [np.float32, np.float16, np.int64, np.bool_, np.complex128, ">f8", "<U8"])))
    return npz_bytes(arrays)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_damaged_checkpoint_exits_2_naming_its_file(trained, data):
    path = data.draw(st.sampled_from(sorted(trained.files)), label="checkpoint")
    command = data.draw(st.sampled_from(["generate", "evaluate"]), label="command")
    damaged = data.draw(damaged_checkpoints(trained.files[path]), label="damage")
    path.write_bytes(damaged)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", trained.cfg])
    finally:
        path.write_bytes(trained.files[path])
    assert code == 2, err.getvalue()
    message = err.getvalue()
    assert message.startswith("error: ") and str(path) in message, message
