"""`--set` overrides through the CLI: keys drawn from the serialized default
config and unknown ones, values from junk text, non-finite floats, empty
tuples, negatives and small integers. `simulate`, `train-generator` and
`train-evaluator` on a tiny log either run (exit 0) or refuse the config
with one `error:` line (exit 1), and never end in a traceback.

`paths.*` keys are left out, so that no draw writes outside the test's
directory; outputs that cannot be written are tested in test_cli.py. A
draw that sets one of the generator keys a log is checked against (feature
width, slate length, candidate cap) may make the tiny log not fit, which is
a data problem and exits 2 by design.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slaterank.cli import main
from slaterank.configs import RunConfig, serialize_config
from slaterank.numerics import load_checkpoint

KEYS = sorted(line.partition("=")[0] for line in serialize_config(RunConfig()).splitlines()
              if not line.startswith("paths."))
# the last four are the generator's and the utility's, which the evaluator takes
UNKNOWN_KEYS = ["bogus", "seed.x", "generator", "generator.", ".seed", "generator.bogus",
                "paths.bogus", "train.Lr", "world.seed.x", "evaluator.d_x", "evaluator.m",
                "evaluator.types", "evaluator.weights"]
LOG_SCHEMA_KEYS = {"generator.d_x", "generator.m", "generator.n_max"}

# printable ASCII, as a command line carries it
JUNK = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)
VALUES = st.one_of(
    JUNK,
    st.sampled_from(["nan", "-nan", "inf", "-inf", "+inf", "NaN", "1e309", "", ",", ",,",
                     "nan,nan", "inf,1.0", "-1,-1", "0", "0.0", "-0.0", "0.5", "1e-3"]),
    st.integers(0, 64).map(str),
    st.integers(-64, -1).map(str),
)
SETTINGS = st.lists(st.tuples(st.sampled_from(KEYS + UNKNOWN_KEYS), VALUES),
                    min_size=1, max_size=3)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A config whose every path lies in one directory, and its tiny log."""
    root = tmp_path_factory.mktemp("overrides")
    cfg = root / "run.cfg"
    cfg.write_text("\n".join([
        "seed=3", "num_requests=12", "world.num_users=20", "world.num_items=60",
        "world.n_candidates=8", "generator.n_max=8", "generator.d=8", "generator.h=2",
        "generator.L=1", "generator.d_t=8", "evaluator.d=8", "evaluator.h=2",
        "train.batch_size=8",
        f"paths.train_log={root}/train.jsonl", f"paths.test_log={root}/test.jsonl",
        f"paths.generator_checkpoint={root}/gen.npz",
        f"paths.evaluator_checkpoint={root}/ev.npz", f"paths.ar_checkpoint={root}/ar.npz",
        f"paths.out_dir={root}/out",
    ]) + "\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 0
    return root


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["simulate", "train-generator", "train-evaluator"]),
       pairs=SETTINGS)
# a NaN or infinite rate once trained a checkpoint of NaNs with exit 0, a NaN
# omega failed mid-training with exit 3, and a negative seed ended in
# NumPy's traceback, as did a noise_std of -0.0
@example(command="simulate", pairs=[("world.noise_std", "-0.0")])
@example(command="train-generator", pairs=[("train.lr", "nan")])
@example(command="train-generator", pairs=[("train.lr", "inf")])
@example(command="train-generator", pairs=[("train.omega", "nan")])
@example(command="simulate", pairs=[("seed", "-1")])
@example(command="simulate", pairs=[("world.seed", "-1")])
@example(command="train-generator", pairs=[("train.seed", "-1")])
@example(command="train-generator", pairs=[("generator.seed", "-1")])
def test_a_set_override_runs_or_exits_1_with_one_error_line(tiny, command, pairs):
    argv = [command, "--config", str(tiny / "run.cfg")]
    if command == "simulate":
        argv += ["--out", str(tiny / "simulated.jsonl")]
    for key, value in pairs:
        argv += ["--set", f"{key}={value}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    allowed = {0, 1}
    if command != "simulate" and LOG_SCHEMA_KEYS & {key for key, _ in pairs}:
        allowed.add(2)
    assert code in allowed, (code, err.getvalue())
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (code != 0), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if command != "simulate" and code == 0:
        # a run that succeeds leaves a model that can be served
        checkpoint = "gen.npz" if command == "train-generator" else "ev.npz"
        params, _ = load_checkpoint(tiny / checkpoint)
        assert all(np.isfinite(t.data).all() for _, t in params.items()), pairs
