"""In-memory span recorder that wraps slaterank's layer functions.

Each target is a public function of a layer module, patched at every name
its callers look it up by (a module that did `from .generator import
forward` holds its own reference, so `training.forward` is patched beside
`generator.forward`). A span is (name, start, end, parent, request); self
time is a span's duration minus the durations of its direct children, so
the self times of every span under a request add up to that request's
duration. Spans stay in memory and are written out once, at the end of a
run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _len_first_arg(args, result):
    return len(args[0])


def _len_result(args, result):
    return len(result)


# span name -> (call sites as (module, attribute path), optional tally).
# A tally adds a number per call to `Tracer.tallies[span name]`.
TARGETS = {
    "generator.forward": (
        [("slaterank.generator", "forward"), ("slaterank.training", "forward"),
         ("slaterank.cli", "forward")], None),
    "generator.encode_candidates": (
        [("slaterank.generator", "encode_candidates"),
         ("slaterank.ar", "encode_candidates")], None),
    "generator.encode_positions": ([("slaterank.generator", "encode_positions")], None),
    "generator.matching_head": ([("slaterank.generator", "matching_head")], None),
    "decoding.contrastive_decode": ([("slaterank.decoding", "contrastive_decode")], None),
    "decoding.sample_slates": (
        [("slaterank.decoding", "sample_slates"), ("slaterank.cli", "sample_slates")],
        _len_result),
    "decoding.topk_sample": ([("slaterank.decoding", "topk_sample")], None),
    "evaluator.select_best": (
        [("slaterank.evaluator", "select_best"), ("slaterank.cli", "select_best")], None),
    "evaluator.score_slate": (
        [("slaterank.evaluator", "score_slate"), ("slaterank.cli", "score_slate")], None),
    "evaluator.bce_loss": ([("slaterank.evaluator", "bce_loss")], None),
    "evaluator.train_evaluator": (
        [("slaterank.evaluator", "train_evaluator"),
         ("slaterank.cli", "train_evaluator")], None),
    "objectives.total_loss": ([("slaterank.training", "total_loss")], None),
    "numerics.Tape.backward": ([("slaterank.numerics", "Tape.backward")], _len_first_arg),
    "numerics.adam_step": (
        [("slaterank.training", "adam_step"), ("slaterank.evaluator", "adam_step")], None),
    "training.train_generator": (
        [("slaterank.training", "train_generator"),
         ("slaterank.cli", "train_generator")], None),
    "ar.ar_decode": ([("slaterank.ar", "ar_decode")], None),
    "ar.ar_forward": ([("slaterank.ar", "ar_forward")], None),
    "data.read_logs": ([("slaterank.data", "read_logs"), ("slaterank.cli", "read_logs")], None),
    "cli.main": ([("slaterank.cli", "main")], None),
    "simulator.gen_log": (
        [("slaterank.simulator", "gen_log"), ("slaterank.cli", "gen_log")], None),
}

SETUP = -1  # request id of spans recorded outside any timed request


def _resolve(module: str, path: str):
    """(owner object, attribute name), or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records spans for the TARGETS while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []  # [name, start, end, parent, request, child_time]
        self.tallies: dict[str, float] = defaultdict(float)  # timed requests only
        self.request = SETUP
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # ---- recording ----

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    def run(self, name: str, request: int, fn, *args, **kwargs):
        """Call fn inside a root span that carries the request id."""
        self.request = request
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)
            self.request = SETUP

    def _wrap(self, name: str, fn, tally):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if tally is not None and self.request != SETUP:
                self.tallies[name] += tally(args, result)
            return result
        return wrapper

    # ---- patching ----

    def install(self) -> None:
        """Patch every target site; a site that no longer exists is listed in
        `missing` and skipped."""
        for name, (sites, tally) in self.targets.items():
            for module, path in sites:
                found = _resolve(module, path)
                if found is None:
                    self.missing.add(f"{module}.{path}")
                    continue
                owner, attr = found
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, tally))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- summaries ----

    def request_spans(self):
        return (s for s in self.spans if s[4] != SETUP)

    def self_seconds(self, setup: bool = False) -> dict[str, float]:
        """Total self time per span name, over timed requests or set-up."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _, request, child in self.spans:
            if (request == SETUP) == setup:
                totals[name] += end - start - child
        return totals

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.request_spans():
            counts[span[0]] += 1
        return counts

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,request\n")
            for name, start, end, parent, request, _ in self.spans:
                fh.write(f"{name},{start!r},{end!r},"
                         f"{'' if parent is None else parent},{request}\n")
