"""Run-level configuration.

One flat plain-text format covers every command: `section.field=value`
lines, one per setting, with `#` comments and blank lines ignored.
Tuples are comma-joined, floats are written with repr so that
parse -> serialize -> parse is the identity.

The same `key=value` grammar backs `--set` overrides on the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .decoding import DecodeConfig
from .errors import ConfigError
from .evaluator import EvaluatorConfig
from .generator import GeneratorConfig
from .objectives import UtilitySpec
from .simulator import WorldConfig
from .training import check_objective


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings shared by the generator, evaluator and AR loops."""

    lr: float = 1e-3
    batch_size: int = 256
    epochs: int = 1
    omega: float = 0.01
    rho: float = 0.5
    objective: str = "ul"
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lr) and math.isfinite(self.omega)):
            raise ConfigError("lr and omega must be finite")
        if self.lr <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("lr, batch_size and epochs must be positive")
        check_objective(self.objective)
        if self.omega < 0:
            raise ConfigError("omega must be >= 0")
        if not -1.0 <= self.rho <= 1.0:
            raise ConfigError("rho must lie in [-1, 1]")


@dataclass(frozen=True)
class Paths:
    train_log: str = "train.jsonl"
    test_log: str = "test.jsonl"
    generator_checkpoint: str = "generator.npz"
    evaluator_checkpoint: str = "evaluator.npz"
    ar_checkpoint: str = "ar.npz"
    out_dir: str = "."


def _default_utility() -> UtilitySpec:
    return UtilitySpec(types=("click", "like"), weights=(1.0, 0.5), tau=1.0)


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run. The evaluator takes `d_x` and `m` from the
    generator, and its head types and selection weights from the utility."""

    seed: int = 0
    num_requests: int = 50_000
    paths: Paths = field(default_factory=Paths)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    evaluator: EvaluatorConfig = field(default_factory=EvaluatorConfig)
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    world: WorldConfig = field(default_factory=WorldConfig)
    utility: UtilitySpec = field(default_factory=_default_utility)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ConfigError("num_requests must be >= 1")
        # every seed seeds a NumPy generator, which takes no negative seed
        for key, value in (("seed", self.seed), ("generator.seed", self.generator.seed),
                           ("evaluator.seed", self.evaluator.seed),
                           ("world.seed", self.world.seed), ("train.seed", self.train.seed)):
            if value < 0:
                raise ConfigError(f"{key} must be >= 0, got {value}")
        object.__setattr__(self, "evaluator", replace(
            self.evaluator, d_x=self.generator.d_x, m=self.generator.m,
            types=self.utility.types, weights=self.utility.weights))


_SECTIONS = {
    "paths": Paths,
    "generator": GeneratorConfig,
    "evaluator": EvaluatorConfig,
    "decode": DecodeConfig,
    "world": WorldConfig,
    "utility": UtilitySpec,
    "train": TrainConfig,
}
_TOP_LEVEL = ("seed", "num_requests")
# fields that RunConfig takes from the generator and utility sections: no
# config names them
_DERIVED = ("evaluator.d_x", "evaluator.m", "evaluator.types", "evaluator.weights")


def _coerce(text: str, annotation: str, key: str):
    ann = annotation.replace(" ", "")
    if "\0" in text:  # no path, name or number holds one; open() would raise
        raise ConfigError(f"bad value for {key}: it holds a NUL byte")
    try:
        if ann == "int":
            return int(text)
        if ann == "float":
            return float(text)
        if ann == "str":
            return text
        if ann.startswith("tuple["):
            inner = ann[len("tuple["):-1].split(",")[0]
            parts = [p.strip() for p in text.split(",") if p.strip()]
            if inner == "float":
                return tuple(float(p) for p in parts)
            if inner == "str":
                return tuple(parts)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc
    raise ConfigError(f"unsupported config field type {annotation!r} for {key}")


def _render(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_render(v) for v in value)
    return str(value)


def parse_pairs(pairs: list[tuple[str, str]],
                base: RunConfig | None = None) -> RunConfig:
    """Build a RunConfig from (key, value) pairs layered over `base`."""
    base = base or RunConfig()
    top = {name: getattr(base, name) for name in _TOP_LEVEL}
    sections = {name: {f.name: getattr(getattr(base, name), f.name)
                       for f in fields(cls)}
                for name, cls in _SECTIONS.items()}
    for key, value in pairs:
        if key in _TOP_LEVEL:
            ftype = next(f.type for f in fields(RunConfig) if f.name == key)
            top[key] = _coerce(value, ftype, key)
            continue
        section, dot, name = key.partition(".")
        if not dot or section not in _SECTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        cls = _SECTIONS[section]
        match = [f for f in fields(cls) if f.name == name]
        if not match or key in _DERIVED:
            raise ConfigError(f"unknown config key {key!r}")
        sections[section][name] = _coerce(value, match[0].type, key)
    built = {name: cls(**sections[name]) for name, cls in _SECTIONS.items()}
    return RunConfig(**top, **built)


def parse_config(text: str) -> RunConfig:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        pairs.append((key.strip(), value.strip()))
    return parse_pairs(pairs)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def apply_overrides(run: RunConfig, settings: list[str]) -> RunConfig:
    """Apply `key=value` strings (the --set flag) on top of a RunConfig."""
    pairs = []
    for item in settings:
        key, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(f"override {item!r} is not key=value")
        pairs.append((key.strip(), value.strip()))
    return parse_pairs(pairs, base=run)


def serialize_config(run: RunConfig) -> str:
    lines = [f"{name}={_render(getattr(run, name))}" for name in _TOP_LEVEL]
    lines += [f"{name}.{f.name}={_render(getattr(getattr(run, name), f.name))}"
              for name, cls in _SECTIONS.items() for f in fields(cls)
              if f"{name}.{f.name}" not in _DERIVED]
    return "\n".join(lines) + "\n"


def check_pipeline(run: RunConfig) -> None:
    """Dimension and type agreement between the world and the generator,
    whose config the AR baseline shares.

    `bench`, which runs the generator and the AR baseline on the world's
    requests, calls this up front so mismatches fail with one clear message
    instead of a shape error mid-run.
    """
    problems = []
    for key in ("d_x", "m"):
        want, got = getattr(run.world, key), getattr(run.generator, key)
        if got != want:
            problems.append(f"generator.{key}={got} != world {key}={want}")
    if run.generator.n_max < run.world.n_candidates:
        problems.append(f"generator.n_max={run.generator.n_max} below "
                        f"world n_candidates={run.world.n_candidates}")
    if problem := unweighted_types(run.utility, run.world.types, "world"):
        problems.append(problem)
    if problems:
        raise ConfigError("; ".join(problems))


def unweighted_types(spec: UtilitySpec, types, source: str) -> str | None:
    """The problem, if any, when the utility spec gives no weight to some of
    `types`, the interaction types of `source` ("world" or "logged")."""
    missing = [t for t in types if t not in spec.types]
    return (f"utility spec has no weights for {source} interaction types {missing}"
            if missing else None)
