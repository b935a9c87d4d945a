"""Experiment configuration: file schema, validation, and policy construction.

Config files are INI-style: one ``[experiment]`` section plus optional
``[policy.<NAME>]`` sections. Unknown sections or keys are rejected so
typos fail loudly. Absent keys take the defaults of the ``ExperimentConfig``
fields and the policy constructors.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .policies import (
    EpsilonFirstPolicy,
    LockInFeedbackPolicy,
    Policy,
    ThompsonQuadraticPolicy,
    UniformRandomPolicy,
)
from .rewards import ActionRange


class ConfigError(ValueError):
    """Raised for schema or value violations in an experiment config."""


MODES = ("online", "offline", "ingest")
FAMILIES = ("parabola", "bimodal")

# Field-style ingest runs explore for far fewer steps than the
# simulation studies, whose length is EF's own default.
INGEST_EXPLORE_STEPS = 100


def _parse_bool(raw) -> bool:
    lowered = str(raw).strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _floats(raw: str) -> list[float]:
    return [float(x) for x in raw.split(",")]


def _items(raw: str) -> list[str]:
    """The non-empty entries of a comma-separated list."""
    return [x.strip() for x in raw.split(",") if x.strip()]


# Per policy kind: its class, and for each config key the constructor
# argument it sets and the parser of its value. A key a section leaves
# out takes the constructor's default.
_POLICIES = {
    "UR": (UniformRandomPolicy, {}),
    "EF": (EpsilonFirstPolicy, {"explore_steps": ("explore_steps", int)}),
    "TBL": (
        ThompsonQuadraticPolicy,
        {
            "sigma2": ("sigma2", float),
            "clamp_vertex": ("clamp_vertex", _parse_bool),
            "j0": ("J", _floats),
            "p0_diag": ("P", lambda raw: np.diag(_floats(raw))),
        },
    ),
    "LiF": (
        LockInFeedbackPolicy,
        {
            "a0": ("a0", float),
            "amplitude": ("amplitude", float),
            "window": ("window", int),
            "gamma": ("gamma", float),
            "omega": ("omega", float),
        },
    ),
}
POLICY_KINDS = tuple(_POLICIES)

# The [experiment] schema: for each key, the ExperimentConfig field it sets
# and the parser of its value. A key a file leaves out keeps the field's
# default. A dotted name sets one end of the action range, and the policy
# names pick the [policy.<NAME>] sections that make the specs.
_EXPERIMENT = {
    "mode": ("mode", str),
    "family": ("family", str),
    "stream": ("stream_path", str),
    "repetitions": ("repetitions", int),
    "horizon": ("horizon", int),
    "deltas": ("deltas", lambda raw: tuple(map(float, _items(raw)))),
    "master_seed": ("master_seed", int),
    "t_eval": ("t_eval", int),
    "noise_var": ("noise_var", float),
    "range_lo": ("action_range.lo", float),
    "range_hi": ("action_range.hi", float),
    "out": ("out_dir", str),
    "policies": ("policies", _items),
    "realized_regret": ("realized_regret", _parse_bool),
}


@dataclass(frozen=True)
class PolicySpec:
    name: str
    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings. A field's default is the one default of the
    [experiment] key that sets it."""

    mode: str = "online"
    repetitions: int = 100
    horizon: int = 10_000
    master_seed: int = 0
    out_dir: str = "results"
    family: str | None = None
    stream_path: str | None = None
    deltas: tuple[float, ...] = ()
    t_eval: int = 1750
    noise_var: float = 0.01
    action_range: ActionRange = ActionRange(0.0, 1.0)
    policies: tuple[PolicySpec, ...] = tuple(PolicySpec(kind, kind) for kind in POLICY_KINDS)
    realized_regret: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {self.master_seed}")
        if self.mode in ("online", "offline") and self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if self.mode in ("offline", "ingest") and not self.deltas:
            raise ConfigError(f"{self.mode} mode requires a non-empty deltas list")
        # A delta seeds its runs by the nano-unit key int(round(delta * 1e9)).
        for d in self.deltas:
            if not (0 < d and math.isfinite(d * 1e9)):
                raise ConfigError(
                    f"deltas must be positive with a finite seed key delta * 1e9, "
                    f"so at most about 1.8e299, got {d}"
                )
        # A delta's artifacts and manifest keys are named by its f"{d:g}" label.
        if len({f"{d:g}" for d in self.deltas}) < len(self.deltas):
            raise ConfigError(f"deltas must differ in 6 significant digits, got {self.deltas}")
        if self.mode in ("online", "offline") and self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.mode == "ingest" and not self.stream_path:
            raise ConfigError("ingest mode requires a stream path")
        if not self.out_dir:
            raise ConfigError("out must name an output directory")
        if self.t_eval < 1:
            raise ConfigError("t_eval must be positive")
        # No online or offline run reaches a later step, so every rank table
        # would be n/a; ingest warns instead, since only the log's length
        # and the policies' acceptance rates bound its runs.
        if self.mode in ("online", "offline") and self.t_eval > self.horizon:
            raise ConfigError(f"t_eval {self.t_eval} is beyond horizon {self.horizon}")
        if not 0 <= self.noise_var < math.inf:
            raise ConfigError(f"noise_var must be finite and >= 0, got {self.noise_var}")
        if not self.policies:
            raise ConfigError("at least one policy is required")
        names = [spec.name for spec in self.policies]
        if len(set(names)) < len(names):
            raise ConfigError(f"policy names must not repeat, got {', '.join(names)}")
        # A policy's name is part of its aggregate CSV's file name.
        for name in names:
            if any(ch and ch in name for ch in (os.sep, os.altsep, "\0")):
                raise ConfigError(
                    f"policy name {name!r} must not contain a path separator or NUL"
                )
        # Build each policy once, so a bad value fails here and not in
        # every repetition. No generator: numpy imports its random module
        # on first use, which costs set-up time and memory.
        for spec in self.policies:
            try:
                make_policy(spec, self.action_range, self.mode, None)
            except ConfigError as exc:
                raise ConfigError(f"policy {spec.name!r}: {exc}") from None

    def echo(self) -> dict:
        """The settings as ``manifest.json`` records them: one entry per
        [experiment] key, but none for the output directory, which only names
        where the run was written, one ``range`` pair for the two range ends,
        and each policy as its spec."""
        echo = {
            key: getattr(self, name)
            for key, (name, _) in _EXPERIMENT.items()
            if name != "out_dir" and "." not in name
        }
        echo["range"] = [self.action_range.lo, self.action_range.hi]
        echo["policies"] = [asdict(spec) for spec in self.policies]
        return echo


def parse_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        read = parser.read(path, encoding="utf-8-sig")
    except configparser.Error as exc:  # a repeated key or section, a line without "="
        raise ConfigError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    sections = set(parser.sections())
    if "experiment" not in sections:
        raise ConfigError("missing [experiment] section")

    exp = parser["experiment"]
    unknown = exp.keys() - _EXPERIMENT.keys()
    if unknown:
        raise ConfigError(f"unknown experiment key(s): {sorted(unknown)}")

    kwargs, ends = {}, {}
    for key, raw in exp.items():
        name, parse = _EXPERIMENT[key]
        try:
            value = parse(raw)
        except ValueError:
            raise ConfigError(f"{key}: cannot parse {raw!r}") from None
        field_name, _, end = name.partition(".")
        if end:
            ends[end] = value
        else:
            kwargs[field_name] = value
    if ends:
        try:
            kwargs["action_range"] = replace(ExperimentConfig.action_range, **ends)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    specs = []
    seen_sections = {"experiment"}
    for name in kwargs.get("policies", [s.name for s in ExperimentConfig.policies]):
        section_name = f"policy.{name}"
        params: dict = {}
        kind = name
        if section_name in sections:
            seen_sections.add(section_name)
            params = dict(parser[section_name])
            kind = params.pop("kind", name)
        specs.append(PolicySpec(name=name, kind=kind, params=params))
    kwargs["policies"] = tuple(specs)

    stray = sections - seen_sections
    if stray:
        raise ConfigError(f"unknown section(s): {sorted(stray)}")

    return ExperimentConfig(**kwargs)


def make_policy(
    spec: PolicySpec,
    action_range: ActionRange,
    mode: str,
    init_rng: np.random.Generator | None,
) -> Policy:
    """Instantiate a policy from its spec.

    Only the keys the spec sets reach the constructor. Two values depend
    on the run: ingest mode shortens EF's exploration, and LiF's starting
    center is drawn from ``init_rng`` when ``a0`` is not set (with no
    generator, the constructor's default center is kept).
    """
    if spec.kind not in _POLICIES:
        raise ConfigError(f"unknown kind {spec.kind!r}")
    cls, parsers = _POLICIES[spec.kind]
    kwargs = {}
    for key, raw in spec.params.items():
        if key not in parsers:
            raise ConfigError(f"unknown key {key!r}")
        arg, parse = parsers[key]
        try:
            kwargs[arg] = parse(raw)
        except ValueError:
            raise ConfigError(f"{key}: cannot parse {raw!r}") from None
    if spec.kind == "EF" and mode == "ingest":
        kwargs.setdefault("explore_steps", INGEST_EXPLORE_STEPS)
    if spec.kind == "LiF" and "a0" not in kwargs and init_rng is not None:
        kwargs["a0"] = float(init_rng.uniform(action_range.lo, action_range.hi))
    try:
        return cls(action_range, **kwargs)
    except ValueError as exc:
        given = ", ".join(f"{key} = {raw}" for key, raw in spec.params.items())
        raise ConfigError(f"{exc} (given {given})") from None
