"""Experiment configuration: file schema, validation, and policy construction.

Config files are INI-style: one ``[experiment]`` section plus optional
``[policy.<NAME>]`` sections. Unknown sections or keys are rejected so
typos fail loudly. Absent keys fall back to the simulation-study defaults.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

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

_EXPERIMENT_KEYS = {
    "mode", "family", "stream", "repetitions", "horizon", "deltas",
    "master_seed", "t_eval", "noise_var", "range_lo", "range_hi", "out",
    "policies", "realized_regret",
}


def _parse_bool(raw) -> bool:
    lowered = str(raw).strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _floats(raw: str) -> list[float]:
    return [float(x) for x in raw.split(",")]


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


@dataclass(frozen=True)
class PolicySpec:
    name: str
    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    repetitions: int
    horizon: int
    master_seed: int
    out_dir: str
    family: str | None = None
    stream_path: str | None = None
    deltas: tuple[float, ...] = ()
    t_eval: int = 1750
    noise_var: float = 0.01
    action_range: ActionRange = ActionRange(0.0, 1.0)
    policies: tuple[PolicySpec, ...] = ()
    realized_regret: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if self.mode in ("online", "offline") and self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if self.mode in ("offline", "ingest") and not self.deltas:
            raise ConfigError(f"{self.mode} mode requires a non-empty deltas list")
        for d in self.deltas:
            if d <= 0:
                raise ConfigError(f"deltas must be positive, got {d}")
        if self.mode in ("online", "offline") and self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.mode == "ingest" and not self.stream_path:
            raise ConfigError("ingest mode requires a stream path")
        if self.t_eval < 1:
            raise ConfigError("t_eval must be positive")
        if self.noise_var < 0:
            raise ConfigError("noise_var must be non-negative")
        if not self.policies:
            raise ConfigError("at least one policy is required")
        # Build each policy once, so a bad value fails here and not in
        # every repetition. No generator: numpy imports its random module
        # on first use, which costs set-up time and memory.
        for spec in self.policies:
            try:
                make_policy(spec, self.action_range, self.mode, None)
            except ConfigError as exc:
                raise ConfigError(f"policy {spec.name!r}: {exc}") from None


def default_policy_specs() -> tuple[PolicySpec, ...]:
    return tuple(PolicySpec(kind, kind) for kind in POLICY_KINDS)


def _get(section, key: str, cast, default):
    if key not in section:
        return default
    raw = section[key]
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r}") from None


def parse_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    sections = set(parser.sections())
    if "experiment" not in sections:
        raise ConfigError("missing [experiment] section")

    exp = parser["experiment"]
    unknown = set(exp.keys()) - _EXPERIMENT_KEYS
    if unknown:
        raise ConfigError(f"unknown experiment key(s): {sorted(unknown)}")

    mode = _get(exp, "mode", str, "online").strip()
    lo = _get(exp, "range_lo", float, 0.0)
    hi = _get(exp, "range_hi", float, 1.0)
    try:
        action_range = ActionRange(lo, hi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    deltas_raw = _get(exp, "deltas", str, "")
    deltas = tuple(float(x) for x in deltas_raw.split(",") if x.strip()) if deltas_raw else ()

    policy_names = [
        name.strip()
        for name in _get(exp, "policies", str, ",".join(POLICY_KINDS)).split(",")
        if name.strip()
    ]

    specs = []
    seen_sections = {"experiment"}
    for name in policy_names:
        section_name = f"policy.{name}"
        params: dict = {}
        kind = name
        if section_name in sections:
            seen_sections.add(section_name)
            params = dict(parser[section_name])
            kind = params.pop("kind", name).strip()
        specs.append(PolicySpec(name=name, kind=kind, params=params))

    stray = sections - seen_sections
    if stray:
        raise ConfigError(f"unknown section(s): {sorted(stray)}")

    return ExperimentConfig(
        mode=mode,
        repetitions=_get(exp, "repetitions", int, 100),
        horizon=_get(exp, "horizon", int, 10_000),
        master_seed=_get(exp, "master_seed", int, 0),
        out_dir=_get(exp, "out", str, "results"),
        family=_get(exp, "family", str, None),
        stream_path=_get(exp, "stream", str, None),
        deltas=deltas,
        t_eval=_get(exp, "t_eval", int, 1750),
        noise_var=_get(exp, "noise_var", float, 0.01),
        action_range=action_range,
        policies=tuple(specs),
        realized_regret=_get(exp, "realized_regret", _parse_bool, False),
    )


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
