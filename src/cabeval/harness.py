"""Experiment runner: online simulations, offline delta sweeps, field ingest.

Seed derivation is hierarchical so any single run is reproducible in
isolation and adding a policy or a delta never perturbs the randomness of
the others: every generator is seeded from
``SeedSequence(master_seed, spawn_key=(repetition, role, policy_key, delta_key))``
where ``role`` distinguishes model / stream / policy-init / proposal /
reward draws, ``policy_key`` is a CRC32 of the policy name, and
``delta_key`` encodes the tolerance in nano-units.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .config import ExperimentConfig, make_policy
from .metrics import (
    RankTable,
    RunAggregate,
    aggregate_runs,
    cumulative_regret,
    cumulative_reward,
    rank_at,
)
from .replay import (
    LoggedStream,
    ReplayConfig,
    Trace,
    acceptance_probability,
    generate_logged_stream,
    load_stream,
    replay_cab,
)
from .rewards import RewardModel, make_model

ROLE_MODEL = 0
ROLE_STREAM = 1
ROLE_POLICY_INIT = 2
ROLE_PROPOSAL = 3
ROLE_REWARD = 4


def derive_rng(
    master_seed: int,
    repetition: int,
    role: int,
    policy_name: str = "",
    delta: float = 0.0,
) -> np.random.Generator:
    policy_key = zlib.crc32(policy_name.encode()) if policy_name else 0
    delta_key = int(round(delta * 1e9))
    seq = np.random.SeedSequence(
        master_seed, spawn_key=(repetition, role, policy_key, delta_key)
    )
    return np.random.default_rng(seq)


def simulate_online(
    policy, model: RewardModel, horizon: int, proposal_rng, reward_rng
) -> Trace:
    """Run a policy directly against the model for ``horizon`` interactions.

    Online is a replay that accepts every finite proposal: the policy's
    ``replay`` hook runs over ``horizon`` zero actions at delta = inf, and
    its reward function samples the model at each proposal with
    ``reward_rng``. A run cut short by a non-finite proposal raises.
    """
    rewards = []

    def reward(i, proposal):
        rewards.append(float(model.sample(proposal, reward_rng)))
        return rewards[-1]

    indices, proposals = policy.replay(np.zeros(horizon), reward, math.inf, proposal_rng)
    if len(indices) < horizon:
        raise ValueError(f"{horizon - len(indices)} of {horizon} online proposals not finite")
    return Trace(indices, proposals, rewards)


@dataclass
class RunResult:
    """In-memory results of one harness invocation (also written to disk)."""

    aggregates: dict[tuple[str, float | None], RunAggregate]
    rank_tables: dict[float | None, RankTable]
    manifest: dict
    out_dir: str = ""
    errors: list = field(default_factory=list)


def _curve_key(policy: str, delta: float | None) -> str:
    return policy if delta is None else f"{policy}@delta={delta:g}"


def _repetition(
    config: ExperimentConfig, sweep: list, stream: LoggedStream | None, rep: int
):
    """One repetition: a fresh policy per (delta, policy) of the sweep,
    played online (delta None) or replayed over the log.

    Online and offline repetitions draw a fresh model, and offline ones a
    fresh log from it. Ingest replays the loaded log; its surface is
    unknown, so its curves are cumulative reward rather than regret.
    """
    seed = config.master_seed
    model = None
    if config.mode != "ingest":
        model = make_model(
            config.family,
            derive_rng(seed, rep, ROLE_MODEL),
            config.action_range,
            config.noise_var,
        )
    if config.mode == "offline":
        stream = generate_logged_stream(
            model, config.horizon, derive_rng(seed, rep, ROLE_STREAM)
        )
    curves = {}
    accepted = {}
    errors = []
    for delta in sweep:
        cfg = None if delta is None else ReplayConfig(delta=delta)
        seed_delta = delta or 0.0  # online runs are seeded as delta 0
        for spec in config.policies:
            try:
                policy = make_policy(
                    spec,
                    config.action_range,
                    config.mode,
                    derive_rng(seed, rep, ROLE_POLICY_INIT, spec.name, seed_delta),
                )
                proposal_rng = derive_rng(
                    seed, rep, ROLE_PROPOSAL, spec.name, seed_delta
                )
                if cfg is None:
                    trace = simulate_online(
                        policy,
                        model,
                        config.horizon,
                        proposal_rng,
                        derive_rng(seed, rep, ROLE_REWARD, spec.name),
                    )
                else:
                    trace = replay_cab(policy, stream, cfg, proposal_rng)
                key = _curve_key(spec.name, delta)
                curves[key] = (
                    cumulative_reward(trace)
                    if model is None
                    else cumulative_regret(trace, model, config.realized_regret)
                )
                accepted[key] = trace.T
            except Exception as exc:  # noqa: BLE001 - batch runs must survive one bad fit
                error = {
                    "repetition": rep,
                    "policy": spec.name,
                    "type": type(exc).__name__,
                    "error": str(exc),
                }
                if delta is not None:
                    error["delta"] = delta
                errors.append(error)
    return curves, accepted, errors


def _collect_repetitions(config: ExperimentConfig, sweep: list, workers: int, stream):
    # Both maps return results in repetition order, whatever the scheduling.
    run = partial(_repetition, config, sweep, stream)
    reps = range(config.repetitions)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, reps, chunksize=8))
    else:
        results = map(run, reps)
    per_key_curves: dict[str, list] = {}
    per_key_T: dict[str, list] = {}
    errors: list = []
    for curves, accepted, errs in results:
        for key, curve in curves.items():
            per_key_curves.setdefault(key, []).append(curve)
            per_key_T.setdefault(key, []).append(accepted[key])
        errors.extend(errs)
    return per_key_curves, per_key_T, errors


def _write_aggregate_csv(path, agg: RunAggregate) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "mean", "se", "n"])
        # csv writes floats with str(), which equals repr() and gives "nan" for NaN.
        t = range(1, len(agg.n) + 1)
        writer.writerows(zip(t, agg.mean.tolist(), agg.se.tolist(), agg.n.tolist()))


def _write_rank_csv(path, table: RankTable) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(table.to_rows())


def run_experiment(config: ExperimentConfig, workers: int = 1) -> RunResult:
    """Execute the configured experiment and write all artifacts to out_dir."""
    os.makedirs(config.out_dir, exist_ok=True)

    stream = None
    if config.mode == "ingest":
        stream = load_stream(config.stream_path, config.action_range)
        expected_T = acceptance_probability(
            min(config.deltas), config.action_range
        ) * len(stream)
        if expected_T < config.t_eval:
            warnings.warn(
                f"expected accepted count {expected_T:.0f} is below "
                f"t_eval={config.t_eval}; rank table may be all n/a",
                stacklevel=2,
            )

    sweep: list[float | None] = [None] if config.mode == "online" else list(config.deltas)
    per_key_curves, per_key_T, errors = _collect_repetitions(config, sweep, workers, stream)

    metric = "reward" if config.mode == "ingest" else "regret"
    aggregates: dict[tuple[str, float | None], RunAggregate] = {}
    rank_tables: dict[float | None, RankTable] = {}
    for delta in sweep:
        suffix = "" if delta is None else f"_delta{delta:g}"
        named = {}
        for spec in config.policies:
            key = _curve_key(spec.name, delta)
            curves = per_key_curves.get(key, [])
            if curves:
                agg = aggregate_runs(curves)
            else:
                agg = RunAggregate(np.empty(0), np.empty(0), np.empty(0, dtype=int), 0)
            aggregates[(spec.name, delta)] = agg
            named[spec.name] = agg
            _write_aggregate_csv(
                os.path.join(
                    config.out_dir,
                    f"aggregate_{config.mode}_{spec.name}{suffix}.csv",
                ),
                agg,
            )
        table = rank_at(named, config.t_eval, metric)
        rank_tables[delta] = table
        _write_rank_csv(
            os.path.join(config.out_dir, f"rank_{config.mode}{suffix}.csv"), table
        )

    manifest = {
        "config": config.echo(),
        "accepted_counts": {k: per_key_T[k] for k in sorted(per_key_T)},
        "errors": errors,
        "metric": metric,
    }
    with open(os.path.join(config.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return RunResult(
        aggregates=aggregates,
        rank_tables=rank_tables,
        manifest=manifest,
        out_dir=config.out_dir,
        errors=errors,
    )
