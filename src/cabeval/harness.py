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
from dataclasses import dataclass
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
    generate_logged_stream,
    load_stream,
    replay_cab,
    required_log_length,
)
from .rewards import RewardModel, make_model

ROLE_MODEL = 0
ROLE_STREAM = 1
ROLE_POLICY_INIT = 2
ROLE_PROPOSAL = 3
ROLE_REWARD = 4

REPS_PER_TASK = 8  # repetitions per pool task
CSV_BLOCK_ROWS = 1024  # aggregate CSV rows formatted per write


def derive_rng(
    master_seed: int,
    repetition: int,
    role: int,
    policy_name: str = "",
    delta: float = 0.0,
) -> np.random.Generator:
    policy_key = zlib.crc32(policy_name.encode())
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
    its reward function returns the model's mean at step i's proposal plus
    the i-th of ``horizon`` noise draws, made from ``reward_rng`` in one
    block before the run. Every step is accepted, or the run raises, so
    the rewards and ``reward_rng``'s end state are those of one ``sample``
    per step; the trace's rewards are computed after the hook in one array
    call. A noise-free model draws nothing.
    """
    noise = model.noise(reward_rng, horizon)
    mean, step_noise = model.mean, noise.tolist()
    indices, proposals = policy.replay(
        np.zeros(horizon), lambda i, p: mean(p) + step_noise[i], math.inf, proposal_rng
    )
    if len(indices) < horizon:
        raise ValueError(f"{horizon - len(indices)} of {horizon} online proposals not finite")
    return Trace(indices, proposals, (mean(np.asarray(proposals)) + noise).tolist())


@dataclass
class RunResult:
    """In-memory results of one harness invocation (also written to disk)."""

    aggregates: dict[tuple[str, float | None], RunAggregate]
    rank_tables: dict[float | None, RankTable]
    manifest: dict


def _repetition(
    config: ExperimentConfig, sweep: list, stream: LoggedStream | None, rep: int
):
    """One repetition: a fresh policy per (delta, policy) of the sweep,
    played online (delta None) or replayed over the log. Each curve, and
    each failure's (type name, message), is keyed by (policy, delta, repetition).

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
    curves, errors = {}, {}
    for delta in sweep:
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
                if delta is None:
                    trace = simulate_online(
                        policy,
                        model,
                        config.horizon,
                        proposal_rng,
                        derive_rng(seed, rep, ROLE_REWARD, spec.name),
                    )
                else:
                    trace = replay_cab(policy, stream, ReplayConfig(delta), proposal_rng)
                curves[spec.name, delta, rep] = (
                    cumulative_reward(trace)
                    if model is None
                    else cumulative_regret(trace, model, config.realized_regret)
                )
            except Exception as exc:  # noqa: BLE001 - batch runs must survive one bad fit
                errors[spec.name, delta, rep] = (type(exc).__name__, str(exc))
    return curves, errors


def _collect_repetitions(config: ExperimentConfig, sweep: list, workers: int, stream):
    # Both maps return results in repetition order, whatever the scheduling.
    run = partial(_repetition, config, sweep, stream)
    reps = range(config.repetitions)
    # A worker beyond the number of tasks would get no work, and a pool of
    # one would only pickle the config, the log and every curve.
    pool_size = min(workers, math.ceil(config.repetitions / REPS_PER_TASK))
    if pool_size >= 2:
        # Imported here: it loads multiprocessing, which a run in this
        # process does not need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            results = list(pool.map(run, reps, chunksize=REPS_PER_TASK))
    else:
        results = map(run, reps)
    curves: dict[tuple[str, float | None, int], np.ndarray] = {}
    errors: dict[tuple[str, float | None, int], tuple[str, str]] = {}
    for rep_curves, rep_errors in results:
        curves.update(rep_curves)
        errors.update(rep_errors)
    return curves, errors


def _write_aggregate_csv(path, agg: RunAggregate) -> None:
    """Write the ``t,mean,se,n`` rows as ``csv.writer`` would, one block
    of ``CSV_BLOCK_ROWS`` rows per ``str.format`` call. csv writes a float
    with str(), as "{}" formats it: its repr, "nan" for NaN."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t,mean,se,n\r\n")
        for start in range(0, len(agg.n), CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, len(agg.n))
            fields = [None] * (4 * (stop - start))
            fields[0::4] = range(start + 1, stop + 1)
            fields[1::4] = agg.mean[start:stop].tolist()
            fields[2::4] = agg.se[start:stop].tolist()
            fields[3::4] = agg.n[start:stop].tolist()
            fh.write(("{},{},{},{}\r\n" * (stop - start)).format(*fields))


def run_experiment(config: ExperimentConfig, workers: int = 1) -> RunResult:
    """Execute the configured experiment and write all artifacts to out_dir."""
    # The nearest existing ancestor of out_dir must be a directory, or
    # os.makedirs would fail only after every repetition had run.
    existing = os.path.abspath(config.out_dir)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise NotADirectoryError(f"output path {config.out_dir!r}: {existing!r} is not a directory")
    stream = None
    if config.mode == "ingest":
        stream = load_stream(config.stream_path, config.action_range)
        try:
            needed = required_log_length(config.t_eval, min(config.deltas), config.action_range)
        except ValueError:  # a length beyond the float range
            needed = math.inf
        if len(stream) < needed:
            warnings.warn(
                f"log of {len(stream)} events is shorter than the {needed} needed for "
                f"t_eval={config.t_eval} at delta={min(config.deltas):g}; "
                "rank table may be all n/a",
                stacklevel=2,
            )
    sweep: list[float | None] = [None] if config.mode == "online" else list(config.deltas)
    curves, errors = _collect_repetitions(config, sweep, workers, stream)
    # After the stream and the repetitions, so a run that fails on either
    # leaves no directory.
    os.makedirs(config.out_dir, exist_ok=True)

    metric = "reward" if config.mode == "ingest" else "regret"
    aggregates: dict[tuple[str, float | None], RunAggregate] = {}
    rank_tables: dict[float | None, RankTable] = {}
    accepted_counts: dict[str, list[int]] = {}
    for delta in sweep:
        suffix = "" if delta is None else f"_delta{delta:g}"
        named = {}
        for spec in config.policies:
            runs = [
                curves[key]
                for rep in range(config.repetitions)
                if (key := (spec.name, delta, rep)) in curves
            ]
            if runs:
                # Each curve is a running sum over its run's accepts.
                label = spec.name if delta is None else f"{spec.name}@delta={delta:g}"
                accepted_counts[label] = list(map(len, runs))
            agg = aggregate_runs(runs)
            aggregates[spec.name, delta] = named[spec.name] = agg
            _write_aggregate_csv(
                os.path.join(
                    config.out_dir,
                    f"aggregate_{config.mode}_{spec.name}{suffix}.csv",
                ),
                agg,
            )
        table = rank_at(named, config.t_eval, metric)
        rank_tables[delta] = table
        rank_path = os.path.join(config.out_dir, f"rank_{config.mode}{suffix}.csv")
        with open(rank_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(table.to_rows())

    manifest = {
        "config": config.echo(),
        "accepted_counts": accepted_counts,
        "errors": [
            {"repetition": rep, "policy": name, "type": kind, "error": message}
            | ({} if delta is None else {"delta": delta})
            for (name, delta, rep), (kind, message) in errors.items()
        ],
        "metric": metric,
    }
    with open(os.path.join(config.out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return RunResult(aggregates=aggregates, rank_tables=rank_tables, manifest=manifest)
