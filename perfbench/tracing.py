"""The traced run: each repetition re-enacted through cabeval's public functions.

The re-enactment calls ``make_model``, ``generate_logged_stream``,
``make_policy``, ``replay_cab`` / ``simulate_online``, the curve functions,
``aggregate_runs`` and ``rank_at`` in the harness's order and with the same
``derive_rng`` seeds, so its accepted counts must equal the untraced run's.

A span (name, start, end, parent, repetition, pid) wraps each of those
calls. Per-step calls -- a policy's ``propose``/``update`` and a model's
``sample``/``mean``/``optimum`` -- are too many to keep one span each; their
count and seconds are folded into the innermost open span as ``leaves``.
A span's self time is its duration minus its child spans and leaves.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from multiprocessing import get_context

import numpy as np

import cabeval
from cabeval.harness import ROLE_MODEL, ROLE_POLICY_INIT, ROLE_PROPOSAL, ROLE_REWARD, ROLE_STREAM

from checks import curve_key

CHUNK = 8  # repetitions per pool task, as in the harness


class Recorder:
    """Spans and folded per-call leaves, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds], whole run
        self._open: list[dict] = []

    def timed(self, fn, name: str):
        """``fn`` wrapped so each call adds to the ``name`` leaf."""
        acc = self.leaves.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def call(*args):
            t0 = clock()
            out = fn(*args)
            acc[1] += clock() - t0
            acc[0] += 1
            return out

        return call

    @contextmanager
    def span(self, name: str, rep: int | None = None, **attrs):
        before = {k: tuple(v) for k, v in self.leaves.items()}
        parent = self._open[-1]["id"] if self._open else None
        span = {"id": len(self.spans), "name": name, "parent": parent, "rep": rep, **attrs}
        self.spans.append(span)
        self._open.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
            span["leaves"] = {
                k: [v[0] - before.get(k, (0, 0.0))[0], v[1] - before.get(k, (0, 0.0))[1]]
                for k, v in self.leaves.items()
                if v[0] != before.get(k, (0, 0.0))[0]
            }

    def merge(self, other: "Recorder", pid: int) -> None:
        """Adopt a worker's spans (ids shifted, tagged with its pid) and leaves."""
        shift = len(self.spans)
        for span in other.spans:
            span["id"] += shift
            span["parent"] = None if span["parent"] is None else span["parent"] + shift
            span["pid"] = pid
            self.spans.append(span)
        for k, (calls, secs) in other.leaves.items():
            acc = self.leaves.setdefault(k, [0, 0.0])
            acc[0] += calls
            acc[1] += secs


def self_seconds(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus direct child spans and the leaves outside them."""
    child_time: dict[int, float] = {}
    child_leaf: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
            child_leaf[s["parent"]] = child_leaf.get(s["parent"], 0.0) + leaf_seconds(s)
    return {
        s["id"]: (s["end"] - s["start"])
        - child_time.get(s["id"], 0.0)
        - (leaf_seconds(s) - child_leaf.get(s["id"], 0.0))
        for s in spans
    }


def leaf_seconds(span: dict) -> float:
    return sum(secs for _, secs in span["leaves"].values())


class TimedModel:
    """A reward model whose ``sample``/``mean``/``optimum`` calls are timed."""

    def __init__(self, model, rec: Recorder):
        self._model = model
        self.range = model.range
        self.sample = rec.timed(model.sample, "rewards.sample")
        self.mean = rec.timed(model.mean, "rewards.mean")
        self.optimum = rec.timed(model.optimum, "rewards.optimum")

    def __getattr__(self, name):
        return getattr(self._model, name)


def time_policy(policy, rec: Recorder, name: str):
    """Time ``propose``/``update`` on the instance itself, so code that
    dispatches on the policy's class still sees the real class."""
    policy.propose = rec.timed(policy.propose, f"policies.propose.{name}")
    policy.update = rec.timed(policy.update, f"policies.update.{name}")
    return policy


def reenact_reps(config, reps, stream, rec: Recorder):
    """Re-enact ``reps`` as the harness does; return {key: [(rep, T, curve)]}, errors."""
    results: dict[str, list] = {}
    errors: list[dict] = []
    seed, space = config.master_seed, config.action_range
    sweep = [None] if config.mode == "online" else list(config.deltas)
    for rep in reps:
        with rec.span("harness.rep", rep):
            model = None
            if config.mode != "ingest":
                with rec.span("rewards.make_model", rep):
                    truth = cabeval.make_model(
                        config.family, cabeval.derive_rng(seed, rep, ROLE_MODEL), space, config.noise_var
                    )
                model = TimedModel(truth, rec)
            if config.mode == "offline":
                with rec.span("replay.generate_stream", rep):
                    stream = cabeval.generate_logged_stream(
                        truth, config.horizon, cabeval.derive_rng(seed, rep, ROLE_STREAM)
                    )
            for delta in sweep:
                d = delta or 0.0
                for spec in config.policies:
                    key = curve_key(spec.name, delta)
                    try:
                        with rec.span("config.make_policy", rep):
                            policy = cabeval.make_policy(
                                spec, space, config.mode,
                                cabeval.derive_rng(seed, rep, ROLE_POLICY_INIT, spec.name, d),
                            )
                        time_policy(policy, rec, spec.name)
                        proposal_rng = cabeval.derive_rng(seed, rep, ROLE_PROPOSAL, spec.name, d)
                        if delta is None:
                            with rec.span("harness.simulate_online", rep, policy=spec.name):
                                trace = cabeval.simulate_online(
                                    policy, model, config.horizon, proposal_rng,
                                    cabeval.derive_rng(seed, rep, ROLE_REWARD, spec.name),
                                )
                        else:
                            with rec.span("replay.replay_cab", rep, policy=spec.name, delta=delta):
                                trace = cabeval.replay_cab(
                                    policy, stream, cabeval.ReplayConfig(delta=delta), proposal_rng
                                )
                        if model is None:
                            with rec.span("metrics.cumulative_reward", rep):
                                curve = cabeval.cumulative_reward(trace)
                        else:
                            with rec.span("metrics.cumulative_regret", rep):
                                curve = cabeval.cumulative_regret(trace, model, config.realized_regret)
                        results.setdefault(key, []).append((rep, trace.T, curve))
                    except Exception as exc:  # noqa: BLE001 - counted, as the harness does
                        errors.append({"repetition": rep, "key": key, "error": repr(exc)})
    return results, errors


def _reenact_chunk(args):
    config, reps, stream = args
    rec = Recorder()
    results, errors = reenact_reps(config, reps, stream, rec)
    return os.getpid(), rec, results, errors


def reenact(config, workers: int, rec: Recorder):
    """The whole traced run: per-repetition work (pooled like the harness),
    then aggregation and ranking. Returns per-key accepted counts, the
    aggregates and rank tables, and the errors."""
    stream = None
    if config.mode == "ingest":
        with rec.span("replay.load_stream"):
            stream = cabeval.load_stream(config.stream_path, config.action_range)
    reps = list(range(config.repetitions))
    results: dict[str, list] = {}
    errors: list[dict] = []
    if workers > 1:
        chunks = [(config, reps[i : i + CHUNK], stream) for i in range(0, len(reps), CHUNK)]
        # Forked workers, as the harness's pool on Linux. A spawn or
        # forkserver pool would also start a resource tracker, which
        # outlives the pool and is left a zombie when this process exits.
        with get_context("fork").Pool(workers) as pool:
            parts = pool.map(_reenact_chunk, chunks, chunksize=1)
        for pid, worker_rec, part, errs in parts:
            rec.merge(worker_rec, pid)
            for key, items in part.items():
                results.setdefault(key, []).extend(items)
            errors += errs
    else:
        results, errors = reenact_reps(config, reps, stream, rec)

    metric = "reward" if config.mode == "ingest" else "regret"
    sweep = [None] if config.mode == "online" else list(config.deltas)
    accepted, aggregates, tables = {}, {}, {}
    for delta in sweep:
        named = {}
        for spec in config.policies:
            key = curve_key(spec.name, delta)
            items = sorted(results.get(key, []), key=lambda item: item[0])
            accepted[key] = [T for _, T, _ in items]
            if items:
                with rec.span("metrics.aggregate_runs"):
                    agg = cabeval.aggregate_runs([curve for _, _, curve in items])
            else:
                agg = cabeval.RunAggregate(np.empty(0), np.empty(0), np.empty(0, dtype=int), 0)
            aggregates[key] = named[spec.name] = agg
        with rec.span("metrics.rank_at"):
            tables[delta] = cabeval.rank_at(named, config.t_eval, metric)
    return accepted, aggregates, tables, errors
