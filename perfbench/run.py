"""cabeval benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` it times fresh-process set-up and whole
``run_experiment`` runs (each in its own process, with the workload's pool)
for about ``--seconds`` seconds and reports medians. With ``--trace 1`` it
alternates untraced runs with traced re-enactments (see ``tracing.py``) for
the same window and reports per-layer metrics. Either way the run's artifacts are checked, and
the last line of stdout is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Work files and the trace go to ``perfbench/.work/``, never into ``out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import artifact_bytes, artifact_name, check_run, curve_key, digest, read_csv, survivors
from workloads import POLICIES, WORKLOADS, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE.relative_to(ROOT) / ".work"  # relative: artifacts must not name the checkout

MIN_SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "events_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, for every workload."""
    deltas = sorted({d for w in WORKLOADS.values() for d in w.deltas})
    units: dict[str, str] = {}
    for p in POLICIES:
        units[f"policies.propose_us.{p}"] = "us"
        units[f"policies.update_us.{p}"] = "us"
    units.update({"rewards.sample_us": "us", "rewards.mean_us": "us",
                  "rewards.optimum_ms": "ms", "rewards.make_model_ms": "ms"})
    for p in POLICIES:
        for d in deltas:
            units[f"replay.event_us.{p}.d{d:g}"] = "us"
        units[f"replay.self_us.{p}"] = "us"
    for kind, unit in (("accepted", "count"), ("accept_law_ratio", "ratio"), ("survivors", "count")):
        for p in POLICIES:
            for d in deltas:
                units[f"replay.{kind}.{p}.d{d:g}"] = unit
    units.update({"replay.generate_stream_ms": "ms", "replay.load_stream_ms": "ms"})
    for p in POLICIES:
        units[f"harness.online_step_us.{p}"] = "us"
        units[f"harness.online_self_us.{p}"] = "us"
    units.update({
        "harness.rep_ms.p50": "ms", "harness.rep_ms.p90": "ms", "harness.rep_ms.n": "count",
        "harness.task_bytes": "bytes", "harness.parallel_efficiency": "ratio",
        "harness.artifact_bytes": "bytes",
        "metrics.cumulative_regret_ms": "ms", "metrics.cumulative_reward_ms": "ms",
        "metrics.aggregate_runs_ms": "ms", "metrics.rank_at_ms": "ms",
        "config.parse_ms": "ms", "config.make_policy_us": "us",
        "trace.overhead_frac": "ratio",
    })
    return units


def child(*args: str) -> dict:
    """Run ``child.py`` in a fresh interpreter with ``src`` importable.

    The child leads its own process group. Reading its stdout to the end
    waits for its pool workers too, since they share the pipe; if the child
    fails, times out or this process is stopped, the whole group is killed
    and the child reaped, so no worker outlives the call."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        if proc.returncode is None:  # unreaped, so the group id is still ours
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        with contextlib.suppress(ChildProcessError):
            while True:  # the group's orphans, handed to this subreaper
                os.waitpid(-proc.pid, 0)
        raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd, stdout)
    return json.loads(stdout.strip().splitlines()[-1])


def become_subreaper() -> None:
    """Have orphaned descendants handed to this process rather than to init,
    so that ``child`` can wait for them (Linux only)."""
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through child() and the trace pool


def environment(workload, seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workers": workload.workers,
        "seed": seed,
        "workload": workload.name,
    }


def untraced(workload, seed: int, seconds: float, ini: Path, out: Path) -> dict:
    """Time whole runs, each after one set-up probe, until the next run would
    pass ``seconds``; spend what is left on set-up probes. Interleaving
    spreads both samples over the same stretch of host time, whose speed
    drifts on a scale of seconds."""
    start = time.perf_counter()
    child("setup", str(ini))  # first import writes bytecode; not a user's steady cost
    setup, runs, problems, digests, failed = [], [], [], set(), 0
    while True:
        t0 = time.perf_counter()
        setup.append(child("setup", str(ini))["setup_s"])
        shutil.rmtree(out, ignore_errors=True)
        runs.append(child("run", str(ini), str(workload.workers)))
        manifest, found = check_run(workload, seed, out)
        problems += found
        failed += len(manifest["errors"])
        digests.add(digest(out))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    while len(setup) < MIN_SETUP_PROBES or time.perf_counter() - start < seconds:
        setup.append(child("setup", str(ini))["setup_s"])
    if len(digests) != 1:
        problems.append(f"{len(digests)} different artifact digests from one seed")

    def med(key):
        return statistics.median(r[key] for r in runs)

    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": med("run_s"),
        "events_per_s": statistics.median(workload.events / r["run_s"] for r in runs),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    return {
        "metrics": metrics, "units": END_TO_END, "problems": problems,
        "attempted": workload.units * len(runs), "failed": failed,
        "notes": {"digest": digests.pop(), "setup_s": setup, "run_s": [r["run_s"] for r in runs]},
    }


def fidelity(accepted, aggregates, tables, manifest, workload, out: Path) -> list[str]:
    """Differences between the re-enactment and the untraced run's artifacts."""
    problems = []
    if {k: v for k, v in accepted.items() if v} != manifest["accepted_counts"]:
        problems.append("traced accepted_counts differ from the untraced run")
    for delta, table in tables.items():
        if table.to_rows() != read_csv(out / artifact_name("rank", workload.mode, None, delta)):
            problems.append(f"traced rank table at delta={delta} differs")
    for key, agg in aggregates.items():
        policy, _, d = key.partition("@delta=")
        rows = read_csv(out / artifact_name("aggregate", workload.mode, policy, float(d) if d else None))
        expected = [["t", "mean", "se", "n"]] + [
            [str(t + 1), repr(float(m)), "nan" if np.isnan(s) else repr(float(s)), str(int(n))]
            for t, (m, s, n) in enumerate(zip(agg.mean, agg.se, agg.n))
        ]
        if rows != expected:
            problems.append(f"traced aggregate {key} differs")
    return problems


def traced(workload, seed: int, seconds: float, ini: Path, out: Path, trace_path: Path) -> dict:
    """Pairs of one untraced run and one traced re-enactment until the next
    pair would pass ``seconds``; per-layer metrics from all traced spans."""
    import cabeval
    from tracing import Recorder, reenact, self_seconds

    rec = Recorder()
    runs, overheads, problems, failed = [], [], [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        shutil.rmtree(out, ignore_errors=True)
        run = child("run", str(ini), str(workload.workers))
        manifest, found = check_run(workload, seed, out)
        with rec.span("trace.run") as whole:
            with rec.span("config.parse_config"):
                config = cabeval.parse_config(ini)
            accepted, aggregates, tables, errors = reenact(config, workload.workers, rec)
        problems += found + fidelity(accepted, aggregates, tables, manifest, workload, out)
        failed += len(manifest["errors"]) + len(errors)
        runs.append(run)
        overheads.append((whole["end"] - whole["start"] - run["run_s"]) / run["run_s"])
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break

    spans = rec.spans
    own = self_seconds(spans)

    def per_call(leaf, scale):
        calls, secs = rec.leaves.get(leaf, (0, 0.0))
        return secs / calls * scale if calls else 0.0

    def mean_span(name, scale):
        durs = [s["end"] - s["start"] for s in spans if s["name"] == name]
        return statistics.fmean(durs) * scale if durs else 0.0

    def per_event(name, events_per_span, match, self_time=False):
        chosen = [s for s in spans if s["name"] == name and match(s)]
        secs = sum(own[s["id"]] if self_time else s["end"] - s["start"] for s in chosen)
        return secs / (len(chosen) * events_per_span) * 1e6 if chosen else 0.0

    units = per_layer_units()
    m = dict.fromkeys(units, 0.0)
    for p in POLICIES:
        m[f"policies.propose_us.{p}"] = per_call(f"policies.propose.{p}", 1e6)
        m[f"policies.update_us.{p}"] = per_call(f"policies.update.{p}", 1e6)
        m[f"harness.online_step_us.{p}"] = per_event(
            "harness.simulate_online", workload.horizon, lambda s: s["policy"] == p)
        m[f"harness.online_self_us.{p}"] = per_event(
            "harness.simulate_online", workload.horizon, lambda s: s["policy"] == p, True)
        m[f"replay.self_us.{p}"] = per_event(
            "replay.replay_cab", workload.horizon, lambda s: s["policy"] == p, True)
        for d in workload.deltas:
            m[f"replay.event_us.{p}.d{d:g}"] = per_event(
                "replay.replay_cab", workload.horizon, lambda s: (s["policy"], s["delta"]) == (p, d))
            counts = manifest["accepted_counts"].get(curve_key(p, d), [])
            law = cabeval.acceptance_probability(d, config.action_range) * workload.horizon * len(counts)
            m[f"replay.accepted.{p}.d{d:g}"] = sum(counts)
            m[f"replay.accept_law_ratio.{p}.d{d:g}"] = sum(counts) / law if law else 0.0
            m[f"replay.survivors.{p}.d{d:g}"] = survivors(counts, workload.t_eval)
    m["rewards.sample_us"] = per_call("rewards.sample", 1e6)
    m["rewards.mean_us"] = per_call("rewards.mean", 1e6)
    m["rewards.optimum_ms"] = per_call("rewards.optimum", 1e3)
    for span in ("rewards.make_model", "replay.generate_stream", "replay.load_stream",
                 "metrics.cumulative_regret", "metrics.cumulative_reward",
                 "metrics.aggregate_runs", "metrics.rank_at"):
        m[f"{span}_ms"] = mean_span(span, 1e3)
    m["config.parse_ms"] = mean_span("config.parse_config", 1e3)
    m["config.make_policy_us"] = mean_span("config.make_policy", 1e6)
    rep_ms = [(s["end"] - s["start"]) * 1e3 for s in spans if s["name"] == "harness.rep"]
    m["harness.rep_ms.p50"] = float(np.percentile(rep_ms, 50))
    m["harness.rep_ms.p90"] = float(np.percentile(rep_ms, 90))
    m["harness.rep_ms.n"] = len(rep_ms)
    if workload.workers > 1:
        # Tasks as the harness submits them: (config, rep, mode, stream).
        stream = cabeval.load_stream(config.stream_path, config.action_range) if config.stream_path else None
        m["harness.task_bytes"] = sum(
            len(pickle.dumps((config, rep, config.mode, stream))) for rep in range(config.repetitions)
        )
    m["harness.parallel_efficiency"] = statistics.median(
        r["cpu_s"] / (r["run_s"] * workload.workers) for r in runs)
    m["harness.artifact_bytes"] = artifact_bytes(out)
    m["trace.overhead_frac"] = statistics.median(overheads)

    trace_path.write_text("".join(json.dumps(s) + "\n" for s in spans))
    return {
        "metrics": m, "units": units, "problems": problems,
        "attempted": workload.units * len(runs), "failed": failed,
        "notes": {"untraced_run_s": [r["run_s"] for r in runs], "overhead_frac": overheads,
                  "spans": len(spans), "trace": str(trace_path)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    become_subreaper()
    if not (SRC / "cabeval" / "__init__.py").is_file():
        print(f"error: no cabeval sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = WORK / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    ini = prepare(workload, args.seed, work_dir)
    if args.trace:
        result = traced(workload, args.seed, args.seconds, ini, work_dir / "out", work_dir / "trace.jsonl")
    else:
        result = untraced(workload, args.seed, args.seconds, ini, work_dir / "out")
    return report(result, environment(workload, args.seed))


def report(result: dict, env: dict) -> int:
    """Print every metric by name and unit, the checks, then the JSON line."""
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {result['units'][name]}")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} (rep, policy, delta) units)")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print("notes " + json.dumps(result["notes"], sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
