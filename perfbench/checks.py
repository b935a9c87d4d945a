"""Checks on the artifacts one run writes to ``out/``.

They are derived from the run's own manifest and the workload, not from
timings, so every check is exact except the accept-law bounds, which
allow six binomial standard deviations (a false alarm about once in
10^9 checks).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import POLICIES, Workload

LAW_SIGMAS = 6.0


def curve_key(policy: str, delta: float | None) -> str:
    """The manifest's ``accepted_counts`` key of one curve."""
    return policy if delta is None else f"{policy}@delta={delta:g}"


def artifact_name(kind: str, mode: str, policy: str | None, delta: float | None) -> str:
    suffix = "" if delta is None else f"_delta{delta:g}"
    middle = f"_{policy}" if policy else ""
    return f"{kind}_{mode}{middle}{suffix}.csv"


def digest(out_dir: Path) -> str:
    """sha256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def artifact_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def survivors(accepted: list[int], t: int) -> int:
    """Repetitions whose curve reaches step ``t``."""
    return sum(1 for T in accepted if T >= t)


def law_problems(key: str, accepted: list[int], length: int, streams: int, p: float, p_ur: float | None):
    """The mean accepted count per repetition against the 2*delta/width law.

    Any proposal accepts a uniform logged action with probability at most
    ``p``; a uniform-random proposal accepts with probability ``p_ur``.
    Repetitions that replay one shared log are not independent, so the
    allowed deviation shrinks only with the number of distinct ``streams``.
    """
    if not accepted:
        return []
    mean = sum(accepted) / len(accepted)
    problems = []
    cap = length * p + LAW_SIGMAS * math.sqrt(length * p * (1 - p) / streams) + 1
    if mean > cap:
        problems.append(f"{key}: {mean:.1f} accepted per {length} events exceeds the 2*delta/width law")
    if p_ur is not None:
        slack = LAW_SIGMAS * math.sqrt(length * p_ur * (1 - p_ur) / streams) + 1
        if abs(mean - length * p_ur) > slack:
            problems.append(f"{key}: {mean:.1f} accepted per {length} events, uniform law expects {length * p_ur:.1f}")
    return problems


def check_run(workload: Workload, seed: int, out_dir: Path) -> tuple[dict, list[str]]:
    """Return the manifest and every problem found in one run's artifacts."""
    from cabeval import ActionRange, acceptance_probability

    problems: list[str] = []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    echo = manifest["config"]
    if echo["master_seed"] != seed or echo["repetitions"] != workload.repetitions:
        problems.append("manifest config echo does not match the workload")
    metric = "reward" if workload.mode == "ingest" else "regret"
    if manifest["metric"] != metric:
        problems.append(f"manifest metric {manifest['metric']!r}, expected {metric!r}")

    lo, hi = echo["range"]
    stream_len = workload.horizon
    width = hi - lo
    failed_keys: dict[str, int] = {}
    for err in manifest["errors"]:
        key = curve_key(err["policy"], err.get("delta"))
        failed_keys[key] = failed_keys.get(key, 0) + 1

    counts = manifest["accepted_counts"]
    for delta in workload.sweep:
        rank_rows = read_csv(out_dir / artifact_name("rank", workload.mode, None, delta))
        if rank_rows[0] != ["policy", "metric_value", "rank", "tie_group"]:
            problems.append(f"rank header {rank_rows[0]}")
        na = [row[0] for row in rank_rows[1:] if row[1] == "n/a"]
        if sorted(row[0] for row in rank_rows[1:]) != sorted(POLICIES):
            problems.append(f"rank table at delta={delta} lists {[row[0] for row in rank_rows[1:]]}")
        for policy in POLICIES:
            key = curve_key(policy, delta)
            accepted = counts.get(key, [])
            if len(accepted) + failed_keys.get(key, 0) != workload.repetitions:
                problems.append(f"{key}: {len(accepted)} curves + failures != repetitions")
            if delta is None:
                if any(T != workload.horizon for T in accepted):
                    problems.append(f"{key}: online accepted count differs from horizon")
            else:
                if any(T > stream_len for T in accepted):
                    problems.append(f"{key}: accepted count exceeds the log length")
                p = acceptance_probability(delta, ActionRange(lo, hi))
                p_ur = (2 * delta * width - delta * delta) / width**2 if policy == "UR" else None
                streams = 1 if workload.mode == "ingest" else len(accepted)
                problems += law_problems(key, accepted, stream_len, streams, p, p_ur)

            rows = read_csv(out_dir / artifact_name("aggregate", workload.mode, policy, delta))
            n_col = [int(row[3]) for row in rows[1:]]
            if len(n_col) != max(accepted, default=0):
                problems.append(f"{key}: aggregate has {len(n_col)} rows, longest curve {max(accepted, default=0)}")
            elif any(n != survivors(accepted, t) for t, n in enumerate(n_col, start=1)):
                problems.append(f"{key}: aggregate survivor counts disagree with accepted counts")
            if (survivors(accepted, workload.t_eval) < 2) != (policy in na):
                problems.append(f"{key}: rank table n/a disagrees with survivors at t_eval")
    return manifest, problems
