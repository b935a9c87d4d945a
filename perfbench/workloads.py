"""The benchmark's workloads and the inputs each one is run on.

Every input is made from the workload seed: the INI's ``master_seed`` is
the seed itself, and the ingest workload's field log is drawn from
``numpy.random.default_rng(seed)`` before anything is timed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

POLICIES = ("UR", "EF", "TBL", "LiF")
T_EVAL = 1750
NOISE_VAR = 0.01
FIELD_PEAK = 0.4


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # online | offline | ingest
    repetitions: int
    horizon: int  # steps (online) or logged events per stream (offline, ingest)
    workers: int
    why: str
    family: str | None = None
    deltas: tuple[float, ...] = ()
    t_eval: int = T_EVAL

    @property
    def sweep(self) -> tuple[float | None, ...]:
        """Tolerances of the run; ``None`` is the single online sweep point."""
        return (None,) if self.mode == "online" else self.deltas

    @property
    def units(self) -> int:
        """(repetition, policy, delta) units one run attempts."""
        return self.repetitions * len(POLICIES) * len(self.sweep)

    @property
    def events(self) -> int:
        """Policy-events one run processes: steps online, scanned log events offline."""
        return self.units * self.horizon

    def tiny(self) -> "Workload":
        """The same shape at smoke-test size."""
        return dataclasses.replace(
            self,
            repetitions=min(self.repetitions, 3 if self.workers == 1 else 10),
            horizon=600 if self.mode == "online" else 1500,
            t_eval=100,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="online-bimodal",
            mode="online",
            family="bimodal",
            repetitions=4,
            horizon=10_000,
            workers=1,
            why="per-step propose/update/sample dominate and replay does no work; "
            "a TBL change shows here, a replay change must not",
        ),
        Workload(
            name="offline-sweep",
            mode="offline",
            family="parabola",
            repetitions=4,
            horizon=10_000,
            deltas=(0.01, 0.05, 0.1, 0.2),
            workers=1,
            why="the replay_cab event loop dominates; acceptance runs from 2% to 40%, "
            "so the rejected share a block kernel skips varies",
        ),
        Workload(
            name="ingest-pool",
            mode="ingest",
            repetitions=32,
            horizon=20_000,
            deltas=(0.05, 0.1, 0.2),
            workers=2,
            why="one disk-loaded 20k-event log shared by 32 reps in a 2-worker pool; "
            "only load_stream, task pickling and reward-only curves run here",
        ),
    )
}


def write_field_log(path: Path, seed: int, length: int) -> None:
    """A field-style log of one fixed surface; the seed draws its events.

    The peak is fixed because TBL's accepted count, and with it about half
    the ingest run time, moves by ~30 % as the peak moves from the centre to
    0.8; a seed-drawn peak made the timing depend on the seed."""
    rng = np.random.default_rng(seed)
    actions = rng.uniform(0.0, 1.0, length)
    rewards = -((actions - FIELD_PEAK) ** 2) + rng.normal(0.0, np.sqrt(NOISE_VAR), length)
    with open(path, "w") as fh:
        fh.write("index,action,reward\n")
        for i, (a, r) in enumerate(zip(actions.tolist(), rewards.tolist())):
            fh.write(f"{i},{a:.6f},{r:.6f}\n")


def prepare(workload: Workload, seed: int, work_dir: Path) -> Path:
    """Write the run's INI (and the ingest log) into ``work_dir``; return the INI."""
    work_dir.mkdir(parents=True, exist_ok=True)
    lines = [
        "[experiment]",
        f"mode = {workload.mode}",
        f"repetitions = {workload.repetitions}",
        f"horizon = {workload.horizon}",
        f"master_seed = {seed}",
        f"t_eval = {workload.t_eval}",
        f"noise_var = {NOISE_VAR}",
        f"out = {work_dir / 'out'}",
        f"policies = {', '.join(POLICIES)}",
    ]
    if workload.family:
        lines.append(f"family = {workload.family}")
    if workload.deltas:
        lines.append(f"deltas = {', '.join(f'{d:g}' for d in workload.deltas)}")
    if workload.mode == "ingest":
        log = work_dir / "field.csv"
        write_field_log(log, seed, workload.horizon)
        lines.append(f"stream = {log}")
    ini = work_dir / "workload.ini"
    ini.write_text("\n".join(lines) + "\n")
    return ini
