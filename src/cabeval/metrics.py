"""Regret and reward accounting, cross-run aggregation, and rank tables.

Offline runs end at a random accepted length, so aggregation keeps a
per-step survivor count instead of truncating every run to the shortest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .replay import Trace
from .rewards import RewardModel

CONFIDENCE_Z = 1.96  # 95% band multiplier
AGGREGATE_BLOCK_VALUES = 2**15  # padded values per aggregation block


def cumulative_regret(
    trace: Trace, model: RewardModel, realized: bool = False
) -> np.ndarray:
    """Cumulative regret over the trace's accepted steps.

    By default each increment is the noiseless gap r_star - mean(a_t),
    which has the same expectation as using realized rewards but lower
    variance and is non-negative by construction. ``realized=True``
    substitutes the recorded noisy rewards.
    """
    _, r_star = model.optimum()
    if realized:
        increments = r_star - np.asarray(trace.rewards)
    else:
        increments = r_star - model.mean(np.asarray(trace.proposals))
    return np.cumsum(increments)


def cumulative_reward(trace: Trace) -> np.ndarray:
    """Running sum of recorded rewards; final element equals trace.R_c."""
    return np.cumsum(np.asarray(trace.rewards))


@dataclass(frozen=True)
class RunAggregate:
    """Per-step mean, standard error, and survivor count across runs."""

    mean: np.ndarray
    se: np.ndarray
    n: np.ndarray
    run_count: int


def aggregate_runs(curves) -> RunAggregate:
    """Aggregate per-step curves of possibly different lengths.

    At each step the mean and standard error are taken over the curves
    long enough to reach it (the survivors). Standard error is undefined
    (NaN) where fewer than two curves survive. No curves, or only empty
    ones, give empty arrays.

    The curves are NaN-padded into a repetitions x steps matrix one block
    of about ``AGGREGATE_BLOCK_VALUES`` values, and at least two steps, at
    a time, so memory stays flat as curves and steps are added. The result
    equals that of the whole padded matrix bit for bit.
    """
    curves = [np.asarray(c, dtype=float) for c in curves]
    max_len = max(map(len, curves), default=0)
    mean = np.empty(max_len)
    sd = np.full(max_len, np.nan)
    n = np.empty(max_len, dtype=int)
    width = max(2, AGGREGATE_BLOCK_VALUES // max(len(curves), 1))
    starts = list(range(0, max_len, width))
    # numpy sums a one-column matrix pairwise down the column, and a wider
    # one row by row, so a last block of one column joins the one before.
    if len(starts) > 1 and max_len - starts[-1] == 1:
        del starts[-1]
    for start, stop in zip(starts, starts[1:] + [max_len]):
        # Every curve keeps its row, even one that ends before the block:
        # numpy sums the gathered n >= 2 columns pairwise down each column,
        # and a missing row would change the pairs.
        block = np.full((len(curves), stop - start), np.nan)
        for row, c in zip(block, curves):
            part = c[start:stop]
            row[: len(part)] = part
        n[start:stop] = np.sum(~np.isnan(block), axis=0)
        mean[start:stop] = np.nanmean(block, axis=0)
        enough = n[start:stop] >= 2
        if np.any(enough):
            sd[start:stop][enough] = np.nanstd(block[:, enough], axis=0, ddof=1)
    se = sd / np.sqrt(n)
    return RunAggregate(mean=mean, se=se, n=n, run_count=len(curves))


@dataclass(frozen=True)
class RankEntry:
    policy: str
    value: float
    se: float
    rank: int
    tie_group: int


@dataclass(frozen=True)
class RankTable:
    """Policy ordering at a fixed evaluation step, with explicit tie groups."""

    entries: tuple[RankEntry, ...]
    unavailable: tuple[str, ...]

    def to_rows(self) -> list[list[str]]:
        rows = [["policy", "metric_value", "rank", "tie_group"]]
        for e in self.entries:
            rows.append([e.policy, repr(e.value), str(e.rank), str(e.tie_group)])
        for name in self.unavailable:
            rows.append([name, "n/a", "n/a", "n/a"])
        return rows


def rank_at(aggregates: dict[str, RunAggregate], t_eval: int, metric: str = "regret") -> RankTable:
    """Order policies by mean value at step ``t_eval``.

    Regret ranks ascending, reward descending. Policies whose survivor
    count at t_eval is below two are reported as unavailable. Two adjacent
    policies fall into one tie group when their 95% bands overlap; tie
    groups chain transitively.
    """
    if metric not in ("regret", "reward"):
        raise ValueError(f"unknown metric {metric!r}")
    if t_eval < 1:
        raise ValueError("t_eval must be positive")
    idx = t_eval - 1
    available: list[tuple[str, float, float]] = []
    unavailable: list[str] = []
    for name, agg in aggregates.items():
        if len(agg.mean) <= idx or agg.n[idx] < 2:
            unavailable.append(name)
        else:
            available.append((name, float(agg.mean[idx]), float(agg.se[idx])))
    available.sort(key=lambda item: item[1], reverse=(metric == "reward"))
    entries: list[RankEntry] = []
    group = 0
    prev_band: tuple[float, float] | None = None
    for rank, (name, value, se) in enumerate(available, start=1):
        half = CONFIDENCE_Z * se
        band = (value - half, value + half)
        if prev_band is not None and not (
            band[0] <= prev_band[1] and prev_band[0] <= band[1]
        ):
            group += 1
        entries.append(RankEntry(name, value, se, rank, group))
        prev_band = band
    return RankTable(entries=tuple(entries), unavailable=tuple(sorted(unavailable)))
