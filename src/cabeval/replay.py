"""Logged-stream generation and offline replay evaluation.

Two evaluators are provided: exact-match replay for discrete action sets,
and the tolerance-based variant for continuous actions that accepts a
logged event whenever the logged action lies within ``delta`` of the
policy's proposal. Both run the policy's ``replay`` hook; exact match is
the tolerance rule at the smallest positive ``delta``. Accepted events
update the policy with the *proposed* action, so the logged reward serves
as a noisy evaluation at the proposal.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .policies import Policy
from .rewards import ActionRange, RewardModel


class StreamFormatError(ValueError):
    """Raised for malformed logged-stream files."""


@dataclass(frozen=True)
class LoggedStream:
    """Ordered log of (action, reward) pairs collected under uniform actions."""

    actions: np.ndarray
    rewards: np.ndarray
    range: ActionRange

    def __post_init__(self) -> None:
        if len(self.actions) != len(self.rewards):
            raise ValueError("actions and rewards must have equal length")
        if len(self.actions) < 1:
            raise StreamFormatError("stream must contain at least one event")

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class ReplayConfig:
    """Acceptance tolerance for continuous replay."""

    delta: float

    def __post_init__(self) -> None:
        if not self.delta > 0:
            raise ValueError("delta must be positive")


@dataclass
class Trace:
    """Accepted interactions of one replay or online run."""

    stream_indices: list[int]
    proposals: list[float]
    rewards: list[float]

    @property
    def T(self) -> int:
        return len(self.rewards)


def generate_logged_stream(
    model: RewardModel, length: int, rng: np.random.Generator
) -> LoggedStream:
    """Log ``length`` events with actions i.i.d. uniform over the model range."""
    if length < 1:
        raise ValueError("length must be at least 1")
    actions = rng.uniform(model.range.lo, model.range.hi, size=length)
    rewards = np.asarray(model.sample(actions, rng), dtype=float)
    return LoggedStream(actions=actions, rewards=rewards, range=model.range)


def replay_discrete(
    policy: Policy, stream: LoggedStream, rng: np.random.Generator | None = None
) -> Trace:
    """Exact-match replay for finite action alphabets.

    An event is accepted only when the proposal equals the logged action;
    rejected events leave the policy untouched. This is ``replay_cab`` at
    delta = 5e-324, the smallest positive float: two finite floats that are
    not equal differ by at least that much, so ``|action - proposal| <
    5e-324`` holds exactly when they are equal.
    """
    if rng is None:
        rng = np.random.default_rng(0)  # deterministic policies only need a stub
    return replay_cab(policy, stream, ReplayConfig(math.ulp(0.0)), rng)


def replay_cab(
    policy: Policy,
    stream: LoggedStream,
    cfg: ReplayConfig,
    rng: np.random.Generator,
) -> Trace:
    """Tolerance-based replay for continuous action sets.

    The result is that of the per-event loop: for each logged event, in
    order, draw a proposal with ``policy.propose(rng)``, rejected events
    included, and accept the event when ``|action - proposal| < delta``.
    An accepted event updates the policy with the proposal and the logged
    reward; the trace records the proposal. The hook's reward function is
    a pure lookup of the logged reward by event index, which the hook
    makes only where an ``update`` reads it, and the trace's rewards are
    read from the log at the accepted indices. The ``replay`` hook skips
    rejected events in bulk, but makes the loop's generator draws in the
    loop's order, so the trace and the final states of policy and
    generator equal the loop's, bit for bit. Only a replay that an
    exception stops may leave the generator drawn ahead.
    """
    delta = cfg.delta
    if delta >= stream.range.width:
        warnings.warn(
            "delta >= range width: every in-range event will be accepted",
            stacklevel=2,
        )
    rewards = stream.rewards.tolist()
    indices, proposals = policy.replay(stream.actions, lambda i, p: rewards[i], delta, rng)
    return Trace(indices, proposals, [rewards[i] for i in indices])


def acceptance_probability(delta: float, action_range: ActionRange) -> float:
    """Probability a uniform logged action falls within delta of a proposal.

    Exact for proposals at least delta away from both endpoints; near a
    boundary the true acceptance window is truncated and the probability
    is smaller.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    return min(1.0, 2.0 * delta / action_range.width)


def required_log_length(
    t_prime: int, delta: float, action_range: ActionRange
) -> int:
    """Log length whose expected accepted count reaches ``t_prime``.

    Inverts E(T) = 2*delta*L / (hi - lo), with the rate capped at 1 as in
    ``acceptance_probability``, so it is never below ``t_prime``. A length
    beyond the float range is a ``ValueError``.
    """
    if t_prime < 1 or not delta > 0:
        raise ValueError("t_prime and delta must be positive")
    try:
        return max(t_prime, math.ceil(action_range.width * t_prime / (2.0 * delta)))
    except OverflowError:
        raise ValueError("required log length overflows a float") from None


STREAM_HEADER = ["index", "action", "reward"]


def save_stream(stream: LoggedStream, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(STREAM_HEADER)
        for i, (a, r) in enumerate(zip(stream.actions.tolist(), stream.rewards.tolist())):
            writer.writerow([i, format(a, ".17g"), format(r, ".17g")])


def load_stream(path, action_range: ActionRange) -> LoggedStream:
    """Read a stream CSV, validating structure but tolerating dirty actions.

    Indices must be strictly increasing and all values finite. Actions
    outside the supplied range produce a warning, not an error, since field
    logs can be dirty and replay only needs action distances.
    """
    actions: list[float] = []
    rewards: list[float] = []
    last_index = -1
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise StreamFormatError(f"{path}: empty file") from None
            if header != STREAM_HEADER:
                raise StreamFormatError(f"{path}: expected header {STREAM_HEADER}, got {header}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 3:
                    raise StreamFormatError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
                try:
                    index = int(row[0])
                    action = float(row[1])
                    reward = float(row[2])
                except ValueError as exc:
                    raise StreamFormatError(f"{path}:{lineno}: {exc}") from None
                if index <= last_index:
                    raise StreamFormatError(
                        f"{path}:{lineno}: index {index} not strictly increasing"
                    )
                if not (math.isfinite(action) and math.isfinite(reward)):
                    raise StreamFormatError(f"{path}:{lineno}: non-finite value")
                last_index = index
                actions.append(action)
                rewards.append(reward)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise StreamFormatError(f"{path}: {exc}") from None
    if not actions:
        raise StreamFormatError(f"{path}: stream contains no events")
    actions_arr = np.asarray(actions)
    n_outside = int(
        np.sum((actions_arr < action_range.lo) | (actions_arr > action_range.hi))
    )
    if n_outside:
        warnings.warn(
            f"{path}: {n_outside} action(s) outside "
            f"[{action_range.lo}, {action_range.hi}]",
            stacklevel=2,
        )
    return LoggedStream(
        actions=actions_arr, rewards=np.asarray(rewards), range=action_range
    )
