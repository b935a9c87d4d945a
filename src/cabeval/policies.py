"""Continuous-armed bandit policies with a propose/update lifecycle.

Policies never mutate state in ``propose``; every accepted interaction is
fed back through ``update`` exactly once. All randomness flows through the
``numpy.random.Generator`` handed to ``propose``.

Each policy is played through its ``replay`` hook: offline over a logged
stream, and online as a replay that accepts every finite proposal. The
base class proposes once per event; the reference policies skip rejected
events in bulk, drawing their randomness in blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rewards import ActionRange


class RankDeficiencyError(ValueError):
    """Quadratic fit attempted on data that cannot identify three coefficients."""


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A matrix required to be positive definite failed factorization."""


@dataclass(frozen=True)
class QuadraticCoefficients:
    b0: float
    b1: float
    b2: float


def least_squares_quadratic(history) -> QuadraticCoefficients:
    """Fit r = b0 + b1*a + b2*a^2 by normal equations.

    Requires at least three distinct action values; raises
    RankDeficiencyError otherwise or when the normal matrix is
    numerically singular (condition estimate above 1e12).
    """
    actions = np.asarray([a for a, _ in history], dtype=float)
    rewards = np.asarray([r for _, r in history], dtype=float)
    if len(set(actions.tolist())) < 3:
        raise RankDeficiencyError(
            f"need >= 3 distinct actions, got {len(set(actions.tolist()))}"
        )
    X = np.column_stack([np.ones_like(actions), actions, actions**2])
    xtx = X.T @ X
    if np.linalg.cond(xtx) > 1e12:
        raise RankDeficiencyError("normal matrix numerically singular")
    b = np.linalg.solve(xtx, X.T @ rewards)
    return QuadraticCoefficients(float(b[0]), float(b[1]), float(b[2]))


def argmax_quadratic(b1: float, b2: float, action_range: ActionRange) -> float:
    """Maximize b1*a + b2*a^2 over the range.

    Returns the interior vertex when it exists; otherwise the better
    endpoint (ties broken toward lo). Never leaves [lo, hi].
    """
    lo, hi = action_range.lo, action_range.hi
    if b2 < 0.0:
        vertex = -b1 / (2.0 * b2)
        if lo <= vertex <= hi:
            return vertex
    val_lo = b1 * lo + b2 * lo * lo
    val_hi = b1 * hi + b2 * hi * hi
    return lo if val_lo >= val_hi else hi


def _cholesky_lower(matrix: np.ndarray, jitter: float = 1e-10) -> np.ndarray:
    # One jitter retry guards against accumulated rounding on a matrix that
    # is positive definite in exact arithmetic.
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.cholesky(matrix + jitter * np.eye(matrix.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(str(exc)) from exc


# Events per block of pre-drawn proposal randomness in ``replay``. Successive
# block draws concatenate to the stream of per-event draws, so the size
# bounds memory without changing any result.
REPLAY_BLOCK = 4096


def _replay_fixed(policy, proposal, actions, reward, delta, start, indices, proposals):
    """Accept every event from ``start`` on within delta of a proposal that
    no update changes, updating the policy for each."""
    hits = (np.flatnonzero(np.abs(actions[start:] - proposal) < delta) + start).tolist()
    update = policy.update
    for i in hits:
        update(proposal, reward(i, proposal))
    indices += hits
    proposals += [proposal] * len(hits)


def _replay_uniform(policy, actions, reward, delta, rng, limit, indices, proposals) -> int:
    """Uniform proposals over the policy's range, one draw per event, until
    ``limit`` accepts (no limit if None); return the events scanned.

    The draws after the accept that reaches the limit are given back, so
    the generator ends where a per-event loop stopping there leaves it.
    """
    lo, hi = policy.range.lo, policy.range.hi
    update = policy.update
    start = 0
    while start < len(actions) and limit != 0:
        block = actions[start : start + REPLAY_BLOCK]
        state = rng.bit_generator.state
        draws = rng.uniform(lo, hi, len(block))
        hits = np.flatnonzero(np.abs(block - draws) < delta)[:limit]
        if limit is not None:
            limit -= len(hits)
            if limit == 0:  # the scan ends at the last hit
                block = block[: hits[-1] + 1]
                rng.bit_generator.state = state
                rng.uniform(lo, hi, len(block))
        for j, proposal in zip(hits.tolist(), draws[hits].tolist()):
            update(proposal, reward(start + j, proposal))
            indices.append(start + j)
            proposals.append(proposal)
        start += len(block)
    return start


class Policy:
    """Base lifecycle: ``propose(rng)`` reads state, ``update`` advances it."""

    kind = "base"

    def __init__(self, action_range: ActionRange):
        self.range = action_range
        self.t = 0

    def propose(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def update(self, action: float, reward: float) -> None:
        self.t += 1

    def replay(
        self, actions: np.ndarray, reward, delta: float, rng: np.random.Generator
    ) -> tuple[list[int], list[float]]:
        """Tolerance replay over a stream of actions; return the accepted
        stream indices and proposals.

        Event i is accepted when ``|actions[i] - proposal| < delta``; each
        accept calls ``reward(i, proposal)`` once, in order, and then
        ``self.update(proposal, r)`` with the r it returned. This default
        proposes once per event. An override must give the same accepts,
        calls and generator draws, so a subclass that changes ``propose``
        or ``update`` of a class with its own ``replay`` must override it.
        """
        indices, proposals = [], []
        propose, update = self.propose, self.update
        for i, a in enumerate(actions.tolist()):
            proposal = propose(rng)
            if abs(a - proposal) < delta:
                update(proposal, reward(i, proposal))
                indices.append(i)
                proposals.append(proposal)
        return indices, proposals


class UniformRandomPolicy(Policy):
    """Draws every action uniformly over the range; the naive benchmark."""

    kind = "UR"

    def propose(self, rng):
        return float(rng.uniform(self.range.lo, self.range.hi))

    def replay(self, actions, reward, delta, rng):
        indices, proposals = [], []
        _replay_uniform(self, actions, reward, delta, rng, None, indices, proposals)
        return indices, proposals


class ConstantPolicy(Policy):
    """Always proposes a fixed action. Used for calibration and testing."""

    kind = "constant"

    def __init__(self, action_range: ActionRange, action: float):
        super().__init__(action_range)
        self.action = action

    def propose(self, rng):
        return self.action

    def replay(self, actions, reward, delta, rng):
        indices, proposals = [], []
        _replay_fixed(self, self.action, actions, reward, delta, 0, indices, proposals)
        return indices, proposals


class EpsilonFirstPolicy(Policy):
    """Explore uniformly for N steps, then exploit the fitted quadratic's argmax.

    The quadratic fit happens once, on the update that completes the
    exploration phase; the exploitation action is frozen thereafter.
    """

    kind = "EF"

    def __init__(self, action_range: ActionRange, explore_steps: int = 2000):
        super().__init__(action_range)
        if explore_steps < 3:
            raise ValueError("explore_steps must be at least 3 to fit a quadratic")
        self.explore_steps = explore_steps
        self.history: list[tuple[float, float]] = []
        self.fitted: QuadraticCoefficients | None = None
        self.exploit_action: float | None = None

    def propose(self, rng):
        if self.t < self.explore_steps:
            return float(rng.uniform(self.range.lo, self.range.hi))
        return self.exploit_action

    def update(self, action, reward):
        if self.t < self.explore_steps:
            self.history.append((action, reward))
        super().update(action, reward)
        if self.t == self.explore_steps:
            self.fitted = least_squares_quadratic(self.history)
            self.exploit_action = argmax_quadratic(
                self.fitted.b1, self.fitted.b2, self.range
            )

    def replay(self, actions, reward, delta, rng):
        # Uniform while exploring; the fit fires inside the update of the
        # accept that completes exploration, and its action is then fixed.
        indices, proposals = [], []
        start = 0
        if self.t < self.explore_steps:
            start = _replay_uniform(
                self, actions, reward, delta, rng,
                self.explore_steps - self.t, indices, proposals,
            )
        if start < len(actions):
            _replay_fixed(
                self, self.exploit_action, actions, reward, delta, start,
                indices, proposals,
            )
        return indices, proposals


class ThompsonQuadraticPolicy(Policy):
    """Thompson sampling over a Bayesian quadratic regression of the reward.

    Tracks the information vector J = P*mu and the precision matrix P of
    the coefficient posterior; each proposal draws one coefficient vector
    from N(inv(P)*J, inv(P)) and plays the argmax of the drawn quadratic.
    """

    kind = "TBL"

    DEFAULT_J = (0.0, 0.05, -0.05)
    DEFAULT_P_DIAG = (2.0, 2.0, 5.0)

    def __init__(
        self,
        action_range: ActionRange,
        J=None,
        P=None,
        sigma2: float = 1.0,
        clamp_vertex: bool = True,
    ):
        super().__init__(action_range)
        if sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        self.J = np.array(self.DEFAULT_J if J is None else J, dtype=float)
        self.P = (
            np.diag(self.DEFAULT_P_DIAG).astype(float)
            if P is None
            else np.array(P, dtype=float)
        )
        if self.J.shape != (3,) or self.P.shape != (3, 3):
            raise ValueError(
                f"J must have 3 entries and P must be 3x3, "
                f"got shapes {self.J.shape} and {self.P.shape}"
            )
        _cholesky_lower(self.P)  # a prior that is not positive definite fails here
        self.sigma2 = sigma2
        self.clamp_vertex = clamp_vertex
        self._cached_draw_factors: tuple[np.ndarray, np.ndarray] | None = None

    def posterior(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior (mu, Sigma) with Sigma = inv(P), mu = Sigma @ J."""
        _cholesky_lower(self.P)  # PD check; raises otherwise
        sigma = np.linalg.inv(self.P)
        sigma = (sigma + sigma.T) / 2.0
        return sigma @ self.J, sigma

    def _draw_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and lower Cholesky factor, cached until the next update."""
        if self._cached_draw_factors is None:
            mu, sigma = self.posterior()
            self._cached_draw_factors = (mu, _cholesky_lower(sigma))
        return self._cached_draw_factors

    def _action(self, theta: np.ndarray) -> float:
        """The action played for one drawn coefficient vector."""
        _, b1, b2 = theta.tolist()
        if not self.clamp_vertex and b2 < 0.0:
            return -b1 / (2.0 * b2)
        return argmax_quadratic(b1, b2, self.range)

    def propose(self, rng):
        mu, L = self._draw_factors()
        return self._action(mu + L @ rng.standard_normal(3))

    def replay(self, actions, reward, delta, rng):
        # The normals are drawn a block at a time, but each proposal is
        # still one matrix-vector product: ``L.dot(z)`` gives the bits of
        # ``L @ z`` at less call overhead, while a batched ``Z @ L.T`` can
        # differ from it in the last bits.
        indices, proposals = [], []
        update, action = self.update, self._action
        stale = True
        for start in range(0, len(actions), REPLAY_BLOCK):
            block = actions[start : start + REPLAY_BLOCK].tolist()
            z = rng.standard_normal((len(block), 3))
            for j, (a, zj) in enumerate(zip(block, z)):
                if stale:
                    mu, L = self._draw_factors()
                    stale = False
                proposal = action(mu + L.dot(zj))
                if abs(a - proposal) < delta:
                    update(proposal, reward(start + j, proposal))
                    indices.append(start + j)
                    proposals.append(proposal)
                    stale = True
        return indices, proposals

    def update(self, action, reward):
        features = np.array([1.0, action, action * action])
        self.J += reward * features / self.sigma2
        self.P += np.outer(features, features) / self.sigma2
        self._cached_draw_factors = None
        super().update(action, reward)


class LockInFeedbackPolicy(Policy):
    """Gradient ascent on a lock-in amplified oscillation around a center.

    Proposes a0 + A*cos(omega*t), accumulates reward * cos(omega*t) over an
    integration window of length i, and moves the center by gamma times the
    window average. The step counter is global and never resets, preserving
    oscillation phase across windows.

    Since r(a0 + A*cos) ~ r(a0) + A*cos*f'(a0) and cos^2 averages 1/2, each
    window moves the center by about gamma*A/2*f'(a0). On a parabola
    -s*(a - m)^2 that scales the gap to the peak by 1 - gamma*A*s per
    window. The default gamma=0.4 gives 0.98 at A=0.05, s=1: the center
    closes about half the gap in 35 windows (1,750 steps) and, from a gap
    of 0.5, comes within 0.01 of the peak in 10,000 steps, so LiF learns,
    more slowly than TBL. A step of 0.1 gives 0.995, which leaves LiF close
    to a fixed random action for the whole horizon.
    """

    kind = "LiF"

    def __init__(
        self,
        action_range: ActionRange,
        a0: float = 0.5,
        amplitude: float = 0.05,
        window: int = 50,
        gamma: float = 0.4,
        omega: float = 1.0,
    ):
        super().__init__(action_range)
        if amplitude <= 0 or window < 1 or gamma <= 0 or omega <= 0:
            raise ValueError("amplitude, window, gamma, and omega must be positive")
        self.a0 = a0
        self.amplitude = amplitude
        self.window = window
        self.gamma = gamma
        self.omega = omega
        self.r_sum = 0.0

    def propose(self, rng):
        # Deliberately unclamped: the oscillation may leave [lo, hi].
        return self.a0 + self.amplitude * math.cos(self.omega * (self.t + 1))

    def update(self, action, reward):
        super().update(action, reward)
        self.r_sum += reward * math.cos(self.omega * self.t)
        if self.t % self.window == 0:
            self.a0 += self.gamma * (self.r_sum / self.window)
            self.r_sum = 0.0

    def replay(self, actions, reward, delta, rng):
        # The proposal moves only on update, so a rejected event costs one
        # comparison.
        indices, proposals = [], []
        propose, update = self.propose, self.update
        proposal = propose(rng)
        for i, a in enumerate(actions.tolist()):
            if abs(a - proposal) < delta:
                update(proposal, reward(i, proposal))
                indices.append(i)
                proposals.append(proposal)
                proposal = propose(rng)
        return indices, proposals
