"""Continuous-armed bandit policies with a propose/update lifecycle.

Policies never mutate state in ``propose``; every accepted interaction
advances the state exactly once, as one ``update`` call would. All
randomness flows through the ``numpy.random.Generator`` handed to ``propose``.

Each policy is played through its ``replay`` hook: offline over a logged
stream, and online as a replay that accepts every finite proposal. The
hook's reward is a pure function of (event index, proposal), so a hook
asks for it only where an ``update`` reads it. The base class proposes
once per event; the reference policies skip rejected events in bulk,
drawing their randomness in blocks. A hook may apply an accept's update
inline, and an accept whose ``update`` only advances ``t`` may just be
counted.
"""

from __future__ import annotations

import math

import numpy as np

from .rewards import ActionRange


class RankDeficiencyError(ValueError):
    """Quadratic fit attempted on data that cannot identify three coefficients."""


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A matrix required to be positive definite failed factorization."""


def least_squares_quadratic(history) -> tuple[float, float, float]:
    """Fit r = b0 + b1*a + b2*a^2 by normal equations; return (b0, b1, b2).

    Requires at least three distinct action values; raises
    RankDeficiencyError otherwise or when the normal matrix is
    numerically singular (condition estimate above 1e12).
    """
    actions = np.asarray([a for a, _ in history], dtype=float)
    rewards = np.asarray([r for _, r in history], dtype=float)
    distinct = len(set(actions.tolist()))
    if distinct < 3:
        raise RankDeficiencyError(f"need >= 3 distinct actions, got {distinct}")
    X = np.column_stack([np.ones_like(actions), actions, actions**2])
    xtx = X.T @ X
    if np.linalg.cond(xtx) > 1e12:
        raise RankDeficiencyError("normal matrix numerically singular")
    b = np.linalg.solve(xtx, X.T @ rewards)
    return float(b[0]), float(b[1]), float(b[2])


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


# Events per block of pre-drawn proposal randomness in ``replay``. Successive
# block draws concatenate to the stream of per-event draws, so the size
# bounds memory without changing any result.
REPLAY_BLOCK = 4096


def _replay_explore_then_fix(policy, actions, reward, delta, rng, explore):
    """Replay a policy that proposes uniformly over its range, one draw per
    event, for its first ``explore`` accepts (every accept if None), and
    from the event after the last of them on proposes one fixed action;
    return the accepted indices and proposals.

    The draws after the accept that ends exploration are given back, so
    the generator ends where a per-event loop stopping there leaves it.
    The fixed action is the one ``policy.propose(rng)`` then returns
    without a draw (see ``Policy.replay``).

    Only an accept that explores toward a fit (``explore`` not None) asks
    for its reward and calls ``policy.update``. Any other accept, UR's or
    one of the fixed action, only advances ``t``, so each block's accepts
    are counted at once and ask for no reward.
    """
    lo, hi = policy.range.lo, policy.range.hi
    update = policy.update
    indices, proposals = [], []
    start = 0
    while start < len(actions) and explore != 0:
        block = actions[start : start + REPLAY_BLOCK]
        state = rng.bit_generator.state
        draws = rng.uniform(lo, hi, len(block))
        hits = np.flatnonzero(np.abs(block - draws) < delta)[:explore]
        hit_indices, hit_proposals = (hits + start).tolist(), draws[hits].tolist()
        if explore is None:
            policy.t += len(hits)
        else:
            explore -= len(hits)
            if explore == 0:  # the scan ends at the last hit
                block = block[: hits[-1] + 1]
                rng.bit_generator.state = state
                rng.uniform(lo, hi, len(block))
            for i, proposal in zip(hit_indices, hit_proposals):
                update(proposal, reward(i, proposal))
        indices += hit_indices
        proposals += hit_proposals
        start += len(block)
    if start < len(actions):
        proposal = policy.propose(rng)
        hits = np.flatnonzero(np.abs(actions[start:] - proposal) < delta)
        policy.t += len(hits)
        indices += (hits + start).tolist()
        proposals += [proposal] * len(hits)
    return indices, proposals


class Policy:
    """Base lifecycle: ``propose(rng)`` reads state, ``update`` advances it."""

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

        Event i is accepted when ``|actions[i] - proposal| < delta``, and
        each accept advances the policy exactly as
        ``self.update(proposal, reward(i, proposal))`` would. ``reward`` is
        a pure function of the event index and the proposal, so a hook
        asks for it only when an ``update`` reads it, at most once per
        accept and in accept order. A hook may call ``update`` or do its
        work inline; an accept whose ``update`` only advances ``t`` may
        just be counted. This default proposes once per event and asks
        for every accept's reward. An override must give the same accepts,
        generator draws and states, so a subclass that changes ``propose``
        or ``update`` of a class with its own ``replay`` must override it.
        UR, EF and ``ConstantPolicy`` share one explore-then-fix kernel,
        which takes the fixed proposal from one ``propose`` call; so once
        the proposal is fixed, ``propose`` makes no draw.
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

    def propose(self, rng):
        return float(rng.uniform(self.range.lo, self.range.hi))

    def replay(self, actions, reward, delta, rng):
        return _replay_explore_then_fix(self, actions, reward, delta, rng, None)


class ConstantPolicy(Policy):
    """Always proposes a fixed action. Used for calibration and testing."""

    def __init__(self, action_range: ActionRange, action: float):
        super().__init__(action_range)
        self.action = action

    def propose(self, rng):
        return self.action

    def replay(self, actions, reward, delta, rng):
        return _replay_explore_then_fix(self, actions, reward, delta, rng, 0)


class EpsilonFirstPolicy(Policy):
    """Explore uniformly for N steps, then exploit the fitted quadratic's argmax.

    The quadratic fit happens once, on the update that completes the
    exploration phase; the exploitation action is frozen thereafter.
    """

    def __init__(self, action_range: ActionRange, explore_steps: int = 2000):
        super().__init__(action_range)
        if explore_steps < 3:
            raise ValueError("explore_steps must be at least 3 to fit a quadratic")
        self.explore_steps = explore_steps
        self.history: list[tuple[float, float]] = []
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
            _, b1, b2 = least_squares_quadratic(self.history)
            self.exploit_action = argmax_quadratic(b1, b2, self.range)

    def replay(self, actions, reward, delta, rng):
        return _replay_explore_then_fix(
            self, actions, reward, delta, rng, max(self.explore_steps - self.t, 0)
        )


class ThompsonQuadraticPolicy(Policy):
    """Thompson sampling over a Bayesian quadratic regression of the reward.

    Keeps the posterior's precision P and information vector J = P*mu as
    nine floats. A proposal draws theta ~ N(inv(P)*J, inv(P)) as
    inv(L')*(y + z), with P = L*L', L*y = J and z three standard normals,
    and plays the drawn quadratic's argmax. L and y are factored from P
    and J at each proposal.
    """

    DEFAULT_J = (0.0, 0.05, -0.05)
    DEFAULT_P_DIAG = (2.0, 2.0, 5.0)

    def __init__(
        self, action_range: ActionRange, J=None, P=None, sigma2: float = 1.0,
        clamp_vertex: bool = True,
    ):
        super().__init__(action_range)
        if not 0 < sigma2 < math.inf:
            raise ValueError("sigma2 must be positive and finite")
        J = np.array(self.DEFAULT_J if J is None else J, dtype=float)
        P = np.diag(self.DEFAULT_P_DIAG) if P is None else np.array(P, dtype=float)
        if J.shape != (3,) or P.shape != (3, 3):
            raise ValueError(f"J must have 3 entries and P must be 3x3, got {J.shape}, {P.shape}")
        if not (np.isfinite(J).all() and np.isfinite(P).all()):
            raise ValueError("J and P must be finite")
        # P's upper triangle (p00, p01, p02, p11, p12, p22), then J.
        self._pj = tuple(P[np.triu_indices(3)].tolist() + J.tolist())
        self.sigma2 = sigma2
        self.clamp_vertex = clamp_vertex
        self._factor()  # a prior that is not positive definite fails here

    def _factor(self) -> tuple[float, ...]:
        """(y1, y2, l11, l21, l22) of the draw, factored from the posterior."""
        p00, p01, p02, p11, p12, p22, j0, j1, j2 = self._pj
        # A pivot that is not positive is retried once with 1e-10 added
        # to the diagonal, against rounding on a positive definite P.
        for eps in (0.0, 1e-10):
            if (d0 := p00 + eps) > 0.0:
                l00 = math.sqrt(d0)
                l10, l20 = p01 / l00, p02 / l00
                if (d1 := p11 + eps - l10 * l10) > 0.0:
                    l11 = math.sqrt(d1)
                    l21 = (p12 - l20 * l10) / l11
                    if (d2 := p22 + eps - l20 * l20 - l21 * l21) > 0.0:
                        break
        else:
            raise NotPositiveDefiniteError("precision matrix is not positive definite")
        l22 = math.sqrt(d2)
        y0 = j0 / l00
        y1 = (j1 - l10 * y0) / l11
        return y1, (j2 - l20 * y0 - l21 * y1) / l22, l11, l21, l22

    def propose(self, rng):
        _, z1, z2 = rng.standard_normal(3).tolist()  # z0 is unused
        y1, y2, l11, l21, l22 = self._factor()
        b2 = (y2 + z2) / l22
        b1 = (y1 + z1 - l21 * b2) / l11
        if not self.clamp_vertex and b2 < 0.0:
            return -b1 / (2.0 * b2)
        return argmax_quadratic(b1, b2, self.range)

    def replay(self, actions, reward, delta, rng):
        # A (k, 3) block of normals has the bits of k draws of three. Its
        # columns as lists, and propose's arithmetic and argmax_quadratic
        # inlined on local floats, leave a rejected event no call to make.
        # An accept applies update's sums to local copies of the posterior.
        # The first event, and the first after each accept, refactor them
        # with _factor's eps = 0 pass; a pivot that is not positive is left
        # to _factor, the one home of the retry and the error. The state is
        # written back however the loop ends.
        indices, proposals = [], []
        lo, hi, clamp = self.range.lo, self.range.hi, self.clamp_vertex
        s2 = self.sigma2
        inv_s2 = 1.0 / s2
        sqrt = math.sqrt
        p00, p01, p02, p11, p12, p22, j0, j1, j2 = self._pj
        t = self.t
        stale = True
        try:
            for start in range(0, len(actions), REPLAY_BLOCK):
                block = actions[start : start + REPLAY_BLOCK].tolist()
                z = rng.standard_normal((len(block), 3))
                for i, (a, z1, z2) in enumerate(zip(block, z[:, 1].tolist(), z[:, 2].tolist()), start):
                    if stale:
                        if p00 > 0.0:
                            l00 = sqrt(p00)
                            l10, l20 = p01 / l00, p02 / l00
                            if (d1 := p11 - l10 * l10) > 0.0:
                                l11 = sqrt(d1)
                                l21 = (p12 - l20 * l10) / l11
                                if (d2 := p22 - l20 * l20 - l21 * l21) > 0.0:
                                    l22 = sqrt(d2)
                                    y0 = j0 / l00
                                    y1 = (j1 - l10 * y0) / l11
                                    y2 = (j2 - l20 * y0 - l21 * y1) / l22
                                    stale = False
                        if stale:
                            self._pj = (p00, p01, p02, p11, p12, p22, j0, j1, j2)
                            y1, y2, l11, l21, l22 = self._factor()
                            stale = False
                    b2 = (y2 + z2) / l22
                    b1 = (y1 + z1 - l21 * b2) / l11
                    # argmax_quadratic: the vertex if b2 < 0 and it is in range
                    # (or clamping is off), else the better end, ties toward lo.
                    if not (b2 < 0.0 and (lo <= (proposal := -b1 / (2.0 * b2)) <= hi or not clamp)):
                        proposal = lo if b1 * lo + b2 * lo * lo >= b1 * hi + b2 * hi * hi else hi
                    if abs(a - proposal) < delta:
                        r = reward(i, proposal)
                        a2 = proposal * proposal
                        a2_s2 = a2 / s2
                        p00, p01, p02, p11, p12, p22, j0, j1, j2 = (
                            p00 + inv_s2, p01 + proposal / s2, p02 + a2_s2,
                            p11 + a2_s2, p12 + proposal * a2 / s2, p22 + a2 * a2 / s2,
                            j0 + r / s2, j1 + r * proposal / s2, j2 + r * a2 / s2,
                        )
                        t += 1
                        indices.append(i)
                        proposals.append(proposal)
                        stale = True
        finally:
            self._pj, self.t = (p00, p01, p02, p11, p12, p22, j0, j1, j2), t
        return indices, proposals

    def update(self, action, reward):
        # P += f*f'/sigma2 and J += reward*f/sigma2 for f = (1, a, a*a), each
        # entry rounded as numpy's outer product and division round it.
        s2, a2 = self.sigma2, action * action
        p00, p01, p02, p11, p12, p22, j0, j1, j2 = self._pj
        self._pj = (
            p00 + 1.0 / s2, p01 + action / s2, p02 + a2 / s2,
            p11 + a2 / s2, p12 + action * a2 / s2, p22 + a2 * a2 / s2,
            j0 + reward / s2, j1 + reward * action / s2, j2 + reward * a2 / s2,
        )
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
        if not math.isfinite(a0):
            raise ValueError("a0 must be finite")
        if window < 1 or not all(0 < x < math.inf for x in (amplitude, gamma, omega)):
            raise ValueError("amplitude, window, gamma, and omega must be positive and finite")
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
        # The proposal moves only on an accept, so a rejected event costs one
        # comparison. An accept applies update inline on local copies of the
        # state, reusing the proposal's cos(omega*(t+1)) as the update's
        # cos(omega*t); the state is written back however the loop ends.
        indices, proposals = [], []
        t, a0, r_sum = self.t, self.a0, self.r_sum
        amplitude, window, gamma, omega = self.amplitude, self.window, self.gamma, self.omega
        cos = math.cos
        c = cos(omega * (t + 1))
        proposal = a0 + amplitude * c
        try:
            for i, a in enumerate(actions.tolist()):
                if abs(a - proposal) < delta:
                    r_sum += reward(i, proposal) * c
                    t += 1
                    if t % window == 0:
                        a0 += gamma * (r_sum / window)
                        r_sum = 0.0
                    indices.append(i)
                    proposals.append(proposal)
                    c = cos(omega * (t + 1))
                    proposal = a0 + amplitude * c
        finally:
            self.t, self.a0, self.r_sum = t, a0, r_sum
        return indices, proposals
