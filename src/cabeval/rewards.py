"""Ground-truth reward surfaces for continuous-armed bandit experiments.

Two synthetic families are provided: a downward parabola with a random
peak, and a bimodal quartic built from its stationary points. Both expose
a noiseless ``mean``, the reward ``noise`` law, a noisy ``sample``, and an
analytic ``optimum`` so regret can be computed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ActionRange:
    """Closed action interval [lo, hi] of finite ends and finite width."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (-math.inf < self.lo < self.hi < math.inf and self.hi - self.lo < math.inf):
            raise ValueError(f"invalid action range [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


class _Surface:
    """The reward noise law, N(0, noise_var), and the noisy ``sample`` that
    both surfaces share."""

    def noise(self, rng: np.random.Generator, size=None):
        """Reward noise: one float, or an array of ``size`` draws. One call
        for n draws gives the values and the generator end state of n scalar
        calls, so a run may draw its noise in one block. A noise-free surface
        draws nothing and returns -0.0, since x + -0.0 == x for every float x."""
        if not self.noise_var:
            return -0.0 if size is None else np.full(size, -0.0)
        return rng.normal(0.0, math.sqrt(self.noise_var), size)

    def sample(self, a, rng: np.random.Generator):
        # Evaluation outside the range is deliberate: policies may propose there.
        return self.mean(a) + self.noise(rng, np.shape(a) or None)


@dataclass(frozen=True)
class ParabolaModel(_Surface):
    """Unimodal surface mean(a) = -scale * (a - peak)^2, maximal at ``peak``."""

    peak: float
    scale: float
    noise_var: float
    range: ActionRange

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.noise_var < 0:
            raise ValueError("noise_var must be non-negative")

    def mean(self, a):
        d = a - self.peak  # d * d squares as an array's ** 2 does; a float's calls pow
        return -self.scale * (d * d)

    def optimum(self) -> tuple[float, float]:
        return self.peak, 0.0


@dataclass(frozen=True)
class BimodalQuarticModel(_Surface):
    """Quartic surface with maxima at m1 and m2 and an interior minimum at m0.

    The mean is defined through its derivative,
    mean'(x) = k * (x - m1) * (x - m0) * (x - m2) with k < 0, so the
    stationary points are exact by construction.
    """

    m1: float
    m0: float
    m2: float
    k: float
    c: float
    noise_var: float
    range: ActionRange
    _coeffs: tuple = field(init=False, repr=False, compare=False)
    _optimum: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.range.lo < self.m1 < self.m0 < self.m2 < self.range.hi):
            raise ValueError("stationary points must satisfy lo < m1 < m0 < m2 < hi")
        if self.noise_var < 0:
            raise ValueError("noise_var must be non-negative")
        if self.k * (self.m1 - self.m0) * (self.m1 - self.m2) >= 0:
            raise ValueError("m1 and m2 must be maxima (k must be negative)")
        # Integrate k*(x-m1)(x-m0)(x-m2), anchor the antiderivative at lo,
        # and fold in the offset c. Highest degree first (polyval order).
        cubic = np.poly([self.m1, self.m0, self.m2])
        quartic = np.polyint(self.k * cubic)
        const = self.c - np.polyval(quartic, self.range.lo)
        coeffs = quartic.copy()
        coeffs[-1] += const
        object.__setattr__(self, "_coeffs", tuple(float(x) for x in coeffs))
        # With k < 0 the mean rises up to m1 and from m0 to m2 and falls elsewhere.
        a_star = self.m1 if self.mean(self.m1) >= self.mean(self.m2) else self.m2
        object.__setattr__(self, "_optimum", (a_star, float(self.mean(a_star))))

    def mean(self, a):
        # Horner's rule, on a float or an array alike, as np.polyval does.
        v = 0.0
        for coef in self._coeffs:
            v = v * a + coef
        return v

    def optimum(self) -> tuple[float, float]:
        return self._optimum


RewardModel = ParabolaModel | BimodalQuarticModel


def make_parabola(
    rng: np.random.Generator,
    action_range: ActionRange,
    noise_var: float,
    scale: float = 1.0,
) -> ParabolaModel:
    """Draw a parabola whose peak is uniform over the action range."""
    peak = float(rng.uniform(action_range.lo, action_range.hi))
    return ParabolaModel(peak=peak, scale=scale, noise_var=noise_var, range=action_range)


def make_bimodal(
    rng: np.random.Generator,
    action_range: ActionRange,
    noise_var: float,
) -> BimodalQuarticModel:
    """Draw a bimodal quartic with random maxima locations and heights.

    The maxima locations m1, m2 and interior minimum m0 are drawn first.
    The derivative scale k is then set so the surface spans a random
    Unif(0.5, 1.0) height range over the action interval, and the offset c
    places the higher peak at a random Unif(0.5, 1.0) height. Bounding the
    span keeps every drawn surface on a comparable order-one scale; both
    the two peak locations and their height gap still vary per draw.
    """
    lo, hi = action_range.lo, action_range.hi
    w = action_range.width
    m1 = float(rng.uniform(lo + 0.05, lo + 0.45 * w))
    m2 = float(rng.uniform(lo + 0.55 * w, hi - 0.05))
    m0 = float(rng.uniform(m1 + 0.05, m2 - 0.05))

    # The unit quartic Q has Q' = (x - m1)(x - m0)(x - m2), so its extremes
    # over the range lie among these five points.
    q_lo, q1, q0, q2, q_hi = np.polyval(
        np.polyint(np.poly([m1, m0, m2])), [lo, m1, m0, m2, hi]
    ).tolist()
    span = float(rng.uniform(0.5, 1.0))
    k = -span / (max(q_lo, q1, q0, q2, q_hi) - min(q_lo, q1, q0, q2, q_hi))
    # With k < 0 the higher peak of the mean sits at the smaller of Q(m1), Q(m2).
    q_top = min(q1, q2) - q_lo
    peak_height = float(rng.uniform(0.5, 1.0))
    c = peak_height - k * q_top
    return BimodalQuarticModel(
        m1=m1, m0=m0, m2=m2, k=k, c=c, noise_var=noise_var, range=action_range
    )


def make_model(
    family: str,
    rng: np.random.Generator,
    action_range: ActionRange,
    noise_var: float,
) -> RewardModel:
    if family == "parabola":
        return make_parabola(rng, action_range, noise_var)
    if family == "bimodal":
        return make_bimodal(rng, action_range, noise_var)
    raise ValueError(f"unknown reward family {family!r}")
