import math

import numpy as np
import pytest

from cabeval.harness import ROLE_MODEL, derive_rng
from cabeval.rewards import (
    ActionRange,
    BimodalQuarticModel,
    ParabolaModel,
    make_bimodal,
    make_model,
    make_parabola,
)

UNIT = ActionRange(0.0, 1.0)


class SequenceRng:
    """Stub generator returning preset values from rng.uniform."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, lo, hi, size=None):
        v = self.values.pop(0)
        assert lo <= v <= hi, f"forced value {v} outside [{lo}, {hi}]"
        return v


def unit_quartic(model, x):
    """Q(x), the quartic with Q' = (x - m1)(x - m0)(x - m2) and no constant."""
    return np.polyval(np.polyint(np.poly([model.m1, model.m0, model.m2])), x)


def fd_derivative(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def fd_second(f, x, h=1e-4):
    return (f(x + h) - 2 * f(x) + f(x - h)) / h**2


def test_action_range_rejects_inverted():
    with pytest.raises(ValueError):
        ActionRange(1.0, 0.0)
    with pytest.raises(ValueError):
        ActionRange(0.5, 0.5)
    with pytest.raises(ValueError):  # finite ends whose width overflows
        ActionRange(-1e308, 1e308)


# Valid arguments for each surface; each bad case below changes one or two.
VALID_ARGS = {
    ParabolaModel: dict(peak=0.5, scale=1.0, noise_var=0.0, range=UNIT),
    BimodalQuarticModel: dict(
        m1=0.25, m0=0.5, m2=0.75, k=-64.0, c=0.4375, noise_var=0.0, range=UNIT
    ),
}


@pytest.mark.parametrize(
    "cls, change, match",
    [
        (ParabolaModel, {"scale": 0.0}, "scale must be positive"),
        (ParabolaModel, {"noise_var": -0.1}, "noise_var must be non-negative"),
        (BimodalQuarticModel, {"m1": 0.5, "m0": 0.25}, "lo < m1 < m0 < m2 < hi"),
        (BimodalQuarticModel, {"noise_var": -0.1}, "noise_var must be non-negative"),
        (BimodalQuarticModel, {"k": 64.0}, "k must be negative"),
    ],
)
def test_bad_surface_rejected(cls, change, match):
    cls(**VALID_ARGS[cls])
    with pytest.raises(ValueError, match=match):
        cls(**{**VALID_ARGS[cls], **change})


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown reward family 'cubic'"):
        make_model("cubic", np.random.default_rng(0), UNIT, 0.01)


class TestParabola:
    def test_forced_peak_direct_values(self):
        model = make_parabola(SequenceRng([0.5]), UNIT, noise_var=0.0)
        assert model.peak == 0.5
        assert model.scale == 1.0
        assert model.mean(0.5) == 0.0
        assert model.mean(0.3) == pytest.approx(-0.04)

    def test_peak_dominates_grid(self):
        model = make_parabola(np.random.default_rng(7), UNIT, 0.01)
        grid = np.linspace(0, 1, 1001)
        assert np.all(model.mean(model.peak) >= model.mean(grid))

    def test_symmetry_at_endpoints(self):
        model = ParabolaModel(peak=0.5, scale=1.0, noise_var=0.0, range=UNIT)
        assert model.mean(0.0) == model.mean(1.0) == pytest.approx(-0.25)

    def test_out_of_range_evaluation_allowed(self):
        model = ParabolaModel(peak=0.5, scale=1.0, noise_var=0.0, range=UNIT)
        assert model.mean(1.5) == pytest.approx(-1.0)

    def test_optimum(self):
        model = ParabolaModel(peak=0.5, scale=1.0, noise_var=0.0, range=UNIT)
        assert model.optimum() == (0.5, 0.0)

    def test_scalar_mean_equals_array_mean(self):
        # An online reward is the mean at one float, a logged one an entry of
        # the mean over an array; both must square the same way, bit for bit.
        rng = np.random.default_rng(31)
        for _ in range(20):
            model = make_parabola(rng, UNIT, 0.0, scale=float(rng.uniform(0.5, 2.0)))
            actions = rng.uniform(-0.5, 1.5, 1000)
            assert [model.mean(a) for a in actions.tolist()] == model.mean(actions).tolist()


class TestBimodal:
    def test_symmetric_geometry_solved_analytically(self):
        # With u = x - 1/2 the derivative is k*(u^3 - u/16), so the
        # antiderivative from lo is k*(u^4/4 - u^2/32 - 1/128). Both maxima
        # (u = -1/4 and u = 1/4) sit at c - 9k/1024: any negative k keeps
        # them level, and k = -64, c = 7/16 puts them at 1.
        m1, m0, m2 = 0.25, 0.5, 0.75
        model = BimodalQuarticModel(
            m1=m1, m0=m0, m2=m2, k=-64.0, c=0.4375, noise_var=0.0, range=UNIT
        )
        assert model.mean(m1) == pytest.approx(1.0, abs=1e-9)
        assert model.mean(m2) == pytest.approx(1.0, abs=1e-9)
        assert model.mean(m0) == pytest.approx(1.0 - 64.0 / 1024, abs=1e-9)
        assert fd_second(model.mean, m1) < 0

    @pytest.mark.parametrize("seed", range(25))
    def test_stationary_derivatives_vanish(self, seed):
        model = make_bimodal(np.random.default_rng(seed), UNIT, 0.01)
        deriv = lambda x: model.k * (x - model.m1) * (x - model.m0) * (x - model.m2)
        for x in (model.m1, model.m0, model.m2):
            assert abs(deriv(x)) < 1e-9
            assert abs(fd_derivative(model.mean, x)) < 1e-4

    @pytest.mark.parametrize("seed", range(25))
    def test_grid_argmax_near_a_peak(self, seed):
        model = make_bimodal(np.random.default_rng(seed), UNIT, 0.01)
        grid = np.linspace(0, 1, 10_001)
        best = grid[np.argmax(model.mean(grid))]
        assert min(abs(best - model.m1), abs(best - model.m2)) < 1e-3

    def test_interior_minimum_below_both_peaks(self):
        model = make_bimodal(np.random.default_rng(11), UNIT, 0.01)
        assert model.mean(model.m0) < model.mean(model.m1)
        assert model.mean(model.m0) < model.mean(model.m2)

    def test_span_read_at_the_five_stationary_and_end_points(self):
        # The one draw, among seeds 0-9, 17, 42, 5151, 6161 and 8317 with
        # reps 0-999, where a 2,001-point grid of Q rounds below its true
        # minimum (by 1.04e-17), so a grid scan gives another k.
        model = make_bimodal(derive_rng(5151, 474, ROLE_MODEL), UNIT, 0.01)
        rng = derive_rng(5151, 474, ROLE_MODEL)
        rng.uniform(size=3)  # m1, m2 and m0
        span = rng.uniform(0.5, 1.0)
        q = unit_quartic(model, [UNIT.lo, model.m1, model.m0, model.m2, UNIT.hi])
        assert model.k == -span / (q.max() - q.min())
        assert unit_quartic(model, np.linspace(UNIT.lo, UNIT.hi, 2001)).min() < q.min()

    def test_no_grid_point_outside_the_five_point_span(self):
        grid = np.linspace(UNIT.lo, UNIT.hi, 2001)
        for rep in range(375, 575):
            model = make_bimodal(derive_rng(5151, rep, ROLE_MODEL), UNIT, 0.01)
            q = unit_quartic(model, [UNIT.lo, model.m1, model.m0, model.m2, UNIT.hi])
            values = unit_quartic(model, grid)
            assert values.min() >= q.min() - 1e-15
            assert values.max() <= q.max() + 1e-15

    def test_thousand_consecutive_seeds_valid(self):
        for seed in range(1000):
            model = make_bimodal(np.random.default_rng(seed), UNIT, 0.01)
            assert model.k < 0
            assert 0 < model.m1 < model.m0 < model.m2 < 1
            second_m1 = model.k * (model.m1 - model.m0) * (model.m1 - model.m2)
            second_m2 = model.k * (model.m2 - model.m0) * (model.m2 - model.m1)
            assert second_m1 < 0 and second_m2 < 0


class TestOptimum:
    @pytest.mark.parametrize("family", ["parabola", "bimodal"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_grid_never_beats_optimum(self, family, seed):
        model = make_model(family, np.random.default_rng(seed), UNIT, 0.01)
        a_star, r_star = model.optimum()
        grid = np.linspace(0, 1, 10_001)
        assert UNIT.lo <= a_star <= UNIT.hi
        assert np.max(model.mean(grid)) <= r_star + 1e-4
        assert np.all(model.mean(grid) <= r_star + 1e-12)

    @pytest.mark.parametrize("seed, rep", [(5, 159), (4, 829)])
    def test_bimodal_optimum_is_exact_where_a_grid_scan_rounds_above(self, seed, rep):
        # The only two draws, among seeds 0-9, 42, 2719, 5151 and 6161 with
        # reps 0-999, where a 10,001-point grid scan beats both peaks, by rounding.
        model = make_bimodal(derive_rng(seed, rep, ROLE_MODEL), UNIT, 0.01)
        a_star, r_star = model.optimum()
        assert a_star in (model.m1, model.m2)
        assert r_star == model.mean(a_star)
        assert 0 < np.max(model.mean(np.linspace(0, 1, 10_001))) - r_star <= 1e-15

    def test_grid_scan_beats_bimodal_optimum_only_by_rounding(self):
        grid = np.linspace(0, 1, 10_001)
        for rep in range(200):
            model = make_bimodal(derive_rng(42, rep, ROLE_MODEL), UNIT, 0.01)
            assert np.max(model.mean(grid)) <= model.optimum()[1] + 1e-15


class TestDerivativeCheck:
    @pytest.mark.parametrize("family", ["parabola", "bimodal"])
    def test_finite_difference_matches_analytic(self, family):
        rng = np.random.default_rng(3)
        model = make_model(family, rng, UNIT, 0.01)
        if family == "parabola":
            analytic = lambda x: -2 * model.scale * (x - model.peak)
        else:
            analytic = lambda x: (
                model.k * (x - model.m1) * (x - model.m0) * (x - model.m2)
            )
        for x in rng.uniform(0, 1, 100):
            assert fd_derivative(model.mean, x) == pytest.approx(
                analytic(x), abs=1e-4
            )


class TestSampling:
    @pytest.mark.parametrize("family", ["parabola", "bimodal"])
    def test_noise_free_surface_draws_nothing_and_gives_negative_zero(self, family):
        # x + -0.0 is x for every float; +0.0 would turn a -0.0 mean into +0.0.
        model = make_model(family, np.random.default_rng(0), UNIT, 0.0)
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        scalar = model.noise(rng)
        assert scalar == 0.0 and math.copysign(1.0, scalar) == -1.0
        block = model.noise(rng, 5)
        assert block.shape == (5,) and np.all(block == 0.0) and np.all(np.signbit(block))
        assert rng.bit_generator.state == state

    def test_zero_noise_is_exact(self):
        model = ParabolaModel(peak=0.5, scale=1.0, noise_var=0.0, range=UNIT)
        rng = np.random.default_rng(0)
        assert model.sample(0.3, rng) == model.mean(0.3)

    def test_sample_mean_concentrates(self):
        model = ParabolaModel(peak=0.5, scale=1.0, noise_var=0.01, range=UNIT)
        rng = np.random.default_rng(123)
        draws = model.sample(np.full(10_000, 0.3), rng)
        # CLT: sd of the mean is 0.1/100.
        assert abs(np.mean(draws) - model.mean(0.3)) < 4 * (0.1 / 100)

    def test_sample_variance_in_band(self):
        model = ParabolaModel(peak=0.5, scale=1.0, noise_var=0.01, range=UNIT)
        rng = np.random.default_rng(99)
        draws = model.sample(np.full(10_000, 0.7), rng)
        assert 0.008 < np.var(draws) < 0.012

    def test_same_seed_bit_reproducible(self):
        model = make_bimodal(np.random.default_rng(5), UNIT, 0.01)
        a = model.sample(np.linspace(0, 1, 50), np.random.default_rng(17))
        b = model.sample(np.linspace(0, 1, 50), np.random.default_rng(17))
        assert np.array_equal(a, b)
