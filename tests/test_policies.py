import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabeval import policies
from cabeval.policies import (
    ConstantPolicy,
    EpsilonFirstPolicy,
    LockInFeedbackPolicy,
    NotPositiveDefiniteError,
    RankDeficiencyError,
    ThompsonQuadraticPolicy,
    UniformRandomPolicy,
    argmax_quadratic,
    least_squares_quadratic,
)
from cabeval.harness import simulate_online
from cabeval.rewards import ActionRange, ParabolaModel
from helpers import tbl_posterior

UNIT = ActionRange(0.0, 1.0)


class ZeroNormalRng:
    """Stub forcing the posterior draw to collapse onto its mean."""

    def standard_normal(self, n):
        return np.zeros(n)


class TestLeastSquares:
    def test_exact_interpolation(self):
        pts = [(a, 1 + 2 * a - 3 * a**2) for a in (0.0, 0.5, 1.0)]
        b0, b1, b2 = least_squares_quadratic(pts)
        assert b0 == pytest.approx(1.0, abs=1e-9)
        assert b1 == pytest.approx(2.0, abs=1e-9)
        assert b2 == pytest.approx(-3.0, abs=1e-9)

    def test_two_points_rank_deficient(self):
        with pytest.raises(RankDeficiencyError):
            least_squares_quadratic([(0.0, 1.0), (1.0, 2.0)])

    def test_repeated_actions_rank_deficient(self):
        with pytest.raises(RankDeficiencyError):
            least_squares_quadratic([(0.3, 1.0), (0.3, 1.1), (0.3, 0.9), (0.7, 2.0)])

    def test_matches_independent_normal_equations(self):
        rng = np.random.default_rng(42)
        a = rng.uniform(0, 1, 1000)
        r = 0.4 - 1.3 * a + 0.8 * a**2 + rng.normal(0, 0.1, 1000)
        b0, b1, b2 = least_squares_quadratic(list(zip(a, r)))
        # Oracle: moment sums plus an explicit 3x3 solve.
        s = [np.sum(a**p) for p in range(5)]
        M = np.array([[s[0], s[1], s[2]], [s[1], s[2], s[3]], [s[2], s[3], s[4]]])
        v = np.array([np.sum(r), np.sum(r * a), np.sum(r * a**2)])
        b = np.linalg.solve(M, v)
        assert b0 == pytest.approx(b[0], abs=1e-8)
        assert b1 == pytest.approx(b[1], abs=1e-8)
        assert b2 == pytest.approx(b[2], abs=1e-8)


class TestArgmaxQuadratic:
    def test_interior_vertex(self):
        assert argmax_quadratic(1.0, -1.0, UNIT) == pytest.approx(0.5)

    def test_convex_goes_to_better_endpoint(self):
        assert argmax_quadratic(0.0, 0.5, UNIT) == 1.0

    def test_vertex_out_of_range_resolves_to_endpoint(self):
        # Vertex at 1.25; value at 1 is 0.015 versus 0 at 0.
        assert argmax_quadratic(0.025, -0.01, UNIT) == 1.0

    def test_tie_breaks_toward_lo(self):
        assert argmax_quadratic(0.0, 0.0, UNIT) == 0.0

    @given(
        b1=st.floats(-5, 5, allow_nan=False),
        b2=st.floats(-5, 5, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_beaten_by_grid_scan(self, b1, b2):
        value = lambda a: b1 * a + b2 * a * a
        best = argmax_quadratic(b1, b2, UNIT)
        assert 0.0 <= best <= 1.0
        grid = np.arange(0.0, 1.0 + 1e-4, 1e-4)
        assert value(best) >= np.max(value(grid)) - 1e-9

    def test_interior_argmax_has_zero_gradient(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 1, 200)
        r = -((a - 0.4) ** 2) + rng.normal(0, 0.05, 200)
        _, b1, b2 = least_squares_quadratic(list(zip(a, r)))
        best = argmax_quadratic(b1, b2, UNIT)
        assert 0.0 < best < 1.0
        assert abs(b1 + 2 * b2 * best) < 1e-9


class TestSampleMvn:
    """TBL's posterior draw, made in floats from the closed-form Cholesky
    factor of the precision P."""

    @staticmethod
    def tbl(mu, sigma, **kwargs):
        P = np.linalg.inv(sigma)
        return ThompsonQuadraticPolicy(UNIT, J=P @ mu, P=(P + P.T) / 2.0, **kwargs)

    @staticmethod
    def drawn_coefficients(monkeypatch, p, rng, n):
        """(theta1, theta2) of n proposals, read where ``propose`` hands
        them to ``argmax_quadratic``."""
        drawn = []

        def record(b1, b2, action_range):
            drawn.append((b1, b2))
            return 0.5

        monkeypatch.setattr(policies, "argmax_quadratic", record)
        for _ in range(n):
            p.propose(rng)
        return np.array(drawn)

    def test_zero_draw_returns_mean(self):
        # The mean's quadratic 2a - 2a^2 peaks at a = 0.5.
        mu = np.array([1.0, 2.0, -2.0])
        assert self.tbl(mu, np.eye(3)).propose(ZeroNormalRng()) == 0.5
        A = np.array([[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 0.3]])
        p = self.tbl(mu, A @ A.T, clamp_vertex=False)
        assert p.propose(ZeroNormalRng()) == pytest.approx(0.5, rel=1e-12)

    def test_zero_pivot_rescued_by_jitter(self):
        # Each P below has one pivot of exactly 0; the retry adds 1e-10 to
        # the diagonal, as numpy's factor of P + 1e-10*I does.
        for P in (
            np.diag([1.0, 1.0, 0.0]),
            np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.diag([0.0, 1.0, 1.0]),
        ):
            p = ThompsonQuadraticPolicy(UNIT, J=[0.0, 0.0, 0.0], P=P)
            _, _, l11, l21, l22 = p._factor()
            L = np.linalg.cholesky(P + 1e-10 * np.eye(3))
            assert [l11, l21, l22] == pytest.approx([L[1, 1], L[2, 1], L[2, 2]], rel=1e-6)
            assert 0.0 <= p.propose(np.random.default_rng(0)) <= 1.0

    def test_non_pd_sigma_raises(self):
        # A negative pivot in any place fails at construction, past the jitter.
        for P in (
            -np.eye(3),
            [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
            np.diag([1.0, 1.0, -1e-9]),
        ):
            with pytest.raises(NotPositiveDefiniteError):
                ThompsonQuadraticPolicy(UNIT, P=P)

    def test_non_pd_precision_raises_at_draw(self):
        # A negative weight subtracts (1, 3, 9)(1, 3, 9)' from the prior,
        # which leaves a negative second pivot for the next draw.
        p = ThompsonQuadraticPolicy(UNIT)
        p.sigma2 = -1.0
        p.update(3.0, 0.0)
        with pytest.raises(NotPositiveDefiniteError):
            p.propose(np.random.default_rng(0))

    def test_moments_of_many_draws(self, monkeypatch):
        mu = np.array([0.5, -1.0, 2.0])
        A = np.array([[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 0.3]])
        sigma = A @ A.T
        p = self.tbl(mu, sigma)
        draws = self.drawn_coefficients(monkeypatch, p, np.random.default_rng(101), 50_000)
        # Only theta1 and theta2 are solved for; theta0 never reaches the action.
        tol = 5 * np.sqrt(np.diag(sigma)[1:] / 50_000)
        assert np.all(np.abs(draws.mean(axis=0) - mu[1:]) < tol)
        emp = np.cov(draws.T)
        rel = np.linalg.norm(emp - sigma[1:, 1:]) / np.linalg.norm(sigma[1:, 1:])
        assert rel < 0.05

    def test_factor_and_mean_match_numpy(self, monkeypatch):
        # The factor keeps l11, l21, l22 and y = inv(L)*J; l00, l10 and l20
        # enter through y, and the zero draw's coefficients are (mu1, mu2).
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(1000):
            A = rng.normal(size=(3, 3))
            P = A @ A.T + np.eye(3)
            J = rng.normal(size=3)
            p = ThompsonQuadraticPolicy(UNIT, J=J, P=P)
            y1, y2, l11, l21, l22 = p._factor()
            L = np.linalg.cholesky(P)
            y = np.linalg.solve(L, J)
            (mean,) = self.drawn_coefficients(monkeypatch, p, ZeroNormalRng(), 1)
            ref_mu = np.linalg.solve(P, J)
            worst = max(
                worst,
                np.max(np.abs([l11 - L[1, 1], l21 - L[2, 1], l22 - L[2, 2]])) / np.max(np.abs(L)),
                np.max(np.abs([y1 - y[1], y2 - y[2]])) / np.max(np.abs(y)),
                np.max(np.abs(mean - ref_mu[1:])) / np.max(np.abs(ref_mu)),
            )
        assert worst < 1e-12, worst

    @pytest.mark.parametrize("sigma2", [1.0, 0.7])
    @pytest.mark.parametrize(
        "p0", [ThompsonQuadraticPolicy.DEFAULT_P_DIAG, (1e-9,) * 3], ids=["prior", "tiny"]
    )
    def test_updates_equal_numpy_reference(self, sigma2, p0):
        # A tiny prior leaves the last bits of the first terms in the sums.
        rng = np.random.default_rng(23)
        for _ in range(3):
            p = ThompsonQuadraticPolicy(UNIT, P=np.diag(p0), sigma2=sigma2)
            J = np.array(ThompsonQuadraticPolicy.DEFAULT_J)
            P = np.diag(p0)
            for a, r in zip(rng.uniform(-0.5, 1.5, 300).tolist(), rng.normal(size=300).tolist()):
                p.update(a, r)
                features = np.array([1.0, a, a * a])
                J += r * features / sigma2
                P += np.outer(features, features) / sigma2
                p_P, p_J, _, _ = tbl_posterior(p)
                assert p_J.tolist() == J.tolist()
                assert p_P.tolist() == P.tolist()


class TestThompsonQuadratic:
    def test_prior_posterior_values(self):
        p = ThompsonQuadraticPolicy(UNIT)
        _, _, mu, sigma = tbl_posterior(p)
        assert mu == pytest.approx([0.0, 0.025, -0.01])
        assert sigma == pytest.approx(np.diag([0.5, 0.5, 0.2]))

    def test_degenerate_draw_resolves_to_upper_endpoint(self):
        # Prior mean vertex is -0.025 / (2 * -0.01) = 1.25, outside the range;
        # the upper endpoint wins on value.
        p = ThompsonQuadraticPolicy(UNIT)
        assert p.propose(ZeroNormalRng()) == 1.0

    def test_unclamped_vertex_flag(self):
        p = ThompsonQuadraticPolicy(UNIT, clamp_vertex=False)
        assert p.propose(ZeroNormalRng()) == pytest.approx(1.25)

    def test_single_update_arithmetic(self):
        p = ThompsonQuadraticPolicy(UNIT)
        p.update(0.0, 1.0)
        p_P, p_J, _, _ = tbl_posterior(p)
        assert p_J == pytest.approx([1.0, 0.05, -0.05])
        expected_P = np.diag([2.0, 2.0, 5.0])
        expected_P[0, 0] = 3.0
        assert p_P == pytest.approx(expected_P)
        assert p.t == 1

    def test_sequential_matches_batch_posterior(self):
        rng = np.random.default_rng(6)
        p = ThompsonQuadraticPolicy(UNIT, sigma2=0.7)
        a = rng.uniform(0, 1, 40)
        r = rng.normal(0, 1, 40)
        for ai, ri in zip(a, r):
            p.update(ai, ri)
        X = np.column_stack([np.ones_like(a), a, a**2])
        P = np.diag([2.0, 2.0, 5.0]) + X.T @ X / 0.7
        J = np.array([0.0, 0.05, -0.05]) + X.T @ r / 0.7
        sigma = np.linalg.inv(P)
        _, _, mu, emp_sigma = tbl_posterior(p)
        assert np.max(np.abs(mu - sigma @ J)) < 1e-10
        assert np.max(np.abs(emp_sigma - sigma)) < 1e-10

    def test_zero_draw_follows_each_update(self):
        # Each proposal factors the current posterior: the unclamped
        # zero-draw action is the posterior mean's vertex after each update.
        rng = np.random.default_rng(5)
        p = ThompsonQuadraticPolicy(UNIT, clamp_vertex=False)
        for a in rng.uniform(0, 1, 30).tolist():
            p.update(a, -((a - 0.3) ** 2))
            mu = tbl_posterior(p)[2]
            assert p.propose(ZeroNormalRng()) == pytest.approx(-mu[1] / (2 * mu[2]), rel=1e-9)

    def test_factor_stores_nothing(self):
        p = ThompsonQuadraticPolicy(UNIT, sigma2=0.7)
        p.update(0.3, 1.0)
        before = dict(vars(p))
        first = p._factor()
        assert vars(p) == before
        assert p._factor() == first

    def test_precision_quadratic_form_monotone(self):
        rng = np.random.default_rng(9)
        p = ThompsonQuadraticPolicy(UNIT)
        xs = rng.normal(size=(5, 3))
        P = tbl_posterior(p)[0]
        prev = [x @ P @ x for x in xs]
        for _ in range(50):
            p.update(float(rng.uniform(0, 1)), float(rng.normal()))
            P = tbl_posterior(p)[0]
            now = [x @ P @ x for x in xs]
            assert all(b >= a - 1e-12 for a, b in zip(prev, now))
            prev = now


class TestEpsilonFirst:
    def test_explores_then_freezes(self):
        rng = np.random.default_rng(2)
        p = EpsilonFirstPolicy(UNIT, explore_steps=10)
        for _ in range(10):
            a = p.propose(rng)
            assert 0.0 <= a <= 1.0
            p.update(a, -((a - 0.4) ** 2))
        assert p.exploit_action is not None
        frozen = p.propose(rng)
        for _ in range(20):
            p.update(frozen, -1.0)
            assert p.propose(rng) == frozen

    def test_fit_absent_during_exploration(self):
        p = EpsilonFirstPolicy(UNIT, explore_steps=5)
        assert p.exploit_action is None

    def test_degenerate_history_raises_at_transition(self):
        p = EpsilonFirstPolicy(UNIT, explore_steps=3)
        p.update(0.5, 1.0)
        p.update(0.5, 1.1)
        with pytest.raises(RankDeficiencyError):
            p.update(0.5, 0.9)

    def test_too_small_explore_phase_rejected(self):
        with pytest.raises(ValueError):
            EpsilonFirstPolicy(UNIT, explore_steps=2)


class TestLockInFeedback:
    def test_first_proposal_formula(self):
        p = LockInFeedbackPolicy(UNIT, a0=0.5, amplitude=0.05, window=50, gamma=0.1, omega=1.0)
        assert p.propose(None) == pytest.approx(0.5 + 0.05 * math.cos(1.0))
        assert p.propose(None) == pytest.approx(0.52702, abs=1e-5)

    def test_center_fixed_within_window(self):
        p = LockInFeedbackPolicy(UNIT, a0=0.3, window=50)
        for t in range(49):
            p.update(p.propose(None), 1.0)
        assert p.a0 == 0.3

    def test_window_update_matches_brute_force_sum(self):
        c = 0.37
        p = LockInFeedbackPolicy(UNIT, a0=0.5, amplitude=0.05, window=50, gamma=0.1, omega=1.0)
        for _ in range(50):
            p.update(p.propose(None), c)
        oracle = 0.5 + 0.1 * (c / 50) * sum(math.cos(t) for t in range(1, 51))
        assert p.a0 == pytest.approx(oracle, abs=1e-12)
        assert p.r_sum == 0.0

    def test_center_depends_only_on_rewards(self):
        rewards = np.random.default_rng(4).normal(0, 1, 100)
        p1 = LockInFeedbackPolicy(UNIT, a0=0.5)
        p2 = LockInFeedbackPolicy(UNIT, a0=0.5)
        for r in rewards:
            p1.update(p1.propose(None), r)
            # Feed p2 the same rewards but lie about the action taken.
            p2.update(0.0, r)
        assert p1.a0 == p2.a0

    def test_default_step_converges_on_noiseless_parabola(self):
        # With the default step the center closes the gap geometrically,
        # by a factor 1 - gamma*A*s per window; it must end within one
        # amplitude of the peak over a paper-length horizon.
        model = ParabolaModel(peak=0.7, scale=1.0, noise_var=0.0, range=UNIT)
        p = LockInFeedbackPolicy(UNIT, a0=0.2)
        simulate_online(p, model, 10_000, None, None)
        assert abs(p.a0 - 0.7) < p.amplitude


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: UniformRandomPolicy(UNIT),
            lambda: ConstantPolicy(UNIT, 0.4),
            lambda: EpsilonFirstPolicy(UNIT, explore_steps=5),
            lambda: ThompsonQuadraticPolicy(UNIT),
            lambda: LockInFeedbackPolicy(UNIT, a0=0.5),
        ],
    )
    def test_same_seed_same_proposals(self, factory):
        out = []
        for _ in range(2):
            policy = factory()
            rng = np.random.default_rng(77)
            seq = []
            for t in range(20):
                a = policy.propose(rng)
                seq.append(a)
                policy.update(a, -((a - 0.6) ** 2))
            out.append(seq)
        assert out[0] == out[1]
