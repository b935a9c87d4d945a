import math
import warnings

import numpy as np
import pytest

from cabeval import policies
from cabeval.harness import simulate_online
from cabeval.policies import (
    ConstantPolicy,
    EpsilonFirstPolicy,
    LockInFeedbackPolicy,
    Policy,
    RankDeficiencyError,
    ThompsonQuadraticPolicy,
    UniformRandomPolicy,
)
from cabeval.replay import (
    LoggedStream,
    ReplayConfig,
    StreamFormatError,
    Trace,
    acceptance_probability,
    generate_logged_stream,
    load_stream,
    replay_cab,
    replay_discrete,
    required_log_length,
    save_stream,
)
from cabeval.rewards import ActionRange, ParabolaModel, make_bimodal, make_parabola

UNIT = ActionRange(0.0, 1.0)
PARABOLA = ParabolaModel(peak=0.5, scale=1.0, noise_var=0.0, range=UNIT)


def reference_replay_cab(policy, stream, cfg, rng):
    """The per-event loop ``replay_cab`` must reproduce: one ``propose`` per
    logged event, rejected events included."""
    delta = cfg.delta
    if delta >= stream.range.width:
        warnings.warn(
            "delta >= range width: every in-range event will be accepted",
            stacklevel=2,
        )
    trace = Trace()
    actions = stream.actions.tolist()
    rewards = stream.rewards.tolist()
    for i, a in enumerate(actions):
        proposal = policy.propose(rng)
        if abs(a - proposal) < delta:
            policy.update(proposal, rewards[i])
            trace.append(i, proposal, rewards[i])
    return trace


def reference_simulate_online(policy, model, horizon, proposal_rng, reward_rng):
    """The per-step loop ``simulate_online`` must reproduce: one ``propose``,
    ``sample`` and ``update`` per step."""
    trace = Trace()
    for t in range(horizon):
        action = policy.propose(proposal_rng)
        reward = float(model.sample(action, reward_rng))
        policy.update(action, reward)
        trace.append(t, action, reward)
    return trace


def policy_state(policy):
    """Every attribute of a policy, with arrays as lists so ``==`` is exact."""

    def plain(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, tuple):
            return tuple(plain(v) for v in value)
        return value

    return {k: plain(v) for k, v in vars(policy).items()}


POLICY_MAKERS = {
    "UR": lambda space: UniformRandomPolicy(space),
    "EF": lambda space: EpsilonFirstPolicy(space, explore_steps=50),
    "TBL": lambda space: ThompsonQuadraticPolicy(space),
    "TBL-unclamped": lambda space: ThompsonQuadraticPolicy(space, clamp_vertex=False),
    "LiF": lambda space: LockInFeedbackPolicy(space, a0=0.3),
    "Constant": lambda space: ConstantPolicy(space, 0.6),
}


def assert_same_replay(make, stream, delta, seed=99):
    """Replay fresh copies of one policy with ``replay_cab`` and with the
    reference loop, each from an equal generator, and require equal traces,
    policy states and generator states; return ``replay_cab``'s trace."""
    outcomes = []
    for replay in (replay_cab, reference_replay_cab):
        policy, rng = make(stream.range), np.random.default_rng(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trace = replay(policy, stream, ReplayConfig(delta), rng)
        outcomes.append((trace, policy_state(policy), rng.bit_generator.state))
    (got, state, rng_state), (expected, ref_state, ref_rng_state) = outcomes
    assert got.stream_indices == expected.stream_indices
    assert got.proposals == expected.proposals
    assert got.rewards == expected.rewards
    assert state == ref_state
    assert rng_state == ref_rng_state
    return got


def assert_same_online(make, model, horizon, seed=99):
    """Run fresh copies of one policy online with ``simulate_online`` and with
    the reference loop, each from equal generators, and require equal
    traces, policy states and end states of both generators."""
    outcomes = []
    for simulate in (simulate_online, reference_simulate_online):
        policy = make(model.range)
        proposal_rng = np.random.default_rng([seed, 3])
        reward_rng = np.random.default_rng([seed, 4])
        trace = simulate(policy, model, horizon, proposal_rng, reward_rng)
        outcomes.append(
            (
                trace,
                policy_state(policy),
                proposal_rng.bit_generator.state,
                reward_rng.bit_generator.state,
            )
        )
    (got, state, p_rng, r_rng), (expected, ref_state, ref_p_rng, ref_r_rng) = outcomes
    assert got.stream_indices == expected.stream_indices == list(range(horizon))
    assert got.proposals == expected.proposals
    assert got.rewards == expected.rewards
    assert state == ref_state
    assert p_rng == ref_p_rng
    assert r_rng == ref_r_rng


class BaseLoopPolicy(Policy):
    """Defines only ``propose`` and ``update``, so it runs on ``Policy.replay``."""

    def __init__(self, action_range):
        super().__init__(action_range)
        self.center = 0.5

    def propose(self, rng):
        return self.center + 0.1 * float(rng.standard_normal())

    def update(self, action, reward):
        super().update(action, reward)
        self.center += 0.5 * (action - self.center) * reward


class NanAfterThree(Policy):
    def propose(self, rng):
        return math.nan if self.t >= 3 else 0.5


def make_stream(actions, rewards):
    return LoggedStream(
        actions=np.asarray(actions, dtype=float),
        rewards=np.asarray(rewards, dtype=float),
        range=UNIT,
    )


class ForcedUniformRng:
    def __init__(self, values):
        self.values = values

    def uniform(self, lo, hi, size=None):
        assert size == len(self.values)
        return np.asarray(self.values)


class TestGenerateStream:
    def test_single_forced_event(self):
        stream = generate_logged_stream(PARABOLA, 1, ForcedUniformRng([0.3]))
        assert stream.actions.tolist() == [0.3]
        assert stream.rewards.tolist() == [pytest.approx(-0.04)]

    def test_action_mean_near_half(self):
        model = ParabolaModel(peak=0.5, scale=1.0, noise_var=0.01, range=UNIT)
        stream = generate_logged_stream(model, 10_000, np.random.default_rng(0))
        assert 0.485 < np.mean(stream.actions) < 0.515

    def test_field_study_length(self):
        model = ParabolaModel(peak=0.4, scale=1.0, noise_var=0.01, range=UNIT)
        stream = generate_logged_stream(model, 2448, np.random.default_rng(1))
        assert len(stream) == 2448

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            generate_logged_stream(PARABOLA, 0, np.random.default_rng(0))


class TestReplayDiscrete:
    def test_three_arm_example(self):
        stream = make_stream([1, 2, 1], [1.0, 0.0, 1.0])
        trace = replay_discrete(ConstantPolicy(UNIT, 1.0), stream)
        assert trace.T == 2
        assert trace.R_c == 2.0
        assert trace.stream_indices == [0, 2]

    def test_unmatched_arm_accepts_nothing(self):
        stream = make_stream([1, 2, 1], [1.0, 0.0, 1.0])
        trace = replay_discrete(ConstantPolicy(UNIT, 3.0), stream)
        assert trace.T == 0
        assert trace.R_c == 0.0

    def test_expected_count_quarter_of_stream(self):
        rng = np.random.default_rng(5)
        arms = rng.integers(0, 4, size=10_000).astype(float)
        stream = make_stream(arms, np.ones(10_000))
        trace = replay_discrete(ConstantPolicy(UNIT, 2.0), stream)
        # Binomial(10000, 1/4): sd around 43.3.
        assert abs(trace.T - 2500) < 5 * 43.3


class TestReplayCab:
    def test_accept_within_tolerance(self):
        stream = make_stream([0.45], [1.0])
        policy = ConstantPolicy(UNIT, 0.5)
        trace = replay_cab(policy, stream, ReplayConfig(0.1), np.random.default_rng(0))
        assert trace.T == 1
        assert trace.R_c == 1.0
        assert trace.proposals == [0.5]  # recorded action is the proposal
        assert policy.t == 1

    def test_reject_outside_tolerance(self):
        stream = make_stream([0.45], [1.0])
        policy = ConstantPolicy(UNIT, 0.5)
        trace = replay_cab(policy, stream, ReplayConfig(0.01), np.random.default_rng(0))
        assert trace.T == 0
        assert policy.t == 0

    def test_strict_inequality_at_boundary(self):
        # 0.5 - 0.25 is exact in binary, so |a - p| == delta precisely.
        stream = make_stream([0.25], [1.0])
        policy = ConstantPolicy(UNIT, 0.5)
        trace = replay_cab(policy, stream, ReplayConfig(0.25), np.random.default_rng(0))
        assert trace.T == 0

    def test_constant_policy_acceptance_rate(self):
        counts = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            stream = generate_logged_stream(PARABOLA, 10_000, rng)
            trace = replay_cab(
                ConstantPolicy(UNIT, 0.5), stream, ReplayConfig(0.1), rng
            )
            counts.append(trace.T)
        # E[T] = 2000, per-run sd 40, so the mean of 50 runs is within 5.7.
        assert abs(np.mean(counts) - 2000) < 5 * 40 / np.sqrt(50)

    def test_full_acceptance_when_delta_covers_range(self):
        rng = np.random.default_rng(3)
        stream = generate_logged_stream(PARABOLA, 500, rng)
        with pytest.warns(UserWarning):
            trace = replay_cab(
                ConstantPolicy(UNIT, 0.5), stream, ReplayConfig(1.0), rng
            )
        assert trace.T == len(stream)

    def test_rejected_events_leave_no_mark(self):
        # Interleaving far-away events must not change the accepted record.
        base_actions = [0.48, 0.52, 0.5]
        rewards = [1.0, 2.0, 3.0]
        policy_a = ConstantPolicy(UNIT, 0.5)
        trace_a = replay_cab(
            policy_a, make_stream(base_actions, rewards),
            ReplayConfig(0.1), np.random.default_rng(0),
        )
        noisy_actions, noisy_rewards = [], []
        for a, r in zip(base_actions, rewards):
            noisy_actions.extend([0.9, a, 0.05])
            noisy_rewards.extend([-9.0, r, -9.0])
        policy_b = ConstantPolicy(UNIT, 0.5)
        trace_b = replay_cab(
            policy_b, make_stream(noisy_actions, noisy_rewards),
            ReplayConfig(0.1), np.random.default_rng(0),
        )
        assert trace_a.proposals == trace_b.proposals
        assert trace_a.rewards == trace_b.rewards

    def test_uniform_policy_matches_propensity_weighted_mean(self):
        # A uniform proposer accepts a logged action a with probability
        # w(a) = min(a + delta, 1) - max(a - delta, 0), so the accepted
        # rewards estimate the w-weighted logged mean (interior events are
        # easier to match than boundary ones).
        delta = 0.1
        accepted, w_sum, wr_sum = [], 0.0, 0.0
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            stream = generate_logged_stream(
                ParabolaModel(peak=0.5, scale=1.0, noise_var=0.01, range=UNIT),
                200, rng,
            )
            trace = replay_cab(
                UniformRandomPolicy(UNIT), stream, ReplayConfig(delta), rng
            )
            accepted.extend(trace.rewards)
            w = np.minimum(stream.actions + delta, 1.0) - np.maximum(
                stream.actions - delta, 0.0
            )
            w_sum += np.sum(w)
            wr_sum += np.sum(w * stream.rewards)
        assert np.mean(accepted) == pytest.approx(wr_sum / w_sum, abs=0.003)

    def test_accepted_count_monotone_in_delta(self):
        means = []
        for delta in (0.02, 0.05, 0.1, 0.2, 0.4):
            counts = []
            for seed in range(200):
                rng = np.random.default_rng(seed)
                stream = generate_logged_stream(PARABOLA, 200, rng)
                trace = replay_cab(
                    ConstantPolicy(UNIT, 0.5), stream, ReplayConfig(delta), rng
                )
                counts.append(trace.T)
            means.append(np.mean(counts))
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_trace_internal_consistency(self):
        rng = np.random.default_rng(11)
        stream = generate_logged_stream(PARABOLA, 1000, rng)
        trace = replay_cab(UniformRandomPolicy(UNIT), stream, ReplayConfig(0.1), rng)
        assert trace.T == len(trace.stream_indices) == len(trace.proposals)
        assert trace.R_c == sum(trace.rewards)
        assert trace.stream_indices == sorted(set(trace.stream_indices))


class TestReplayKernel:
    """``replay_cab`` against the per-event reference loop, compared with ==."""

    @pytest.mark.parametrize("block", [256, policies.REPLAY_BLOCK])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("surface", [make_parabola, make_bimodal])
    @pytest.mark.parametrize("name", sorted(POLICY_MAKERS))
    def test_matches_reference_loop(self, name, surface, seed, block, monkeypatch):
        monkeypatch.setattr(policies, "REPLAY_BLOCK", block)
        rng = np.random.default_rng(seed)
        stream = generate_logged_stream(surface(rng, UNIT, 0.01), 5000, rng)
        for delta in (0.01, 0.05, 0.1, 0.2, 1.0):
            assert_same_replay(POLICY_MAKERS[name], stream, delta, seed=[seed, 7])

    def test_every_policy_has_its_own_hook(self):
        for make in POLICY_MAKERS.values():
            assert type(make(UNIT)).replay is not Policy.replay

    # An unclamped TBL vertex may leave the range, so not every event matches.
    @pytest.mark.parametrize("name", sorted(set(POLICY_MAKERS) - {"TBL-unclamped"}))
    def test_delta_covering_range_warns_and_accepts_all(self, name):
        stream = generate_logged_stream(PARABOLA, 300, np.random.default_rng(4))
        with pytest.warns(UserWarning, match="every in-range event"):
            trace = replay_cab(
                POLICY_MAKERS[name](UNIT), stream, ReplayConfig(1.0),
                np.random.default_rng(5),
            )
        assert trace.stream_indices == list(range(len(stream)))
        assert_same_replay(POLICY_MAKERS[name], stream, 1.0)

    def test_strict_inequality_at_exact_boundary_uniform(self):
        # Logged actions placed exactly delta from UR's draws are rejected.
        delta = 0.25
        draws = np.random.default_rng(99).uniform(0.0, 1.0, 400)
        actions = np.where(np.arange(400) % 2 == 0, draws + delta, draws + 0.01)
        on_edge = np.abs(actions - draws) == delta
        assert on_edge.sum() > 100
        stream = LoggedStream(actions=actions, rewards=np.arange(400.0), range=UNIT)
        trace = assert_same_replay(POLICY_MAKERS["UR"], stream, delta)
        assert not set(np.flatnonzero(on_edge).tolist()) & set(trace.stream_indices)
        assert trace.T == (~on_edge & (np.abs(actions - draws) < delta)).sum()

    def test_strict_inequality_at_exact_boundary_fixed(self):
        # 0.5 - 0.25 and 0.75 - 0.5 are exact in binary, so those events
        # lie exactly delta from a proposal of 0.5 and are rejected.
        actions = np.array([0.25, 0.75, 0.6, 0.5] * 100)
        stream = LoggedStream(actions=actions, rewards=np.arange(400.0), range=UNIT)
        trace = assert_same_replay(lambda space: ConstantPolicy(space, 0.5), stream, 0.25)
        assert trace.stream_indices == [i for i in range(400) if i % 4 in (2, 3)]

    @pytest.mark.parametrize("name", sorted(POLICY_MAKERS))
    def test_out_of_range_logged_actions(self, name):
        rng = np.random.default_rng(8)
        actions = rng.uniform(-0.5, 1.5, 3000)
        stream = LoggedStream(actions=actions, rewards=rng.normal(size=3000), range=UNIT)
        for delta in (0.05, 0.2):
            assert_same_replay(POLICY_MAKERS[name], stream, delta)

    def test_unclamped_vertex_leaves_range(self):
        rng = np.random.default_rng(9)
        stream = LoggedStream(
            actions=rng.uniform(-2.0, 3.0, 3000), rewards=rng.normal(size=3000),
            range=UNIT,
        )
        trace = assert_same_replay(POLICY_MAKERS["TBL-unclamped"], stream, 0.1)
        assert min(trace.proposals) < 0.0 or max(trace.proposals) > 1.0

    def test_fit_error_raised_at_same_event(self):
        # On a 0.001-wide range the three explored actions give a normal
        # matrix too ill-conditioned to fit. Rewards are the event indices,
        # so the history names the event at which the fit raised.
        narrow = ActionRange(0.0, 0.001)
        rng = np.random.default_rng(10)
        stream = LoggedStream(
            actions=rng.uniform(0.0, 0.001, 500), rewards=np.arange(500.0),
            range=narrow,
        )
        raised = []
        for replay in (replay_cab, reference_replay_cab):
            policy = EpsilonFirstPolicy(narrow, explore_steps=3)
            proposal_rng = np.random.default_rng(11)
            with pytest.raises(RankDeficiencyError):
                replay(policy, stream, ReplayConfig(0.0002), proposal_rng)
            raised.append((policy_state(policy), proposal_rng.bit_generator.state))
        assert raised[0] == raised[1]
        history = raised[0][0]["history"]
        assert len(history) == 3 and history[-1][1] > 3

    @pytest.mark.parametrize("name", sorted(POLICY_MAKERS))
    def test_log_with_no_accepts(self, name):
        stream = make_stream(np.full(5000, 1e9), np.ones(5000))
        trace = assert_same_replay(POLICY_MAKERS[name], stream, 0.1)
        assert trace.T == 0


class TestOnlineKernel:
    """``simulate_online`` against the per-step reference loop, compared with ==."""

    @pytest.mark.parametrize("block", [256, policies.REPLAY_BLOCK])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("noise", [0.0, 0.01])
    @pytest.mark.parametrize("surface", [make_parabola, make_bimodal])
    @pytest.mark.parametrize("name", sorted(POLICY_MAKERS))
    def test_matches_reference_loop(self, name, surface, noise, seed, block, monkeypatch):
        monkeypatch.setattr(policies, "REPLAY_BLOCK", block)
        model = surface(np.random.default_rng(seed), UNIT, noise)
        for horizon in (1, 257, 4097):
            assert_same_online(POLICY_MAKERS[name], model, horizon, seed)

    def test_policy_without_hook_runs_base_loop(self):
        assert BaseLoopPolicy.replay is Policy.replay
        model = make_bimodal(np.random.default_rng(12), UNIT, 0.01)
        assert_same_online(BaseLoopPolicy, model, 500)

    def test_non_finite_proposal_raises(self):
        with pytest.raises(ValueError, match="7 of 10 online proposals not finite"):
            simulate_online(
                NanAfterThree(UNIT), PARABOLA, 10,
                np.random.default_rng(0), np.random.default_rng(1),
            )


class TestSizing:
    def test_acceptance_probability_formula(self):
        assert acceptance_probability(0.1, UNIT) == pytest.approx(0.2)

    def test_acceptance_probability_capped(self):
        assert acceptance_probability(0.5, UNIT) == 1.0
        assert acceptance_probability(0.7, UNIT) == 1.0

    def test_boundary_proposal_halves_acceptance(self):
        counts = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            stream = generate_logged_stream(PARABOLA, 1000, rng)
            trace = replay_cab(
                ConstantPolicy(UNIT, 0.0), stream, ReplayConfig(0.1), rng
            )
            counts.append(trace.T / 1000)
        assert np.mean(counts) == pytest.approx(0.1, abs=0.005)

    def test_required_log_length(self):
        assert required_log_length(500, 0.1, UNIT) == 2500

    def test_field_study_cross_check(self):
        # L = 2448 at delta 0.1 should yield about 500 accepted events.
        expected_T = acceptance_probability(0.1, UNIT) * 2448
        assert expected_T == pytest.approx(489.6)
        assert required_log_length(490, 0.1, UNIT) == 2450

    def test_required_log_length_never_below_t_prime(self):
        # At 2*delta >= width the capped acceptance rate is 1.
        assert required_log_length(500, 0.5, UNIT) == 500
        assert required_log_length(500, 0.6, UNIT) == 500
        assert required_log_length(500, math.inf, UNIT) == 500

    @pytest.mark.parametrize("t_prime, delta", [(0, 0.1), (500, 0.0), (500, -1.0), (500, math.nan)])
    def test_required_log_length_rejects_bad_input(self, t_prime, delta):
        with pytest.raises(ValueError, match="must be positive"):
            required_log_length(t_prime, delta, UNIT)

    def test_round_trip_with_exact_divisibility(self):
        L = 4000
        expected_T = int(acceptance_probability(0.1, UNIT) * L)
        assert required_log_length(expected_T, 0.1, UNIT) == L


class TestStreamFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(21)
        model = ParabolaModel(peak=0.5, scale=1.0, noise_var=0.01, range=UNIT)
        stream = generate_logged_stream(model, 300, rng)
        path = tmp_path / "stream.csv"
        save_stream(stream, path)
        loaded = load_stream(path, UNIT)
        assert np.array_equal(loaded.actions, stream.actions)
        assert np.array_equal(loaded.rewards, stream.rewards)

    def test_header_only_is_empty_stream_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("index,action,reward\n")
        with pytest.raises(StreamFormatError):
            load_stream(path, UNIT)

    def test_bad_reward_names_the_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,action,reward\n0,0.5,1.0\n1,0.4,oops\n")
        with pytest.raises(StreamFormatError, match=":3"):
            load_stream(path, UNIT)

    def test_non_monotone_index_rejected(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("index,action,reward\n0,0.5,1.0\n0,0.4,1.0\n")
        with pytest.raises(StreamFormatError, match="strictly increasing"):
            load_stream(path, UNIT)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n0,0.5,1.0\n")
        with pytest.raises(StreamFormatError, match="header"):
            load_stream(path, UNIT)

    def test_out_of_range_action_warns_not_errors(self, tmp_path):
        path = tmp_path / "dirty.csv"
        path.write_text("index,action,reward\n0,1.5,1.0\n1,0.4,0.5\n")
        with pytest.warns(UserWarning, match="outside"):
            loaded = load_stream(path, UNIT)
        assert len(loaded) == 2
