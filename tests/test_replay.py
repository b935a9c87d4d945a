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
    NotPositiveDefiniteError,
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
    indices, proposals, accepted = [], [], []
    actions = stream.actions.tolist()
    rewards = stream.rewards.tolist()
    for i, a in enumerate(actions):
        proposal = policy.propose(rng)
        if abs(a - proposal) < delta:
            policy.update(proposal, rewards[i])
            indices.append(i)
            proposals.append(proposal)
            accepted.append(rewards[i])
    return Trace(indices, proposals, accepted)


def reference_replay_discrete(policy, stream, rng):
    """The per-event exact-match loop ``replay_discrete`` must reproduce."""
    indices, proposals, accepted = [], [], []
    for i, (a, r) in enumerate(zip(stream.actions.tolist(), stream.rewards.tolist())):
        proposal = policy.propose(rng)
        if proposal == a:
            policy.update(a, r)
            indices.append(i)
            proposals.append(proposal)
            accepted.append(r)
    return Trace(indices, proposals, accepted)


def reference_simulate_online(policy, model, horizon, proposal_rng, reward_rng):
    """The per-step loop ``simulate_online`` must reproduce: one ``propose``,
    ``sample`` and ``update`` per step."""
    actions, rewards = [], []
    for _ in range(horizon):
        action = policy.propose(proposal_rng)
        reward = float(model.sample(action, reward_rng))
        policy.update(action, reward)
        actions.append(action)
        rewards.append(reward)
    return Trace(list(range(horizon)), actions, rewards)


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
    # With sigma2 = 1, x / 1.0 == x would hide an update a hook makes inline
    # in another association than ``update``.
    "TBL-sigma2-prior": lambda space: ThompsonQuadraticPolicy(
        space, sigma2=0.7, P=[[2.0, 0.3, -0.2], [0.3, 2.5, 0.4], [-0.2, 0.4, 5.0]]
    ),
    "LiF": lambda space: LockInFeedbackPolicy(space, a0=0.3),
    # Windows close every third accept. At gamma = 0.9 the noise walks the
    # centre off some bimodal surfaces, whose quartic then drives it to inf.
    "LiF-short-window": lambda space: LockInFeedbackPolicy(
        space, a0=0.3, window=3, omega=0.7, gamma=0.5, amplitude=0.2
    ),
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


class RowsRng:
    """Hands out fixed rows of normals in order: one row per draw of three,
    k rows per (k, 3) block."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)
        self.used = 0

    def standard_normal(self, size):
        n = math.prod(np.atleast_1d(size)) // 3
        self.used += n
        return self.rows[self.used - n : self.used].reshape(size)


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


class TestLoggedStream:
    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            LoggedStream(np.zeros(3), np.zeros(2), UNIT)

    def test_no_events_rejected(self):
        with pytest.raises(StreamFormatError, match="at least one event"):
            LoggedStream(np.zeros(0), np.zeros(0), UNIT)


class TestReplayDiscrete:
    def test_three_arm_example(self):
        stream = make_stream([1, 2, 1], [1.0, 0.0, 1.0])
        trace = replay_discrete(ConstantPolicy(UNIT, 1.0), stream)
        assert trace.T == 2
        assert sum(trace.rewards) == 2.0
        assert trace.stream_indices == [0, 2]

    def test_unmatched_arm_accepts_nothing(self):
        stream = make_stream([1, 2, 1], [1.0, 0.0, 1.0])
        trace = replay_discrete(ConstantPolicy(UNIT, 3.0), stream)
        assert trace.T == 0
        assert sum(trace.rewards) == 0.0

    def test_expected_count_quarter_of_stream(self):
        rng = np.random.default_rng(5)
        arms = rng.integers(0, 4, size=10_000).astype(float)
        stream = make_stream(arms, np.ones(10_000))
        trace = replay_discrete(ConstantPolicy(UNIT, 2.0), stream)
        # Binomial(10000, 1/4): sd around 43.3.
        assert abs(trace.T - 2500) < 5 * 43.3

    def test_neighbouring_floats_rejected(self):
        stream = make_stream(
            [0.5, math.nextafter(0.5, 1.0), math.nextafter(0.5, 0.0), 0.5, 5e-324], np.ones(5)
        )
        trace = replay_discrete(ConstantPolicy(UNIT, 0.5), stream)
        assert trace.stream_indices == [0, 3]

    def test_signed_zeros_match(self):
        # 5e-324 is the tolerance itself, so the strict test rejects it.
        stream = make_stream([0.0, -0.0, 5e-324, -5e-324], np.ones(4))
        trace = replay_discrete(ConstantPolicy(UNIT, 0.0), stream)
        assert trace.stream_indices == [0, 1]

    @pytest.mark.parametrize("arms", [None, 4], ids=["continuous", "4-arm"])
    @pytest.mark.parametrize("name", ["UR", "EF", "TBL", "LiF"])
    def test_matches_exact_match_loop(self, name, arms):
        # Every other continuous action is the draw a uniform proposer makes
        # there, so UR and exploring EF match it; TBL's proposals clamped to
        # a bound match the 4-arm stream's end arms.
        rng = np.random.default_rng(20)
        stream = generate_logged_stream(make_parabola(rng, UNIT, 0.01), 3000, rng)
        if arms is None:
            actions = stream.actions.copy()
            actions[::2] = np.random.default_rng(21).uniform(0.0, 1.0, 3000)[::2]
        else:
            actions = rng.integers(0, arms, 3000) / (arms - 1)
        stream = LoggedStream(actions=actions, rewards=stream.rewards, range=UNIT)
        outcomes = []
        for replay in (replay_discrete, reference_replay_discrete):
            policy, proposal_rng = POLICY_MAKERS[name](UNIT), np.random.default_rng(21)
            trace = replay(policy, stream, proposal_rng)
            outcomes.append((trace, policy_state(policy), proposal_rng.bit_generator.state))
        assert outcomes[0] == outcomes[1]
        if (name, arms) in {("UR", None), ("EF", None), ("TBL", 4)}:
            assert outcomes[0][0].T > 0


class TestReplayCab:
    def test_accept_within_tolerance(self):
        stream = make_stream([0.45], [1.0])
        policy = ConstantPolicy(UNIT, 0.5)
        trace = replay_cab(policy, stream, ReplayConfig(0.1), np.random.default_rng(0))
        assert trace.T == 1
        assert sum(trace.rewards) == 1.0
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

    # With J = 0 and P = I the draw (z0, z1, z2) gives b1 = z1 and b2 = z2
    # exactly. On [0.25, 1.5], b2 = -0.5 puts the vertex at b1, and
    # b1 = -1.75 b2 makes the two ends tie.
    @pytest.mark.parametrize("clamp", [True, False], ids=["clamped", "unclamped"])
    @pytest.mark.parametrize(
        "z1, z2, clamped, unclamped",
        [
            (0.0, 0.0, 0.25, 0.25),  # b1 = b2 = 0: a tie, which goes to lo
            (0.25, -0.5, 0.25, 0.25),  # vertex exactly at lo
            (1.5, -0.5, 1.5, 1.5),  # vertex exactly at hi
            (3.0, -0.5, 1.5, 3.0),  # vertex beyond hi
            (-1.75, 1.0, 0.25, 0.25),  # b2 > 0, ends tie
            (1.0, 0.5, 1.5, 1.5),  # b2 > 0, hi better
            (1.0, 0.0, 1.5, 1.5),  # b2 = 0, hi better
        ],
    )
    def test_tbl_crafted_draws(self, z1, z2, clamped, unclamped, clamp):
        space = ActionRange(0.25, 1.5)
        actions = np.array([1e9, 1e9, 0.0])  # two rejects, then an accept
        outcomes = []
        for replay in (ThompsonQuadraticPolicy.replay, Policy.replay):
            policy = ThompsonQuadraticPolicy(
                space, J=[0.0, 0.0, 0.0], P=np.eye(3), clamp_vertex=clamp
            )
            rng = RowsRng([[9.0, z1, z2]] * 3)
            got = replay(policy, actions, lambda i, p: 0.5, 1e6, rng)
            outcomes.append((got, policy_state(policy), rng.used))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == ([2], [clamped if clamp else unclamped])

    @pytest.mark.parametrize("name", sorted(POLICY_MAKERS))
    def test_reward_asked_only_where_update_reads_it(self, name):
        # UR's and Constant's updates only advance t, and EF's reads the
        # reward only while it explores; TBL and LiF read every accept's.
        stream = generate_logged_stream(PARABOLA, 3000, np.random.default_rng(14))
        rewards, asked = stream.rewards.tolist(), []

        def reward(i, proposal):
            asked.append(i)
            return rewards[i]

        policy = POLICY_MAKERS[name](UNIT)
        indices, _ = policy.replay(stream.actions, reward, 0.1, np.random.default_rng(15))
        assert len(indices) > 100
        if name in ("UR", "Constant"):
            assert asked == []
        elif name == "EF":
            assert asked == indices[: policy.explore_steps]
        else:
            assert asked == indices

    @pytest.mark.parametrize("k", [1, 7, 60])
    @pytest.mark.parametrize("name", sorted(POLICY_MAKERS))
    def test_reward_error_leaves_reference_state(self, name, k):
        # A reward function that raises at its k-th call leaves the policy
        # as the per-event loop leaves it: advanced by k - 1 accepts. UR and
        # Constant ask for no reward, and EF only for its 50 exploring
        # accepts; a hook that makes no k-th call completes as
        # ``Policy.replay`` does with a plain reward.
        stream = generate_logged_stream(
            make_parabola(np.random.default_rng(13), UNIT, 0.01), 3000,
            np.random.default_rng(14),
        )
        rewards = stream.rewards.tolist()

        def run(replay, raise_at):
            policy, rng, seen = POLICY_MAKERS[name](UNIT), np.random.default_rng(15), []

            def reward(i, proposal):
                seen.append(i)
                if len(seen) == raise_at:
                    raise KeyError(i)
                return rewards[i]

            try:
                got = replay(policy, stream.actions, reward, 0.5, rng)
            except KeyError:
                got = KeyError
            return got, seen, policy_state(policy), rng.bit_generator.state

        got, seen, state, rng_state = run(type(POLICY_MAKERS[name](UNIT)).replay, k)
        if k <= {"UR": 0, "Constant": 0, "EF": 50}.get(name, math.inf):
            ref_got, ref_seen, ref_state, _ = run(Policy.replay, k)
            assert got is ref_got is KeyError
            assert (seen, state) == (ref_seen, ref_state)
            assert state["t"] == k - 1
        else:
            ref_got, _, ref_state, ref_rng_state = run(Policy.replay, None)
            assert got is not KeyError and len(seen) < k
            assert (got, state, rng_state) == (ref_got, ref_state, ref_rng_state)

    @pytest.mark.parametrize("name", sorted(POLICY_MAKERS))
    def test_log_with_no_accepts(self, name):
        stream = make_stream(np.full(5000, 1e9), np.ones(5000))
        trace = assert_same_replay(POLICY_MAKERS[name], stream, 0.1)
        assert trace.T == 0


def tbl_hook_and_loop(make, actions, delta, make_rng):
    """Replay fresh copies of one TBL policy with its hook and with
    ``Policy.replay``; return, for each, the result or the type of the
    exception raised, the policy state and the generator."""
    outcomes = []
    for replay in (ThompsonQuadraticPolicy.replay, Policy.replay):
        policy, rng = make(), make_rng()
        try:
            got = replay(policy, np.asarray(actions, dtype=float), lambda i, p: 0.5, delta, rng)
        except NotPositiveDefiniteError as exc:
            got = type(exc)
        outcomes.append((got, policy_state(policy), rng))
    return outcomes


class TestTblHookFactors:
    """The factor paths TBL's hook runs inline, against ``Policy.replay``."""

    # With J = 0, a diagonal P and zero draws, every proposal is the tie at
    # lo = 0.0. An accept there adds 1/sigma2 to P's p00 alone, so the zero
    # pivot stays (or, at sigma2 = -1, p00 drops to 0) and the refactor
    # after it needs the 1e-10 retry.
    @pytest.mark.parametrize(
        "P, sigma2",
        [(np.diag([1.0, 1.0, 0.0]), 1.0), (np.diag([1.0, 0.0, 1.0]), 1.0), (np.eye(3), -1.0)],
        ids=["pivot2", "pivot1", "pivot0"],
    )
    def test_zero_pivot_retried_after_accept(self, P, sigma2):
        def make():
            policy = ThompsonQuadraticPolicy(UNIT, J=[0.0, 0.0, 0.0], P=P)
            policy.sigma2 = sigma2
            return policy

        hook, loop = tbl_hook_and_loop(
            make, [0.0, 1.0, 1.0], 0.5, lambda: RowsRng([[9.0, 0.0, 0.0]] * 3)
        )
        assert hook[:2] == loop[:2]
        assert hook[0] == ([0], [0.0])
        pj = hook[1]["_pj"]
        assert 0.0 in (pj[0], pj[3], pj[5])

    def test_posterior_stops_being_positive_definite(self):
        # A negative weight subtracts f*f' at each accept, as in
        # test_non_pd_precision_raises_at_draw: the first accept, at hi = 1,
        # leaves a second pivot of 0, and the retry then a negative third.
        def make():
            policy = ThompsonQuadraticPolicy(UNIT)
            policy.sigma2 = -1.0
            return policy

        hook, loop = tbl_hook_and_loop(
            make, np.zeros(50), math.inf, lambda: np.random.default_rng(0)
        )
        assert hook[:2] == loop[:2]
        assert hook[0] is NotPositiveDefiniteError
        assert hook[1]["t"] == 1

    @pytest.mark.parametrize(
        "actions, updated",
        [
            ([0.0, 0.0, 0.0], False),
            ([0.0, 0.0, 1e9], False),
            ([], False),
            ([], True),
        ],
        ids=["last-accepted", "last-rejected", "empty", "empty-after-update"],
    )
    def test_factors_at_end(self, actions, updated):
        def make():
            policy = POLICY_MAKERS["TBL-sigma2-prior"](UNIT)
            if updated:
                policy.update(0.3, 1.0)
            return policy

        hook, loop = tbl_hook_and_loop(make, actions, 1e6, lambda: np.random.default_rng(21))
        assert hook[:2] == loop[:2]
        assert hook[2].bit_generator.state == loop[2].bit_generator.state


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

    def test_noisy_run_draws_horizon_normals(self):
        model = make_bimodal(np.random.default_rng(3), UNIT, 0.01)
        reward_rng, fresh = np.random.default_rng(4), np.random.default_rng(4)
        simulate_online(UniformRandomPolicy(UNIT), model, 300, np.random.default_rng(5), reward_rng)
        fresh.normal(size=300)
        assert reward_rng.bit_generator.state == fresh.bit_generator.state

    def test_noise_free_run_leaves_reward_rng_untouched(self):
        reward_rng = np.random.default_rng(4)
        before = reward_rng.bit_generator.state
        simulate_online(UniformRandomPolicy(UNIT), PARABOLA, 300, np.random.default_rng(5), reward_rng)
        assert reward_rng.bit_generator.state == before

    def test_constant_rewards_are_mean_plus_noise_block(self):
        model = ParabolaModel(peak=0.5, scale=1.0, noise_var=0.03, range=UNIT)
        trace = simulate_online(
            ConstantPolicy(UNIT, 0.3), model, 500, np.random.default_rng(5), np.random.default_rng(4)
        )
        noise = np.random.default_rng(4).normal(0.0, math.sqrt(model.noise_var), 500)
        assert trace.rewards == (model.mean(0.3) + noise).tolist()

    def test_non_finite_proposal_raises(self):
        with pytest.raises(ValueError, match="7 of 10 online proposals not finite"):
            simulate_online(
                NanAfterThree(UNIT), PARABOLA, 10,
                np.random.default_rng(0), np.random.default_rng(1),
            )


class TestSizing:
    def test_acceptance_probability_formula(self):
        assert acceptance_probability(0.1, UNIT) == pytest.approx(0.2)

    @pytest.mark.parametrize("delta", [0.0, -0.1, math.nan])
    def test_non_positive_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            ReplayConfig(delta)
        with pytest.raises(ValueError, match="delta must be positive"):
            acceptance_probability(delta, UNIT)

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

    @pytest.mark.parametrize(
        "t_prime, delta", [(500, 1e-320), (10**400, 0.1)], ids=["tiny-delta", "huge-t-prime"]
    )
    def test_required_log_length_overflow_rejected(self, t_prime, delta):
        with pytest.raises(ValueError, match="overflows"):
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

    @pytest.mark.parametrize(
        "body, match",
        [
            ("", "empty file"),
            ("index,action,reward\n0,0.5\n", ":2: expected 3 fields, got 2"),
            ("index,action,reward\n0,nan,1.0\n", ":2: non-finite value"),
        ],
        ids=["no-header", "two-fields", "nan"],
    )
    def test_malformed_file_names_the_fault(self, tmp_path, body, match):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(StreamFormatError, match=match):
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
