import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabeval.metrics import (
    AGGREGATE_BLOCK_VALUES,
    RunAggregate,
    aggregate_runs,
    cumulative_regret,
    cumulative_reward,
    rank_at,
)
from cabeval.policies import UniformRandomPolicy
from cabeval.replay import LoggedStream, ReplayConfig, Trace, replay_cab
from cabeval.rewards import ActionRange, ParabolaModel

UNIT = ActionRange(0.0, 1.0)
PARABOLA = ParabolaModel(peak=0.5, scale=1.0, noise_var=0.0, range=UNIT)


def make_trace(proposals, rewards):
    trace = Trace()
    for i, (p, r) in enumerate(zip(proposals, rewards)):
        trace.append(i, p, r)
    return trace


class TestCumulativeCurves:
    def test_regret_hand_computed(self):
        # Gaps to the peak at 0.5: 0.04, 0.0, 0.09.
        trace = make_trace([0.3, 0.5, 0.2], [0.0, 0.0, 0.0])
        out = cumulative_regret(trace, PARABOLA)
        assert out == pytest.approx([0.04, 0.04, 0.13])

    def test_regret_ignores_recorded_rewards_by_default(self):
        trace = make_trace([0.5, 0.5], [123.0, -7.0])
        assert cumulative_regret(trace, PARABOLA) == pytest.approx([0.0, 0.0])

    def test_realized_regret_uses_recorded_rewards(self):
        trace = make_trace([0.5, 0.5], [-0.1, 0.2])
        out = cumulative_regret(trace, PARABOLA, realized=True)
        assert out == pytest.approx([0.1, -0.1])

    def test_reward_running_sum(self):
        trace = make_trace([0.1, 0.2, 0.3], [1.0, -0.5, 2.0])
        out = cumulative_reward(trace)
        assert out == pytest.approx([1.0, 0.5, 2.5])
        assert out[-1] == trace.R_c

    def test_empty_trace_gives_empty_curves(self):
        trace = Trace()
        assert len(cumulative_regret(trace, PARABOLA)) == 0
        assert len(cumulative_reward(trace)) == 0

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_regret_non_negative_and_non_decreasing(self, proposals):
        trace = make_trace(proposals, [0.0] * len(proposals))
        out = cumulative_regret(trace, PARABOLA)
        assert np.all(out >= -1e-12)
        assert np.all(np.diff(out) >= -1e-12)

    def test_replayed_trace_regret_length_matches_T(self):
        rng = np.random.default_rng(0)
        actions = rng.uniform(0, 1, 500)
        stream = LoggedStream(
            actions=actions, rewards=PARABOLA.mean(actions), range=UNIT
        )
        trace = replay_cab(UniformRandomPolicy(UNIT), stream, ReplayConfig(0.1), rng)
        assert len(cumulative_regret(trace, PARABOLA)) == trace.T


def reference_aggregate_runs(curves) -> RunAggregate:
    """The whole-matrix aggregation that ``aggregate_runs`` computes one
    block of steps at a time: every curve NaN-padded into one
    repetitions x steps matrix."""
    curves = [np.asarray(c, dtype=float) for c in curves]
    max_len = max(map(len, curves), default=0)
    mat = np.full((len(curves), max_len), np.nan)
    for i, c in enumerate(curves):
        mat[i, : len(c)] = c
    n = np.sum(~np.isnan(mat), axis=0)
    mean = np.nanmean(mat, axis=0)
    sd = np.full(max_len, np.nan)
    enough = n >= 2
    if np.any(enough):
        sd[enough] = np.nanstd(mat[:, enough], axis=0, ddof=1)
    se = sd / np.sqrt(n)
    return RunAggregate(mean=mean, se=se, n=n, run_count=len(curves))


def assert_same_bits(got: RunAggregate, expected: RunAggregate):
    assert got.run_count == expected.run_count
    for name in ("mean", "se", "n"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class TestAggregateRuns:
    def test_equal_length_hand_computed(self):
        agg = aggregate_runs([[1.0, 2.0], [3.0, 6.0]])
        assert agg.mean == pytest.approx([2.0, 4.0])
        # sd = sqrt(2)*|diff|/2... with ddof=1: sd of {1,3} is sqrt(2).
        assert agg.se == pytest.approx([1.0, 2.0])
        assert agg.n.tolist() == [2, 2]
        assert agg.run_count == 2

    def test_ragged_lengths_survivor_counts(self):
        agg = aggregate_runs([[1.0, 2.0, 3.0], [5.0], [3.0, 4.0]])
        assert agg.n.tolist() == [3, 2, 1]
        assert agg.mean == pytest.approx([3.0, 3.0, 3.0])
        assert np.isnan(agg.se[2])  # single survivor: se undefined
        assert not np.isnan(agg.se[1])

    def test_single_run_all_se_nan(self):
        agg = aggregate_runs([[1.0, 2.0]])
        assert np.all(np.isnan(agg.se))
        assert agg.mean == pytest.approx([1.0, 2.0])

    def test_empty_curves_allowed_among_runs(self):
        agg = aggregate_runs([[], [1.0]])
        assert agg.n.tolist() == [1]
        assert agg.run_count == 2

    @pytest.mark.parametrize("curves", [[], [[], []]], ids=["none", "all-empty"])
    def test_no_curves_give_empty_aggregate(self, curves):
        agg = aggregate_runs(curves)
        assert agg.mean.size == agg.se.size == agg.n.size == 0
        assert agg.n.dtype.kind == "i"
        assert agg.run_count == len(curves)

    @pytest.mark.parametrize("ragged", [False, True], ids=["equal", "ragged"])
    @pytest.mark.parametrize("offset", ["0", "1", "w-1", "w", "w+1", "3w+5"])
    @pytest.mark.parametrize("repetitions", [1, 2, 8, 9, 33, 300])
    def test_blocks_match_whole_matrix_bit_for_bit(self, repetitions, offset, ragged):
        # numpy sums a one-column matrix pairwise and a wider one row by row,
        # so a length of one block plus one step is the case to watch.
        w = AGGREGATE_BLOCK_VALUES // repetitions
        length = {"0": 0, "1": 1, "w-1": w - 1, "w": w, "w+1": w + 1, "3w+5": 3 * w + 5}
        longest = length[offset]
        rng = np.random.default_rng(repetitions * 1000 + longest)
        lengths = np.full(repetitions, longest)
        if ragged:
            lengths[1:] = rng.integers(0, longest + 1, repetitions - 1)
        curves = [np.cumsum(rng.standard_normal(k)) for k in lengths]
        assert_same_bits(aggregate_runs(curves), reference_aggregate_runs(curves))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("repetitions", [3, 9, 40])
    def test_signed_zeros_and_infinities_match_whole_matrix(self, repetitions):
        rng = np.random.default_rng(repetitions)
        values = np.array([-0.0, 0.0, np.inf, -np.inf, 5e-324, 1e16, 1e-05])
        w = AGGREGATE_BLOCK_VALUES // repetitions
        curves = [
            rng.choice(values[:2] if i % 2 else values, rng.integers(0, 2 * w + 3))
            for i in range(repetitions)
        ]
        assert_same_bits(aggregate_runs(curves), reference_aggregate_runs(curves))

    @pytest.mark.parametrize("repetitions, steps", [(100, 10_000), (1_000, 2_500)])
    def test_peak_memory_does_not_grow_with_repetitions(self, repetitions, steps):
        # The whole matrix peaks at about 25 MB and 62 MB here: three and a
        # half times the curves' own bytes.
        rng = np.random.default_rng(repetitions)
        curves = [np.cumsum(rng.random(steps - i % 50)) for i in range(repetitions)]
        tracemalloc.start()
        try:
            aggregate_runs(curves)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_standard_normal_sampling_distribution(self):
        rng = np.random.default_rng(2024)
        curves = [[float(x)] for x in rng.standard_normal(1000)]
        agg = aggregate_runs(curves)
        assert abs(agg.mean[0]) < 0.1
        # se estimates 1/sqrt(1000) ~ 0.0316.
        assert 0.029 < agg.se[0] < 0.034


def tight_agg(value, se=0.001, n=10, length=5):
    mean = np.full(length, value)
    return RunAggregate(
        mean=mean,
        se=np.full(length, se),
        n=np.full(length, n, dtype=int),
        run_count=n,
    )


class TestRankAt:
    def test_regret_ranks_ascending(self):
        table = rank_at({"a": tight_agg(3.0), "b": tight_agg(1.0)}, 5, "regret")
        assert [e.policy for e in table.entries] == ["b", "a"]
        assert [e.rank for e in table.entries] == [1, 2]
        assert [e.tie_group for e in table.entries] == [0, 1]

    def test_reward_ranks_descending(self):
        table = rank_at({"a": tight_agg(3.0), "b": tight_agg(1.0)}, 5, "reward")
        assert [e.policy for e in table.entries] == ["a", "b"]

    def test_overlapping_bands_share_tie_group(self):
        aggs = {
            "a": tight_agg(1.0, se=0.5),
            "b": tight_agg(1.5, se=0.5),
            "c": tight_agg(9.0, se=0.5),
        }
        table = rank_at(aggs, 5, "regret")
        assert [(e.policy, e.tie_group) for e in table.entries] == [
            ("a", 0),
            ("b", 0),
            ("c", 1),
        ]

    def test_tie_groups_chain_transitively(self):
        aggs = {
            "a": tight_agg(1.0, se=0.3),
            "b": tight_agg(2.0, se=0.3),
            "c": tight_agg(3.0, se=0.3),
        }
        # a-b overlap and b-c overlap, so all three chain together even
        # though a and c alone would not.
        table = rank_at(aggs, 5, "regret")
        assert [(e.policy, e.tie_group) for e in table.entries] == [
            ("a", 0),
            ("b", 0),
            ("c", 0),
        ]

    def test_band_uses_95_multiplier(self):
        # Bands of half-width 1.96 * se = 1.96 meet when the means are at
        # most 3.92 apart.
        for gap, groups in ((3.91, [0, 0]), (3.93, [0, 1])):
            aggs = {"a": tight_agg(1.0, se=1.0), "b": tight_agg(1.0 + gap, se=1.0)}
            table = rank_at(aggs, 5)
            assert [e.tie_group for e in table.entries] == groups

    def test_short_or_thin_runs_reported_unavailable(self):
        short = tight_agg(1.0, length=3)
        thin = RunAggregate(
            mean=np.full(5, 2.0),
            se=np.full(5, np.nan),
            n=np.ones(5, dtype=int),
            run_count=1,
        )
        table = rank_at({"short": short, "thin": thin, "ok": tight_agg(5.0)}, 5)
        assert [e.policy for e in table.entries] == ["ok"]
        assert table.unavailable == ("short", "thin")
        rows = table.to_rows()
        assert rows[0] == ["policy", "metric_value", "rank", "tie_group"]
        assert ["short", "n/a", "n/a", "n/a"] in rows

    def test_constant_shift_leaves_order_invariant(self):
        base = {"a": tight_agg(1.0), "b": tight_agg(4.0), "c": tight_agg(2.5)}
        shifted = {
            k: RunAggregate(v.mean + 10.0, v.se, v.n, v.run_count)
            for k, v in base.items()
        }
        t1 = rank_at(base, 5)
        t2 = rank_at(shifted, 5)
        assert [e.policy for e in t1.entries] == [e.policy for e in t2.entries]
        assert [e.tie_group for e in t1.entries] == [e.tie_group for e in t2.entries]

    def test_bad_metric_and_t_eval_rejected(self):
        with pytest.raises(ValueError):
            rank_at({"a": tight_agg(1.0)}, 5, "winrate")
        with pytest.raises(ValueError):
            rank_at({"a": tight_agg(1.0)}, 0)
