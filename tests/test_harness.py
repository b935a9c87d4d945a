import concurrent.futures
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cabeval import harness
from cabeval.cli import main as cli_main
from cabeval.config import (
    ConfigError,
    ExperimentConfig,
    PolicySpec,
    make_policy,
    parse_config,
)
from cabeval.harness import (
    CSV_BLOCK_ROWS,
    ROLE_PROPOSAL,
    ROLE_STREAM,
    derive_rng,
    run_experiment,
    simulate_online,
)
from cabeval.metrics import RunAggregate, aggregate_runs
from cabeval.policies import (
    ConstantPolicy,
    EpsilonFirstPolicy,
    LockInFeedbackPolicy,
    ThompsonQuadraticPolicy,
    UniformRandomPolicy,
)
from cabeval.replay import save_stream, generate_logged_stream
from cabeval.rewards import ActionRange, ParabolaModel
from helpers import tbl_posterior

UNIT = ActionRange(0.0, 1.0)


def write_config(tmp_path, body, name="exp.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


ONLINE_SMALL = """\
[experiment]
mode = online
family = parabola
repetitions = 3
horizon = 60
master_seed = 7
t_eval = 30
out = {out}

[policy.EF]
explore_steps = 10
"""

OFFLINE_SMALL = """\
[experiment]
mode = offline
family = parabola
repetitions = 3
horizon = 200
deltas = 0.1, 0.2, 0.3, 0.4, 0.5
master_seed = 7
t_eval = 10
out = {out}

[policy.EF]
explore_steps = 3
"""

# LiF's centre walks off these bimodal surfaces, so its online run fails
# in repetitions 1, 3, 4, 5 and 7 at master seed 0.
LIF_FAILS = """\
[experiment]
mode = online
family = bimodal
repetitions = 8
horizon = 4097
master_seed = 0
out = {out}
policies = UR, LiF

[policy.LiF]
window = 3
omega = 0.7
gamma = 0.9
amplitude = 0.2
"""

# One bad value per line; each used to pass validation and then fail in
# every repetition, or run wrong with no error recorded.
BAD_POLICY_VALUES = [
    ("LiF", "gamma = abc"),
    ("LiF", "window = 0"),
    ("LiF", "gamma = nan"),
    ("LiF", "a0 = inf"),
    ("LiF", "amplitude = nan"),
    ("LiF", "omega = inf"),
    ("TBL", "j0 = 0.0, 0.05"),
    ("TBL", "j0 = 0, nan, 0"),
    ("TBL", "p0_diag = 1.0, 2.0"),
    ("TBL", "p0_diag = -1, 2, 5"),
    ("TBL", "p0_diag = inf, 2, 5"),
    ("TBL", "sigma2 = nan"),
]

# One bad [experiment] line each, added to an online parabola config.
# Each exits 2; the non-finite ones used to pass validation and then fail
# in every repetition or in the model draw.
BAD_EXPERIMENT_VALUES = [
    "mode = offline",  # no deltas
    "deltas = 0.1, abc",
    "deltas = nan",
    "deltas = inf",
    "noise_var = nan",
    "range_hi = inf",
    "range_lo = -1e308\nrange_hi = 1e308",  # its width overflowed in every repetition
    "t_eval = 10001",  # beyond the default horizon; every rank table was n/a
    "master_seed = -1",  # SeedSequence raised in every repetition
    "policies = UR, UR, EF",  # the manifest echoed three policies, the rank two
    "deltas = 0.1, 0.1000001",  # both wrote the artifacts named 0.1
    "deltas = 1e300",  # its seed key overflowed in every repetition
    "mode = bogus",
    "repetitions = 0",
    "horizon = 0",
    "t_eval = 0",
    "policies = ,",
    "realized_regret = maybe",
]


def tbl_prior(config):
    """(P, J) of the config's TBL policy, as lists."""
    (spec,) = [s for s in config.policies if s.name == "TBL"]
    P, J, _, _ = tbl_posterior(make_policy(spec, config.action_range, config.mode, None))
    return P.tolist(), J.tolist()


def bad_policy_config(tmp_path, policy, line):
    return write_config(
        tmp_path,
        f"[experiment]\nmode = online\nfamily = parabola\n\n[policy.{policy}]\n{line}\n",
    )


class TestParseConfig:
    def test_defaults_fill_in(self, tmp_path):
        path = write_config(
            tmp_path, "[experiment]\nmode = online\nfamily = parabola\n"
        )
        config = parse_config(path)
        assert config == ExperimentConfig(family="parabola")
        assert config.repetitions == 100
        assert config.horizon == 10_000
        assert config.t_eval == 1750
        assert config.noise_var == 0.01
        assert config.action_range == UNIT
        assert config.realized_regret is False
        assert tuple(s.kind for s in config.policies) == ("UR", "EF", "TBL", "LiF")

    def test_negative_delta_names_the_key(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiment]\nmode = offline\nfamily = parabola\ndeltas = 0.1, -0.1\n",
        )
        with pytest.raises(ConfigError, match="deltas"):
            parse_config(path)

    def test_unknown_key_fails_closed(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiment]\nmode = online\nfamily = parabola\ndeltaa = 0.1\n",
        )
        with pytest.raises(ConfigError, match="deltaa"):
            parse_config(path)

    def test_unknown_section_fails_closed(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiment]\nmode = online\nfamily = parabola\n\n[plots]\nstyle = x\n",
        )
        with pytest.raises(ConfigError, match="plots"):
            parse_config(path)

    def test_offline_without_deltas_rejected(self, tmp_path):
        path = write_config(
            tmp_path, "[experiment]\nmode = offline\nfamily = parabola\n"
        )
        with pytest.raises(ConfigError, match="deltas"):
            parse_config(path)

    @pytest.mark.parametrize("mode", ["online", "offline"])
    def test_t_eval_beyond_horizon_rejected(self, tmp_path, mode):
        body = f"[experiment]\nmode = {mode}\nfamily = parabola\ndeltas = 0.1\nhorizon = 100\n"
        assert parse_config(write_config(tmp_path, body + "t_eval = 100\n")).t_eval == 100
        with pytest.raises(ConfigError, match="t_eval 101 is beyond horizon 100"):
            parse_config(write_config(tmp_path, body + "t_eval = 101\n"))

    def test_negative_master_seed_rejected(self, tmp_path):
        path = write_config(
            tmp_path, "[experiment]\nmode = online\nfamily = parabola\nmaster_seed = -1\n"
        )
        with pytest.raises(ConfigError, match="master_seed must be non-negative, got -1"):
            parse_config(path)

    def test_ingest_without_stream_rejected(self, tmp_path):
        path = write_config(
            tmp_path, "[experiment]\nmode = ingest\ndeltas = 0.1\n"
        )
        with pytest.raises(ConfigError, match="stream"):
            parse_config(path)

    def test_policy_section_overrides(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiment]\nmode = online\nfamily = parabola\npolicies = EF, LiF\n\n"
            "[policy.EF]\nexplore_steps = 50\n\n"
            "[policy.LiF]\na0 = 0.3\nwindow = 25\n",
        )
        config = parse_config(path)
        by_name = {s.name: s for s in config.policies}
        assert by_name["EF"].params["explore_steps"] == "50"
        assert by_name["LiF"].params["a0"] == "0.3"

    def test_unknown_policy_param_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiment]\nmode = online\nfamily = parabola\npolicies = LiF\n\n"
            "[policy.LiF]\nstride = 3\n",
        )
        with pytest.raises(ConfigError, match="stride"):
            parse_config(path)

    @pytest.mark.parametrize("policy, line", BAD_POLICY_VALUES)
    def test_bad_policy_value_names_policy_and_key(self, tmp_path, policy, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"policy '{policy}'.*\b{key}\b"):
            parse_config(bad_policy_config(tmp_path, policy, line))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "nope.ini"))

    # Every list value drops empty entries; j0 and p0_diag used to reject
    # a trailing comma that deltas and policies accepted.
    @pytest.mark.parametrize(
        "line, parsed",
        [
            ("deltas = 0.1, 0.2,", lambda c: c.deltas == (0.1, 0.2)),
            ("policies = UR, TBL,", lambda c: [s.name for s in c.policies] == ["UR", "TBL"]),
            ("[policy.TBL]\nj0 = 0, 0.05, -0.05,", lambda c: tbl_prior(c)[1] == [0, 0.05, -0.05]),
            (
                "[policy.TBL]\np0_diag = 2, 2, 5,",
                lambda c: tbl_prior(c)[0] == np.diag([2, 2, 5]).tolist(),
            ),
        ],
        ids=["deltas", "policies", "j0", "p0_diag"],
    )
    def test_list_value_takes_trailing_comma(self, tmp_path, capsys, line, parsed):
        path = write_config(tmp_path, f"[experiment]\nfamily = parabola\n{line}\n")
        assert parsed(parse_config(path))
        assert cli_main(["validate", "--config", path]) == 0
        assert ": ok (" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "body, match",
        [
            ("[experiment]\nmode = online\nfamily = cubic\n", "family must be one of"),
            ("[policy.UR]\n", r"missing \[experiment\] section"),
            (
                "[experiment]\nmode = online\nfamily = parabola\npolicies = X\n\n"
                "[policy.X]\nkind = Foo\n",
                "policy 'X': unknown kind 'Foo'",
            ),
            # validate printed ok, and run failed on the empty path
            (
                "[experiment]\nmode = online\nfamily = parabola\nout =\n",
                "out must name an output directory",
            ),
            # validate printed ok, and run failed on its aggregate CSV
            # after every repetition had run
            (
                "[experiment]\nmode = online\nfamily = parabola\npolicies = UR, A/B\n\n"
                "[policy.A/B]\nkind = EF\n",
                "policy name 'A/B' must not contain a path separator or NUL",
            ),
            # validate printed ok, and both deltas ran on one seed key
            (
                "[experiment]\nmode = offline\nfamily = parabola\ndeltas = 1.5e-9, 2e-9\n",
                r"deltas must not share a nano-unit seed key, got \(1\.5e-09, 2e-09\)",
            ),
            # validate printed ok, and both policies ran on one seed key, CRC32
            # 0x4ddb0c25, so their aggregate CSVs were byte-identical
            (
                "[experiment]\nmode = online\nfamily = parabola\npolicies = plumless, buckeroo\n\n"
                "[policy.plumless]\nkind = UR\n\n[policy.buckeroo]\nkind = UR\n",
                "policy names must not share a CRC32 seed key, got plumless, buckeroo",
            ),
        ],
        ids=[
            "unknown-family", "no-experiment", "unknown-kind", "empty-out", "slash-in-name",
            "shared-seed-key", "shared-crc32-name",
        ],
    )
    def test_rejected_config_names_the_fault(self, tmp_path, body, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(write_config(tmp_path, body))

    # The eight spellings configparser reads as booleans, in any case and
    # with padding; anything else is a parse error.
    @pytest.mark.parametrize(
        "raw, value",
        [
            ("1", True), ("yes", True), ("true", True), ("on", True),
            ("0", False), ("no", False), ("false", False), ("off", False),
            ("maybe", None),
        ],
    )
    def test_boolean_spellings(self, tmp_path, raw, value):
        path = write_config(
            tmp_path, f"[experiment]\nfamily = parabola\nrealized_regret = {raw.upper()}\n"
        )
        spec = PolicySpec("TBL", "TBL", {"clamp_vertex": f" {raw.upper()}\t"})
        if value is None:
            with pytest.raises(ConfigError, match="realized_regret: cannot parse 'MAYBE'"):
                parse_config(path)
            with pytest.raises(ConfigError, match=r"clamp_vertex: cannot parse ' MAYBE\\t'"):
                make_policy(spec, UNIT, "online", None)
        else:
            assert parse_config(path).realized_regret is value
            assert make_policy(spec, UNIT, "online", None).clamp_vertex is value

    def test_delta_bound_set_by_seed_key(self, tmp_path):
        body = "[experiment]\nmode = offline\nfamily = parabola\ndeltas = {}\n"
        assert parse_config(write_config(tmp_path, body.format("1e299"))).deltas == (1e299,)
        with pytest.raises(ConfigError, match="at most about 1.8e299, got 1e"):
            parse_config(write_config(tmp_path, body.format("1e300")))


class TestMakePolicy:
    def test_simulation_defaults(self):
        rng = np.random.default_rng(0)
        policies = {
            s.kind: make_policy(s, UNIT, "online", rng)
            for s in ExperimentConfig(family="parabola").policies
        }
        assert isinstance(policies["UR"], UniformRandomPolicy)
        ef = policies["EF"]
        assert isinstance(ef, EpsilonFirstPolicy) and ef.explore_steps == 2000
        tbl = policies["TBL"]
        assert isinstance(tbl, ThompsonQuadraticPolicy)
        assert tbl.sigma2 == 1.0 and tbl.clamp_vertex
        P, J, _, _ = tbl_posterior(tbl)
        assert J == pytest.approx([0.0, 0.05, -0.05])
        assert P == pytest.approx(np.diag([2.0, 2.0, 5.0]))
        lif = policies["LiF"]
        assert isinstance(lif, LockInFeedbackPolicy)
        assert lif.amplitude == 0.05 and lif.window == 50
        assert lif.gamma == 0.4 and lif.omega == 1.0
        assert 0.0 <= lif.a0 <= 1.0

    def test_ingest_shortens_exploration(self):
        rng = np.random.default_rng(0)
        spec = PolicySpec("EF", "EF")
        assert make_policy(spec, UNIT, "ingest", rng).explore_steps == 100

    def test_set_keys_reach_constructor(self):
        rng = np.random.default_rng(0)
        tbl = make_policy(
            PolicySpec(
                "TBL",
                "TBL",
                {"j0": "1, 2, 3", "p0_diag": "4, 5, 6", "sigma2": "0.5", "clamp_vertex": "no"},
            ),
            UNIT,
            "online",
            rng,
        )
        P, J, _, _ = tbl_posterior(tbl)
        assert J.tolist() == [1.0, 2.0, 3.0]
        assert np.array_equal(P, np.diag([4.0, 5.0, 6.0]))
        assert tbl.sigma2 == 0.5 and tbl.clamp_vertex is False
        spec = PolicySpec("LiF", "LiF", {"a0": "0.3", "window": "25"})
        lif = make_policy(spec, UNIT, "online", rng)
        assert lif.a0 == 0.3 and lif.window == 25 and lif.gamma == 0.4
        spec = PolicySpec("EF", "EF", {"explore_steps": "50"})
        assert make_policy(spec, UNIT, "ingest", rng).explore_steps == 50

    def test_lif_center_drawn_from_init_rng(self):
        spec = PolicySpec("LiF", "LiF")
        a = make_policy(spec, UNIT, "online", np.random.default_rng(1)).a0
        b = make_policy(spec, UNIT, "online", np.random.default_rng(1)).a0
        c = make_policy(spec, UNIT, "online", np.random.default_rng(2)).a0
        assert a == b != c


class TestSeedDerivation:
    def test_distinct_coordinates_distinct_streams(self):
        base = derive_rng(7, 0, ROLE_PROPOSAL, "TBL", 0.1).uniform(size=4)
        for args in [
            (8, 0, ROLE_PROPOSAL, "TBL", 0.1),
            (7, 1, ROLE_PROPOSAL, "TBL", 0.1),
            (7, 0, ROLE_STREAM, "TBL", 0.1),
            (7, 0, ROLE_PROPOSAL, "UR", 0.1),
            (7, 0, ROLE_PROPOSAL, "TBL", 0.2),
        ]:
            assert not np.array_equal(base, derive_rng(*args).uniform(size=4))

    def test_same_coordinates_reproduce(self):
        a = derive_rng(7, 3, ROLE_PROPOSAL, "LiF", 0.05).uniform(size=8)
        b = derive_rng(7, 3, ROLE_PROPOSAL, "LiF", 0.05).uniform(size=8)
        assert np.array_equal(a, b)


class TestSimulateOnline:
    def test_trace_covers_full_horizon(self):
        model = ParabolaModel(peak=0.5, scale=1.0, noise_var=0.01, range=UNIT)
        trace = simulate_online(
            UniformRandomPolicy(UNIT),
            model,
            100,
            np.random.default_rng(1),
            np.random.default_rng(2),
        )
        assert trace.T == 100
        assert trace.stream_indices == list(range(100))

    def test_noise_free_rewards_keep_negative_zero(self):
        # The parabola's mean at its peak is -0.0.
        model = ParabolaModel(peak=0.5, scale=1.0, noise_var=0.0, range=UNIT)
        trace = simulate_online(
            ConstantPolicy(UNIT, 0.5),
            model,
            50,
            np.random.default_rng(1),
            np.random.default_rng(2),
        )
        assert [math.copysign(1.0, r) for r in trace.rewards] == [-1.0] * 50


@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_aggregate_csv_bytes_equal_csv_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-05]
    mean = rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 21, rows)
    mean[: len(specials)] = specials[:rows]
    se = np.resize(specials, rows)
    agg = RunAggregate(mean=mean, se=se, n=rng.integers(0, 1000, rows), run_count=999)
    path = tmp_path / "aggregate.csv"
    harness._write_aggregate_csv(path, agg)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["t", "mean", "se", "n"])
    writer.writerows(zip(range(1, rows + 1), mean.tolist(), se.tolist(), agg.n.tolist()))
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


def read_all(out_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}


class TestRunExperiment:
    def test_online_artifacts_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            config = parse_config(
                write_config(tmp_path, ONLINE_SMALL.format(out=out))
            )
            result = run_experiment(config)
            assert not result.manifest["errors"]
        files1, files2 = read_all(out1), read_all(out2)
        assert set(files1) == {
            "aggregate_online_UR.csv",
            "aggregate_online_EF.csv",
            "aggregate_online_TBL.csv",
            "aggregate_online_LiF.csv",
            "rank_online.csv",
            "manifest.json",
        }
        for name in files1:
            if name != "manifest.json":  # manifest echoes the out path
                assert files1[name] == files2[name], name

    def test_aggregate_csv_layout(self, tmp_path):
        out = tmp_path / "r"
        config = parse_config(write_config(tmp_path, ONLINE_SMALL.format(out=out)))
        run_experiment(config)
        lines = (out / "aggregate_online_UR.csv").read_text().splitlines()
        assert lines[0] == "t,mean,se,n"
        assert len(lines) == 61
        t, mean, se, n = lines[1].split(",")
        assert t == "1" and n == "3"
        float(mean), float(se)

    def test_offline_sweep_file_count(self, tmp_path):
        out = tmp_path / "r"
        config = parse_config(write_config(tmp_path, OFFLINE_SMALL.format(out=out)))
        result = run_experiment(config)
        names = set(read_all(out))
        aggs = [n for n in names if n.startswith("aggregate_")]
        ranks = [n for n in names if n.startswith("rank_")]
        assert len(aggs) == 20  # 4 policies x 5 deltas
        assert len(ranks) == 5
        assert "aggregate_offline_TBL_delta0.3.csv" in names
        assert "rank_offline_delta0.5.csv" in names
        assert not result.manifest["errors"]

    def test_offline_curves_shorter_than_log(self, tmp_path):
        out = tmp_path / "r"
        config = parse_config(write_config(tmp_path, OFFLINE_SMALL.format(out=out)))
        result = run_experiment(config)
        counts = result.manifest["accepted_counts"]["UR@delta=0.1"]
        assert len(counts) == 3
        assert all(0 < c < 200 for c in counts)

    def test_rank_csv_layout(self, tmp_path):
        out = tmp_path / "r"
        config = parse_config(write_config(tmp_path, ONLINE_SMALL.format(out=out)))
        run_experiment(config)
        lines = (out / "rank_online.csv").read_text().splitlines()
        assert lines[0] == "policy,metric_value,rank,tie_group"
        assert len(lines) == 5

    def test_manifest_echoes_config(self, tmp_path):
        out = tmp_path / "r"
        settings = {
            "mode": "online",
            "family": "parabola",
            "stream": "field.csv",
            "repetitions": "2",
            "horizon": "30",
            "deltas": "0.1, 0.2",
            "master_seed": "7",
            "t_eval": "10",
            "noise_var": "0.02",
            "range_lo": "0.5",
            "range_hi": "2.0",
            "out": str(out),
            "policies": "UR, EF",
            "realized_regret": "yes",
        }
        body = "".join(f"{key} = {value}\n" for key, value in settings.items())
        config = parse_config(
            write_config(
                tmp_path, f"[experiment]\n{body}\n[policy.EF]\nexplore_steps = 10\n"
            )
        )
        run_experiment(config)
        manifest = json.loads((out / "manifest.json").read_text())
        # Every key set but ``out``, with the two range ends as one pair.
        assert manifest["config"] == {
            "mode": "online",
            "family": "parabola",
            "stream": "field.csv",
            "repetitions": 2,
            "horizon": 30,
            "deltas": [0.1, 0.2],
            "master_seed": 7,
            "t_eval": 10,
            "noise_var": 0.02,
            "range": [0.5, 2.0],
            "policies": [
                {"name": "UR", "kind": "UR", "params": {}},
                {"name": "EF", "kind": "EF", "params": {"explore_steps": "10"}},
            ],
            "realized_regret": True,
        }
        assert manifest["metric"] == "regret"
        assert manifest["errors"] == []

    def test_workers_do_not_change_output(self, tmp_path):
        # Nine repetitions make two pool tasks, so two workers both run.
        body = OFFLINE_SMALL.replace("repetitions = 3", "repetitions = 9")
        outs, collected = [], []
        for i, workers in enumerate((1, 2)):
            out = tmp_path / f"w{i}"
            config = parse_config(write_config(tmp_path, body.format(out=out), f"c{i}.ini"))
            run_experiment(config, workers=workers)
            outs.append(out)
            collected.append(
                harness._collect_repetitions(config, list(config.deltas), workers, None)
            )
        files1, files2 = read_all(outs[0]), read_all(outs[1])
        assert set(files1) == set(files2)
        for name in files1:
            if name != "manifest.json":
                assert files1[name] == files2[name], name
        (curves1, errors1), (curves2, errors2) = collected
        assert len(curves1) == 9 * 5 * 4 and curves1.keys() == curves2.keys()
        for key, curve in curves1.items():
            assert np.array_equal(curve, curves2[key]), key
        assert errors1 == errors2

    def test_failed_repetition_keeps_others_indexed(self, tmp_path):
        config = parse_config(write_config(tmp_path, LIF_FAILS.format(out=tmp_path / "r")))
        curves, errors = harness._collect_repetitions(config, [None], 1, None)
        assert [(name, rep) for name, _, rep in errors] == [("LiF", rep) for rep in (1, 3, 4, 5, 7)]
        assert {key for key in curves if key[0] == "LiF"} == {
            ("LiF", None, rep) for rep in (0, 2, 6)
        }
        assert {key for key in curves if key[0] == "UR"} == {("UR", None, rep) for rep in range(8)}
        result = run_experiment(config)
        got = result.aggregates["LiF", None]
        expected = aggregate_runs([curves["LiF", None, rep] for rep in (0, 2, 6)])
        assert got.run_count == expected.run_count == 3
        for name in ("mean", "se", "n"):
            np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))

    # One task runs in this process: a pool of one would only pickle.
    @pytest.mark.parametrize(
        "repetitions, pool_size", [(1, None), (8, None), (9, 2), (40, 4)]
    )
    def test_pool_capped_at_task_count(self, tmp_path, monkeypatch, repetitions, pool_size):
        # A stand-in pool records its size and maps in this process, so no
        # worker process starts.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        config = ExperimentConfig(
            family="parabola", repetitions=repetitions, horizon=20, t_eval=10,
            out_dir=str(tmp_path / "r"), policies=(PolicySpec("UR", "UR"),),
        )
        result = run_experiment(config, workers=4)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert result.manifest["accepted_counts"] == {"UR": [20] * repetitions}

    def test_failed_collection_leaves_no_out_dir(self, tmp_path, monkeypatch):
        def broken(*args):
            raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(harness, "_collect_repetitions", broken)
        out = tmp_path / "o"
        with pytest.raises(BrokenProcessPool):
            run_experiment(parse_config(write_config(tmp_path, ONLINE_SMALL.format(out=out))))
        assert not out.exists()

    def test_import_leaves_process_pool_unloaded(self):
        # Only a run that starts a pool needs it and the multiprocessing it loads.
        probe = run_python(
            "-c", "import sys, cabeval; print('concurrent.futures.process' in sys.modules)"
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "False"

    def test_ingest_reports_reward_not_regret(self, tmp_path):
        model = ParabolaModel(peak=0.4, scale=1.0, noise_var=0.01, range=UNIT)
        stream = generate_logged_stream(model, 400, np.random.default_rng(3))
        stream_path = tmp_path / "stream.csv"
        save_stream(stream, stream_path)
        out = tmp_path / "r"
        config = parse_config(
            write_config(
                tmp_path,
                "[experiment]\n"
                "mode = ingest\n"
                f"stream = {stream_path}\n"
                "deltas = 0.1\n"
                "repetitions = 5\n"
                "t_eval = 40\n"
                "master_seed = 11\n"
                f"out = {out}\n"
                "policies = UR, LiF\n",
            )
        )
        result = run_experiment(config)
        assert not result.manifest["errors"]
        assert result.manifest["metric"] == "reward"
        names = set(read_all(out))
        assert names == {
            "aggregate_ingest_UR_delta0.1.csv",
            "aggregate_ingest_LiF_delta0.1.csv",
            "rank_ingest_delta0.1.csv",
            "manifest.json",
        }

    def test_ingest_warns_when_stream_too_short(self, tmp_path):
        model = ParabolaModel(peak=0.4, scale=1.0, noise_var=0.01, range=UNIT)
        stream = generate_logged_stream(model, 50, np.random.default_rng(3))
        stream_path = tmp_path / "stream.csv"
        save_stream(stream, stream_path)
        config = ExperimentConfig(
            mode="ingest",
            repetitions=1,
            horizon=1,
            master_seed=0,
            out_dir=str(tmp_path / "r"),
            stream_path=str(stream_path),
            deltas=(0.1,),
            t_eval=1750,
            policies=(PolicySpec("UR", "UR"),),
        )
        with pytest.warns(UserWarning, match="t_eval"):
            run_experiment(config)

        # The warning and `cabeval sizing --t-prime 400 --delta 0.15
        # --range 0 3` (which prints 4000) give one answer: 4,000 events
        # used to warn that their expected 400 accepts were below 400.
        wide = ActionRange(0.0, 3.0)
        model = ParabolaModel(peak=1.5, scale=1.0, noise_var=0.01, range=wide)

        def run_on(length, delta):
            path = tmp_path / f"stream{length}.csv"
            save_stream(generate_logged_stream(model, length, np.random.default_rng(3)), path)
            return run_experiment(replace(
                config, stream_path=str(path), out_dir=str(tmp_path / f"r{length}"),
                action_range=wide, deltas=(delta,), t_eval=400,
            ))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_on(4000, 0.15)
        with pytest.warns(UserWarning, match=r"log of 3999 events .* 4000 needed"):
            run_on(3999, 0.15)
        # Its needed length overflows a float, which warns rather than raises.
        with pytest.warns(UserWarning, match="t_eval=400"):
            run_on(100, 1e-320)
        assert set(read_all(tmp_path / "r100")) == {
            f"aggregate_ingest_UR_delta{1e-320:g}.csv",
            f"rank_ingest_delta{1e-320:g}.csv",
            "manifest.json",
        }

    def test_failed_repetition_recorded_not_fatal(self, tmp_path):
        out = tmp_path / "r"
        # EF with explore_steps=3 fits its quadratic on three explored
        # actions; on a 0.001-wide range their normal matrix is numerically
        # singular, so the fit raises in repetitions that reach it: all 30
        # at delta 0.0005, and 11 at delta 0.0002.
        config = parse_config(
            write_config(
                tmp_path,
                "[experiment]\n"
                "mode = offline\n"
                "family = parabola\n"
                "repetitions = 30\n"
                "horizon = 6\n"
                "deltas = 0.0005, 0.0002\n"
                "t_eval = 1\n"
                "master_seed = 1\n"
                "range_lo = 0.0\n"
                "range_hi = 0.001\n"
                f"out = {out}\n"
                "policies = UR, EF\n\n"
                "[policy.EF]\nexplore_steps = 3\n",
            )
        )
        result = run_experiment(config)
        # The run as a whole completes and writes artifacts either way.
        manifest = json.loads((out / "manifest.json").read_text())
        # In (repetition, delta, policy) order, each entry with its delta.
        assert manifest["errors"] == result.manifest["errors"] == [
            {
                "repetition": rep,
                "delta": delta,
                "policy": "EF",
                "type": "RankDeficiencyError",
                "error": "normal matrix numerically singular",
            }
            for rep in range(30)
            for delta in (0.0005, 0.0002)
            if delta == 0.0005 or rep in (1, 3, 4, 11, 14, 18, 19, 22, 24, 25, 27)
        ]
        assert len(result.manifest["accepted_counts"]["UR@delta=0.0005"]) == 30

    def test_online_error_entry_names_type(self, tmp_path):
        # Online, EF always reaches its fit, and on a 0.001-wide range the
        # fit of three explored actions is numerically singular.
        out = tmp_path / "r"
        config = parse_config(
            write_config(
                tmp_path,
                "[experiment]\n"
                "mode = online\n"
                "family = parabola\n"
                "repetitions = 3\n"
                "horizon = 6\n"
                "t_eval = 1\n"
                "master_seed = 1\n"
                "range_lo = 0.0\n"
                "range_hi = 0.001\n"
                f"out = {out}\n"
                "policies = UR, EF\n\n"
                "[policy.EF]\nexplore_steps = 3\n",
            )
        )
        result = run_experiment(config)
        assert result.manifest["errors"] == [
            {
                "repetition": rep,
                "policy": "EF",
                "type": "RankDeficiencyError",
                "error": "normal matrix numerically singular",
            }
            for rep in range(3)
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["errors"] == result.manifest["errors"]


ROOT = Path(__file__).resolve().parent.parent


def run_python(*args, cwd=None, **env_overrides):
    """Run a fresh interpreter in ``cwd`` with the checkout's ``src`` on its
    path and ``env_overrides`` in its environment."""
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_cli(*args, cwd=None, **env_overrides):
    return run_python("-m", "cabeval.cli", *args, cwd=cwd, **env_overrides)


def write_ingest_case(workdir, bom=b""):
    """Write a small ingest config and the log it names, relative to
    ``workdir``, each file starting with ``bom``; return the config path."""
    workdir.mkdir()
    model = ParabolaModel(peak=0.4, scale=1.0, noise_var=0.01, range=UNIT)
    stream = workdir / "stream.csv"
    save_stream(generate_logged_stream(model, 300, np.random.default_rng(3)), stream)
    stream.write_bytes(bom + stream.read_bytes())
    config = workdir / "exp.ini"
    config.write_bytes(
        bom + b"[experiment]\n# r\xc3\xa9sum\xc3\xa9: a UTF-8 comment\nmode = ingest\n"
        b"stream = stream.csv\ndeltas = 0.1\nrepetitions = 3\nt_eval = 5\nout = out\n"
    )
    return config


class TestCli:
    def test_run_and_overrides(self, tmp_path, capsys):
        config_path = write_config(
            tmp_path, ONLINE_SMALL.format(out=tmp_path / "ignored")
        )
        out = tmp_path / "cli_out"
        rc = cli_main(
            ["run", "--config", config_path, "--out", str(out), "--seed", "9"]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["master_seed"] == 9
        assert "cli_out" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_run_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        out = tmp_path / "o"
        config_path = write_config(tmp_path, ONLINE_SMALL.format(out=out))
        assert cli_main(["run", "--config", config_path, "--workers", workers]) == 2
        assert "--workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_run_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        config_path = write_config(tmp_path, ONLINE_SMALL.format(out=out))
        assert cli_main(["run", "--config", config_path, "--seed", "-5"]) == 2
        assert "config error: master_seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_run_empty_out_exit_2(self, tmp_path, capsys):
        # An empty --out used to be ignored, so the run wrote to the config's out.
        out = tmp_path / "o"
        config_path = write_config(tmp_path, ONLINE_SMALL.format(out=out))
        assert cli_main(["run", "--config", config_path, "--out", ""]) == 2
        assert "config error: out must name an output directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["results", "results/sub", "results/sub/deeper"])
    def test_run_out_under_file_exit_2(self, tmp_path, capsys, monkeypatch, out):
        # An out that is a file, or lies under one, used to fail only after
        # every repetition had run.
        ran = []
        monkeypatch.setattr(harness, "_repetition", lambda *args: ran.append(args) or ({}, {}))
        (tmp_path / "results").write_text("")
        config_path = write_config(tmp_path, ONLINE_SMALL.format(out=tmp_path / out))
        assert cli_main(["run", "--config", config_path]) == 2
        assert ran == []
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("run error: ") and "is not a directory" in line
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "results"]

    def test_run_broken_pool_exit_2(self, tmp_path, capsys, monkeypatch):
        # A worker killed mid-run used to end the CLI in a traceback.
        def broken(config, workers):
            raise BrokenProcessPool("a process in the process pool was terminated abruptly")

        monkeypatch.setattr("cabeval.cli.run_experiment", broken)
        config_path = write_config(tmp_path, ONLINE_SMALL.format(out=tmp_path / "o"))
        assert cli_main(["run", "--config", config_path, "--workers", "2"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "run error: a process in the process pool was terminated abruptly"
        ]

    @pytest.mark.parametrize("mode", ["online", "offline"])
    def test_run_t_eval_beyond_horizon_exit_2(self, tmp_path, capsys, mode):
        out = tmp_path / "o"
        config_path = write_config(
            tmp_path,
            f"[experiment]\nmode = {mode}\nfamily = parabola\ndeltas = 0.1\n"
            f"horizon = 100\nt_eval = 200\nout = {out}\n",
        )
        assert cli_main(["run", "--config", config_path]) == 2
        assert "config error: t_eval 200 is beyond horizon 100" in capsys.readouterr().err
        assert not out.exists()

    def test_run_mode_override(self, tmp_path, capsys):
        out = tmp_path / "o"
        config_path = write_config(tmp_path, OFFLINE_SMALL.format(out=out))
        assert cli_main(["run", "--config", config_path, "--mode", "online"]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["mode"] == "online"
        assert (out / "rank_online.csv").exists()

    def test_run_reports_failed_runs(self, tmp_path, capsys):
        # On a 0.001-wide range EF's fit of three explored actions is singular.
        out = tmp_path / "o"
        config_path = write_config(
            tmp_path,
            "[experiment]\nmode = online\nfamily = parabola\nrepetitions = 3\n"
            f"horizon = 6\nt_eval = 1\nrange_hi = 0.001\nout = {out}\n"
            "policies = UR, EF\n\n[policy.EF]\nexplore_steps = 3\n",
        )
        assert cli_main(["run", "--config", config_path]) == 0
        assert capsys.readouterr().err == "3 run(s) failed; see manifest.json\n"
        # A policy whose every repetition failed gets an empty aggregate.
        assert (out / "aggregate_online_EF.csv").read_text().splitlines() == ["t,mean,se,n"]
        assert "EF,n/a,n/a,n/a" in (out / "rank_online.csv").read_text().splitlines()

    @pytest.mark.parametrize(
        "rows, message",
        [
            (None, "No such file"),
            (b"0,0.5,1.0\n1,0.5,abc\n", "stream.csv:3"),
            (b"0,0.5,1.0\n1,0.5,1\xff\n", "stream.csv: 'utf-8' codec can't decode byte 0xff"),
            (
                b"0,0.5,1.0\n1," + b"1" * 200_000 + b",1.0\n",
                "stream.csv: field larger than field limit",
            ),
        ],
        ids=["missing", "bad-row", "not-utf-8", "field-limit"],
    )
    def test_run_unreadable_stream_exit_2(self, tmp_path, capsys, rows, message):
        stream_path = tmp_path / "stream.csv"
        if rows is not None:
            stream_path.write_bytes(b"index,action,reward\n" + rows)
        out = tmp_path / "o"
        config_path = write_config(
            tmp_path,
            f"[experiment]\nmode = ingest\nstream = {stream_path}\ndeltas = 0.1\n"
            f"out = {out}\n",
        )
        assert cli_main(["validate", "--config", config_path]) == 0
        done = run_cli("run", "--config", config_path)
        assert done.returncode == 2
        assert done.stderr.startswith("run error: ") and message in done.stderr
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
        assert not out.exists()

    def test_validate_non_utf8_config_exit_2(self, tmp_path):
        config_path = tmp_path / "exp.ini"
        config_path.write_bytes(b"[experiment]\nfamily = parab\xffola\n")
        done = run_cli("validate", "--config", str(config_path))
        assert done.returncode == 2
        assert done.stderr.startswith(f"config error: {config_path}: 'utf-8' codec")
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr

    def test_run_in_ascii_locale_matches_default(self, tmp_path):
        # The config's one non-ASCII line is a comment; an ASCII locale used
        # to fail to decode it.
        outs = []
        for name, env in [
            ("ascii", {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}),
            ("default", {}),
        ]:
            config = write_ingest_case(tmp_path / name)
            done = run_cli("run", "--config", str(config), cwd=config.parent, **env)
            assert done.returncode == 0, done.stderr
            outs.append(read_all(tmp_path / name / "out"))
        assert outs[0] == outs[1]

    def test_run_bom_config_and_stream(self, tmp_path, monkeypatch):
        # A BOM used to fail the config with no section header and the
        # stream with a header of '\ufeffindex'.
        outs = []
        for name, bom in [("bom", b"\xef\xbb\xbf"), ("plain", b"")]:
            config = write_ingest_case(tmp_path / name, bom)
            monkeypatch.chdir(tmp_path / name)
            assert cli_main(["run", "--config", str(config)]) == 0
            outs.append(read_all(tmp_path / name / "out"))
        assert outs[0] == outs[1]

    def test_run_opens_no_file_in_locale_encoding(self, tmp_path):
        config = write_ingest_case(tmp_path / "w")
        done = run_python(
            "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
            "-m", "cabeval.cli", "run", "--config", str(config), cwd=config.parent,
        )
        assert done.returncode == 0, done.stderr

    # Each file used to escape parse_config as a configparser error; the
    # message names the line.
    @pytest.mark.parametrize(
        "body, line",
        [
            pytest.param(
                "[experiment]\nfamily = parabola\nfamily = bimodal\n", 3, id="repeated-key"
            ),
            pytest.param(
                "[experiment]\nfamily = parabola\n[experiment]\nmode = online\n", 3,
                id="repeated-section",
            ),
            pytest.param("family = parabola\n[experiment]\n", 1, id="no-header"),
            pytest.param("[experiment]\nfamily = parabola\nonline\n", 3, id="no-equals"),
        ],
    )
    def test_validate_malformed_ini_exit_2(self, tmp_path, capsys, body, line):
        assert cli_main(["validate", "--config", write_config(tmp_path, body)]) == 2
        assert re.match(rf"config error: .*line:?\s+{line}\b", capsys.readouterr().err, re.DOTALL)

    def test_validate_good_config(self, tmp_path, capsys):
        config_path = write_config(tmp_path, ONLINE_SMALL.format(out=tmp_path / "o"))
        assert cli_main(["validate", "--config", config_path]) == 0
        assert "ok" in capsys.readouterr().out

    @pytest.mark.parametrize("line", BAD_EXPERIMENT_VALUES)
    def test_validate_bad_config_exit_2(self, tmp_path, capsys, line):
        config_path = write_config(
            tmp_path, f"[experiment]\nfamily = parabola\n{line}\n"
        )
        assert cli_main(["validate", "--config", config_path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_validate_readme_config(self, tmp_path, capsys):
        readme = (ROOT / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        config_path = write_config(tmp_path, example)
        assert cli_main(["validate", "--config", config_path]) == 0
        assert "ok (offline mode, 4 policies)" in capsys.readouterr().out

    def test_readme_quick_start_runs(self):
        readme = (ROOT / "README.md").read_text()
        example = readme.split("```python\n", 1)[1].split("```", 1)[0]
        done = run_python("-c", example)
        assert done.returncode == 0, done.stderr
        assert "events accepted" in done.stdout

    @pytest.mark.parametrize("policy, line", BAD_POLICY_VALUES)
    def test_validate_bad_policy_value_exit_2(self, tmp_path, capsys, policy, line):
        config_path = bad_policy_config(tmp_path, policy, line)
        assert cli_main(["validate", "--config", config_path]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"policy '{policy}'" in err

    def test_sizing_prints_required_length(self, capsys):
        assert cli_main(["sizing", "--t-prime", "500", "--delta", "0.1"]) == 0
        assert capsys.readouterr().out.strip() == "2500"

    def test_sizing_with_custom_range(self, capsys):
        rc = cli_main(
            ["sizing", "--t-prime", "100", "--delta", "0.1", "--range", "0", "2"]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1000"

    @pytest.mark.parametrize(
        "bad",
        [
            ["--range", "1", "0"],
            ["--delta", "-1"],
            ["--delta", "nan"],
            ["--t-prime", "0"],
            ["--delta", "1e-320"],  # the length overflowed in math.ceil
            ["--t-prime", "1" + "0" * 400],  # t_prime overflowed as a float
        ],
        ids=lambda bad: " ".join(bad)[:24],
    )
    def test_sizing_bad_input_exit_2(self, capsys, bad):
        # argparse keeps the last value of a repeated option.
        assert cli_main(["sizing", "--t-prime", "500", "--delta", "0.1", *bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sizing error: ")
        assert captured.err.count("\n") == 1
