import json
from pathlib import Path

import numpy as np
import pytest

from cabeval.cli import main as cli_main
from cabeval.config import (
    ConfigError,
    ExperimentConfig,
    PolicySpec,
    make_policy,
    parse_config,
)
from cabeval.harness import (
    ROLE_PROPOSAL,
    ROLE_STREAM,
    derive_rng,
    run_experiment,
    simulate_online,
)
from cabeval.policies import (
    EpsilonFirstPolicy,
    LockInFeedbackPolicy,
    ThompsonQuadraticPolicy,
    UniformRandomPolicy,
)
from cabeval.replay import save_stream, generate_logged_stream
from cabeval.rewards import ActionRange, ParabolaModel

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

# One bad value per line; each used to pass validation and then fail in
# every repetition.
BAD_POLICY_VALUES = [
    ("LiF", "gamma = abc"),
    ("LiF", "window = 0"),
    ("TBL", "j0 = 0.0, 0.05"),
    ("TBL", "p0_diag = 1.0, 2.0"),
    ("TBL", "p0_diag = -1, 2, 5"),
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
]


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
        assert tbl.J == pytest.approx([0.0, 0.05, -0.05])
        assert tbl.P == pytest.approx(np.diag([2.0, 2.0, 5.0]))
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
        assert tbl.J.tolist() == [1.0, 2.0, 3.0]
        assert np.array_equal(tbl.P, np.diag([4.0, 5.0, 6.0]))
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
            assert not result.errors
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
        assert not result.errors

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
        outs = []
        for i, workers in enumerate((1, 2)):
            out = tmp_path / f"w{i}"
            config = parse_config(
                write_config(tmp_path, OFFLINE_SMALL.format(out=out), f"c{i}.ini")
            )
            run_experiment(config, workers=workers)
            outs.append(out)
        files1, files2 = read_all(outs[0]), read_all(outs[1])
        assert set(files1) == set(files2)
        for name in files1:
            if name != "manifest.json":
                assert files1[name] == files2[name], name

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
        assert not result.errors
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

    def test_failed_repetition_recorded_not_fatal(self, tmp_path):
        out = tmp_path / "r"
        # EF with explore_steps=3 fits its quadratic on three explored
        # actions; on a 0.001-wide range their normal matrix is numerically
        # singular, so the fit raises in repetitions that reach it.
        config = parse_config(
            write_config(
                tmp_path,
                "[experiment]\n"
                "mode = offline\n"
                "family = parabola\n"
                "repetitions = 30\n"
                "horizon = 6\n"
                "deltas = 0.0005\n"
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
        assert (out / "manifest.json").exists()
        assert result.errors
        for err in result.errors:
            assert err["policy"] == "EF"
            assert err["type"] == "RankDeficiencyError"
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
        assert result.errors == [
            {
                "repetition": rep,
                "policy": "EF",
                "type": "RankDeficiencyError",
                "error": "normal matrix numerically singular",
            }
            for rep in range(3)
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["errors"] == result.errors


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
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        config_path = write_config(tmp_path, example)
        assert cli_main(["validate", "--config", config_path]) == 0
        assert "ok (offline mode, 4 policies)" in capsys.readouterr().out

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
        [["--range", "1", "0"], ["--delta", "-1"], ["--delta", "nan"], ["--t-prime", "0"]],
        ids=" ".join,
    )
    def test_sizing_bad_input_exit_2(self, capsys, bad):
        # argparse keeps the last value of a repeated option.
        assert cli_main(["sizing", "--t-prime", "500", "--delta", "0.1", *bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sizing error: ")
        assert captured.err.count("\n") == 1
