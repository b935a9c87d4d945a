"""Each demo runs to completion at a small size, in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(tmp_path, script, *args, hash_seed="0", **env_overrides):
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = hash_seed
    env["TMPDIR"] = str(tmp_path)  # the demos write their artifacts to mkdtemp
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "script, args, env",
    [
        ("reward_surfaces.py", [], {}),
        # An ASCII stdout, where the block-character sparkline used to end
        # the demo with a UnicodeEncodeError.
        ("reward_surfaces.py", [], {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}),
        ("online_simulation.py", ["--reps", "2", "--horizon", "300"], {}),
        ("field_ingest.py", ["--reps", "3"], {}),
    ],
    ids=["reward_surfaces", "reward_surfaces-ascii-locale", "online_simulation", "field_ingest"],
)
def test_demo_runs(tmp_path, script, args, env):
    out = run_demo(tmp_path, script, *args, **env)
    assert out
    if script == "reward_surfaces.py":
        assert "ParabolaModel(peak=" in out and "BimodalQuarticModel(m1=" in out


def test_offline_sweep_independent_of_hash_seed(tmp_path):
    # String hashes are salted per process, so a seed derived from
    # ``hash`` would change the table from run to run.
    outs = [
        run_demo(tmp_path, "offline_delta_sweep.py", "--log-length", "2000", hash_seed=s)
        for s in ("0", "1")
    ]
    assert "final regret" in outs[0]
    assert outs[0] == outs[1]
