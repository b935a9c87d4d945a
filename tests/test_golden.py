"""Every ``out/`` file of six small runs, checked bit for bit against
recorded sha256 digests.

The runs cover online, offline and ingest mode, both reward families, a
noise-free surface and realized regret. Reruns are compared with each
other elsewhere; this compares them with a fixed record, so a change to
seeding, model or log generation, regret, aggregation, CSV float
formatting or the manifest fails here even when every tolerance holds.

A change that alters the numerics on purpose regenerates the record in
the same diff, and names the old and new digests:

    PYTHONPATH=src python tests/test_golden.py

numpy's generator streams and libm's ``cos`` may differ between versions
and platforms, so the record names the Python and numpy versions it was
made with, and a mismatch prints them next to the current ones.
"""

import hashlib
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cabeval.config import parse_config
from cabeval.harness import run_experiment
from cabeval.replay import generate_logged_stream, save_stream
from cabeval.rewards import ActionRange, make_model

RECORD = Path(__file__).with_name("golden_digests.json")

POLICIES = """
[policy.EF]
explore_steps = 12

[policy.TBL2]
kind = TBL
sigma2 = 0.1
clamp_vertex = false
"""

# Each case: its [experiment] lines, the family of the log an ingest case
# writes to stream.csv before the run (None for no log), and its repetition
# count. Aggregation works on blocks of 2**15 // repetitions steps, 992 at 33
# repetitions, so "offline-blocks" has curves that end on either side of
# the first block's end at delta 0.3 and in the first block at 0.05.
CASES = {
    "online-parabola": ("mode = online\nfamily = parabola\nhorizon = 300\n", None, 4),
    "online-bimodal-noise-free": (
        "mode = online\nfamily = bimodal\nhorizon = 300\nnoise_var = 0\n", None, 4
    ),
    "offline-parabola-realized": (
        "mode = offline\nfamily = parabola\nhorizon = 1500\ndeltas = 0.02, 0.1\n"
        "realized_regret = true\n",
        None,
        4,
    ),
    "offline-bimodal": (
        "mode = offline\nfamily = bimodal\nhorizon = 1500\ndeltas = 0.05, 0.3\n", None, 4
    ),
    "offline-blocks": (
        "mode = offline\nfamily = parabola\nhorizon = 2000\ndeltas = 0.05, 0.3\n", None, 33
    ),
    "ingest-parabola": ("mode = ingest\ndeltas = 0.05, 0.2\n", "parabola", 4),
    "ingest-bimodal": ("mode = ingest\ndeltas = 0.1\n", "bimodal", 4),
}


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def digests(case):
    """Run ``case`` in the current directory and return the sha256 of every
    file it wrote. The manifest echoes the stream path, so the log is named
    relative to the directory."""
    lines, log_family, repetitions = CASES[case]
    if log_family is not None:
        model = make_model(log_family, np.random.default_rng(3), ActionRange(0.0, 1.0), 0.01)
        save_stream(generate_logged_stream(model, 2000, np.random.default_rng(4)), "stream.csv")
        lines += "stream = stream.csv\n"
    config = Path("exp.ini")
    config.write_text(
        f"[experiment]\n{lines}repetitions = {repetitions}\nmaster_seed = 17\nt_eval = 20\n"
        f"out = out\npolicies = UR, EF, TBL, TBL2, LiF\n{POLICIES}",
        encoding="utf-8",
    )
    run_experiment(parse_config(config))
    written = [Path("stream.csv")] if log_family else []
    written += sorted(Path("out").iterdir())
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}


@pytest.mark.parametrize("case", CASES)
def test_out_digests_match_record(case, tmp_path, monkeypatch):
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    got = digests(case)
    changed = sorted(
        name for name in got.keys() | record["digests"][case].keys()
        if got.get(name) != record["digests"][case].get(name)
    )
    assert not changed, (
        f"{case}: {changed} differ from {RECORD.name}, recorded with "
        f"{record['versions']}; running {versions()}"
    )


if __name__ == "__main__":
    record = {"versions": versions(), "digests": {}}
    cwd = os.getcwd()
    for case in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            try:
                record["digests"][case] = digests(case)
            finally:
                os.chdir(cwd)
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {RECORD}")
