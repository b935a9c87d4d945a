"""Field-style workflow: evaluate policies on an externally logged CSV.

A stand-in log of 2,448 uniform interactions is written to disk in the
``index,action,reward`` format, then ingested and replayed at delta=0.1.
Because the true reward surface behind a field log is unknown, ingest
mode reports accumulated reward only - never regret. The same run is
available from the command line:

    cabeval sizing --t-prime 500 --delta 0.1
    cabeval run --config ingest.ini

Run with:

    python demos/field_ingest.py [--seed N]
"""

import argparse
import os
import tempfile

import numpy as np

from cabeval import (
    ActionRange,
    ExperimentConfig,
    generate_logged_stream,
    required_log_length,
    run_experiment,
    save_stream,
)
from cabeval.rewards import ParabolaModel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--reps", type=int, default=100)
    args = parser.parse_args()

    action_range = ActionRange(0.0, 1.0)
    work_dir = tempfile.mkdtemp(prefix="ingest_demo_")

    print("sizing: to keep ~500 events at delta=0.1 the log must hold",
          required_log_length(500, 0.1, action_range), "interactions")

    model = ParabolaModel(peak=0.4, scale=1.0, noise_var=0.01, range=action_range)
    stream = generate_logged_stream(model, 2448, np.random.default_rng(args.seed))
    stream_path = os.path.join(work_dir, "field_stream.csv")
    save_stream(stream, stream_path)
    print(f"wrote stand-in log of {len(stream)} events to {stream_path}\n")

    config = ExperimentConfig(
        mode="ingest",
        repetitions=args.reps,
        horizon=1,
        master_seed=args.seed,
        out_dir=os.path.join(work_dir, "results"),
        stream_path=stream_path,
        deltas=(0.1,),
        t_eval=400,
    )
    result = run_experiment(config)

    counts = result.manifest["accepted_counts"]
    print(f"mean accepted events per repetition ({args.reps} reps):")
    for key in sorted(counts):
        print(f"  {key:<16} {np.mean(counts[key]):7.1f}")

    table = result.rank_tables[0.1]
    print(f"\ncumulative reward at t={config.t_eval} (higher is better):")
    for entry in table.entries:
        print(f"  {entry.rank}. {entry.policy:<4} {entry.value:8.3f}")
    for name in table.unavailable:
        print(f"     {name:<4} n/a (too few surviving repetitions)")
    print(f"\nartifacts written to {config.out_dir}")


if __name__ == "__main__":
    main()
