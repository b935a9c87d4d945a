"""Small online study: four policies against fresh random surfaces.

Each repetition draws a new reward model, runs every policy for the full
horizon, and accumulates cumulative regret; the rank table orders the
policies at the evaluation step. Run with:

    python demos/online_simulation.py [--family parabola|bimodal]
"""

import argparse
import tempfile

from cabeval import ExperimentConfig, run_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", default="parabola", choices=["parabola", "bimodal"])
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--horizon", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    t_eval = min(1750, args.horizon)
    config = ExperimentConfig(
        mode="online",
        family=args.family,
        repetitions=args.reps,
        horizon=args.horizon,
        master_seed=args.seed,
        out_dir=tempfile.mkdtemp(prefix="online_demo_"),
        t_eval=t_eval,
    )
    result = run_experiment(config)

    print(f"{args.family} family, {args.reps} reps, horizon {args.horizon}")
    print(f"mean cumulative regret at t={t_eval}:")
    table = result.rank_tables[None]
    for entry in table.entries:
        band = 1.96 * entry.se
        print(
            f"  {entry.rank}. {entry.policy:<4} {entry.value:8.2f} "
            f"(+/- {band:.2f}, tie group {entry.tie_group})"
        )
    print(f"artifacts written to {config.out_dir}")


if __name__ == "__main__":
    main()
