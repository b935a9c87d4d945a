"""Draw a few reward surfaces from each family and describe them.

The unimodal family is a downward parabola with a random peak; the
bimodal family is a quartic whose two maxima and interior minimum are
placed directly, so the optimum is known analytically. Run with:

    python demos/reward_surfaces.py [--seed N]
"""

import argparse
import sys

import numpy as np

from cabeval import ActionRange, make_model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    action_range = ActionRange(0.0, 1.0)
    grid = np.linspace(action_range.lo, action_range.hi, 10_001)
    # The sparkline's levels, low to high: block characters, or an ASCII
    # ramp where stdout cannot encode them (as in the C locale).
    bars = "▁▂▃▄▅▆▇█"
    try:
        bars.encode(sys.stdout.encoding or "utf-8")
    except UnicodeEncodeError:
        bars = "_.-:=+*#"

    for family in ("parabola", "bimodal"):
        print(f"=== {family} family ===")
        for draw in range(3):
            rng = np.random.default_rng([args.seed, draw])
            model = make_model(family, rng, action_range, noise_var=0.01)
            a_star, r_star = model.optimum()
            grid_best = grid[np.argmax(model.mean(grid))]
            print(f"draw {draw}: {model}")
            print(
                f"  optimum at a*={a_star:.4f} (value {r_star:.4f}), "
                f"grid argmax {grid_best:.4f}"
            )
            # A coarse sparkline of the mean surface.
            coarse = model.mean(np.linspace(0, 1, 13))
            lo, hi = coarse.min(), coarse.max()
            idx = np.clip(
                ((coarse - lo) / (hi - lo + 1e-12) * (len(bars) - 1)).astype(int),
                0,
                len(bars) - 1,
            )
            print("  shape: " + "".join(bars[i] for i in idx))
        print()


if __name__ == "__main__":
    main()
