"""Offline replay of one logged stream at several tolerance settings.

A uniform logging policy records 10,000 interactions with a random
parabola. Each candidate policy is then evaluated purely from that log:
an event is kept only when the logged action lands within delta of what
the policy would have proposed. Larger tolerances keep more events but
blur what the policy is credited with. Run with:

    python demos/offline_delta_sweep.py [--seed N]
"""

import argparse
import zlib

import numpy as np

from cabeval import (
    ActionRange,
    ReplayConfig,
    acceptance_probability,
    cumulative_regret,
    generate_logged_stream,
    make_parabola,
    replay_cab,
)
from cabeval.config import PolicySpec, make_policy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--log-length", type=int, default=10_000)
    args = parser.parse_args()

    action_range = ActionRange(0.0, 1.0)
    rng = np.random.default_rng(args.seed)
    model = make_parabola(rng, action_range, noise_var=0.01)
    stream = generate_logged_stream(model, args.log_length, rng)
    print(f"logged {len(stream)} events; true peak at {model.peak:.4f}\n")

    header = f"{'policy':<6} {'delta':>6} {'accepted':>9} {'expected':>9} {'final regret':>13}"
    print(header)
    print("-" * len(header))
    for delta in (0.05, 0.1, 0.2):
        expected = acceptance_probability(delta, action_range) * len(stream)
        for kind in ("UR", "EF", "TBL", "LiF"):
            key = zlib.crc32(kind.encode())
            policy = make_policy(
                PolicySpec(kind, kind),
                action_range,
                "offline",
                np.random.default_rng([args.seed, key]),
            )
            trace = replay_cab(
                policy,
                stream,
                ReplayConfig(delta),
                np.random.default_rng([args.seed, 1, key]),
            )
            regret = cumulative_regret(trace, model)
            final = regret[-1] if trace.T else float("nan")
            print(
                f"{kind:<6} {delta:>6.2f} {trace.T:>9} {expected:>9.0f} {final:>13.2f}"
            )
        print()


if __name__ == "__main__":
    main()
