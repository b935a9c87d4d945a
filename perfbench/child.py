"""One fresh process of the benchmark, started by ``run.py`` with ``src`` on PYTHONPATH.

    python3 child.py setup INI          # time `import cabeval` + parse_config
    python3 child.py run INI WORKERS    # time run_experiment, with its pool

Prints one JSON object. CPU time counts this process from just before
``run_experiment`` and every pool worker it reaped; peak RSS is the larger
of this process's and its largest worker's.
"""

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    what, ini = argv[1], argv[2]
    t0 = time.perf_counter()
    import cabeval

    config = cabeval.parse_config(ini)
    if what == "setup":
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    workers = int(argv[3])
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    cabeval.run_experiment(config, workers=workers)
    run_s = time.perf_counter() - t0
    own = resource.getrusage(resource.RUSAGE_SELF)
    pool = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (
        own.ru_utime - before.ru_utime
        + own.ru_stime - before.ru_stime
        + pool.ru_utime
        + pool.ru_stime
    )
    peak_kb = max(own.ru_maxrss, pool.ru_maxrss)  # Linux reports KiB
    print(json.dumps({"run_s": run_s, "cpu_s": cpu_s, "peak_rss_mb": peak_kb / 1024}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
