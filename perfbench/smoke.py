"""Smoke test of the benchmark at tiny size (about a minute on 2 CPUs).

    python3 perfbench/smoke.py

For every workload shape it checks that both modes pass their output
checks and print every metric named in BENCHMARK.json with its unit, that
two runs of one seed give one artifact digest, and, on the ingest shape,
that ``--workers 1`` and ``--workers 2`` give identical artifacts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import sys

import run
from workloads import WORKLOADS, prepare

SEED = 7


def printed(result: dict) -> list[str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(result, {})
    return buf.getvalue().splitlines()


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    if declared["end_to_end"] != run.END_TO_END:
        failures.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if declared["per_layer"] != run.per_layer_units():
        failures.append("BENCHMARK.json per_layer differs from run.per_layer_units()")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for workload in WORKLOADS.values():
        tiny = workload.tiny()
        work = run.WORK / f"smoke-{tiny.name}"
        shutil.rmtree(work, ignore_errors=True)
        ini = prepare(tiny, SEED, work)
        results = {
            "untraced": run.untraced(tiny, SEED, 0, ini, work / "out"),
            "again": run.untraced(tiny, SEED, 0, ini, work / "out"),
            "traced": run.traced(tiny, SEED, 0, ini, work / "out", work / "trace.jsonl"),
        }
        if tiny.workers > 1:
            serial = dataclasses.replace(tiny, workers=1)
            results["workers=1"] = run.untraced(serial, SEED, 0, ini, work / "out")
        for label, result in results.items():
            failures += [f"{tiny.name} {label}: {p}" for p in result["problems"]]
            lines = printed(result)
            kind = "per_layer" if label == "traced" else "end_to_end"
            for name, unit in declared[kind].items():
                if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines):
                    failures.append(f"{tiny.name} {label}: {name} not printed with unit {unit}")
            last = json.loads(lines[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"} or not last["correct"]:
                failures.append(f"{tiny.name} {label}: bad result line {lines[-1][:120]}")
            if set(last["metrics"]) != set(declared[kind]):
                failures.append(f"{tiny.name} {label}: result metrics differ from BENCHMARK.json")
        digests = {label: r["notes"]["digest"] for label, r in results.items() if "digest" in r["notes"]}
        if len(set(digests.values())) != 1:
            failures.append(f"{tiny.name}: artifact digests differ: {digests}")
        print(f"{tiny.name}: {len(results)} runs, digest {next(iter(digests.values()))[:16]}")
        shutil.rmtree(work, ignore_errors=True)

    for failure in failures:
        print("FAIL", failure)
    print("smoke:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
