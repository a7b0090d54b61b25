"""Smoke test of the benchmark itself.

    python3 cogra_bench/smoke.py

Runs the benchmark command on every workload at a tiny input size,
untraced and traced, and checks that each run is correct and emits every
metric named in BENCHMARK.json with its unit. Then, in this process, it
corrupts one row of a result before the check and requires the run to
report the failure through ``error_rate``. Exits 1 on the first problem.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys

import run

SEED = 7
SECONDS = 1.0


def _expect(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"smoke: {what}")


def _check_line(line: dict, kind: str, label: str) -> None:
    _expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(line)}")
    units = run.metric_units(kind)
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    _expect(got == units, f"{label}: metrics {got} != {units}")
    _expect(all(math.isfinite(v["value"]) for v in line["metrics"].values()),
            f"{label}: non-finite metric")
    _expect(line["attempted"] >= 1, f"{label}: nothing attempted")


def main() -> int:
    from workloads import WORKLOADS

    for name, wl in WORKLOADS.items():
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(int(trace)),
                   "--events", str(wl.tiny_events)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
            _expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            _check_line(line, "per_layer" if trace else "end_to_end", label)
            _expect(line["correct"] and line["failed"] == 0, f"{label}: {line['failed']} rows failed")
            if trace:
                _expect(line["metrics"]["error_rate"]["value"] == 0, f"{label}: error_rate")
            print(f"ok {label}", flush=True)

    # an injected wrong row must be counted
    import reference

    check = reference.check_result

    def corrupted(result, ref):
        result = result.copy()
        col = ref.specs[0]
        row = result[col].first_valid_index()
        result.loc[row, col] = result.loc[row, col] * 2 + 1
        return check(result, ref)

    reference.check_result = corrupted
    try:
        line, _ = run.run("any-slide", SEED, SECONDS, True,
                          events=WORKLOADS["any-slide"].tiny_events)
    finally:
        reference.check_result = check
    _expect(not line["correct"] and line["failed"] > 0, "injected wrong row not counted")
    _expect(line["metrics"]["error_rate"]["value"] > 0, "injected wrong row: error_rate is 0")
    print("ok injected wrong row raises error_rate", flush=True)
    return 0


if __name__ == "__main__":
    run.prepare_paths()
    sys.exit(main())
