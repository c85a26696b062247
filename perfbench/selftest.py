"""Self-test of the benchmark at tiny sizes, so its gates are not vacuous.

    python3 perfbench/selftest.py

Checks that

* a tiny run of every workload, untraced and traced, prints as its last
  line a result with every metric ``BENCHMARK.json`` declares, each with
  its declared unit and a finite value;
* a corrupted ``execute_plan`` output is counted as failed and makes the
  run incorrect;
* a warm plan on ``cold_plan`` is counted as failed;
* ``reuse`` reports its stale-store answers as failures of the known
  defect, not as correct answers, and the same number of them on runs
  with different seeds.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_printed_metrics(declared: dict) -> None:
    for workload in declared["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            check(proc.returncode == 0, f"{cmd} exited {proc.returncode}:\n"
                  f"{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"result keys {set(result)}")
            check(result["correct"] and result["attempted"] >= 1,
                  f"{workload} trace={trace}: {result}")
            metrics = result["metrics"]
            check(set(metrics) == set(declared[kind]),
                  f"{workload} trace={trace} metric names differ")
            for name, metric in metrics.items():
                check(metric["unit"] == declared[kind][name]["unit"],
                      f"{name} unit {metric['unit']}")
                check(isinstance(metric["value"], (int, float))
                      and math.isfinite(metric["value"]),
                      f"{name} value {metric['value']}")
            print(f"ok: {workload} trace={trace} prints all "
                  f"{len(metrics)} {kind} metrics")


def check_corrupted_output() -> None:
    import repro
    import runner

    real = repro.execute_plan

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        result.outputs = {k: v + 1.0 for k, v in result.outputs.items()}
        return result

    repro.execute_plan = corrupted
    try:
        result = runner.run("execute", 0, 0.0, False, size="tiny")
    finally:
        repro.execute_plan = real
    check(result["failed"] == result["attempted"],
          f"corrupted outputs passed: {result['details']}")
    check(not result["correct"], "corrupted outputs left the run correct")
    check(result["metrics"]["ok_ratio"] == 0.0, "ok_ratio not 0")
    print("ok: corrupted execute_plan outputs are failures")


def check_warm_plan() -> None:
    import runner
    import workloads

    real = workloads.PlannerService

    class WarmService(real):
        """Plans every request once before answering it from the cache."""

        def optimize(self, graph, *args, **kwargs):
            super().optimize(graph, *args, **kwargs)
            return super().optimize(graph, *args, **kwargs)

    workloads.PlannerService = WarmService
    try:
        result = runner.run("cold_plan", 0, 0.0, False, size="tiny")
    finally:
        workloads.PlannerService = real
    check(result["details"]["failure_reasons"]
          == {"warm_plan": result["attempted"]},
          f"warm plans passed: {result['details']}")
    print("ok: warm plans on cold_plan are failures")


def check_stale_store() -> None:
    import runner

    result = runner.run("reuse", 0, 0.0, False, size="tiny")
    reasons = result["details"]["failure_reasons"]
    check(set(reasons) == {"stale_store"} and reasons["stale_store"] > 0,
          f"reuse failure reasons {reasons}")
    check(result["correct"], "known stale-store failures made reuse incorrect")
    check(result["metrics"]["ok_ratio"] < 1.0, "ok_ratio hides stale answers")
    again = runner.run("reuse", 1, 0.0, False, size="tiny")
    check((again["attempted"], again["failed"])
          == (result["attempted"], result["failed"]),
          f"attempted/failed differ between runs: {again} vs {result}")
    print(f"ok: reuse counts {reasons['stale_store']} stale-store answers "
          f"of {result['attempted']} as failures, on every run")


def main() -> int:
    import run

    check_printed_metrics(run.declared_metrics())
    check_corrupted_output()
    check_warm_plan()
    check_stale_store()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
