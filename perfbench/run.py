"""End-to-end benchmark of the planner, the engine and the intermediate store.

One workload run (what ``BENCHMARK.json``'s command names)::

    python3 perfbench/run.py --workload execute --seed 1 --seconds 20 --trace 0

prints one line per metric and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every run appends a record with machine metadata to
``perfbench/out/results.jsonl``; a traced run also writes its spans to
``perfbench/out/spans-<workload>-seed<seed>.jsonl``.

All three workloads, each untraced and traced in a fresh process::

    python3 perfbench/run.py --all --seed 1

Run it from the repository root.  It imports the program from ``src/``
and exits non-zero when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def single_thread_blas() -> None:
    """Run BLAS on one thread; must run before numpy loads.

    The client and the sequential scheduler are single-threaded, and a
    multi-threaded BLAS call on a small shared machine waits for its
    slowest thread, which made run-to-run times far less steady.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot say."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "lib*openblas*.so*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "scheduler": "sequential",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": seed,
    }


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]},
            "run_seconds": spec["run_seconds"],
            "workloads": [w["name"] for w in spec["workloads"]]}


def one_run(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from speed import SpeedProbe

    probe = SpeedProbe()
    try:
        with probe:
            started = time.perf_counter()
            import repro
            import_s = time.perf_counter() - started
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        print(f"repro was imported from {repro.__file__}, not {ROOT}/src",
              file=sys.stderr)
        return 2

    import runner

    declared = declared_metrics()
    kind = "per_layer" if args.trace else "end_to_end"
    result = runner.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), size=args.size, import_s=import_s,
                        probe=probe)
    spans = result.pop("spans")
    details = result.pop("details")
    units = declared[kind]
    missing = set(units) - set(result["metrics"])
    extra = set(result["metrics"]) - set(units)
    if missing or extra:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"missing {sorted(missing)}, extra {sorted(extra)}")
    result["metrics"] = {name: {"value": result["metrics"][name],
                                "unit": units[name]["unit"]}
                         for name in units}

    os.makedirs(OUT, exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace,
              "size": args.size, "seconds": args.seconds,
              "meta": metadata(args.seed),
              "details": details, **result}
    with open(os.path.join(OUT, "results.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if spans:
        from repro.obs import write_jsonl

        write_jsonl(spans, os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    for name, metric in result["metrics"].items():
        print(f"{args.workload:10s} {name:34s} {metric['value']:14.6g} "
              f"{metric['unit']}")
    print(f"{args.workload:10s} failure reasons: {details['failure_reasons']}"
          f"; changed-data share {details['changed_data_share']:.3f}")
    if details["wall"]:
        print(f"{args.workload:10s} unscaled wall clock: " + ", ".join(
            f"{k} {v:.6g}" for k, v in details["wall"].items()))
    print(json.dumps(result))
    return 0


def all_runs(args) -> int:
    """Each workload untraced then traced, each in a fresh process so
    ``peak_rss_mb`` belongs to that run alone."""
    declared = declared_metrics()
    seconds = args.seconds or declared["run_seconds"]
    status = 0
    for workload in declared["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                status = proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("cold_plan", "execute",
                                               "reuse"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for perfbench/selftest.py")
    args = parser.parse_args(argv)
    if args.all:
        return all_runs(args)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required without --all")
    single_thread_blas()
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
