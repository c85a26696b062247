"""Closed-loop measurement of one workload run, untraced or traced.

An untraced run gives the end-to-end metrics.  A traced run alternates an
untraced pass, a traced pass and (on executing workloads) a tracemalloc
pass, and gives the per-layer metrics: tracing overhead is the traced
passes' request time over the untraced passes', and tracemalloc never runs
in an untraced run.

Both make a fixed number of passes, from ``--seconds`` and the workload's
pass time on the reference box, so ``attempted`` and ``failed`` repeat
exactly for a seed.

The end-to-end times of an untraced run are given at the reference box's
speed; see ``speed.SpeedProbe``.  The unscaled wall-clock numbers are kept
in the run's details.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import statistics
import time
import tracemalloc

from repro.obs import NULL_TRACER, Tracer

from speed import SpeedProbe
from traces import layer_numbers
from workloads import KNOWN_DEFECTS, WORKLOADS, ColdPlan

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3
#: The cold_plan request names, one ``core.plan_s.<name>`` metric each.
COLD_PLAN_REQUESTS = tuple(name for name, _, _ in ColdPlan.SPECS)


class AllocPeak:
    """tracemalloc peak of the bytes allocated between start and stop."""

    def start(self) -> None:
        tracemalloc.start()

    def stop(self) -> float:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return float(peak)


def percentile(values: list[float], pct: float) -> float:
    """The ``pct``-th percentile, interpolating linearly between the two
    nearest ranks (numpy's default); ``inf`` stays ``inf``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0.0:
        return ordered[lo]
    low, high = ordered[lo], ordered[lo + 1]
    return math.inf if math.isinf(high) else low + frac * (high - low)


def _one(workload, req, tracer, alloc=None):
    started = time.perf_counter()
    resp, raw = workload.submit(req, tracer, alloc)
    resp.latency_s = time.perf_counter() - started
    resp.reason = workload.verify(req, resp, raw)
    resp.ok = resp.reason is None
    return resp


def _pass(workload, tracer=NULL_TRACER, alloc=None):
    return [_one(workload, req, tracer, alloc) for req in workload.schedule()]


def run(name: str, seed: int, seconds: float, trace: bool,
        size: str = "full", import_s: float = 0.0,
        probe: SpeedProbe | None = None) -> dict:
    """One workload run; returns the result line plus details.

    ``probe`` is the one that sampled the program's import, if any.
    """
    workload = WORKLOADS[name](size, seed)
    probe = probe or SpeedProbe()
    # Spans and tracemalloc would see the probe, so a traced run has none.
    timing = contextlib.nullcontext() if trace else probe
    setups = []
    for _ in range(SETUP_REPEATS):
        with timing:
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
    setup_samples = len(probe.samples)
    workload.prepare()
    gc.collect()
    spans = []
    wall = {}
    if trace:
        responses, metrics, spans = _traced(workload, seconds)
    else:
        with probe:
            responses, metrics = _untraced(workload, seconds)
        wall = {k: metrics[k] for k in
                ("goodput_rps", "latency_p50_ms", "latency_p90_ms")}
        wall["setup_s"] = import_s + statistics.median(setups)
        wall["speed"] = probe.speed(setup_samples)
        wall["setup_speed"] = probe.speed(0, setup_samples)
        wall["probe_samples"] = len(probe.samples)
        metrics["setup_s"] = wall["setup_s"] / wall["setup_speed"]
        metrics["goodput_rps"] *= wall["speed"]
        metrics["latency_p50_ms"] /= wall["speed"]
        metrics["latency_p90_ms"] /= wall["speed"]
    failed = [r for r in responses if not r.ok]
    reasons: dict[str, int] = {}
    for r in failed:
        reasons[r.reason] = reasons.get(r.reason, 0) + 1
    changed = sum(r.changed_data for r in responses)
    by_request: dict[str, list[float]] = {}
    for r in responses:
        by_request.setdefault(r.request, []).append(r.latency_s)
    return {
        "correct": all(r in KNOWN_DEFECTS for r in reasons),
        "attempted": len(responses),
        "failed": len(failed),
        "metrics": metrics,
        "details": {
            "failure_reasons": reasons,
            "changed_data_share": changed / len(responses),
            "median_latency_s": {k: statistics.median(v)
                                 for k, v in by_request.items()},
            "setup_samples_s": setups,
            "import_s": import_s,
            "store": workload.store_stats(),
            "wall": wall,
        },
        "spans": spans,
    }


def _untraced(workload, seconds):
    passes = [_pass(workload) for _ in range(workload.passes(seconds))]
    responses = [r for batch in passes for r in batch]
    # A failed response is slower than any latency limit.
    if workload.latency_per_pass:
        latencies = [sum(r.latency_s for r in batch)
                     if all(r.ok for r in batch) else math.inf
                     for batch in passes]
    else:
        latencies = [r.latency_s if r.ok else math.inf for r in responses]
    request_s = sum(r.latency_s for r in responses)
    # A percentile that lands on a failure reads as the run's request time.
    p50, p90 = (min(percentile(latencies, p), request_s) for p in (50, 90))
    cost = {r.request: r.plan_cost for r in responses}
    ok = sum(r.ok for r in responses)
    return responses, {
        "goodput_rps": ok / request_s,
        "latency_p50_ms": p50 * 1000.0,
        "latency_p90_ms": p90 * 1000.0,
        "plan_cost": sum(cost.values()),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": ok / len(responses),
    }


def _traced(workload, seconds):
    tracer = Tracer()
    responses, traced = [], []
    untraced_s = traced_s = 0.0
    store = dict.fromkeys(("hits", "misses", "evictions", "fetch_seconds"),
                          0.0)
    alloc_ratios = []
    # Each round makes two or three passes.
    rounds = max(1, workload.passes(seconds) // 3)
    passes = 0
    while passes < rounds:
        # Alternate which pass goes first, so neither gets the other's
        # warming (reuse's store fills during its first pass).
        for tracing in (passes % 2 == 1, passes % 2 == 0):
            before = workload.store_stats()
            batch = _pass(workload, tracer if tracing else NULL_TRACER)
            responses.extend(batch)
            wall = sum(r.latency_s for r in batch)
            if not tracing:
                untraced_s += wall
                continue
            traced_s += wall
            traced.extend(batch)
            if before is not None:
                after = workload.store_stats()
                for k in store:
                    store[k] += after[k] - before[k]
        if workload.executes:
            batch = _pass(workload, alloc=AllocPeak())
            alloc_ratios.extend(r.alloc_ratio for r in batch)
            responses.extend(batch)
        passes += 1

    metrics = layer_numbers(tracer.spans(), len(traced), passes)
    cold = [r.plan.profile for r in traced
            if r.plan.profile is not None and not r.cache_hit]
    phase = {k: sum(p.phase_seconds.get(k, 0.0) for p in cold) / passes
             for k in ("project", "prune", "reconstruct")}
    plan_s = {name: [r.latency_s for r in traced if r.request == name]
              for name in COLD_PLAN_REQUESTS}
    final_store = workload.store_stats() or {}
    lookups = store["hits"] + store["misses"]
    metrics.update({
        "core.project_s": phase["project"],
        "core.prune_s": phase["prune"],
        "core.reconstruct_s": phase["reconstruct"],
        "core.states_explored": sum(p.states_explored for p in cold) / passes,
        "core.states_pruned": sum(p.states_pruned for p in cold) / passes,
        "core.states_beamed": sum(p.states_beamed for p in cold) / passes,
        "core.peak_table_size": max((p.peak_table_size for p in cold),
                                    default=0),
        **{f"core.plan_s.{name}": (statistics.median(v) if v else 0.0)
           for name, v in plan_s.items()},
        "service.cache_hit_ratio": sum(r.cache_hit for r in traced)
        / len(traced),
        "engine.peak_alloc_ratio": max(alloc_ratios, default=0.0),
        "engine.ledger_s": sum(r.ledger_s for r in traced) / passes,
        "engine.store.hit_ratio": store["hits"] / lookups if lookups else 0.0,
        "engine.store.evictions": store["evictions"] / passes,
        "engine.store.used_mb": final_store.get("used_bytes", 0.0) / 1e6,
        "engine.store.fetch_s": store["fetch_seconds"] / passes,
        "obs.trace_overhead_ratio": traced_s / untraced_s,
    })
    return responses, metrics, tracer.spans()
