"""The benchmark's three workloads and the program calls each request makes.

Every workload is a closed loop with one client and no think time: the next
request is sent only after the previous response has been checked.  A
workload owns its generated inputs, its numpy references and the program
objects (graphs, planner service, intermediate store) that ``setup`` builds.

* ``cold_plan`` — paper-scale planning plus ``simulate`` with no data; every
  request is a plan-cache miss on a fresh ``PlannerService``.
* ``execute`` — laptop-scale real execution of plans a warmed service
  serves from its cache, checked against numpy references.
* ``reuse`` — tenants take turns against one shared ``IntermediateStore``
  whose budget is below their combined result bytes.

Only public program names are used: ``repro``, ``repro.workloads`` and
``repro.engine.IntermediateStore``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import repro
from repro import (
    OptimizerContext,
    PlannerService,
    build,
    input_matrix,
    relu,
    simsql_cluster,
)
from repro.engine import IntermediateStore
from repro.workloads import (
    FFNNConfig,
    dag2_graph,
    ffnn_full_step,
    linear_regression,
    logistic_regression_step,
    make_inverse_inputs,
    mm_chain_graph,
    power_iteration,
    reference_inverse,
    ridge_gradient_descent,
    two_level_inverse_graph,
)

#: A response is correct when max |out - ref| <= TOLERANCE * max(1, max |ref|).
TOLERANCE = 1e-6
#: ``simulate`` must reproduce the plan's predicted seconds this closely.
SIMULATE_RTOL = 1e-9
#: Failure reasons that are known program defects.  The intermediate store
#: keys cached cones by source *names*, not source data, so a tenant that
#: changes data under unchanged names is served an earlier answer.  Such
#: answers are wrong and counted in ``failed``; any other failure reason
#: makes the run incorrect.
KNOWN_DEFECTS = frozenset({"stale_store"})


@dataclass
class Request:
    """One request kind of a workload's request list."""

    name: str
    graph: object
    plan_kwargs: dict
    inputs: dict | None = None
    #: Output name -> numpy reference (None for planning-only requests).
    reference: dict | None = None
    #: Called after each response to move a tenant whose data changes
    #: under unchanged source names to its next inputs (and reference).
    advance: Callable[["Request"], None] | None = None
    #: inputs -> {output name: numpy reference}.
    reference_fn: Callable[[dict], dict] | None = None
    #: Previous outputs of a changed-data tenant, to recognise stale ones.
    history: list = field(default_factory=list)

    @property
    def changed_data(self) -> bool:
        return self.advance is not None


@dataclass
class Response:
    """What one request got back, and whether it was right."""

    request: str
    latency_s: float
    ok: bool
    reason: str | None
    changed_data: bool
    plan: object = None
    plan_cost: float = 0.0
    ledger_s: float = 0.0
    cache_hit: bool = False
    alloc_ratio: float | None = None


def _error(outputs: dict, reference: dict) -> float:
    worst = 0.0
    for name, ref in reference.items():
        out = outputs.get(name)
        if out is None or out.shape != ref.shape:
            return float("inf")
        scale = max(1.0, float(np.abs(ref).max()))
        worst = max(worst, float(np.abs(out - ref).max()) / scale)
    return worst


def check_outputs(req: Request, result) -> str | None:
    """None when ``result`` matches the reference, else the failure reason."""
    if not result.ok:
        return f"execution_failed: {result.failure}"
    if _error(result.outputs, req.reference) <= TOLERANCE:
        return None
    for earlier in req.history:
        if all(np.array_equal(result.outputs.get(k), v)
               for k, v in earlier.items()):
            return "stale_store"
    return "wrong_output"


class Workload:
    """Base: a request list plus the program objects serving it."""

    name = ""
    #: Passes of the request list a measured run makes at least.
    min_passes = 1
    #: Seconds one untraced pass takes on the reference box (2-core
    #: Xeon VM); turns ``--seconds`` into a fixed number of passes, so a
    #: run's ``attempted`` and ``failed`` do not depend on machine speed.
    pass_s = 1.0
    #: True when requests run ``execute_plan`` on real data.
    executes = False
    #: True when a latency sample is one pass of the request list rather
    #: than one request.
    latency_per_pass = False

    def __init__(self, size: str, seed: int) -> None:
        self.size = size
        self.requests: list[Request] = []

    def setup(self) -> None:
        """Build graphs and program objects and warm them (timed)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work after ``setup``: the numpy references (and, on
        ``reuse``, the fresh store)."""

    def schedule(self) -> list[Request]:
        """The request list of one pass."""
        return self.requests

    def passes(self, seconds: float) -> int:
        """Passes a run of ``seconds`` makes: a function of ``seconds``
        alone, never of the time a pass takes on this machine."""
        return max(self.min_passes, math.ceil(seconds / self.pass_s))

    def submit(self, req: Request, tracer, alloc=None
               ) -> tuple[Response, object]:
        """Send one request through the public API; returns the response
        (unchecked) and the raw result ``verify`` checks."""
        raise NotImplementedError

    def verify(self, req: Request, resp: Response, raw) -> str | None:
        """None when the response is right, else the failure reason."""
        raise NotImplementedError

    def store_stats(self) -> dict | None:
        return None


# ======================================================================
# cold_plan
# ======================================================================
class ColdPlan(Workload):
    """Paper-scale cold planning plus ``simulate``.

    The frontier search, both rewrite engines and the never-worse
    fallback do almost all the work; the engine only lowers and charges.
    Each request gets a fresh ``PlannerService`` and context, so it is
    always a miss.
    """

    name = "cold_plan"

    #: (request name, graph builder, rewrite engine).
    SPECS = (
        ("fig05_pipeline",
         lambda: ffnn_full_step(FFNNConfig(hidden=80_000)), "pipeline"),
        ("fig09_pipeline", two_level_inverse_graph, "pipeline"),
        ("mm_chain1_egraph", lambda: mm_chain_graph(1), "egraph"),
        ("mm_chain2_egraph", lambda: mm_chain_graph(2), "egraph"),
        ("mm_chain3_egraph", lambda: mm_chain_graph(3), "egraph"),
        ("dag2_egraph", lambda: dag2_graph(2), "egraph"),
    )
    #: Two passes, so no request kind's time rests on one sample.
    min_passes = 2
    pass_s = 21.5
    #: The request kinds differ 80x in cost, so percentiles over single
    #: requests are single samples of one kind; a pass (the whole
    #: planning job) is the latency sample instead.
    latency_per_pass = True

    def setup(self) -> None:
        beam = 1500 if self.size == "full" else 10
        # No data, so the seed changes nothing here.
        self.requests = [Request(name, make(),
                                 {"max_states": beam, "rewrites": rewrites})
                         for name, make, rewrites in self.SPECS]
        # Warm-up: load the search and both rewrite engines once, on a
        # small graph and a context no request shares.
        warm = PlannerService(self._context())
        for rewrites in ("pipeline", "egraph"):
            warm.optimize(mm_chain_graph(1), max_states=10, rewrites=rewrites)

    @staticmethod
    def _context() -> OptimizerContext:
        """A fresh context: contexts memoize costing, so sharing one
        across requests would make later requests warm."""
        return OptimizerContext(cluster=simsql_cluster(10))

    def submit(self, req: Request, tracer, alloc=None):
        with tracer.span("bench:request", kind="bench", request=req.name):
            service = PlannerService(self._context(), tracer=tracer)
            with tracer.span("bench:service.optimize", kind="bench"):
                plan = service.optimize(req.graph, **req.plan_kwargs)
            cold = service.misses == 1 and service.hits == 0
            with tracer.span("bench:service.resolve_context", kind="bench"):
                ctx = service.resolve_context(req.graph, None)
            with tracer.span("bench:engine.simulate", kind="bench"):
                sim = repro.simulate(plan, ctx, tracer=tracer)
        resp = Response(req.name, 0.0, True, None, False, plan=plan,
                        plan_cost=plan.total_seconds,
                        ledger_s=sim.ledger.total_seconds,
                        cache_hit=not cold)
        return resp, sim

    def verify(self, req: Request, resp: Response, sim) -> str | None:
        if resp.cache_hit:
            return "warm_plan"
        if not sim.ok:
            return f"simulate_failed: {sim.failure}"
        expected = resp.plan.total_seconds
        if abs(sim.seconds - expected) > SIMULATE_RTOL * abs(expected):
            return "simulate_disagrees"
        return None


# ======================================================================
# execute and reuse share the plan-then-execute request
# ======================================================================
class _Executing(Workload):
    """Requests are ``service.optimize`` (a warm hit) + ``execute_plan``."""

    executes = True
    store: IntermediateStore | None = None

    def setup(self) -> None:
        self.service = PlannerService(OptimizerContext())
        # Plan every request, then execute it once: first executions run
        # up to 2x slower than later ones.
        for req in self.requests:
            plan = self.service.optimize(req.graph, **req.plan_kwargs)
            repro.execute_plan(plan, req.inputs,
                               self.service.resolve_context(req.graph, None))

    def prepare(self) -> None:
        for req in self.requests:
            req.reference = req.reference_fn(req.inputs)

    def submit(self, req: Request, tracer, alloc=None):
        with tracer.span("bench:request", kind="bench", request=req.name):
            self.service.tracer = tracer
            hits = self.service.hits
            with tracer.span("bench:service.optimize", kind="bench"):
                plan = self.service.optimize(req.graph, **req.plan_kwargs)
            with tracer.span("bench:service.resolve_context", kind="bench"):
                ctx = self.service.resolve_context(req.graph, None)
            with tracer.span("bench:engine.execute_plan", kind="bench"):
                if alloc is not None:
                    alloc.start()
                result = repro.execute_plan(plan, req.inputs, ctx,
                                            tracer=tracer, store=self.store)
                peak = alloc.stop() if alloc is not None else None
        resp = Response(req.name, 0.0, True, None, req.changed_data,
                        plan=plan, plan_cost=plan.total_seconds,
                        ledger_s=result.ledger.total_seconds,
                        cache_hit=self.service.hits > hits)
        if peak is not None:
            moved = sum(a.nbytes for a in req.inputs.values())
            moved += sum(a.nbytes for a in result.outputs.values())
            resp.alloc_ratio = peak / moved
        return resp, result

    def verify(self, req: Request, resp: Response, result) -> str | None:
        reason = check_outputs(req, result)
        if req.advance is not None:
            if result.ok:
                req.history.append({k: v.copy()
                                    for k, v in result.outputs.items()})
            req.advance(req)
        return reason


def _from_workload(name: str, workload, seed: int, **plan_kwargs) -> Request:
    """Request for a ``repro.workloads.Workload`` builder's output."""
    (out,) = workload.graph.outputs
    return Request(name, workload.graph, plan_kwargs,
                   inputs=workload.make_inputs(seed),
                   reference_fn=lambda inputs: {
                       out.name: workload.reference(inputs)})


def _relu_request(name: str, n: int, k: int, m: int, seed: int,
                  x: str, w: str, **plan_kwargs) -> Request:
    """The quickstart's ``relu(X @ W)``."""
    h = relu(input_matrix(x, n, k) @ input_matrix(w, k, m))
    h.name = "H"
    rng = np.random.default_rng(seed)
    return Request(name, build(h), plan_kwargs,
                   inputs={x: rng.standard_normal((n, k)),
                           w: rng.standard_normal((k, m))},
                   reference_fn=lambda inputs: {
                       "H": np.maximum(inputs[x] @ inputs[w], 0.0)})


def _inverse_request(name: str, outer: int, inner: int, seed: int) -> Request:
    return Request(name, two_level_inverse_graph(outer, inner), {},
                   inputs=make_inverse_inputs(outer, inner, seed),
                   reference_fn=reference_inverse)


class Execute(_Executing):
    """Laptop-scale real execution, no intermediate store.

    Lowering, input splitting, the scheduler, the kernels and output
    assembly do almost all the work; the plans come from a warm cache.
    """

    name = "execute"
    #: 17 passes of 6 requests: ``latency_p90_ms`` has ten samples
    #: beyond it.
    min_passes = 17
    pass_s = 0.8

    def __init__(self, size: str, seed: int) -> None:
        super().__init__(size, seed)
        full = size == "full"
        s = 1000 * seed
        q = (2000, 3000, 500) if full else (200, 300, 50)
        # 20000 x 200 regressions (32 MB inputs): at 40000 x 400 the
        # kernels' page faults and memory traffic made request times
        # bimodal and their run-to-run spread twice as wide.
        n, d = (20_000, 200) if full else (400, 40)
        self.requests = [
            _relu_request("quickstart", *q, s + 1, "X", "W",
                          algorithm="tree"),
            _from_workload("linear_regression",
                           linear_regression(n, d), s + 2),
            _from_workload("logistic_regression_step",
                           logistic_regression_step(n, d), s + 3),
            _from_workload("ridge_gradient_descent",
                           ridge_gradient_descent(n, d), s + 4),
            _from_workload("power_iteration",
                           power_iteration(2000 if full else 100), s + 5),
            _inverse_request("two_level_inverse", *((800, 200) if full
                                                    else (80, 20)), s + 6),
        ]


class Reuse(_Executing):
    """Tenants take turns against one shared ``IntermediateStore``.

    Four tenants re-run on unchanged snapshots; one runs an iterative
    logistic regression whose ``w`` changes every step under the same
    source name.  The store budget is 85% of the snapshot tenants' output
    bytes, so it both serves fetches and evicts.
    """

    name = "reuse"
    #: 8 passes of 13 requests: ``latency_p90_ms`` has ten samples
    #: beyond it.
    min_passes = 8
    pass_s = 1.1
    #: Each pass: every snapshot tenant three times, the iterative tenant
    #: once — so the changed-data share is 1/13.
    SNAPSHOT_TURNS = 3

    def __init__(self, size: str, seed: int) -> None:
        super().__init__(size, seed)
        full = size == "full"
        s = 1000 * seed
        n = 20_000 if full else 400
        self.snapshots = [
            _from_workload("linreg_snapshot",
                           linear_regression(n, 200 if full else 20), s + 1),
            _relu_request("relu_snapshot",
                          *((2000, 1500, 1000) if full else (200, 150, 100)),
                          s + 2, "Xr", "Wr"),
            _from_workload("power_snapshot",
                           power_iteration(1500 if full else 100), s + 3),
            _inverse_request("inverse_snapshot",
                             *((600, 150) if full else (60, 15)), s + 4),
        ]
        logreg = logistic_regression_step(n, 150 if full else 15,
                                          lr=1.0 / n)
        self.iterative = _from_workload("logreg_iterative", logreg, s + 5)
        self.iterative.advance = self._next_step
        self.requests = self.snapshots + [self.iterative]

    @staticmethod
    def _next_step(req: Request) -> None:
        """Feed this step's correct ``w`` into the next step."""
        (w_next,) = req.reference.values()
        req.inputs = dict(req.inputs, w=w_next)
        req.reference = req.reference_fn(req.inputs)

    def prepare(self) -> None:
        super().prepare()
        budget = 0.85 * sum(ref.nbytes for req in self.snapshots
                            for ref in req.reference.values())
        # Stage results outlive a run so harvest_state can keep them.
        self.store = IntermediateStore(budget)

    def schedule(self) -> list[Request]:
        return self.snapshots * self.SNAPSHOT_TURNS + [self.iterative]

    def store_stats(self) -> dict:
        return self.store.stats()


WORKLOADS = {w.name: w for w in (ColdPlan, Execute, Reuse)}
