"""Scheduler equivalence: the thread-pool and process-pool schedulers must
be observably identical to the sequential one — outputs, ledgers, and
recovery stats — because sub-ledgers merge in stage-id order regardless of
completion order (and, for processes, fault draws are pure functions of
``(seed, stage name, occurrence)``, never of process-local state)."""

import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.core import ComputeGraph, OptimizerContext, matrix, optimize
from repro.core.atoms import (
    ADD,
    ELEM_MUL,
    MATMUL,
    RELU,
    SCALAR_MUL,
    SUB,
    TRANSPOSE,
    FusedStep,
    fused_atom,
)
from repro.core.formats import row_strips, single, sparse_single, tiles
from repro.engine import execute_plan
from repro.engine.dynamics import execute_with_dynamics
from repro.engine.faults import (
    FaultConfig,
    FaultPlan,
    TransientShuffleError,
    WorkerCrash,
    as_injector,
)
from repro.engine.ledger import EngineFailure
from repro.engine.membership import WorkerTimeline
from repro.engine.recovery import (
    FaultRetriesExhausted,
    RecoveryPolicy,
    SpeculationPolicy,
)
from repro.engine.scheduler import (
    _SCHEDULER_ALIASES,
    SCHEDULERS,
    ProcessPoolScheduler,
    SequentialScheduler,
    ThreadPoolScheduler,
    resolve_scheduler,
)
from repro.engine.stages import lower

OPS = (MATMUL, ADD, SUB, ELEM_MUL, RELU, TRANSPOSE, SCALAR_MUL)
RNG = np.random.default_rng(23)

#: Both concurrent schedulers, equivalence-tested against sequential.
POOLS = (ThreadPoolScheduler, ProcessPoolScheduler)


def _diamond():
    g = ComputeGraph()
    x = g.add_source("X", matrix(48, 48), tiles(16))
    wl = g.add_source("WL", matrix(48, 48), tiles(16))
    wr = g.add_source("WR", matrix(48, 48), tiles(16))
    left = g.add_op("L", MATMUL, (x, wl))
    right = g.add_op("R", MATMUL, (x, wr))
    g.add_op("OUT", ADD, (left, right))
    inputs = {name: RNG.standard_normal((48, 48))
              for name in ("X", "WL", "WR")}
    return g, inputs


def _both(plan, inputs, ctx, pool_cls=ThreadPoolScheduler, **kwargs):
    seq = execute_plan(plan, inputs, ctx,
                       scheduler=SequentialScheduler(), **kwargs)
    pool = execute_plan(plan, inputs, ctx,
                        scheduler=pool_cls(), **kwargs)
    return seq, pool


def _assert_equivalent(seq, pool):
    assert seq.ok == pool.ok
    assert set(seq.outputs) == set(pool.outputs)
    for name, value in seq.outputs.items():
        assert np.array_equal(pool.outputs[name], value), name
    records = [(s.name, s.seconds, s.category) for s in seq.ledger.stages]
    assert records == \
        [(s.name, s.seconds, s.category) for s in pool.ledger.stages]
    assert seq.ledger.total_seconds == pool.ledger.total_seconds
    assert seq.ledger.total_seconds == \
        pytest.approx(pool.ledger.total_seconds, abs=1e-9)


class TestCleanEquivalence:
    @pytest.mark.parametrize("pool_cls", POOLS)
    def test_diamond_is_bit_identical(self, pool_cls):
        graph, inputs = _diamond()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        seq, pool = _both(plan, inputs, ctx, pool_cls=pool_cls)
        assert seq.ok
        _assert_equivalent(seq, pool)
        assert seq.executed_stages == pool.executed_stages

    @pytest.mark.parametrize("pool_cls", POOLS)
    def test_pool_respects_dependencies(self, pool_cls):
        """Many workers, deep graph: values must still be correct."""
        g = ComputeGraph()
        prev = g.add_source("A", matrix(32, 32), tiles(16))
        a0 = prev
        for i in range(6):
            prev = g.add_op(f"v{i}", RELU if i % 2 else ADD,
                            (prev, a0)[:1 + (i % 2 == 0)])
        inputs = {"A": RNG.standard_normal((32, 32))}
        ctx = OptimizerContext()
        plan = optimize(g, ctx, max_states=200)
        seq, pool = _both(plan, inputs, ctx, pool_cls=pool_cls)
        assert seq.ok
        _assert_equivalent(seq, pool)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(st.data())
    def test_random_plans_are_equivalent(self, data):
        seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        n = data.draw(st.sampled_from([24, 40]))
        g = ComputeGraph()
        inputs = {}
        pool_vids = []
        for i in range(data.draw(st.integers(2, 3))):
            fmt = data.draw(st.sampled_from([single(), tiles(16),
                                             row_strips(8)]))
            vid = g.add_source(f"S{i}", matrix(n, n), fmt)
            inputs[f"S{i}"] = rng.standard_normal((n, n))
            pool_vids.append(vid)
        for i in range(data.draw(st.integers(1, 5))):
            op = data.draw(st.sampled_from(OPS))
            picks = tuple(
                pool_vids[data.draw(st.integers(0, len(pool_vids) - 1))]
                for _ in range(op.arity))
            param = data.draw(st.floats(-2, 2)) if op is SCALAR_MUL else None
            pool_vids.append(g.add_op(f"v{i}", op, picks, param=param))
        ctx = OptimizerContext()
        plan = optimize(g, ctx, max_states=200)
        seq, pool = _both(plan, inputs, ctx)
        assert seq.ok
        _assert_equivalent(seq, pool)


class TestFaultEquivalence:
    @pytest.mark.parametrize("pool_cls", POOLS)
    def test_scheduled_crash_recovers_identically(self, pool_cls):
        graph, inputs = _diamond()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        seq, pool = _both(plan, inputs, ctx, pool_cls=pool_cls,
                          faults=FaultPlan.crash("L"))
        assert seq.ok
        assert seq.recovery.worker_crashes == 1
        _assert_equivalent(seq, pool)
        assert seq.recovery.retries == pool.recovery.retries
        assert seq.recovery.backoff_seconds == pool.recovery.backoff_seconds
        assert seq.recovery.recovered_faults == pool.recovery.recovered_faults

    @pytest.mark.parametrize("pool_cls", POOLS)
    def test_probabilistic_faults_recover_identically(self, pool_cls):
        graph, inputs = _diamond()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        cfg = FaultConfig(seed=6, crash_probability=0.2,
                          shuffle_error_probability=0.1,
                          straggler_probability=0.2)
        seq, pool = _both(plan, inputs, ctx, pool_cls=pool_cls, faults=cfg)
        assert seq.ok
        assert seq.recovery.recovered_faults > 0
        _assert_equivalent(seq, pool)
        assert seq.recovery.retries == pool.recovery.retries
        assert seq.recovery.worker_crashes == pool.recovery.worker_crashes
        assert seq.recovery.transient_errors == pool.recovery.transient_errors

    @pytest.mark.parametrize("pool_cls", POOLS)
    def test_retries_exhausted_fails_identically(self, pool_cls):
        graph, inputs = _diamond()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        persistent = FaultPlan(tuple(
            FaultPlan.crash("L", occurrence=i).faults[0] for i in range(3)))
        policy = RecoveryPolicy(max_retries=2, backoff_base_seconds=0.1)
        seq, pool = _both(plan, inputs, ctx, pool_cls=pool_cls,
                          faults=persistent, recovery=policy)
        assert not seq.ok and not pool.ok
        assert seq.failure == pool.failure
        assert seq.recovery.worker_crashes == pool.recovery.worker_crashes

    @pytest.mark.parametrize("pool_cls", POOLS)
    def test_memory_failure_fails_identically(self, pool_cls):
        """Declared sparsity lies and the spill overflows worker disk: both
        schedulers must surface the same engine failure."""
        rng = np.random.default_rng(0)
        n = 256
        cluster = ClusterConfig(num_workers=4, disk_bytes=1.5e6)
        ctx = OptimizerContext(cluster=cluster)
        g = ComputeGraph()
        a = g.add_source("A", matrix(n, n, sparsity=0.005), sparse_single())
        b = g.add_source("B", matrix(n, n), tiles(64))
        g.add_op("C", MATMUL, (a, b))
        inputs = {"A": rng.standard_normal((n, n)),
                  "B": rng.standard_normal((n, n))}
        plan = optimize(g, ctx, max_states=200)
        seq, pool = _both(plan, inputs, ctx, pool_cls=pool_cls)
        assert not seq.ok and not pool.ok
        assert seq.failure == pool.failure

    @pytest.mark.parametrize("pool_cls", POOLS)
    def test_speculation_decides_identically(self, pool_cls):
        """The speculation win/lose decision depends only on the stage's
        own sub-ledger, so it survives the trip through a worker process."""
        graph, inputs = _diamond()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        straggle = FaultPlan.straggler("L:", slowdown=12.0)
        policy = RecoveryPolicy(speculative_backups=False)
        seq, pool = _both(plan, inputs, ctx, pool_cls=pool_cls,
                          faults=straggle, recovery=policy,
                          speculation=SpeculationPolicy(min_multiplier=5.0))
        assert seq.ok
        assert seq.ledger.straggler_seconds > 0.0
        _assert_equivalent(seq, pool)
        assert seq.critical_path_seconds == pool.critical_path_seconds


class TestMetricsEquivalence:
    """The metrics registry must be BIT-identical between schedulers: every
    float total and the canonical JSON rendering, with and without faults
    (see docs/observability.md)."""

    def _both_metrics(self, plan, inputs, ctx,
                      pool_cls=ThreadPoolScheduler, **kwargs):
        from repro.obs.metrics import MetricsRegistry

        seq_m, pool_m = MetricsRegistry(), MetricsRegistry()
        seq = execute_plan(plan, inputs, ctx,
                           scheduler=SequentialScheduler(),
                           metrics=seq_m, **kwargs)
        pool = execute_plan(plan, inputs, ctx,
                            scheduler=pool_cls(),
                            metrics=pool_m, **kwargs)
        return (seq, seq_m), (pool, pool_m)

    @pytest.mark.parametrize("pool_cls", POOLS)
    def test_clean_run_metrics_bit_identical(self, pool_cls):
        graph, inputs = _diamond()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        (seq, seq_m), (pool, pool_m) = self._both_metrics(
            plan, inputs, ctx, pool_cls=pool_cls)
        assert seq.ok and pool.ok
        assert seq_m.to_json() == pool_m.to_json()
        assert seq_m.counters["execute.stages"] == len(seq.executed_stages)
        assert seq_m.counters["execute.kernel_seconds"] == \
            pool_m.counters["execute.kernel_seconds"]  # exact, not approx

    @pytest.mark.parametrize("pool_cls", POOLS)
    def test_faulty_run_metrics_bit_identical(self, pool_cls):
        graph, inputs = _diamond()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        cfg = FaultConfig(seed=6, crash_probability=0.2,
                          shuffle_error_probability=0.1,
                          straggler_probability=0.2)
        (seq, seq_m), (pool, pool_m) = self._both_metrics(
            plan, inputs, ctx, pool_cls=pool_cls, faults=cfg)
        assert seq.ok and pool.ok
        assert seq_m.to_json() == pool_m.to_json()
        assert seq_m.counters["execute.retries"] >= 1
        assert "execute.recovery_seconds" in seq_m.counters

    @pytest.mark.parametrize("pool_cls", POOLS)
    def test_traced_runs_have_identical_span_ids(self, pool_cls):
        """Span ids derive from the tree shape, not completion order: both
        schedulers produce the same id set (wall-clock times differ)."""
        from repro.obs.tracer import Tracer

        graph, inputs = _diamond()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        seq_t, pool_t = Tracer(), Tracer()
        execute_plan(plan, inputs, ctx, scheduler=SequentialScheduler(),
                     tracer=seq_t)
        execute_plan(plan, inputs, ctx, scheduler=pool_cls(),
                     tracer=pool_t)
        seq_ids = {s.sid for s in seq_t.spans()}
        pool_ids = {s.sid for s in pool_t.spans()}
        assert seq_ids == pool_ids
        assert any(s.kind == "stage" for s in seq_t.spans())


class TestSchedulerKnob:
    """``resolve_scheduler`` mirrors the ``rewrites=`` knob contract:
    strings resolve through an alias table, instances pass through,
    anything else raises a clear ``ValueError``."""

    def test_default_is_sequential(self):
        assert isinstance(resolve_scheduler(None), SequentialScheduler)

    @pytest.mark.parametrize("alias,cls", [
        ("sequential", SequentialScheduler),
        ("seq", SequentialScheduler),
        ("thread-pool", ThreadPoolScheduler),
        ("threads", ThreadPoolScheduler),
        ("thread", ThreadPoolScheduler),
        ("process-pool", ProcessPoolScheduler),
        ("processes", ProcessPoolScheduler),
        ("process", ProcessPoolScheduler),
    ])
    def test_aliases_resolve(self, alias, cls):
        assert isinstance(resolve_scheduler(alias), cls)

    def test_instances_pass_through(self):
        sched = ThreadPoolScheduler(max_workers=2)
        assert resolve_scheduler(sched) is sched

    def test_canonical_names_cover_all_schedulers(self):
        for name in SCHEDULERS:
            assert resolve_scheduler(name).name == name

    def test_documented_names_resolve(self):
        """docs/execution.md's "Selection" paragraph quotes exactly the
        alias table's names, and every one of them resolves."""
        doc = (Path(__file__).resolve().parents[2] / "docs"
               / "execution.md").read_text()
        paragraph = re.search(r"^Selection:.*?(?=\n\n)", doc,
                              re.S | re.M).group(0)
        names = re.findall(r'`"([^"`]+)"`', paragraph)
        assert sorted(names) == sorted(_SCHEDULER_ALIASES)
        for name in names:
            assert isinstance(resolve_scheduler(name),
                              _SCHEDULER_ALIASES[name])

    def test_unknown_string_raises(self):
        with pytest.raises(ValueError, match="unknown scheduler 'bogus'"):
            resolve_scheduler("bogus")

    def test_non_scheduler_object_raises(self):
        with pytest.raises(ValueError, match="scheduler"):
            resolve_scheduler(42)

    def test_execute_plan_rejects_unknown_scheduler(self):
        graph, inputs = _diamond()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        with pytest.raises(ValueError, match="unknown scheduler"):
            execute_plan(plan, inputs, ctx, scheduler="quantum")


class TestProcessPoolSession:
    @pytest.fixture
    def pools_started(self, monkeypatch):
        """Counts the worker pools the process-pool scheduler starts."""
        import repro.engine.scheduler as scheduler_module

        started = []
        real = scheduler_module.ProcessPoolExecutor

        def counting(*args, **kwargs):
            started.append(real(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(scheduler_module, "ProcessPoolExecutor", counting)
        return started

    def test_session_shares_one_pool_across_runs(self, pools_started):
        graph, inputs = _diamond()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        seq = execute_plan(plan, inputs, ctx, scheduler=SequentialScheduler())
        sched = ProcessPoolScheduler(max_workers=2)
        with sched.session():
            runs = [execute_plan(plan, inputs, ctx, scheduler=sched)
                    for _ in range(2)]
        assert len(pools_started) == 1
        for run in runs:
            _assert_equivalent(seq, run)
        # Outside a session every run starts (and joins) its own pool.
        assert execute_plan(plan, inputs, ctx, scheduler=sched).ok
        assert len(pools_started) == 2

    def test_dynamics_runs_every_frontier_in_one_pool(self, pools_started):
        graph, inputs = _diamond()
        ctx = OptimizerContext(cluster=ClusterConfig(num_workers=3))
        plan = optimize(graph, ctx, max_states=200)
        assert len(lower(plan, ctx).frontiers()) > 1
        res = execute_with_dynamics(plan, inputs, ctx,
                                    WorkerTimeline(3, []),
                                    scheduler=ProcessPoolScheduler(2))
        assert res.ok
        assert len(pools_started) == 1


class TestProcessPoolPickling:
    """Everything a :class:`_StageJob` ships to a worker process must
    survive pickling — including fused atoms (which close over local type
    functions) and exceptions with non-default constructors."""

    def test_fused_atom_round_trips_to_same_instance(self):
        atom = fused_atom((FusedStep("add"), FusedStep("relu")))
        clone = pickle.loads(pickle.dumps(atom))
        assert clone is atom  # interned by name

    def test_catalog_atom_round_trips_to_same_instance(self):
        assert pickle.loads(pickle.dumps(MATMUL)) is MATMUL

    def test_lowered_stage_graph_round_trips(self):
        graph, inputs = _diamond()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        sgraph = lower(plan, ctx)
        clone = pickle.loads(pickle.dumps(sgraph))
        assert [s.name for s in clone.stages] == \
            [s.name for s in sgraph.stages]
        assert [s.seconds for s in clone.stages] == \
            [s.seconds for s in sgraph.stages]

    def test_fault_injector_round_trips(self):
        injector = as_injector(FaultConfig(seed=6, crash_probability=0.5), 4)
        with pytest.raises(WorkerCrash):  # seed 6 crashes this stage first
            for _ in range(20):
                injector.before_stage("L:mm_broadcast")
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.cursor() == injector.cursor()
        # The clone keeps drawing the same deterministic fault sequence.
        for _ in range(10):
            a = b = None
            try:
                injector.before_stage("R:mm_broadcast")
            except Exception as exc:  # noqa: BLE001 - comparing draw types
                a = exc
            try:
                clone.before_stage("R:mm_broadcast")
            except Exception as exc:  # noqa: BLE001
                b = exc
            assert type(a) is type(b)

    @pytest.mark.parametrize("exc", [
        EngineFailure("L:mm", "worker RAM exceeded"),
        WorkerCrash("L:mm", 3),
        TransientShuffleError("L:mm"),
        FaultRetriesExhausted("L:mm", 4, WorkerCrash("L:mm", 1)),
    ])
    def test_engine_exceptions_round_trip(self, exc):
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert str(clone) == str(exc)


HASHSEED_PROBE = """
import numpy as np
from repro.core import ComputeGraph, OptimizerContext, matrix, optimize
from repro.core.atoms import ADD, MATMUL
from repro.core.formats import tiles
from repro.engine import execute_plan
from repro.engine.faults import FaultConfig

g = ComputeGraph()
x = g.add_source("X", matrix(48, 48), tiles(16))
wl = g.add_source("WL", matrix(48, 48), tiles(16))
wr = g.add_source("WR", matrix(48, 48), tiles(16))
left = g.add_op("L", MATMUL, (x, wl))
right = g.add_op("R", MATMUL, (x, wr))
g.add_op("OUT", ADD, (left, right))
rng = np.random.default_rng(23)
inputs = {n: rng.standard_normal((48, 48)) for n in ("X", "WL", "WR")}
ctx = OptimizerContext()
plan = optimize(g, ctx, max_states=200)
res = execute_plan(plan, inputs, ctx, scheduler="process-pool",
                   faults=FaultConfig(seed=6, crash_probability=0.2,
                                      shuffle_error_probability=0.1,
                                      straggler_probability=0.2))
assert res.ok, res.failure
for rec in res.ledger.stages:
    print(rec.name, repr(rec.seconds), rec.category)
print("total", repr(res.ledger.total_seconds))
print("retries", res.recovery.retries)
"""


def test_process_pool_is_hashseed_independent(tmp_path):
    """Fault draws hash stage names with SHA-512, not ``hash()``: a faulty
    process-pool run prints the same ledger under any PYTHONHASHSEED."""
    import os

    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    script = tmp_path / "probe.py"
    script.write_text(HASHSEED_PROBE)
    outputs = []
    for seed in ("0", "42"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert "retries" in outputs[0]
    assert outputs[0] == outputs[1]
