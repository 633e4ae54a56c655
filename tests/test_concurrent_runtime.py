"""Concurrency stress suite for the pooled/parallel host runtime.

The concurrent runtime's contract is the same as the serial compiled
path's: *byte identity* with the interpreted oracle — under M threads
hammering one shared executable (each on a pooled private state), and
under the operator-parallel scheduler (hazard-edged dispatch of ready
steps, batch sharding at batch >= 4).  Any interleaving that changes a
single output byte is a missing dependency edge or a shared-state leak,
never acceptable noise.

Also covers the :class:`~repro.runtime.hostpool.StatePool` primitive
directly (lazy binding, reuse, exhaustion/timeout, factory rollback)
and the server-side concurrency gauges.
"""

import threading

import numpy as np
import pytest

from repro.models import build_model
from repro.runtime.compiled import CompiledExecutable
from repro.runtime.hostpool import (
    StatePool,
    StatePoolTimeout,
    resolve_host_workers,
)
from repro.runtime.numerical import execute
from repro.runtime.verify import random_feeds

STRESS_MODELS = ("toy", "mobilenet-v2", "shufflenet-v2")


def _stress(exe, graph, *, threads, runs_each, batch=1, seeds=(0, 1),
            workers=None):
    """M threads x K runs against one shared executable vs the oracle."""
    cases = {}
    for seed in seeds:
        feeds = random_feeds(graph, seed=seed, batch=batch)
        cases[seed] = (feeds, execute(graph, feeds))
    failures = []
    barrier = threading.Barrier(threads)

    def worker(tid):
        try:
            barrier.wait(timeout=60)
            for k in range(runs_each):
                seed = (tid + k) % len(seeds)
                feeds, ref = cases[seed]
                out = exe.run(feeds, workers=workers)
                for name in ref:
                    if ref[name].tobytes() != out[name].tobytes():
                        failures.append(
                            f"thread {tid} run {k} seed {seed}: "
                            f"{name} diverged from the oracle")
        except Exception as exc:  # pragma: no cover - failure path
            failures.append(f"thread {tid}: {type(exc).__name__}: {exc}")

    ts = [threading.Thread(target=worker, args=(i,), daemon=True)
          for i in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join(timeout=300)
        assert not t.is_alive(), "stress worker wedged"
    assert not failures, "\n".join(failures)


class TestPooledByteIdentity:
    """Threads share one executable; each run gets a pooled state."""

    @pytest.mark.parametrize("model", STRESS_MODELS)
    def test_threaded_infer_matches_serial_oracle(self, model):
        graph = build_model(model)
        exe = CompiledExecutable(graph, max_states=4)
        _stress(exe, graph, threads=4, runs_each=3)
        stats = exe.pool_stats()
        assert stats["acquires"] == 4 * 3
        assert stats["in_use"] == 0, "a run leaked its state"
        assert 1 <= stats["states_bound"] <= 4

    def test_pool_binds_lazily_for_serial_callers(self):
        graph = build_model("toy")
        exe = CompiledExecutable(graph, max_states=4)
        feeds = random_feeds(graph, seed=0)
        for _ in range(5):
            exe.run(feeds)
        assert exe.pool_stats()["states_bound"] == 1

    def test_mixed_batch_shapes_under_threads(self):
        # Distinct input shapes bind distinct programs (own pools);
        # concurrent callers across shapes must not cross-contaminate.
        graph = build_model("toy")
        exe = CompiledExecutable(graph, max_states=2)
        refs = {}
        for batch in (1, 8):
            feeds = random_feeds(graph, seed=0, batch=batch)
            refs[batch] = (feeds, execute(graph, feeds))
        failures = []

        def worker(batch):
            feeds, ref = refs[batch]
            for _ in range(4):
                out = exe.run(feeds)
                for name in ref:
                    if ref[name].tobytes() != out[name].tobytes():
                        failures.append(f"batch {batch}: {name} diverged")

        ts = [threading.Thread(target=worker, args=(b,), daemon=True)
              for b in (1, 8, 1, 8)]
        for t in ts:
            t.start()
        for t in ts:
            t.join(timeout=300)
        assert not failures, "\n".join(failures)
        assert exe.pool_stats()["programs"] == 2

    def test_concurrent_first_calls_at_new_batches(self):
        # Every thread's first call binds a new program at once; shapes
        # come from the static rules, so binds race only on the lock.
        graph = build_model("toy")
        exe = CompiledExecutable(graph)
        batches = (1, 2, 3, 8)
        refs = {}
        for batch in batches:
            feeds = random_feeds(graph, seed=batch, batch=batch)
            refs[batch] = (feeds, execute(graph, feeds))
        failures = []
        barrier = threading.Barrier(len(batches))

        def worker(batch):
            try:
                feeds, ref = refs[batch]
                barrier.wait(timeout=60)
                out = exe.run(feeds)
                for name in ref:
                    if ref[name].tobytes() != out[name].tobytes():
                        failures.append(f"batch {batch}: {name} diverged")
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(f"batch {batch}: {type(exc).__name__}: {exc}")

        ts = [threading.Thread(target=worker, args=(b,), daemon=True)
              for b in batches]
        for t in ts:
            t.start()
        for t in ts:
            t.join(timeout=300)
            assert not t.is_alive(), "first-call worker wedged"
        assert not failures, "\n".join(failures)
        assert exe.pool_stats()["programs"] == len(batches)


class TestOperatorParallelByteIdentity:
    """The hazard-edged scheduler must equal serial bit for bit."""

    @pytest.mark.parametrize("model", ("mobilenet-v2", "shufflenet-v2"))
    @pytest.mark.parametrize("batch", (1, 8))
    def test_parallel_schedule_matches_oracle(self, model, batch):
        graph = build_model(model)
        feeds = random_feeds(graph, seed=0, batch=batch)
        ref = execute(graph, feeds)
        exe = CompiledExecutable(graph, workers=4)
        for run in range(3):  # repeats reuse the arena
            out = exe.run(feeds)
            for name in ref:
                assert ref[name].tobytes() == out[name].tobytes(), \
                    f"{name} diverged on parallel run {run}"

    def test_threads_plus_operator_parallel(self):
        # Both concurrency axes at once: pooled states across threads,
        # parallel dispatch within each run, shufflenet's branchy graph.
        graph = build_model("shufflenet-v2")
        exe = CompiledExecutable(graph, workers=4, max_states=2)
        _stress(exe, graph, threads=3, runs_each=2, batch=8)

    def test_run_workers_can_only_lower_width(self):
        graph = build_model("toy")
        feeds = random_feeds(graph, seed=0, batch=8)
        ref = execute(graph, feeds)
        serial_exe = CompiledExecutable(graph, workers=1)
        # Asking a serial executable for more workers must not widen it
        # (its states were bound without sharding/step graphs).
        out = serial_exe.run(feeds, workers=8)
        for name in ref:
            assert ref[name].tobytes() == out[name].tobytes()
        wide_exe = CompiledExecutable(graph, workers=4)
        out = wide_exe.run(feeds, workers=1)  # lowering is honoured
        for name in ref:
            assert ref[name].tobytes() == out[name].tobytes()


class TestStatePool:
    def test_cap_validation(self):
        with pytest.raises(ValueError):
            StatePool(list, cap=0)

    def test_lazy_bind_and_reuse(self):
        built = []
        pool = StatePool(lambda: built.append(1) or object(), cap=3)
        s = pool.acquire()
        pool.release(s)
        t = pool.acquire()
        assert t is s, "free state must be reused, not rebuilt"
        pool.release(t)
        assert len(built) == 1
        assert pool.stats() == {
            "cap": 3, "states_bound": 1, "in_use": 0, "peak_in_use": 1,
            "acquires": 2, "waits": 0}

    def test_exhaustion_times_out(self):
        pool = StatePool(object, cap=1)
        held = pool.acquire()
        with pytest.raises(StatePoolTimeout):
            pool.acquire(timeout_s=0.05)
        assert pool.stats()["waits"] >= 1
        pool.release(held)
        again = pool.acquire(timeout_s=0.05)  # release unblocks
        assert again is held

    def test_release_wakes_blocked_acquirer(self):
        pool = StatePool(object, cap=1)
        held = pool.acquire()
        got = []

        def blocked():
            got.append(pool.acquire(timeout_s=10.0))

        t = threading.Thread(target=blocked, daemon=True)
        t.start()
        # Give the waiter time to block, then hand the state over.
        deadline = threading.Event()
        deadline.wait(0.05)
        pool.release(held)
        t.join(timeout=10)
        assert not t.is_alive()
        assert got == [held]

    def test_factory_failure_rolls_back_slot(self):
        calls = []

        def factory():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("bind failed")
            return object()

        pool = StatePool(factory, cap=1)
        with pytest.raises(RuntimeError, match="bind failed"):
            pool.acquire()
        # The failed bind must not burn the slot forever.
        state = pool.acquire(timeout_s=1.0)
        assert state is not None
        assert pool.stats()["states_bound"] == 1

    def test_executable_surfaces_pool_timeout(self):
        graph = build_model("toy")
        exe = CompiledExecutable(graph, max_states=1)
        feeds = random_feeds(graph, seed=0)
        exe.run(feeds)  # bind the single state
        _, pool = exe._pool_for(
            {n: np.asarray(feeds[n], dtype=np.float32)
             for n in graph.inputs})
        held = pool.acquire()  # starve the pool
        try:
            with pytest.raises(StatePoolTimeout):
                exe.run(feeds, state_timeout_s=0.05)
        finally:
            pool.release(held)
        out = exe.run(feeds)  # recovers once the state returns
        ref = execute(graph, feeds)
        for name in ref:
            assert ref[name].tobytes() == out[name].tobytes()


class TestWorkerResolution:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOST_WORKERS", "7")
        assert resolve_host_workers(2) == 2
        assert resolve_host_workers() == 7

    def test_env_default_and_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOST_WORKERS", raising=False)
        assert resolve_host_workers() == 1
        monkeypatch.setenv("REPRO_HOST_WORKERS", "0")
        import os
        assert resolve_host_workers() == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_HOST_WORKERS", "junk")
        assert resolve_host_workers() == 1

    def test_engine_cache_keys_on_width(self, monkeypatch):
        from repro.gpu.config import GpuConfig
        from repro.gpu.device import GpuDevice
        from repro.runtime.engine import ExecutionEngine

        monkeypatch.delenv("REPRO_HOST_WORKERS", raising=False)
        graph = build_model("toy")
        feeds = random_feeds(graph, seed=0)
        engine = ExecutionEngine(GpuDevice(GpuConfig()))
        ref = engine.infer(graph, feeds, compiled=False)
        a = engine.infer(graph, feeds, compiled=True)
        b = engine.infer(graph, feeds, compiled=True, workers=4)
        assert len(engine._compiled_cache) == 2
        for name in ref:
            assert ref[name].tobytes() == a[name].tobytes()
            assert ref[name].tobytes() == b[name].tobytes()
        host = engine.host_stats()
        assert host["executables"] == 2
        assert host["in_use"] == 0


class TestServerConcurrencyGauges:
    def test_server_reports_host_concurrency(self):
        from repro.pimflow import Compiler, PimFlowConfig
        from repro.serve import InferenceServer, ModelRepository, ServerConfig
        from repro.serve.loadgen import run_closed_loop

        plan = Compiler(PimFlowConfig(mechanism="gpu")).build_plan(
            build_model("toy"), model_name="toy")
        repo = ModelRepository()
        repo.register_plan("toy", plan)
        server = InferenceServer(repo, ServerConfig(
            workers=4, max_batch_size=1, max_wait_ms=0.0,
            queue_depth=64, host_states=4))
        with server:
            result = run_closed_loop(server, "toy", clients=4,
                                     requests_per_client=4)
            snap = server.stats()
        assert result.completed == 16
        assert result.failed == 0
        metrics = snap["metrics"] if "metrics" in snap else snap
        assert metrics["host_inflight"] == 0
        assert metrics["host_inflight_peak"] >= 1
        host = snap["host"]
        assert host["models"] == 1
        assert host["in_use"] == 0
        assert 1 <= host["peak_in_use"] <= 4
        assert host["acquires"] >= 16

    def test_host_states_validation(self):
        from repro.serve.server import ServerConfig

        with pytest.raises(ValueError):
            ServerConfig(host_states=0)
