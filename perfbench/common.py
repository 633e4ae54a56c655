"""Helpers the three workloads share: the wrapped entry points, seeded
feeds, the byte-identity check, and per-phase layer aggregation."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping

import numpy as np

from tracing import Tracer, layer_table, self_times

#: Where results, traces and scratch files go (ignored by git).
OUT = Path(__file__).resolve().parent / "out"


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (one span name each).

    A feeds dict registered in ``tracer.requests`` attributes the calls
    made with it, on any thread, to its request."""
    import repro.pimflow as pimflow
    import repro.runtime.bufferplan as bufferplan
    import repro.runtime.compiled as compiled
    from repro.gpu.device import GpuDevice
    from repro.pim.device import PimDevice
    from repro.plan.artifact import ExecutionPlan
    from repro.runtime.engine import ExecutionEngine
    from repro.runtime.executor import PlanExecutor
    from repro.runtime.hostpool import StatePool
    from repro.serve.pricing import BatchCostModel
    from repro.serve.repository import ModelRepository
    from repro.serve.server import InferenceServer

    C = pimflow.Compiler
    for owner, attr, name in (
            (C, "build_plan", "compiler.build_plan"),
            (C, "prepare", "transform.prepare"),
            (pimflow, "apply_decisions", "transform.apply"),
            (C, "profile", "search.profile"),
            (C, "solve", "search.solve"),
            (PimDevice, "run_gemv", "pim.run_gemv"),
            (PimDevice, "run_node", "pim.run_node"),
            (GpuDevice, "run_node", "gpu.run_node"),
            (ExecutionEngine, "run", "engine.run"),
            (bufferplan, "plan_buffers", "bufferplan.plan"),
            (compiled, "plan_buffers", "bufferplan.plan"),
            (ExecutionPlan, "save", "plan.save"),
            (ExecutionPlan, "load", "plan.load"),
            (compiled.ExecutionState, "__init__", "compiled.bind_state"),
            (StatePool, "acquire", "hostpool.acquire"),
            (BatchCostModel, "batch_makespan_us", "pricing.batch"),
            (ModelRepository, "get", "repository.get")):
        tracer.wrap(owner, attr, name)
    requests = tracer.requests
    tracer.wrap(PlanExecutor, "infer", "executor.infer",
                request_of=lambda ex, feeds, *a, **k: requests.get(id(feeds)))
    tracer.wrap(InferenceServer, "submit", "serve.submit",
                request_of=lambda srv, model, feeds, *a, **k:
                requests.get(id(feeds)))


def make_feeds(rng: np.random.Generator, graph, batch: int = 1
               ) -> Dict[str, np.ndarray]:
    """Seeded float32 inputs for every graph input at ``batch``."""
    feeds = {}
    for name in graph.inputs:
        shape = (batch,) + tuple(graph.tensors[name].shape[1:])
        feeds[name] = (rng.standard_normal(shape) * 0.1).astype(np.float32)
    return feeds


def same_bytes(out: Mapping[str, np.ndarray],
               ref: Mapping[str, np.ndarray]) -> bool:
    """Byte identity: same names, shapes, dtypes and bytes."""
    if set(out) != set(ref):
        return False
    for name, want in ref.items():
        got = np.asarray(out[name])
        if got.shape != want.shape or got.dtype != want.dtype \
                or got.tobytes() != want.tobytes():
            return False
    return True


def phase_layers(tracer: Tracer, prefix: str) -> Dict[str, Dict[str, float]]:
    """The layer table of everything under top-level spans ``prefix*``,
    including what other threads did while they were open."""
    return layer_table(tracer.during(prefix))


def layer_metrics(tracer: Tracer, prefix: str, ops: int
                  ) -> Dict[str, tuple]:
    """The per-layer metrics every workload reports, over its traced
    measured pass (the top-level spans ``prefix*``): for each wrapped
    layer, its calls per workload operation and its self time as a
    share of the pass's wall time.  A layer the workload does not reach
    reads 0 on both."""
    table = phase_layers(tracer, prefix)
    wall_ms = sum(s.dur for s in tracer.roots(prefix)) / 1e6
    out = {}
    for name in tracer.layers:
        row = table.get(name, {})
        out[f"{name}.calls_per_op"] = (row.get("calls", 0) / ops, "count")
        out[f"{name}.busy_pct"] = (100.0 * row.get("self_ms", 0.0) / wall_ms,
                                   "%")
    return out


def coverage(tracer: Tracer, prefix: str, wall_s: float) -> Dict[str, float]:
    """How well the traced top-level spans account for the measured
    wall time: the self times of every span under them must add up to
    the roots' durations, and those to ``wall_s``."""
    spans = tracer.under(prefix)
    selfs = self_times(spans)
    self_sum = sum(selfs.values()) / 1e9
    roots = sum(s.dur for s in tracer.roots(prefix)) / 1e9
    return {"roots": prefix, "wall_s": wall_s, "root_s": roots,
            "self_sum_s": self_sum,
            "self_over_wall": self_sum / wall_s if wall_s else 0.0}
