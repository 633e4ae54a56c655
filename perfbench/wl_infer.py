"""``infer``: one closed-loop client calling ``PlanExecutor.infer``.

The pimflow plans of three models, each bound by a different kernel
kind at batch 1 (mobilenet-v2 depthwise conv, efficientnet-v1-b0
elementwise, resnet-50 GEMM), are called in seeded round-robin order on
feeds from a seeded pool, first at batch 1 and then at batch 8, where
batch sharding and GEMM sharding may engage.  The first call at each
batch size binds (and at batch 8 captures shapes); it is part of
set-up.

The latencies (``infer.<model>.b1_ms``) and ``infer.b8_img_s`` are
printed and reported by the traced run but not gated: the 2-core host
they were measured on moves between a fast and a slow state for
minutes at a time, and over ten seeds their quartile spread reached
0.25 and 0.41 of the median, the widest bound the benchmark may set.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from common import coverage as _coverage
from common import make_feeds, phase_layers, same_bytes
from repro import Compiler, PimFlowConfig, PlanExecutor, build_model
from repro.gpu.kernels import node_flops_bytes
from repro.runtime.numerical import execute
from stats import median, summarize

MODELS = ("mobilenet-v2", "efficientnet-v1-b0", "resnet-50")
#: Feeds per model in the batch-1 and batch-8 pools.
POOL_B1 = 3
POOL_B8 = 1
BATCH = 8
#: Share of the time budget given to the batch-1 phase.
B1_SHARE = 0.4
#: Rounds (one call per model each) every phase runs at least.
MIN_ROUNDS = 2
#: Name prefix of the measured top-level spans.
PREFIX = "infer."
#: Op kinds reported from ``step_profile``.
KINDS = ("dwconv", "gemm", "fused", "elementwise", "copy", "other")


def make_inputs(ctx):
    pools = {}
    for i, name in enumerate(MODELS):
        graph = build_model(name)
        rng = np.random.default_rng([ctx.seed, 10 + i])
        pools[name] = {
            1: [make_feeds(rng, graph, 1) for _ in range(POOL_B1)],
            BATCH: [make_feeds(rng, graph, BATCH) for _ in range(POOL_B8)]}
    return {"pools": pools, "order_rng": np.random.default_rng([ctx.seed, 1])}


def setup(ctx, inputs):
    """Build, compile, bind at batch 1, then capture and bind at batch 8."""
    state = {"executors": {}, "first_ms": {1: {}, BATCH: {}}, "warm": {},
             "request_ids": itertools.count(1)}
    for name in MODELS:
        plan = Compiler(PimFlowConfig(mechanism="pimflow")).build_plan(
            build_model(name), model_name=name)
        state["executors"][name] = PlanExecutor(plan)
    for batch in (1, BATCH):
        for name, ex in state["executors"].items():
            feeds = inputs["pools"][name][batch][0]
            t0 = time.perf_counter()
            out = ex.infer(feeds)
            state["first_ms"][batch][name] = (time.perf_counter() - t0) * 1e3
            state["warm"][(name, batch)] = out
    return state


def teardown(state) -> None:
    state.clear()


def prepare_checks(ctx, inputs, state) -> None:
    """Oracle outputs of every pooled feed (not timed)."""
    oracle = {}
    for name, ex in state["executors"].items():
        for batch, feeds_list in inputs["pools"][name].items():
            for k, feeds in enumerate(feeds_list):
                oracle[(name, batch, k)] = execute(ex.plan.graph, feeds)
    state["oracle"] = oracle
    for (name, batch), out in state.pop("warm").items():
        ctx.check(same_bytes(out, oracle[(name, batch, 0)]),
                  f"{name} b{batch} first call differs from the oracle")


def _phase(ctx, inputs, state, batch, budget_s, times):
    tracer, rng = ctx.tracer, inputs["order_rng"]
    pools, oracle = inputs["pools"], state["oracle"]
    wall = 0.0
    rounds = 0
    last = 0.0
    deadline = time.perf_counter() + budget_s
    while rounds < MIN_ROUNDS or time.perf_counter() + last <= deadline:
        t_round = time.perf_counter()
        for i in rng.permutation(len(MODELS)):
            name = MODELS[i]
            k = int(rng.integers(len(pools[name][batch])))
            feeds = pools[name][batch][k]
            ex = state["executors"][name]
            t0 = time.perf_counter()
            out = tracer.run(f"infer.b{batch}", ex.infer, feeds,
                             request=next(state["request_ids"]))
            dt = time.perf_counter() - t0
            wall += dt
            times[name].append(dt * 1e3)
            ctx.check(same_bytes(out, oracle[(name, batch, k)]),
                      f"{name} b{batch} feed {k} differs from the oracle")
        rounds += 1
        last = time.perf_counter() - t_round
    return wall


def measure(ctx, inputs, state):
    m = {"b1": {n: [] for n in MODELS}, "b8": {n: [] for n in MODELS}}
    b1_wall = _phase(ctx, inputs, state, 1, ctx.seconds * B1_SHARE, m["b1"])
    b8_wall = _phase(ctx, inputs, state, BATCH,
                     ctx.seconds * (1 - B1_SHARE), m["b8"])
    m["wall_s"] = b1_wall + b8_wall
    m["b8_img_s"] = BATCH * sum(map(len, m["b8"].values())) / b8_wall
    label = "traced" if ctx.tracer.enabled else "untraced"
    ctx.info[f"infer_{label}"] = {
        "b1_ms": {n: summarize(v) for n, v in m["b1"].items()},
        "b8_ms": {n: summarize(v) for n, v in m["b8"].items()}}
    return m


def finish_checks(ctx, inputs, state) -> None:
    pass


def ungated(m):
    out = {f"infer.{n}.b1_ms": (median(v), "ms") for n, v in m["b1"].items()}
    out["infer.b8_img_s"] = (m["b8_img_s"], "1/s")
    return out


def ops(m):
    """Measured operations: one per ``PlanExecutor.infer`` call."""
    return sum(len(v) for phase in ("b1", "b8") for v in m[phase].values())


def per_layer(ctx, inputs, state, passes):
    untraced, traced = passes[False], passes[True]
    tabs = {p: phase_layers(ctx.tracer, f"infer.{p}")
            for p in ("b1", f"b{BATCH}")}
    out = dict(ungated(untraced))
    sharded = 0
    waits = 0
    for name, ex in state["executors"].items():
        b1 = median(untraced["b1"][name])
        b8 = median(untraced["b8"][name])
        first = state["first_ms"]
        out[f"compiled.{name}.bind_b1_ms"] = (first[1][name] - b1, "ms")
        out[f"compiled.{name}.bind_b8_ms"] = (first[BATCH][name] - b8, "ms")
        kinds, _ = ex.engine.executable(ex.plan.graph).step_profile(
            inputs["pools"][name][1][0], rounds=3, detail=True)
        for kind in KINDS:
            out[f"compiled.{name}.{kind}_ms"] = (
                kinds.get(kind, {}).get("ms", 0.0), "ms")
        flops = sum(node_flops_bytes(node, ex.plan.graph)[0]
                    for node in ex.plan.graph.nodes)
        out[f"compiled.{name}.gflop_s"] = (flops / (b1 * 1e-3) / 1e9,
                                           "GFLOP/s")
        out[f"compiled.{name}.b8_ms"] = (b8, "ms")
        stats = ex.host_stats()
        sharded = max(sharded, stats.get("gemm_sharded_steps", 0))
        waits += stats.get("waits", 0)
    out["gemmpar.sharded_steps"] = (sharded, "count")
    acquire = sum(t.get("hostpool.acquire", {}).get("self_ms", 0.0)
                  for t in tabs.values())
    calls = sum(map(len, traced["b1"].values())) + sum(
        map(len, traced["b8"].values()))
    out["hostpool.acquire_wait_ms"] = (acquire / calls, "ms")
    out["hostpool.waits"] = (waits, "count")
    layers = {f"{p}/{k}": v for p, tab in tabs.items() for k, v in tab.items()}
    return layers, out


def coverage(ctx, m):
    return _coverage(ctx.tracer, PREFIX, m["wall_s"])
