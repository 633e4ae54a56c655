"""``compile``: cold-compile the paper's five CNNs, then recompile them on
the same warm toolchains.

The cold pass is dominated by ``repro.search`` profiling through the
PIM and GPU simulators; the warm pass hits the profile memo, so it
isolates ``repro.transform`` and ``repro.runtime.bufferplan``.

``compile_s`` and ``recompile_s`` are pure Python and track the speed
of the shared host they run on: over ten seeds their quartile spread
reached 0.31 and 0.44 of the median, so they are printed (and reported
by the traced run) but not gated.  ``modelled_ips`` (1e6 over the
geometric mean of the five plans' ``predicted_time_us``) is printed
too; it is deterministic, so it guards plan quality by being compared,
not by a spread.
"""

from __future__ import annotations

import time

import numpy as np

from common import OUT, make_feeds, phase_layers
from common import coverage as _coverage
from repro import Compiler, ExecutionPlan, PimFlowConfig, build_model
from repro.runtime.verify import EquivalenceError, verify_equivalence
from stats import geomean, median, summarize

MODELS = ("efficientnet-v1-b0", "mobilenet-v2", "mnasnet-1.0", "resnet-50",
          "vgg-16")
#: Cold+warm suites run even when the time budget is smaller.
MIN_ITERS = 3
#: Name prefix of the measured top-level spans.
PREFIX = "compile."


def make_inputs(ctx):
    return {"order_rng": np.random.default_rng([ctx.seed, 1]),
            "feed_rng": np.random.default_rng([ctx.seed, 2])}


def setup(ctx, inputs):
    return {"graphs": {m: build_model(m) for m in MODELS}, "refs": {}}


def teardown(state) -> None:
    state.clear()


def prepare_checks(ctx, inputs, state) -> None:
    pass


def _suite(tracer, name, order, compilers, graphs, plans, times):
    def body():
        for m in order:
            if m not in compilers:
                compilers[m] = Compiler(PimFlowConfig(mechanism="pimflow"))
            t0 = time.perf_counter()
            plans[m] = compilers[m].build_plan(graphs[m], model_name=m)
            times.setdefault(m, []).append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    tracer.run(name, body)
    return time.perf_counter() - t0


def _check_plans(ctx, plans, refs, label) -> None:
    """Every plan must equal the first plan built for its model; the
    first one is checked against the oracle in :func:`finish_checks`."""
    for m, plan in plans.items():
        ref = refs.setdefault(m, plan)
        if ref is not plan:
            diff = plan.diff(ref)
            ctx.check(not diff, f"{label} {m}: plan differs: {diff[:3]}")


def measure(ctx, inputs, state):
    tracer, graphs, refs = ctx.tracer, state["graphs"], state["refs"]
    rng = inputs["order_rng"]
    m = {"cold": [], "warm": [], "per_model_cold": {}, "per_model_warm": {},
         "requests": {"cold": 0, "warm": 0}, "hits": {"cold": 0, "warm": 0},
         "passes_run": {"cold": 0, "warm": 0}}
    start = time.perf_counter()
    deadline = start + ctx.seconds
    last = 0.0
    while len(m["cold"]) < MIN_ITERS or time.perf_counter() + last <= deadline:
        t_iter = time.perf_counter()
        order = [MODELS[i] for i in rng.permutation(len(MODELS))]
        compilers: dict = {}
        for phase in ("cold", "warm"):
            plans: dict = {}
            m[phase].append(_suite(tracer, f"compile.{phase}", order,
                                   compilers, graphs, plans,
                                   m[f"per_model_{phase}"]))
            for name in order:
                summary = compilers[name].last_profile_summary
                m["requests"][phase] += summary.get("requests", 0)
                m["hits"][phase] += summary.get("cache_hits", 0)
                m["passes_run"][phase] += len(plans[name].pass_log)
            _check_plans(ctx, plans, refs, phase)
        del compilers, plans
        last = time.perf_counter() - t_iter
    m["wall_s"] = time.perf_counter() - start
    m["predicted_us"] = {name: refs[name].predicted_time_us
                         for name in MODELS}
    label = "traced" if tracer.enabled else "untraced"
    ctx.info[f"compile_{label}"] = {
        "cold_s": summarize(m["cold"]), "warm_s": summarize(m["warm"]),
        "per_model_cold_s": {k: median(v)
                             for k, v in m["per_model_cold"].items()},
        "per_model_warm_s": {k: median(v)
                             for k, v in m["per_model_warm"].items()},
        "predicted_us": m["predicted_us"]}
    return m


def finish_checks(ctx, inputs, state) -> None:
    """Each reference plan against its source graph through the
    interpreted oracle, and through a lean save/load round trip."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    rng = inputs["feed_rng"]
    for m, plan in sorted(state["refs"].items()):
        graph = state["graphs"][m]
        try:
            verify_equivalence(graph, plan.graph,
                               feeds=make_feeds(rng, graph),
                               use_compiled=False)
            ok, why = True, ""
        except EquivalenceError as exc:
            ok, why = False, str(exc)
        ctx.check(ok, f"{m}: plan graph differs from source: {why}")
        path = tmp / f"{m}.plan.json"
        plan.save(path, include_weights=False)
        diff = ExecutionPlan.load(path).diff(plan)
        path.unlink()
        ctx.check(not diff, f"{m}: save/load round trip differs: {diff[:3]}")


def ungated(m):
    return {"compile_s": (median(m["cold"]), "s"),
            "recompile_s": (median(m["warm"]), "s"),
            "modelled_ips": (1e6 / geomean(list(m["predicted_us"].values())),
                             "1/s")}


def ops(m):
    """Measured operations: one per ``build_plan`` call."""
    return len(MODELS) * (len(m["cold"]) + len(m["warm"]))


def per_layer(ctx, inputs, state, passes):
    m = passes[True]
    tracer = ctx.tracer
    tabs = {p: phase_layers(tracer, f"compile.{p}") for p in ("cold", "warm")}
    n = {p: len(m[p]) for p in ("cold", "warm")}

    def val(phase, layer, key):
        return tabs[phase].get(layer, {}).get(key, 0.0) / n[phase]

    out = dict(ungated(passes[False]))
    for phase, suffix in (("cold", ""), ("warm", ".warm")):
        out[f"transform.prepare_ms{suffix}"] = (
            val(phase, "transform.prepare", "total_ms"), "ms")
        out[f"transform.apply_ms{suffix}"] = (
            val(phase, "transform.apply", "total_ms"), "ms")
        out[f"search.profile_ms{suffix}"] = (
            val(phase, "search.profile", "total_ms"), "ms")
        out[f"search.cache_hit_ratio{suffix}"] = (
            m["hits"][phase] / max(1, m["requests"][phase]), "ratio")
        out[f"bufferplan.plan_ms{suffix}"] = (
            val(phase, "bufferplan.plan", "total_ms"), "ms")
    out["transform.passes_run"] = (m["passes_run"]["cold"] / n["cold"],
                                   "count")
    out["search.solve_ms"] = (val("cold", "search.solve", "total_ms"), "ms")
    out["search.requests"] = (m["requests"]["cold"] / n["cold"], "count")
    out["pim.gemv_calls"] = (val("cold", "pim.run_gemv", "calls"), "count")
    out["pim.sim_ms"] = (val("cold", "pim.run_gemv", "self_ms")
                         + val("cold", "pim.run_node", "self_ms"), "ms")
    out["gpu.node_calls"] = (val("cold", "gpu.run_node", "calls"), "count")
    out["gpu.cost_ms"] = (val("cold", "gpu.run_node", "self_ms"), "ms")
    out["engine.schedule_ms"] = (val("cold", "engine.run", "self_ms"), "ms")
    for name in MODELS:
        ref = state["refs"][name]
        out[f"engine.{name}.modelled_us"] = (ref.predicted_time_us, "us")
        out[f"bufferplan.{name}.arena_mb"] = (
            ref.buffer_plan.get("arena_bytes", 0) / 2 ** 20, "MB")
    layers = {f"{p}/{k}": v for p, tab in tabs.items() for k, v in tab.items()}
    return layers, out


def coverage(ctx, m):
    return _coverage(ctx.tracer, PREFIX, sum(m["cold"]) + sum(m["warm"]))
