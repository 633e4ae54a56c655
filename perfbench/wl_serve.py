"""``serve``: seeded Poisson open-loop arrivals at fixed rates against one
default-config ``InferenceServer`` over mobilenet-v2 : resnet-50 = 3 : 1.

One generator thread submits each request at its due time and every
latency is taken from that due time, so a stalled server also delays
the requests behind it.  The rates are constants chosen on a 2-core
host whose mix capacity is about 11-13 requests/s: a low one, a
moderate one (at least 100 requests, so that ten lie beyond p90), one
at the knee, and an overload of about twice capacity.  Only here do
admission, batching, state-pool contention and pricing run, against
other server workers.  The moderate phase's 100 requests and the
overload's 144 are floors, so this workload measures about 30 s
whatever the time budget.

Its timings (``serve.max_rps``, ``serve.p50_ms``, ``serve.p90_ms``,
``serve.slo_rps``) are printed and reported by the traced run but not
gated: on the 2-core host they were measured on, their quartile spread
over ten seeds reached 0.26, 0.82, 1.1 and 0.83 of the median, past
the widest bound the benchmark may set.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from common import OUT, make_feeds, phase_layers, same_bytes
from common import coverage as _coverage
from repro import Compiler, ExecutionPlan, PimFlowConfig, build_model
from repro.runtime.numerical import execute
from repro.serve.errors import DeadlineExceeded, ServeError
from repro.serve.repository import ModelRepository
from repro.serve.server import InferenceServer
from stats import (OUTCOMES, account, accounting_holds, backlog_growing,
                   departure_rate, missed_as_inf, percentile, slo_rate,
                   summarize)

MIX = (("mobilenet-v2", 3), ("resnet-50", 1))
#: Feeds per model in the request pool.
POOL = 6
#: (label, rate in requests/s, share of the time budget, minimum count).
PHASES = (("low", 2.0, 0.10, 4),
          ("moderate", 6.0, 0.70, 100),
          ("knee", 12.0, 0.10, 24),
          ("overload", 24.0, 0.20, 144))
#: Name prefix of the measured top-level spans.
PREFIX = "serve."
#: Latency limit on p90 for ``serve.slo_rps``.
SLO_MS = 500.0
#: How long a collected request may take before it counts as lost.
RESULT_TIMEOUT_S = 60.0


def make_inputs(ctx):
    names = [name for name, _ in MIX]
    weights = np.array([w for _, w in MIX], dtype=float)
    pools = {}
    for i, name in enumerate(names):
        graph = build_model(name)
        rng = np.random.default_rng([ctx.seed, 10 + i])
        pools[name] = [make_feeds(rng, graph) for _ in range(POOL)]
    schedules = {}
    for j, (label, rate, share, least) in enumerate(PHASES):
        rng = np.random.default_rng([ctx.seed, 100 + j])
        n = max(least, int(round(rate * share * ctx.seconds)))
        schedules[label] = {
            "rate": rate,
            "due": np.cumsum(rng.exponential(1.0 / rate, n)),
            "model": rng.choice(len(names), size=n, p=weights / weights.sum()),
            "feed": rng.integers(POOL, size=n)}
    return {"names": names, "pools": pools, "schedules": schedules}


def setup(ctx, inputs):
    """Compile, round-trip each plan through a lean artifact, register
    it, start the server and warm every model with one request."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    repo = ModelRepository()
    plans = {}
    for name in inputs["names"]:
        plan = Compiler(PimFlowConfig(mechanism="pimflow")).build_plan(
            build_model(name), model_name=name)
        path = tmp / f"serve-{name}.plan.json"
        plan.save(path, include_weights=False)
        lean = ExecutionPlan.load(path)
        ctx.check(not lean.diff(plan), f"{name}: lean plan round trip differs")
        plans[name] = (plan, path.stat().st_size)
        path.unlink()
        repo.register_plan(name, plan)
    server = InferenceServer(repo).start()
    warm = {name: server.infer(name, inputs["pools"][name][0]).outputs
            for name in inputs["names"]}
    return {"server": server, "plans": plans, "warm": warm,
            "request_ids": itertools.count(1)}


def teardown(state) -> None:
    server = state.get("server")
    if server is not None:
        server.stop()
    state.clear()


def prepare_checks(ctx, inputs, state) -> None:
    oracle = {}
    for name, (plan, _) in state["plans"].items():
        for k, feeds in enumerate(inputs["pools"][name]):
            oracle[(name, k)] = execute(plan.graph, feeds)
    state["oracle"] = oracle
    for name, out in state.pop("warm").items():
        ctx.check(same_bytes(out, oracle[(name, 0)]),
                  f"{name}: warm-up response differs from the oracle")


def _sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _run_phase(ctx, inputs, state, label):
    """Offer one phase's arrivals, then collect every outcome."""
    sched = inputs["schedules"][label]
    server, names = state["server"], inputs["names"]
    requests = ctx.tracer.requests if ctx.tracer.enabled else {}
    before = server.stats()
    sent = []
    start = time.perf_counter()
    for due_off, mi, k in zip(sched["due"], sched["model"], sched["feed"]):
        name = names[mi]
        due = start + due_off
        _sleep_until(due)
        feeds = dict(inputs["pools"][name][k])
        requests[id(feeds)] = next(state["request_ids"])
        t_sub = time.perf_counter()
        try:
            handle = server.submit(name, feeds)
        except ServeError:
            handle = None
        sent.append((due, t_sub, name, int(k), handle, feeds))
    arrivals_end = time.perf_counter()
    outcomes, latencies, queue_ms, per_model = [], [], [], {}
    device_us, done_at = [], []
    for due, t_sub, name, k, handle, feeds in sent:
        lat = None
        if handle is None:
            outcome = "rejected"
        else:
            try:
                resp = handle.result(RESULT_TIMEOUT_S)
            except DeadlineExceeded:
                outcome = "expired"
            except ServeError:
                outcome = "failed"
            except Exception:  # still pending, or an untyped error
                outcome = "untyped"
            else:
                outcome = "completed"
                if same_bytes(resp.outputs, state["oracle"][(name, k)]):
                    lat = (t_sub - due) * 1e3 + resp.latency_ms
                    queue_ms.append(resp.queue_ms)
                    device_us.append(resp.device_us)
                    done_at.append(t_sub + resp.latency_ms / 1e3)
                    per_model.setdefault(name, []).append(lat)
                else:
                    outcome = "mismatch"
        # Every offered request is one operation: it fails when its
        # outcome is untyped or its response differs from the oracle.
        ctx.check(outcome in OUTCOMES,
                  f"{label} {name} feed {k}: outcome {outcome}")
        requests.pop(id(feeds), None)
        outcomes.append("failed" if outcome == "mismatch" else outcome)
        latencies.append(lat)
    end = time.perf_counter()
    after = server.stats()
    counts = account(outcomes)
    ctx.check(accounting_holds(counts),
              f"{label}: offered != completed + rejected + expired + failed")
    delta = {k: after[k] - before[k]
             for k in ("completed", "batches", "host_exec_ms", "rejected")}
    delta["waits"] = after["host"]["waits"] - before["host"]["waits"]
    ctx.check(delta["completed"] == counts.get("completed")
              and delta["rejected"] == counts.get("rejected"),
              f"{label}: server counters disagree with client outcomes")
    lats = missed_as_inf(latencies)
    row = {
        "rate": sched["rate"], "counts": counts,
        "p50_ms": percentile(lats, 50), "p90_ms": percentile(lats, 90),
        "latency": summarize(lats),
        "backlog": backlog_growing(lats),
        "queue_ms": queue_ms, "per_model": per_model,
        "lag_ms": [(t_sub - due) * 1e3 for due, t_sub, *_ in sent],
        "batch_mean": delta["completed"] / max(1, delta["batches"]),
        "host_ms_per_req": delta["host_exec_ms"] / max(1, delta["completed"]),
        "device_us_per_req": (sum(device_us) / len(device_us)
                              if device_us else 0.0),
        "completed_rps": departure_rate(done_at),
        "host_waits": delta["waits"],
        "arrival_s": arrivals_end - start, "wall_s": end - start}
    return row


def measure(ctx, inputs, state):
    rows = {}
    for label, *_ in PHASES:
        t0 = time.perf_counter()
        rows[label] = ctx.tracer.run(f"serve.{label}", _run_phase,
                                     ctx, inputs, state, label)
        rows[label]["span_wall_s"] = time.perf_counter() - t0
    m = {"rows": rows,
         "wall_s": sum(r["span_wall_s"] for r in rows.values())}
    label = "traced" if ctx.tracer.enabled else "untraced"
    ctx.info[f"serve_{label}"] = {
        k: {"rate": r["rate"], "p50_ms": r["p50_ms"], "p90_ms": r["p90_ms"],
            "latency": r["latency"], "backlog": r["backlog"],
            "counts": r["counts"], "batch_mean": r["batch_mean"],
            "completed_rps": r["completed_rps"],
            "lag_max_ms": max(r["lag_ms"]), "wall_s": r["wall_s"]}
        for k, r in rows.items()}
    return m


def finish_checks(ctx, inputs, state) -> None:
    pass


def ungated(m):
    rows = m["rows"]
    mod = rows["moderate"]
    return {
        "serve.max_rps": (rows["overload"]["completed_rps"], "1/s"),
        "serve.p50_ms": (mod["p50_ms"], "ms"),
        "serve.p90_ms": (mod["p90_ms"], "ms"),
        "serve.slo_rps": (slo_rate(list(rows.values()), SLO_MS), "1/s"),
    }


def ops(m):
    """Measured operations: one per offered request."""
    return sum(r["counts"]["offered"] for r in m["rows"].values())


def per_layer(ctx, inputs, state, passes):
    m = passes[True]
    rows = m["rows"]
    mod, over = rows["moderate"], rows["overload"]
    tab = phase_layers(ctx.tracer, PREFIX)
    setup = phase_layers(ctx.tracer, "setup")
    out = dict(ungated(passes[False]))
    out.update({
        "serve.queue_p50_ms": (percentile(mod["queue_ms"], 50), "ms"),
        "serve.queue_p90_ms": (percentile(mod["queue_ms"], 90), "ms"),
        "serve.host_ms_per_req": (over["host_ms_per_req"], "ms"),
        "serve.rejected_ratio": (over["counts"]["rejected"]
                                 / over["counts"]["offered"], "ratio"),
        "pricing.device_us_per_req": (mod["device_us_per_req"], "us"),
        "serve.gen_lag_p99_ms": (percentile(
            [x for r in rows.values() for x in r["lag_ms"]], 99), "ms"),
        "hostpool.acquire_wait_ms": (
            tab.get("hostpool.acquire", {}).get("self_ms", 0.0)
            / max(1, tab.get("hostpool.acquire", {}).get("calls", 0)),
            "ms"),
        "hostpool.waits": (sum(r["host_waits"] for r in rows.values()),
                           "count"),
        "repository.load_ms": (
            setup.get("repository.get", {}).get("total_ms", 0.0), "ms"),
        "plan.save_ms": (setup.get("plan.save", {}).get("total_ms", 0.0),
                         "ms"),
        "plan.load_ms": (setup.get("plan.load", {}).get("total_ms", 0.0),
                         "ms"),
        "plan.kb": (sum(size for _, size in state["plans"].values()) / 1e3,
                    "kB"),
    })
    for label, r in rows.items():
        out[f"serve.batch_mean.{label}"] = (r["batch_mean"], "count")
    for name in inputs["names"]:
        lats = mod["per_model"].get(name, [])
        out[f"serve.{name}.p50_ms"] = (percentile(lats, 50), "ms")
        out[f"serve.{name}.p90_ms"] = (percentile(lats, 90), "ms")
    layers = {f"measure/{k}": v for k, v in tab.items()}
    layers.update({f"setup/{k}": v for k, v in setup.items()})
    return layers, out


def coverage(ctx, m):
    return _coverage(ctx.tracer, PREFIX, m["wall_s"])
