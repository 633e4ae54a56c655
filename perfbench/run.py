"""PIMFlow benchmark: compile, offline inference and open-loop serving.

Run from the repository root::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 12 --trace 0

Workloads (``perfbench/wl_*.py``):

* ``compile``  cold-compiles the paper's five CNNs with the ``pimflow``
  mechanism (a fresh ``Compiler`` per model), then recompiles them on
  the same warm toolchains.
* ``infer``    closed loop, one client: ``PlanExecutor.infer`` over the
  pimflow plans of mobilenet-v2, efficientnet-v1-b0 and resnet-50, in
  seeded round-robin order, at batch 1 and then at batch 8.
* ``serve``    seeded Poisson open-loop arrivals at fixed rates against
  one default ``InferenceServer`` over mobilenet-v2 : resnet-50 = 3 : 1.

Everything goes through the public API under the library defaults.
The five threading variables (see :mod:`hostinfo`) are recorded and
then unset before numpy is imported.  Set-up is repeated
:data:`SETUP_REPS` times and ``setup_s`` is the import time plus the
median set-up.  With ``--trace 1`` the measured part runs twice on half
the budget each, first untraced and then with every wrapped entry point
recording spans; the per-layer metrics come from the traced pass, the
difference of the two passes is reported as tracing overhead, and the
spans are written as Chrome trace-event JSON to ``perfbench/out/``.

Every workload reports the same metrics, the ones ``BENCHMARK.json``
lists: ``setup_s`` and ``peak_rss_mb`` untraced, and for each wrapped
layer ``<layer>.calls_per_op`` and ``<layer>.busy_pct`` traced.  The
workload-specific timings and per-layer figures are printed (and kept
in the record) next to them.

Every output is checked against the interpreted oracle; a mismatch is
a failed operation.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The full record,
including the host, goes to ``perfbench/out/<workload>-s<seed>-t<trace>.json``;
``perfbench/compare.py`` summarizes such records (spread per metric, and
base-vs-new medians against the bounds in ``BENCHMARK.json``).  The
benchmark's own tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostinfo  # noqa: E402  (stdlib only)

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "BENCHMARK.json"

WORKLOADS = {"compile": "wl_compile", "infer": "wl_infer",
             "serve": "wl_serve"}

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: In a traced run, the set-up repetition that records spans.
TRACED_REP = 1
#: Allowed gap between summed span self times and measured wall time.
COVERAGE_TOLERANCE = 0.03


class Context:
    """What a workload sees: its inputs' seed, its time budget, the
    tracer, and the operation counters the correctness checks feed."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, tracer) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.info: dict = {}

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_program(workload: str):
    """Import the program from ``<root>/src`` and the workload module;
    exit non-zero without a result if the program is not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")
    return importlib.import_module(WORKLOADS[workload])


def run(args, env_seen) -> dict:
    from common import OUT, instrument, layer_metrics
    from tracing import Tracer

    tracer = Tracer()
    ctx = Context(args.workload, args.seed, float(args.seconds),
                  bool(args.trace), tracer)
    wl = import_program(args.workload)
    import_s = time.perf_counter() - PROCESS_START
    instrument(tracer)

    inputs = wl.make_inputs(ctx)
    setups = []
    for rep in range(SETUP_REPS):
        if rep:
            wl.teardown(state)
        tracer.enabled = ctx.trace and rep == TRACED_REP
        t0 = time.perf_counter()
        state = tracer.run("setup", wl.setup, ctx, inputs)
        setups.append(time.perf_counter() - t0)
        tracer.enabled = False
    t0 = time.perf_counter()
    wl.prepare_checks(ctx, inputs, state)
    oracle_s = time.perf_counter() - t0

    passes = {}
    rss = {}
    if ctx.trace:  # two passes share the budget
        ctx.seconds /= 2
    for traced in ([False, True] if ctx.trace else [False]):
        tracer.enabled = traced
        passes[traced] = wl.measure(ctx, inputs, state)
        tracer.enabled = False
        rss[traced] = peak_rss_mb()
    wl.finish_checks(ctx, inputs, state)

    def e2e(setup_s: float, rss_mb: float) -> dict:
        return {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB")}

    setup_s = import_s + sorted(setups)[len(setups) // 2]
    metrics = e2e(setup_s, rss[False])
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": int(args.trace),
        "host": hostinfo.host_record(env_seen),
        "setup": {"import_s": import_s, "reps_s": setups,
                  "oracle_s": oracle_s},
        "end_to_end": metrics, "ungated": wl.ungated(passes[False]),
        "info": ctx.info,
    }
    if ctx.trace:
        traced = {**e2e(import_s + setups[TRACED_REP], rss[True]),
                  **wl.ungated(passes[True])}
        untraced = {**metrics, **record["ungated"],
                    "setup_s": (import_s + setups[-1], "s")}
        record["tracing_overhead"] = {
            name: traced[name][0] - untraced[name][0] for name in untraced}
        layers, per_layer = wl.per_layer(ctx, inputs, state, passes)
        record["layers"] = layers
        record["per_layer"] = per_layer
        record["layer_metrics"] = layer_metrics(
            tracer, wl.PREFIX, wl.ops(passes[True]))
        cov = record["coverage"] = wl.coverage(ctx, passes[True])
        ctx.check(abs(cov["self_over_wall"] - 1.0) <= COVERAGE_TOLERANCE,
                  f"span self times cover {cov['self_over_wall']:.3f} "
                  f"of the measured wall time")
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-s{args.seed}.json"
        record["trace_events"] = tracer.chrome_trace(
            str(trace_path), {"workload": args.workload, "seed": args.seed})
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    wl.teardown(state)
    tracer.unwrap()
    record["correct"] = ctx.failed == 0
    record["attempted"] = ctx.attempted
    record["failed"] = ctx.failed
    record["failures"] = ctx.failures
    return record


def report(record: dict) -> dict:
    """Print the human-readable summary; return the result line."""
    host = record["host"]
    print(f"# perfbench {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print(f"# host {host['fingerprint']}: nproc={host['nproc']} "
          f"python={host['python']} numpy={host['numpy']} "
          f"blas={host['blas']} env={host['env']}")
    for name, (value, unit) in record["end_to_end"].items():
        print(f"{name:32s} {value:14.4f} {unit}")
    for name, (value, unit) in record["ungated"].items():
        print(f"{name:32s} {value:14.4f} {unit}  (printed, not gated)")
    for key, value in record["info"].items():
        print(f"# {key}: {json.dumps(value)}")
    if record["trace"]:
        print("# layer                        calls     total_ms      self_ms")
        for name, row in sorted(record["layers"].items()):
            print(f"# {name:26s} {row['calls']:8d} {row['total_ms']:12.2f}"
                  f" {row['self_ms']:12.2f}")
        for name, (value, unit) in record["per_layer"].items():
            print(f"{name:40s} {value:14.4f} {unit}")
        for name, (value, unit) in record["layer_metrics"].items():
            print(f"{name:40s} {value:14.4f} {unit}")
        print(f"# tracing overhead: {json.dumps(record['tracing_overhead'])}")
        print(f"# coverage: {json.dumps(record['coverage'])}")
        print(f"# trace: {record['trace_file']} "
              f"({record['trace_events']} events)")
    for what in record["failures"]:
        print(f"# FAILED: {what}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": result_metrics(record)}


def result_metrics(record: dict) -> dict:
    """The metrics ``BENCHMARK.json`` lists for this kind of run
    (``end_to_end`` untraced, ``per_layer`` traced), each in its unit;
    exit non-zero if the run did not measure one of them."""
    section = "per_layer" if record["trace"] else "end_to_end"
    measured = record["layer_metrics" if record["trace"] else "end_to_end"]
    out = {}
    for spec in json.loads(MANIFEST.read_text())[section]:
        value, unit = measured.get(spec["name"], (None, None))
        if value is None or unit != spec["unit"]:
            sys.exit(f"perfbench: {record['workload']} measured no "
                     f"{spec['name']} in {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    env_seen = hostinfo.scrub_env()  # before numpy is imported
    record = run(args, env_seen)
    result = report(record)
    from common import OUT
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
