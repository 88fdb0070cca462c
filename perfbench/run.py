"""Repository benchmark: four closed-loop workloads and a traced per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-sync --seed 0 --seconds 20 --trace 0

Workloads (see ``perfbench/plan.json`` for why each exists and which
layer metric should move which end-to-end metric):

* ``fleet-sync``   K=1,000,000 fleet task, FedBIAD, 200-client sync rounds;
* ``fleet-async``  the same fleet, FedBuff flushes of 20 under a diurnal trace;
* ``text-lstm``    PTB small preset, 2-layer WordLSTM, FedBIAD;
* ``table1-sweep`` Table I methods x {mnist, fmnist}: a compute pass into a
  fresh on-disk RunStore, then resume passes served from it.

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` runs the
workload untraced and then traced (wrappers from ``tracing.py`` around
each layer's public calls), checks that the learning columns of the
two runs are bit-identical and prints every per-layer metric, tracing
overhead included.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every correctness check passed.

``--size tiny`` runs the same code at a few rounds on a small fleet;
the smoke test (``perfbench/test_smoke.py``) uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("fleet-sync", "fleet-async", "text-lstm", "table1-sweep")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Per-layer metric -> unit.  Busy seconds and call counts cover the
#: traced timed window only (set-up is never traced).
PER_LAYER = {
    "nn.forward_s": "s",
    "nn.forward_calls": "count",
    "nn.backward_s": "s",
    "nn.step_s": "s",
    "client.update_s": "s",
    "client.update_self_s": "s",
    "client.update_share": "%",
    "client.children_share": "%",
    "engine.run_clients_s": "s",
    "data.payload_s": "s",
    "data.payload_calls": "count",
    "data.next_batch_s": "s",
    "rows.mask_s": "s",
    "rows.pattern_s": "s",
    "core.bayes_init_s": "s",
    "core.wire_s": "s",
    "core.resample_ratio": "ratio",
    "aggregation.aggregate_s": "s",
    "aggregation.payloads": "count",
    "metrics.evaluate_s": "s",
    "metrics.evaluate_calls": "count",
    "systems.select_s": "s",
    "systems.arrivals_s": "s",
    "async.updates_per_flush": "count",
    "async.staleness_mean": "flushes",
    "store.get_s": "s",
    "store.get_calls": "count",
    "store.hit_ratio": "ratio",
    "store.put_s": "s",
    "store.put_bytes": "bytes",
    "trace.window_s": "s",
    "trace.overhead_ms": "ms",
}


def _cap_threads() -> int:
    """Keep native thread pools within the CPUs this process may use."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in THREAD_VARIABLES:
        os.environ.setdefault(var, str(cpus))
    return int(os.environ[THREAD_VARIABLES[1]])


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and make sure the
    ``repro`` package imported is the one in it."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def per_layer_metrics(tracer, traced, untraced) -> dict[str, float]:
    """Per-layer figures of one traced run, from its tracer and outcome."""
    busy, calls, counts = tracer.seconds, tracer.calls, tracer.counts
    update_s = busy("client.update")
    judgments = counts["core.judgments"]
    gets = calls["store.get"]
    return {
        "nn.forward_s": busy("nn.forward"),
        "nn.forward_calls": calls["nn.forward"],
        "nn.backward_s": busy("nn.backward"),
        "nn.step_s": busy("nn.step"),
        "client.update_s": update_s,
        "client.update_self_s": tracer.self_seconds("client.update"),
        "client.update_share": 100.0 * update_s / traced.window_s,
        "client.children_share": 100.0 * tracer.child["client.update"] / update_s if update_s else 0.0,
        "engine.run_clients_s": busy("engine.run_clients"),
        "data.payload_s": busy("data.payload"),
        "data.payload_calls": calls["data.payload"],
        "data.next_batch_s": busy("data.next_batch"),
        "rows.mask_s": busy("rows.mask"),
        "rows.pattern_s": busy("rows.pattern"),
        "core.bayes_init_s": busy("core.bayes_init"),
        "core.wire_s": busy("core.wire"),
        "core.resample_ratio": counts["core.resamples"] / judgments if judgments else 0.0,
        "aggregation.aggregate_s": busy("aggregation.aggregate"),
        "aggregation.payloads": counts["aggregation.payloads"],
        "metrics.evaluate_s": busy("metrics.evaluate"),
        "metrics.evaluate_calls": calls["metrics.evaluate"],
        "systems.select_s": busy("systems.select"),
        "systems.arrivals_s": busy("systems.arrivals"),
        "async.updates_per_flush": traced.updates_per_flush,
        "async.staleness_mean": traced.staleness_mean,
        "store.get_s": busy("store.get"),
        "store.get_calls": gets,
        "store.hit_ratio": counts["store.hits"] / gets if gets else 0.0,
        "store.put_s": busy("store.put"),
        "store.put_bytes": counts["store.put_bytes"],
        "trace.window_s": traced.window_s,
        "trace.overhead_ms": traced.metrics["round_ms"] - untraced.metrics["round_ms"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: a few rounds on a small fleet (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    threads = _cap_threads()
    _import_program()
    from tracing import Tracer
    from workloads import END_TO_END, run_workload, same_columns

    print(f"perfbench {args.workload}: seed={args.seed} seconds={args.seconds:g} "
          f"size={args.size} backend=serial closed-loop caller=1 blas_threads={threads}")
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))

    def run(tag: str, tracer=None):
        (scratch / tag).mkdir()
        return run_workload(args.workload, args.seed, args.seconds, args.size,
                            scratch / tag, tracer)

    try:
        untraced = run("untraced")
        outcomes = [untraced]
        if args.trace:
            tracer = Tracer()
            traced = run("traced", tracer)
            outcomes.append(traced)
            if not same_columns(traced.columns, untraced.columns):
                traced.problems.append("traced learning columns differ from the untraced run")
            metrics, units = per_layer_metrics(tracer, traced, untraced), PER_LAYER
        else:
            metrics, units = untraced.metrics, END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for outcome in outcomes:
        for line in outcome.notes:
            print(line)
    for name, unit in units.items():
        print(f"  {name:26s} {metrics[name]:>14.6g} {unit}")
    problems = [p for outcome in outcomes for p in outcome.problems]
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
