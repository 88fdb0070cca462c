"""The benchmark's four closed-loop workloads.

Every workload runs in this one process on the serial engine backend.
A single caller issues the next round (or sweep pass) only after the
previous one has returned.  A workload turns ``(seed, seconds, size)``
into a fixed schedule: the number of timed rounds comes from
``seconds`` and a nominal per-round cost, so the same arguments always
run the same work and the learning columns are a pure function of the
seed.

Set-up (task build, simulation construction and the warm-up round) is
repeated :data:`SETUP_REPS` times and reported as a median; the last
set-up's simulation goes on into the timed window.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from repro.baselines.registry import make_method
from repro.data import make_task
from repro.experiments.configs import TABLE1_METHODS, preset_for
from repro.experiments.runner import clear_cache, dense_upload_bits, run_experiment
from repro.experiments.store import RunStore
from repro.experiments.sweep import run_sweep
from repro.experiments.table1 import table1_spec
from repro.fl import FLConfig
from repro.fl.async_aggregation import AsyncFederatedSimulation
from repro.fl.checkpoints import restore_checkpoint, save_checkpoint
from repro.fl.simulation import FederatedSimulation

__all__ = ["END_TO_END", "Outcome", "run_workload", "learning_columns", "same_columns"]

#: Set-ups per run; ``setup_s`` is their median.  The sweep's set-up
#: takes a few tens of milliseconds, so it is repeated more often.
SETUP_REPS = 5
SWEEP_SETUP_REPS = 15
#: Checkpoint round trips spread over a single run's timed window;
#: ``resume_s`` of a single run is the median of their restores.
RESUME_SAMPLES = 20
#: Fewest timed units a full-size run measures, whatever ``--seconds`` says.
MIN_UNITS = 5
#: The peak-RSS bound benchmarks/test_fleet_bench.py holds K=1M runs to.
FLEET_RSS_BOUND_MB = 1024.0

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "round_ms": "ms",
    "client_updates_per_s": "1/s",
    "cell_s": "s",
    "resume_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
    "upload_kbit": "kbit",
}


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def learning_columns(history) -> list[np.ndarray]:
    """The columns that must not depend on tracing, backend or timing."""
    return [
        history.series("train_loss"),
        history.series("test_accuracy"),
        history.series("upload_bits_total"),
    ]


def same_columns(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    """Bit-for-bit equality of two column lists (NaN equals NaN)."""
    return len(a) == len(b) and all(
        x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b)
    )


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    columns: list[np.ndarray]
    window_s: float  # wall-clock of the timed window (the traced part)
    updates_per_flush: float = 0.0
    staleness_mean: float = 0.0
    notes: list[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# round workloads: fleet-sync, fleet-async, text-lstm
# ----------------------------------------------------------------------

def _preset_task(name: str, scale: str):
    """A task built from its preset's data seed, as the experiment runner
    builds it: ``--seed`` varies the run (selection, initialization,
    patterns, batches), never the dataset."""
    return make_task(name, scale, seed=preset_for(name, scale).data_seed)


def _fleet_task(size: str):
    # K = 1,000,000 at full size; the 5,000-client preset for smoke runs
    return _preset_task("fleet", "paper" if size == "full" else "small")


def _fleet_config(task, seed: int, size: str, rounds: int, **extra) -> FLConfig:
    """examples/fleet_scale.py's settings at a 200-client cohort."""
    cohort = 200 if size == "full" else 20
    fields = dict(
        rounds=rounds, kappa=cohort / task.n_clients, local_iterations=5,
        batch_size=16, lr=0.3, dropout_rate=0.2, eval_every=5,
        system="fleet", seed=seed,
    )
    fields.update(extra)
    return FLConfig(**fields)


def build_fleet_sync(seed: int, size: str, rounds: int):
    task = _fleet_task(size)
    return task, _fleet_config(task, seed, size, rounds)


def build_fleet_async(seed: int, size: str, rounds: int):
    task = _fleet_task(size)
    cohort = 200 if size == "full" else 20
    config = _fleet_config(
        task, seed, size, rounds, mode="async", max_concurrency=cohort,
        buffer_size=cohort // 10, system="trace:flash-diurnal",
    )
    return task, config


def build_text_lstm(seed: int, size: str, rounds: int):
    """The PTB small preset as it stands (c=6, V=10, eval every 3 rounds,
    R_b=54), so a run shorter than 54 rounds stays in stage one."""
    task = _preset_task("ptb", "small")
    overrides = dict(seed=seed, rounds=rounds)
    if size != "full":
        overrides["kappa"] = 0.1
    return task, preset_for("ptb", "small").fl.with_overrides(**overrides)


@dataclass(frozen=True)
class RoundWorkload:
    name: str
    build: Callable  # (seed, size, rounds) -> (task, FLConfig)
    nominal_unit_s: float  # one timed round/flush on a 2-core x86 box
    tiny_units: int


def _schedule(workload: RoundWorkload, seconds: float, size: str) -> int:
    """Total rounds: one warm-up plus the timed units ``seconds`` buys."""
    if size != "full":
        return 1 + workload.tiny_units
    return 1 + max(MIN_UNITS, round(seconds / workload.nominal_unit_s))


def run_rounds(workload: RoundWorkload, seed: int, seconds: float, size: str,
               scratch: Path, tracer=None) -> Outcome:
    rounds = _schedule(workload, seconds, size)
    problems: list[str] = []
    setups = []
    sim = None
    for _ in range(SETUP_REPS):
        if sim is not None:
            sim.close()
        start = perf_counter()
        task, config = workload.build(seed, size, rounds)
        sim_cls = AsyncFederatedSimulation if config.mode == "async" else FederatedSimulation
        sim = sim_cls(task, make_method("fedbiad"), config)
        sim.history.append(sim.run_round(1))
        setups.append(perf_counter() - start)

    # Every ``stride`` rounds (the last one included) the live run is
    # checkpointed and restored into a spare simulation, as a user
    # resuming it would.  The round trips are spread over the window so
    # that resume_s sees the same host conditions as round_ms, and
    # their time is kept out of the window's figures.
    stride = max(1, (rounds - 1) // RESUME_SAMPLES)
    checkpoint = scratch / "run.ckpt"
    spare = sim_cls(task, make_method("fedbiad"), config)
    durations: list[float] = []
    restores: list[float] = []
    aside = 0.0
    attempted = failed = 0
    try:
        with tracer.installed() if tracer is not None else nullcontext():
            window_start = perf_counter()
            for r in range(2, rounds + 1):
                attempted += 1
                start = perf_counter()
                try:
                    record = sim.run_round(r)
                except Exception:  # a raised round is a failed operation
                    traceback.print_exc(file=sys.stderr)
                    failed += 1
                    break
                durations.append(perf_counter() - start)
                sim.history.append(record)
                if not math.isfinite(record.train_loss):
                    failed += 1
                if (rounds - r) % stride == 0:
                    start = perf_counter()
                    save_checkpoint(sim, checkpoint)
                    saved = perf_counter()
                    restore_checkpoint(spare, checkpoint)
                    restores.append(perf_counter() - saved)
                    aside += perf_counter() - start
            window = perf_counter() - window_start - aside
    finally:
        sim.close()
        spare.close()
    if not same_columns(learning_columns(spare.history), learning_columns(sim.history)):
        problems.append("restored checkpoint history differs from the live run")

    history = sim.history
    timed = history.records[1:]
    if not durations:
        raise RuntimeError(f"{workload.name}: no timed round completed; nothing to measure")
    rss = peak_rss_mb()
    upload_kbit = history.mean_upload_bits() / 1e3
    dense_kbit = dense_upload_bits(task) / 1e3
    metrics = {
        "setup_s": statistics.median(setups),
        "round_ms": statistics.median(durations) * 1e3,
        "client_updates_per_s": sum(r.n_scheduled for r in timed) / window,
        "cell_s": setups[-1] + window,
        # a round that raised ends the loop before the last round trip
        "resume_s": statistics.median(restores) if restores else float("nan"),
        "peak_rss_mb": rss,
        "accuracy": float(history.final_accuracy),
        "upload_kbit": upload_kbit,
    }

    if len(history) != rounds:
        problems.append(f"ran {len(history)} of {rounds} rounds")
    if not 0.0 < metrics["accuracy"] <= 1.0:
        problems.append(f"final accuracy {metrics['accuracy']!r} outside (0, 1]")
    if not upload_kbit < dense_kbit:
        problems.append(f"FedBIAD upload {upload_kbit:.3f} kbit not below dense {dense_kbit:.3f} kbit")
    if workload.name == "fleet-sync":
        cohort = config.clients_per_round(task.n_clients)
        short = [r.round_index for r in history.records if r.n_selected != cohort]
        if short:
            problems.append(f"rounds {short} aggregated fewer than {cohort} clients")
        if rss > FLEET_RSS_BOUND_MB:
            problems.append(f"peak RSS {rss:.0f} MB exceeds {FLEET_RSS_BOUND_MB:.0f} MB")
    if workload.name == "fleet-async":
        buffer = config.resolved_buffer_size(task.n_clients)
        short = [r.round_index for r in timed if r.n_selected != buffer]
        if short:
            problems.append(f"flushes {short} did not buffer exactly {buffer} updates")

    units = "flushes" if config.mode == "async" else "rounds"
    ordered = sorted(durations)
    notes = [
        f"{workload.name}: {len(durations)} timed {units} of {rounds} (1 warm-up); "
        f"round_ms median {metrics['round_ms']:.2f}, min {ordered[0] * 1e3:.2f}, "
        f"max {ordered[-1] * 1e3:.2f}; {SETUP_REPS} set-ups, {len(restores)} restores"
    ]
    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        problems=problems,
        columns=learning_columns(history),
        window_s=window,
        updates_per_flush=float(np.mean([r.n_selected for r in timed])) if config.mode == "async" else 0.0,
        staleness_mean=float(np.mean([r.staleness_mean for r in timed])) if timed else 0.0,
        notes=notes,
    )


# ----------------------------------------------------------------------
# table1-sweep
# ----------------------------------------------------------------------

#: Compute-pass wall-clock of the full 14-cell sweep, and of one resume
#: pass, on a 2-core x86 box; the resume passes fill the rest of ``seconds``.
SWEEP_NOMINAL_COMPUTE_S = 5.9
SWEEP_NOMINAL_RESUME_S = 0.011
MIN_RESUME_PASSES = 20


def _same_result(a, b) -> bool:
    scalars = ("final_accuracy", "best_accuracy", "upload_bits", "dense_bits")
    return all(
        np.array_equal([getattr(a, k)], [getattr(b, k)], equal_nan=True) for k in scalars
    ) and same_columns(learning_columns(a.history), learning_columns(b.history))


def run_table1_sweep(seed: int, seconds: float, size: str, scratch: Path,
                     tracer=None) -> Outcome:
    if size == "full":
        datasets, methods, overrides = ("mnist", "fmnist"), TABLE1_METHODS, None
        passes = max(
            MIN_RESUME_PASSES,
            round(max(seconds - SWEEP_NOMINAL_COMPUTE_S, 0.0) / SWEEP_NOMINAL_RESUME_S),
        )
    else:
        datasets, methods, overrides, passes = ("mnist",), ("fedavg", "fedbiad"), {"rounds": 3}, 3
    spec = table1_spec(datasets=datasets, methods=methods, scale="small",
                       seeds=(seed,), overrides=overrides)
    n_cells = len(spec)
    problems: list[str] = []

    # set-up: fresh runner caches, both tasks built, one warm-up round each
    setups = []
    for _ in range(SWEEP_SETUP_REPS):
        clear_cache()
        start = perf_counter()
        for dataset in datasets:
            run_experiment(dataset, "fedavg", scale="small", seed=seed,
                           config_overrides={"rounds": 1}, use_cache=False)
        setups.append(perf_counter() - start)

    # A cell that raises aborts run_sweep, and with it this run: there is
    # no sweep left to time.  Non-finite losses are counted per cell below.
    root = scratch / "store"
    failed = 0
    resume_times: list[float] = []
    with tracer.installed() if tracer is not None else nullcontext():
        window_start = perf_counter()
        computed = run_sweep(spec, store=RunStore(root))
        compute_s = perf_counter() - window_start
        for p in range(passes):
            clear_cache()
            store = RunStore(root)
            start = perf_counter()
            resumed = run_sweep(spec, store=store)
            resume_times.append(perf_counter() - start)
            failed += n_cells - resumed.reused
            if resumed.computed != 0 or resumed.reused != n_cells:
                problems.append(
                    f"resume pass {p}: computed={resumed.computed} reused={resumed.reused}, "
                    f"expected 0 and {n_cells}"
                )
            if p == 0 and not all(_same_result(computed[cell], resumed[cell]) for cell in spec):
                problems.append("resume pass results differ from the compute pass")
        window = perf_counter() - window_start

    results = [computed[cell] for cell in spec]
    for cell, result in zip(spec, results):
        if not np.all(np.isfinite(result.history.series("train_loss"))):
            failed += 1
            problems.append(f"cell {cell.label()} has a non-finite train loss")
    if computed.computed != n_cells or computed.reused != 0:
        problems.append(
            f"compute pass: computed={computed.computed} reused={computed.reused}, "
            f"expected {n_cells} and 0"
        )
    total_rounds = sum(len(r.history) for r in results)
    updates = sum(int(r.history.series("n_scheduled").sum()) for r in results)
    metrics = {
        "setup_s": statistics.median(setups),
        "round_ms": compute_s / total_rounds * 1e3,
        "client_updates_per_s": updates / compute_s,
        "cell_s": compute_s / max(computed.computed, 1),
        "resume_s": statistics.median(resume_times),
        "peak_rss_mb": peak_rss_mb(),
        "accuracy": float(np.mean([r.final_accuracy for r in results])),
        "upload_kbit": float(np.mean([r.upload_bits for r in results])) / 1e3,
    }
    notes = [
        f"table1-sweep: {n_cells} cells, {total_rounds} rounds in the compute pass "
        f"({compute_s:.2f}s); resume_s median of {len(resume_times)} passes; "
        f"{SWEEP_SETUP_REPS} set-ups"
    ]
    columns = [col for r in results for col in learning_columns(r.history)]
    return Outcome(
        metrics=metrics, attempted=n_cells * (1 + passes), failed=failed,
        problems=problems, columns=columns, window_s=window, notes=notes,
    )


# ----------------------------------------------------------------------

ROUND_WORKLOADS = {
    "fleet-sync": RoundWorkload("fleet-sync", build_fleet_sync, 0.40, 3),
    "fleet-async": RoundWorkload("fleet-async", build_fleet_async, 0.044, 4),
    "text-lstm": RoundWorkload("text-lstm", build_text_lstm, 0.60, 2),
}


def run_workload(name: str, seed: int, seconds: float, size: str, scratch: Path,
                 tracer=None) -> Outcome:
    """Run one workload once, traced when ``tracer`` is given."""
    if name == "table1-sweep":
        return run_table1_sweep(seed, seconds, size, scratch, tracer)
    return run_rounds(ROUND_WORKLOADS[name], seed, seconds, size, scratch, tracer)
