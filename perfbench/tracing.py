"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions and methods each layer of
``repro`` exposes, for the duration of a ``with tracer.installed():``
block, and restores the originals afterwards.  Nothing under ``src/``
is edited: the wrappers are installed on the classes and modules at
run time and only time the calls, so a traced run computes exactly
what an untraced one does.

Each span group records busy seconds and a call count.  A group that
re-enters itself (a subclass method calling ``super()``) counts its
outermost call only.  Every span also adds its duration to the span
that encloses it, which gives a group's self time: busy time minus
the time of the traced spans directly inside it.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

__all__ = ["Tracer"]


def _subclasses(base) -> list:
    """``base`` and every class derived from it, transitively."""
    seen, stack = [], [base]
    while stack:
        cls = stack.pop()
        if cls not in seen:
            seen.append(cls)
            stack.extend(cls.__subclasses__())
    return seen


def _defining(classes, attr: str) -> list:
    """The ``(class, attr)`` targets of the classes defining ``attr`` themselves."""
    return [(cls, attr) for cls in classes if attr in vars(cls)]


class Tracer:
    """Busy time, calls and self time per layer, plus a few counters."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.child: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._frames: list[list[float]] = []

    # ------------------------------------------------------------------
    def _span(self, group: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._depth[group]:
                return fn(*args, **kwargs)
            tracer._depth[group] += 1
            frame = [0.0]
            tracer._frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._frames.pop()
                tracer._depth[group] -= 1
                tracer.busy[group] += elapsed
                tracer.calls[group] += 1
                tracer.child[group] += frame[0]
                if tracer._frames:
                    tracer._frames[-1][0] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------
    def _on_client_update(self, args, update) -> None:
        self.counts["core.resamples"] += update.aux.get("n_resamples", 0)

    def _on_aggregate(self, args, result) -> None:
        self.counts["aggregation.payloads"] += len(args[3])

    def _on_store_get(self, args, result) -> None:
        self.counts["store.hits"] += result is not None

    def _on_store_put(self, args, result) -> None:
        store, spec = args[0], args[1]
        self.counts["store.put_bytes"] += store.path_for(spec).stat().st_size

    def _targets(self):
        """``(wrapper factory, [(owner, attr), ...])`` for every layer."""
        from repro.baselines import registry as _baselines  # noqa: F401  (registers methods)
        from repro.compression import registry as _compression  # noqa: F401
        from repro.core import client as core_client
        from repro.core.scores import WeightScores
        from repro.data.batching import ImageBatcher, SequenceBatcher
        from repro.data.registry import FederatedTask
        from repro.experiments.store import RunStore
        from repro.fl import simulation
        from repro.fl.client import FederatedMethod
        from repro.fl.engine import SerialBackend
        from repro.fl.rows import RowSpace
        from repro.fl.systems import SystemModel
        from repro.nn.module import Module
        from repro.nn.optim import SGD
        from repro.nn.tensor import Tensor

        methods = _subclasses(FederatedMethod)
        models = _subclasses(Module)
        systems = _subclasses(SystemModel)
        span = self._span
        return [
            (lambda f: span("nn.forward", f), _defining(models, "loss")),
            (lambda f: span("nn.backward", f), [(Tensor, "backward")]),
            (lambda f: span("nn.step", f), [(SGD, "step")]),
            (
                lambda f: span("client.update", f, self._on_client_update),
                _defining(methods, "client_update"),
            ),
            (lambda f: span("engine.run_clients", f), [(SerialBackend, "run_clients")]),
            (lambda f: span("data.payload", f), [(FederatedTask, "client_payload")]),
            (
                lambda f: span("data.next_batch", f),
                [(ImageBatcher, "next_batch"), (SequenceBatcher, "next_batch")],
            ),
            (
                lambda f: span("rows.mask", f),
                [(RowSpace, "mask_model_gradients"), (RowSpace, "zero_dropped_rows")],
            ),
            (
                lambda f: span("rows.pattern", f),
                [(RowSpace, "sample_pattern"), (RowSpace, "pattern_from_scores"),
                 (RowSpace, "split")],
            ),
            (lambda f: span("core.bayes_init", f), [(core_client, "sample_model_init")]),
            (
                lambda f: span("core.wire", f),
                [(core_client, "pack_upload"), (core_client, "reconstruct_upload")],
            ),
            (lambda f: self._counter("core.judgments", f), [(WeightScores, "update")]),
            (
                lambda f: span("aggregation.aggregate", f, self._on_aggregate),
                _defining(methods, "aggregate"),
            ),
            (lambda f: span("metrics.evaluate", f), [(simulation, "evaluate")]),
            (
                lambda f: span("systems.select", f),
                _defining(systems, "available_clients") + [(simulation, "sample_index_cohort")],
            ),
            (
                lambda f: span("systems.arrivals", f),
                _defining(systems, "compute_seconds") + _defining(systems, "network"),
            ),
            (lambda f: span("store.get", f, self._on_store_get), [(RunStore, "get")]),
            (lambda f: span("store.put", f, self._on_store_put), [(RunStore, "put")]),
        ]

    @contextmanager
    def installed(self):
        """Wrap every layer entry point for the duration of the block."""
        saved = []
        try:
            for factory, targets in self._targets():
                for owner, attr in targets:
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, factory(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def seconds(self, group: str) -> float:
        return self.busy.get(group, 0.0)

    def self_seconds(self, group: str) -> float:
        return self.busy.get(group, 0.0) - self.child.get(group, 0.0)
