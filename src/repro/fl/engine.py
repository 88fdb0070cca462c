"""Pluggable execution backends for the federated round loop.

The server orchestration (:mod:`repro.fl.simulation`) no longer runs
client updates inline; it hands the selected cohort to an
:class:`ExecutionBackend`:

* :class:`SerialBackend` — runs the cohort in-process;
* :class:`ProcessPoolBackend` — fans contiguous slices of the cohort
  out over a ``multiprocessing`` pool.  Because every client draws from
  its own seeded RNG stream (``default_rng([seed, round, client])``)
  and the results come back in selection order, the produced
  :class:`~repro.fl.metrics.History` is identical to the serial one
  regardless of worker count — only wall-clock fields differ.

Both backends funnel through :func:`execute_clients`, the single
definition of "run these clients' round": it walks the clients in
order and trains them in stacked chunks
(:func:`~repro.fl.client.train_cohort`) of at most
:func:`~repro.fl.client.chunk_size` clients sharing one batch shape.
A client's result does not depend on which chunk it lands in, so
numerical equivalence is by construction rather than by convention.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from dataclasses import dataclass

import numpy as np

from ..nn.models import build_model
from .client import (
    ClientContext,
    ClientUpdate,
    FederatedMethod,
    batch_shape,
    chunk_size,
    train_cohort,
)
from .config import FLConfig
from .parameters import ParamSet

__all__ = [
    "ClientResult",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "BACKEND_NAMES",
    "make_backend",
    "execute_clients",
]


@dataclass
class ClientResult:
    """One client's round output plus its measured local wall-clock."""

    client_id: int
    update: ClientUpdate
    state: dict  # the client's persistent state after this round
    #: measured local-training wall-clock (LTTR): the client's share of
    #: its chunk's stacked training plus its own start and finish
    lttr_seconds: float


def execute_clients(
    task,
    method: FederatedMethod,
    model,
    config: FLConfig,
    global_params: ParamSet,
    round_index: int,
    client_ids,
    states: list[dict],
    payloads: list | None = None,
) -> list[ClientResult]:
    """Run these clients' local round, in order — shared by every backend.

    Clients go into stacked chunks in the order given; a chunk closes
    at :func:`~repro.fl.client.chunk_size` clients or where the batch
    shape changes.  Each client's RNG stream is derived from
    ``(seed, round, client)`` alone and every per-client phase keeps
    its draw order, so a result does not depend on the process, the
    order, or the chunk the client runs in.

    ``payloads`` optionally carries the clients' already-materialized
    data (pool workers receive the cohort's payloads from the parent
    instead of re-deriving them); the batcher over a shipped payload is
    identical to one built through ``task.batcher`` because lazy
    sources are pure functions of ``(data seed, client)``.
    """
    results: list[ClientResult] = []
    chunk: list[ClientContext] = []
    limit, shape = 0, None

    def flush() -> None:
        for ctx, (update, lttr) in zip(chunk, train_cohort(method, chunk)):
            results.append(ClientResult(ctx.client_id, update, ctx.state, lttr))
        chunk.clear()

    for k, client_id in enumerate(client_ids):
        client_id = int(client_id)
        rng = np.random.default_rng([config.seed, round_index, client_id])
        if payloads is not None:
            batcher = task.batcher_from_payload(payloads[k], config.batch_size, rng)
        else:
            batcher = task.batcher(client_id, config.batch_size, rng)
        ctx = ClientContext(
            client_id=client_id,
            round_index=round_index,
            global_params=global_params,
            model=model,
            batcher=batcher,
            config=config,
            rng=rng,
            state=states[k],
        )
        if chunk and (len(chunk) == limit or batch_shape(batcher) != shape):
            flush()
        if not chunk:
            limit, shape = chunk_size(model, batcher), batch_shape(batcher)
        chunk.append(ctx)
    if chunk:
        flush()
    return results


class ExecutionBackend:
    """Strategy interface: how one round's client cohort is executed.

    Implementations must return one :class:`ClientResult` per selected
    client, *in selection order* (aggregation is order-sensitive only
    through floating-point summation, but keeping the order fixed makes
    backends interchangeable bit-for-bit).
    """

    name = "base"

    def run_clients(
        self,
        task,
        method: FederatedMethod,
        model,
        config: FLConfig,
        global_params: ParamSet,
        round_index: int,
        selected: np.ndarray,
        states: dict[int, dict],
    ) -> list[ClientResult]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (worker pools); idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Run the cohort sequentially in the calling process."""

    name = "serial"

    def run_clients(
        self, task, method, model, config, global_params, round_index, selected, states
    ) -> list[ClientResult]:
        return execute_clients(
            task, method, model, config, global_params, round_index,
            selected, [states[int(cid)] for cid in selected],
        )


# ----------------------------------------------------------------------
# process-pool backend
# ----------------------------------------------------------------------

# Per-worker cache: the task (the big payload — client shards and the
# test set) and a model instance are shipped once at pool start instead
# of once per client job.
_WORKER_STATE: dict = {}

#: Stands in for ``method.task`` inside pickled method blobs; workers
#: swap their cached task back in.  Methods referencing the task would
#: otherwise drag the full dataset into every job tuple.
_TASK_PLACEHOLDER = "__task_lives_in_worker_state__"


def _swap_task_refs(method, old, new) -> None:
    """Replace ``old`` with ``new`` wherever a method (or a wrapped
    method, e.g. ``CombinedMethod.base``) holds it as an attribute."""
    stack, seen = [method], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        attrs = getattr(obj, "__dict__", None)
        if not attrs:
            continue
        for name, value in attrs.items():
            if value is old:
                attrs[name] = new
            elif isinstance(value, FederatedMethod):
                stack.append(value)


def _dump_round_blob(method, task, global_params) -> bytes:
    """Pickle the round's shared payload (method + global parameters)
    once, with the method's (large) task references masked out."""
    _swap_task_refs(method, task, _TASK_PLACEHOLDER)
    try:
        return pickle.dumps((method, global_params), protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        _swap_task_refs(method, _TASK_PLACEHOLDER, task)


def _worker_init(task, model_spec: dict, seed: int) -> None:  # pragma: no cover - subprocess
    _WORKER_STATE["task"] = task
    _WORKER_STATE["model"] = build_model(model_spec, np.random.default_rng([seed, 0xBEEF]))


def _worker_run(
    round_blob, round_key, config, round_index, client_ids, states, payloads=None
):  # pragma: no cover - subprocess
    # The round's shared payload (task-stripped method + global params)
    # is serialized once per round in the parent and deserialized at
    # most once per round per worker.  The raw bytes still travel in
    # every job tuple (Pool offers no per-worker broadcast), but bytes
    # re-pickle as a memcpy, so the per-job cost is transfer only.
    if _WORKER_STATE.get("round_key") != round_key:
        method, global_params = pickle.loads(round_blob)
        _swap_task_refs(method, _TASK_PLACEHOLDER, _WORKER_STATE["task"])
        _WORKER_STATE["method"] = method
        _WORKER_STATE["global_params"] = global_params
        _WORKER_STATE["round_key"] = round_key
    return execute_clients(
        _WORKER_STATE["task"],
        _WORKER_STATE["method"],
        _WORKER_STATE["model"],
        config,
        _WORKER_STATE["global_params"],
        round_index,
        client_ids,
        states,
        payloads=payloads,
    )


class ProcessPoolBackend(ExecutionBackend):
    """Fan client updates out over a ``multiprocessing`` pool.

    The pool is created lazily on the first round (workers are
    initialized with the task and a fresh model replica) and reused for
    the rest of the simulation.  Each round splits the cohort into one
    contiguous slice per worker, which the worker trains in stacked
    chunks exactly as the serial backend does.  Each round ships one
    shared blob (task-stripped method + global parameters) plus
    per-client states;
    since methods only mutate *server-side* state inside ``aggregate``
    (which still runs in the parent), shipping a snapshot per round is
    sound.

    Parameters
    ----------
    workers:
        Pool size; ``0``/``None`` means ``os.cpu_count()``.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``
        (cheap on Linux) and falls back to ``spawn``.
    """

    name = "process"

    def __init__(self, workers: int | None = None, start_method: str | None = None) -> None:
        self.workers = int(workers) if workers else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method
        self._pool = None
        self._pool_key: tuple | None = None
        self._pool_task = None
        self._round_serial = 0

    def _ensure_pool(self, task, config: FLConfig):
        # the held task reference keeps id() stable for the key's lifetime
        key = (id(task), config.seed)
        if self._pool is not None and self._pool_key == key and self._pool_task is task:
            return self._pool
        self.close()
        ctx = multiprocessing.get_context(self.start_method)
        self._pool = ctx.Pool(
            processes=self.workers,
            initializer=_worker_init,
            initargs=(task, task.model_spec, config.seed),
        )
        self._pool_key = key
        self._pool_task = task
        return self._pool

    def run_clients(
        self, task, method, model, config, global_params, round_index, selected, states
    ) -> list[ClientResult]:
        if len(selected) == 0:
            return []
        pool = self._ensure_pool(task, config)
        round_blob = _dump_round_blob(method, task, global_params)
        self._round_serial += 1
        round_key = (id(self), self._round_serial)
        # Lazy tasks (e.g. fleet-scale generated shards) ship only the
        # *cohort's* payloads, materialized once in the parent, so each
        # worker pays O(shard) transfer instead of regenerating or
        # holding per-client materializations.  Eager tasks already
        # live whole in every worker; their jobs ship no payload
        # (bit-identical historical path).
        ship = bool(getattr(task, "ships_cohort_payloads", False))
        jobs = []
        for part in np.array_split(np.asarray(selected), min(self.workers, len(selected))):
            ids = [int(cid) for cid in part]
            jobs.append((
                round_blob, round_key, config, round_index, ids,
                [states[cid] for cid in ids],
                [task.client_payload(cid) for cid in ids] if ship else None,
            ))
        # starmap preserves job order, so results come back in selection
        # order no matter which worker finished first.
        return [res for part in pool.starmap(_worker_run, jobs) for res in part]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_key = None
            self._pool_task = None


BACKEND_NAMES = ("serial", "process")


def make_backend(name: str, workers: int | None = None) -> ExecutionBackend:
    """Build a backend from its registry name (``FLConfig.backend``)."""
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend(workers=workers)
    raise ValueError(f"unknown backend {name!r}; choose from {BACKEND_NAMES}")
