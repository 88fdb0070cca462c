"""Client-side machinery: the method interface and the local SGD loop.

A *federated method* (FedBIAD or a baseline) plugs into the simulation
through four hooks:

* :meth:`FederatedMethod.setup` — called once with the shared model;
* :meth:`FederatedMethod.start_client` — one client's start of a round:
  the parameters its local model begins from, the keep masks pinned
  through training, and an optional per-iteration hook
  (:class:`LocalStart`);
* :meth:`FederatedMethod.finish_client` — turns the client's trained
  parameters and losses into a :class:`ClientUpdate`;
* :meth:`FederatedMethod.aggregate` — combines updates into the next
  global parameters (defaults to the masked weighted mean of
  :mod:`repro.fl.aggregation`).

Local training itself is not a method hook: :func:`train_cohort` runs a
chunk of clients as one *cohort stack* (:meth:`repro.nn.Module.stack`),
and :func:`run_cohort_sgd` — the single local-training loop — does one
forward, one backward, one SGD step and one mask pass per iteration
for the whole chunk.  It implements the masked update rule of Eq. (7):
gradients of dropped rows are zeroed, and dropped rows are pinned to
zero after every step so momentum or weight decay cannot resurrect
them.  Everything stochastic stays per client, in the same order on
each client's own RNG stream as a one-client run.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..nn.module import Module
from ..nn.optim import SGD
from ..nn.tensor import Tensor
from .aggregation import ClientPayload, aggregate
from .config import FLConfig
from .parameters import ParamSet
from .rows import RowSpace
from .sizing import dense_bits

__all__ = [
    "ClientContext",
    "ClientUpdate",
    "FederatedMethod",
    "LocalStart",
    "batch_shape",
    "chunk_size",
    "run_cohort_sgd",
    "train_cohort",
]

#: Op size at which stacking stops paying.  Stacking amortizes per-op
#: Python overhead, so a chunk grows until its typical op holds this many
#: bytes: the chunk size is this budget over the mean bytes of one
#: client's op (floor 1) — 27 clients for the fleet MLP, a whole cohort
#: of 6 for the small PTB word LSTM, one for paper-scale models.  Not a
#: knob; tests override it to force chunk sizes.
_CHUNK_BYTES = 64 << 10


@dataclass
class ClientContext:
    """Everything a method sees while updating one client."""

    client_id: int
    round_index: int  # 1-based, as in Algorithm 1
    global_params: ParamSet
    model: Module  # the shared one-client model; training runs on a stack of it
    batcher: object  # ImageBatcher | SequenceBatcher
    config: FLConfig
    rng: np.random.Generator
    state: dict  # per-client persistent storage across rounds

    @property
    def n_samples(self) -> int:
        return self.batcher.n_samples


@dataclass
class ClientUpdate:
    """A client's contribution plus its measured costs."""

    payload: ClientPayload
    upload_bits: int
    train_losses: list[float] = field(default_factory=list)
    aux: dict = field(default_factory=dict)

    @property
    def mean_loss(self) -> float:
        return float(np.mean(self.train_losses)) if self.train_losses else float("nan")


@dataclass
class LocalStart:
    """A client's start of a round: where its local training begins.

    ``params`` is the local model training starts from (already masked
    and scaled as it should train).  ``masks`` are keep masks pinned
    through the round: row masks ``(rows,)`` or elementwise masks of
    the parameter's shape.  ``on_iteration(v, loss, live)`` runs after
    every step with the client's live parameter views; it may rewrite
    them and returns new masks to switch patterns mid-round, or
    ``None``.  ``aux`` carries whatever the method's finish needs.
    """

    params: ParamSet
    masks: dict[str, np.ndarray] | None = None
    on_iteration: Callable[[int, float, dict[str, np.ndarray]], dict | None] | None = None
    aux: dict = field(default_factory=dict)


class FederatedMethod:
    """Base class for FedBIAD and all baselines."""

    name = "base"
    #: whether this method's client masks depend on the recurrent /
    #: embedding matrices being droppable (FedDrop/AFD cannot drop them)
    drops_recurrent = True

    def __init__(self) -> None:
        self.rowspace: RowSpace | None = None
        self.task = None
        self.config: FLConfig | None = None

    # ------------------------------------------------------------------
    def setup(self, model: Module, task, config: FLConfig, rng: np.random.Generator) -> None:
        """Called once before round 1 with the shared model instance."""
        self.rowspace = RowSpace.from_module(model)
        self.task = task
        self.config = config

    def start_client(self, ctx: ClientContext) -> LocalStart:
        """One client's start of a round (initial params, masks, hook)."""
        raise NotImplementedError

    def finish_client(
        self,
        ctx: ClientContext,
        start: LocalStart,
        trained: ParamSet,
        losses: list[float],
    ) -> ClientUpdate:
        """Turn one client's trained parameters into its upload."""
        raise NotImplementedError

    def client_update(self, ctx: ClientContext) -> ClientUpdate:
        """Run one client's whole round: a one-client cohort."""
        return train_cohort(self, [ctx])[0][0]

    def aggregate(
        self,
        round_index: int,
        prev_global: ParamSet,
        updates: list[ClientUpdate],
    ) -> ParamSet:
        """Default: masked weighted mean (Eq. 10 / per-row variant)."""
        payloads = [u.payload for u in updates]
        return aggregate(payloads, prev_global, mode=self.config.aggregation)

    def download_bits(self, global_params: ParamSet) -> int:
        """Per-client downlink payload; the server broadcasts densely."""
        return dense_bits(global_params)

    def make_optimizer(self, model: Module) -> SGD:
        cfg = self.config
        return SGD(
            model.parameters(),
            lr=cfg.lr,
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
            max_grad_norm=cfg.max_grad_norm,
            stacked=model.cohort is not None,
        )


# ----------------------------------------------------------------------
# the cohort loop
# ----------------------------------------------------------------------

def _stack_masks(
    model: Module, masks: list[dict[str, np.ndarray] | None]
) -> dict[str, np.ndarray]:
    """Per-client keep masks as one ``(c, ...)`` mask per parameter.

    Row masks stack to ``(c, rows, 1)``; elementwise masks (or a mix)
    to the parameter's full stacked shape.  Clients without a mask on a
    parameter keep all of it.
    """
    shapes = model._client_shapes
    names = {name for m in masks if m for name in m}
    stacked = {}
    for name, p in model.named_parameters():
        if name not in names:
            continue
        rows_only = all(
            not m or name not in m or m[name].ndim < len(shapes[name]) for m in masks
        )
        shape = p.data.shape[:2] + (1,) if rows_only else p.data.shape
        stacked[name] = np.ones(shape, dtype=bool)
    for i, m in enumerate(masks):
        _set_client_masks(stacked, i, m, shapes)
    return stacked


def _set_client_masks(
    stacked: dict[str, np.ndarray],
    index: int,
    masks: dict[str, np.ndarray] | None,
    shapes: dict[str, tuple],
) -> None:
    """Write client ``index``'s masks into its slice of the stacked ones."""
    for name, keep in stacked.items():
        mask = None if masks is None else masks.get(name)
        if mask is None:
            keep[index] = True
        elif mask.ndim < len(shapes[name]):  # a row mask spans its rows
            keep[index] = mask.reshape(mask.shape + (1,) * (len(shapes[name]) - mask.ndim))
        else:
            keep[index] = mask.reshape(keep.shape[1:])


def run_cohort_sgd(
    model: Module,
    optimizer: SGD,
    batchers: list,
    starts: list[LocalStart],
    iterations: int,
    rowspace: RowSpace | None = None,
) -> list[list[float]]:
    """Run ``iterations`` masked SGD steps on a cohort stack.

    ``model`` is a stack of ``len(starts)`` clients (loaded by the
    caller); client ``i`` draws its minibatches from ``batchers[i]``.
    Each iteration is one forward, one backward, one SGD step and one
    mask pass for the whole stack.  Implements Eq. (7):
    ``U <- U - eta * (beta ∘ grad L)`` — when any start has ``masks``,
    ``rowspace`` must be given; gradients of dropped rows are zeroed
    before the step and the rows re-pinned to zero after it.  Each
    client's ``on_iteration`` hook then runs in client order (FedBIAD
    interleaves its adaptive pattern logic, Algorithm 1 lines 18-26,
    here).  Returns the per-client, per-step losses.
    """
    masks = [s.masks for s in starts]
    if any(masks) and rowspace is None:
        raise ValueError("masks require a rowspace")
    keep = _stack_masks(model, masks)
    hooked = [i for i, s in enumerate(starts) if s.on_iteration is not None]
    live = {i: model.client_arrays(i) for i in hooked}
    seed = np.ones(len(starts))
    losses: list[list[float]] = [[] for _ in starts]
    for v in range(iterations):
        batches = [b.next_batch() for b in batchers]
        batch = tuple(np.stack(parts) for parts in zip(*batches))
        optimizer.zero_grad()
        loss: Tensor = model.loss(batch)
        loss.backward(seed)
        if keep:
            rowspace.mask_model_gradients(model, keep)
        optimizer.step()
        if keep:
            rowspace.zero_dropped_rows(model, keep)
        values = loss.data.tolist()
        for i, value in enumerate(values):
            losses[i].append(value)
        for i in hooked:
            new_masks = starts[i].on_iteration(v, values[i], live[i])
            if new_masks is not None:
                _set_client_masks(keep, i, new_masks, model._client_shapes)
    return losses


# ----------------------------------------------------------------------
# chunks: sizing and one chunk's round
# ----------------------------------------------------------------------

#: one model -> {cohort size: reusable stack}
_STACKS: "weakref.WeakKeyDictionary[Module, dict[int, Module]]" = weakref.WeakKeyDictionary()
#: (model layout, batch shapes) -> measured mean bytes per op
_OP_BYTES: dict[tuple, int] = {}


def _stack_of(model: Module, cohort: int) -> Module:
    stacks = _STACKS.setdefault(model, {})
    if cohort not in stacks:
        stacks[cohort] = model.stack(cohort)
    return stacks[cohort]


def batch_shape(batcher) -> tuple:
    """The array shapes one ``next_batch`` returns; clients stack together
    only when theirs agree."""
    return tuple(np.shape(part) for part in batcher.probe_batch())


def _op_bytes(model: Module, batcher) -> int:
    """Mean bytes one client's op owns: the arrays of the op nodes in the
    live autograd graph of a probe forward on a one-client stack (views,
    which own nothing, are not counted).  Probed once per model layout
    and batch shape, without touching any RNG."""
    layout = tuple((name, p.data.shape) for name, p in model.named_parameters())
    key = (type(model).__name__, layout, batch_shape(batcher))
    if key not in _OP_BYTES:
        probe = model.stack(1)
        batch = tuple(np.asarray(part)[None] for part in batcher.probe_batch())
        seen, stack, sizes = set(), [probe.loss(batch)], []
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._backward is not None and node.data.flags.owndata:
                sizes.append(node.data.nbytes)
            stack.extend(node._parents)
        _OP_BYTES[key] = max(1, sum(sizes) // max(1, len(sizes)))
    return _OP_BYTES[key]


def chunk_size(model: Module, batcher) -> int:
    """Clients per stacked chunk for this model and batch shape:
    :data:`_CHUNK_BYTES` over one client's mean op size, at least 1."""
    return max(1, _CHUNK_BYTES // _op_bytes(model, batcher))


def train_cohort(
    method: FederatedMethod, contexts: list[ClientContext]
) -> list[tuple[ClientUpdate, float]]:
    """One chunk's round: per-client starts, one stacked training loop,
    per-client finishes.

    All ``contexts`` share one model and one batch shape.  Returns each
    client's update with its local-training time (LTTR): the chunk's
    training wall-clock divided by its clients, plus the client's own
    start and finish.
    """
    own: list[float] = []
    starts: list[LocalStart] = []
    for ctx in contexts:
        begin = time.perf_counter()
        starts.append(method.start_client(ctx))
        own.append(time.perf_counter() - begin)

    begin = time.perf_counter()
    model = _stack_of(contexts[0].model, len(contexts))
    for i, start in enumerate(starts):
        for name, view in model.client_arrays(i).items():
            view[...] = start.params[name]
    losses = run_cohort_sgd(
        model,
        method.make_optimizer(model),
        [ctx.batcher for ctx in contexts],
        starts,
        contexts[0].config.local_iterations,
        method.rowspace,
    )
    trained = [
        ParamSet({name: a.copy() for name, a in model.client_arrays(i).items()})
        for i in range(len(contexts))
    ]
    share = (time.perf_counter() - begin) / len(contexts)

    out = []
    for i, ctx in enumerate(contexts):
        begin = time.perf_counter()
        update = method.finish_client(ctx, starts[i], trained[i], losses[i])
        out.append((update, share + own[i] + time.perf_counter() - begin))
    return out
