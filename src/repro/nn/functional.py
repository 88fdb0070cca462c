"""Functional operations built on :class:`repro.nn.tensor.Tensor`.

Contains the fused, numerically stable classification losses used by the
image-classification and next-word-prediction workloads of the FedBIAD
evaluation, plus a few free-function aliases for the elementwise ops.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _unbroadcast, as_tensor

__all__ = [
    "linear",
    "transposed_weight",
    "relu",
    "tanh",
    "sigmoid",
    "log_softmax",
    "softmax",
    "cross_entropy",
    "stack",
    "concat",
    "embedding_lookup",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, ``max(x, 0)``."""
    return as_tensor(x).relu()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return as_tensor(x).tanh()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return as_tensor(x).sigmoid()


def _log_softmax_data(logits: np.ndarray) -> np.ndarray:
    """Stable log-softmax along the last axis of a raw array."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def transposed_weight(weight: Tensor) -> Tensor:
    """``weight`` with its last two axes swapped, as its own graph node.

    Every use of a weight in :func:`linear` and the fused LSTM gates
    goes through a fresh node of this kind, which fixes the order in
    which the backward walk sums a reused weight's contributions.
    """
    return weight.transpose(tuple(range(weight.ndim - 2)) + (weight.ndim - 1, weight.ndim - 2))


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight^T + bias`` over any leading axes.

    ``weight`` is ``(out, in)`` for one client or ``(c, out, in)`` for a
    cohort stack whose ``x`` is ``(c, ..., in)``.  ``Tensor.T`` reverses
    *every* axis, so ``x @ weight.T`` is only right for a 2-D weight;
    this swaps the last two.  Forward and backward are the NumPy
    expressions of the transpose -> matmul -> add chain it replaces, so
    a 2-D call computes bit-for-bit what that chain did.

    The matmul and the bias add are one graph node.  The weight still
    enters through its own transposed-view node: a weight used at many
    steps (LSTM gates, a tied decoder) then receives its gradient
    contributions in the same order as through the chain — with the
    weight as a direct parent the backward walk would sum them in
    reverse, which moves results in the last bit.
    """
    x = as_tensor(x)
    wt = transposed_weight(weight)
    out = x.data @ wt.data
    if bias is not None:
        out = out + bias.data

    def backward(grad: np.ndarray) -> list:
        pairs = []
        if x.requires_grad:
            pairs.append((x, _unbroadcast(grad @ weight.data, x.data.shape)))
        pairs.append((wt, _unbroadcast(np.swapaxes(x.data, -1, -2) @ grad, wt.data.shape)))
        if bias is not None:
            pairs.append((bias, _unbroadcast(grad, bias.data.shape)))
        return pairs

    parents = (x, wt) if bias is None else (x, wt, bias)
    return Tensor._node(out, parents, backward)


def log_softmax(logits: Tensor) -> Tensor:
    """Log-softmax along the last axis with a fused backward pass."""
    logits = as_tensor(logits)
    out_data = _log_softmax_data(logits.data)
    probs = np.exp(out_data)

    def backward(grad: np.ndarray) -> list:
        # d log_softmax = grad - softmax * sum(grad)
        return [(logits, grad - probs * grad.sum(axis=-1, keepdims=True))]

    return Tensor._node(out_data, (logits,), backward)


def softmax(logits: Tensor) -> Tensor:
    """Softmax along the last axis (computed via stable log-softmax)."""
    return log_softmax(logits).exp()


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    reduction: str = "mean",
    axis: int | None = None,
) -> Tensor:
    """Softmax cross-entropy with integer targets.

    Parameters
    ----------
    logits:
        Tensor of shape ``(..., n_classes)``.
    targets:
        Integer array of shape ``(...)`` matching the leading dimensions
        of ``logits``.
    reduction:
        ``"mean"`` (default), ``"sum"``, or ``"none"``.
    axis:
        ``None`` (default): ``"mean"``/``"sum"`` reduce every axis.
        ``-1``: they reduce the last target axis only, so one minibatch
        ``(batch,)`` gives a scalar and a cohort stack ``(c, batch)``
        gives one loss per client — what the models pass.

    The forward and backward passes are fused: the backward closure uses
    the classic ``softmax - onehot`` expression so that no intermediate
    graph nodes are materialized for the inner softmax.  This is the hot
    path of every local training iteration in the simulation.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    if axis not in (None, -1):
        raise ValueError(f"axis must be None or -1, got {axis!r}")
    if targets.shape != logits.data.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits {logits.data.shape}"
        )
    n_classes = logits.data.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise ValueError("target labels out of range")

    log_probs = _log_softmax_data(logits.data)
    flat_lp = log_probs.reshape(-1, n_classes)
    flat_t = targets.reshape(-1).astype(np.intp)
    losses = -flat_lp[np.arange(flat_t.size), flat_t].reshape(targets.shape)

    if reduction == "none":
        out_data = losses
    elif reduction == "sum":
        out_data = np.asarray(losses.sum(axis=axis))
    elif reduction == "mean":
        out_data = np.asarray(losses.mean(axis=axis))
    else:
        raise ValueError(f"unknown reduction {reduction!r}")
    count = flat_t.size if axis is None else targets.shape[-1]

    probs = np.exp(log_probs)

    def backward(grad: np.ndarray) -> list:
        g = probs.copy()
        flat_g = g.reshape(-1, n_classes)
        flat_g[np.arange(flat_t.size), flat_t] -= 1.0
        if reduction == "none":
            flat_g *= np.asarray(grad).reshape(-1, 1)
        elif axis is None:
            flat_g *= float(grad) / max(count, 1) if reduction == "mean" else float(grad)
        else:
            # one upstream gradient per reduced row, e.g. per client
            scale = grad / max(count, 1) if reduction == "mean" else grad
            g *= np.asarray(scale)[..., None, None]
        return [(logits, g)]

    return Tensor._node(out_data, (logits,), backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors of identical shape along a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> list:
        slices = np.split(grad, len(tensors), axis=axis)
        return [
            (t, np.squeeze(s, axis=axis)) for t, s in zip(tensors, slices)
        ]

    return Tensor._node(out_data, tuple(tensors), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> list:
        pairs = []
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            pairs.append((t, grad[tuple(index)]))
        return pairs

    return Tensor._node(out_data, tuple(tensors), backward)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` by integer ``indices``.

    ``weight`` is ``(vocab, dim)`` for one client, or a cohort stack
    ``(c, vocab, dim)`` whose ``indices`` carry the same leading client
    axis.  The gradient is scattered back with ``np.add.at`` so repeated
    indices accumulate correctly, in index order.
    """
    weight = as_tensor(weight)
    indices = np.asarray(indices, dtype=np.intp)
    vocab, dim = weight.data.shape[-2:]
    if weight.data.ndim == 3:
        # client k's row v is row k * vocab + v of the flattened stack
        lead = np.arange(weight.data.shape[0]).reshape((-1,) + (1,) * (indices.ndim - 1))
        flat_index = lead * vocab + indices
    else:
        flat_index = indices

    def backward(grad: np.ndarray) -> list:
        full = np.zeros_like(weight.data)
        np.add.at(full.reshape(-1, dim), flat_index.reshape(-1), grad.reshape(-1, dim))
        return [(weight, full)]

    return Tensor._node(weight.data.reshape(-1, dim)[flat_index], (weight,), backward)
