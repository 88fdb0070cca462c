"""Recurrent layers: an LSTM cell and a multi-layer LSTM stack.

The paper's next-word-prediction model is a two-layer LSTM; federated
dropout on the *recurrent connections* (the ``w_h`` matrices) is exactly
what FedDrop/AFD cannot do and FedBIAD can (Section I and IV-C), so the
row layout here matters: both ``w_x`` (input-hidden) and ``w_h``
(hidden-hidden) store the four gates stacked along rows, matching the
row-wise dropping illustration of Fig. 4.
"""

from __future__ import annotations

import numpy as np

from . import init as initializers
from .functional import transposed_weight
from .module import Module, Parameter
from .tensor import Tensor, _unbroadcast

__all__ = ["LSTMCell", "LSTM"]


def _gate_slices(acts: np.ndarray) -> list[slice]:
    """Columns of the input, forget, cell and output gates in a
    ``(..., 4 * hidden)`` array."""
    hs = acts.shape[-1] // 4
    return [slice(k * hs, (k + 1) * hs) for k in range(4)]


def _gate_activations(x: Tensor, w_x: Tensor, h: Tensor, w_h: Tensor, bias: Tensor) -> Tensor:
    """``[sigmoid(i), sigmoid(f), tanh(g), sigmoid(o)]`` of the gate
    pre-activations ``(x @ w_x^T + h @ w_h^T) + bias``, as one node.

    Forward and backward are the NumPy expressions of the
    linear -> add -> slice -> activation chain this replaces, so results
    are bit-identical to it.  Each weight enters through its own
    per-step transposed view (as in :func:`~repro.nn.functional.linear`)
    and the parents are listed in the order the chain's backward walk
    reached them, which keeps the order in which a weight's per-step
    gradients are summed.
    """
    wt_x, wt_h = transposed_weight(w_x), transposed_weight(w_h)
    pre = (x.data @ wt_x.data + h.data @ wt_h.data) + bias.data
    cell = _gate_slices(pre)[2]
    acts = 0.5 * (np.tanh(0.5 * pre) + 1.0)  # the tanh-form sigmoid
    acts[..., cell] = np.tanh(pre[..., cell])

    def backward(grad: np.ndarray) -> list:
        # sigmoid: (grad * a) * (1 - a); tanh: grad * (1 - a * a)
        first = acts.copy()
        first[..., cell] = 1.0 - acts[..., cell] * acts[..., cell]
        second = 1.0 - acts
        second[..., cell] = 1.0
        g = grad * first
        g *= second
        pairs = []
        if x.requires_grad:
            pairs.append((x, _unbroadcast(g @ w_x.data, x.data.shape)))
        pairs.append((wt_x, _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, wt_x.data.shape)))
        if h.requires_grad:
            pairs.append((h, _unbroadcast(g @ w_h.data, h.data.shape)))
        pairs.append((wt_h, _unbroadcast(np.swapaxes(h.data, -1, -2) @ g, wt_h.data.shape)))
        pairs.append((bias, _unbroadcast(g, bias.data.shape)))
        return pairs

    return Tensor._node(acts, (x, wt_x, h, wt_h, bias), backward)


def _cell_state(c: Tensor, acts: Tensor) -> Tensor:
    """``c' = f * c + i * g`` as one node.

    The parents are ``(c, acts)`` in that order: the reverse would make
    the backward walk visit the previous state before the gates, and
    change the order in which per-step weight gradients are summed.
    """
    si, sf, sg, _ = _gate_slices(acts.data)
    i, f, g = acts.data[..., si], acts.data[..., sf], acts.data[..., sg]
    out = f * c.data + i * g

    def backward(grad: np.ndarray) -> list:
        g_acts = np.zeros_like(acts.data)
        g_acts[..., si] = grad * g
        g_acts[..., sf] = grad * c.data
        g_acts[..., sg] = grad * i
        pairs = [(c, grad * f)] if c.requires_grad else []
        pairs.append((acts, g_acts))
        return pairs

    return Tensor._node(out, (c, acts), backward)


def _hidden_state(acts: Tensor, c: Tensor) -> Tensor:
    """``h' = o * tanh(c')`` as one node."""
    so = _gate_slices(acts.data)[3]
    o = acts.data[..., so]
    t = np.tanh(c.data)

    def backward(grad: np.ndarray) -> list:
        g_acts = np.zeros_like(acts.data)
        g_acts[..., so] = grad * t
        return [(acts, g_acts), (c, grad * o * (1.0 - t * t))]

    return Tensor._node(o * t, (acts, c), backward)


class LSTMCell(Module):
    """A single LSTM layer processing one timestep at a time.

    Parameters are stored gate-stacked:

    * ``w_x`` — shape ``(4 * hidden_size, input_size)``
    * ``w_h`` — shape ``(4 * hidden_size, hidden_size)``
    * ``bias`` — shape ``(4 * hidden_size,)``

    with gate order (input, forget, cell, output).  The forget-gate bias
    is initialized to 1, the standard recipe for stable training.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        bound = 1.0 / np.sqrt(hidden_size)
        # One pattern bit per hidden unit covers its four gate rows
        # (activation-consistent dropout, Section III-C of the paper).
        self.w_x = Parameter(
            initializers.uniform((4 * hidden_size, input_size), rng, bound=bound),
            droppable=True,
            row_units=hidden_size,
        )
        self.w_h = Parameter(
            initializers.uniform((4 * hidden_size, hidden_size), rng, bound=bound),
            droppable=True,
            row_units=hidden_size,
        )
        bias = np.zeros(4 * hidden_size, dtype=np.float64)
        bias[hidden_size : 2 * hidden_size] = 1.0
        self.bias = Parameter(bias)

    def step(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """Advance one timestep; returns the new ``(h, c)`` state.

        Three graph nodes (plus the weights' transposed views): the gate
        activations ``[i, f, g, o]``, ``c' = f*c + i*g`` and
        ``h' = o*tanh(c')``.
        """
        acts = _gate_activations(x, self.w_x, h, self.w_h, self.bias)
        c_new = _cell_state(c, acts)
        return _hidden_state(acts, c_new), c_new

    def initial_state(self, batch_shape: int | tuple[int, ...]) -> tuple[Tensor, Tensor]:
        """Zero ``(h, c)`` of shape ``batch_shape + (hidden_size,)``; a
        cohort stack passes ``(c, batch)``."""
        if isinstance(batch_shape, int):
            batch_shape = (batch_shape,)
        zeros = np.zeros(tuple(batch_shape) + (self.hidden_size,), dtype=np.float64)
        return Tensor(zeros), Tensor(zeros.copy())


class LSTM(Module):
    """A stack of :class:`LSTMCell` layers unrolled over a sequence."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_layers = num_layers
        self.hidden_size = hidden_size
        self._cell_names = []
        for layer in range(num_layers):
            cell = LSTMCell(input_size if layer == 0 else hidden_size, hidden_size, rng)
            name = f"cell{layer}"
            setattr(self, name, cell)
            self._cell_names.append(name)

    @property
    def cells(self) -> list[LSTMCell]:
        return [getattr(self, name) for name in self._cell_names]

    def forward(self, inputs: list[Tensor]) -> list[Tensor]:
        """Run the stack over a sequence of per-timestep input tensors.

        Parameters
        ----------
        inputs:
            List of ``T`` tensors with shape ``(batch, input_size)``, or
            ``(c, batch, input_size)`` in a cohort stack.

        Returns
        -------
        list of ``T`` tensors with shape ``(..., batch, hidden_size)`` —
        the top layer's hidden state at every timestep.
        """
        if not inputs:
            return []
        batch = inputs[0].shape[:-1]
        states = [cell.initial_state(batch) for cell in self.cells]
        outputs: list[Tensor] = []
        for x in inputs:
            carry = x
            for idx, cell in enumerate(self.cells):
                h, c = states[idx]
                h, c = cell.step(carry, h, c)
                states[idx] = (h, c)
                carry = h
            outputs.append(carry)
        return outputs
