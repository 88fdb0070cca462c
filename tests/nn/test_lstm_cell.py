"""The fused LSTM cell against the op-by-op chain it replaced.

``LSTMCell.step`` computes the gate activations, ``c' = f*c + i*g`` and
``h' = o*tanh(c')`` as three graph nodes.  Its contract is that forward
values and every gradient are bit-identical to the chain of elementary
ops below — including the order in which a weight's per-step gradient
contributions are summed, which the last bits of the parameter
gradients pin.  The reference chain lives only here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import LSTM, LSTMCell, Tensor, build_model, check_gradients
from repro.nn.functional import linear

T = 12


def _reference_step(cell: LSTMCell, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    hs = cell.hidden_size
    gates = linear(x, cell.w_x) + linear(h, cell.w_h) + cell.bias
    i = gates[..., 0 * hs : 1 * hs].sigmoid()
    f = gates[..., 1 * hs : 2 * hs].sigmoid()
    g = gates[..., 2 * hs : 3 * hs].tanh()
    o = gates[..., 3 * hs : 4 * hs].sigmoid()
    c_new = f * c + i * g
    h_new = o * c_new.tanh()
    return h_new, c_new


def _word_lstm(cohort: int | None):
    """A 2-layer word LSTM, as one client or a stack whose clients hold
    different weights with some LSTM and embedding rows dropped."""
    model = build_model(
        {"kind": "lstm", "vocab_size": 40, "embed_dim": 16, "hidden_size": 16, "num_layers": 2},
        np.random.default_rng(0),
    )
    if cohort is None:
        return model
    base = {name: p.data for name, p in model.named_parameters()}
    stack = model.stack(cohort)
    for i in range(cohort):
        for name, view in stack.client_arrays(i).items():
            view[...] = base[name] * (1.0 + 0.1 * i)
            if view.ndim == 2:
                view[i :: 3 + i] = 0.0  # dropped rows
    return stack


def _run_word_lstm(cohort: int | None):
    rng = np.random.default_rng(1)
    lead = () if cohort is None else (cohort,)
    x = rng.integers(0, 40, size=lead + (6, T))
    y = rng.integers(0, 40, size=lead + (6, T))
    model = _word_lstm(cohort)
    loss = model.loss((x, y))
    loss.backward(np.ones(loss.data.shape))
    return loss.data.copy(), {name: p.grad.copy() for name, p in model.named_parameters()}


def _run_unroll(cohort: int | None):
    """Outputs and input gradients of a bare 2-layer, 12-step unroll."""
    rng = np.random.default_rng(2)
    lstm = LSTM(5, 7, num_layers=2, rng=np.random.default_rng(3))
    lead = (4,) if cohort is None else (cohort, 4)
    if cohort is not None:
        base = {name: p.data for name, p in lstm.named_parameters()}
        lstm = lstm.stack(cohort)
        for i in range(cohort):
            for name, view in lstm.client_arrays(i).items():
                view[...] = base[name] - 0.05 * i
    inputs = [Tensor(rng.normal(size=lead + (5,)), requires_grad=True) for _ in range(T)]
    outputs = lstm(inputs)
    total = None
    for out in outputs:
        term = (out * rng.normal(size=out.shape)).sum()
        total = term if total is None else total + term
    total.backward()
    return (
        [o.data.copy() for o in outputs],
        [t.grad.copy() for t in inputs],
        {name: p.grad.copy() for name, p in lstm.named_parameters()},
    )


def _bytes(arrays):
    if isinstance(arrays, dict):
        return {name: a.tobytes() for name, a in arrays.items()}
    if isinstance(arrays, (list, tuple)):
        return [_bytes(a) for a in arrays]
    return arrays.tobytes()


class TestFusedCellMatchesChain:
    @pytest.mark.parametrize("cohort", [None, 1, 3], ids=["client", "stack1", "stack3"])
    def test_word_lstm_loss_and_every_gradient(self, monkeypatch, cohort):
        fused = _bytes(_run_word_lstm(cohort))
        monkeypatch.setattr(LSTMCell, "step", _reference_step)
        assert fused == _bytes(_run_word_lstm(cohort))

    @pytest.mark.parametrize("cohort", [None, 3], ids=["client", "stack3"])
    def test_unroll_outputs_and_input_gradients(self, monkeypatch, cohort):
        outputs, input_grads, param_grads = _run_unroll(cohort)
        monkeypatch.setattr(LSTMCell, "step", _reference_step)
        ref_outputs, ref_input_grads, ref_param_grads = _run_unroll(cohort)
        assert _bytes(outputs) == _bytes(ref_outputs)
        assert _bytes(input_grads) == _bytes(ref_input_grads)
        assert _bytes(param_grads) == _bytes(ref_param_grads)


class TestFusedCellGradcheck:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        lstm = LSTM(3, 4, num_layers=2, rng=np.random.default_rng(5))
        inputs = [Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(4)]
        probes = [rng.normal(size=(2, 4)) for _ in inputs]

        def loss():
            total = None
            for out, w in zip(lstm(inputs), probes):
                term = (out * w).sum()
                total = term if total is None else total + term
            return total

        check_gradients(loss, lstm.parameters() + inputs, rtol=1e-5, atol=1e-7)

    def test_three_nodes_per_step(self):
        """One gate node, the two state nodes, and the two weight views."""
        cell = LSTMCell(3, 4, np.random.default_rng(0))
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        h, c = cell.initial_state(2)
        h_new, c_new = cell.step(x, h, c)
        acts = c_new._parents[1]
        assert h_new._parents == (acts, c_new)
        assert c_new._parents == (c, acts)
        assert acts._parents[0] is x and acts._parents[-1] is cell.bias
        assert acts.shape == (2, 16)
