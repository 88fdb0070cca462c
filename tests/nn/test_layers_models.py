"""Tests for layers, recurrent cells, and the two model families."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.gradcheck import check_gradients
from repro.nn.layers import Embedding, Linear, ReLU, Sequential, Tanh
from repro.nn.models import MLPClassifier, WordLSTM, build_model
from repro.nn.module import Module, Parameter
from repro.nn.recurrent import LSTM, LSTMCell
from repro.nn.tensor import Tensor


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(4, 3, rng)
        out = layer(Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 3)

    def test_matches_manual(self, rng):
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(2, 4))
        expected = x @ layer.weight.numpy().T + layer.bias.numpy()
        np.testing.assert_allclose(layer(Tensor(x)).numpy(), expected)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, rng, bias=False)
        assert not layer.has_bias
        assert [n for n, _ in layer.named_parameters()] == ["weight"]

    def test_droppable_flag(self, rng):
        assert Linear(4, 3, rng).weight.droppable
        assert not Linear(4, 3, rng, droppable=False).weight.droppable

    def test_unknown_init(self, rng):
        with pytest.raises(ValueError):
            Linear(4, 3, rng, init="bogus")

    def test_gradcheck(self, rng):
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(2, 4))
        check_gradients(lambda: (layer(Tensor(x)) ** 2).sum(), layer.parameters())


class TestEmbedding:
    def test_forward(self, rng):
        emb = Embedding(7, 3, rng)
        out = emb(np.array([[0, 6], [1, 1]]))
        assert out.shape == (2, 2, 3)

    def test_rows_droppable(self, rng):
        assert Embedding(7, 3, rng).weight.droppable


class TestSequential:
    def test_order_and_len(self, rng):
        seq = Sequential(Linear(4, 5, rng), ReLU(), Linear(5, 2, rng), Tanh())
        assert len(seq) == 4
        out = seq(Tensor(rng.normal(size=(3, 4))))
        assert out.shape == (3, 2)
        assert np.all(np.abs(out.numpy()) <= 1.0)

    def test_named_parameters_nested(self, rng):
        seq = Sequential(Linear(2, 2, rng), Linear(2, 2, rng))
        names = [n for n, _ in seq.named_parameters()]
        assert names == ["layer0.weight", "layer0.bias", "layer1.weight", "layer1.bias"]


class TestModuleBasics:
    def test_state_dict_roundtrip(self, tiny_mlp):
        state = tiny_mlp.state_dict()
        for v in state.values():
            v += 1.0
        tiny_mlp.load_state_dict(state)
        np.testing.assert_allclose(tiny_mlp.state_dict()["net.layer0.bias"], state["net.layer0.bias"])

    def test_load_state_dict_shape_mismatch(self, tiny_mlp):
        state = tiny_mlp.state_dict()
        state["net.layer0.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            tiny_mlp.load_state_dict(state)

    def test_load_state_dict_missing_key(self, tiny_mlp):
        with pytest.raises(KeyError):
            tiny_mlp.load_state_dict({})

    def test_num_parameters(self, tiny_mlp):
        assert tiny_mlp.num_parameters() == 6 * 5 + 5 + 5 * 4 + 4

    def test_parameter_row_units_validation(self):
        with pytest.raises(ValueError):
            Parameter(np.zeros((6, 2)), droppable=True, row_units=4)

    def test_droppable_must_be_2d(self):
        with pytest.raises(ValueError):
            Parameter(np.zeros(5), droppable=True)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestLSTM:
    def test_cell_step_shapes(self, rng):
        cell = LSTMCell(4, 6, rng)
        h, c = cell.initial_state(3)
        h2, c2 = cell.step(Tensor(rng.normal(size=(3, 4))), h, c)
        assert h2.shape == (3, 6) and c2.shape == (3, 6)

    def test_forget_bias_ones(self, rng):
        cell = LSTMCell(4, 6, rng)
        np.testing.assert_allclose(cell.bias.numpy()[6:12], np.ones(6))

    def test_gate_rows_grouped(self, rng):
        cell = LSTMCell(4, 6, rng)
        assert cell.w_x.row_units == 6 and cell.w_h.row_units == 6

    def test_stack_output_length(self, rng):
        lstm = LSTM(4, 5, num_layers=2, rng=rng)
        steps = [Tensor(rng.normal(size=(2, 4))) for _ in range(7)]
        outs = lstm(steps)
        assert len(outs) == 7 and outs[0].shape == (2, 5)

    def test_empty_input(self, rng):
        assert LSTM(4, 5, rng=rng)([]) == []

    def test_cell_gradcheck(self, rng):
        cell = LSTMCell(3, 4, rng)
        x = rng.normal(size=(2, 3))

        def loss():
            h, c = cell.initial_state(2)
            h, c = cell.step(Tensor(x), h, c)
            h, c = cell.step(Tensor(x), h, c)
            return (h ** 2).sum() + (c ** 2).sum()

        check_gradients(loss, cell.parameters(), rtol=1e-3, atol=1e-6)


class TestMLPClassifier:
    def test_loss_decreases_with_training(self, tiny_mlp, rng):
        from repro.nn.optim import SGD

        x = rng.normal(size=(20, 6))
        y = rng.integers(0, 4, size=20)
        opt = SGD(tiny_mlp.parameters(), lr=0.5)
        first = tiny_mlp.loss((x, y)).item()
        for _ in range(150):
            opt.zero_grad()
            loss = tiny_mlp.loss((x, y))
            loss.backward()
            opt.step()
        assert tiny_mlp.loss((x, y)).item() < 0.5 * first

    def test_output_layer_not_droppable(self, tiny_mlp):
        names = [s.name for s in tiny_mlp.row_specs()]
        assert names == ["net.layer0.weight"]

    def test_predict_logits_shape(self, tiny_mlp, rng):
        assert tiny_mlp.predict_logits(rng.normal(size=(7, 6))).shape == (7, 4)


class TestWordLSTM:
    def test_tied_weight_sharing(self, tiny_lstm):
        names = [n for n, _ in tiny_lstm.named_parameters()]
        assert "embedding.weight" in names and "decoder.weight" not in names

    def test_tied_requires_equal_dims(self, rng):
        with pytest.raises(ValueError):
            WordLSTM(9, embed_dim=4, hidden_size=6, rng=rng)

    def test_untied_has_decoder(self, rng):
        model = WordLSTM(9, 4, 6, rng=rng, tie_weights=False)
        names = [n for n, _ in model.named_parameters()]
        assert "decoder.weight" in names
        assert not dict(model.named_parameters())["decoder.weight"].droppable

    def test_loss_finite(self, tiny_lstm, rng):
        x = rng.integers(0, 9, size=(3, 5))
        y = rng.integers(0, 9, size=(3, 5))
        assert np.isfinite(tiny_lstm.loss((x, y)).item())

    def test_predict_logits_shape(self, tiny_lstm, rng):
        x = rng.integers(0, 9, size=(3, 5))
        assert tiny_lstm.predict_logits(x).shape == (3, 5, 9)

    def test_training_reduces_loss(self, tiny_lstm, rng):
        from repro.nn.optim import SGD

        x = rng.integers(0, 9, size=(4, 6))
        y = np.roll(x, -1, axis=1)
        opt = SGD(tiny_lstm.parameters(), lr=1.0, max_grad_norm=1.0)
        first = tiny_lstm.loss((x, y)).item()
        for _ in range(50):
            opt.zero_grad()
            tiny_lstm_loss = tiny_lstm.loss((x, y))
            tiny_lstm_loss.backward()
            opt.step()
        assert tiny_lstm.loss((x, y)).item() < first


class TestBuildModel:
    def test_builds_mlp(self, rng):
        model = build_model(
            {"kind": "mlp", "input_dim": 5, "hidden_dims": (4,), "n_classes": 3}, rng
        )
        assert isinstance(model, MLPClassifier)

    def test_builds_lstm(self, rng):
        model = build_model(
            {"kind": "lstm", "vocab_size": 9, "embed_dim": 4, "hidden_size": 4}, rng
        )
        assert isinstance(model, WordLSTM)

    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError):
            build_model({"kind": "transformer"}, rng)

    def test_deterministic_from_seed(self):
        spec = {"kind": "mlp", "input_dim": 5, "hidden_dims": (4,), "n_classes": 3}
        a = build_model(spec, np.random.default_rng(7))
        b = build_model(spec, np.random.default_rng(7))
        np.testing.assert_array_equal(
            a.state_dict()["net.layer0.weight"], b.state_dict()["net.layer0.weight"]
        )


def _load_stack(model, clients):
    """A stack of ``model`` holding each of ``clients``' parameter dicts."""
    stack = model.stack(len(clients))
    for i, params in enumerate(clients):
        for name, view in stack.client_arrays(i).items():
            view[...] = params[name]
    return stack


def _perturbed_states(model, rng, n):
    base = model.state_dict()
    return [{k: v + 0.1 * rng.normal(size=v.shape) for k, v in base.items()} for _ in range(n)]


class TestCohortStack:
    """A stack of c clients computes, bit for bit, what c separate
    one-client models compute — losses and gradients alike."""

    def _check(self, model, states, batches):
        stack = _load_stack(model, states)
        stacked_batch = tuple(np.stack(parts) for parts in zip(*batches))
        loss = stack.loss(stacked_batch)
        loss.backward(np.ones(len(states)))
        for i, (state, batch) in enumerate(zip(states, batches)):
            model.load_state_dict(state)
            model.zero_grad()
            single = model.loss(batch)
            single.backward()
            assert loss.data[i] == single.item()
            grads = dict(model.named_parameters())
            for name, p in stack.named_parameters():
                client_grad = p.grad[i].reshape(grads[name].grad.shape)
                np.testing.assert_array_equal(client_grad, grads[name].grad)

    def test_mlp_matches_per_client(self, tiny_mlp, rng):
        states = _perturbed_states(tiny_mlp, rng, 3)
        batches = [(rng.normal(size=(5, 6)), rng.integers(0, 4, size=5)) for _ in states]
        self._check(tiny_mlp, states, batches)

    def test_word_lstm_matches_per_client(self, tiny_lstm, rng):
        states = _perturbed_states(tiny_lstm, rng, 3)
        batches = [
            (rng.integers(0, 9, size=(2, 4)), rng.integers(0, 9, size=(2, 4))) for _ in states
        ]
        self._check(tiny_lstm, states, batches)

    def test_cnn_matches_per_client(self, rng):
        model = build_model(
            {"kind": "cnn", "side": 4, "n_classes": 3, "channels": (2, 3),
             "kernel_size": 2, "hidden": 5},
            rng,
        )
        states = _perturbed_states(model, rng, 2)
        batches = [(rng.normal(size=(3, 16)), rng.integers(0, 3, size=3)) for _ in states]
        self._check(model, states, batches)

    def test_layout(self, tiny_mlp):
        stack = tiny_mlp.stack(4)
        shapes = {name: p.shape for name, p in stack.named_parameters()}
        assert shapes["net.layer0.weight"] == (4, 5, 6)
        assert shapes["net.layer0.bias"] == (4, 1, 5)
        assert stack.cohort == 4 and tiny_mlp.cohort is None
        views = stack.client_arrays(2)
        views["net.layer0.bias"][...] = 7.0
        assert np.all(dict(stack.named_parameters())["net.layer0.bias"].data[2] == 7.0)
        with pytest.raises(ValueError):
            stack.stack(2)
