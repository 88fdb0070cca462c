"""Tests for the client-side method interface and the cohort SGD loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.masks import apply_element_masks, masked_start, scale_kept_entries
from repro.baselines.registry import make_method
from repro.experiments.configs import TABLE1_METHODS
from repro.fl import client as fl_client
from repro.fl.client import (
    ClientContext,
    FederatedMethod,
    LocalStart,
    chunk_size,
    run_cohort_sgd,
)
from repro.fl.config import FLConfig
from repro.fl.metrics import evaluate
from repro.fl.parameters import ParamSet
from repro.fl.rows import RowSpace
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import build_model
from repro.nn.optim import SGD
from tests.conftest import make_tiny_image_task, make_tiny_text_task


def run_stack(model, starts, batchers, iterations, rowspace=None, **sgd):
    """Load ``starts`` into a stack of ``model`` and train it; returns the
    stack and the per-client losses."""
    stack = model.stack(len(starts))
    for i, start in enumerate(starts):
        for name, view in stack.client_arrays(i).items():
            view[...] = start.params[name]
    optimizer = SGD(stack.parameters(), lr=sgd.pop("lr", 0.2), stacked=True, **sgd)
    losses = run_cohort_sgd(stack, optimizer, batchers, starts, iterations, rowspace)
    return stack, losses


class TestCohortSGD:
    def test_returns_losses(self, tiny_image_task, rng):
        model = build_model(tiny_image_task.model_spec, rng)
        start = LocalStart(params=ParamSet.from_module(model))
        batchers = [tiny_image_task.batcher(c, 8, rng) for c in (0, 1)]
        _, losses = run_stack(model, [start, start], batchers, iterations=5)
        assert [len(l) for l in losses] == [5, 5]
        assert all(np.isfinite(l) for client in losses for l in client)

    def test_masks_require_rowspace(self, tiny_image_task, rng):
        model = build_model(tiny_image_task.model_spec, rng)
        start = LocalStart(
            params=ParamSet.from_module(model),
            masks={"net.layer0.weight": np.ones(8, bool)},
        )
        batchers = [tiny_image_task.batcher(0, 8, rng)]
        with pytest.raises(ValueError, match="rowspace"):
            run_stack(model, [start], batchers, 2)

    def test_dropped_rows_stay_zero(self, tiny_image_task, rng):
        """Each client keeps its own dropped rows at zero through the
        round, under momentum and weight decay."""
        model = build_model(tiny_image_task.model_spec, rng)
        space = RowSpace.from_module(model)
        starts = []
        for _ in range(3):
            masks = space.split(space.sample_pattern(0.5, rng))
            params = space.apply_pattern(ParamSet.from_module(model), space.join(masks))
            starts.append(LocalStart(params=params, masks=masks))
        batchers = [tiny_image_task.batcher(c, 8, rng) for c in range(3)]
        stack, _ = run_stack(
            model, starts, batchers, 6, rowspace=space,
            lr=0.5, momentum=0.9, weight_decay=0.1,
        )
        for i, start in enumerate(starts):
            arrays = stack.client_arrays(i)
            for name, mask in start.masks.items():
                assert np.all(arrays[name][~mask] == 0.0)
                assert np.any(arrays[name][mask] != 0.0)

    def test_on_iteration_hook(self, tiny_image_task, rng):
        model = build_model(tiny_image_task.model_spec, rng)
        seen = []
        hooked = LocalStart(
            params=ParamSet.from_module(model),
            on_iteration=lambda v, loss, live: seen.append((v, loss, sorted(live))),
        )
        plain = LocalStart(params=ParamSet.from_module(model))
        batchers = [tiny_image_task.batcher(c, 8, rng) for c in (0, 1)]
        _, losses = run_stack(model, [plain, hooked], batchers, 3)
        assert [v for v, _, _ in seen] == [0, 1, 2]
        assert [loss for _, loss, _ in seen] == losses[1]
        assert seen[0][2] == sorted(name for name, _ in model.named_parameters())

    def test_hook_can_switch_masks(self, tiny_image_task, rng):
        """New masks returned by a hook are pinned from the next step on."""
        model = build_model(tiny_image_task.model_spec, rng)
        space = RowSpace.from_module(model)
        name = "net.layer0.weight"
        switched = {name: np.arange(8) < 4}

        def hook(v, loss, live):
            if v == 0:
                live[name][~switched[name]] = 0.0
                return switched
            return None

        start = LocalStart(
            params=ParamSet.from_module(model),
            masks={name: np.ones(8, bool)},
            on_iteration=hook,
        )
        stack, _ = run_stack(
            model, [start], [tiny_image_task.batcher(0, 8, rng)], 4,
            rowspace=space, lr=0.5, momentum=0.9,
        )
        assert np.all(stack.client_arrays(0)[name][4:] == 0.0)


class TestElementMaskedSGD:
    def test_dropped_entries_stay_zero(self, tiny_image_task, rng):
        model = build_model(tiny_image_task.model_spec, rng)
        space = RowSpace.from_module(model)
        name = "net.layer0.weight"
        starts = [
            masked_start(ParamSet.from_module(model), {name: rng.random((8, 12)) < 0.5}, 2.0)
            for _ in range(2)
        ]
        batchers = [tiny_image_task.batcher(c, 8, rng) for c in (0, 1)]
        stack, _ = run_stack(model, starts, batchers, 5, rowspace=space, lr=0.5, momentum=0.9)
        for i, start in enumerate(starts):
            trained = stack.client_arrays(i)[name]
            assert np.all(trained[~start.masks[name]] == 0.0)

    def test_scaling_applied_and_removable(self, tiny_image_task, rng):
        model = build_model(tiny_image_task.model_spec, rng)
        name = "net.layer0.weight"
        params = ParamSet.from_module(model)
        original = params[name].copy()
        masks = {name: np.ones((8, 12), dtype=bool)}
        scale_kept_entries(params, masks, 2.0)
        np.testing.assert_allclose(params[name], 2.0 * original)
        scale_kept_entries(params, masks, 0.5)
        np.testing.assert_allclose(params[name], original)
        # the masked start trains at the scale; dropped entries start at zero
        mask = {name: np.arange(8 * 12).reshape(8, 12) % 2 == 0}
        start = masked_start(ParamSet.from_module(model), mask, 2.0)
        np.testing.assert_allclose(start.params[name][mask[name]], 2.0 * original[mask[name]])
        assert np.all(start.params[name][~mask[name]] == 0.0)

    def test_gradient_masking(self, tiny_image_task, rng):
        """The loop's mask pass takes elementwise masks as well as rows."""
        model = build_model(tiny_image_task.model_spec, rng)
        batcher = tiny_image_task.batcher(0, 8, rng)
        loss = model.loss(batcher.next_batch())
        loss.backward()
        mask = np.zeros((8, 12), dtype=bool)
        mask[2, 3] = True
        RowSpace.from_module(model).mask_model_gradients(model, {"net.layer0.weight": mask})
        p = dict(model.named_parameters())["net.layer0.weight"]
        assert np.all(p.grad[~mask] == 0.0)

    def test_apply_element_masks(self, tiny_image_task, rng):
        model = build_model(tiny_image_task.model_spec, rng)
        params = ParamSet.from_module(model)
        mask = np.zeros((8, 12), dtype=bool)
        apply_element_masks(params, {"net.layer0.weight": mask})
        assert np.all(params["net.layer0.weight"] == 0.0)


def _ragged_image_task():
    """Clients 2 and 4 hold fewer samples than the batch size, so their
    batch shape differs and they cannot stack with their neighbours."""
    task = make_tiny_image_task(n_clients=6, seed=3)
    for c in (2, 4):
        x, y = task.client_data[c]
        task.client_data[c] = (x[:7], y[:7])
    return task


CHUNK_TASKS = {
    "image": (_ragged_image_task, dict(batch_size=10, lr=0.3)),
    "text": (
        lambda: make_tiny_text_task(n_clients=4),
        dict(batch_size=4, lr=1.0, max_grad_norm=0.05),  # every step clips
    ),
}


class TestChunking:
    def _history(self, task, method_name, config):
        sim = FederatedSimulation(task, make_method(method_name), config)
        history = sim.run()
        return (
            [history.series(c).tobytes() for c in ("train_loss", "test_accuracy", "upload_bits_total")],
            sim.global_params.flatten().tobytes(),
        )

    @pytest.mark.parametrize("kind", sorted(CHUNK_TASKS))
    @pytest.mark.parametrize("method_name", TABLE1_METHODS)
    def test_one_chunk_equals_one_client_per_chunk(self, monkeypatch, kind, method_name):
        """Bit-identical histories whether the cohort trains as one stack
        or one client at a time (forced through the byte budget)."""
        make_task, fields = CHUNK_TASKS[kind]
        task = make_task()
        config = FLConfig(
            rounds=3, kappa=1.0, local_iterations=6, momentum=0.5, dropout_rate=0.4,
            tau=2, stage_boundary=2, seed=1, **fields,
        )
        monkeypatch.setattr(fl_client, "_CHUNK_BYTES", 1 << 40)
        stacked = self._history(task, method_name, config)
        monkeypatch.setattr(fl_client, "_CHUNK_BYTES", 0)
        single = self._history(task, method_name, config)
        assert stacked == single

    def test_chunk_size_follows_the_byte_budget(self, monkeypatch, tiny_image_task, rng):
        """The chunk is the budget over one client's mean op size."""
        model = build_model(tiny_image_task.model_spec, rng)
        batcher = tiny_image_task.batcher(0, 8, rng)
        op = fl_client._op_bytes(model, batcher)
        # the MLP's owning ops: matmul+bias, relu, matmul+bias (8 x 8 and
        # 8 x 4 float64 outputs) and the scalar per-client loss
        assert op == (8 * 8 * 8 * 2 + 8 * 4 * 8 + 8) // 4
        monkeypatch.setattr(fl_client, "_CHUNK_BYTES", 5 * op + 1)
        assert chunk_size(model, batcher) == 5
        monkeypatch.setattr(fl_client, "_CHUNK_BYTES", 0)
        assert chunk_size(model, batcher) == 1

    def test_ops_grow_with_the_model_and_shrink_the_chunk(self, tiny_text_task, rng):
        """A wider word LSTM has bigger ops, so fewer clients per chunk."""
        batcher = tiny_text_task.batcher(0, 4, rng)
        spec = dict(tiny_text_task.model_spec)
        sizes = []
        for width in (8, 64):
            spec.update(embed_dim=width, hidden_size=width)
            model = build_model(spec, np.random.default_rng(0))
            sizes.append((fl_client._op_bytes(model, batcher), chunk_size(model, batcher)))
        (small_op, small_chunk), (big_op, big_chunk) = sizes
        assert big_op > small_op and big_chunk < small_chunk

    def test_probe_leaves_the_batcher_stream_alone(self, tiny_image_task):
        model = build_model(tiny_image_task.model_spec, np.random.default_rng(0))
        fresh = tiny_image_task.batcher(0, 8, np.random.default_rng(5))
        probed = tiny_image_task.batcher(0, 8, np.random.default_rng(5))
        fl_client._OP_BYTES.clear()
        chunk_size(model, probed)
        for a, b in zip(fresh.next_batch(), probed.next_batch()):
            np.testing.assert_array_equal(a, b)


class TestFederatedMethodBase:
    def test_base_client_update_abstract(self, tiny_image_task, fast_config, rng):
        method = FederatedMethod()
        model = build_model(tiny_image_task.model_spec, rng)
        method.setup(model, tiny_image_task, fast_config, rng)
        ctx = ClientContext(
            client_id=0, round_index=1,
            global_params=ParamSet.from_module(model), model=model,
            batcher=tiny_image_task.batcher(0, 4, rng),
            config=fast_config, rng=rng, state={},
        )
        with pytest.raises(NotImplementedError):
            method.client_update(ctx)

    def test_download_bits_dense(self, tiny_image_task, fast_config, rng):
        method = FederatedMethod()
        model = build_model(tiny_image_task.model_spec, rng)
        method.setup(model, tiny_image_task, fast_config, rng)
        params = ParamSet.from_module(model)
        assert method.download_bits(params) == 32 * params.num_weights

    def test_make_optimizer_uses_config(self, tiny_image_task, fast_config, rng):
        method = FederatedMethod()
        model = build_model(tiny_image_task.model_spec, rng)
        method.setup(model, tiny_image_task, fast_config, rng)
        opt = method.make_optimizer(model)
        assert opt.lr == fast_config.lr


class TestEvaluate:
    def test_perfect_model_scores_one(self, tiny_image_task, rng):
        class Oracle:
            def logit_steps(self, x):
                # peak at the true class via nearest prototype reconstruction
                yield x @ protos.T

        xs, ys = tiny_image_task.test_data
        protos = np.stack([xs[ys == c].mean(axis=0) for c in range(4)])
        loss, acc = evaluate(Oracle(), tiny_image_task)
        assert acc > 0.9

    def test_uniform_model_matches_chance(self, tiny_text_task):
        class Uniform:
            def logit_steps(self, x):
                for _ in range(x.shape[1]):
                    yield np.zeros((x.shape[0], 12))

        loss, acc = evaluate(Uniform(), tiny_text_task)
        assert loss == pytest.approx(np.log(12), rel=1e-6)
        assert acc == pytest.approx(3 / 12, abs=0.1)
