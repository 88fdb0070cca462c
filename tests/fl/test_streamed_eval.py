"""Streamed evaluation against the whole-array path it replaced.

``evaluate`` consumes a model's logits one ``(batch, classes)`` step at
a time.  Its contract: test loss and accuracy are bit-identical to
building the whole ``(batch, steps, classes)`` logits array and reducing
it at once (the reference below, which lives only here), while the
whole array is never built.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data.registry import FederatedTask, make_task
from repro.experiments.configs import preset_for
from repro.fl.metrics import evaluate, topk_accuracy
from repro.nn import build_model
from repro.nn.functional import _log_softmax_data

TASKS = ("ptb", "wikitext2", "reddit", "mnist")


def _reference_evaluate(model, task, batch_size: int, k: int) -> tuple[float, float]:
    total_loss = 0.0
    total_hits = 0.0
    total_count = 0
    for x, y in task.eval_batches(batch_size):
        logits = model.predict_logits(x)
        log_probs = _log_softmax_data(logits)
        flat_lp = log_probs.reshape(-1, log_probs.shape[-1])
        flat_y = np.asarray(y).reshape(-1)
        total_loss += float(-flat_lp[np.arange(flat_y.size), flat_y].sum())
        total_hits += topk_accuracy(logits, y, k) * flat_y.size
        total_count += flat_y.size
    return total_loss / total_count, total_hits / total_count


@pytest.fixture(scope="module")
def small_tasks() -> dict[str, FederatedTask]:
    return {name: make_task(name, "small", seed=preset_for(name, "small").data_seed) for name in TASKS}


def _model(task: FederatedTask):
    """The preset model with its weights spread out, so logits are far
    from uniform and the top-k sets are not decided by ties."""
    model = build_model(task.model_spec, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    for _, p in model.named_parameters():
        p.data += rng.normal(scale=0.3, size=p.data.shape)
    return model


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", TASKS)
def test_hex_equal_to_the_whole_array_reduction(monkeypatch, small_tasks, name, k):
    task = small_tasks[name]
    model = _model(task)
    batch = preset_for(name, "small").fl.eval_batch_size
    monkeypatch.setattr(FederatedTask, "topk", property(lambda self: k))
    got = evaluate(model, task, batch)
    want = _reference_evaluate(model, task, batch, k)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_uneven_last_batch_matches(small_tasks):
    task = small_tasks["ptb"]
    model = _model(task)
    got = evaluate(model, task, 96)  # 500 windows: 5 batches of 96 and one of 20
    want = _reference_evaluate(model, task, 96, task.topk)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_peak_memory_stays_below_one_logits_array(small_tasks):
    """On PTB small one eval batch's whole logits array is 14.4 MB; the
    streamed path peaks well below it (the whole-array path peaked near
    four times it)."""
    task = small_tasks["ptb"]
    model = _model(task)
    batch = preset_for("ptb", "small").fl.eval_batch_size
    x, _ = next(iter(task.eval_batches(batch)))
    logits_bytes = x.size * task.model_spec["vocab_size"] * 8
    evaluate(model, task, batch)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        evaluate(model, task, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < logits_bytes


def test_predict_logits_stacks_the_steps(small_tasks):
    task = small_tasks["ptb"]
    model = _model(task)
    x, _ = next(iter(task.eval_batches(8)))
    steps = list(model.logit_steps(x))
    assert len(steps) == x.shape[1] and steps[0].shape == (8, task.model_spec["vocab_size"])
    np.testing.assert_array_equal(model.predict_logits(x), np.stack(steps, axis=1))
