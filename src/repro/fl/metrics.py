"""Evaluation metrics and per-round history recording.

The paper reports top-1 accuracy for image classification and top-3 for
next-word prediction ("mobile keyboards generally include three
candidates"), plus training-loss and test-accuracy curves per round
(Fig. 6) and per-round upload sizes (Tables I/II).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn.functional import _log_softmax_data

__all__ = ["topk_accuracy", "evaluate", "RoundRecord", "History"]


def _topk_hits(logits: np.ndarray, targets: np.ndarray, k: int) -> np.ndarray:
    """Per-row hits of ``(n, classes)`` logits against ``(n,)`` targets."""
    if k == 1:
        return logits.argmax(axis=1) == targets
    # argpartition is O(n) per row versus full sort
    top = np.argpartition(-logits, kth=k - 1, axis=1)[:, :k]
    return (top == targets[:, None]).any(axis=1)


def topk_accuracy(logits: np.ndarray, targets: np.ndarray, k: int = 1) -> float:
    """Fraction of positions whose target is within the top-k logits.

    ``logits`` may be ``(n, classes)`` or ``(batch, time, classes)``;
    ``targets`` matches the leading dimensions.
    """
    logits = np.asarray(logits)
    flat_targets = np.asarray(targets).reshape(-1)
    if flat_targets.size == 0:
        return 0.0
    return float(_topk_hits(logits.reshape(-1, logits.shape[-1]), flat_targets, k).mean())


def evaluate(model, task, batch_size: int = 256) -> tuple[float, float]:
    """Global test loss and top-k accuracy of ``model`` on ``task``.

    Loss is the mean cross-entropy over every test position, computed
    from raw logits with a stable log-softmax (no graph construction).
    The model streams its logits one step at a time
    (``model.logit_steps(x)``: ``(batch, classes)`` per step, one step
    for a classifier, one per position for a language model); each
    step's picked log-probabilities and top-k hits land in a
    ``(batch, steps)`` array, so no whole ``(batch, steps, classes)``
    logits array is ever built.
    """
    total_loss = 0.0
    total_hits = 0.0
    total_count = 0
    k = task.topk
    for x, y in task.eval_batches(batch_size):
        y = np.asarray(y).reshape(len(y), -1)  # (batch, steps)
        picked = np.empty(y.shape)
        hits = np.empty(y.shape, dtype=bool)
        rows = np.arange(y.shape[0])
        for t, logits in enumerate(model.logit_steps(x)):
            picked[:, t] = _log_softmax_data(logits)[rows, y[:, t]]
            hits[:, t] = _topk_hits(logits, y[:, t], k)
        total_loss += float(-picked.reshape(-1).sum())
        if hits.size:
            total_hits += float(hits.mean()) * hits.size
        total_count += hits.size
    if total_count == 0:
        raise ValueError("empty evaluation set")
    return total_loss / total_count, total_hits / total_count


@dataclass
class RoundRecord:
    """Everything measured in one global round.

    ``n_selected`` counts the clients whose updates were aggregated;
    ``n_scheduled`` counts everyone the server asked to train.  The
    difference (``n_stragglers``) missed the system model's round
    deadline.  ``sim_round_seconds``/``sim_clock_seconds`` are virtual
    clock readings (see :mod:`repro.fl.systems`), not host wall-clock.

    Async (FedBuff-style) runs write one record per *buffer flush*
    rather than per barrier round: ``flush_index`` numbers the flush
    (0 on sync records), ``staleness_mean``/``staleness_max`` describe
    how many flushes old the buffered updates' base models were, and
    ``sim_clock_seconds`` is the virtual clock at the flush.
    """

    round_index: int
    train_loss: float
    test_loss: float
    test_accuracy: float
    upload_bits_mean: float
    upload_bits_total: int
    download_bits_per_client: int
    n_selected: int
    lttr_seconds_mean: float
    aggregation_seconds: float
    n_scheduled: int = 0
    n_stragglers: int = 0
    sim_round_seconds: float = 0.0
    sim_clock_seconds: float = 0.0
    #: mean *simulated* local compute across the round's scheduled
    #: clients (sync) or the flush's buffered clients (async) — the
    #: system model's per-device view of LTTR; 0.0 only on histories
    #: predating the column
    sim_compute_seconds_mean: float = 0.0
    flush_index: int = 0
    staleness_mean: float = 0.0
    staleness_max: int = 0

    @property
    def participation_rate(self) -> float:
        """Fraction of scheduled clients that reported before the deadline."""
        if self.n_scheduled <= 0:
            return 1.0
        return self.n_selected / self.n_scheduled


@dataclass
class History:
    """Per-round records of one simulation run, with series accessors."""

    method: str
    task: str
    records: list[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def series(self, key: str) -> np.ndarray:
        """Extract one field across rounds as an array."""
        return np.array([getattr(r, key) for r in self.records])

    @property
    def final_accuracy(self) -> float:
        return self.records[-1].test_accuracy

    @property
    def best_accuracy(self) -> float:
        """Highest evaluated accuracy (rounds without eval are NaN)."""
        return float(np.nanmax(self.series("test_accuracy")))

    @property
    def total_sim_seconds(self) -> float:
        """Virtual-clock time of the whole run (last round's clock)."""
        return float(self.records[-1].sim_clock_seconds) if self.records else 0.0

    @property
    def is_async(self) -> bool:
        """Whether this history came from buffered async aggregation
        (its records are buffer flushes, numbered by ``flush_index``)."""
        return any(r.flush_index > 0 for r in self.records)

    def participation(self) -> np.ndarray:
        """Per-round fraction of scheduled clients that made the deadline."""
        return np.array([r.participation_rate for r in self.records])

    def mean_upload_bits(self) -> float:
        """Average per-client upload per round — Table I's 'Upload Size'."""
        return float(self.series("upload_bits_mean").mean())

    def mean_staleness(self) -> float:
        """Average buffered-update staleness across flushes (async runs;
        identically 0.0 for sync histories)."""
        if not self.records:
            return 0.0
        return float(self.series("staleness_mean").mean())

    def rounds_to_accuracy(self, target: float) -> int | None:
        """First round index reaching ``target`` test accuracy, else None."""
        acc = self.series("test_accuracy")
        hits = np.flatnonzero(acc >= target)
        return int(self.records[hits[0]].round_index) if hits.size else None

    def moving_average(self, key: str, window: int = 3) -> np.ndarray:
        """Smoothed series (the paper smooths Fig. 6b curves)."""
        values = self.series(key)
        if window <= 1 or values.size == 0:
            return values
        kernel = np.ones(min(window, values.size)) / min(window, values.size)
        return np.convolve(values, kernel, mode="valid")
