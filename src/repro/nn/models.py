"""The two model families evaluated in the paper.

* :class:`MLPClassifier` — the image-classification model of Section V-A:
  one ReLU hidden layer (128 units for MNIST, 256 for FMNIST) and a
  softmax output layer.
* :class:`WordLSTM` — the next-word-prediction model: an embedding layer,
  a two-layer LSTM, and a fully connected decoder.

Both expose a uniform interface consumed by the federated layer:

* ``loss(batch) -> Tensor`` — scalar training loss for one minibatch;
* ``predict_logits(inputs) -> np.ndarray`` — evaluation-time logits;
* ``logit_steps(inputs)`` — the same logits streamed as ``(batch, classes)``
  steps (what :func:`repro.fl.metrics.evaluate` consumes);
* ``state_dict`` / ``load_state_dict`` / ``row_specs`` from
  :class:`repro.nn.module.Module`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .functional import cross_entropy, linear
from .layers import Embedding, Linear, ReLU, Sequential
from .module import Module, Parameter
from .recurrent import LSTM
from .tensor import Tensor, no_grad

__all__ = ["MLPClassifier", "WordLSTM", "build_model"]


class MLPClassifier(Module):
    """Fully connected classifier with ReLU hidden layers.

    Parameters
    ----------
    input_dim:
        Flattened image dimension (784 in the paper; smaller in the
        scaled-down benchmark presets).
    hidden_dims:
        Sizes of hidden layers (paper: ``(128,)`` or ``(256,)``).
    n_classes:
        Number of output classes (10).
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dims: tuple[int, ...],
        n_classes: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_dim = input_dim
        self.n_classes = n_classes
        layers: list[Module] = []
        previous = input_dim
        for width in hidden_dims:
            layers.append(Linear(previous, width, rng, init="kaiming"))
            layers.append(ReLU())
            previous = width
        # The softmax output layer is excluded from row dropout: dropping
        # a class row makes that class unpredictable for the round.  This
        # mirrors the paper's CNN convention (filter-wise dropout never
        # removes logits) and reproduces its upload ratios exactly
        # (MNIST p=0.2 -> 1.25x, FMNIST p=0.5 -> 2x).
        layers.append(Linear(previous, n_classes, rng, init="xavier", droppable=False))
        self.net = Sequential(*layers)

    def forward(self, x: np.ndarray | Tensor) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.net(x)

    def loss(self, batch: tuple[np.ndarray, np.ndarray]) -> Tensor:
        """Mean cross-entropy over one ``(images, labels)`` minibatch.

        A cohort stack takes ``(c, batch, ...)`` arrays and returns one
        loss per client.
        """
        x, y = batch
        return cross_entropy(self.forward(x), y, axis=-1)

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.forward(x).numpy()


class WordLSTM(Module):
    """Embedding -> multi-layer LSTM -> tied decoder language model.

    The paper's configuration is a 300-unit embedding, a two-layer LSTM
    with 300 hidden units, and an FC decoder over the vocabulary,
    following the Merity et al. recipe it cites — which ties the decoder
    weight to the embedding (``embed_dim == hidden_size``).  Weight
    tying is what makes the paper's "2x upload saving at p=0.5" exact:
    the droppable rows are the per-word vectors (used at both input and
    output) plus the LSTM gate units; there is no separate output matrix
    to preserve.

    Pass ``tie_weights=False`` for the untied ablation (the decoder then
    becomes a separate non-droppable matrix, like the MLP's output
    layer).
    """

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int,
        hidden_size: int,
        num_layers: int = 2,
        rng: np.random.Generator | None = None,
        tie_weights: bool = True,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        if tie_weights and embed_dim != hidden_size:
            raise ValueError(
                f"weight tying requires embed_dim == hidden_size, got {embed_dim} != {hidden_size}"
            )
        self.vocab_size = vocab_size
        self.tie_weights = tie_weights
        self.embedding = Embedding(vocab_size, embed_dim, rng)
        self.lstm = LSTM(embed_dim, hidden_size, num_layers, rng)
        if tie_weights:
            self.decoder_bias = Parameter(np.zeros(vocab_size))
        else:
            self.decoder = Linear(hidden_size, vocab_size, rng, init="uniform", droppable=False)

    def _decode(self, h: Tensor) -> Tensor:
        if self.tie_weights:
            return linear(h, self.embedding.weight, self.decoder_bias)
        return self.decoder(h)

    def _hidden_sequence(self, token_ids: np.ndarray) -> list[Tensor]:
        """Embed a ``(..., batch, time)`` index array and run the LSTM."""
        token_ids = np.asarray(token_ids, dtype=np.intp)
        embedded = self.embedding(token_ids)  # (..., batch, time, embed)
        steps = [embedded[..., t, :] for t in range(token_ids.shape[-1])]
        return self.lstm(steps)

    def loss(self, batch: tuple[np.ndarray, np.ndarray]) -> Tensor:
        """Mean next-word cross-entropy over a ``(inputs, targets)`` batch.

        Both arrays have shape ``(batch, time)``; ``targets`` is the
        inputs shifted by one position (standard LM training).  A cohort
        stack takes ``(c, batch, time)`` and returns one loss per client.
        """
        x, y = batch
        hiddens = self._hidden_sequence(x)
        total = None
        for t, h in enumerate(hiddens):
            logits_t = self._decode(h)
            step_loss = cross_entropy(logits_t, y[..., t], reduction="sum", axis=-1)
            total = step_loss if total is None else total + step_loss
        count = x.shape[-2] * x.shape[-1]
        return total * (1.0 / count)

    def logit_steps(self, x: np.ndarray) -> Iterator[np.ndarray]:
        """Evaluation logits one timestep at a time, each ``(batch, vocab)``:
        the LSTM runs once, each step is decoded when it is asked for."""
        with no_grad():
            hiddens = self._hidden_sequence(x)
        for h in hiddens:
            with no_grad():
                logits = self._decode(h).numpy()
            yield logits

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        """Evaluation logits with shape ``(batch, time, vocab)``."""
        return np.stack(list(self.logit_steps(x)), axis=-2)


def build_model(spec: dict, rng: np.random.Generator) -> Module:
    """Instantiate a model from a declarative spec.

    Used by the experiment configs so that the server and every simulated
    client construct byte-identical architectures.

    Examples
    --------
    >>> build_model({"kind": "mlp", "input_dim": 64,
    ...              "hidden_dims": (32,), "n_classes": 10}, rng)
    >>> build_model({"kind": "lstm", "vocab_size": 500, "embed_dim": 32,
    ...              "hidden_size": 48, "num_layers": 2}, rng)
    """
    kind = spec["kind"]
    if kind == "mlp":
        return MLPClassifier(
            input_dim=spec["input_dim"],
            hidden_dims=tuple(spec["hidden_dims"]),
            n_classes=spec["n_classes"],
            rng=rng,
        )
    if kind == "lstm":
        return WordLSTM(
            vocab_size=spec["vocab_size"],
            embed_dim=spec["embed_dim"],
            hidden_size=spec["hidden_size"],
            num_layers=spec.get("num_layers", 2),
            rng=rng,
            tie_weights=spec.get("tie_weights", True),
        )
    if kind == "cnn":
        from .conv import CNNClassifier

        return CNNClassifier(
            side=spec["side"],
            n_classes=spec["n_classes"],
            channels=tuple(spec.get("channels", (8, 16))),
            kernel_size=spec.get("kernel_size", 3),
            hidden=spec.get("hidden", 32),
            rng=rng,
        )
    raise ValueError(f"unknown model kind {kind!r}")
