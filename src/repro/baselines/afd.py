"""AFD — Adaptive Federated Dropout (Bouacida et al., 2021).

AFD improves on FedDrop by maintaining *score maps in the server* that
track how important each activation is, and dropping the low-scoring
ones.  Two properties distinguish it from FedBIAD (Section II):

* the score map lives on the server, so clients cannot adjust the
  dropping structure during local training ("less flexibility");
* dropout applies only to non-recurrent connections (embedding and
  decoder rows for the LSTM model; every FC matrix for the MLP).

Our implementation keeps an exponential moving average of per-row
update magnitudes; per client round it keeps the top-scoring ``(1-p)``
fraction of rows of every eligible matrix, with epsilon-greedy
exploration so scores keep learning (the original paper's
explore/exploit schedule).  Masks are chosen by the server, so the
uplink carries kept values only.
"""

from __future__ import annotations

import numpy as np

from ..fl.aggregation import ClientPayload
from ..fl.client import ClientContext, ClientUpdate, FederatedMethod, LocalStart
from ..fl.parameters import ParamSet
from ..fl.sizing import FLOAT_BITS
from ..nn.models import MLPClassifier, WordLSTM
from .masks import inverted_dropout_scale, masked_start

__all__ = ["AFD"]


class AFD(FederatedMethod):
    """Server-side score-map dropout on non-recurrent matrices."""

    name = "afd"
    drops_recurrent = False

    def __init__(self, epsilon: float = 0.2, decay: float = 0.9) -> None:
        super().__init__()
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.epsilon = epsilon
        self.decay = decay
        self.scores: dict[str, np.ndarray] = {}
        self._eligible: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def setup(self, model, task, config, rng) -> None:
        super().setup(model, task, config, rng)
        if isinstance(model, MLPClassifier):
            eligible = [
                name
                for name, p in model.named_parameters()
                if p.droppable and name.startswith("net.")
            ]
        elif isinstance(model, WordLSTM):
            eligible = ["embedding.weight"]
            if not model.tie_weights:
                eligible.append("decoder.weight")
        else:
            raise TypeError(f"AFD does not support model {type(model).__name__}")
        self._eligible = tuple(eligible)
        state = dict(model.named_parameters())
        self.scores = {
            name: np.ones(state[name].data.shape[0], dtype=np.float64)
            for name in eligible
        }

    # ------------------------------------------------------------------
    def select_masks(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Keep top-scored rows per eligible matrix with exploration."""
        keep_fraction = 1.0 - self.config.dropout_rate
        masks: dict[str, np.ndarray] = {}
        for name, scores in self.scores.items():
            n = scores.shape[0]
            kept = max(1, int(np.ceil(keep_fraction * n)))
            order = np.argsort(-scores, kind="stable")
            mask = np.zeros(n, dtype=bool)
            mask[order[:kept]] = True
            n_swap = int(self.epsilon * min(kept, n - kept))
            if n_swap > 0:
                kept_idx = np.flatnonzero(mask)
                drop_idx = np.flatnonzero(~mask)
                out = rng.choice(kept_idx, size=n_swap, replace=False)
                into = rng.choice(drop_idx, size=n_swap, replace=False)
                mask[out] = False
                mask[into] = True
            masks[name] = mask
        return masks

    def start_client(self, ctx: ClientContext) -> LocalStart:
        scale = inverted_dropout_scale(ctx.config.dropout_rate)
        return masked_start(ctx.global_params, self.select_masks(ctx.rng), scale)

    def finish_client(self, ctx, start, trained, losses) -> ClientUpdate:
        masks, params = start.masks, trained
        scale = inverted_dropout_scale(ctx.config.dropout_rate)
        for name, mask in masks.items():
            params[name][mask, :] /= scale
        payload = ClientPayload(params=params, weight=float(ctx.n_samples), masks=masks)
        kept = 0
        for name, value in params.items():
            mask = masks.get(name)
            if mask is None:
                kept += value.size
            else:
                kept += int(np.count_nonzero(mask)) * value.shape[1]
        return ClientUpdate(
            payload=payload,
            upload_bits=FLOAT_BITS * kept,
            train_losses=losses,
            aux={"masks": masks},
        )

    # ------------------------------------------------------------------
    def aggregate(self, round_index, prev_global, updates) -> ParamSet:
        """Update the server score maps, then aggregate as usual."""
        for name in self._eligible:
            sums = np.zeros_like(self.scores[name])
            counts = np.zeros_like(self.scores[name])
            for u in updates:
                mask = u.payload.masks.get(name)
                if mask is None:
                    continue
                delta = u.payload.params[name] - prev_global[name]
                row_norm = np.linalg.norm(delta, axis=1)
                sums[mask] += row_norm[mask]
                counts[mask] += 1.0
            seen = counts > 0
            self.scores[name][seen] = (
                self.decay * self.scores[name][seen]
                + (1.0 - self.decay) * (sums[seen] / counts[seen])
            )
        return super().aggregate(round_index, prev_global, updates)
