"""HeteroFL (Diao et al., 2021) — static heterogeneous width shrinking.

HeteroFL assigns each client a *fixed* hidden-width shrinkage ratio
based on its (simulated) capability class and aggregates parameter
regions over the clients that cover them — exactly the per-row/
per-element normalization our aggregation layer implements.

Unlike FjORD-at-rate-p (where every client trains the same prefix),
HeteroFL's full-width clients keep the tail units training, at the cost
of a smaller average upload saving.  The default capability mix places
two thirds of clients at width ``(1-p)`` and one third at full width,
which lands the mean save ratio in the paper's 1.4-1.6x band.
"""

from __future__ import annotations

from ..fl.aggregation import ClientPayload
from ..fl.client import ClientContext, ClientUpdate, FederatedMethod, LocalStart
from ..fl.sizing import FLOAT_BITS
from .fjord import ordered_model_masks
from .masks import kept_entries, masked_start

__all__ = ["HeteroFL"]


class HeteroFL(FederatedMethod):
    """Per-client static width levels with region-wise aggregation."""

    name = "heterofl"
    drops_recurrent = True

    def __init__(self, levels: tuple[float, ...] | None = None) -> None:
        super().__init__()
        self.levels = levels

    def resolved_levels(self) -> tuple[float, ...]:
        if self.levels:
            return self.levels
        small = 1.0 - self.config.dropout_rate
        return (small, small, 1.0)

    def client_width(self, client_id: int) -> float:
        levels = self.resolved_levels()
        return levels[client_id % len(levels)]

    def start_client(self, ctx: ClientContext) -> LocalStart:
        width = self.client_width(ctx.client_id)
        start = masked_start(ctx.global_params, ordered_model_masks(ctx.model, width))
        start.aux["width"] = width
        return start

    def finish_client(self, ctx, start, trained, losses) -> ClientUpdate:
        masks, params, width = start.masks, trained, start.aux["width"]
        payload = ClientPayload(params=params, weight=float(ctx.n_samples), masks=masks)
        bits = FLOAT_BITS * kept_entries(masks, params)
        return ClientUpdate(
            payload=payload,
            upload_bits=bits,
            train_losses=losses,
            aux={"width": width},
        )
