"""FedAvg (McMahan et al., 2017) — the uncompressed baseline.

Every selected client trains the full model for ``V`` local iterations
and uploads all weights; the server computes the data-weighted average.
Table I's "Save Ratio" column is defined relative to this method's
upload size.
"""

from __future__ import annotations

from ..fl.aggregation import ClientPayload
from ..fl.client import ClientContext, ClientUpdate, FederatedMethod, LocalStart
from ..fl.sizing import dense_bits

__all__ = ["FedAvg"]


class FedAvg(FederatedMethod):
    """Dense federated averaging."""

    name = "fedavg"
    drops_recurrent = False

    def start_client(self, ctx: ClientContext) -> LocalStart:
        return LocalStart(params=ctx.global_params)

    def finish_client(self, ctx, start, trained, losses) -> ClientUpdate:
        payload = ClientPayload(params=trained, weight=float(ctx.n_samples))
        return ClientUpdate(
            payload=payload,
            upload_bits=dense_bits(trained),
            train_losses=losses,
        )
