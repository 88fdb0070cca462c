"""FedBIAD: the client update of Algorithm 1 and the method class.

Round ``r`` on client ``k`` (ClientUpdate, Algorithm 1 lines 9-28):

1. Initialize the local model ``theta ~ N(U_{r-1}, s2 I)`` with the
   closed-form posterior variance of Eq. (13).
2. Choose a dropping pattern: random from ``Z_S^N`` in stage one
   (``r <= R_b``), score-driven in stage two.
3. Train ``V`` masked SGD iterations (Eq. 7).  Every ``tau`` iterations
   in stage one, compute the loss gap of Eq. (8); if the trend worsened,
   resample the pattern; update the weight score vector by Eq. (9).
4. Upload only the kept rows plus the binary pattern (the payload is
   round-tripped through :mod:`repro.core.wire` so the measured bits are
   exactly what travels).

Aggregation is the masked weighted average (Eq. 10 with the per-row
normalization discussed in DESIGN.md §1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fl.aggregation import ClientPayload
from ..fl.client import ClientContext, ClientUpdate, FederatedMethod, LocalStart
from ..fl.parameters import ParamSet
from .adaptive import LossTrendTracker
from .scores import WeightScores
from .spike_slab import (
    ModelStructure,
    posterior_variance,
    sample_model_init,
    structure_from_spec,
)
from .wire import pack_upload, reconstruct_upload

__all__ = ["FedBIAD"]


class FedBIAD(FederatedMethod):
    """Federated learning with Bayesian inference-based adaptive dropout.

    Parameters
    ----------
    adaptive:
        When False, patterns are resampled every ``tau`` iterations
        unconditionally and scores are not used — the "pure random"
        ablation of the loss-trend rule.
    use_stage2:
        When False, the score-driven stage two is disabled and every
        round samples patterns (ablation of Section IV-D).
    bayesian_init:
        When False, clients start from ``U_{r-1}`` exactly instead of
        sampling from the spike-and-slab posterior (ablation of the
        Bayesian initialization).
    rescale:
        Inverted-dropout rescaling: kept rows train scaled by
        ``1/(1-p)`` and are divided back before upload, preserving
        ``E[beta ∘ W] = (1-p) W`` signal magnitudes through depth.  The
        standard implementation of row/unit dropout; disable to ablate.
    weight_bound:
        ``B`` of Assumption 2 (the paper requires ``B >= 2``).
    """

    name = "fedbiad"
    drops_recurrent = True

    def __init__(
        self,
        adaptive: bool = True,
        use_stage2: bool = True,
        bayesian_init: bool = True,
        rescale: bool = True,
        weight_bound: float = 2.0,
    ) -> None:
        super().__init__()
        self.adaptive = adaptive
        self.use_stage2 = use_stage2
        self.bayesian_init = bayesian_init
        self.rescale = rescale
        self.weight_bound = weight_bound
        self.structure: ModelStructure | None = None
        self._min_client_size: int = 1

    # ------------------------------------------------------------------
    def setup(self, model, task, config, rng) -> None:
        super().setup(model, task, config, rng)
        unsparse = self.rowspace.unsparse_number(config.dropout_rate)
        self.structure = structure_from_spec(task.model_spec, unsparse)
        # min_k |D_k| without forcing a fleet walk: FederatedTask (and
        # any lazy source behind it) can answer in O(1); plain stand-in
        # tasks fall back to the historical scan.
        min_size = getattr(task, "min_client_size", None)
        if callable(min_size):
            self._min_client_size = int(min_size())
        else:
            self._min_client_size = min(
                task.client_size(c) for c in range(task.n_clients)
            )

    def posterior_std(self, round_index: int) -> float:
        """``sqrt(s2)`` for round ``r`` (Eq. 13 with ``m_r`` of Thm. 1)."""
        if self.config.posterior_std_override is not None:
            return self.config.posterior_std_override
        if not self.bayesian_init:
            return 0.0
        m_r = round_index * self.config.local_iterations * self._min_client_size
        return float(np.sqrt(posterior_variance(self.structure, m_r, self.weight_bound)))

    # ------------------------------------------------------------------
    def _initial_pattern(self, ctx: ClientContext, scores: WeightScores) -> np.ndarray:
        cfg = ctx.config
        in_stage_two = (
            self.use_stage2
            and self.adaptive
            and ctx.round_index > cfg.resolved_stage_boundary
        )
        if in_stage_two:
            return self.rowspace.pattern_from_scores(scores.values, cfg.dropout_rate)
        return self.rowspace.sample_pattern(cfg.dropout_rate, ctx.rng)

    def _scale_factor(self) -> float:
        p = self.config.dropout_rate
        return 1.0 / (1.0 - p) if (self.rescale and p > 0.0) else 1.0

    def _apply_pattern(
        self, u: ParamSet, arrays, masks: dict[str, np.ndarray]
    ) -> None:
        """Load ``beta ∘ U`` into ``arrays`` (scaled for training).

        ``arrays`` maps names to writable arrays: a fresh start or a
        client's live views in the cohort stack.
        """
        factor = self._scale_factor()
        for name, value in arrays.items():
            value[...] = u[name]
            mask = masks.get(name)
            if mask is not None:
                value[~mask, :] = 0.0
                if factor != 1.0:
                    value[mask, :] *= factor

    def _sync_kept_rows(self, u: ParamSet, arrays, masks: dict[str, np.ndarray]) -> None:
        """Fold trained values back into the variational parameters U.

        Kept rows and dense parameters take the trained values
        (un-scaled); dropped rows keep their U entries so a later
        pattern can revive them (Eq. 4: dropped rows still have
        variational parameters).
        """
        factor = self._scale_factor()
        for name, value in arrays.items():
            mask = masks.get(name)
            if mask is None:
                u[name][...] = value
            else:
                u[name][mask] = value[mask] / factor

    def start_client(self, ctx: ClientContext) -> LocalStart:
        cfg = ctx.config
        rowspace = self.rowspace

        # --- line 9: Bayesian initialization -------------------------
        std = self.posterior_std(ctx.round_index)
        u = sample_model_init(ctx.global_params, std, ctx.rng)

        scores: WeightScores = ctx.state.get("scores") or WeightScores(rowspace.total_rows)
        beta = self._initial_pattern(ctx, scores)
        run = _PatternRun(
            method=self,
            ctx=ctx,
            std=std,
            u=u,
            beta=beta,
            masks=rowspace.split(beta),
            scores=scores,
            tracker=LossTrendTracker(cfg.tau),
            in_stage_one=(
                not self.use_stage2
                or not self.adaptive
                or ctx.round_index <= cfg.resolved_stage_boundary
            ),
        )
        params = u.clone()
        self._apply_pattern(u, params, run.masks)
        return LocalStart(
            params=params,
            masks=run.masks,
            on_iteration=run.on_iteration,
            aux={"run": run},
        )

    def finish_client(self, ctx, start, trained, losses) -> ClientUpdate:
        run: _PatternRun = start.aux["run"]
        rowspace = self.rowspace
        ctx.state["scores"] = run.scores

        # --- line 28 + overview steps 3-4: wire round-trip -----------
        self._sync_kept_rows(run.u, trained, run.masks)
        final_params = rowspace.apply_pattern(run.u, run.beta)
        upload = pack_upload(final_params, rowspace, run.beta)
        reconstructed = reconstruct_upload(upload, rowspace, final_params)
        payload = ClientPayload(
            params=reconstructed,
            weight=float(ctx.n_samples),
            masks=run.masks,
        )
        return ClientUpdate(
            payload=payload,
            upload_bits=upload.bits(final_params, rowspace),
            train_losses=run.tracker.losses,
            aux={
                "pattern": run.beta,
                "n_resamples": run.n_resamples,
                "posterior_std": run.std,
            },
        )


@dataclass
class _PatternRun:
    """One client's pattern state through a round (lines 15-27)."""

    method: FedBIAD
    ctx: ClientContext
    std: float  # the Bayesian initialization's posterior std
    u: ParamSet
    beta: np.ndarray
    masks: dict[str, np.ndarray]
    scores: WeightScores
    tracker: LossTrendTracker
    in_stage_one: bool
    n_resamples: int = 0

    def on_iteration(self, v: int, loss: float, live: dict[str, np.ndarray]):
        """Every ``tau`` stage-one iterations: judge the loss trend (Eq. 8),
        resample a worsening pattern, update the scores (Eq. 9)."""
        method, cfg = self.method, self.ctx.config
        self.tracker.record(loss)
        last_iteration = v == cfg.local_iterations - 1
        if not (self.in_stage_one and self.tracker.is_judgment_point()) or last_iteration:
            return None
        delta = self.tracker.delta()
        if method.adaptive and delta <= 0.0:
            new_beta = self.beta
        else:
            new_beta = method.rowspace.sample_pattern(cfg.dropout_rate, self.ctx.rng)
        self.scores.update(self.beta, delta, new_beta)
        if new_beta is self.beta:
            return None
        self.n_resamples += 1
        method._sync_kept_rows(self.u, live, self.masks)
        self.beta = new_beta
        self.masks = method.rowspace.split(new_beta)
        method._apply_pattern(self.u, live, self.masks)
        return self.masks
