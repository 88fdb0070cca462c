"""Simulation configuration shared by FedBIAD and every baseline."""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral

__all__ = ["FLConfig"]


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


#: fields that count something and must be integers >= 1
_POSITIVE_INTS = (
    "rounds", "local_iterations", "batch_size", "tau", "eval_every", "eval_batch_size",
)


@dataclass(frozen=True)
class FLConfig:
    """Hyper-parameters of one federated simulation.

    Field names follow the paper's notation where one exists:

    * ``rounds`` — R global rounds (paper: 60);
    * ``kappa`` — client selection fraction (paper: 0.1);
    * ``local_iterations`` — V SGD iterations per round;
    * ``dropout_rate`` — p;
    * ``tau`` — loss-window length of Eq. (8) (paper: 3);
    * ``stage_boundary`` — R_b, the round after which FedBIAD switches
      to score-driven patterns (paper: 55 of 60); ``None`` resolves to
      ``round(0.9 * rounds)``;
    * ``weight_decay`` — realizes the ``KL`` term of Eq. (2) as L2.

    Execution/system fields (not part of the paper's notation):

    * ``backend`` — how the cohort executes: ``"serial"`` or
      ``"process"`` (see :mod:`repro.fl.engine`);
    * ``workers`` — process-pool size; ``0`` means all CPU cores;
    * ``system`` — device-behaviour profile name (see
      :data:`repro.fl.systems.DEVICE_PROFILES`), or a
      ``"trace:<name-or-path>"`` device-trace spec replayed by
      :class:`repro.traces.TraceSystem`;
    * ``mode`` — server aggregation discipline: ``"sync"`` closes every
      round at a barrier (Algorithm 1), ``"async"`` folds uploads in as
      they land on the virtual clock, FedBuff-style (see
      :mod:`repro.fl.async_aggregation`);
    * ``buffer_size`` — async only: uploads buffered per flush;
      ``0`` resolves to the cohort size ``clients_per_round``;
    * ``staleness_exponent`` — async only: ``beta`` in the staleness
      mixing weight ``alpha / (1 + staleness)**beta`` (a uniform
      ``alpha`` cancels under weight normalization, so only ``beta``
      is configurable);
    * ``max_concurrency`` — async only: clients training concurrently;
      ``0`` resolves to the cohort size.
    """

    rounds: int = 20
    kappa: float = 0.1
    local_iterations: int = 10
    batch_size: int = 20
    lr: float = 0.1
    momentum: float = 0.0
    weight_decay: float = 1e-4
    max_grad_norm: float | None = None
    dropout_rate: float = 0.5
    tau: int = 3
    stage_boundary: int | None = None
    aggregation: str = "per-row"
    eval_every: int = 1
    eval_batch_size: int = 512
    seed: int = 0
    posterior_std_override: float | None = None
    backend: str = "serial"
    workers: int = 0
    system: str = "ideal"
    mode: str = "sync"
    buffer_size: int = 0
    staleness_exponent: float = 0.5
    max_concurrency: int = 0

    def __post_init__(self) -> None:
        for name in _POSITIVE_INTS:
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError("kappa must be in (0, 1]")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if not _is_int(self.workers) or self.workers < 0:
            raise ValueError(
                f"workers must be an integer >= 0 (0 = all cores), got {self.workers!r}"
            )
        if self.mode not in ("sync", "async"):
            raise ValueError(f"mode must be 'sync' or 'async', got {self.mode!r}")
        if self.buffer_size < 0:
            raise ValueError("buffer_size must be >= 0 (0 = cohort size)")
        if self.staleness_exponent < 0:
            raise ValueError("staleness_exponent must be >= 0")
        if self.max_concurrency < 0:
            raise ValueError("max_concurrency must be >= 0 (0 = cohort size)")

    @property
    def resolved_stage_boundary(self) -> int:
        """R_b, defaulting to 90% of the schedule as in the paper (55/60)."""
        if self.stage_boundary is not None:
            return self.stage_boundary
        return max(1, int(round(0.9 * self.rounds)))

    def clients_per_round(self, n_clients: int) -> int:
        """c = max(floor(kappa * K), 1) — Algorithm 1's selection size."""
        return max(int(self.kappa * n_clients), 1)

    def resolved_buffer_size(self, n_clients: int) -> int:
        """Async flush threshold; ``0`` defaults to the cohort size."""
        if self.buffer_size > 0:
            return self.buffer_size
        return self.clients_per_round(n_clients)

    def resolved_max_concurrency(self, n_clients: int) -> int:
        """Async concurrent-trainer target, capped by the fleet size."""
        target = self.max_concurrency if self.max_concurrency > 0 else self.clients_per_round(n_clients)
        return min(target, n_clients)

    def with_overrides(self, **kwargs) -> "FLConfig":
        """Functional update (configs are frozen)."""
        return replace(self, **kwargs)
