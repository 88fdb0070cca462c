"""Module/parameter containers for the NumPy neural-network substrate.

A :class:`Module` owns named :class:`Parameter` tensors and child modules,
and exposes the two views the federated layer needs:

* ``state_dict()`` / ``load_state_dict()`` — numpy-array snapshots that the
  FL server and clients exchange (see :mod:`repro.fl.parameters`);
* ``row_specs()`` — the ordered description of the *droppable weight rows*
  that FedBIAD's dropping patterns index (see :mod:`repro.fl.rows`);
* ``stack(c)`` — a *cohort stack*: the same architecture with every
  parameter carrying a leading client axis, so one forward/backward
  trains ``c`` clients at once (see :func:`repro.fl.client.run_cohort_sgd`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "RowSpec"]


class Parameter(Tensor):
    """A trainable tensor.

    Parameters
    ----------
    data:
        Initial value.
    droppable:
        Whether the parameter participates in row-wise federated dropout.
        Per the paper (Section IV-C and Fig. 4), 2-D weight matrices are
        droppable row-by-row; 1-D biases are always transmitted.
    row_units:
        Number of *activation units* the rows correspond to.  For plain
        matrices this equals the row count (one pattern bit per row).
        Gate-stacked LSTM matrices set ``row_units = hidden_size`` so
        that one pattern bit covers a unit's four gate rows — the
        activation-consistent dropout of Section III-C ("zeroing weight
        rows ... equivalent to dropouts of corresponding activations").
    """

    __slots__ = ("droppable", "row_units")

    def __init__(
        self,
        data: np.ndarray,
        droppable: bool = False,
        row_units: int | None = None,
    ) -> None:
        super().__init__(data, requires_grad=True)
        if droppable and np.asarray(data).ndim != 2:
            raise ValueError("droppable parameters must be 2-D weight matrices")
        self.droppable = bool(droppable)
        n_rows = self.data.shape[0] if self.data.ndim == 2 else 0
        if row_units is None:
            row_units = n_rows
        if droppable:
            if row_units < 1 or n_rows % row_units != 0:
                raise ValueError(
                    f"row_units={row_units} must evenly divide {n_rows} rows"
                )
        self.row_units = int(row_units)


@dataclass(frozen=True)
class RowSpec:
    """Description of one droppable weight matrix.

    Attributes
    ----------
    name:
        Fully qualified parameter name (e.g. ``"lstm.cell0.w_x"``).
    n_rows:
        Number of matrix rows.
    row_len:
        Number of weights per row.
    row_units:
        Number of pattern bits for this matrix; each bit covers
        ``n_rows / row_units`` rows, strided (gate-stacked layout).
        Equal to ``n_rows`` for plain matrices.
    """

    name: str
    n_rows: int
    row_len: int
    row_units: int

    @property
    def n_weights(self) -> int:
        return self.n_rows * self.row_len

    @property
    def rows_per_unit(self) -> int:
        return self.n_rows // self.row_units


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration happens automatically via ``__setattr__``.
    """

    #: Clients in a cohort stack built by :meth:`stack`; ``None`` for a
    #: plain one-client module.
    cohort: int | None = None

    def __init__(self) -> None:
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # parameter traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs in a stable order."""
        if not prefix and self.cohort is not None:  # a stack's layout is fixed
            yield from self._stack_params
            return
        for name, param in self._params.items():
            yield (f"{prefix}{name}", param)
        for name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar weights in the module."""
        return sum(p.data.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # state exchange (used by the FL layer)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a name -> array snapshot (copies, safe to mutate)."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays into parameters in place.

        Raises ``KeyError`` if a parameter is missing from ``state`` and
        ``ValueError`` on shape mismatch, so silent divergence between the
        server's and a client's view of the model is impossible.
        """
        for name, p in self.named_parameters():
            value = state[name]
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {p.data.shape}, got {value.shape}"
                )
            p.data[...] = value

    # ------------------------------------------------------------------
    # cohort stacks
    # ------------------------------------------------------------------
    def stack(self, cohort: int) -> "Module":
        """A copy of this module whose parameters stack ``cohort`` clients.

        Weight matrices become ``(cohort, rows, cols)``; 1-D parameters
        (biases) become ``(cohort, 1, n)`` so they broadcast over each
        client's batch axis.  Values start at zero — load clients with
        :meth:`client_arrays`.  Forward passes take inputs with the same
        leading client axis and return one loss per client.
        """
        if self.cohort is not None:
            raise ValueError("module is already a cohort stack")
        if cohort < 1:
            raise ValueError("cohort must be >= 1")
        stacked = copy.deepcopy(self)
        shapes = {}
        for name, p in stacked.named_parameters():
            shapes[name] = p.data.shape
            lead = (cohort, 1) if p.data.ndim == 1 else (cohort,)
            p.data = np.zeros(lead + p.data.shape, dtype=np.float64)
            p.grad = None
        object.__setattr__(stacked, "_stack_params", tuple(stacked.named_parameters()))
        object.__setattr__(stacked, "_client_shapes", shapes)
        object.__setattr__(stacked, "cohort", cohort)
        return stacked

    def client_arrays(self, index: int) -> dict[str, np.ndarray]:
        """Writable views of client ``index``'s parameters in a stack,
        each in its one-client shape."""
        shapes = self._client_shapes
        return {name: p.data[index].reshape(shapes[name]) for name, p in self._stack_params}

    def row_specs(self) -> list[RowSpec]:
        """Describe every droppable weight matrix, in traversal order."""
        specs = []
        for name, p in self.named_parameters():
            if p.droppable:
                specs.append(
                    RowSpec(
                        name=name,
                        n_rows=p.data.shape[0],
                        row_len=p.data.shape[1],
                        row_units=p.row_units,
                    )
                )
        return specs

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def logit_steps(self, x: np.ndarray) -> Iterator[np.ndarray]:
        """Evaluation logits streamed as ``(batch, classes)`` steps; a
        classifier has one, its ``predict_logits``."""
        yield self.predict_logits(x)
