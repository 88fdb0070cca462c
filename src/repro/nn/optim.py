"""Optimizers for local client training.

The paper trains with SGD (image tasks) and SGD with clipped gradient
norm (LSTM tasks, following Merity et al.).  The FedBIAD update rule of
Eq. (7) masks gradients row-wise before the step; that masking lives in
the cohort loop of :mod:`repro.fl.client` — the optimizer itself stays
generic, apart from clipping each client of a cohort stack to its own
norm.
"""

from __future__ import annotations

import numpy as np

from .module import Parameter

__all__ = ["SGD", "clip_grad_norm"]


def clip_grad_norm(
    params: list[Parameter], max_norm: float, stacked: bool = False
) -> float | np.ndarray:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clipping norm (useful for monitoring divergence).
    With ``stacked``, gradients carry a leading client axis (a cohort
    stack): each client's slice is clipped to its own norm, and the
    per-client norms are returned.  A client's norm sums the same
    per-parameter squares in the same order as an unstacked call.
    """
    if not stacked:
        total = 0.0
        for p in params:
            if p.grad is not None:
                total += float(np.sum(p.grad * p.grad))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0.0:
            scale = max_norm / norm
            for p in params:
                if p.grad is not None:
                    p.grad *= scale
        return norm
    grads = [p.grad for p in params if p.grad is not None]
    if not grads:
        return np.zeros(0)
    totals = np.zeros(grads[0].shape[0])
    for g in grads:
        totals += np.sum(g * g, axis=tuple(range(1, g.ndim)))
    norms = np.sqrt(totals)
    clip = (norms > max_norm) & (norms > 0.0)
    if clip.any():
        scale = np.where(clip, max_norm / np.where(clip, norms, 1.0), 1.0)
        for g in grads:
            g *= scale.reshape((-1,) + (1,) * (g.ndim - 1))
    return norms


class SGD:
    """Stochastic gradient descent with optional momentum and weight decay.

    Parameters
    ----------
    params:
        Parameters to update (shared with the model).
    lr:
        Learning rate eta of Eq. (7).
    momentum:
        Classical momentum coefficient; 0 disables the velocity buffer.
    weight_decay:
        L2 coefficient.  In the Bayesian formulation this realizes the
        ``KL(pi_tilde || pi)`` term of Eq. (2), which the paper notes is
        approximately L2 regularization.
    max_grad_norm:
        When set, gradients are clipped to this global norm before the
        step (the paper's LSTM recipe).
    stacked:
        The parameters are a cohort stack; clipping is per client (see
        :func:`clip_grad_norm`).  Every other part of the step is
        elementwise and needs no change.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        max_grad_norm: float | None = None,
        stacked: bool = False,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        self.stacked = stacked
        self._velocity: list[np.ndarray | None] = [None] * len(self.params)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one SGD update to every parameter with a gradient."""
        if self.max_grad_norm is not None:
            clip_grad_norm(self.params, self.max_grad_norm, stacked=self.stacked)
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                if self._velocity[i] is None:
                    self._velocity[i] = np.zeros_like(p.data)
                v = self._velocity[i]
                v *= self.momentum
                v += grad
                update = v
            else:
                update = grad
            p.data -= self.lr * update
