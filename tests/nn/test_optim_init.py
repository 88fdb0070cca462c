"""Tests for optimizers and initializers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import init as initializers
from repro.nn.module import Parameter
from repro.nn.optim import SGD, clip_grad_norm


def param(values):
    p = Parameter(np.asarray(values, dtype=np.float64))
    return p


class TestSGD:
    def test_plain_step(self):
        p = param([1.0, 2.0])
        p.grad = np.array([0.5, 0.5])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 1.95])

    def test_skips_missing_grads(self):
        p = param([1.0])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_weight_decay(self):
        p = param([1.0])
        p.grad = np.array([0.0])
        SGD([p], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(p.data, [1.0 - 0.1 * 0.5])

    def test_momentum_accumulates(self):
        p = param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad = np.array([1.0])
        opt.step()  # v=1, p=-1
        p.grad = np.array([1.0])
        opt.step()  # v=1.5, p=-2.5
        np.testing.assert_allclose(p.data, [-2.5])

    def test_clipping_invoked(self):
        p = param([0.0])
        p.grad = np.array([100.0])
        SGD([p], lr=1.0, max_grad_norm=1.0).step()
        np.testing.assert_allclose(p.data, [-1.0])

    def test_zero_grad(self):
        p = param([0.0])
        p.grad = np.array([1.0])
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([param([1.0])], lr=0.0)


class TestClipGradNorm:
    def test_scales_to_max(self):
        p1, p2 = param([0.0]), param([0.0])
        p1.grad = np.array([3.0])
        p2.grad = np.array([4.0])
        norm = clip_grad_norm([p1, p2], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(p1.grad**2 + p2.grad**2)
        np.testing.assert_allclose(total, [1.0])

    def test_no_scaling_below_max(self):
        p = param([0.0])
        p.grad = np.array([0.5])
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.5])


class TestInitializers:
    def test_xavier_bounds(self, rng):
        w = initializers.xavier_uniform((50, 30), rng)
        bound = np.sqrt(6.0 / 80)
        assert np.abs(w).max() <= bound

    def test_kaiming_bounds(self, rng):
        w = initializers.kaiming_uniform((50, 30), rng)
        assert np.abs(w).max() <= np.sqrt(6.0 / 30)

    def test_normal_std(self, rng):
        w = initializers.normal((200, 200), rng, std=0.05)
        assert np.std(w) == pytest.approx(0.05, rel=0.05)

    def test_uniform_bound(self, rng):
        w = initializers.uniform((40, 40), rng, bound=0.2)
        assert np.abs(w).max() <= 0.2

    def test_zeros(self):
        np.testing.assert_array_equal(initializers.zeros((3, 2)), np.zeros((3, 2)))

    def test_orthogonal_property(self, rng):
        w = initializers.orthogonal((16, 16), rng)
        np.testing.assert_allclose(w @ w.T, np.eye(16), atol=1e-10)

    def test_orthogonal_requires_2d(self, rng):
        with pytest.raises(ValueError):
            initializers.orthogonal((4,), rng)


class TestStackedClipping:
    def test_each_client_clipped_to_its_own_norm(self, rng):
        grads = [rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 1, 4))]
        for g in grads:
            g[1] *= 1e-3  # client 1 stays under the bound
        stacked = [Parameter(np.zeros(g.shape)) for g in grads]
        for p, g in zip(stacked, grads):
            p.grad = g.copy()
        norms = clip_grad_norm(stacked, max_norm=1.0, stacked=True)
        for i in range(3):
            singles = [Parameter(np.zeros(g.shape[1:])) for g in grads]
            for p, g in zip(singles, grads):
                p.grad = g[i].copy()
            assert norms[i] == clip_grad_norm(singles, max_norm=1.0)
            for p, s in zip(stacked, singles):
                np.testing.assert_array_equal(p.grad[i], s.grad)
        assert norms[1] < 1.0
