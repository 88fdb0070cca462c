"""Tests for FLConfig validation and the federated simulation loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvg
from repro.core.client import FedBIAD
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation, run_simulation


class TestFLConfig:
    def test_defaults_valid(self):
        cfg = FLConfig()
        assert cfg.rounds > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": 0},
            {"kappa": 0.0},
            {"kappa": 1.5},
            {"dropout_rate": 1.0},
            {"dropout_rate": -0.1},
            {"tau": 0},
            {"local_iterations": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FLConfig(**kwargs)

    @pytest.mark.parametrize("workers", [None, -1, 1.5, "2", True])
    def test_workers_must_be_a_non_negative_int(self, workers):
        with pytest.raises(ValueError, match="workers"):
            FLConfig(workers=workers)

    @pytest.mark.parametrize("batch_size", [0, -4, 2.0, None])
    def test_batch_size_must_be_a_positive_int(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            FLConfig(batch_size=batch_size)

    @pytest.mark.parametrize(
        "field", ["rounds", "local_iterations", "tau", "eval_every", "eval_batch_size"]
    )
    @pytest.mark.parametrize("value", [0, -1, 2.5, 2.0, None, True, "3"])
    def test_counts_must_be_positive_ints(self, field, value):
        with pytest.raises(ValueError, match=field):
            FLConfig(**{field: value})

    def test_integer_like_values_accepted(self):
        cfg = FLConfig(workers=np.int64(2), batch_size=np.int32(1))
        assert cfg.workers == 2 and cfg.batch_size == 1

    def test_stage_boundary_default_ratio(self):
        assert FLConfig(rounds=60).resolved_stage_boundary == 54
        assert FLConfig(rounds=60, stage_boundary=55).resolved_stage_boundary == 55

    def test_clients_per_round(self):
        cfg = FLConfig(kappa=0.1)
        assert cfg.clients_per_round(1000) == 100
        assert cfg.clients_per_round(5) == 1  # max(floor, 1)

    def test_with_overrides(self):
        cfg = FLConfig(rounds=10)
        cfg2 = cfg.with_overrides(rounds=20)
        assert cfg.rounds == 10 and cfg2.rounds == 20


class TestSimulation:
    def test_fedavg_learns_tiny_task(self, tiny_image_task, fast_config):
        cfg = fast_config.with_overrides(rounds=8, lr=0.5)
        history = run_simulation(tiny_image_task, FedAvg(), cfg)
        assert history.final_accuracy > 0.6
        assert len(history) == 8

    def test_record_fields_populated(self, tiny_image_task, fast_config):
        history = run_simulation(tiny_image_task, FedAvg(), fast_config)
        r = history.records[-1]
        assert r.n_selected == 2  # kappa 0.5 of 4 clients
        assert r.upload_bits_mean > 0
        assert r.download_bits_per_client > 0
        assert r.lttr_seconds_mean > 0
        assert np.isfinite(r.train_loss)

    def test_eval_every_skips_rounds(self, tiny_image_task, fast_config):
        cfg = fast_config.with_overrides(rounds=4, eval_every=2)
        history = run_simulation(tiny_image_task, FedAvg(), cfg)
        acc = history.series("test_accuracy")
        assert np.isnan(acc[0]) and np.isfinite(acc[1])
        assert np.isfinite(acc[3])  # final round always evaluated

    def test_deterministic_given_seed(self, tiny_image_task, fast_config):
        h1 = run_simulation(tiny_image_task, FedAvg(), fast_config)
        h2 = run_simulation(tiny_image_task, FedAvg(), fast_config)
        np.testing.assert_allclose(
            h1.series("train_loss"), h2.series("train_loss")
        )

    def test_different_seeds_differ(self, tiny_image_task, fast_config):
        h1 = run_simulation(tiny_image_task, FedAvg(), fast_config)
        h2 = run_simulation(
            tiny_image_task, FedAvg(), fast_config.with_overrides(seed=99)
        )
        assert not np.allclose(h1.series("train_loss"), h2.series("train_loss"))

    def test_client_state_persists(self, tiny_image_task, fast_config):
        sim = FederatedSimulation(tiny_image_task, FedBIAD(), fast_config)
        for r in range(1, 4):
            sim.run_round(r)
        # at least one selected client accumulated scores
        assert any("scores" in s for s in sim.client_states.values())

    def test_text_task_simulation(self, tiny_text_task, fast_config):
        cfg = fast_config.with_overrides(rounds=2, lr=1.0, max_grad_norm=1.0, batch_size=4)
        history = run_simulation(tiny_text_task, FedAvg(), cfg)
        assert len(history) == 2
        assert np.isfinite(history.final_accuracy)
