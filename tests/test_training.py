"""Tests for the replay buffer, trainer, and online loop."""

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian
from repro.lattice import random_configuration, square_lattice
from repro.nn import MADE, CategoricalVAE, MADEConfig, VAEConfig
from repro.proposals import MADEProposal, SwapProposal, VAEProposal
from repro.training import OnlineLoop, ProposalTrainer, ReplayBuffer, pretrain_from_chain


class TestReplayBuffer:
    def test_add_and_len(self):
        buf = ReplayBuffer(4, 3, 2)
        buf.add(np.array([0, 1, 0], dtype=np.int8))
        assert len(buf) == 1
        assert not buf.is_full

    def test_ring_overwrite(self):
        buf = ReplayBuffer(2, 1, 3)
        for v in range(5):
            buf.add(np.array([v % 3], dtype=np.int8))
        assert len(buf) == 2
        assert buf.is_full
        stored = set(buf.contents().reshape(-1).tolist())
        assert stored <= {0, 1, 2}

    def test_sample_shapes(self):
        buf = ReplayBuffer(8, 4, 3)
        for _ in range(8):
            buf.add(random_configuration(4, [2, 1, 1], rng=0))
        batch = buf.sample(5, rng=0)
        assert batch.shape == (5, 4)
        oh = buf.sample_one_hot(5, rng=0)
        assert oh.shape == (5, 4, 3)
        assert np.allclose(oh.sum(axis=2), 1.0)

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            ReplayBuffer(4, 2, 2).sample(1)

    def test_wrong_shape_raises(self):
        buf = ReplayBuffer(4, 3, 2)
        with pytest.raises(ValueError):
            buf.add(np.zeros(4, dtype=np.int8))

    def test_add_batch(self):
        buf = ReplayBuffer(10, 2, 2)
        buf.add_batch(np.zeros((3, 2), dtype=np.int8))
        assert len(buf) == 3


class TestProposalTrainer:
    def _filled_buffer(self, n_sites=6, n_species=2, n=64):
        buf = ReplayBuffer(n, n_sites, n_species)
        rng = np.random.default_rng(0)
        for _ in range(n):
            buf.add(rng.integers(0, n_species, n_sites).astype(np.int8))
        return buf

    def test_vae_training_reduces_loss(self):
        buf = self._filled_buffer()
        model = CategoricalVAE(VAEConfig(6, 2, latent_dim=2, hidden=(16,)), rng=1)
        trainer = ProposalTrainer(model, buf, lr=5e-3, batch_size=16, rng=2)
        first = trainer.train_steps(5)["mean_loss"]
        for _ in range(10):
            last = trainer.train_steps(20)["mean_loss"]
        assert last < first
        assert trainer.steps_trained == 205

    def test_made_training(self):
        buf = self._filled_buffer()
        model = MADE(MADEConfig(6, 2, hidden=(32,)), rng=3)
        trainer = ProposalTrainer(model, buf, lr=5e-3, batch_size=16, rng=4)
        metrics = trainer.train_steps(50)
        assert metrics["mean_loss"] > 0
        assert len(trainer.loss_history) == 50

    def test_empty_buffer_raises(self):
        buf = ReplayBuffer(4, 6, 2)
        model = MADE(MADEConfig(6, 2, hidden=(8,)), rng=0)
        trainer = ProposalTrainer(model, buf)
        with pytest.raises(ValueError):
            trainer.train_steps(1)

    def test_wrong_model_type_raises(self):
        buf = self._filled_buffer()
        with pytest.raises(TypeError):
            ProposalTrainer(object(), buf)

    def test_conditioned_made_is_refused(self):
        """A replay buffer holds no condition, so train_step would get none."""
        model = MADE(MADEConfig(6, 2, hidden=(8,), cond_dim=1), rng=0)
        with pytest.raises(ValueError, match="conditioned"):
            ProposalTrainer(model, self._filled_buffer())

    def test_train_until_reaches_or_stops(self):
        buf = self._filled_buffer()
        model = MADE(MADEConfig(6, 2, hidden=(32,)), rng=5)
        trainer = ProposalTrainer(model, buf, lr=1e-2, batch_size=32, rng=6)
        out = trainer.train_until(target_loss=1e9, max_steps=100)
        assert out["reached"] and out["steps"] <= 100
        out2 = trainer.train_until(target_loss=-1.0, max_steps=60)
        assert not out2["reached"] and out2["steps"] == 60


class TestPretrainPipeline:
    def test_pretrain_from_chain(self):
        ham = IsingHamiltonian(square_lattice(3))
        buf = ReplayBuffer(128, 9, 2)
        model = MADE(MADEConfig(9, 2, hidden=(32,)), rng=0)
        trainer = ProposalTrainer(model, buf, lr=5e-3, batch_size=32, rng=1)
        out = pretrain_from_chain(
            ham, SwapProposal(), beta=0.3,
            initial_config=random_configuration(9, [5, 4], rng=2),
            trainer=trainer, n_burn_in=500, n_harvest=100,
            harvest_interval=10, train_steps=100,
        )
        assert out["n_harvested"] == 100
        assert 0.0 < out["chain_acceptance"] <= 1.0
        assert out["mean_loss"] > 0


class TestOnlineLoop:
    def test_online_loop_runs_and_tracks(self):
        ham = IsingHamiltonian(square_lattice(3))
        buf = ReplayBuffer(256, 9, 2)
        model = MADE(MADEConfig(9, 2, hidden=(32,)), rng=1)
        trainer = ProposalTrainer(model, buf, lr=5e-3, batch_size=32, rng=2)
        cfg = random_configuration(9, [5, 4], rng=3)
        # Seed the buffer so round 0 can train.
        for _ in range(32):
            buf.add(cfg)
        loop = OnlineLoop(
            ham, beta=0.3, initial_config=cfg,
            local_proposal=SwapProposal(),
            dl_proposal=MADEProposal(model, composition="fixed"),
            trainer=trainer, dl_fraction=0.3, refresh_train_steps=20, seed=4,
        )
        result = loop.run(n_rounds=3, steps_per_round=200, harvest_interval=10)
        assert len(result.dl_acceptance_history) == 3
        assert len(result.loss_history) == 3
        assert all(np.isfinite(result.energies))
        # DL kernel was actually exercised.
        assert loop.mixture.counts[1] > 0

    def test_dl_fraction_validation(self):
        ham = IsingHamiltonian(square_lattice(3))
        buf = ReplayBuffer(16, 9, 2)
        model = MADE(MADEConfig(9, 2, hidden=(8,)), rng=0)
        trainer = ProposalTrainer(model, buf)
        with pytest.raises(ValueError):
            OnlineLoop(ham, 0.3, np.zeros(9, dtype=np.int8), SwapProposal(),
                       MADEProposal(model), trainer, dl_fraction=1.5)

    def test_vae_cache_invalidated_on_refresh(self):
        ham = IsingHamiltonian(square_lattice(3))
        buf = ReplayBuffer(64, 9, 2)
        model = CategoricalVAE(VAEConfig(9, 2, latent_dim=2, hidden=(16,)), rng=0)
        trainer = ProposalTrainer(model, buf, rng=1)
        cfg = random_configuration(9, [5, 4], rng=2)
        for _ in range(16):
            buf.add(cfg)
        dl = VAEProposal(model, n_marginal_samples=4, composition="repair")
        loop = OnlineLoop(ham, 0.3, cfg, SwapProposal(), dl, trainer,
                          dl_fraction=0.2, refresh_train_steps=5, seed=3)
        loop.run(n_rounds=1, steps_per_round=50)
        assert not dl._logq_cache  # invalidated after refresh
