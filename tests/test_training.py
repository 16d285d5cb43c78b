"""Tests for the replay buffer, trainer, and online loop."""

import copy
import functools
import pickle

import numpy as np
import pytest

import repro.nn.models.made as made_module
import repro.nn.models.vae as vae_module
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import one_hot, random_configuration, square_lattice
from repro.nn import MADE, CategoricalVAE, MADEConfig, VAEConfig
from repro.nn.serialization import params_from_bytes, params_to_bytes
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

    @pytest.mark.parametrize("row", [[0, 2, 1], [0, -1, 1], [0, 1, 300]])
    def test_species_out_of_range_raises_on_add(self, row):
        """A bad species is refused where it is written, not when a batch
        is encoded: sampling trusts the stored range."""
        buf = ReplayBuffer(4, 3, 2)
        with pytest.raises(ValueError, match="species"):
            buf.add(np.array(row))
        assert len(buf) == 0

    def test_sample_one_hot_is_one_hot_of_sample(self):
        buf = ReplayBuffer(16, 5, 4)
        rng = np.random.default_rng(1)
        buf.add_batch(rng.integers(0, 4, size=(16, 5)))
        got = buf.sample_one_hot(9, rng=np.random.default_rng(2))
        want = one_hot(buf.sample(9, rng=np.random.default_rng(2)), 4)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)


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


def _reference_cross_entropy(logits, t):
    """The loss with NumPy axis reductions and one max/exp/sum pass each
    for log_softmax and softmax."""
    batch = logits.shape[0]
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / np.sum(e, axis=-1, keepdims=True)
    return float(-(t * logp).sum() / batch), (p - t) / batch


class _ReferenceAdam:
    """Adam and gradient clipping one parameter at a time, with temporaries."""

    def __init__(self, params, lr):
        self.params, self.lr = list(params), lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        self._t = 0
        self.clipped = 0

    def clip_gradients(self, max_norm):
        norm = float(np.sqrt(sum(float(np.sum(p.grad**2)) for p in self.params)))
        if norm > max_norm:
            self.clipped += 1
            for p in self.params:
                p.grad *= max_norm / (norm + 1e-12)
        return norm

    def step(self):
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad**2
            p.value -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def _filled(n_sites, n_species, n=96, seed=0):
    buf = ReplayBuffer(n, n_sites, n_species)
    buf.add_batch(np.random.default_rng(seed).integers(0, n_species, size=(n, n_sites)))
    return buf


def _trainer(model, buf, max_grad_norm):
    trainer = ProposalTrainer(model, buf, lr=1e-2, batch_size=32, rng=9)
    if max_grad_norm is not None:
        model.train_step = functools.partial(model.train_step, max_grad_norm=max_grad_norm)
    return trainer


def _weights(model):
    return [p.value.copy() for p in model.parameters()]


class TestTrainingBitIdentity:
    """The trainer against the per-parameter formulas, in one process."""

    @pytest.mark.parametrize("make_model, n_species, max_grad_norm", [
        (lambda: MADE(MADEConfig(8, 2, hidden=(24,)), rng=1), 2, None),
        (lambda: MADE(MADEConfig(6, 4, hidden=(20, 12)), rng=2), 4, 0.3),
        (lambda: CategoricalVAE(VAEConfig(8, 4, latent_dim=3, hidden=(16,)), rng=3), 4, None),
    ], ids=["made2", "made4-clipped", "vae4"])
    def test_fifty_steps_match_reference(self, monkeypatch, make_model, n_species,
                                         max_grad_norm):
        n_sites = make_model().config.n_sites
        trainer = _trainer(make_model(), _filled(n_sites, n_species), max_grad_norm)
        trainer.train_steps(50)

        ref = _trainer(make_model(), _filled(n_sites, n_species), max_grad_norm)
        ref.optimizer = _ReferenceAdam(ref.model.parameters(), lr=1e-2)
        monkeypatch.setattr(made_module, "categorical_cross_entropy_from_logits",
                            _reference_cross_entropy)
        monkeypatch.setattr(vae_module, "categorical_cross_entropy_from_logits",
                            _reference_cross_entropy)
        monkeypatch.setattr(ReplayBuffer, "sample_one_hot",
                            lambda self, b, rng: one_hot(self.sample(b, rng), self.n_species))
        ref.train_steps(50)

        if max_grad_norm is not None:
            assert ref.optimizer.clipped > 0
        assert trainer.loss_history == ref.loss_history
        for a, b in zip(_weights(trainer.model), _weights(ref.model)):
            assert np.array_equal(a, b)

    def test_optimizer_state_survives_copy(self):
        """A deep copy and a pickle of a trainer carry its optimizer state:
        trained 20 more steps each, they agree with the original."""
        trainer = ProposalTrainer(MADE(MADEConfig(6, 4, hidden=(16,)), rng=4), _filled(6, 4),
                                  lr=1e-2, batch_size=16, rng=5)
        trainer.train_steps(20)
        copies = [copy.deepcopy(trainer), pickle.loads(pickle.dumps(trainer))]
        for t in [trainer] + copies:
            t.train_steps(20)
        for t in copies:
            assert t.loss_history == trainer.loss_history
            for a, b in zip(_weights(t.model), _weights(trainer.model)):
                assert np.array_equal(a, b)

    def test_load_params_mid_training_is_honoured(self):
        model = MADE(MADEConfig(6, 2, hidden=(16,)), rng=6)
        trainer = ProposalTrainer(model, _filled(6, 2), lr=1e-3, batch_size=16, rng=7)
        trainer.train_steps(10)
        other = MADE(MADEConfig(6, 2, hidden=(16,)), rng=8)
        for p in other.parameters():
            p.value += 0.5  # far from anything ten steps of lr 1e-3 reach
        params_from_bytes(model.parameters(), params_to_bytes(other.parameters()))
        trainer.train_steps(1)
        for p, q in zip(model.parameters(), other.parameters()):
            # One Adam step moves a weight by about lr, never by 0.5.
            assert np.abs(p.value - q.value).max() < 1e-2


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
        dl = VAEProposal(model, n_marginal_samples=4)
        loop = OnlineLoop(ham, 0.3, cfg, SwapProposal(), dl, trainer,
                          dl_fraction=0.2, refresh_train_steps=5, seed=3)
        loop.run(n_rounds=1, steps_per_round=50)
        assert dl._pool.size == 0  # invalidated after refresh
