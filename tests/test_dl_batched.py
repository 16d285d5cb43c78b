"""Batched DL-proposal inference: per-row contracts and exactness.

The contract of the pooled proposals (DESIGN.md §12, §16): every DL
proposal's block hands out one pre-drawn candidate per row-step — the same
candidate distribution, (exact) proposal-density corrections and
composition semantics whatever the team size — drawn a pool block at a
time, and ``propose_many`` is its one-step block.  Three layers of checks:

1. **Bit-level**: MADE calls hand out consecutive rows of one candidate
   pool, so B one-row calls and one B-row call give the same candidates,
   ``log_q_ratios`` and ``delta_energies`` exactly; a pickled sampler
   continues bit for bit; the workspace-bound model must be bit-identical
   to the unbound one.
2. **Row-level**: every batched row's ``log_q_ratio`` equals directly
   evaluated model densities (exact for MADE, conditioned too),
   ``delta_energies`` match recomputed Hamiltonian differences, and
   composition modes behave per row.
3. **Distribution-level** (E1-style): a *batched* Wang-Landau chain whose
   proposal mixture includes a MADE global kernel recovers the exactly
   enumerated 3x3 Ising density of states.
"""

import pickle
from copy import deepcopy
from unittest import mock

import numpy as np
import pytest

from repro.dos import exact_ising_dos_bruteforce
from repro.hamiltonians import IsingHamiltonian, enumerate_density_of_states
from repro.lattice import (
    Lattice,
    composition_counts,
    one_hot,
    random_configuration,
    square_lattice,
)
from repro.nn import (
    MADE,
    MADEConfig,
    CategoricalVAE,
    VAEConfig,
    Workspace,
    encode_one_hot,
)
from repro.proposals import (
    FlipProposal,
    MADEProposal,
    MixtureProposal,
    SwapProposal,
    VAEProposal,
)
from repro.parallel import REWLConfig, REWLDriver
from repro.kernels import native
from repro.proposals import dl_made
from repro.proposals.base import PooledBlock
from repro.proposals.cache import CandidatePool
from repro.proposals.dl_vae import composition_counts_rows, first_match_per_row
from repro.proposals.local import SwapBlock
from repro.obs.costattr import attribute_cost
from repro.obs.profile import SectionProfiler
from repro.sampling import (
    CanonicalTeam,
    EnergyGrid,
    MetropolisSampler,
    WLConfig,
    make_wang_landau,
)
from repro.sampling.wang_landau import drive_into_range
from repro.training import ProposalTrainer, ReplayBuffer


@pytest.fixture(scope="module")
def tiny_ising():
    return IsingHamiltonian(square_lattice(3))


@pytest.fixture(scope="module")
def made9():
    """Untrained 9-site MADE — density exactness needs no training."""
    return MADE(MADEConfig(n_sites=9, n_species=2, hidden=(32,)), rng=1)


@pytest.fixture(scope="module")
def cmade9():
    return MADE(MADEConfig(n_sites=9, n_species=2, hidden=(32,), cond_dim=1), rng=2)


@pytest.fixture(scope="module")
def vae9():
    return CategoricalVAE(
        VAEConfig(n_sites=9, n_species=2, latent_dim=3, hidden=(24,)), rng=3
    )


def _configs(n_rows, n_sites, seed, n_species=2):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_species, (n_rows, n_sites)).astype(np.int8)


# --------------------------------------------------------------- bit identity


class TestBatchedEqualsScalar:
    def test_workspace_binding_is_bit_identical(self):
        """The same architecture with and without a bound workspace."""
        plain = MADE(MADEConfig(n_sites=9, n_species=2, hidden=(32,)), rng=5)
        pooled = MADE(MADEConfig(n_sites=9, n_species=2, hidden=(32,)), rng=5)
        ws = Workspace()
        pooled.bind_workspace(ws)

        x = one_hot(_configs(6, 9, seed=12), 2)
        assert np.array_equal(plain.log_prob(x), pooled.log_prob(x))
        a, lp_a = plain.sample(4, np.random.default_rng(6), return_log_prob=True)
        b, lp_b = pooled.sample(4, np.random.default_rng(6), return_log_prob=True)
        assert np.array_equal(a, b)
        assert np.array_equal(lp_a, lp_b)
        assert ws.n_buffers > 0
        # Repeated same-shape calls allocate nothing new.
        n = ws.n_buffers
        pooled.log_prob(x)
        assert ws.n_buffers == n


# ----------------------------------------------------------------- row level


class TestBatchedRowContracts:
    def test_made_log_q_ratio_exact_per_row(self, tiny_ising, made9):
        B = 5
        configs = _configs(B, 9, seed=13)
        prop = MADEProposal(made9, composition="free")
        bmove = prop.propose_many(configs, tiny_ising, np.random.default_rng(7))
        for b in range(B):
            lq_old = made9.log_prob(one_hot(configs[b][None], 2))[0]
            lq_new = made9.log_prob(one_hot(bmove.new_values[b][None], 2))[0]
            assert bmove.log_q_ratios[b] == pytest.approx(lq_old - lq_new, abs=1e-10)

    def test_made_delta_energies_per_row(self, tiny_ising, made9):
        B = 4
        configs = _configs(B, 9, seed=14)
        prop = MADEProposal(made9, composition="free")
        bmove = prop.propose_many(configs, tiny_ising, np.random.default_rng(8))
        for b in range(B):
            applied = configs[b].copy()
            bmove.apply_row(b, applied)
            assert tiny_ising.energy(applied) - tiny_ising.energy(configs[b]) \
                == pytest.approx(bmove.delta_energies[b])

    def test_made_fixed_rows_keep_composition(self, tiny_ising, made9):
        """Every row is a move on the rows' composition, its ratio the
        masked model's exact log q difference; rows of two compositions in
        one call are refused."""
        B = 6
        configs = np.stack([np.random.default_rng(b).permutation(
            np.array([0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=np.int8)) for b in range(B)])
        model = _perturbed(MADE(made9.config, rng=1), 9)
        prop = MADEProposal(model)
        bmove = prop.propose_many(configs, tiny_ising, np.random.default_rng(9))
        for b in range(B):
            assert np.array_equal(composition_counts(bmove.new_values[b], 2), [4, 5])
            lq_old, lq_new = model.log_prob(
                one_hot(np.stack([configs[b], bmove.new_values[b]]), 2), counts=[4, 5])
            assert bmove.log_q_ratios[b] == pytest.approx(lq_old - lq_new, abs=1e-10)
        configs[0] = 1
        with pytest.raises(ValueError, match="one composition"):
            prop.propose_many(configs, tiny_ising, np.random.default_rng(9))

    def test_cmade_log_q_ratio_exact_per_row(self, tiny_ising, cmade9):
        """Each row's ratio is q(x | c) / q(x' | c) under the proposal's
        constant condition, exactly."""
        B = 4
        configs = _configs(B, 9, seed=15)
        cond = np.array([0.4])
        prop = MADEProposal(cmade9, composition="free", cond=cond)
        bmove = prop.propose_many(configs, tiny_ising, np.random.default_rng(11))
        for b in range(B):
            lq_new = cmade9.log_prob(one_hot(bmove.new_values[b][None], 2), cond)[0]
            lq_old = cmade9.log_prob(one_hot(configs[b][None], 2), cond)[0]
            assert bmove.log_q_ratios[b] == pytest.approx(lq_old - lq_new, abs=1e-10)

    def test_vae_batched_structure_and_composition(self, tiny_ising, vae9):
        B = 4
        configs = np.stack([
            np.array([0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=np.int8)
        ] * B)
        prop = VAEProposal(vae9, n_marginal_samples=8, max_reject_tries=256)
        bmove = prop.propose_many(configs, tiny_ising, np.random.default_rng(12))
        assert bmove.new_values.shape == (B, 9)
        assert np.isfinite(bmove.log_q_ratios).all()
        for b in range(B):
            assert np.array_equal(
                composition_counts(bmove.new_values[b], 2), [4, 5]
            )
            applied = configs[b].copy()
            bmove.apply_row(b, applied)
            assert tiny_ising.energy(applied) - tiny_ising.energy(configs[b]) \
                == pytest.approx(bmove.delta_energies[b])


# ------------------------------------------------------------ candidate pool


def _perturbed(model, seed, scale=0.7):
    """Give an untrained MADE (zero output layer = uniform q) real weights."""
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.value += scale * rng.standard_normal(p.value.shape)
    return model


def _handed_out(prop, model, ham, configs, bmove):
    """(candidates, log q, energies) a ``propose_many`` call handed out."""
    logq_old = model.log_prob(one_hot(configs, 2))
    return (bmove.new_values, logq_old - bmove.log_q_ratios,
            ham.energies(configs) + bmove.delta_energies)


class TestCandidatePool:
    def test_take_hands_out_each_row_once_across_refills(self):
        blocks = iter([np.arange(0, 5), np.arange(5, 10), np.arange(10, 15)])
        pool = CandidatePool()
        refill = lambda: (block := next(blocks), 10 * block)
        got = [pool.take(n, refill) for n in (3, 4, 6)]
        assert [list(rows) for rows, _ in got] == [[0, 1, 2], [3, 4, 5, 6],
                                                   [7, 8, 9, 10, 11, 12]]
        assert all(np.array_equal(tens, 10 * rows) for rows, tens in got)
        assert (pool.cursor, pool.size) == (3, 5)
        pool.drop()
        assert (pool.cursor, pool.size) == (0, 0)

    def test_consumed_rows_are_iid_draws_of_q_with_their_log_q_and_energy(self):
        """4-site ring, all 16 states: chi-square of 3000 consumed candidates
        (two refills, both falling inside a 7-row call) against exp(log q),
        and each row carries its own log q and energy."""
        ham = IsingHamiltonian(Lattice(np.eye(1), (4,), [[0.0]], name="ring"))
        model = _perturbed(MADE(MADEConfig(n_sites=4, n_species=2, hidden=(16,)), rng=3), 4, 0.25)
        prop = MADEProposal(model, composition="free")
        rng = np.random.default_rng(5)
        configs = _configs(7, 4, seed=6)
        seen = []
        while sum(len(c) for c, _, _ in seen) < 3000:
            bmove = prop.propose_many(configs, ham, rng)
            seen.append(_handed_out(prop, model, ham, configs, bmove))
        cands, logq, energies = (np.concatenate(col) for col in zip(*seen))

        assert np.allclose(logq, model.log_prob(one_hot(cands, 2)), rtol=0, atol=1e-10)
        assert np.allclose(energies, [ham.energy(c) for c in cands], rtol=0, atol=1e-12)
        # nothing but refills drew from rng: the rows are the model's blocks
        replay = np.random.default_rng(5)
        blocks = np.concatenate([model.sample(1024, replay) for _ in range(3)])
        assert np.array_equal(cands, blocks[:len(cands)])

        states = np.array([[(s >> i) & 1 for i in range(4)] for s in range(16)], dtype=np.int8)
        expected = len(cands) * np.exp(model.log_prob(one_hot(states, 2)))
        counts = np.bincount(cands @ (1 << np.arange(4)), minlength=16)
        assert expected.min() > 5.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 44.3  # chi-square, 15 dof, p = 1e-4

    @pytest.mark.parametrize("composition,B,calls", [
        ("free", 5, 210),    # 1024 % 5 != 0: the refill falls inside a call
        ("fixed", 6, 180),   # 1024 % 6 != 0 too, on the masked decoder
    ])
    def test_scalar_calls_and_one_batched_call_hand_out_the_same_rows(
            self, tiny_ising, made9, composition, B, calls):
        """B one-row calls and one B-row call hand out the same rows."""
        single = MADEProposal(made9, composition=composition)
        team = MADEProposal(made9, composition=composition)
        rng_s, rng_b = np.random.default_rng(42), np.random.default_rng(42)
        configs = np.stack([np.array([0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=np.int8)] * B)
        e0 = tiny_ising.energies(configs)
        for _ in range(calls):
            bmove = team.propose_many(configs, tiny_ising, rng_b, current_energies=e0)
            for b in range(B):
                row = single.propose_many(configs[b:b + 1], tiny_ising, rng_s,
                                          current_energies=e0[b:b + 1])
                assert np.array_equal(row.new_values[0], bmove.new_values[b])
                assert row.log_q_ratios[0] == bmove.log_q_ratios[b]
                assert row.delta_energies[0] == bmove.delta_energies[b]
        assert team._pool.cursor == single._pool.cursor
        assert calls * B > 1024

    def test_pool_rows_are_capped_by_the_scratch_budget(self, monkeypatch):
        """Per row, ``MADE.sample`` holds three float64 buffers of the first
        hidden width and one activation of each deeper layer."""
        ham = IsingHamiltonian(Lattice(np.eye(1), (4,), [[0.0]], name="ring"))
        model = MADE(MADEConfig(n_sites=4, n_species=2, hidden=(8, 6)), rng=0)
        prop = MADEProposal(model, composition="free")
        monkeypatch.setattr(dl_made, "_POOL_SCRATCH_BYTES", 10 * 8 * (3 * 8 + 6))
        prop.propose_many(_configs(3, 4, seed=1), ham, np.random.default_rng(0))
        assert (prop._pool.cursor, prop._pool.size) == (3, 10)

    def test_pickled_mid_pool_sampler_continues_bit_for_bit(self, tiny_ising, made9):
        grid = EnergyGrid.from_levels(tiny_ising.energy_levels())
        mix = MixtureProposal([
            (FlipProposal(), 0.7),
            (MADEProposal(_perturbed(MADE(made9.config, rng=1), 2), composition="free"), 0.3),
        ])
        wl = make_wang_landau(
            hamiltonian=tiny_ising, proposal=mix, grid=grid,
            initial_config=np.zeros(9, dtype=np.int8), rng=3,
            config=WLConfig(batch_size=8),
        )
        for _ in range(60):
            wl.steps(1)
        pool = mix.proposals[1]._pool
        assert 0 < pool.cursor < pool.size
        blob = pickle.dumps(wl)
        assert len(blob) < 200_000  # pool and weights, not the forward scratch
        restored = pickle.loads(blob)
        assert restored.proposal.proposals[1]._pool.cursor == pool.cursor
        for sampler in (wl, restored):
            for _ in range(600):  # through the next refill
                sampler.steps(1)
            for _ in range(12):  # and on, in blocks, through the next
                sampler.steps(50)
        assert np.array_equal(wl.ln_g, restored.ln_g)
        assert np.array_equal(wl.configs, restored.configs)
        assert np.array_equal(wl.histogram, restored.histogram)
        assert wl.rng.bit_generator.state == restored.rng.bit_generator.state
        assert restored.proposal.proposals[1]._pool.cursor == pool.cursor

    def test_mixture_rewl_campaign_is_the_same_on_every_backend(self):
        ham = IsingHamiltonian(square_lattice(4))
        model = _perturbed(MADE(MADEConfig(n_sites=16, n_species=2, hidden=(24,)), rng=5), 6, 0.3)

        def run(backend, **over):
            driver = REWLDriver(
                hamiltonian=ham, grid=EnergyGrid.from_levels(ham.energy_levels()),
                proposal_factory=lambda: MixtureProposal([
                    (FlipProposal(), 0.7),
                    (MADEProposal(model, composition="free"), 0.3),
                ]),
                initial_config=np.zeros(16, dtype=np.int8),
                config=REWLConfig(n_windows=2, walkers_per_window=3, overlap=0.6,
                                  exchange_interval=100, ln_f_final=5e-2, seed=9,
                                  backend=backend, **over),
            )
            try:
                return driver.run(max_rounds=40)
            finally:
                driver.close()

        fused = run("fused")
        assert fused.total_steps > 0
        shm = run("shm", shm_ranks=2)
        assert shm.rounds == fused.rounds
        assert shm.total_steps == fused.total_steps
        np.testing.assert_array_equal(shm.exchange_accepts, fused.exchange_accepts)
        for x, y in zip(shm.window_ln_g, fused.window_ln_g):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("via_block", [False, True])
    def test_rows_priced_by_another_hamiltonian_are_re_priced(self, via_block):
        """A pool filled under one Hamiltonian hands out candidates priced
        by the Hamiltonian of the call, on ``propose_many`` and in a
        block, drawing nothing and keeping the candidate stream."""
        lattice = square_lattice(4)
        weak, strong = IsingHamiltonian(lattice, coupling=1.0), IsingHamiltonian(lattice, coupling=2.0)
        model = _perturbed(MADE(MADEConfig(n_sites=16, n_species=2, hidden=(8,)), rng=0), 1)
        configs = _configs(4, 16, seed=3)
        prop, twin = (MADEProposal(model, composition="free") for _ in range(2))
        rng, rng_twin = np.random.default_rng(4), np.random.default_rng(4)
        prop.propose_many(configs, weak, rng)  # fills the pool, priced by `weak`
        twin.propose_many(configs, strong, rng_twin)
        state = rng.bit_generator.state
        current = strong.energies(configs)
        if via_block:
            cands, energies = prop.draw_fields(configs, strong, rng, 1).candidates[:2]
        else:
            bmove = prop.propose_many(configs, strong, rng, current_energies=current)
            cands, energies = bmove.new_values, current + bmove.delta_energies
        assert rng.bit_generator.state == state
        np.testing.assert_array_equal(energies, strong.energies(cands))
        np.testing.assert_array_equal(cands, twin.take_candidates(configs, 4, strong,
                                                                  rng_twin)[0])

    def test_rows_drawn_for_another_composition_are_dropped(self, tiny_ising, made9):
        """A fixed-composition pool hands out rows of the composition it was
        drawn for only: rows of another composition refill it."""
        prop = MADEProposal(made9)
        rng = np.random.default_rng(12)
        four = np.array([[0, 0, 0, 0, 1, 1, 1, 1, 1]], dtype=np.int8)
        prop.propose_many(four, tiny_ising, rng)
        assert prop._pool.drawn_for == (4, 5) and prop._pool.cursor == 1
        bmove = prop.propose_many(1 - four, tiny_ising, rng)
        assert prop._pool.drawn_for == (5, 4) and prop._pool.cursor == 1
        assert np.array_equal(composition_counts(bmove.new_values[0], 2), [5, 4])

    def test_invalidate_drops_rows_drawn_from_the_old_weights(self, tiny_ising, made9):
        model = _perturbed(MADE(made9.config, rng=7), 8)
        prop = MADEProposal(model, composition="free")
        rng = np.random.default_rng(9)
        configs = _configs(4, 9, seed=10)
        prop.propose_many(configs, tiny_ising, rng)
        assert prop._pool.cursor < prop._pool.size
        _perturbed(model, 11, scale=0.3)  # "retraining"
        prop.invalidate_cache()
        assert prop._pool.size == 0
        bmove = prop.propose_many(configs, tiny_ising, rng)
        _, logq, _ = _handed_out(prop, model, tiny_ising, configs, bmove)
        assert np.allclose(logq, model.log_prob(one_hot(bmove.new_values, 2)),
                           rtol=0, atol=1e-10)


# ------------------------------------------------------------------- mixture


class TestMixtureBatched:
    def test_dispatch_groups_rows_by_component(self, tiny_ising, made9):
        B = 8
        configs = _configs(B, 9, seed=20)
        mix = MixtureProposal([
            (FlipProposal(), 0.5),
            (MADEProposal(made9, composition="free"), 0.5),
        ])
        bmove = mix.propose_many(configs, tiny_ising, np.random.default_rng(0),
                                 current_energies=tiny_ising.energies(configs))
        assert mix.counts.sum() == B
        assert (mix.counts > 0).all()  # both components drawn at this seed
        assert bmove.sites.shape == (B, 9)  # widened to the global component
        for b in range(B):
            applied = configs[b].copy()
            bmove.apply_row(b, applied)
            assert tiny_ising.energy(applied) - tiny_ising.energy(configs[b]) \
                == pytest.approx(bmove.delta_energies[b])

    def test_narrow_rows_use_first_pair_padding(self, tiny_ising, made9):
        B = 8
        configs = _configs(B, 9, seed=21)
        mix = MixtureProposal([
            (FlipProposal(), 0.5),
            (MADEProposal(made9, composition="free"), 0.5),
        ])
        bmove = mix.propose_many(configs, tiny_ising, np.random.default_rng(0))
        # Flip rows touch one site; their padded tail repeats that pair, so
        # applying the padded row changes at most one site.
        changed = (bmove.new_values != configs[np.arange(B)[:, None],
                                              bmove.sites]).any(axis=1)
        n_changed_sites = np.array([
            (configs[b] != _applied(bmove, b, configs)).sum() for b in range(B)
        ])
        assert (n_changed_sites[changed] >= 1).all()
        flip_rows = np.nonzero(n_changed_sites <= 1)[0]
        for b in flip_rows:
            assert len(np.unique(bmove.sites[b])) <= 2

    def test_invalidate_cache_forwards_to_components(self, tiny_ising, made9):
        dl = MADEProposal(made9, composition="free")
        dl.propose_many(_configs(2, 9, seed=22), tiny_ising, np.random.default_rng(0))
        assert dl._pool.size > 0
        mix = MixtureProposal([(FlipProposal(), 0.5), (dl, 0.5)])
        mix.invalidate_cache()
        assert dl._pool.size == 0


def _applied(bmove, b, configs):
    out = configs[b].copy()
    bmove.apply_row(b, out)
    return out


# ----------------------------------------------------- encoders / workspace


class TestBatchedEncoders:
    def test_one_hot_2d_matches_stacked_rows(self):
        configs = _configs(7, 9, seed=24, n_species=3)
        batched = one_hot(configs, 3)
        stacked = np.stack([one_hot(row, 3) for row in configs])
        assert np.array_equal(batched, stacked)

    def test_one_hot_rejects_3d(self):
        with pytest.raises(ValueError, match="batch"):
            one_hot(np.zeros((2, 2, 2), dtype=np.int8), 2)

    def test_encode_one_hot_matches_one_hot(self):
        configs = _configs(5, 9, seed=25, n_species=4)
        assert np.array_equal(encode_one_hot(configs, 4), one_hot(configs, 4))

    def test_encode_one_hot_reuses_workspace_buffer(self):
        ws = Workspace()
        configs = _configs(5, 9, seed=26)
        a = encode_one_hot(configs, 2, workspace=ws)
        b = encode_one_hot(configs, 2, workspace=ws)
        assert a is b  # pooled buffer, rewritten in place
        assert ws.n_buffers == 1

    def test_sample_one_hot_matches_per_row_encoding(self):
        buf = ReplayBuffer(capacity=32, n_sites=9, n_species=3)
        fill = np.random.default_rng(27)
        for _ in range(32):
            buf.add(fill.integers(0, 3, 9).astype(np.int8))
        drawn = buf.sample(8, np.random.default_rng(28))
        encoded = buf.sample_one_hot(8, np.random.default_rng(28))
        assert np.array_equal(encoded, np.stack([one_hot(r, 3) for r in drawn]))

    def test_composition_counts_rows_matches_scalar(self):
        pool = _configs(4, 9, seed=29, n_species=3).reshape(2, 2, 9)
        counts = composition_counts_rows(pool, 3)
        assert counts.shape == (2, 2, 3)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(
                    counts[i, j], composition_counts(pool[i, j], 3)
                )

    def test_first_match_per_row(self):
        pool = np.array([
            [[0, 0, 1], [0, 1, 1], [1, 1, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        ], dtype=np.int8)
        targets = np.array([[1, 2], [2, 1]])
        first, has = first_match_per_row(pool, targets)
        assert list(has) == [True, True]
        assert list(first) == [1, 1]
        none_target = np.array([[0, 3], [0, 3]])
        _, has_none = first_match_per_row(pool, none_target)
        assert list(has_none) == [False, False]


# --------------------------------------------------------- E1-style chain


class TestBatchedMADEChainExactness:
    def test_batched_wl_with_made_mixture_recovers_dos(self, tiny_ising, made9):
        """Batched WL whose mixture includes MADE reproduces the exact DoS.

        End-to-end validation of the whole batched path: ``propose_many``
        dispatch through the mixture, the MADE pool/scoring/caching, and the
        batched WL commit — any log_q bookkeeping error would bias ln g
        away from the 512-state enumeration.
        """
        grid = EnergyGrid.from_levels(tiny_ising.energy_levels())
        mix = MixtureProposal([
            (FlipProposal(), 0.85),
            (MADEProposal(made9, composition="free"), 0.15),
        ])
        wl = make_wang_landau(
            hamiltonian=tiny_ising, proposal=mix, grid=grid,
            initial_config=np.zeros(9, dtype=np.int8), rng=0,
            config=WLConfig(batch_size=4, ln_f_final=3e-4),
        )
        res = wl.run(max_steps=2_000_000)
        assert res.converged

        levels, degens = enumerate_density_of_states(tiny_ising)
        exact = {float(e): float(np.log(d)) for e, d in zip(levels, degens)}
        centers, mg = res.grid.centers, res.masked_ln_g()
        est, ex = [], []
        for k in np.nonzero(res.visited)[0]:
            e = float(centers[k])
            if e in exact:
                est.append(mg[k])
                ex.append(exact[e])
        est = np.array(est) - est[0]
        ex = np.array(ex) - ex[0]
        assert np.abs(est - ex).max() < 0.5


class _NoRatioPooledMADEProposal(MADEProposal):
    """The bug the exactness checks exist to catch, the MH q-ratio dropped:
    a pooled row's log q_cur and log q_cand both read 0, so its Δlog q is
    0."""

    def take_candidates(self, configs, n, hamiltonian, rng):
        drawn, _, energies = super().take_candidates(configs, n, hamiltonian, rng)
        return drawn, np.zeros(len(drawn)), energies

    def log_q_current(self, configs, rng=None):
        return np.zeros(len(configs))


class TestPooledBlockPath:
    """MADE teams, alone or mixed with one local kernel, step in blocks."""

    @pytest.mark.parametrize("mixed", [True, False])
    def test_pooled_rows_count_like_the_commit_they_replace(
            self, superstep_path, tiny_ising, made9, mixed):
        """On the lower half of the spectrum: pooled rows leave the window, are accepted and counted per slot,
        the mixture counts each row-step's component, energies stay exact,
        and the rows whose current log q the block scored are counted alike
        by the C loop and the NumPy block, whose scoring has its own
        profiler section."""
        window = EnergyGrid.from_levels(tiny_ising.energy_levels()).subgrid(0, 8)
        start = drive_into_range(tiny_ising, FlipProposal(), window,
                                 np.zeros((4, 9), dtype=np.int8), rng=0)
        made = MADEProposal(_perturbed(MADE(made9.config, rng=1), 2), composition="free")
        proposal = MixtureProposal([(FlipProposal(), 0.5), (made, 0.5)]) if mixed else made
        wl = make_wang_landau(hamiltonian=tiny_ising, proposal=proposal, grid=window,
                              initial_config=start, rng=5)
        numpy_twin = deepcopy(wl)
        prof = SectionProfiler(sample_every=1)
        wl.enable_profiling(prof)
        wl.steps(300)
        c = wl.counters
        assert wl.n_steps == c.proposals == 1200
        assert c.out_of_grid > 0
        assert 0 < c.accepted == wl.n_accepted == wl.slot_accepted.sum()
        np.testing.assert_array_equal(wl.energies, tiny_ising.energies(wl.configs))
        if mixed:
            assert proposal.counts.sum() == 1200 and (proposal.counts > 0).all()
        with mock.patch.object(native, "library", lambda: None):
            numpy_twin.steps(300)
        assert c.log_q_scored > 0
        assert c.log_q_scored == numpy_twin.counters.log_q_scored
        assert ("wl.block.score" in prof) == (superstep_path == "numpy")
        assert prof["wl.block"].calls == 1
        assert attribute_cost(prof.as_dict())["phases"]["block"]["sections"] == {
            "wl.block": pytest.approx(prof["wl.block"].est_total_s, abs=1e-6)}

    def test_only_pooled_proposals_draw_blocks(self, tiny_ising, made9, vae9, cmade9):
        """Every proposal draws a block: only the pooled ones (every DL
        proposal) and mixtures holding them a :class:`PooledBlock`, local
        kernels their field blocks (a swap block holds no arrays: it draws
        its pairs as it resolves); a mixture holds at most one local
        kernel."""
        configs = np.zeros((3, 9), dtype=np.int8)
        configs[:, :4] = 1
        made = MADEProposal(made9, composition="free")
        for proposal in (FlipProposal(), SwapProposal(), made, MADEProposal(made9),
                         MADEProposal(cmade9, cond=[0.2]), VAEProposal(vae9, 4),
                         VAEProposal(vae9, 4, "free"),
                         MixtureProposal([(FlipProposal(), 0.7), (made, 0.3)])):
            block = proposal.draw_fields(configs, tiny_ising, np.random.default_rng(0), 5)
            assert all(a.shape[:2] == (5, 3) for a in block.arrays)
            assert (block.arrays == ()) == isinstance(proposal, SwapProposal)
            assert (type(block) is PooledBlock) == proposal.is_global
        with pytest.raises(ValueError, match="at most one local kernel"):
            MixtureProposal([(FlipProposal(), 0.5), (SwapProposal(), 0.3), (made, 0.2)])

    def test_an_alloy_swap_made_team_steps_in_pooled_blocks(self, superstep_path, hea_small):
        """A canonical swap/MADE("fixed") team on NbMoTaW draws a
        :class:`PooledBlock` around a local swap block, which the compiled
        loop runs; MADE rows are accepted, and composition and energies stay
        exact."""
        counts = [14, 13, 14, 13]
        rng = np.random.default_rng(3)
        configs = np.stack([random_configuration(hea_small.n_sites, counts, rng=rng)
                            for _ in range(4)])
        model = MADE(MADEConfig(n_sites=hea_small.n_sites, n_species=4, hidden=(16,)), rng=4)
        proposal = MixtureProposal([(SwapProposal(), 0.5), (MADEProposal(model), 0.5)])
        block = proposal.draw_fields(configs, hea_small, np.random.default_rng(0), 3)
        assert type(block) is PooledBlock and type(block.local) is SwapBlock
        assert block.native_fields() is not None
        assert (block.arrays[0] >= 0).any() and (block.arrays[0] < 0).any()
        team = CanonicalTeam(hea_small, proposal, configs, 1.0, rng=5)
        team.steps(200)
        assert team.n_steps == 800 and team.n_accepted > 0
        for row in team.configs:
            assert np.array_equal(composition_counts(row, 4), counts)
        np.testing.assert_allclose(team.energies, hea_small.energies(team.configs),
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("mixed", [True, False])
    def test_a_conditioned_made_is_pooled(self, superstep_path, tiny_ising, cmade9, mixed):
        """Its condition is a constant: a conditioned MADE, alone or mixed
        with flips, draws a :class:`PooledBlock` whose rows the compiled
        loop scores through a view with the condition folded into its first
        bias, and its team keeps exact energies."""
        made = MADEProposal(cmade9, composition="free", cond=[0.3])
        proposal = MixtureProposal([(FlipProposal(), 0.5), (made, 0.5)]) if mixed else made
        configs = _configs(4, 9, seed=31)
        block = proposal.draw_fields(configs, tiny_ising, np.random.default_rng(0), 5)
        assert type(block) is PooledBlock and block.native_fields() is not None
        view = made.native_scorer(configs)
        if native.library() is not None:
            np.testing.assert_allclose(view.log_q(native.library(), configs),
                                       made.log_q_current(configs), rtol=1e-12, atol=0)
        wl = make_wang_landau(hamiltonian=tiny_ising, proposal=proposal,
                              grid=EnergyGrid.from_levels(tiny_ising.energy_levels()),
                              initial_config=configs, rng=5)
        wl.steps(50)
        assert wl.n_steps == 200 and wl.n_accepted > 0 and wl.counters.log_q_scored > 0
        np.testing.assert_array_equal(wl.energies, tiny_ising.energies(wl.configs))


class TestPooledMixtureAgainstEnumeration:
    """The spine's ``ising_dl_mixed`` campaign in miniature: 4x4 Ising, a MADE
    trained on a multi-temperature harvest, 70/30 flip/MADE through
    ``make_wang_landau(batch_size=32)``, against the 2^16-state enumeration,
    on both block implementations."""

    @pytest.fixture(scope="class")
    def system(self):
        ham = IsingHamiltonian(square_lattice(4))
        start = np.zeros(16, dtype=np.int8)
        buffer = ReplayBuffer(2048, 16, 2)
        for i, beta in enumerate((0.1, 0.25, 0.4, 0.55)):
            chain = MetropolisSampler(ham, FlipProposal(), beta, start, rng=100 + i)
            chain.run(200)
            chain.run(128 * 8, callback=lambda s, _k: buffer.add(s.config),
                      callback_every=8)
        model = MADE(MADEConfig(n_sites=16, n_species=2, hidden=(96,)), rng=1)
        ProposalTrainer(model, buffer, lr=3e-3, batch_size=64, rng=2).train_steps(400)
        levels, degens = exact_ising_dos_bruteforce(4)
        exact = {float(e): float(np.log(d)) for e, d in zip(levels, degens)}
        return ham, model, exact

    @staticmethod
    def _errors(system, proposal_cls, seed):
        """Per-level error of the mean-centred ln g of one campaign."""
        ham, model, exact = system
        grid = EnergyGrid.from_levels(ham.energy_levels())
        wl = make_wang_landau(
            hamiltonian=ham, grid=grid, rng=seed,
            proposal=MixtureProposal([
                (FlipProposal(), 0.7),
                (proposal_cls(model, composition="free"), 0.3),
            ]),
            initial_config=np.zeros(16, dtype=np.int8),
            config=WLConfig(batch_size=32, check_interval=500, ln_f_final=3e-3),
        )
        res = wl.run(max_steps=5_000_000)
        real = np.array([float(e) in exact for e in grid.centers])
        assert res.converged and np.array_equal(res.visited, real)
        got = res.ln_g[real]
        want = np.array([exact[float(e)] for e in grid.centers[real]])
        return (got - got.mean()) - (want - want.mean())

    def test_rms_ln_g_is_unbiased_over_seeds_and_a_dropped_ratio_is_not(
            self, system, superstep_path):
        errors = np.array([self._errors(system, MADEProposal, s) for s in range(8)])
        rms = np.sqrt((errors ** 2).mean(axis=1))
        assert rms.max() < 1.0  # the spine's tolerance
        z = errors.mean(axis=0) / (errors.std(axis=0, ddof=1) / np.sqrt(len(errors)))
        assert np.abs(z).max() < 5.0

        # the dropped ratio
        broken = self._errors(system, _NoRatioPooledMADEProposal, 0)
        assert np.sqrt((broken ** 2).mean()) > 2.0  # honest seeds 0.2-0.4
