"""Tests for the local proposal kernels and the mixture."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from repro.hamiltonians import IsingHamiltonian
from repro.lattice import composition_counts, random_configuration, square_lattice
from repro.proposals import local
from repro.proposals import (
    FlipProposal,
    MixtureProposal,
    MultiSwapProposal,
    NeighborSwapProposal,
    SwapProposal,
)
from repro.proposals.base import Move

SUPPRESS = [HealthCheck.function_scoped_fixture]


@pytest.fixture(params=["swap", "nbr", "flip", "multi"])
def proposal(request):
    return {
        "swap": SwapProposal(),
        "nbr": NeighborSwapProposal(),
        "flip": FlipProposal(),
        "multi": MultiSwapProposal(k=3),
    }[request.param]


class TestMoveContract:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None, suppress_health_check=SUPPRESS)
    def test_delta_energy_matches_hamiltonian(self, proposal, hea_small, seed):
        rng = np.random.default_rng(seed)
        cfg = random_configuration(hea_small.n_sites, [14, 14, 13, 13], rng=rng)
        e0 = hea_small.energy(cfg)
        move = proposal.propose(cfg, hea_small, rng, current_energy=e0)
        assert move is not None
        after = cfg.copy()
        move.apply(after)
        assert hea_small.energy(after) == pytest.approx(e0 + move.delta_energy, abs=1e-8)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None, suppress_health_check=SUPPRESS)
    def test_local_kernels_are_symmetric(self, proposal, hea_small, seed):
        rng = np.random.default_rng(seed)
        cfg = random_configuration(hea_small.n_sites, [14, 14, 13, 13], rng=rng)
        move = proposal.propose(cfg, hea_small, rng)
        assert move.log_q_ratio == 0.0

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None, suppress_health_check=SUPPRESS)
    def test_composition_preserved(self, proposal, hea_small, seed):
        if not proposal.preserves_composition:
            pytest.skip("non-conserving kernel")
        rng = np.random.default_rng(seed)
        cfg = random_configuration(hea_small.n_sites, [14, 14, 13, 13], rng=rng)
        before = composition_counts(cfg, 4)
        move = proposal.propose(cfg, hea_small, rng)
        move.apply(cfg)
        assert np.array_equal(composition_counts(cfg, 4), before)

    def test_proposal_does_not_mutate_input(self, proposal, hea_small):
        rng = np.random.default_rng(0)
        cfg = random_configuration(hea_small.n_sites, [14, 14, 13, 13], rng=rng)
        snapshot = cfg.copy()
        proposal.propose(cfg, hea_small, rng)
        assert np.array_equal(cfg, snapshot)


class TestSwapProposal:
    def test_require_distinct_avoids_identity(self, hea_small):
        rng = np.random.default_rng(0)
        cfg = random_configuration(hea_small.n_sites, [14, 14, 13, 13], rng=rng)
        for _ in range(50):
            move = SwapProposal(require_distinct=True).propose(cfg, hea_small, rng)
            assert cfg[move.sites[0]] != cfg[move.sites[1]]

    def test_flags(self):
        p = SwapProposal()
        assert p.preserves_composition and not p.is_global


class TestNeighborSwap:
    def test_swaps_are_neighbors(self, hea_small):
        rng = np.random.default_rng(1)
        cfg = random_configuration(hea_small.n_sites, [14, 14, 13, 13], rng=rng)
        table = hea_small.lattice.neighbor_shells(1)[0].table
        p = NeighborSwapProposal()
        for _ in range(30):
            move = p.propose(cfg, hea_small, rng)
            i, j = move.sites
            assert j in table[i]

    def test_second_shell(self, hea_small):
        rng = np.random.default_rng(2)
        cfg = random_configuration(hea_small.n_sites, [14, 14, 13, 13], rng=rng)
        table = hea_small.lattice.neighbor_shells(2)[1].table
        p = NeighborSwapProposal(shell=1)
        move = p.propose(cfg, hea_small, rng)
        i, j = move.sites
        assert j in table[i]


class TestFlipProposal:
    def test_always_changes_species(self, ising_4x4):
        rng = np.random.default_rng(3)
        cfg = rng.integers(0, 2, 16).astype(np.int8)
        p = FlipProposal()
        for _ in range(30):
            move = p.propose(cfg, ising_4x4, rng)
            assert move.new_values[0] != cfg[move.sites[0]]

    def test_not_composition_preserving(self):
        assert not FlipProposal().preserves_composition


class TestMultiSwap:
    def test_changes_at_most_2k_sites(self, hea_small):
        rng = np.random.default_rng(4)
        cfg = random_configuration(hea_small.n_sites, [14, 14, 13, 13], rng=rng)
        move = MultiSwapProposal(k=4).propose(cfg, hea_small, rng)
        assert move.n_sites_changed <= 8

    def test_k_validation(self):
        with pytest.raises(ValueError):
            MultiSwapProposal(k=0)


class TestMixture:
    def test_empirical_fractions_match_weights(self, hea_small):
        rng = np.random.default_rng(5)
        cfg = random_configuration(hea_small.n_sites, [14, 14, 13, 13], rng=rng)
        mix = MixtureProposal([(SwapProposal(), 0.8), (MultiSwapProposal(2), 0.2)])
        for _ in range(2000):
            mix.propose(cfg, hea_small, rng)
        fractions = mix.component_fractions()
        assert fractions[0] == pytest.approx(0.8, abs=0.05)

    def test_flags_combine(self):
        mix = MixtureProposal([(SwapProposal(), 1.0), (FlipProposal(), 1.0)])
        assert not mix.preserves_composition
        mix2 = MixtureProposal([(SwapProposal(), 1.0), (MultiSwapProposal(2), 1.0)])
        assert mix2.preserves_composition

    def test_validation(self):
        with pytest.raises(ValueError):
            MixtureProposal([])
        with pytest.raises(ValueError):
            MixtureProposal([(SwapProposal(), 0.0)])

    def test_move_is_valid(self, hea_small):
        rng = np.random.default_rng(6)
        cfg = random_configuration(hea_small.n_sites, [14, 14, 13, 13], rng=rng)
        mix = MixtureProposal([(SwapProposal(), 0.5), (NeighborSwapProposal(), 0.5)])
        e0 = hea_small.energy(cfg)
        move = mix.propose(cfg, hea_small, rng, current_energy=e0)
        after = cfg.copy()
        move.apply(after)
        assert hea_small.energy(after) == pytest.approx(e0 + move.delta_energy, abs=1e-9)


class TestMoveObject:
    def test_apply_writes_sites(self):
        cfg = np.zeros(5, dtype=np.int8)
        move = Move(sites=np.array([1, 3]), new_values=np.array([2, 1], dtype=np.int8),
                    delta_energy=0.0)
        move.apply(cfg)
        assert cfg.tolist() == [0, 2, 0, 1, 0]


class TestFieldBlocks:
    """Block-drawn local moves (``draw_fields`` -> ``FieldBlock.resolve``)."""

    # 9 sites, 7 of species 0 and 2 of species 1: 2*7*2 = 28 unlike ordered
    # pairs, and a candidate pair is acceptable with probability 28/81.
    LOPSIDED = np.array([0, 0, 1, 0, 0, 0, 1, 0, 0], dtype=np.int8)

    def _pair_counts(self, proposal, n_steps=600, n_rows=16, seed=5):
        ham = IsingHamiltonian(square_lattice(3))
        rng = np.random.default_rng(seed)
        configs = np.tile(self.LOPSIDED, (n_rows, 1))
        block = proposal.draw_fields(configs, ham, rng, n_steps)
        rows = np.arange(n_rows)
        counts = np.zeros((9, 9), dtype=np.int64)
        for step in range(n_steps):  # configs never change: i.i.d. draws
            move = block.resolve(step, configs, rows, [(rng, 0, n_rows)])
            np.add.at(counts, (move[:, 0], move[:, 1]), 1)
        return counts

    @staticmethod
    def _chi_square_p(observed):
        expected = observed.sum() / observed.size
        stat = float(((observed - expected) ** 2 / expected).sum())
        return chi2.sf(stat, observed.size - 1)

    @pytest.mark.parametrize("candidates", [1, 2, None])
    def test_swap_is_uniform_over_unlike_ordered_pairs(self, monkeypatch, candidates):
        """First acceptable of T candidates, else the rejection loop, is the
        rejection sampler; T=1 sends ~65 % of the row-steps to the loop."""
        if candidates is not None:
            monkeypatch.setattr(local, "_SWAP_CANDIDATES", candidates)
        counts = self._pair_counts(SwapProposal())
        unlike = self.LOPSIDED[:, None] != self.LOPSIDED[None, :]
        assert counts[~unlike].sum() == 0
        assert self._chi_square_p(counts[unlike]) > 1e-3

    @pytest.mark.parametrize("candidates", [1, None])
    def test_swap_without_distinct_is_uniform_over_all_pairs(self, monkeypatch, candidates):
        if candidates is not None:
            monkeypatch.setattr(local, "_SWAP_CANDIDATES", candidates)
        counts = self._pair_counts(SwapProposal(require_distinct=False))
        off_diagonal = ~np.eye(9, dtype=bool)
        assert counts[~off_diagonal].sum() == 0
        assert self._chi_square_p(counts[off_diagonal]) > 1e-3

    def test_swap_with_no_unlike_pair_falls_back_to_an_identity_move(self):
        ham = IsingHamiltonian(square_lattice(3))
        configs = np.zeros((4, 9), dtype=np.int8)
        batch = SwapProposal().propose_many(configs, ham, np.random.default_rng(0))
        assert np.all(batch.delta_energies == 0.0)
        assert np.array_equal(batch.new_values, np.zeros((4, 2), dtype=np.int8))

    @pytest.mark.parametrize("make", [SwapProposal, FlipProposal])
    def test_one_step_block_prices_and_writes_its_moves(self, hea_small, make):
        rng = np.random.default_rng(3)
        configs = np.stack([
            random_configuration(hea_small.n_sites, [14, 14, 13, 13], rng=rng)
            for _ in range(12)
        ])
        proposal = make()
        batch = proposal.propose_many(configs, hea_small, rng)
        assert batch.valid is None and np.all(batch.log_q_ratios == 0.0)
        before = hea_small.energies(configs)
        after = configs.copy()
        for b in range(len(configs)):
            batch.apply_row(b, after[b])
        assert np.all((after != configs).sum(axis=1) == batch.sites.shape[1])
        np.testing.assert_allclose(hea_small.energies(after) - before,
                                   batch.delta_energies, atol=1e-9)
        if proposal.preserves_composition:
            for a, c in zip(after, configs):
                assert np.array_equal(composition_counts(a, 4),
                                      composition_counts(c, 4))

    @pytest.mark.parametrize("make", [SwapProposal, FlipProposal])
    def test_stacked_blocks_resolve_like_their_parts(self, hea_small, make):
        """Rows are independent: stacking two teams' blocks changes nothing."""
        rng = np.random.default_rng(8)
        teams = [
            np.stack([random_configuration(hea_small.n_sites, [14, 14, 13, 13],
                                           rng=rng) for _ in range(k)])
            for k in (3, 5)
        ]
        blocks = [make().draw_fields(c, hea_small, rng, 4) for c in teams]
        assert blocks[0].key == blocks[1].key
        both = blocks[0].stacked(blocks[1:])
        stacked = np.concatenate(teams)
        for step in range(4):
            whole = both.resolve(step, stacked, np.arange(8), [])
            parts = [b.resolve(step, c, np.arange(len(c)), [])
                     for b, c in zip(blocks, teams)]
            assert np.array_equal(whole, np.concatenate(parts))
