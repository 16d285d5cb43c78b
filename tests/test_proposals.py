"""Tests for the local proposal kernels and the mixture (one local kernel
plus a pooled MADE)."""

from copy import deepcopy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from repro.hamiltonians import IsingHamiltonian
from repro.lattice import composition_counts, random_configuration, square_lattice
from repro.nn import MADE, MADEConfig
from repro.proposals import (
    FlipProposal,
    MADEProposal,
    MixtureProposal,
    NeighborSwapProposal,
    SwapProposal,
)
from repro.proposals.base import BatchMove, Proposal

SUPPRESS = [HealthCheck.function_scoped_fixture]


@pytest.fixture(params=["swap", "nbr", "flip"])
def proposal(request):
    return {
        "swap": SwapProposal(),
        "nbr": NeighborSwapProposal(),
        "flip": FlipProposal(),
    }[request.param]


def alloy_batch(hamiltonian, n_rows, rng):
    """``n_rows`` random 54-site configurations at the 14/14/13/13 alloy
    composition."""
    return np.stack([
        random_configuration(hamiltonian.n_sites, [14, 14, 13, 13], rng=rng)
        for _ in range(n_rows)
    ])


def applied(batch, configs):
    """``configs`` with every row's move written (a copy)."""
    after = configs.copy()
    for b in range(len(after)):
        batch.apply_row(b, after[b])
    return after


class TestMoveContract:
    """Every local kernel, through ``propose_many`` on one row and on several."""

    @given(seed=st.integers(0, 10**6), n_rows=st.sampled_from([1, 5]))
    @settings(max_examples=20, deadline=None, suppress_health_check=SUPPRESS)
    def test_delta_energy_matches_hamiltonian(self, proposal, hea_small, seed, n_rows):
        rng = np.random.default_rng(seed)
        configs = alloy_batch(hea_small, n_rows, rng)
        e0 = hea_small.energies(configs)
        batch = proposal.propose_many(configs, hea_small, rng, current_energies=e0)
        assert batch.batch_size == n_rows
        np.testing.assert_allclose(hea_small.energies(applied(batch, configs)),
                                   e0 + batch.delta_energies, rtol=0, atol=1e-8)

    @given(seed=st.integers(0, 10**6), n_rows=st.sampled_from([1, 5]))
    @settings(max_examples=20, deadline=None, suppress_health_check=SUPPRESS)
    def test_local_kernels_are_symmetric(self, proposal, hea_small, seed, n_rows):
        rng = np.random.default_rng(seed)
        configs = alloy_batch(hea_small, n_rows, rng)
        batch = proposal.propose_many(configs, hea_small, rng)
        assert np.all(batch.log_q_ratios == 0.0)

    @given(seed=st.integers(0, 10**6), n_rows=st.sampled_from([1, 5]))
    @settings(max_examples=20, deadline=None, suppress_health_check=SUPPRESS)
    def test_composition_preserved(self, proposal, hea_small, seed, n_rows):
        if not proposal.preserves_composition:
            pytest.skip("non-conserving kernel")
        rng = np.random.default_rng(seed)
        configs = alloy_batch(hea_small, n_rows, rng)
        after = applied(proposal.propose_many(configs, hea_small, rng), configs)
        for a, c in zip(after, configs):
            assert np.array_equal(composition_counts(a, 4), composition_counts(c, 4))

    def test_proposal_does_not_mutate_input(self, proposal, hea_small):
        rng = np.random.default_rng(0)
        for n_rows in (1, 5):
            configs = alloy_batch(hea_small, n_rows, rng)
            snapshot = configs.copy()
            proposal.propose_many(configs, hea_small, rng)
            assert np.array_equal(configs, snapshot)


class TestSwapProposal:
    def test_require_distinct_avoids_identity(self, hea_small):
        rng = np.random.default_rng(0)
        configs = alloy_batch(hea_small, 50, rng)
        batch = SwapProposal(require_distinct=True).propose_many(configs, hea_small, rng)
        rows = np.arange(50)
        assert np.all(configs[rows, batch.sites[:, 0]] != configs[rows, batch.sites[:, 1]])

    def test_flags(self):
        p = SwapProposal()
        assert p.preserves_composition and not p.is_global


class TestNeighborSwap:
    def test_swaps_are_neighbors(self, hea_small):
        rng = np.random.default_rng(1)
        configs = alloy_batch(hea_small, 30, rng)
        table = hea_small.lattice.neighbor_shells(1)[0].table
        batch = NeighborSwapProposal().propose_many(configs, hea_small, rng)
        for i, j in batch.sites:
            assert j in table[i]

    def test_second_shell(self, hea_small):
        rng = np.random.default_rng(2)
        configs = alloy_batch(hea_small, 4, rng)
        table = hea_small.lattice.neighbor_shells(2)[1].table
        batch = NeighborSwapProposal(shell=1).propose_many(configs, hea_small, rng)
        for i, j in batch.sites:
            assert j in table[i]

    def test_bond_cache_follows_the_lattice(self):
        """One proposal over Hamiltonians alternating between a 6x6 and a 3x3
        lattice: every drawn pair is a bond of the current lattice, although
        a new Hamiltonian often reuses a dead one's ``id``."""
        lattices = [square_lattice(3), square_lattice(6)]
        bonds = [{tuple(b) for b in lat.neighbor_shells(1)[0].pairs().tolist()}
                 for lat in lattices]
        proposal = NeighborSwapProposal()
        rng = np.random.default_rng(7)
        for k in range(200):
            ham = IsingHamiltonian(lattices[k % 2])
            configs = rng.integers(0, 2, size=(4, ham.n_sites)).astype(np.int8)
            batch = proposal.propose_many(configs, ham, rng)
            assert {tuple(sorted(pair)) for pair in batch.sites.tolist()} <= bonds[k % 2]
            del ham


class TestFlipProposal:
    def test_always_changes_species(self, ising_4x4):
        rng = np.random.default_rng(3)
        configs = rng.integers(0, 2, (30, 16)).astype(np.int8)
        batch = FlipProposal().propose_many(configs, ising_4x4, rng)
        rows = np.arange(30)
        assert np.all(batch.new_values[:, 0] != configs[rows, batch.sites[:, 0]])

    def test_not_composition_preserving(self):
        assert not FlipProposal().preserves_composition


def alloy_made(composition="fixed"):
    """An untrained MADE proposal on the 54-site, 4-species alloy."""
    return MADEProposal(MADE(MADEConfig(n_sites=54, n_species=4, hidden=(16,)), rng=0),
                        composition)


class TestMixture:
    def test_empirical_fractions_match_weights(self, hea_small):
        rng = np.random.default_rng(5)
        configs = alloy_batch(hea_small, 200, rng)
        mix = MixtureProposal([(SwapProposal(), 0.8), (alloy_made("free"), 0.2)])
        for _ in range(10):
            mix.propose_many(configs, hea_small, rng)
        fractions = mix.component_fractions()
        assert fractions[0] == pytest.approx(0.8, abs=0.05)

    def test_flags_combine(self):
        mix = MixtureProposal([(SwapProposal(), 1.0), (alloy_made("free"), 1.0)])
        assert not mix.preserves_composition and mix.is_global
        mix2 = MixtureProposal([(SwapProposal(), 1.0), (alloy_made(), 1.0)])
        assert mix2.preserves_composition
        assert not MixtureProposal([(SwapProposal(), 1.0)]).is_global

    def test_validation(self):
        with pytest.raises(ValueError):
            MixtureProposal([])
        with pytest.raises(ValueError):
            MixtureProposal([(SwapProposal(), 0.0)])
        with pytest.raises(ValueError, match="at most one local kernel"):
            MixtureProposal([(SwapProposal(), 0.5), (NeighborSwapProposal(), 0.5)])

    def test_move_is_valid(self, hea_small):
        rng = np.random.default_rng(6)
        configs = alloy_batch(hea_small, 8, rng)
        mix = MixtureProposal([(SwapProposal(), 0.5), (alloy_made(), 0.5)])
        e0 = hea_small.energies(configs)
        batch = mix.propose_many(configs, hea_small, rng, current_energies=e0)
        np.testing.assert_allclose(hea_small.energies(applied(batch, configs)),
                                   e0 + batch.delta_energies, rtol=0, atol=1e-9)
        for row in applied(batch, configs):
            assert np.array_equal(composition_counts(row, 4), [14, 14, 13, 13])


class TestMoveObject:
    def test_apply_writes_sites(self):
        """A row padded by repeating its first (site, value) pair writes
        exactly its move."""
        cfg = np.zeros(5, dtype=np.int8)
        move = BatchMove(sites=np.array([[1, 3, 1]]),
                         new_values=np.array([[2, 1, 2]], dtype=np.int8),
                         delta_energies=np.zeros(1), log_q_ratios=np.zeros(1))
        move.apply_row(0, cfg)
        assert cfg.tolist() == [0, 2, 0, 1, 0]


class TestProposalBase:
    def test_propose_many_needs_a_field_block_or_an_override(self, ising_4x4):
        configs = np.zeros((2, 16), dtype=np.int8)
        with pytest.raises(NotImplementedError, match="Proposal draws no field block"):
            Proposal().propose_many(configs, ising_4x4, np.random.default_rng(0))


class TestFieldBlocks:
    """Block-drawn local moves (``draw_fields`` -> ``FieldBlock.resolve``)."""

    # 9 sites, 7 of species 0 and 2 of species 1: 2*7*2 = 28 unlike ordered
    # pairs, and a drawn pair is acceptable with probability 28/81.
    LOPSIDED = np.array([0, 0, 1, 0, 0, 0, 1, 0, 0], dtype=np.int8)

    def _pair_counts(self, proposal, teams, n_steps=600, n_rows=16, seed=5):
        """Pair counts of ``n_steps`` resolves of ``n_rows`` rows split
        evenly into ``teams`` streams (None: one stream per row)."""
        ham = IsingHamiltonian(square_lattice(3))
        configs = np.tile(self.LOPSIDED, (n_rows, 1))
        size = 1 if teams is None else n_rows // teams
        streams = [(np.random.default_rng([seed, lo]), lo, lo + size)
                   for lo in range(0, n_rows, size)]
        block = proposal.draw_fields(configs, ham, streams[0][0], n_steps)
        rows = np.arange(n_rows)
        counts = np.zeros((9, 9), dtype=np.int64)
        for step in range(n_steps):  # configs never change: i.i.d. draws
            move = block.resolve(step, configs, rows, streams)
            np.add.at(counts, (move[:, 0], move[:, 1]), 1)
        return counts

    @staticmethod
    def _chi_square_p(observed):
        expected = observed.sum() / observed.size
        stat = float(((observed - expected) ** 2 / expected).sum())
        return chi2.sf(stat, observed.size - 1)

    @pytest.mark.parametrize("teams", [1, 2, None])
    def test_swap_is_uniform_over_unlike_ordered_pairs(self, teams):
        """The rejection loop a swap block runs on each team's stream as it
        resolves: a drawn pair is unlike with p = 28/81 here, so most
        row-steps draw again; however the rows split into teams."""
        counts = self._pair_counts(SwapProposal(), teams)
        unlike = self.LOPSIDED[:, None] != self.LOPSIDED[None, :]
        assert counts[~unlike].sum() == 0
        assert self._chi_square_p(counts[unlike]) > 1e-3

    @pytest.mark.parametrize("teams", [1, None])
    def test_swap_without_distinct_is_uniform_over_all_pairs(self, teams):
        counts = self._pair_counts(SwapProposal(require_distinct=False), teams)
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
        assert np.all(batch.log_q_ratios == 0.0)
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

    def test_bond_and_swap_blocks_never_stack(self, hea_small):
        """A bond-list block holds one pre-drawn pair per row-step; a swap
        block holds only its parameters and draws nothing up front.  Their
        keys differ by type, so they never stack."""
        configs = alloy_batch(hea_small, 3, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        nbr = NeighborSwapProposal().draw_fields(configs, hea_small, rng, 4)
        state = rng.bit_generator.state
        swap = SwapProposal(require_distinct=False).draw_fields(configs, hea_small, rng, 4)
        assert rng.bit_generator.state == state and swap.arrays == ()
        assert nbr.arrays[0].shape == (4, 3, 2)
        assert swap.key == (type(swap), ("distinct", False), ("n_sites", hea_small.n_sites))
        assert nbr.key != swap.key

    @pytest.mark.parametrize("make", [SwapProposal, FlipProposal])
    def test_stacked_blocks_resolve_like_their_parts(self, hea_small, make):
        """Rows are independent and each team draws from its own stream:
        stacking two teams' blocks changes nothing."""
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
        streams = [np.random.default_rng(seed) for seed in (1, 2)]
        twins = deepcopy(streams)
        for step in range(4):
            whole = both.resolve(step, stacked, np.arange(8),
                                 [(streams[0], 0, 3), (streams[1], 3, 8)])
            parts = [b.resolve(step, c, np.arange(len(c)), [(twin, 0, len(c))])
                     for b, c, twin in zip(blocks, teams, twins)]
            assert np.array_equal(whole, np.concatenate(parts))
        for a, b in zip(streams, twins):
            assert a.bit_generator.state == b.bit_generator.state
