"""Tests for the Hamiltonian hierarchy.

The central invariant — incremental ΔE equals full recompute for every move
type on every model — is property-tested; everything downstream (samplers,
REWL) silently corrupts if it drifts.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hamiltonians import (
    IsingHamiltonian,
    PairHamiltonian,
    PottsHamiltonian,
    enumerate_density_of_states,
    enumerate_energies,
    fixed_composition_configs,
)
from repro.lattice import random_configuration, square_lattice


def random_cfg(ham, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, ham.n_species, ham.n_sites).astype(np.int8)


@pytest.fixture(params=["ising", "potts", "hea"])
def any_ham(request, ising_4x4, potts3_4x4, hea_small):
    return {"ising": ising_4x4, "potts": potts3_4x4, "hea": hea_small}[request.param]


class TestIncrementalConsistency:
    @given(seed=st.integers(0, 10**6), moves=st.integers(1, 30))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_swap_delta_matches_recompute(self, any_ham, seed, moves):
        ham = any_ham
        rng = np.random.default_rng(seed)
        cfg = random_cfg(ham, seed)
        energy = ham.energy(cfg)
        for _ in range(moves):
            i, j = rng.integers(0, ham.n_sites, 2)
            delta = ham.delta_energy_swap(cfg, int(i), int(j))
            cfg[i], cfg[j] = cfg[j], cfg[i]
            energy += delta
        assert energy == pytest.approx(ham.energy(cfg), abs=1e-8)

    @given(seed=st.integers(0, 10**6), moves=st.integers(1, 30))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_flip_delta_matches_recompute(self, any_ham, seed, moves):
        ham = any_ham
        rng = np.random.default_rng(seed)
        cfg = random_cfg(ham, seed)
        energy = ham.energy(cfg)
        for _ in range(moves):
            site = int(rng.integers(ham.n_sites))
            new = int(rng.integers(ham.n_species))
            energy += ham.delta_energy_flip(cfg, site, new)
            cfg[site] = new
        assert energy == pytest.approx(ham.energy(cfg), abs=1e-8)

    def test_identity_swap_is_zero(self, any_ham):
        cfg = random_cfg(any_ham, 0)
        assert any_ham.delta_energy_swap(cfg, 3, 3) == 0.0

    def test_same_species_swap_is_zero(self, any_ham):
        cfg = np.zeros(any_ham.n_sites, dtype=np.int8)
        assert any_ham.delta_energy_swap(cfg, 0, 5) == 0.0

    def test_identity_flip_is_zero(self, any_ham):
        cfg = random_cfg(any_ham, 1)
        assert any_ham.delta_energy_flip(cfg, 2, int(cfg[2])) == 0.0

    def test_swap_is_two_flips(self, any_ham):
        """ΔE(swap i,j) equals sequential flips i→b then j→a."""
        ham = any_ham
        cfg = random_cfg(ham, 2)
        i, j = 0, ham.n_sites // 2
        a, b = int(cfg[i]), int(cfg[j])
        d_swap = ham.delta_energy_swap(cfg, i, j)
        d1 = ham.delta_energy_flip(cfg, i, b)
        cfg2 = cfg.copy()
        cfg2[i] = b
        d2 = ham.delta_energy_flip(cfg2, j, a)
        assert d_swap == pytest.approx(d1 + d2, abs=1e-9)

    def test_batch_swap_matches_scalar(self, any_ham):
        ham = any_ham
        rng = np.random.default_rng(3)
        cfg = random_cfg(ham, 3)
        ii = rng.integers(0, ham.n_sites, 40)
        jj = rng.integers(0, ham.n_sites, 40)
        batch = ham.delta_energy_swap_many(cfg, ii, jj)  # one config, 40 moves
        for k in range(40):
            assert batch[k] == pytest.approx(
                ham.delta_energy_swap(cfg, int(ii[k]), int(jj[k])), abs=1e-9
            )

    def test_energies_matches_scalar(self, any_ham):
        ham = any_ham
        cfgs = np.stack([random_cfg(ham, s) for s in range(6)])
        batch = ham.energies(cfgs)
        for k in range(6):
            assert batch[k] == pytest.approx(ham.energy(cfgs[k]))

    def test_bounds_contain_samples(self, any_ham):
        ham = any_ham
        lo, hi = ham.energy_bounds()
        for s in range(10):
            e = ham.energy(random_cfg(ham, s))
            assert lo - 1e-9 <= e <= hi + 1e-9


class TestPairHamiltonianValidation:
    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            PairHamiltonian(square_lattice(4), [np.array([[0.0, 1.0], [2.0, 0.0]])])

    def test_empty_shells_rejected(self):
        with pytest.raises(ValueError):
            PairHamiltonian(square_lattice(4), [])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            PairHamiltonian(square_lattice(4), [np.zeros((2, 2)), np.zeros((3, 3))])

    def test_bad_field_shape_rejected(self):
        with pytest.raises(ValueError):
            PairHamiltonian(square_lattice(4), [np.zeros((2, 2))], field=[1.0])

    def test_validate_config(self, ising_4x4):
        with pytest.raises(ValueError):
            ising_4x4.validate_config(np.zeros(7, dtype=np.int8))
        with pytest.raises(ValueError):
            ising_4x4.validate_config(np.full(16, 2, dtype=np.int8))

    def test_bond_count(self, ising_4x4):
        assert ising_4x4.bond_count(0) == 32  # 2N bonds on the square torus


class TestIsing:
    def test_ground_state_energy(self, ising_4x4):
        gs = np.ones(16, dtype=np.int8)
        assert ising_4x4.energy(gs) == pytest.approx(-32.0)
        assert ising_4x4.energy(1 - gs) == pytest.approx(-32.0)

    def test_ground_state_helper(self, ising_4x4):
        assert ising_4x4.ground_state_energy() == pytest.approx(-32.0)

    def test_field_breaks_symmetry(self):
        ham = IsingHamiltonian(square_lattice(4), external_field=0.5)
        up = np.ones(16, dtype=np.int8)
        down = np.zeros(16, dtype=np.int8)
        assert ham.energy(up) < ham.energy(down)

    def test_magnetization(self, ising_4x4):
        cfg = np.array([1] * 10 + [0] * 6, dtype=np.int8)
        assert ising_4x4.magnetization(cfg) == pytest.approx(4.0)

    def test_energy_levels_spacing(self, ising_4x4):
        levels = ising_4x4.energy_levels()
        assert levels[0] == pytest.approx(-32.0)
        assert levels[-1] == pytest.approx(32.0)
        assert np.allclose(np.diff(levels), 2.0)

    def test_energy_levels_with_field_raises(self):
        ham = IsingHamiltonian(square_lattice(4), external_field=0.1)
        with pytest.raises(NotImplementedError):
            ham.energy_levels()

    def test_exact_dos_symmetry(self, ising_4x4):
        levels, degens = enumerate_density_of_states(ising_4x4)
        assert np.allclose(levels, -levels[::-1])
        assert np.array_equal(degens, degens[::-1])
        assert degens.sum() == 2**16
        assert degens[0] == 2  # two ground states


class TestPotts:
    def test_q2_matches_ising_up_to_constants(self, ising_4x4):
        """E_potts2 = E_ising/2 − n_bonds/2 for J_ising = J_potts = 1."""
        potts = PottsHamiltonian(square_lattice(4), q=2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            cfg = rng.integers(0, 2, 16).astype(np.int8)
            expected = 0.5 * ising_4x4.energy(cfg) - 16.0
            assert potts.energy(cfg) == pytest.approx(expected)

    def test_invalid_q_raises(self):
        with pytest.raises(ValueError):
            PottsHamiltonian(square_lattice(4), q=1)

    def test_critical_temperature_value(self):
        potts = PottsHamiltonian(square_lattice(4), q=2)
        # q=2 Potts Tc = 1/ln(1+sqrt(2)) (Ising Tc/2 with this convention)
        assert potts.critical_temperature_square() == pytest.approx(1.1346, abs=1e-3)

    def test_order_parameter_range(self):
        potts = PottsHamiltonian(square_lattice(4), q=3)
        uniform = np.zeros(16, dtype=np.int8)
        assert potts.order_parameter(uniform) == pytest.approx(1.0)
        mixed = random_configuration(16, [6, 5, 5], rng=0)
        assert 0.0 <= potts.order_parameter(mixed) < 0.5


class TestEnumeration:
    def test_energy_count(self, ising_4x4):
        energies = enumerate_energies(ising_4x4)
        assert energies.shape == (2**16,)

    def test_too_large_raises(self, hea_small):
        with pytest.raises(ValueError):
            enumerate_energies(hea_small)  # 4^54 states

    def test_fixed_composition_count(self):
        configs = fixed_composition_configs([2, 2])
        assert configs.shape == (6, 4)  # C(4,2)
        assert len({tuple(c) for c in configs.tolist()}) == 6

    def test_fixed_composition_enumeration(self, ising_4x4):
        energies = enumerate_energies(ising_4x4, counts=[8, 8])
        from math import comb

        assert energies.shape == (comb(16, 8),)
