"""Wang–Landau correctness tests against exact enumeration."""

import numpy as np
import pytest

from repro.hamiltonians import enumerate_density_of_states, enumerate_energies
from repro.lattice import random_configuration
from repro.proposals import FlipProposal, SwapProposal
from repro.sampling import (
    EnergyGrid,
    MulticanonicalSampler,
    WangLandauSampler,
    WLConfig,
    drive_into_range,
)


def compare_to_exact(result, levels, degens, atol):
    """RMS and max error of relative ln g on commonly visited levels."""
    exact = {float(e): float(np.log(d)) for e, d in zip(levels, degens)}
    centers = result.grid.centers
    mg = result.masked_ln_g()
    est, ex = [], []
    for k in np.nonzero(result.visited)[0]:
        e = float(centers[k])
        if e in exact:
            est.append(mg[k])
            ex.append(exact[e])
    est = np.array(est) - est[0]
    ex = np.array(ex) - ex[0]
    err = np.abs(est - ex)
    assert err.max() < atol, f"max ln g error {err.max():.3f} exceeds {atol}"
    return err


class TestWangLandauIsing:
    @pytest.fixture(scope="class")
    def wl_result(self):
        from repro.hamiltonians import IsingHamiltonian
        from repro.lattice import square_lattice

        ham = IsingHamiltonian(square_lattice(4))
        grid = EnergyGrid.from_levels(ham.energy_levels())
        wl = WangLandauSampler(
            hamiltonian=ham, proposal=FlipProposal(), grid=grid,
            initial_config=np.zeros(16, dtype=np.int8),
            rng=0, config=WLConfig(ln_f_final=1e-5),
        )
        return ham, wl.run(max_steps=5_000_000)

    def test_converged(self, wl_result):
        _, res = wl_result
        assert res.converged
        assert res.final_ln_f <= 1e-5

    def test_ln_g_matches_enumeration(self, wl_result):
        ham, res = wl_result
        levels, degens = enumerate_density_of_states(ham)
        compare_to_exact(res, levels, degens, atol=0.35)

    def test_visits_full_spectrum(self, wl_result):
        ham, res = wl_result
        centers = res.grid.centers[res.visited]
        assert centers.min() == pytest.approx(-32.0)
        assert centers.max() == pytest.approx(32.0)
        assert res.visited.sum() == 15  # exact number of Ising levels at L=4

    def test_iteration_counting(self, wl_result):
        _, res = wl_result
        # ln f halves from 1.0 to <=1e-5: ceil(log2(1e5)) = 17 iterations.
        assert res.n_iterations == 17
        assert len(res.iteration_steps) == 17


class TestWangLandauCanonical:
    def test_fixed_composition_dos(self, ising_4x4):
        """WL with swap moves reproduces the fixed-magnetization DoS."""
        counts = [8, 8]
        energies = enumerate_energies(ising_4x4, counts=counts)
        levels, degen_counts = np.unique(np.round(energies, 9), return_counts=True)
        grid = EnergyGrid.from_levels(levels)
        cfg = random_configuration(16, counts, rng=1)
        wl = WangLandauSampler(hamiltonian=ising_4x4, proposal=SwapProposal(),
                               grid=grid, initial_config=cfg, rng=2,
                               config=WLConfig(ln_f_final=1e-5))
        res = wl.run(max_steps=5_000_000)
        assert res.converged
        compare_to_exact(res, levels, degen_counts, atol=0.4)


class TestWangLandauMechanics:
    def make_wl(self, ising_4x4, **kwargs):
        grid = EnergyGrid.from_levels(ising_4x4.energy_levels())
        tuning = dict(ln_f_final=1e-3)
        tuning.update(kwargs)
        return WangLandauSampler(
            hamiltonian=ising_4x4, proposal=FlipProposal(), grid=grid,
            initial_config=np.zeros(16, dtype=np.int8), rng=0,
            config=WLConfig(**tuning),
        )

    def test_out_of_range_initial_raises(self, ising_4x4):
        grid = EnergyGrid.uniform(-32.0, -20.0, 8)
        with pytest.raises(ValueError):
            WangLandauSampler(
                hamiltonian=ising_4x4, proposal=FlipProposal(), grid=grid,
                initial_config=np.eye(4, dtype=np.int8)[0].repeat(4), rng=0
            )

    def test_invalid_schedule_raises(self, ising_4x4):
        with pytest.raises(ValueError):
            self.make_wl(ising_4x4, schedule="linear")

    def test_invalid_flatness_raises(self, ising_4x4):
        with pytest.raises(ValueError):
            self.make_wl(ising_4x4, flatness=1.5)

    def test_invalid_ln_f_raises(self, ising_4x4):
        with pytest.raises(ValueError):
            self.make_wl(ising_4x4, ln_f_final=2.0)

    def test_histogram_updates_every_step(self, ising_4x4):
        wl = self.make_wl(ising_4x4)
        for _ in range(100):
            wl.step()
        assert wl.histogram.sum() == 100

    def test_flatness_false_with_unvisited_previous(self, ising_4x4):
        wl = self.make_wl(ising_4x4)
        wl.visited[0] = True
        wl.visited[5] = True
        wl.histogram[0] = 100
        wl.histogram[5] = 0  # previously visited but empty this iteration
        assert not wl.is_flat()

    def test_one_over_t_floor(self, ising_4x4):
        wl = self.make_wl(ising_4x4, schedule="one_over_t")
        wl.n_steps = 16_000  # 1000 sweeps of 16 sites
        wl.ln_f = 2e-3
        wl.advance_modification_factor()
        # halving would give 1e-3 which equals 1/t=1e-3 -> stays on floor
        assert wl.ln_f == pytest.approx(1e-3)

    def test_one_over_t_converges(self, ising_4x4):
        grid = EnergyGrid.from_levels(ising_4x4.energy_levels())
        wl = WangLandauSampler(
            hamiltonian=ising_4x4, proposal=FlipProposal(), grid=grid,
            initial_config=np.zeros(16, dtype=np.int8),
            rng=3, config=WLConfig(ln_f_final=5e-4, schedule="one_over_t"),
        )
        res = wl.run(max_steps=2_000_000)
        assert res.converged

    def test_flatness_and_fill_fractions_are_pure_reads(self, ising_4x4):
        wl = self.make_wl(ising_4x4)
        assert wl.flatness_fraction() == 0.0
        assert wl.fill_fraction() == 0.0
        wl.run(max_steps=500)
        hist_before = wl.histogram.copy()
        steps_before = wl.n_steps
        frac = wl.flatness_fraction()
        fill = wl.fill_fraction()
        assert 0.0 < frac <= 1.0
        assert 0.0 < fill <= 1.0
        counts = wl.histogram[wl.visited]
        assert frac == pytest.approx(counts.min() / counts.mean())
        assert fill == pytest.approx(np.count_nonzero(wl.visited)
                                     / wl.visited.shape[0])
        assert np.array_equal(wl.histogram, hist_before)
        assert wl.n_steps == steps_before

    def test_max_steps_cuts_off(self, ising_4x4):
        wl = self.make_wl(ising_4x4, ln_f_final=1e-12)
        res = wl.run(max_steps=5_000)
        assert not res.converged
        assert res.n_steps == 5_000


def random_spins(seed, rows, n_sites=16):
    """``rows`` random Ising configurations, 1-D for one row."""
    cfgs = np.random.default_rng(seed).integers(0, 2, (rows, n_sites)).astype(np.int8)
    return cfgs[0] if rows == 1 else cfgs


def assert_inside(ham, grid, driven, start):
    assert driven.shape == start.shape and driven is not start
    assert all(grid.contains(e) for e in ham.energies(np.atleast_2d(driven)))


class TestDriveIntoRange:
    """Each case drives one configuration (1-D) and a batch of B = 5;
    :meth:`test_every_case_on_both_paths` re-runs them all with the
    super-step implementation pinned.

    The drive is a near-zero-temperature quench, which on the 4x4 torus
    stalls in a striped state (E = -16) about one row in ten, as the greedy
    scalar walk it replaced did; the seeds below do not."""

    SHAPES = (1, 5)

    def test_drives_to_low_window(self, ising_4x4):
        grid = EnergyGrid.uniform(-32.0, -24.0, 5)
        for rows in self.SHAPES:
            cfg = random_spins(1, rows)
            driven = drive_into_range(ising_4x4, FlipProposal(), grid, cfg, rng=1)
            assert_inside(ising_4x4, grid, driven, cfg)

    def test_drives_to_high_window(self, ising_4x4):
        grid = EnergyGrid.uniform(24.0, 32.0, 5)
        for rows in self.SHAPES:
            cfg = random_spins(2, rows)
            driven = drive_into_range(ising_4x4, FlipProposal(), grid, cfg, rng=2)
            assert_inside(ising_4x4, grid, driven, cfg)

    @pytest.mark.parametrize("seed", [263, 281])
    def test_edge_level_is_confirmed_by_the_recomputed_energy(self, hea_small, seed):
        """The alloy's energies are whole meV, so a whole-meV window edge sits
        on a level.  The running energy sum reaches that level a few ulps on
        the inside, H(config) a few ulps on the outside: the steered walker
        must be inside by the energy the samplers recompute and bin."""
        from repro.lattice import equiatomic_counts, random_configuration
        from repro.proposals import SwapProposal
        from repro.sampling import BatchedWangLandauSampler

        counts = equiatomic_counts(hea_small.n_sites, 4)
        cfg = random_configuration(hea_small.n_sites, counts, rng=seed)
        top = round(hea_small.energy(cfg) - 0.050, 3)
        grid = EnergyGrid.uniform(top - 0.2, top, 8)
        driven = drive_into_range(hea_small, SwapProposal(), grid, cfg, rng=seed)
        assert grid.contains(hea_small.energy(driven))
        BatchedWangLandauSampler(  # raised "lies outside the grid" before
            hamiltonian=hea_small, proposal=SwapProposal(), grid=grid,
            initial_config=np.tile(driven, (2, 1)), rng=0,
        )

    def test_already_inside_returns_copy(self, ising_4x4):
        """A row already inside comes back untouched, as a copy."""
        grid = EnergyGrid.uniform(-33.0, -28.0, 2)
        for rows in self.SHAPES:
            cfg = np.zeros((rows, 16), dtype=np.int8)
            cfg[1:, 5] = 1  # rows after the first start one flip up, at E = -24
            cfg = cfg[0] if rows == 1 else cfg
            driven = drive_into_range(ising_4x4, FlipProposal(), grid, cfg, rng=0)
            assert_inside(ising_4x4, grid, driven, cfg)
            assert np.array_equal(np.atleast_2d(driven)[0], np.zeros(16))

    def test_a_walk_entering_on_its_last_allowed_step_is_returned(self, ising_4x4):
        """From the ground state every flip costs +8: one step reaches the
        window, and that one step is all ``max_steps`` allows."""
        grid = EnergyGrid.uniform(-25.0, -23.0, 1)
        for rows in self.SHAPES:
            cfg = random_spins(0, rows) * 0
            driven = drive_into_range(ising_4x4, FlipProposal(), grid, cfg, rng=0,
                                      max_steps=1)
            assert_inside(ising_4x4, grid, driven, cfg)

    def test_unreachable_raises(self, ising_4x4):
        grid = EnergyGrid.uniform(-100.0, -90.0, 4)  # below the ground state
        for rows in self.SHAPES:
            with pytest.raises(RuntimeError, match="could not reach"):
                drive_into_range(
                    ising_4x4, FlipProposal(), grid, random_spins(2, rows),
                    rng=0, max_steps=5_000,
                )

    def test_every_case_on_both_paths(self, superstep_path, ising_4x4, hea_small):
        self.test_drives_to_low_window(ising_4x4)
        self.test_drives_to_high_window(ising_4x4)
        for seed in (263, 281):
            self.test_edge_level_is_confirmed_by_the_recomputed_energy(hea_small, seed)
        self.test_already_inside_returns_copy(ising_4x4)
        self.test_a_walk_entering_on_its_last_allowed_step_is_returned(ising_4x4)
        self.test_unreachable_raises(ising_4x4)


class TestMulticanonical:
    def test_flat_walk_and_refinement(self, ising_4x4):
        """With the exact ln g, the production histogram is flat and the
        refined DoS stays within tolerance of exact."""
        levels, degens = enumerate_density_of_states(ising_4x4)
        grid = EnergyGrid.from_levels(levels)
        ln_g = np.log(degens.astype(np.float64))
        sampler = MulticanonicalSampler(
            ising_4x4, FlipProposal(), grid, ln_g, np.zeros(16, dtype=np.int8), rng=0
        )
        res = sampler.run(150_000)
        h = res.histogram[res.histogram > 0]
        assert h.min() / h.mean() > 0.4  # roughly flat visitation
        refined = res.refined_ln_g()
        rel = refined[np.isfinite(refined)]
        exact_rel = ln_g - ln_g.min()
        assert np.abs((rel - rel[0]) - (exact_rel - exact_rel[0])).max() < 0.5

    def test_observable_accumulation(self, ising_4x4):
        levels, degens = enumerate_density_of_states(ising_4x4)
        grid = EnergyGrid.from_levels(levels)
        ln_g = np.log(degens.astype(np.float64))
        sampler = MulticanonicalSampler(
            ising_4x4, FlipProposal(), grid, ln_g, np.zeros(16, dtype=np.int8), rng=1,
            observables={"abs_m": lambda c, e: abs(ising_4x4.magnetization(c))},
        )
        res = sampler.run(50_000)
        m = res.observable_means["abs_m"]
        visited = res.histogram > 0
        # |M| at the ground-state bin is exactly 16 (all up or all down).
        assert m[0] == pytest.approx(16.0)
        assert np.all(np.isfinite(m[visited]))

    def test_bad_ln_g_shape_raises(self, ising_4x4):
        grid = EnergyGrid.uniform(-32, 32, 10)
        with pytest.raises(ValueError):
            MulticanonicalSampler(
                ising_4x4, FlipProposal(), grid, np.zeros(5), np.zeros(16, dtype=np.int8)
            )

    def test_initial_energy_must_be_in_grid(self, ising_4x4):
        grid = EnergyGrid.uniform(0.0, 32.0, 10)
        with pytest.raises(ValueError):
            MulticanonicalSampler(
                ising_4x4, FlipProposal(), grid, np.zeros(10),
                np.zeros(16, dtype=np.int8),
            )
