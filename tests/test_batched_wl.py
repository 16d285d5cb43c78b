"""Batched multi-walker Wang-Landau: correctness and bit-identity.

Three contracts from the kernels redesign:

1. A single walker is a one-row team: ``batch_size=1`` through
   :func:`make_wang_landau` and :class:`WangLandauSampler` (which refuses a
   start of several rows) step the same rows on the same engine, bit for
   bit.  Its correctness rests on exact enumeration
   (``tests/test_drivers.py``, ``tests/test_wang_landau.py``), not on a
   replay of an older loop.
2. ``batch_size=K>1`` is a *different but correct* sampler: K walkers
   sharing one ln g recover the exact 4x4 Ising density of states within
   the same tolerance the scalar E1 validation uses.
3. The REWL driver's batched window teams converge, exchange between
   slots, stitch windows within tolerance, and round-trip through
   checkpoints bit-identically.
4. Every proposal advances in *blocks* (``advance_block``): a block equals
   an independent step-by-step replay of the same draws, splits
   deterministically above the sub-block cap, stacks only blocks of one
   kind, and is unbiased over seeds.
"""

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian, enumerate_density_of_states
from repro.lattice import square_lattice
from repro.parallel import REWLConfig, REWLDriver
from repro.parallel.checkpoint import load_checkpoint, save_checkpoint
from repro.obs import Telemetry
from repro.obs.profile import SectionProfiler
from repro.nn import MADE, MADEConfig
from repro.proposals import FlipProposal, MADEProposal, MixtureProposal
from repro.sampling import batched
from repro.sampling import (
    BatchedWangLandauSampler,
    EnergyGrid,
    WangLandauSampler,
    WLConfig,
    make_wang_landau,
)
from repro.sampling.wang_landau import drive_into_range


@pytest.fixture(scope="module")
def ising():
    return IsingHamiltonian(square_lattice(4))


@pytest.fixture(scope="module")
def grid(ising):
    return EnergyGrid.from_levels(ising.energy_levels())


def exact_table(ising):
    levels, degens = enumerate_density_of_states(ising)
    return {float(e): float(np.log(d)) for e, d in zip(levels, degens)}


def max_rel_error(result, exact):
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
    return np.abs(est - ex).max()


class TestBatchSizeOneIsScalar:
    def test_factory_returns_scalar_sampler(self, ising, grid):
        """The scalar sampler is a one-row team."""
        wl = make_wang_landau(
            hamiltonian=ising, proposal=FlipProposal(), grid=grid,
            initial_config=np.zeros(16, dtype=np.int8), rng=0,
            config=WLConfig(batch_size=1),
        )
        assert type(wl) is BatchedWangLandauSampler
        assert wl.n_slots == 1

    def test_single_row_2d_initial_is_squeezed(self, ising, grid):
        wl = WangLandauSampler(
            hamiltonian=ising, proposal=FlipProposal(), grid=grid,
            initial_config=np.zeros((1, 16), dtype=np.int8), rng=0,
        )
        assert wl.n_slots == 1
        assert wl.config.shape == (16,)

    def test_multirow_initial_with_batch_one_raises(self, ising, grid):
        with pytest.raises(ValueError, match="rows"):
            WangLandauSampler(
                hamiltonian=ising, proposal=FlipProposal(), grid=grid,
                initial_config=np.zeros((3, 16), dtype=np.int8), rng=0,
                config=WLConfig(batch_size=1),
            )

    def test_trajectory_bit_identical_to_direct_scalar(self, ising, grid):
        """Same seed through the factory and the class: identical runs."""
        a = make_wang_landau(
            hamiltonian=ising, proposal=FlipProposal(), grid=grid,
            initial_config=np.zeros(16, dtype=np.int8), rng=7,
            config=WLConfig(ln_f_final=1e-2),
        )
        b = WangLandauSampler(
            hamiltonian=ising, proposal=FlipProposal(), grid=grid,
            initial_config=np.zeros(16, dtype=np.int8), rng=7,
            config=WLConfig(ln_f_final=1e-2),
        )
        res_a = a.run(max_steps=30_000)
        res_b = b.run(max_steps=30_000)
        assert res_a.n_steps == res_b.n_steps
        assert np.array_equal(res_a.ln_g, res_b.ln_g)
        assert np.array_equal(res_a.histogram, res_b.histogram)
        assert np.array_equal(a.configs[0], b.config)


class TestBatchedSampler:
    def test_factory_returns_batched_for_k_gt_1(self, ising, grid):
        wl = make_wang_landau(
            hamiltonian=ising, proposal=FlipProposal(), grid=grid,
            initial_config=np.zeros(16, dtype=np.int8), rng=0,
            config=WLConfig(batch_size=4),
        )
        assert type(wl) is BatchedWangLandauSampler
        assert wl.n_slots == 4

    def test_2d_initial_fixes_batch_size(self, ising, grid):
        configs = np.zeros((3, 16), dtype=np.int8)
        wl = BatchedWangLandauSampler(
            hamiltonian=ising, proposal=FlipProposal(), grid=grid,
            initial_config=configs, rng=0, config=WLConfig(batch_size=8),
        )
        assert wl.n_slots == 3
        assert wl.cfg.batch_size == 3

    def test_out_of_grid_initial_raises(self, ising):
        narrow = EnergyGrid.uniform(-32.0, -20.0, 8)
        with pytest.raises(ValueError, match="outside the grid"):
            BatchedWangLandauSampler(
                hamiltonian=ising, proposal=FlipProposal(), grid=narrow,
                initial_config=np.eye(4, dtype=np.int8)[0].repeat(4),
                rng=0, config=WLConfig(batch_size=4),
            )

    def test_steps_count_walker_steps(self, ising, grid):
        wl = BatchedWangLandauSampler(
            hamiltonian=ising, proposal=FlipProposal(), grid=grid,
            initial_config=np.zeros(16, dtype=np.int8), rng=0,
            config=WLConfig(batch_size=5),
        )
        wl.steps(1)
        assert wl.n_steps == 5
        assert wl.histogram.sum() == 5  # one deposit per walker
        wl.steps(3)
        assert wl.n_steps == 20
        assert np.array_equal(wl.slot_steps, np.full(5, 4))

    def test_flatness_and_fill_fractions(self, ising, grid):
        wl = BatchedWangLandauSampler(
            hamiltonian=ising, proposal=FlipProposal(), grid=grid,
            initial_config=np.zeros(16, dtype=np.int8), rng=0,
            config=WLConfig(batch_size=4),
        )
        assert wl.flatness_fraction() == 0.0
        assert wl.fill_fraction() == 0.0
        wl.steps(100)
        counts = wl.histogram[wl.visited]
        assert wl.flatness_fraction() == pytest.approx(
            counts.min() / counts.mean())
        assert wl.fill_fraction() == pytest.approx(
            np.count_nonzero(wl.visited) / wl.visited.shape[0])

    def test_slot_accessors_roundtrip(self, ising, grid):
        wl = BatchedWangLandauSampler(
            hamiltonian=ising, proposal=FlipProposal(), grid=grid,
            initial_config=np.zeros(16, dtype=np.int8), rng=0,
            config=WLConfig(batch_size=2),
        )
        cfg = np.ones(16, dtype=np.int8)
        e = ising.energy(cfg)
        wl.set_slot(1, cfg, e, grid.index(e))
        assert wl.slot_energy(1) == e
        assert wl.slot_bin(1) == grid.index(e)
        assert np.array_equal(wl.slot_config(1), cfg)
        # slot 0 untouched
        assert wl.slot_energy(0) == ising.energy(np.zeros(16, dtype=np.int8))

    @pytest.mark.parametrize("cap, config", [
        (1_000, WLConfig(batch_size=32, ln_f_final=1e-8)),
        (None, WLConfig(batch_size=32, ln_f_final=1e-8, max_steps=100)),
    ])
    def test_run_never_passes_max_steps(self, ising, grid, cap, config):
        """A remainder shorter than one super-step ends the run: 32 rows
        stop at 992 of 1,000 steps and at 96 of 100."""
        wl = make_wang_landau(
            hamiltonian=ising, proposal=FlipProposal(), grid=grid,
            initial_config=np.zeros(16, dtype=np.int8), rng=0, config=config,
        )
        limit = config.max_steps if cap is None else cap
        res = wl.run(max_steps=cap)
        assert limit - 32 < res.n_steps <= limit
        assert res.n_steps % 32 == 0
        wl.run(max_steps=cap)  # nothing left to run
        assert wl.n_steps == res.n_steps

    def test_k4_recovers_exact_dos(self, ising, grid):
        """E1 validation at batch_size=4: same tolerance as the scalar test."""
        wl = make_wang_landau(
            hamiltonian=ising, proposal=FlipProposal(), grid=grid,
            initial_config=np.zeros(16, dtype=np.int8), rng=0,
            config=WLConfig(batch_size=4, ln_f_final=1e-5),
        )
        res = wl.run(max_steps=5_000_000)
        assert res.converged
        assert max_rel_error(res, exact_table(ising)) < 0.4


class TestBatchedREWL:
    @pytest.fixture(scope="class")
    def batched_result(self):
        ham = IsingHamiltonian(square_lattice(4))
        grid = EnergyGrid.from_levels(ham.energy_levels())
        driver = REWLDriver(
            hamiltonian=ham, proposal_factory=lambda: FlipProposal(),
            grid=grid, initial_config=np.zeros(16, dtype=np.int8),
            config=REWLConfig(n_windows=3, walkers_per_window=2, overlap=0.6,
                              exchange_interval=1500, ln_f_final=3e-4, seed=1),
        )
        return driver.run()

    def test_converges(self, batched_result):
        assert batched_result.converged
        assert all(it >= 10 for it in batched_result.window_iterations)

    def test_stitched_matches_exact(self, batched_result):
        ising = IsingHamiltonian(square_lattice(4))
        exact = exact_table(ising)
        stitched = batched_result.stitched()
        pairs = [
            (v, exact[float(e)])
            for e, v in zip(stitched.energies(), stitched.values())
            if float(e) in exact
        ]
        est = np.array([p[0] for p in pairs])
        ex = np.array([p[1] for p in pairs])
        err = np.abs((est - est[0]) - (ex - ex[0]))
        assert err.max() < 0.5

    def test_one_snapshot_per_slot(self, batched_result):
        # 3 windows x 2 slots
        assert len(batched_result.walkers) == 6
        for snap in batched_result.walkers:
            assert snap.n_steps > 0

    def test_checkpoint_roundtrip_bit_identical(self, tmp_path):
        """run(A+B) == run(A) -> checkpoint -> restore -> run(B), batched."""
        ham = IsingHamiltonian(square_lattice(4))
        grid = EnergyGrid.from_levels(ham.energy_levels())

        def make_driver():
            return REWLDriver(
                hamiltonian=ham, proposal_factory=lambda: FlipProposal(),
                grid=grid, initial_config=np.zeros(16, dtype=np.int8),
                config=REWLConfig(n_windows=2, walkers_per_window=2,
                                  overlap=0.6, exchange_interval=300,
                                  ln_f_final=1e-6, seed=5),
            )

        straight = make_driver()
        straight.run(max_rounds=6)
        ref = straight.result()

        first = make_driver()
        first.run(max_rounds=3)
        ckpt = save_checkpoint(first, tmp_path / "batched.ckpt")

        resumed = make_driver()
        load_checkpoint(resumed, ckpt)
        resumed.run(max_rounds=6)
        res = resumed.result()

        assert res.rounds == ref.rounds
        for a, b in zip(ref.window_ln_g, res.window_ln_g):
            assert np.array_equal(a, b)
        assert np.array_equal(ref.exchange_accepts, res.exchange_accepts)


TEAM_ARRAYS = ("configs", "energies", "bins", "ln_g", "histogram", "visited",
               "slot_steps", "slot_accepted")


def assert_same_team_state(a, b):
    for name in TEAM_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.n_steps, a.n_accepted) == (b.n_steps, b.n_accepted)
    assert a.counters == b.counters
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


class TestBlockAdvance:
    def _team(self, ising, grid, proposal=None, seed=3, k=4):
        """A team on an inner window, so out-of-grid proposals occur."""
        window = grid.subgrid(2, 9)
        start = drive_into_range(ising, FlipProposal(), window,
                                 np.zeros(16, dtype=np.int8), rng=0)
        return BatchedWangLandauSampler(
            hamiltonian=ising, proposal=proposal or FlipProposal(), grid=window,
            initial_config=start, rng=seed, config=WLConfig(batch_size=k),
        )

    def test_block_equals_step_by_step_replay_of_its_draws(self, ising, grid):
        """Totals of a block (ln g, histogram, visited, slot and walker
        counters) are the per-step sums of an independent scalar replay."""
        n, k = 60, 4
        wl = self._team(ising, grid, k=k)
        ref = self._team(ising, grid, k=k)
        wl.steps(n)

        window, rows = ref.grid, np.arange(k)
        fields = ref.proposal.draw_fields(ref.configs, ising, ref.rng, n)
        ln_u = np.log(ref.rng.random((n, k)))
        proposals = accepted = out_of_grid = 0
        for step in range(n):
            move = fields.resolve(step, ref.configs, rows, [(ref.rng, 0, k)])
            delta = ising.delta_energy_flip_many(ref.configs, move[:, 0], move[:, 1])
            for b in range(k):  # one scalar WL step per walker, in row order
                proposals += 1
                new_bin = window.index(ref.energies[b] + delta[b])
                if new_bin < 0:
                    out_of_grid += 1
                else:
                    log_alpha = ref.ln_g[ref.bins[b]] - ref.ln_g[new_bin]
                    if log_alpha >= 0.0 or ln_u[step, b] < log_alpha:
                        ref.configs[b, move[b, 0]] = move[b, 1]
                        ref.energies[b] += delta[b]
                        ref.bins[b] = new_bin
                        ref.slot_accepted[b] += 1
                        accepted += 1
                ref.ln_g[ref.bins[b]] += ref.ln_f
                ref.histogram[ref.bins[b]] += 1
                ref.visited[ref.bins[b]] = True
            ref.slot_steps += 1

        for name in TEAM_ARRAYS:
            assert np.array_equal(getattr(wl, name), getattr(ref, name)), name
        assert out_of_grid > 0 and accepted > 0
        c = wl.counters
        assert (c.proposals, c.accepted, c.out_of_grid) == (proposals, accepted, out_of_grid)
        assert wl.n_steps == proposals == n * k == wl.histogram.sum()
        assert wl.n_accepted == accepted == wl.slot_accepted.sum()
        assert np.array_equal(wl.energies, ising.energies(wl.configs))

    def test_steps_above_the_cap_split_deterministically(self, ising, grid, monkeypatch):
        monkeypatch.setattr(batched, "_MAX_BLOCK_STEPS", 7)
        whole = self._team(ising, grid)
        parts = self._team(ising, grid)
        whole.steps(20)
        for n in (7, 7, 6):
            parts.steps(n)
        assert_same_team_state(whole, parts)

    def test_call_lengths_define_the_trajectory(self, ising, grid):
        """Same seed, same total, different call lengths: another stream order."""
        a, b = self._team(ising, grid), self._team(ising, grid)
        a.steps(20)
        b.steps(10)
        b.steps(10)
        assert a.n_steps == b.n_steps
        assert not np.array_equal(a.ln_g, b.ln_g)

    def test_mixed_campaign_matches_teams_stepped_alone(self, ising, grid):
        """Flip teams and a flip/MADE team advanced together (two block
        kinds, one of them stacked) end where each stepped alone does."""
        model = MADE(MADEConfig(n_sites=16, n_species=2, hidden=(8,)), rng=0)

        def mixture():
            return MixtureProposal([(FlipProposal(), 0.5),
                                    (MADEProposal(model, "free"), 0.5)])

        together = [self._team(ising, grid, seed=1),
                    self._team(ising, grid, mixture(), seed=2),
                    self._team(ising, grid, seed=3, k=2)]
        alone = [self._team(ising, grid, seed=1),
                 self._team(ising, grid, mixture(), seed=2),
                 self._team(ising, grid, seed=3, k=2)]
        batched.advance_block(together, 25, ising)
        for team in alone:
            team.steps(25)
        for a, b in zip(together, alone):
            assert a.n_steps == 25 * a.n_slots
            assert_same_team_state(a, b)

    def test_block_path_is_unbiased_over_seeds(self, ising, grid):
        """E1 over 12 seeds: the mean ln g error of every level must vanish
        against its seed-to-seed spread (groups of 12 seeds measured
        max |z| between 0.9 and 3.0 when this was written)."""
        exact = exact_table(ising)
        real = np.array([float(e) in exact for e in grid.centers])
        want = np.array([exact[float(e)] for e in grid.centers[real]])
        errors = []
        for seed in range(12):
            wl = make_wang_landau(
                hamiltonian=ising, proposal=FlipProposal(), grid=grid,
                initial_config=np.zeros(16, dtype=np.int8), rng=seed,
                config=WLConfig(batch_size=4, ln_f_final=1e-3),
            )
            res = wl.run(max_steps=5_000_000)
            assert res.converged and np.array_equal(res.visited, real)
            got = res.ln_g[real]
            errors.append((got - got.mean()) - (want - want.mean()))
        errors = np.array(errors)
        spread = errors.std(axis=0, ddof=1)
        z = errors.mean(axis=0) / (spread / np.sqrt(len(errors)))
        assert np.abs(z).max() < 5.0
        assert spread.max() < 0.6

    def test_profile_sections_and_step_metric(self, ising, grid):
        wl = self._team(ising, grid)
        wl.enable_profiling(SectionProfiler(sample_every=1))
        wl.steps(30)
        wl.steps(20)
        profile = wl.profiler.as_dict()
        # one field draw and one block per advance call, on either path
        assert profile["proposal.flip.fields"]["calls"] == 2
        assert profile["wl.block"]["calls"] == 2
        assert profile["wl.block"]["timed"] == 2
        assert "wl.batch_commit" not in profile

        telemetry = Telemetry()
        full = make_wang_landau(
            hamiltonian=ising, proposal=FlipProposal(), grid=grid,
            initial_config=np.zeros(16, dtype=np.int8), rng=0,
            config=WLConfig(batch_size=4, ln_f_final=0.2),
        )
        res = full.run(telemetry=telemetry)
        steps = telemetry.metrics.as_dict()["wl.steps"]["value"]
        assert steps == res.n_steps == res.counters.proposals
