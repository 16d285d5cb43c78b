"""Tests for the campaign backends (``repro.parallel.rewl`` /
``repro.parallel.fused``).

The acceptance contract: ``backend="fused"`` (in-process) and
``backend="shm"`` (multiprocess, zero-copy shared memory) reproduce the
per-window batched campaign — each window's team stepped alone, the path
the retry loop takes — **bit for bit** on a seeded run: same rounds, same
steps, same exchange statistics, same ln g arrays.  Every backend advances
its teams through the one block advance with the same call lengths, each
team draws its block from its own stream, and the ``*_many`` kernels
reduce row-wise.
"""

import pickle

import numpy as np
import pytest

from repro.faults import FAULTS_ENV_VAR, FaultConfig, FaultInjector
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.obs import Instrumentation, Telemetry
from repro.obs.profile import SectionProfiler
from repro.parallel import REWLConfig, REWLDriver
from repro.parallel.checkpoint import load_checkpoint, save_checkpoint
from repro.parallel.fused import FusedCampaignState, FusedTeam
from repro.proposals import FlipProposal, SwapProposal
from repro.resilience import GuardPolicy, ResilienceConfig
from repro.sampling import BatchedWangLandauSampler, EnergyGrid


def _driver(backend="fused", *, seed=11, instrumentation=None, **over):
    ham = IsingHamiltonian(square_lattice(4))
    grid = EnergyGrid.from_levels(ham.energy_levels())
    cfg = dict(n_windows=2, walkers_per_window=2, overlap=0.6,
               exchange_interval=200, ln_f_final=5e-2, seed=seed,
               backend=backend)
    cfg.update(over)
    return REWLDriver(
        hamiltonian=ham, proposal_factory=lambda: FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(**cfg), instrumentation=instrumentation,
    )


def _swap_driver(backend, **over):
    """Fixed-magnetisation Ising with swaps on a uniform grid: the alloy
    path (SwapBlock, inclusive right edge) on a cell small enough to test."""
    ham = IsingHamiltonian(square_lattice(4))
    start = np.tile(np.array([0, 0, 1, 1], dtype=np.int8), 4)
    cfg = dict(n_windows=3, walkers_per_window=3, overlap=0.6,
               exchange_interval=100, ln_f_final=5e-2, seed=4,
               backend=backend)
    cfg.update(over)
    return REWLDriver(
        hamiltonian=ham, proposal_factory=lambda: SwapProposal(),
        grid=EnergyGrid.uniform(-18.0, 34.0, 13), initial_config=start,
        config=REWLConfig(**cfg),
    )


def _window_by_window(driver):
    """Step each window's team alone: the retry loop's path, armed with an
    injector that injects nothing."""
    driver._faults = FaultInjector(FaultConfig())
    return driver


def _assert_bit_identical(a, b):
    assert a.converged == b.converged
    assert a.rounds == b.rounds
    assert a.total_steps == b.total_steps
    np.testing.assert_array_equal(a.exchange_attempts, b.exchange_attempts)
    np.testing.assert_array_equal(a.exchange_accepts, b.exchange_accepts)
    for x, y in zip(a.window_ln_g, b.window_ln_g):
        np.testing.assert_array_equal(x, y)
    for x, y in zip(a.window_visited, b.window_visited):
        np.testing.assert_array_equal(x, y)
    assert [s.final_energy for s in a.walkers] \
        == [s.final_energy for s in b.walkers]
    assert [s.n_steps for s in a.walkers] == [s.n_steps for s in b.walkers]


class TestFusedBitIdentity:
    def test_fused_matches_batched_serial(self):
        baseline = _window_by_window(_driver()).run(max_rounds=60)
        fused = _driver("fused").run(max_rounds=60)
        _assert_bit_identical(fused, baseline)

    def test_swap_campaign_matches_on_every_backend(self):
        baseline = _window_by_window(_swap_driver("fused")).run(max_rounds=40)
        assert baseline.total_steps > 0 and baseline.exchange_attempts.sum() > 0
        _assert_bit_identical(_swap_driver("fused").run(max_rounds=40), baseline)
        drv = _swap_driver("shm", shm_ranks=2)  # ranks own windows {0, 2} and {1}
        try:
            shm = drv.run(max_rounds=40)
        finally:
            drv.close()
        _assert_bit_identical(shm, baseline)

    def test_checkpoint_resume_at_a_round_boundary(self, tmp_path):
        """run(A+B) == run(A) -> checkpoint -> restore -> run(B), fused."""
        straight = _driver("fused", ln_f_final=1e-6)
        straight.run(max_rounds=6)
        first = _driver("fused", ln_f_final=1e-6)
        first.run(max_rounds=3)
        ckpt = save_checkpoint(first, tmp_path / "fused.ckpt")
        resumed = _driver("fused", ln_f_final=1e-6)
        load_checkpoint(resumed, ckpt)
        resumed.run(max_rounds=6)
        _assert_bit_identical(resumed.result(), straight.result())

    def test_supervisor_rollback_rebinds_the_block_path(self):
        """shm: a rollback rebinds the restored team into the shared
        campaign arrays the ranks step."""
        ham = IsingHamiltonian(square_lattice(4))
        drv = REWLDriver(
            hamiltonian=ham, proposal_factory=lambda: FlipProposal(),
            grid=EnergyGrid.from_levels(ham.energy_levels()),
            initial_config=np.zeros(16, dtype=np.int8),
            config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                              exchange_interval=200, ln_f_final=1e-6, seed=11,
                              backend="shm", shm_ranks=1),
            resilience=ResilienceConfig(guards=GuardPolicy(mode="quarantine")),
        )
        state = drv._engine.state
        guard = drv.supervisor.guard_window

        def corrupt_then_guard(driver, w):
            if driver.rounds == 3 and w == 1:
                state.ln_g[1, 2] = np.nan  # silent corruption of window 1
            guard(driver, w)

        drv.supervisor.guard_window = corrupt_then_guard
        try:
            drv.run(max_rounds=6)
            assert drv.supervisor.windows[1].rollbacks == 1
            assert drv.supervisor.windows[1].disposition == "healthy"
            assert not drv.supervisor.degraded
            team = drv.walkers[1][0]
            assert np.shares_memory(team.ln_g, state.ln_g)
            assert np.isfinite(state.ln_g).all()
            assert team.n_steps == state.counts[1, 0] > 0
        finally:
            drv.close()

    def test_round_metrics_equal_the_walker_totals(self):
        telemetry = Telemetry()
        drv = _driver("fused", instrumentation=Instrumentation(telemetry=telemetry))
        res = drv.run(max_rounds=20)
        metrics = telemetry.metrics.as_dict()
        k = drv.cfg.walkers_per_window
        assert metrics["rewl.steps"]["value"] * k == res.total_steps
        assert sum(s.counters.proposals for s in res.walkers) == res.total_steps
        assert sum(s.counters.accepted for s in res.walkers) \
            == sum(team[0].n_accepted for team in drv.walkers)

    def test_fused_backend_forces_batched_teams(self):
        drv = _driver("fused")
        assert len(drv.walkers[0]) == 1  # one team object per window
        assert isinstance(drv.walkers[0][0], BatchedWangLandauSampler)
        assert drv.walkers[0][0].n_slots == drv.cfg.walkers_per_window

    def test_explicit_executor_rejected(self):
        ham = IsingHamiltonian(square_lattice(4))
        grid = EnergyGrid.from_levels(ham.energy_levels())
        with pytest.raises(TypeError, match="executor"):
            REWLDriver(
                hamiltonian=ham, proposal_factory=lambda: FlipProposal(),
                grid=grid, initial_config=np.zeros(16, dtype=np.int8),
                config=REWLConfig(n_windows=2, walkers_per_window=2,
                                  overlap=0.6, backend="fused"),
                executor=object(),
            )
        for retired in ("serial", "thread", "process"):
            with pytest.raises(ValueError, match="unknown backend"):
                REWLConfig(backend=retired)

    def test_fused_gather_is_profiled_and_attributed(self, monkeypatch):
        """The fused campaign's one block per round (every window's gather
        and commit) is the ``wl.block`` section, timed on every call, and
        the ``block`` phase of the cost attribution, inside advance."""
        # Injected faults step every window alone, one block per attempt:
        # the one-block-per-round shape is the fault-free path's.
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        prof = SectionProfiler(sample_every=1)
        drv = _driver("fused", instrumentation=Instrumentation(profiler=prof))
        result = drv.run(max_rounds=60)
        profile = result.telemetry["profile"]
        # one block and one field draw per team per round (interval 200 fits
        # in one sub-block); no team steps through the propose_many path
        assert profile["wl.block"]["calls"] == profile["wl.block"]["timed"]
        assert 0 < profile["wl.block"]["calls"] <= result.rounds
        assert profile["proposal.flip.fields"]["calls"] <= 2 * result.rounds
        assert "wl.batch_commit" not in profile
        cost = result.telemetry["cost"]
        assert "block" in cost["phases"]
        assert cost["phases"]["block"]["seconds"] > 0
        assert cost["phases"]["block"]["seconds"] <= profile["rewl.advance"]["est_total_s"]


class TestShmBitIdentity:
    def test_shm_matches_batched_serial(self):
        baseline = _window_by_window(_driver()).run(max_rounds=60)
        drv = _driver("shm", shm_ranks=2)
        try:
            shm = drv.run(max_rounds=60)
        finally:
            drv.close()
        _assert_bit_identical(shm, baseline)

    def test_close_is_idempotent_and_result_survives(self):
        drv = _driver("shm", shm_ranks=1)
        drv.run(max_rounds=5)
        drv.close()
        drv.close()  # second close is a no-op
        result = drv.result()  # teams were detached onto private arrays
        assert 1 <= result.rounds <= 5
        assert all(np.isfinite(g).all() for g in result.window_ln_g)


class TestMaskedRows:
    """Converged/quarantined windows are masked out of the super-step —
    their teams' rows must not move."""

    def _frozen_rows_unchanged(self, flag_list):
        drv = _driver("fused")
        drv.run(max_rounds=3)
        flag_list(drv)[0] = True
        frozen_team, live_team = drv.walkers[0][0], drv.walkers[1][0]
        frozen = frozen_team.configs.copy()
        frozen_steps = frozen_team.slot_steps.copy()
        live_steps = live_team.slot_steps.copy()
        drv._advance_phase()
        np.testing.assert_array_equal(frozen_team.configs, frozen)
        np.testing.assert_array_equal(frozen_team.slot_steps, frozen_steps)
        assert (live_team.slot_steps > live_steps).all()

    def test_converged_window_rows_frozen(self):
        self._frozen_rows_unchanged(lambda d: d.window_converged)

    def test_quarantined_window_rows_frozen(self):
        self._frozen_rows_unchanged(lambda d: d.window_quarantined)


class TestCampaignState:
    def test_rows_and_specs_shapes(self):
        specs = FusedCampaignState.specs(3, 2, n_sites=16, width=5,
                                         config_dtype=np.int8)
        assert specs["configs"][0] == (6, 16)
        assert specs["ln_g"][0] == (3, 5)
        assert specs["counts"][0] == (3, 3)
        state = FusedCampaignState.allocate(
            n_windows=3, walkers_per_window=2, n_sites=16, width=5,
            config_dtype=np.int8,
            alloc=lambda name, shape, dtype: np.zeros(shape, dtype=dtype),
        )
        assert state.rows(1) == slice(2, 4)

    def test_team_views_alias_campaign_arrays(self):
        drv = _driver("shm", shm_ranks=1)
        try:
            state = drv._engine.state
            team = drv.walkers[1][0]
            assert np.shares_memory(team.configs, state.configs)
            assert np.shares_memory(team.ln_g, state.ln_g)
            team.ln_f = 0.125
            assert state.ln_f[1] == 0.125
        finally:
            drv.close()

    def test_pickled_team_owns_its_arrays(self):
        drv = _driver("shm", shm_ranks=1)
        try:
            team = drv.walkers[0][0]
            clone = pickle.loads(pickle.dumps(team))
            assert isinstance(clone, FusedTeam)
            assert "_fused" not in clone.__dict__
            assert not np.shares_memory(clone.configs, team.configs)
            np.testing.assert_array_equal(clone.ln_g, team.ln_g)
            assert clone.ln_f == team.ln_f
        finally:
            drv.close()
