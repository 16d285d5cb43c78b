"""Tests for the fused SPMD campaign (``repro.parallel.fused``).

The acceptance contract: ``backend="fused"`` (in-process) and
``backend="shm"`` (multiprocess, zero-copy shared memory) reproduce the
per-window batched campaign **bit for bit** on a seeded run — same rounds,
same steps, same exchange statistics, same ln g arrays — because every
backend advances its teams through the one block advance with the same
call lengths, each team draws its block from its own stream, and the
``*_many`` kernels reduce row-wise.
"""

import pickle

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.machine.autotune import CampaignPlan, plan_campaign
from repro.obs import Instrumentation, Telemetry
from repro.obs.profile import SectionProfiler
from repro.parallel import REWLConfig, REWLDriver, SerialExecutor
from repro.parallel.checkpoint import load_checkpoint, save_checkpoint
from repro.parallel.fused import FusedCampaignState, FusedTeam
from repro.proposals import FlipProposal, SwapProposal
from repro.resilience import GuardPolicy, ResilienceConfig
from repro.sampling import EnergyGrid


def _driver(backend="serial", *, seed=11, instrumentation=None, **over):
    ham = IsingHamiltonian(square_lattice(4))
    grid = EnergyGrid.from_levels(ham.energy_levels())
    cfg = dict(n_windows=2, walkers_per_window=2, overlap=0.6,
               exchange_interval=200, ln_f_final=5e-2, seed=seed,
               batched_walkers=True, backend=backend)
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
               batched_walkers=True, backend=backend)
    cfg.update(over)
    return REWLDriver(
        hamiltonian=ham, proposal_factory=lambda: SwapProposal(),
        grid=EnergyGrid.uniform(-18.0, 34.0, 13), initial_config=start,
        config=REWLConfig(**cfg),
    )


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
        baseline = _driver("serial").run(max_rounds=60)
        fused = _driver("fused").run(max_rounds=60)
        _assert_bit_identical(fused, baseline)

    def test_swap_campaign_matches_on_every_backend(self):
        baseline = _swap_driver("serial").run(max_rounds=40)
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
        # the restored teams step the campaign arrays again, not copies
        state = resumed._engine.state
        assert np.shares_memory(resumed.walkers[0][0].configs, state.configs)

    def test_supervisor_rollback_rebinds_the_block_path(self):
        ham = IsingHamiltonian(square_lattice(4))
        drv = REWLDriver(
            hamiltonian=ham, proposal_factory=lambda: FlipProposal(),
            grid=EnergyGrid.from_levels(ham.energy_levels()),
            initial_config=np.zeros(16, dtype=np.int8),
            config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                              exchange_interval=200, ln_f_final=1e-6, seed=11,
                              backend="fused"),
            resilience=ResilienceConfig(guards=GuardPolicy(mode="quarantine")),
        )
        state = drv._engine.state
        advance, rounds = drv._engine.advance, []

        def advance_then_corrupt(driver, active, n_steps):
            advance(driver, active, n_steps)
            rounds.append(driver.rounds)
            if len(rounds) == 3:
                state.ln_g[1, 2] = np.nan  # silent corruption of window 1

        drv._engine.advance = advance_then_corrupt
        drv.run(max_rounds=6)
        assert drv.supervisor.windows[1].rollbacks == 1
        assert drv.supervisor.windows[1].disposition == "healthy"
        assert not drv.supervisor.degraded
        team = drv.walkers[1][0]
        assert np.shares_memory(team.ln_g, state.ln_g)
        assert np.isfinite(state.ln_g).all()
        assert team.n_steps == state.counts[1, 0] > 0

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
        drv = _driver("fused", batched_walkers=False)
        assert drv.cfg.batched_walkers is True
        assert len(drv.walkers[0]) == 1  # one team object per window

    def test_explicit_executor_rejected(self):
        ham = IsingHamiltonian(square_lattice(4))
        grid = EnergyGrid.from_levels(ham.energy_levels())
        with pytest.raises(TypeError, match="manages its own stepping"):
            REWLDriver(
                hamiltonian=ham, proposal_factory=lambda: FlipProposal(),
                grid=grid, initial_config=np.zeros(16, dtype=np.int8),
                config=REWLConfig(n_windows=2, walkers_per_window=2,
                                  overlap=0.6, backend="fused"),
                executor=SerialExecutor(),
            )

    def test_fused_gather_is_profiled_and_attributed(self):
        prof = SectionProfiler(sample_every=1)
        drv = _driver("fused", instrumentation=Instrumentation(profiler=prof))
        result = drv.run(max_rounds=60)
        profile = result.telemetry["profile"]
        assert "rewl.fused_gather" in profile
        assert profile["rewl.fused_gather"]["calls"] > 0
        # one gather and one commit loop per campaign super-step, one field
        # draw per team per round
        assert profile["wl.batch_commit"]["calls"] \
            == profile["rewl.fused_gather"]["calls"]
        assert profile["proposal.flip.fields"]["calls"] <= 2 * result.rounds
        cost = result.telemetry["cost"]
        assert "fused_gather" in cost["phases"]
        assert cost["phases"]["fused_gather"]["seconds"] > 0


class TestShmBitIdentity:
    def test_shm_matches_batched_serial(self):
        baseline = _driver("serial").run(max_rounds=60)
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
    their campaign-array rows must not move."""

    def _frozen_rows_unchanged(self, flag_list):
        drv = _driver("fused")
        drv.run(max_rounds=3)
        state = drv._engine.state
        flag_list(drv)[0] = True
        frozen = np.array(state.configs[state.rows(0)], copy=True)
        frozen_steps = np.array(state.slot_steps[0], copy=True)
        live_steps = np.array(state.slot_steps[1], copy=True)
        drv._advance_phase()
        np.testing.assert_array_equal(state.configs[state.rows(0)], frozen)
        np.testing.assert_array_equal(state.slot_steps[0], frozen_steps)
        assert (state.slot_steps[1] > live_steps).all()

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
        )
        assert state.rows(1) == slice(2, 4)

    def test_team_views_alias_campaign_arrays(self):
        drv = _driver("fused")
        state = drv._engine.state
        team = drv.walkers[1][0]
        assert np.shares_memory(team.configs, state.configs)
        assert np.shares_memory(team.ln_g, state.ln_g)
        team.ln_f = 0.125
        assert state.ln_f[1] == 0.125

    def test_pickled_team_owns_its_arrays(self):
        drv = _driver("fused")
        team = drv.walkers[0][0]
        clone = pickle.loads(pickle.dumps(team))
        assert isinstance(clone, FusedTeam)
        assert "_fused" not in clone.__dict__
        assert not np.shares_memory(clone.configs, team.configs)
        np.testing.assert_array_equal(clone.ln_g, team.ln_g)
        assert clone.ln_f == team.ln_f


class TestAutotune:
    def test_plan_campaign_fills_the_shape(self):
        plan = plan_campaign(n_bins=64, n_sites=256)
        assert isinstance(plan, CampaignPlan)
        assert plan.n_windows >= 1
        assert plan.walkers_per_window >= 1
        assert 0.1 <= plan.overlap <= 0.9

    def test_none_config_fields_resolved_at_construction(self):
        drv = _driver("fused", n_windows=None, walkers_per_window=None,
                      overlap=None)
        assert drv.cfg.n_windows >= 1
        assert drv.cfg.walkers_per_window >= 1
        assert drv.cfg.overlap is not None
        assert len(drv.windows) == drv.cfg.n_windows

    def test_explicit_fields_win_over_the_plan(self):
        drv = _driver("serial", n_windows=2, walkers_per_window=None,
                      overlap=0.6)
        assert drv.cfg.n_windows == 2
        assert drv.cfg.overlap == 0.6
        assert drv.cfg.walkers_per_window >= 1
