"""Tests for campaign self-healing (``repro.resilience``): numerical
guards, rollback/quarantine escalation, budgets, and the end-to-end chaos
acceptance — a permanently failing window degrades the campaign gracefully
and bit-identically reproducibly."""

import io
import os
import pickle
import types
from unittest import mock

import numpy as np
import pytest

from repro.experiments.common import estimate_energy_range, hea_system
from repro.faults import FAULTS_ENV_VAR
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.lattice.configuration import random_configuration
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import FlipProposal, SwapProposal
from repro.resilience import (
    RESILIENCE_ENV_VAR,
    BudgetPolicy,
    CampaignSupervisor,
    GuardPolicy,
    GuardViolation,
    ResilienceConfig,
    check_team,
    check_walker,
)
from repro.sampling import EnergyGrid

N_BINS = 8


class FakeWalker:
    """Minimal team-shaped object the guards accept (picklable)."""

    def __init__(self, n_bins=N_BINS, n_slots=3):
        self.grid = types.SimpleNamespace(n_bins=n_bins)
        self.ln_g = np.zeros(n_bins)
        self.histogram = np.zeros(n_bins, dtype=np.int64)
        self.visited = np.zeros(n_bins, dtype=bool)
        self.ln_f = 1.0
        self.energies = np.zeros(n_slots)
        self.bins = np.zeros(n_slots, dtype=np.int64)
        self.obs_tag = (0, None)


def fake_driver(n_windows=2):
    """Just enough driver surface for the supervisor: windows, walkers,
    quarantine flags, a round counter, and the retag hook."""
    return types.SimpleNamespace(
        windows=[None] * n_windows,
        walkers=[[FakeWalker()] for _ in range(n_windows)],
        window_quarantined=[False] * n_windows,
        rounds=0,
        _retag_window=lambda w: None,
        total_steps=lambda: 0,
    )


class TestGuards:
    def test_healthy_walker_passes(self):
        assert check_walker(FakeWalker()) == []

    def test_nan_ln_g_reports_first_bad_bin(self):
        w = FakeWalker()
        w.ln_g[3] = np.nan
        (violation,) = check_walker(w)
        assert "ln_g" in violation and "bin 3" in violation

    def test_inf_ln_g_detected(self):
        w = FakeWalker()
        w.ln_g[0] = np.inf
        assert any("ln_g" in v for v in check_walker(w))

    def test_ln_g_shape_mismatch(self):
        w = FakeWalker()
        w.ln_g = np.zeros(N_BINS + 1)
        assert any("shape" in v for v in check_walker(w))

    def test_negative_histogram(self):
        w = FakeWalker()
        w.histogram[2] = -1
        assert any("negative histogram" in v for v in check_walker(w))

    def test_histogram_overflow(self):
        w = FakeWalker()
        w.histogram[0] = np.int64(2) ** 62
        assert any("overflow" in v for v in check_walker(w))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_ln_f(self, bad):
        w = FakeWalker()
        w.ln_f = bad
        assert any("ln_f" in v for v in check_walker(w))

    def test_ln_f_monotone_check(self):
        w = FakeWalker()
        w.ln_f = 0.5
        assert check_walker(w, last_ln_f=0.5) == []  # equal is fine
        assert check_walker(w, last_ln_f=1.0) == []  # shrank: fine
        w.ln_f = 1.0
        assert any("grew" in v for v in check_walker(w, last_ln_f=0.5))

    def test_non_finite_energy(self):
        w = FakeWalker()
        w.energies[2] = float("inf")
        assert any("energy" in v for v in check_walker(w))

    def test_bin_out_of_range(self):
        w = FakeWalker()
        w.bins[1] = N_BINS
        assert any("bin" in v for v in check_walker(w))

    def test_batched_team_arrays_accepted(self):
        w = FakeWalker()
        w.bins = np.array([0, 1, N_BINS - 1])
        assert check_walker(w) == []
        w.energies[1] = np.nan
        assert any("energy" in v for v in check_walker(w))

    def test_check_team_reads_the_window_team(self):
        """``check_team`` takes a ``driver.walkers[w]`` entry: a one-element
        list holding the window's team."""
        team = FakeWalker()
        assert check_team([team]) == []
        team.ln_g[0] = np.nan
        assert check_team([team]) == check_walker(team)
        with pytest.raises(ValueError):
            check_team([team, FakeWalker()])

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="mode"):
            GuardPolicy(mode="explode")
        with pytest.raises(ValueError, match="max_rollbacks"):
            GuardPolicy(max_rollbacks=-1)
        with pytest.raises(ValueError, match="snapshot_interval"):
            GuardPolicy(snapshot_interval=0)


class TestParsing:
    def test_on_gives_defaults(self):
        cfg = ResilienceConfig.from_spec("1")
        assert cfg == ResilienceConfig()
        assert cfg.guards.mode == "quarantine" and cfg.budget.unlimited

    def test_key_value_spec(self):
        cfg = ResilienceConfig.from_spec("mode=rollback,rollbacks=3,wall=60,steps=5e8")
        assert cfg.guards.mode == "rollback"
        assert cfg.guards.max_rollbacks == 3
        assert cfg.budget.wall_s == 60.0
        assert cfg.budget.steps == 500_000_000

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="explode"):
            ResilienceConfig.from_spec("explode=1")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ResilienceConfig.from_spec("mode=panic")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="rounds"):
            ResilienceConfig.from_spec("rounds=lots")

    @pytest.mark.parametrize("value", ["", "0", "off", "false"])
    def test_env_disabled(self, monkeypatch, value):
        monkeypatch.setenv(RESILIENCE_ENV_VAR, value)
        assert ResilienceConfig.from_env() is None

    def test_env_enabled(self, monkeypatch):
        monkeypatch.setenv(RESILIENCE_ENV_VAR, "mode=strict,rounds=7")
        cfg = ResilienceConfig.from_env()
        assert cfg.guards.mode == "strict" and cfg.budget.rounds == 7

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="wall_s"):
            BudgetPolicy(wall_s=-1.0)
        with pytest.raises(ValueError, match="rounds"):
            BudgetPolicy(rounds=-1)


class TestSupervisorEscalation:
    def _supervisor(self, driver, mode="quarantine", max_rollbacks=2, **budget):
        sup = CampaignSupervisor(ResilienceConfig(
            guards=GuardPolicy(mode=mode, max_rollbacks=max_rollbacks),
            budget=BudgetPolicy(**budget),
        ))
        sup.bind(driver)
        sup.snapshot(driver)  # round-0 baseline
        return sup

    def test_rollback_restores_snapshot(self):
        driver = fake_driver()
        sup = self._supervisor(driver)
        driver.walkers[0][0].ln_g[4] = np.nan
        sup.guard_round(driver)
        assert np.isfinite(driver.walkers[0][0].ln_g).all()  # restored
        state = sup.windows[0]
        assert state.disposition == "rolled-back"
        assert state.rollbacks == 1 and state.guard_trips == 1
        assert not sup.degraded

    def test_clean_round_forgives_the_streak(self):
        driver = fake_driver()
        sup = self._supervisor(driver)
        driver.walkers[0][0].ln_g[4] = np.nan
        sup.guard_round(driver)  # trip -> rollback (streak 1)
        sup.guard_round(driver)  # clean round
        state = sup.windows[0]
        assert state.rollback_streak == 0
        assert state.disposition == "healthy"
        assert state.rollbacks == 1  # lifetime total sticks

    def test_persistent_corruption_quarantines(self):
        driver = fake_driver()
        sup = self._supervisor(driver, max_rollbacks=2)
        for _ in range(3):  # corrupt anew after every restore
            driver.walkers[0][0].ln_g[4] = np.nan
            sup.guard_round(driver)
        state = sup.windows[0]
        assert state.disposition == "quarantined"
        assert driver.window_quarantined == [True, False]
        assert sup.quarantined == [0] and sup.degraded
        # Quarantine froze the window at its last good snapshot.
        assert np.isfinite(driver.walkers[0][0].ln_g).all()

    def test_task_failure_does_not_count_as_clean(self):
        """A rolled-back window passes the guards, but the rollback streak
        must survive the same round's guard pass — else a permanently
        failing window never escalates."""
        driver = fake_driver()
        sup = self._supervisor(driver, max_rollbacks=1)
        sup.on_window_failure(driver, 0, RuntimeError("boom"))
        sup.guard_round(driver)  # restored state is guard-clean
        assert sup.windows[0].rollback_streak == 1
        sup.on_window_failure(driver, 0, RuntimeError("boom"))
        assert sup.windows[0].disposition == "quarantined"
        assert sup.windows[0].task_failures == 2

    def test_strict_mode_raises(self):
        driver = fake_driver()
        sup = self._supervisor(driver, mode="strict")
        driver.walkers[0][0].ln_g[4] = np.nan
        with pytest.raises(GuardViolation, match="strict"):
            sup.guard_round(driver)

    def test_rollback_mode_exhaustion_raises(self):
        driver = fake_driver()
        sup = self._supervisor(driver, mode="rollback", max_rollbacks=1)
        driver.walkers[0][0].ln_g[4] = np.nan
        sup.guard_round(driver)
        driver.walkers[0][0].ln_g[4] = np.nan
        with pytest.raises(GuardViolation, match="rollback budget"):
            sup.guard_round(driver)

    def test_rounds_budget(self):
        driver = fake_driver()
        sup = self._supervisor(driver, rounds=3)
        driver.rounds = 2
        assert not sup.budget_exceeded(driver)
        driver.rounds = 3
        assert sup.budget_exceeded(driver)
        assert sup.budget_status["exhausted"]
        assert "rounds" in sup.budget_status["trigger"]
        assert sup.degraded

    def test_steps_budget(self):
        driver = fake_driver()
        driver.total_steps = lambda: 1_000
        sup = self._supervisor(driver, steps=500)
        assert sup.budget_exceeded(driver)
        assert "steps" in sup.budget_status["trigger"]

    def test_budget_is_sticky(self):
        driver = fake_driver()
        sup = self._supervisor(driver, rounds=1)
        driver.rounds = 1
        assert sup.budget_exceeded(driver)
        driver.rounds = 0  # even if the trigger condition goes away
        assert sup.budget_exceeded(driver)

    def test_unlimited_budget_never_triggers(self):
        driver = fake_driver()
        sup = self._supervisor(driver)
        driver.rounds = 10 ** 9
        assert not sup.budget_exceeded(driver)

    def test_summary_and_dispositions(self):
        driver = fake_driver()
        sup = self._supervisor(driver, max_rollbacks=0)
        driver.walkers[1][0].histogram[0] = -5
        sup.guard_round(driver)
        summary = sup.summary()
        assert summary["degraded"] and summary["quarantined"] == [1]
        assert summary["guard_trips"] == 1
        rows = {row["window"]: row for row in summary["windows"]}
        assert rows[0]["disposition"] == "healthy"
        assert rows[1]["disposition"] == "quarantined"
        assert "histogram" in rows[1]["reason"]
        assert all("last_ln_f" not in row for row in summary["windows"])

    def test_state_dict_round_trip(self):
        driver = fake_driver()
        sup = self._supervisor(driver, max_rollbacks=0, rounds=5)
        driver.walkers[0][0].ln_g[1] = np.nan
        sup.guard_round(driver)
        driver.rounds = 5
        sup.budget_exceeded(driver)

        clone = CampaignSupervisor(sup.cfg)
        clone.load_state_dict(sup.state_dict())
        assert clone.quarantined == [0]
        assert clone.budget_status == sup.budget_status
        assert clone.windows[0].as_dict() == sup.windows[0].as_dict()


# --------------------------------------------------------------- end-to-end


@pytest.fixture(scope="module")
def ising():
    return IsingHamiltonian(square_lattice(4))


@pytest.fixture(scope="module")
def grid(ising):
    return EnergyGrid.from_levels(ising.energy_levels())


def chaos_run(ising, grid, faults=None, resilience=None,
              seed=21, n_windows=4, overlap=0.4, max_rounds=300, **cfg_kwargs):
    """One campaign, with ``faults`` (a ``REPRO_FAULTS`` spec) armed."""
    defaults = dict(
        n_windows=n_windows, walkers_per_window=1, overlap=overlap,
        exchange_interval=400, ln_f_final=5e-3, seed=seed,
    )
    defaults.update(cfg_kwargs)
    env = {FAULTS_ENV_VAR: faults} if faults is not None else {}
    with mock.patch.dict(os.environ, env):
        driver = REWLDriver(
            hamiltonian=ising, proposal_factory=lambda: FlipProposal(),
            grid=grid, initial_config=np.zeros(16, dtype=np.int8),
            config=REWLConfig(**defaults), resilience=resilience,
        )
        return driver.run(max_rounds=max_rounds)


class TestREWLGracefulDegradation:
    """The acceptance criterion: one permanently failing window, and the
    campaign still completes — degraded, explicit, and reproducible."""

    @pytest.fixture(scope="class")
    def dead_window(self, ising, grid):
        # Window 1's advance tasks crash on every attempt, forever.
        return chaos_run(
            ising, grid,
            faults="crash=1.0,window=1,seed=0",
            resilience=ResilienceConfig(
                guards=GuardPolicy(mode="quarantine", max_rollbacks=1)
            ),
        )

    def test_campaign_completes_degraded(self, dead_window):
        res = dead_window
        assert res.degraded
        assert res.quarantined == [1]
        assert not res.converged  # window 1 never converged
        rows = {row["window"]: row for row in res.window_dispositions}
        assert rows[1]["disposition"] == "quarantined"
        assert rows[1]["task_failures"] > 0
        assert "task failure" in rows[1]["reason"]
        # The survivors actually converged.
        healthy = [w for w in range(len(res.windows)) if w != 1]
        assert all(rows[w]["disposition"] == "healthy" for w in healthy)

    def test_partial_stitch_records_the_hole(self, dead_window):
        stitched = dead_window.stitched()
        assert stitched.skipped == [1]
        assert not stitched.complete
        # Windows 0 and 2 don't overlap at this geometry: a real coverage
        # gap between window 0's hi bin and window 2's lo bin.
        lo = dead_window.windows[0].hi_bin + 1
        hi = dead_window.windows[2].lo_bin - 1
        assert (lo, hi) in stitched.coverage_gaps
        assert len(stitched.segments) == 2
        # Survivor data is still there on both sides of the hole.
        assert stitched.visited[: lo].any() and stitched.visited[hi + 1:].any()
        assert not stitched.visited[lo: hi + 1].any()

    def test_degraded_run_is_bit_identical(self, ising, grid, dead_window):
        rerun = chaos_run(
            ising, grid,
            faults="crash=1.0,window=1,seed=0",
            resilience=ResilienceConfig(
                guards=GuardPolicy(mode="quarantine", max_rollbacks=1)
            ),
        )
        assert rerun.rounds == dead_window.rounds
        assert rerun.quarantined == dead_window.quarantined
        for a, b in zip(dead_window.window_ln_g, rerun.window_ln_g):
            assert np.array_equal(a, b)
        assert np.array_equal(
            dead_window.stitched().ln_g, rerun.stitched().ln_g
        )

    def test_telemetry_carries_resilience_summary(self, dead_window):
        summary = dead_window.telemetry["resilience"]
        assert summary["degraded"] and summary["quarantined"] == [1]
        assert summary["mode"] == "quarantine"

    def test_nan_poison_caught_and_quarantined(self, ising, grid):
        """Silent ln g corruption (nothing raises) is caught by the guards
        and escalates to quarantine; survivors re-pair around the hole."""
        res = chaos_run(
            ising, grid,
            faults="nan=1.0,window=1,seed=0",
            resilience=ResilienceConfig(
                guards=GuardPolicy(mode="quarantine", max_rollbacks=1)
            ),
            n_windows=3, overlap=0.6,
        )
        assert res.degraded and res.quarantined == [1]
        rows = {row["window"]: row for row in res.window_dispositions}
        assert rows[1]["guard_trips"] > 0
        assert "guard" in rows[1]["reason"]
        # At overlap 0.6 windows 0 and 2 still overlap: the re-paired
        # topology keeps exchanging and the partial stitch is one segment.
        stitched = res.stitched()
        assert stitched.skipped == [1]
        assert len(stitched.segments) == 1 and not stitched.coverage_gaps
        assert not stitched.complete  # skipped windows always mark it

    def test_strict_mode_aborts_on_poison(self, ising, grid):
        with pytest.raises(GuardViolation, match="strict"):
            chaos_run(
                ising, grid,
                faults="nan=1.0,window=0,seed=0",
                resilience=ResilienceConfig(guards=GuardPolicy(mode="strict")),
                n_windows=2, overlap=0.5, max_rounds=10,
            )

    def test_guarded_clean_run_is_bit_identical_to_unguarded(self, ising, grid):
        """Guards that never trip must not change a single bit."""
        plain = chaos_run(ising, grid, n_windows=2, overlap=0.5, seed=33,
                          max_rounds=50)
        guarded = chaos_run(
            ising, grid, n_windows=2, overlap=0.5, seed=33, max_rounds=50,
            resilience=ResilienceConfig(guards=GuardPolicy(mode="quarantine")),
        )
        assert not guarded.degraded
        assert guarded.rounds == plain.rounds
        for a, b in zip(plain.window_ln_g, guarded.window_ln_g):
            assert np.array_equal(a, b)
        assert np.array_equal(plain.exchange_accepts, guarded.exchange_accepts)

    def test_rounds_budget_terminates_and_harvests(self, ising, grid):
        res = chaos_run(
            ising, grid, n_windows=2, overlap=0.5,
            resilience=ResilienceConfig(budget=BudgetPolicy(rounds=3)),
            ln_f_final=1e-12,  # would run forever without the budget
        )
        assert res.rounds == 3
        assert res.degraded and not res.converged
        budget = res.telemetry["resilience"]["budget"]
        assert budget["exhausted"] and "rounds" in budget["trigger"]
        # The harvest still carries the partial ln g data.
        assert any(v.any() for v in res.window_visited)

    def test_steps_budget_terminates(self, ising, grid):
        res = chaos_run(
            ising, grid, n_windows=2, overlap=0.5,
            resilience=ResilienceConfig(budget=BudgetPolicy(steps=100)),
            ln_f_final=1e-12,
        )
        assert res.rounds == 1  # first loop-top check after round 1 trips
        assert "steps" in res.telemetry["resilience"]["budget"]["trigger"]

    def test_env_knob_activates_supervisor(self, ising, grid, monkeypatch):
        monkeypatch.setenv(RESILIENCE_ENV_VAR, "rounds=2")
        res = chaos_run(ising, grid, n_windows=2, overlap=0.5,
                        ln_f_final=1e-12)
        assert res.rounds == 2 and res.degraded


class TestSlimSnapshots:
    """Rollback snapshots copy walker state, not the driver's Hamiltonian."""

    @pytest.fixture(scope="class", params=["fused", "shm"])
    def alloy_rollback(self, request):
        """An NbMoTaW campaign whose window 1 is poisoned every round: it is
        rolled back once, then quarantined (restored again)."""
        ham, counts = hea_system(3)
        e_lo, e_hi = estimate_energy_range(ham, counts, rng=0, margin=0.10)
        # whole-meV levels, half-meV bin edges: no level on a window edge
        lo = np.floor(e_lo * 1000) - 0.5
        width = np.ceil((e_hi * 1000 - lo) / 16)
        grid = EnergyGrid.uniform(lo / 1000, (lo + 16 * width) / 1000, 16)
        with mock.patch.dict(os.environ,
                             {FAULTS_ENV_VAR: "nan=1.0,window=1,seed=0"}):
            driver = REWLDriver(
                hamiltonian=ham, proposal_factory=SwapProposal, grid=grid,
                initial_config=random_configuration(ham.n_sites, counts, rng=0),
                config=REWLConfig(n_windows=2, walkers_per_window=4,
                                  overlap=0.6, exchange_interval=100, seed=3,
                                  backend=request.param),
                resilience=ResilienceConfig(
                    guards=GuardPolicy(mode="quarantine", max_rollbacks=1)
                ),
            )
            try:
                result = driver.run(max_rounds=4)
            except BaseException:
                driver.close()
                raise
        try:
            yield driver, result
        finally:
            driver.close()

    def test_a_restored_team_shares_the_drivers_hamiltonian(
            self, alloy_rollback):
        driver, result = alloy_rollback
        assert driver.supervisor.summary()["rollbacks"] >= 1
        assert result.quarantined == [1]
        assert driver.walkers[1][0].hamiltonian is driver.hamiltonian

    def test_a_snapshot_holds_no_copy_of_the_hamiltonian(self, alloy_rollback):
        driver, _ = alloy_rollback
        slim = driver.supervisor._snapshots[1]  # what window 1 was restored to
        refs = []

        def persistent_load(pid):
            refs.append(pid)
            return driver.hamiltonian

        unpickler = pickle.Unpickler(io.BytesIO(slim))
        unpickler.persistent_load = persistent_load
        unpickler.load()
        assert refs == ["hamiltonian"]
        full = pickle.dumps(driver.walkers[1], pickle.HIGHEST_PROTOCOL)
        ham = pickle.dumps(driver.hamiltonian, pickle.HIGHEST_PROTOCOL)
        # The full pickle names a few module globals (numpy's array
        # constructors) once for the team and the Hamiltonian together; a
        # standalone Hamiltonian pickle names them again.
        assert len(full) - len(slim) >= len(ham) - 256
        assert len(slim) < len(ham) / 4
