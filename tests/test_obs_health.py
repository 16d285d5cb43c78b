"""Tests for repro.obs.health: heartbeats, detectors, and the determinism
contract of a profiled + monitored REWL run."""

import numpy as np
import pytest

from repro.faults import FAULTS_ENV_VAR
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.obs import EventLog, Instrumentation, MemorySink, Telemetry
from repro.obs.health import (
    ALERT_KIND,
    HEARTBEAT_KIND,
    HealthConfig,
    HealthMonitor,
    health_from_env,
    parse_health,
    team_flatness_ratio,
)
from repro.obs.profile import SectionProfiler
from repro.obs.report import render_report
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import FlipProposal
from repro.sampling import EnergyGrid


def _driver(telemetry=None, **kwargs):
    ham = IsingHamiltonian(square_lattice(4))
    grid = EnergyGrid.from_levels(ham.energy_levels())
    inst = Instrumentation(telemetry=telemetry, **{
        k: kwargs.pop(k)
        for k in ("profiler", "health", "convergence", "timeseries")
        if k in kwargs
    })
    return REWLDriver(
        hamiltonian=ham, proposal_factory=lambda: FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                   exchange_interval=200, ln_f_final=5e-2, seed=11),
        instrumentation=inst, **kwargs,
    )


def _memory_telemetry():
    sink = MemorySink()
    tel = Telemetry(events=EventLog(run_id="t", sinks=[sink]))
    return tel, sink


class _FakeWalker:
    def __init__(self, histogram, ln_f=0.5, n_iterations=0, n_steps=0):
        self.histogram = np.asarray(histogram, dtype=np.int64)
        self.visited = self.histogram > 0
        self.ln_f = ln_f
        self.n_iterations = n_iterations
        self.n_steps = n_steps


class _FakeDriver:
    """Minimal driver surface the monitor reads; nothing ever progresses."""

    def __init__(self, n_windows=2, pairs=1):
        self.rounds = 0
        self.walkers = [[_FakeWalker([5, 5, 5])] for _ in range(n_windows)]
        self.window_converged = [False] * n_windows
        self.exchange_attempts = np.zeros(pairs, dtype=np.int64)
        self.exchange_accepts = np.zeros(pairs, dtype=np.int64)


class TestConfigParsing:
    def test_defaults_validate(self):
        HealthConfig()

    @pytest.mark.parametrize("field,value", [
        ("heartbeat_rounds", 0), ("stall_heartbeats", 0),
        ("min_exchange_rate", 1.5), ("retry_alert", 0),
        ("flatness_epsilon", -1.0),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            HealthConfig(**{field: value})

    def test_parse_enabled_and_keys(self):
        assert parse_health("1") == HealthConfig()
        cfg = parse_health("rounds=20,stall=5,min_rate=0.02,retries=3")
        assert cfg.heartbeat_rounds == 20
        assert cfg.stall_heartbeats == 5
        assert cfg.min_exchange_rate == pytest.approx(0.02)
        assert cfg.retry_alert == 3

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="REPRO_HEALTH"):
            parse_health("bogus=1")

    def test_health_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEALTH", raising=False)
        assert health_from_env() is None
        monkeypatch.setenv("REPRO_HEALTH", "rounds=7")
        assert health_from_env().heartbeat_rounds == 7


class TestFlatnessRatio:
    def test_unvisited_team_is_zero(self):
        assert team_flatness_ratio([_FakeWalker([0, 0])]) == 0.0

    def test_flat_histogram_is_one(self):
        assert team_flatness_ratio([_FakeWalker([4, 4, 4])]) == pytest.approx(1.0)

    def test_worst_walker_wins(self):
        team = [_FakeWalker([4, 4]), _FakeWalker([1, 7])]
        assert team_flatness_ratio(team) == pytest.approx(1 / 4)

    def test_lone_walker_object_accepted(self):
        # A bare walker (not wrapped in a list) is treated as a 1-team.
        assert team_flatness_ratio(_FakeWalker([4, 4])) == pytest.approx(1.0)

    def test_batched_team_slot_arrays(self):
        # One BatchedWangLandauSampler-style object holding K walker slots
        # as 2-D (K, n_bins) arrays: the worst slot wins.
        batched = _FakeWalker([4, 4])
        batched.histogram = np.array([[4, 4], [1, 7]], dtype=np.int64)
        batched.visited = batched.histogram > 0
        assert team_flatness_ratio([batched]) == pytest.approx(1 / 4)

    def test_batched_team_on_real_sampler(self):
        from repro.hamiltonians import IsingHamiltonian as _Ham
        from repro.sampling import BatchedWangLandauSampler, WLConfig

        ham = _Ham(square_lattice(4))
        grid = EnergyGrid.from_levels(ham.energy_levels())
        team = BatchedWangLandauSampler(
            hamiltonian=ham, proposal=FlipProposal(), grid=grid,
            initial_config=np.zeros(16, dtype=np.int8), rng=2,
            config=WLConfig(batch_size=3))
        team.run(max_steps=400)
        ratio = team_flatness_ratio([team])
        assert 0.0 <= ratio <= 1.0
        # Matches the worst equivalent per-slot scalar computation.
        per_slot = []
        for hist, vis in zip(np.atleast_2d(team.histogram),
                             np.atleast_2d(team.visited)):
            counts = hist[vis]
            per_slot.append(counts.min() / counts.mean() if counts.size else 0.0)
        assert ratio == pytest.approx(min(per_slot))


class TestDetectors:
    def test_heartbeat_cadence_and_fields(self):
        tel, sink = _memory_telemetry()
        mon = HealthMonitor(tel, HealthConfig(heartbeat_rounds=2))
        fake = _FakeDriver()
        for r in range(1, 7):
            fake.rounds = r
            mon.observe_round(fake)
        beats = [r for r in sink.records if r["kind"] == HEARTBEAT_KIND]
        assert len(beats) == 3  # rounds 2, 4, 6
        hb = beats[-1]
        assert {w["window"] for w in hb["windows"]} == {0, 1}
        assert hb["pairs"][0]["pair"] == 0
        assert mon.heartbeats == 3

    def test_stall_fires_after_n_flat_heartbeats(self):
        tel, sink = _memory_telemetry()
        mon = HealthMonitor(
            tel, HealthConfig(heartbeat_rounds=1, stall_heartbeats=3))
        fake = _FakeDriver()
        for r in range(1, 6):
            fake.rounds = r
            mon.observe_round(fake)
        stalls = [a for a in mon.alerts if a["alert"] == "stall"]
        # Baseline beat + 3 stalled beats -> first alert at heartbeat 4,
        # repeated while the stall persists.
        assert stalls and stalls[0]["round"] == 4
        assert any(r["kind"] == ALERT_KIND for r in sink.records)

    def test_progress_resets_stall_streak(self):
        tel, _ = _memory_telemetry()
        mon = HealthMonitor(
            tel, HealthConfig(heartbeat_rounds=1, stall_heartbeats=2))
        fake = _FakeDriver()
        for r in range(1, 6):
            fake.rounds = r
            fake.walkers[0][0].n_iterations = r  # advances every beat
            mon.observe_round(fake)
        assert not mon.alerts

    def test_converged_run_never_stalls(self):
        tel, _ = _memory_telemetry()
        mon = HealthMonitor(
            tel, HealthConfig(heartbeat_rounds=1, stall_heartbeats=1))
        fake = _FakeDriver()
        fake.window_converged = [True, True]
        for r in range(1, 5):
            fake.rounds = r
            mon.observe_round(fake)
        assert not mon.alerts

    def test_exchange_collapse_needs_attempts_and_persistence(self):
        tel, _ = _memory_telemetry()
        mon = HealthMonitor(tel, HealthConfig(
            heartbeat_rounds=1, stall_heartbeats=2,
            min_exchange_rate=0.05, min_exchange_attempts=4))
        fake = _FakeDriver()
        for r in range(1, 4):
            fake.rounds = r
            fake.walkers[0][0].n_iterations = r  # keep the stall detector quiet
            fake.exchange_attempts += 10        # attempts grow, accepts do not
            mon.observe_round(fake)
        collapses = [a for a in mon.alerts if a["alert"] == "exchange_collapse"]
        assert collapses and collapses[0]["pair"] == 0

    def test_retry_burst(self):
        tel, _ = _memory_telemetry()
        mon = HealthMonitor(
            tel, HealthConfig(heartbeat_rounds=1, retry_alert=2))
        fake = _FakeDriver()
        fake.rounds = 1
        tel.metrics.inc("task.retries", 3)
        mon.observe_round(fake)
        bursts = [a for a in mon.alerts if a["alert"] == "retry_burst"]
        assert bursts and bursts[0]["retries"] == 3
        # Delta resets: no new retries -> no new alert.
        fake.rounds = 2
        fake.walkers[0][0].n_iterations = 1
        mon.observe_round(fake)
        assert len([a for a in mon.alerts if a["alert"] == "retry_burst"]) == 1

    def test_heartbeat_interval_uses_monotonic_clock(self, monkeypatch):
        """Interval/throughput math reads time.monotonic, never time.time:
        a wall-clock jump between heartbeats must not distort them."""
        import time as time_mod

        mono = iter([100.0, 102.0])
        monkeypatch.setattr(time_mod, "monotonic", lambda: next(mono))
        # Wall clock jumps a day backwards between the two heartbeats (NTP
        # step); reading it would give a negative interval.
        wall = iter([1e9, 1e9 - 86400.0] + [1e9] * 50)
        monkeypatch.setattr(time_mod, "time", lambda: next(wall))
        tel, sink = _memory_telemetry()
        mon = HealthMonitor(tel, HealthConfig(heartbeat_rounds=1))
        fake = _FakeDriver()
        fake.rounds = 1
        mon.observe_round(fake)
        fake.rounds = 2
        fake.walkers[0][0].n_steps = 500
        fake.walkers[0][0].n_iterations = 1
        mon.observe_round(fake)
        beats = [r for r in sink.records if r["kind"] == HEARTBEAT_KIND]
        assert beats[0]["interval_s"] is None  # no baseline yet
        assert beats[1]["interval_s"] == pytest.approx(2.0)
        assert beats[1]["steps_per_s"] == pytest.approx(500 / 2.0)
        # The envelope ts *is* wall time (log correlation), jump and all.
        assert beats[0]["ts"] == 1e9
        assert beats[1]["ts"] == 1e9 - 86400.0

    def test_summary_is_json_ready(self):
        import json

        tel, _ = _memory_telemetry()
        mon = HealthMonitor(tel, HealthConfig(heartbeat_rounds=1))
        fake = _FakeDriver()
        fake.rounds = 1
        mon.observe_round(fake)
        json.dumps(mon.summary())


class TestMonitoredRewl:
    def test_monitored_run_records_heartbeats(self):
        tel, sink = _memory_telemetry()
        driver = _driver(telemetry=tel,
                         health=HealthConfig(heartbeat_rounds=2))
        res = driver.run(max_rounds=40)
        assert res.telemetry["health"]["heartbeats"] >= 1
        assert any(r["kind"] == HEARTBEAT_KIND for r in sink.records)

    def test_profiled_monitored_run_is_bit_identical(self):
        """Acceptance: profiling + health monitoring leave the DoS, the
        histograms, and every walker RNG stream bit-for-bit unchanged."""
        plain = _driver()
        plain_res = plain.run(max_rounds=60)

        tel, _ = _memory_telemetry()
        inst = _driver(telemetry=tel,
                       profiler=SectionProfiler(sample_every=4),
                       health=HealthConfig(heartbeat_rounds=3))
        inst_res = inst.run(max_rounds=60)

        assert inst_res.rounds == plain_res.rounds
        assert inst_res.total_steps == plain_res.total_steps
        for a, b in zip(inst_res.window_ln_g, plain_res.window_ln_g):
            assert np.array_equal(a, b)
        for team_a, team_b in zip(inst.walkers, plain.walkers):
            for wa, wb in zip(team_a, team_b):
                assert np.array_equal(wa.histogram, wb.histogram)
                assert np.array_equal(wa.ln_g, wb.ln_g)
                assert (wa.rng.bit_generator.state
                        == wb.rng.bit_generator.state)
        # And the instrumented run actually measured something.
        profile = inst_res.telemetry["profile"]
        assert profile["proposal.flip.fields"]["calls"] > 0
        assert inst_res.telemetry["health"]["heartbeats"] > 0

    def test_injected_hang_raises_health_alert_in_trace_and_report(
            self, monkeypatch):
        """Acceptance: a run with injected hangs from repro.faults surfaces
        a health alert, visible in the trace and the obs report digest."""
        monkeypatch.setenv(FAULTS_ENV_VAR, "hang=0.4,hang_s=0.0,seed=5")
        tel, sink = _memory_telemetry()
        driver = _driver(
            telemetry=tel,
            health=HealthConfig(heartbeat_rounds=1, retry_alert=1))
        res = driver.run(max_rounds=30)

        alerts = res.telemetry["health"]["alerts"]
        assert any(a["alert"] == "retry_burst" for a in alerts)
        assert any(r["kind"] == ALERT_KIND for r in sink.records)

        report = render_report(sink.records)
        assert "run health:" in report
        assert "retry_burst" in report
