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
)
from repro.obs.convergence import ConvergenceConfig
from repro.obs.profile import SectionProfiler
from repro.obs.timeseries import TimeSeriesConfig
from repro.obs.sample import RoundSample, WindowSample
from repro.obs.report import render_report
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import FlipProposal
from repro.sampling import EnergyGrid


def _driver(telemetry=None, backend="fused", **kwargs):
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
                   exchange_interval=200, ln_f_final=5e-2, seed=11,
                   backend=backend),
        instrumentation=inst, **kwargs,
    )


def _memory_telemetry():
    sink = MemorySink()
    tel = Telemetry(events=EventLog(run_id="t", sinks=[sink]))
    return tel, sink


def _sample(rounds, *, iterations=(0, 0), flatness=(1.0, 1.0),
            converged=(False, False), attempts=(0,), accepts=(0,),
            retries=0, steps=0, mono=0.0):
    """A constructed round record: nothing progresses unless told to."""
    windows = tuple(
        WindowSample(window=w, ln_f=0.5, iteration=it, flatness=flat,
                     fill=1.0, converged=conv, quarantined=False,
                     ln_g=np.zeros(3), visited=np.ones(3, dtype=bool))
        for w, (it, flat, conv) in enumerate(
            zip(iterations, flatness, converged))
    )
    return RoundSample(round=rounds, mono=mono, wall=0.0, steps=steps,
                       windows=windows, exchange_attempts=tuple(attempts),
                       exchange_accepts=tuple(accepts), retries=retries)


class _Rounds:
    """The whole driver surface an observer may touch: the round counter
    and the round record."""

    def __init__(self):
        self.rounds = 0
        self.built = []

    def round_sample(self):
        self.built.append(self.rounds)
        return _sample(self.rounds)


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
        assert HealthConfig.from_spec("1") == HealthConfig()
        cfg = HealthConfig.from_spec("rounds=20,stall=5,min_rate=0.02,retries=3")
        assert cfg.heartbeat_rounds == 20
        assert cfg.stall_heartbeats == 5
        assert cfg.min_exchange_rate == pytest.approx(0.02)
        assert cfg.retry_alert == 3

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="REPRO_HEALTH"):
            HealthConfig.from_spec("bogus=1")

    def test_health_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEALTH", raising=False)
        assert HealthConfig.from_env() is None
        monkeypatch.setenv("REPRO_HEALTH", "rounds=7")
        assert HealthConfig.from_env().heartbeat_rounds == 7


def _team(batch_size=3):
    from repro.sampling import BatchedWangLandauSampler, WLConfig

    ham = IsingHamiltonian(square_lattice(4))
    grid = EnergyGrid.from_levels(ham.energy_levels())
    return BatchedWangLandauSampler(
        hamiltonian=ham, proposal=FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8), rng=2,
        config=WLConfig(batch_size=batch_size))


class TestFlatnessRatio:
    """The flatness a round record carries is the window team's
    ``flatness_fraction``: min/mean of its one shared visit histogram over
    visited bins."""

    def test_unvisited_team_is_zero(self):
        team = _team()
        team.visited[:] = False
        assert team.flatness_fraction() == 0.0

    def test_flat_histogram_is_one(self):
        team = _team()
        team.histogram[:] = 4
        team.visited[:] = True
        assert team.flatness_fraction() == pytest.approx(1.0)

    def test_batched_team_on_real_sampler(self):
        team = _team()
        team.run(max_steps=400)
        counts = team.histogram[team.visited]
        assert team.flatness_fraction() == pytest.approx(
            counts.min() / counts.mean())

    def test_round_record_carries_team_flatness_and_fill(self):
        driver = _driver()
        driver.run(max_rounds=3)
        sample = driver.round_sample()
        for (team,), win in zip(driver.walkers, sample.windows):
            assert win.flatness == team.flatness_fraction()
            assert win.fill == team.fill_fraction()
            assert win.ln_f == team.ln_f
            assert win.iteration == team.n_iterations


class TestDetectors:
    def test_heartbeat_cadence_and_fields(self):
        tel, sink = _memory_telemetry()
        mon = HealthMonitor(tel, HealthConfig(heartbeat_rounds=2))
        fake = _Rounds()
        for r in range(1, 7):
            fake.rounds = r
            mon.observe_round(fake)
        # Off-stride rounds build no record at all.
        assert fake.built == [2, 4, 6]
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
        for r in range(1, 6):
            mon.consume(_sample(r))
        stalls = [a for a in mon.alerts if a["alert"] == "stall"]
        # Baseline beat + 3 stalled beats -> first alert at heartbeat 4,
        # repeated while the stall persists.
        assert stalls and stalls[0]["round"] == 4
        assert any(r["kind"] == ALERT_KIND for r in sink.records)

    def test_progress_resets_stall_streak(self):
        tel, _ = _memory_telemetry()
        mon = HealthMonitor(
            tel, HealthConfig(heartbeat_rounds=1, stall_heartbeats=2))
        for r in range(1, 6):
            mon.consume(_sample(r, iterations=(r, 0)))  # advances every beat
        assert not mon.alerts

    def test_converged_run_never_stalls(self):
        tel, _ = _memory_telemetry()
        mon = HealthMonitor(
            tel, HealthConfig(heartbeat_rounds=1, stall_heartbeats=1))
        for r in range(1, 5):
            mon.consume(_sample(r, converged=(True, True)))
        assert not mon.alerts

    def test_exchange_collapse_needs_attempts_and_persistence(self):
        tel, _ = _memory_telemetry()
        mon = HealthMonitor(tel, HealthConfig(
            heartbeat_rounds=1, stall_heartbeats=2,
            min_exchange_rate=0.05, min_exchange_attempts=4))
        for r in range(1, 4):
            # Iterations advance (the stall detector stays quiet); attempts
            # grow, accepts do not.
            mon.consume(_sample(r, iterations=(r, 0), attempts=(10 * r,)))
        collapses = [a for a in mon.alerts if a["alert"] == "exchange_collapse"]
        assert collapses and collapses[0]["pair"] == 0

    def test_retry_burst(self):
        tel, _ = _memory_telemetry()
        mon = HealthMonitor(
            tel, HealthConfig(heartbeat_rounds=1, retry_alert=2))
        mon.consume(_sample(1, retries=3))
        bursts = [a for a in mon.alerts if a["alert"] == "retry_burst"]
        assert bursts and bursts[0]["retries"] == 3
        # Delta resets: no new retries -> no new alert.
        mon.consume(_sample(2, iterations=(1, 0), retries=3))
        assert len([a for a in mon.alerts if a["alert"] == "retry_burst"]) == 1

    def test_heartbeat_interval_uses_monotonic_clock(self, monkeypatch):
        """Interval/throughput math reads the records' monotonic stamps,
        never the wall clock: a wall-clock jump between heartbeats must not
        distort them."""
        import time as time_mod

        # Wall clock jumps a day backwards between the two heartbeats (NTP
        # step); reading it would give a negative interval.
        wall = iter([1e9, 1e9 - 86400.0] + [1e9] * 50)
        monkeypatch.setattr(time_mod, "time", lambda: next(wall))
        tel, sink = _memory_telemetry()
        mon = HealthMonitor(tel, HealthConfig(heartbeat_rounds=1))
        mon.consume(_sample(1, mono=100.0))
        mon.consume(_sample(2, iterations=(1, 0), steps=500, mono=102.0))
        beats = [r for r in sink.records if r["kind"] == HEARTBEAT_KIND]
        assert beats[0]["interval_s"] is None  # no baseline yet
        assert beats[1]["interval_s"] == pytest.approx(2.0)
        assert beats[1]["steps_per_s"] == pytest.approx(500 / 2.0)
        # The envelope ts *is* wall time (log correlation), jump and all.
        assert beats[0]["ts"] == 1e9
        assert beats[1]["ts"] == 1e9 - 86400.0

    def test_records_are_stamped_on_the_monotonic_clock(self, monkeypatch):
        import time as time_mod

        driver = _driver()
        monkeypatch.setattr(time_mod, "monotonic", lambda: 123.0)
        assert driver.round_sample().mono == 123.0

    def test_summary_is_json_ready(self):
        import json

        tel, _ = _memory_telemetry()
        mon = HealthMonitor(tel, HealthConfig(heartbeat_rounds=1))
        mon.consume(_sample(1))
        json.dumps(mon.summary())


class TestMonitoredRewl:
    def test_monitored_run_records_heartbeats(self):
        tel, sink = _memory_telemetry()
        driver = _driver(telemetry=tel,
                         health=HealthConfig(heartbeat_rounds=2))
        res = driver.run(max_rounds=40)
        assert res.telemetry["health"]["heartbeats"] >= 1
        assert any(r["kind"] == HEARTBEAT_KIND for r in sink.records)

    @pytest.mark.parametrize("backend", ["fused", "shm"])
    def test_profiled_monitored_run_is_bit_identical(self, backend):
        """Acceptance: profiling plus every round observer, on either
        backend, leave the DoS, the histograms, and every walker RNG stream
        bit-for-bit equal to a bare in-process run."""
        plain = _driver()
        plain_res = plain.run(max_rounds=60)

        tel, _ = _memory_telemetry()
        inst = _driver(telemetry=tel, backend=backend,
                       profiler=SectionProfiler(sample_every=4),
                       health=HealthConfig(heartbeat_rounds=3),
                       convergence=ConvergenceConfig(sample_every=2),
                       timeseries=TimeSeriesConfig(sample_every=5))
        try:
            inst_res = inst.run(max_rounds=60)
        finally:
            inst.close()

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

    def _resumable(self, sink):
        ham = IsingHamiltonian(square_lattice(4))
        grid = EnergyGrid.from_levels(ham.energy_levels())
        return REWLDriver(
            hamiltonian=ham, proposal_factory=lambda: FlipProposal(),
            grid=grid, initial_config=np.zeros(16, dtype=np.int8),
            config=REWLConfig(n_windows=3, walkers_per_window=2,
                              exchange_interval=100, ln_f_final=1e-6, seed=4),
            instrumentation=Instrumentation(
                telemetry=Telemetry(events=EventLog(run_id="t", sinks=[sink])),
                health=HealthConfig(heartbeat_rounds=10)),
        )

    @staticmethod
    def _beats(sink):
        timing = {"ts", "seq", "interval_s", "steps_per_s"}
        return [{k: v for k, v in r.items() if k not in timing}
                for r in sink.records if r["kind"] == HEARTBEAT_KIND]

    def test_resumed_heartbeats_match_a_straight_run(self, tmp_path):
        """The monitor's baseline rides the checkpoint: the first heartbeat
        after a resume reports one interval, not the pre-crash history."""
        from repro.parallel import load_checkpoint, save_checkpoint

        straight_sink = MemorySink()
        straight = self._resumable(straight_sink)
        straight.run(max_rounds=40)

        first = self._resumable(MemorySink())
        first.run(max_rounds=25)
        ckpt = save_checkpoint(first, tmp_path / "rewl.ckpt")
        resumed_sink = MemorySink()
        resumed = self._resumable(resumed_sink)
        load_checkpoint(resumed, ckpt)
        resumed.run(max_rounds=40)

        expected = [b for b in self._beats(straight_sink) if b["round"] > 25]
        assert [b["round"] for b in expected] == [30, 40]
        assert self._beats(resumed_sink) == expected
        assert resumed.health.summary() == straight.health.summary()

    def test_checkpoint_without_health_state_loads(self, tmp_path):
        from repro.parallel import load_checkpoint, save_checkpoint

        bare = self._resumable(MemorySink())
        bare.health = None  # the saving side predates the monitor's state
        bare.run(max_rounds=12)
        ckpt = save_checkpoint(bare, tmp_path / "old.ckpt")
        sink = MemorySink()
        fresh = self._resumable(sink)
        load_checkpoint(fresh, ckpt)
        fresh.run(max_rounds=20)
        assert [b["round"] for b in self._beats(sink)] == [20]

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
