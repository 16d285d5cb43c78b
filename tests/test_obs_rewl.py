"""Telemetry integration: bit-identity, walker counters, report CLI, trainer."""

import json

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.obs import Instrumentation, JsonlSink, MemorySink, Telemetry
from repro.obs.events import EventLog
from repro.obs.report import main as report_main
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import FlipProposal
from repro.sampling import EnergyGrid, WangLandauSampler, WLConfig
from repro.training import ProposalTrainer, ReplayBuffer
from repro.nn.models.made import MADE, MADEConfig


def _rewl_driver(telemetry=None, seed=3):
    ham = IsingHamiltonian(square_lattice(4))
    grid = EnergyGrid.from_levels(ham.energy_levels())
    return REWLDriver(
        hamiltonian=ham, proposal_factory=lambda: FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                   exchange_interval=500, ln_f_final=1e-2, seed=seed),
        instrumentation=Instrumentation(telemetry=telemetry),
    )


class TestBitIdentity:
    def test_rewl_identical_with_and_without_telemetry(self, tmp_path):
        """The paper-facing determinism contract: telemetry changes nothing."""
        plain = _rewl_driver().run(max_rounds=400)

        trace = tmp_path / "trace.jsonl"
        tel = Telemetry(events=EventLog(run_id="bitid", sinks=[JsonlSink(trace)]))
        traced = _rewl_driver(telemetry=tel).run(max_rounds=400)
        tel.close()

        assert traced.rounds == plain.rounds
        assert traced.total_steps == plain.total_steps
        assert np.array_equal(traced.exchange_attempts, plain.exchange_attempts)
        assert np.array_equal(traced.exchange_accepts, plain.exchange_accepts)
        for a, b in zip(traced.window_ln_g, plain.window_ln_g):
            assert np.array_equal(a, b)  # bit-identical, not just close
        for a, b in zip(traced.window_visited, plain.window_visited):
            assert np.array_equal(a, b)
        assert trace.exists() and trace.stat().st_size > 0


def _observed_driver(telemetry=None, limit=30):
    from repro.obs.convergence import ConvergenceConfig
    from repro.obs.health import HealthConfig
    from repro.obs.timeseries import TimeSeriesConfig

    ham = IsingHamiltonian(square_lattice(4))
    grid = EnergyGrid.from_levels(ham.energy_levels())
    return REWLDriver(
        hamiltonian=ham, proposal_factory=lambda: FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                          exchange_interval=100, ln_f_final=1e-8, seed=5),
        instrumentation=Instrumentation(
            telemetry=telemetry,
            health=HealthConfig(heartbeat_rounds=2),
            convergence=ConvergenceConfig(sample_every=3),
            timeseries=TimeSeriesConfig(sample_every=5),
        ),
    )


class _Sealed(list):
    """``driver.walkers`` that refuses to be read while an observer runs
    outside the record builder."""

    def __init__(self, items, stack):
        super().__init__(items)
        self._stack = stack

    def _check(self):
        assert self._stack[-1:] != ["observer"], "an observer read walkers"

    def __iter__(self):
        self._check()
        return super().__iter__()

    def __getitem__(self, index):
        self._check()
        return super().__getitem__(index)

    def __len__(self):
        self._check()
        return super().__len__()


class TestRoundRecord:
    """One record per sampled round, built by the driver and consumed by
    the health monitor, the convergence ledger and the time series."""

    @pytest.mark.parametrize("limit", [30, 31])
    def test_one_build_per_sampled_round(self, monkeypatch, limit):
        import time

        driver = _observed_driver()
        stack: list[str] = []
        built: list[int] = []
        build = driver._build_round_sample

        def spy_build():
            built.append(driver.rounds)
            stack.append("build")
            try:
                return build()
            finally:
                stack.pop()

        def sealed(observe):
            def observe_round(drv, *args, **kwargs):
                stack.append("observer")
                try:
                    return observe(drv, *args, **kwargs)
                finally:
                    stack.pop()
            return observe_round

        def clock(read):
            def guarded():
                assert stack[-1:] != ["observer"], "an observer read the clock"
                return read()
            return guarded

        monkeypatch.setattr(driver, "_build_round_sample", spy_build)
        for observer in (driver.health, driver.convergence, driver.timeseries):
            monkeypatch.setattr(observer, "observe_round",
                                sealed(observer.observe_round))
        monkeypatch.setattr(time, "monotonic", clock(time.monotonic))
        monkeypatch.setattr(time, "time", clock(time.time))
        driver.walkers = _Sealed(driver.walkers, stack)

        driver.run(max_rounds=limit)
        strides = [r for r in range(1, limit + 1)
                   if r % 2 == 0 or r % 3 == 0 or r % 5 == 0]
        # The union of the strides, each round once; an off-stride last
        # round adds one record for the run-end views.
        assert built == strides + ([limit] if limit not in strides else [])
        assert driver.health.heartbeats == limit // 2
        assert driver.convergence.samples == limit // 3
        assert driver.timeseries.samples == limit // 5 + (limit % 5 != 0)

    def test_heartbeat_windows_equal_campaign_windows(self):
        from repro.obs.health import HEARTBEAT_KIND
        from repro.obs.server import StatusBoard

        sink = MemorySink()
        driver = _observed_driver(
            telemetry=Telemetry(events=EventLog(run_id="rr", sinks=[sink])))
        driver.run(max_rounds=10)  # round 10: a heartbeat and a sample
        board = StatusBoard()
        board.publish_recorder(driver.timeseries)
        live = board.campaign_view()["live"]
        beat = [r for r in sink.records if r["kind"] == HEARTBEAT_KIND][-1]
        assert beat["round"] == live["round"] == 10
        assert beat["windows"] == live["windows"]
        assert {"ln_f", "iteration", "flatness", "converged",
                "quarantined"} <= set(beat["windows"][0])


class TestWalkerCounters:
    def test_wl_result_counters(self):
        ham = IsingHamiltonian(square_lattice(4))
        grid = EnergyGrid.from_levels(ham.energy_levels())
        wl = WangLandauSampler(hamiltonian=ham, proposal=FlipProposal(),
                               grid=grid,
                               initial_config=np.zeros(16, dtype=np.int8),
                               rng=0, config=WLConfig(ln_f_final=0.25))
        result = wl.run(max_steps=50_000)
        c = result.counters
        assert c.proposals == result.n_steps
        assert c.accepted <= c.proposals
        assert c.accepted == wl.n_accepted
        assert c.flat_checks_passed + c.flat_checks_failed > 0
        assert set(c.as_dict()) >= {"proposals", "accepted", "out_of_grid",
                                    "flat_checks_passed", "flat_checks_failed",
                                    "exchange_attempts", "exchange_accepts"}

    def test_rewl_snapshots_carry_counters(self):
        res = _rewl_driver().run(max_rounds=400)
        assert res.walkers, "expected per-walker snapshots"
        total_attempts = sum(s.counters.exchange_attempts for s in res.walkers)
        # each pair attempt touches two walkers
        assert total_attempts == 2 * int(res.exchange_attempts.sum())
        total_accepts = sum(s.counters.exchange_accepts for s in res.walkers)
        assert total_accepts == 2 * int(res.exchange_accepts.sum())
        # A team's counters ride on its slot-0 snapshot: they sum to the
        # walker steps of all its slots.
        assert sum(s.counters.proposals for s in res.walkers) \
            == res.total_steps == sum(s.n_steps for s in res.walkers)

    def test_result_telemetry_block(self):
        tel = Telemetry()
        res = _rewl_driver(telemetry=tel).run(max_rounds=400)
        metrics = res.telemetry["metrics"]
        assert metrics["rewl.rounds"]["value"] == res.rounds
        # super-steps per team: each one moves every walker of the team
        assert metrics["rewl.steps"]["value"] * 2 == res.total_steps
        assert metrics["rewl.exchange.attempts"]["value"] \
            == int(res.exchange_attempts.sum())
        spans = res.telemetry["spans"]
        assert {"rewl", "rewl.advance", "rewl.exchange",
                "rewl.synchronize"} <= set(spans)
        assert json.dumps(res.telemetry)  # JSON-clean for results/*.json


class TestReportCli:
    def test_report_renders_phase_and_exchange_tables(self, tmp_path, capsys):
        trace = tmp_path / "rewl.jsonl"
        tel = Telemetry(events=EventLog(run_id="report-smoke",
                                        sinks=[JsonlSink(trace)]))
        _rewl_driver(telemetry=tel).run(max_rounds=400)
        tel.close()

        assert report_main([str(trace)]) == 0
        out = capsys.readouterr().out
        for phase in ("rewl.advance", "rewl.exchange", "rewl.synchronize"):
            assert phase in out
        assert "replica exchanges" in out
        assert "0-1" in out  # the single adjacent window pair
        assert "ln f trajectory" in out
        assert "steps/s" in out

    def test_report_missing_file(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "absent.jsonl")]) == 1
        assert "no such trace" in capsys.readouterr().err

    def test_report_run_filter(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        with EventLog(run_id="a", sinks=[JsonlSink(trace)]) as log:
            log.emit("span", name="x", path="x", dur_s=1.0)
        assert report_main([str(trace), "--run", "nope"]) == 1
        capsys.readouterr()
        assert report_main([str(trace), "--run", "a"]) == 0


class TestTrainerTelemetry:
    def _trainer(self, telemetry):
        buf = ReplayBuffer(64, 6, 2)
        rng = np.random.default_rng(0)
        for _ in range(64):
            buf.add(rng.integers(0, 2, 6).astype(np.int8))
        model = MADE(MADEConfig(6, 2, hidden=(8,)), rng=1)
        return ProposalTrainer(model, buf, batch_size=16, rng=2,
                               telemetry=telemetry)

    def test_train_steps_record_metrics_and_events(self):
        sink = MemorySink()
        tel = Telemetry(events=EventLog(run_id="train", sinks=[sink]))
        trainer = self._trainer(tel)
        trainer.train_steps(5)
        assert tel.metrics.counter("train.steps").value == 5
        assert tel.metrics["train.batch_seconds"].count == 5
        assert tel.metrics.gauge("train.loss").value \
            == pytest.approx(trainer.loss_history[-1])
        steps = [r for r in sink.records if r["kind"] == "train_step"]
        assert [r["step"] for r in steps] == [1, 2, 3, 4, 5]
        spans = [r for r in sink.records if r["kind"] == "span"]
        assert spans and spans[-1]["name"] == "train"

    def test_telemetry_does_not_change_training(self):
        plain = self._trainer(None)
        traced = self._trainer(Telemetry())
        a = plain.train_steps(10)
        b = traced.train_steps(10)
        assert a == b  # identical losses: telemetry draws nothing from rng
