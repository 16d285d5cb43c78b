"""Tests for repro.obs.convergence: the ledger's diffusion/ETA bookkeeping,
its determinism contract on a real REWL run, and checkpoint round-trips."""

import json

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.obs import EventLog, Instrumentation, MemorySink, Telemetry
from repro.obs.convergence import (
    CONVERGENCE_ENV_VAR,
    ConvergenceConfig,
    ConvergenceLedger,
)
from repro.obs.sample import RoundSample, WindowSample
from repro.parallel import REWLConfig, REWLDriver, load_checkpoint, save_checkpoint
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


class _FakeCfg:
    ln_f_final = 5e-2
    flatness = 0.8
    walkers_per_window = 1

    def __init__(self, n_windows):
        self.n_windows = n_windows


class _FakeDriver:
    """The driver surface the ledger reads at attach time: its config."""

    def __init__(self, n_windows=3):
        self.cfg = _FakeCfg(n_windows)


def _sample(rounds=0, ln_f=(0.5,), converged=(False,), flatness=(1.0,),
            mono=0.0):
    """A round record of fully visited three-bin windows."""
    windows = tuple(
        WindowSample(window=w, ln_f=f, iteration=0, flatness=flat, fill=1.0,
                     converged=c, quarantined=False, ln_g=np.zeros(3),
                     visited=np.ones(3, dtype=bool))
        for w, (f, c, flat) in enumerate(zip(ln_f, converged, flatness))
    )
    return RoundSample(round=rounds, mono=mono, wall=0.0, steps=0,
                       windows=windows, exchange_attempts=(),
                       exchange_accepts=())


class TestConfigParsing:
    def test_defaults_validate(self):
        cfg = ConvergenceConfig()
        assert cfg.sample_every == 10

    @pytest.mark.parametrize("field,value", [
        ("sample_every", 0), ("max_samples", 3),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            ConvergenceConfig(**{field: value})

    def test_parse_enabled_and_keys(self):
        assert ConvergenceConfig.from_spec("1") == ConvergenceConfig()
        cfg = ConvergenceConfig.from_spec("every=3,max=8")
        assert cfg.sample_every == 3
        assert cfg.max_samples == 8

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match=CONVERGENCE_ENV_VAR):
            ConvergenceConfig.from_spec("bogus=1")

    def test_convergence_from_env(self, monkeypatch):
        monkeypatch.delenv(CONVERGENCE_ENV_VAR, raising=False)
        assert ConvergenceConfig.from_env() is None
        monkeypatch.setenv(CONVERGENCE_ENV_VAR, "off")
        assert ConvergenceConfig.from_env() is None
        monkeypatch.setenv(CONVERGENCE_ENV_VAR, "every=7")
        assert ConvergenceConfig.from_env().sample_every == 7

    def test_env_attaches_ledger_to_driver(self, monkeypatch):
        monkeypatch.setenv(CONVERGENCE_ENV_VAR, "1")
        assert _driver().convergence is not None
        monkeypatch.setenv(CONVERGENCE_ENV_VAR, "0")
        assert _driver().convergence is None


class TestLabelDiffusion:
    def _ledger(self, n_windows=3):
        ledger = ConvergenceLedger(ConvergenceConfig())
        ledger.attach(_FakeDriver(n_windows=n_windows))
        return ledger

    def test_attach_seeds_home_labels(self):
        ledger = self._ledger()
        assert ledger.labels == [[0], [1], [2]]
        assert ledger._last_extreme == {0: "bottom", 2: "top"}

    def test_rejected_exchange_counts_attempt_only(self):
        ledger = self._ledger()
        ledger.note_exchange(0, 0, 1, 0, accepted=False, in_overlap=True)
        assert ledger.pair_attempts == [1, 0]
        assert ledger.pair_accepts == [0, 0]
        assert ledger.labels == [[0], [1], [2]]

    def test_label_travels_ladder_and_tunnels(self):
        ledger = self._ledger()
        # Label 0 rides bottom -> middle -> top: one traversal.
        ledger.note_exchange(0, 0, 1, 0, accepted=True, in_overlap=True)
        assert ledger.labels == [[1], [0], [2]]
        assert ledger.tunnels == 0
        ledger.note_exchange(1, 0, 2, 0, accepted=True, in_overlap=True)
        assert ledger.labels == [[1], [2], [0]]
        assert ledger.tunnels == 1
        assert ledger.round_trips == 0
        # ... and back down: the round trip completes.
        ledger.note_exchange(1, 0, 2, 0, accepted=True, in_overlap=True)
        ledger.note_exchange(0, 0, 1, 0, accepted=True, in_overlap=True)
        assert ledger.labels == [[0], [1], [2]]
        assert ledger.tunnels == 2
        assert ledger.round_trips == 1

    def test_touching_same_end_twice_is_not_a_tunnel(self):
        ledger = self._ledger()
        # Label 1 visits the bottom twice without ever reaching the top.
        ledger.note_exchange(0, 0, 1, 0, accepted=True, in_overlap=True)
        ledger.note_exchange(0, 0, 1, 0, accepted=True, in_overlap=True)
        assert ledger.tunnels == 0

    def test_acceptance_matrix_is_symmetric(self):
        ledger = self._ledger()
        ledger.note_exchange(0, 0, 1, 0, accepted=True, in_overlap=True)
        ledger.note_exchange(0, 0, 1, 0, accepted=False, in_overlap=True)
        m = ledger.acceptance_matrix()
        assert m[0][1] == m[1][0] == pytest.approx(0.5)
        assert m[0][2] is None and m[0][0] is None


class TestSeriesAndEta:
    def test_decimation_keeps_first_and_last(self):
        ledger = ConvergenceLedger(ConvergenceConfig(max_samples=4))
        ledger.attach(_FakeDriver(n_windows=1))
        for i in range(9):
            ledger.note_sync(0, rounds=i, ln_f=1.0 / (i + 1), iteration=i,
                            converged=False)
        series = ledger.lnf_trajectory[0]
        assert len(series) <= 4
        assert series[0][0] == 0 and series[-1][0] == 8

    def test_eta_projection(self):
        ledger = ConvergenceLedger(ConvergenceConfig())
        ledger.attach(_FakeDriver(n_windows=1))
        # 10 rounds per WL iteration; flatness climbing 0.01/round from 0.6.
        ledger.lnf_trajectory[0] = [(10, 1.0, 1), (20, 0.5, 2)]
        ledger.flatness_series[0] = [(10, 0.5, 0.5)]
        ledger.wall_samples = [(0, 0.0)]
        eta = ledger.eta(
            _sample(rounds=20, ln_f=(0.25,), flatness=(0.6,), mono=10.0))
        # ceil(log2(0.25/0.05)) = 3 halvings: 20 rounds to flat now,
        # then 2 more iterations at 10 rounds each.
        assert eta["rounds"] == pytest.approx(40.0)
        assert eta["seconds"] == pytest.approx(20.0)  # 0.5 s/round observed
        assert eta["windows"][0]["halvings_left"] == 3

    def test_eta_none_without_history(self):
        ledger = ConvergenceLedger(ConvergenceConfig())
        ledger.attach(_FakeDriver(n_windows=1))
        assert ledger.eta(_sample()) is None

    def test_eta_zero_when_all_converged(self):
        ledger = ConvergenceLedger(ConvergenceConfig())
        ledger.attach(_FakeDriver(n_windows=1))
        assert ledger.eta(_sample(converged=(True,))) == {
            "rounds": 0, "seconds": 0.0, "windows": []}

    def test_eta_is_the_same_before_and_after_the_ledger_takes_a_sample(self):
        """The driver asks for the ETA while building a record, before any
        observer has taken it; a later ask (the run-end digest) must agree."""
        ledger = ConvergenceLedger(ConvergenceConfig())
        ledger.attach(_FakeDriver(n_windows=1))
        ledger.lnf_trajectory[0] = [(10, 1.0, 1), (20, 0.5, 2)]
        ledger.consume(_sample(rounds=10, ln_f=(0.5,), mono=1.0))
        sample = _sample(rounds=20, ln_f=(0.25,), mono=3.0)
        before = ledger.eta(sample)
        ledger.consume(sample)
        assert ledger.eta(sample) == before
        assert before["seconds"] == pytest.approx(before["rounds"] * 0.2)


class TestLedgerOnRewl:
    @pytest.mark.parametrize("backend", ["fused", "shm"])
    def test_ledger_run_is_bit_identical(self, backend):
        """Acceptance: the ledger, next to the other round observers and on
        either backend, leaves the DoS, the histograms, and every walker RNG
        stream bit-for-bit equal to a bare in-process run."""
        from repro.obs.health import HealthConfig
        from repro.obs.timeseries import TimeSeriesConfig

        plain = _driver()
        plain_res = plain.run(max_rounds=60)

        inst = _driver(backend=backend,
                       convergence=ConvergenceLedger(
                           ConvergenceConfig(sample_every=3)),
                       health=HealthConfig(heartbeat_rounds=4),
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
        # And the ledger actually measured something.
        summ = inst_res.telemetry["convergence"]
        assert summ["samples"] > 0
        assert sum(summ["pair_attempts"]) == int(inst.exchange_attempts.sum())

    def test_ledger_on_batched_teams(self):
        """K-slot batched window teams: the ledger reads slot arrays and
        counts slot-level exchanges, and stays bit-identical."""
        ham = IsingHamiltonian(square_lattice(4))
        grid = EnergyGrid.from_levels(ham.energy_levels())

        def build(**kwargs):
            return REWLDriver(
                hamiltonian=ham, proposal_factory=lambda: FlipProposal(),
                grid=grid, initial_config=np.zeros(16, dtype=np.int8),
                config=REWLConfig(n_windows=2, walkers_per_window=2,
                           overlap=0.6, exchange_interval=200,
                           ln_f_final=5e-2, seed=11),
                **kwargs,
            )

        plain = build()
        plain_res = plain.run(max_rounds=40)
        inst = build(instrumentation=Instrumentation(
            convergence=ConvergenceLedger(ConvergenceConfig(sample_every=3))))
        inst_res = inst.run(max_rounds=40)

        assert inst_res.total_steps == plain_res.total_steps
        for a, b in zip(inst_res.window_ln_g, plain_res.window_ln_g):
            assert np.array_equal(a, b)
        summ = inst_res.telemetry["convergence"]
        assert summ["walkers_per_window"] == 2
        assert summ["samples"] > 0
        assert sum(summ["pair_attempts"]) == int(inst.exchange_attempts.sum())

    def test_summary_rides_result_and_trace(self):
        sink = MemorySink()
        tel = Telemetry(events=EventLog(run_id="t", sinks=[sink]))
        driver = _driver(telemetry=tel, convergence=ConvergenceLedger(
            ConvergenceConfig(sample_every=2)))
        res = driver.run(max_rounds=30)
        summ = res.telemetry["convergence"]
        json.dumps(summ)  # JSON-ready, numpy-free
        assert summ["n_windows"] == 2
        assert summ["walkers_per_window"] == 2
        assert len(summ["windows"]) == 2
        assert summ["windows"][0]["flatness"]
        events = [r for r in sink.records if r["kind"] == "convergence"]
        assert events and events[-1]["samples"] == summ["samples"]

    def test_heartbeat_carries_eta(self):
        from repro.obs.health import HEARTBEAT_KIND, HealthConfig

        sink = MemorySink()
        tel = Telemetry(events=EventLog(run_id="t", sinks=[sink]))
        driver = _driver(telemetry=tel,
                         health=HealthConfig(heartbeat_rounds=2),
                         convergence=ConvergenceLedger(
                             ConvergenceConfig(sample_every=2)))
        driver.run(max_rounds=30)
        beats = [r for r in sink.records if r["kind"] == HEARTBEAT_KIND]
        assert beats and "eta" in beats[-1]


class TestLedgerCheckpoint:
    def _ckpt_driver(self):
        ham = IsingHamiltonian(square_lattice(4))
        grid = EnergyGrid.from_levels(ham.energy_levels())
        return REWLDriver(
            hamiltonian=ham, proposal_factory=lambda: FlipProposal(),
            grid=grid, initial_config=np.zeros(16, dtype=np.int8),
            config=REWLConfig(n_windows=2, walkers_per_window=2,
                       exchange_interval=300, ln_f_final=1e-6, seed=3),
            instrumentation=Instrumentation(
                convergence=ConvergenceLedger(ConvergenceConfig(sample_every=2))
            ),
        )

    def test_ledger_round_trips_through_checkpoint(self, tmp_path):
        first = self._ckpt_driver()
        first.run(max_rounds=4)
        ckpt = save_checkpoint(first, tmp_path / "rewl.ckpt")

        resumed = self._ckpt_driver()
        load_checkpoint(resumed, ckpt)
        a, b = first.convergence, resumed.convergence
        assert b.labels == a.labels
        assert b._traversals == a._traversals
        assert b.samples == a.samples
        assert b.pair_attempts == a.pair_attempts
        assert b.lnf_trajectory == a.lnf_trajectory
        assert b.flatness_series == a.flatness_series

    def test_resumed_ledger_matches_straight_run(self, tmp_path):
        straight = self._ckpt_driver()
        straight.run(max_rounds=8)
        ref = straight.convergence.summary()

        first = self._ckpt_driver()
        first.run(max_rounds=4)
        ckpt = save_checkpoint(first, tmp_path / "rewl.ckpt")
        resumed = self._ckpt_driver()
        load_checkpoint(resumed, ckpt)
        resumed.run(max_rounds=8)
        assert resumed.convergence.summary() == ref

    def test_old_checkpoint_without_ledger_state_loads(self, tmp_path):
        bare = self._ckpt_driver()
        bare.convergence = None  # the saving side predates the ledger
        bare.run(max_rounds=2)
        ckpt = save_checkpoint(bare, tmp_path / "old.ckpt")
        fresh = self._ckpt_driver()
        load_checkpoint(fresh, ckpt)  # must not raise
        assert fresh.rounds == 2
