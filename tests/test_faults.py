"""Tests for the deterministic fault-injection harness (``repro.faults``)."""

import pickle

import numpy as np
import pytest

from repro.faults import (
    FAULTS_ENV_VAR,
    FaultConfig,
    FaultInjector,
    InjectedCrash,
    InjectedFault,
    InjectedHang,
    faults_from_env,
)
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.obs import EventLog, Instrumentation, MemorySink, Telemetry
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import FlipProposal
from repro.sampling import EnergyGrid


def _double(x):
    return 2 * x


class TestFaultConfig:
    def test_defaults_inject_nothing(self):
        cfg = FaultConfig()
        assert not cfg.any_task_faults
        assert not cfg.any_checkpoint_faults

    @pytest.mark.parametrize("field", ["crash", "hang", "nan", "slow",
                                       "corrupt"])
    def test_probability_bounds(self, field):
        with pytest.raises(ValueError, match=field):
            FaultConfig(**{field: 1.5})
        with pytest.raises(ValueError, match=field):
            FaultConfig(**{field: -0.1})

    def test_task_probs_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError, match="crash \\+ hang \\+ nan"):
            FaultConfig(crash=0.8, hang=0.4)

    def test_negative_hang_duration(self):
        with pytest.raises(ValueError, match="hang_s"):
            FaultConfig(hang_s=-1.0)


class TestParsing:
    def test_parse_all_fields(self):
        cfg = FaultConfig.from_spec(
            "crash=0.12,hang=0.05,corrupt=0.2,hang_s=0.5,seed=7")
        assert cfg == FaultConfig(crash=0.12, hang=0.05,
                                  corrupt=0.2, hang_s=0.5, seed=7)

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="explode"):
            FaultConfig.from_spec("explode=1")
        with pytest.raises(ValueError, match="kill"):  # a retired kind
            FaultConfig.from_spec("kill=0.1")

    @pytest.mark.parametrize("spec", ["1", "on", "true"])
    def test_parse_rejects_enable_shorthand(self, spec):
        # An enable-only spec would build an injector that injects nothing.
        with pytest.raises(ValueError, match="key=value"):
            FaultConfig.from_spec(spec)

    def test_parse_rejects_bad_values(self):
        with pytest.raises(ValueError, match="crash"):
            FaultConfig.from_spec("crash=lots")

    @pytest.mark.parametrize("value", ["", "0", "off", "false"])
    def test_env_disabled(self, monkeypatch, value):
        monkeypatch.setenv(FAULTS_ENV_VAR, value)
        assert faults_from_env() is None

    def test_env_unset(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert faults_from_env() is None

    def test_env_enabled(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=0.25,seed=9")
        injector = faults_from_env()
        assert injector is not None
        assert injector.cfg.crash == 0.25 and injector.cfg.seed == 9


class TestDecisions:
    def test_deterministic_replay(self):
        a = FaultInjector(FaultConfig(crash=0.3, hang=0.2, seed=4))
        b = FaultInjector(FaultConfig(crash=0.3, hang=0.2, seed=4))
        for key in range(40):
            for attempt in range(3):
                assert a.decide_task(key, attempt) == b.decide_task(key, attempt)

    def test_retry_gets_a_fresh_draw(self):
        """A crashed attempt must not doom every retry of the same task."""
        inj = FaultInjector(FaultConfig(crash=0.5, seed=0))
        for key in range(20):
            decisions = {inj.decide_task(key, attempt) for attempt in range(16)}
            assert None in decisions  # some attempt succeeds

    def test_certain_and_impossible(self):
        always = FaultInjector(FaultConfig(crash=1.0, seed=1))
        never = FaultInjector(FaultConfig(seed=1))
        assert all(always.decide_task(k, 0) == "crash" for k in range(20))
        assert all(never.decide_task(k, 0) is None for k in range(20))

    def test_rates_roughly_match_probabilities(self):
        inj = FaultInjector(FaultConfig(crash=0.3, hang=0.1, seed=3))
        decisions = [inj.decide_task(k, 0) for k in range(2000)]
        rate = lambda kind: sum(d == kind for d in decisions) / len(decisions)  # noqa: E731
        assert abs(rate("crash") - 0.3) < 0.05
        assert abs(rate("hang") - 0.1) < 0.05

    def test_checkpoint_split(self):
        inj = FaultInjector(FaultConfig(corrupt=1.0, seed=2))
        decisions = {inj.decide_checkpoint(k) for k in range(40)}
        assert decisions == {"corrupt", "crash"}
        assert FaultInjector(FaultConfig(seed=2)).decide_checkpoint(0) is None


class TestWrapping:
    def test_no_faults_is_a_passthrough(self):
        inj = FaultInjector(FaultConfig(corrupt=0.5))  # checkpoint-only faults
        assert inj.wrap(_double, 0, 0) is _double

    def test_crash_fires_before_the_task_body(self):
        calls = []
        inj = FaultInjector(FaultConfig(crash=1.0, seed=0))
        with pytest.raises(InjectedCrash):
            inj.wrap(calls.append, 0, 0)("never")
        assert calls == []  # the walker/task input was never touched

    def test_hang_sleeps_then_raises(self):
        inj = FaultInjector(FaultConfig(hang=1.0, hang_s=0.0, seed=0))
        with pytest.raises(InjectedHang):
            inj.wrap(_double, 0, 0)(3)

    def test_wrapper_is_picklable(self):
        inj = FaultInjector(FaultConfig(crash=0.5, seed=0))
        wrapped = pickle.loads(pickle.dumps(inj.wrap(_double, 3, 1)))
        assert wrapped.key == 3 and wrapped.attempt == 1

    def test_clean_attempt_runs_the_task(self):
        inj = FaultInjector(FaultConfig(crash=0.5, seed=0))
        key = next(k for k in range(50) if inj.decide_task(k, 0) is None)
        assert inj.wrap(_double, key, 0)(21) == 42


def _driver(backend="fused", *, telemetry=None, **over):
    ham = IsingHamiltonian(square_lattice(4))
    cfg = dict(n_windows=3, walkers_per_window=2, overlap=0.6,
               exchange_interval=800, ln_f_final=5e-3, seed=21,
               backend=backend)
    cfg.update(over)
    return REWLDriver(
        hamiltonian=ham, proposal_factory=lambda: FlipProposal(),
        grid=EnergyGrid.from_levels(ham.energy_levels()),
        initial_config=np.zeros(16, dtype=np.int8), config=REWLConfig(**cfg),
        instrumentation=Instrumentation(telemetry=telemetry),
    )


def _run(backend="fused", max_rounds=None, **kwargs):
    driver = _driver(backend, **kwargs)
    try:
        return driver.run(max_rounds=max_rounds)
    finally:
        driver.close()


class TestRetryLoop:
    """The one retry loop (``repro.parallel.rewl.advance_windows``): armed
    from ``REPRO_FAULTS``, reported through the driver's telemetry."""

    def test_fault_metrics_and_events_recorded(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=0.4,seed=8")
        sink = MemorySink()
        tel = Telemetry(events=EventLog(run_id="t", sinks=[sink]))
        _run(max_rounds=3, telemetry=tel)
        metrics = tel.metrics.as_dict()
        assert metrics["task.retries"]["value"] > 0
        assert metrics["fault.injected"]["value"] \
            == metrics["task.retries"]["value"]
        retries = [r for r in sink.records if r["kind"] == "task_retry"]
        assert len(retries) == metrics["task.retries"]["value"]
        assert all("InjectedCrash" in r["error"] for r in retries)
        assert {r["window"] for r in retries} <= {0, 1, 2}

    def test_retries_exhausted_raises_the_fault(self, monkeypatch):
        """Without a supervisor, a window that burns its retries stops the
        campaign with the fault itself."""
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=1.0,seed=0")
        with pytest.raises(InjectedFault):
            _run(max_rounds=1)

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=1.0,window=2,seed=0")
        driver = _driver()
        assert driver._faults is not None and driver._faults.cfg.window == 2
        with pytest.raises(InjectedCrash):
            driver.run(max_rounds=1)
        monkeypatch.delenv(FAULTS_ENV_VAR)
        assert _driver()._faults is None

    def test_env_default_retry_budget(self, monkeypatch):
        """Chaos from the environment implies a usable retry budget."""
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=0.3,seed=1")
        tel = Telemetry()
        res = _run(max_rounds=4, telemetry=tel)
        assert res.rounds == 4
        assert tel.metrics.as_dict()["task.retries"]["value"] > 0


    def test_faults_are_keyed_on_the_round(self):
        """A window's faults are keyed on (window, round): another round
        draws another retry pattern, the same round the same one."""
        from repro.parallel.rewl import advance_windows
        from repro.sampling import make_wang_landau

        ham = IsingHamiltonian(square_lattice(4))
        grid = EnergyGrid.from_levels(ham.energy_levels())
        inj = FaultInjector(FaultConfig(crash=0.5, seed=0))
        patterns = []
        for rounds in (1, 2, 1):
            teams = {w: make_wang_landau(hamiltonian=ham, proposal=FlipProposal(), grid=grid,
                                         initial_config=np.zeros(16, dtype=np.int8), rng=w)
                     for w in range(6)}
            _, retries = advance_windows(teams, 5, ham, faults=inj, rounds=rounds)
            patterns.append([(w, attempt) for w, attempt, _, _ in retries])
        assert patterns[0] == patterns[2] != patterns[1]
        assert patterns[1]


class TestREWLUnderChaos:
    """The acceptance criterion: injected worker crashes/hangs must not
    change a single bit of the stitched result, on either backend."""

    @pytest.mark.parametrize("backend", ["fused", "shm"])
    def test_chaos_bit_identical(self, backend, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        clean = _run(backend, shm_ranks=2)
        monkeypatch.setenv(FAULTS_ENV_VAR,
                           "crash=0.15,hang=0.05,hang_s=0.001,seed=5")
        tel = Telemetry()
        chaotic = _run(backend, shm_ranks=2, telemetry=tel)
        assert tel.metrics.as_dict()["task.retries"]["value"] > 0
        assert chaotic.rounds == clean.rounds
        assert chaotic.total_steps == clean.total_steps
        for a, b in zip(clean.window_ln_g, chaotic.window_ln_g):
            assert np.array_equal(a, b)
        assert np.array_equal(clean.exchange_accepts, chaotic.exchange_accepts)
        assert np.array_equal(
            clean.stitched().ln_g, chaotic.stitched().ln_g
        )

    @pytest.mark.parametrize("backend", ["fused", "shm"])
    def test_retry_telemetry_reaches_driver(self, backend, monkeypatch):
        """Retries land in the driver's telemetry on both backends: counted
        in process, or shipped back in each shm rank's reply."""
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=0.3,seed=1")
        tel = Telemetry()
        _run(backend, max_rounds=5, telemetry=tel, n_windows=2,
             walkers_per_window=1, exchange_interval=200, seed=3)
        metrics = tel.metrics.as_dict()
        assert metrics["task.retries"]["value"] > 0
        assert metrics["fault.injected"]["value"] > 0


class _PoisonTarget:
    """Team-shaped object for nan-poisoning tests."""

    def __init__(self):
        self.ln_g = np.zeros(8)
        self.energies = np.zeros(2)
        self.obs_tag = (0, None)


def _identity(walker):
    return walker


class TestSilentAndSlowFaults:
    """The PR-7 fault kinds: nan (silent corruption) and slow (delay)."""

    def test_parse_new_fields(self):
        cfg = FaultConfig.from_spec("nan=0.2,slow=0.1,slow_s=0.5,window=1")
        assert cfg.nan == 0.2 and cfg.slow == 0.1
        assert cfg.slow_s == 0.5 and cfg.window == 1

    def test_sum_includes_new_kinds(self):
        with pytest.raises(ValueError, match="nan \\+ slow"):
            FaultConfig(crash=0.5, nan=0.4, slow=0.3)

    def test_validation(self):
        with pytest.raises(ValueError, match="slow_s"):
            FaultConfig(slow_s=-1.0)
        with pytest.raises(ValueError, match="window"):
            FaultConfig(window=-2)

    def test_decisions(self):
        assert all(
            FaultInjector(FaultConfig(nan=1.0)).decide_task(k, 0) == "nan"
            for k in range(10)
        )
        assert all(
            FaultInjector(FaultConfig(slow=1.0)).decide_task(k, 0) == "slow"
            for k in range(10)
        )

    def test_slow_task_still_succeeds(self):
        inj = FaultInjector(FaultConfig(slow=1.0, slow_s=0.0, seed=0))
        target = _PoisonTarget()
        assert inj.wrap(_identity, 0, 0)(target) is target
        assert np.isfinite(target.ln_g).all() and not target.energies.any()

    def test_nan_poisons_after_the_body_runs(self):
        """The task succeeds and returns — the corruption is silent."""
        inj = FaultInjector(FaultConfig(nan=1.0, seed=0))
        poisoned = [inj.wrap(_identity, key, 0)(_PoisonTarget())
                    for key in range(20)]
        assert all(
            not np.isfinite(w.ln_g).all() or not np.isfinite(w.energies).all()
            for w in poisoned
        )
        # The secondary mode draw exercises both corruption shapes.
        assert any(not np.isfinite(w.ln_g).all() for w in poisoned)
        assert any(not np.isfinite(w.energies).all() for w in poisoned)

    def test_nan_poison_is_deterministic(self):
        for key in range(10):
            a = FaultInjector(FaultConfig(nan=1.0, seed=3)).wrap(
                _identity, key, 0)(_PoisonTarget())
            b = FaultInjector(FaultConfig(nan=1.0, seed=3)).wrap(
                _identity, key, 0)(_PoisonTarget())
            assert np.array_equal(a.ln_g, b.ln_g, equal_nan=True)
            assert np.array_equal(a.energies, b.energies)

    def test_window_targeting(self):
        """Faults gated to window 1 leave other windows' walkers clean."""
        inj = FaultInjector(FaultConfig(crash=1.0, window=1, seed=0))
        safe = _PoisonTarget()  # obs_tag window 0
        assert inj.wrap(_identity, 0, 0)(safe) is safe
        hit = _PoisonTarget()
        hit.obs_tag = (1, None)
        with pytest.raises(InjectedCrash):
            inj.wrap(_identity, 0, 0)(hit)

    def test_window_targeting_untagged_is_safe(self):
        inj = FaultInjector(FaultConfig(crash=1.0, window=2, seed=0))
        assert inj.wrap(_double, 0, 0)(21) == 42  # no obs_tag -> no fault
