"""Checkpoint/restore round-trip and crash-consistency tests for REWL."""

import hashlib
import pickle

import numpy as np
import pytest

from repro.faults import FaultConfig, FaultInjector, InjectedCrash
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.parallel import (
    REWLConfig,
    REWLDriver,
    load_checkpoint,
    load_latest_checkpoint,
    maybe_resume,
    previous_checkpoint_path,
    save_checkpoint,
)
from repro.parallel.checkpoint import _HEADER, _MAGIC, CHECKPOINT_VERSION, _read_state
from repro.proposals import FlipProposal
from repro.sampling import EnergyGrid, WangLandauSampler, WLConfig


def make_driver(seed=3, n_windows=2, walkers=2, checkpoint_path=None,
                checkpoint_interval=0, backend="fused"):
    ham = IsingHamiltonian(square_lattice(4))
    grid = EnergyGrid.from_levels(ham.energy_levels())
    return REWLDriver(
        hamiltonian=ham, proposal_factory=lambda: FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(n_windows=n_windows, walkers_per_window=walkers,
                   exchange_interval=300, ln_f_final=1e-6, seed=seed,
                   checkpoint_interval=checkpoint_interval,
                   backend=backend, shm_ranks=1),
        checkpoint_path=checkpoint_path,
    )


def _rewrite(src, dst, **changes):
    """A framed checkpoint at ``dst``: ``src``'s state with ``changes``."""
    state = dict(_read_state(src), **changes)
    payload = pickle.dumps(state)
    dst.write_bytes(
        _HEADER.pack(_MAGIC, CHECKPOINT_VERSION, hashlib.sha256(payload).digest())
        + payload
    )
    return dst


def _checkpoint_fault(kind: str, rounds: int) -> FaultInjector:
    """An injector whose deterministic checkpoint decision at ``rounds``
    is exactly ``kind`` (search over seeds keeps the test explicit)."""
    for seed in range(1000):
        inj = FaultInjector(FaultConfig(corrupt=1.0, seed=seed))
        if inj.decide_checkpoint(rounds) == kind:
            return inj
    raise AssertionError(f"no seed produced a {kind!r} decision")


class TestCheckpointRoundTrip:
    def test_resume_is_bit_identical(self, tmp_path):
        """run(A+B rounds) == run(A) -> checkpoint -> restore -> run(B)."""
        straight = make_driver()
        straight.run(max_rounds=6)
        ref = straight.result()

        first = make_driver()
        first.run(max_rounds=3)
        ckpt = save_checkpoint(first, tmp_path / "rewl.ckpt")

        resumed = make_driver()  # fresh driver, same constructor args
        load_checkpoint(resumed, ckpt)
        resumed.run(max_rounds=6)  # continues from round 3 to 6
        res = resumed.result()

        assert res.rounds == ref.rounds
        for a, b in zip(ref.window_ln_g, res.window_ln_g):
            assert np.array_equal(a, b)
        assert np.array_equal(ref.exchange_accepts, res.exchange_accepts)

    def test_counters_restored(self, tmp_path):
        driver = make_driver()
        driver.run(max_rounds=2)
        ckpt = save_checkpoint(driver, tmp_path / "c.ckpt")
        fresh = make_driver()
        load_checkpoint(fresh, ckpt)
        assert fresh.rounds == 2
        assert fresh.exchange_attempts.sum() == driver.exchange_attempts.sum()


class TestCheckpointValidation:
    def test_window_count_mismatch(self, tmp_path):
        driver = make_driver()
        ckpt = save_checkpoint(driver, tmp_path / "c.ckpt")
        other = make_driver(n_windows=3)
        with pytest.raises(ValueError, match="n_windows"):
            load_checkpoint(other, ckpt)

    def test_walker_count_mismatch(self, tmp_path):
        driver = make_driver()
        ckpt = save_checkpoint(driver, tmp_path / "c.ckpt")
        other = make_driver(walkers=1)
        with pytest.raises(ValueError, match="walkers_per_window"):
            load_checkpoint(other, ckpt)

    def test_version_guard(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(pickle.dumps({"version": 999}))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(make_driver(), path)

    def test_new_format_version_guard(self, tmp_path):
        """A framed checkpoint with a future version is rejected clearly."""
        driver = make_driver()
        path = save_checkpoint(driver, tmp_path / "c.ckpt")
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # little-endian version field right after the magic
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(make_driver(), path)

    def test_grid_mismatch(self, tmp_path):
        driver = make_driver()
        ckpt = save_checkpoint(driver, tmp_path / "c.ckpt")
        ham = IsingHamiltonian(square_lattice(4))
        other = REWLDriver(
            hamiltonian=ham, proposal_factory=lambda: FlipProposal(),
            grid=EnergyGrid.uniform(-40.0, 40.0, 12),
            initial_config=np.zeros(16, dtype=np.int8),
            config=REWLConfig(n_windows=2, walkers_per_window=2,
                              exchange_interval=300, seed=3),
        )
        with pytest.raises(ValueError, match="grid_n_bins"):
            load_checkpoint(other, ckpt)

    def test_exchange_stats_shape_mismatch(self, tmp_path):
        """A doctored file with the wrong pair count is rejected before any
        driver state is touched."""
        driver = make_driver()
        ckpt = save_checkpoint(driver, tmp_path / "c.ckpt")
        bad = _rewrite(ckpt, tmp_path / "bad.ckpt",
                       exchange_attempts=np.zeros(5, dtype=np.int64),
                       exchange_accepts=np.zeros(5, dtype=np.int64))
        fresh = make_driver()
        before = fresh.rounds
        with pytest.raises(ValueError, match="exchange statistics"):
            load_checkpoint(fresh, bad)
        assert fresh.rounds == before  # untouched on failure

    def test_slot_count_mismatch_leaves_the_driver_untouched(self, tmp_path):
        """A K=2 file into a K=3 driver fails validation, before any state
        is replaced (teams always count 1 per window, slots do not)."""
        driver = make_driver(walkers=2)
        driver.run(max_rounds=2)
        ckpt = save_checkpoint(driver, tmp_path / "c.ckpt")
        fresh = make_driver(walkers=3)
        teams = [team[0] for team in fresh.walkers]
        with pytest.raises(ValueError, match="walkers_per_window is 2"):
            load_checkpoint(fresh, ckpt)
        assert [team[0] for team in fresh.walkers] == teams
        assert fresh.rounds == 0

    def test_scalar_walker_file_rejected(self, tmp_path):
        """Files from scalar-walker campaigns cannot be restored."""
        driver = make_driver()
        ckpt = save_checkpoint(driver, tmp_path / "c.ckpt")
        ham, team = driver.hamiltonian, driver.walkers[0][0]
        scalar = [
            WangLandauSampler(hamiltonian=ham, proposal=FlipProposal(),
                              grid=team.grid, initial_config=team.configs[k],
                              rng=k, config=WLConfig())
            for k in range(2)
        ]
        bad = _rewrite(ckpt, tmp_path / "scalar.ckpt",
                       walkers=[scalar, driver.walkers[1]])
        with pytest.raises(ValueError, match="scalar walker"):
            load_checkpoint(make_driver(), bad)

    @pytest.mark.parametrize("backend", ["fused", "shm"])
    def test_file_with_team_count_header_loads(self, tmp_path, backend):
        """Files whose header counted team objects (walkers_per_window 1)
        load into a matching driver of either backend, bit-identically."""
        straight = make_driver()
        straight.run(max_rounds=4)
        first = make_driver(backend="shm")
        try:
            first.run(max_rounds=2)
            ckpt = save_checkpoint(first, tmp_path / "c.ckpt")
        finally:
            first.close()
        old = _rewrite(ckpt, tmp_path / "old.ckpt", walkers_per_window=1)
        resumed = make_driver(backend=backend)
        try:
            load_checkpoint(resumed, old)
            resumed.run(max_rounds=4)
            res = resumed.result()
        finally:
            resumed.close()
        ref = straight.result()
        for a, b in zip(ref.window_ln_g, res.window_ln_g):
            assert np.array_equal(a, b)
        assert res.total_steps == ref.total_steps


class TestCrashConsistency:
    def test_save_is_atomic_no_tmp_left(self, tmp_path):
        path = save_checkpoint(make_driver(), tmp_path / "c.ckpt")
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_crash_mid_save_preserves_latest_snapshot(self, tmp_path):
        """Dying between the tmp write and the rename must leave the last
        published snapshot untouched (the atomic-rename guarantee)."""
        driver = make_driver()
        driver.run(max_rounds=2)
        path = save_checkpoint(driver, tmp_path / "c.ckpt")
        good = path.read_bytes()

        driver.run(max_rounds=4)
        inj = _checkpoint_fault("crash", driver.rounds)
        with pytest.raises(InjectedCrash):
            save_checkpoint(driver, path, faults=inj)
        assert path.read_bytes() == good  # byte-for-byte intact
        fresh = make_driver()
        load_checkpoint(fresh, path)
        assert fresh.rounds == 2

    def test_corrupt_payload_detected_on_load(self, tmp_path):
        driver = make_driver()
        inj = _checkpoint_fault("corrupt", driver.rounds)
        path = save_checkpoint(driver, tmp_path / "c.ckpt", faults=inj)
        with pytest.raises(ValueError, match="integrity"):
            load_checkpoint(make_driver(), path)

    def test_truncated_file_detected(self, tmp_path):
        path = save_checkpoint(make_driver(), tmp_path / "c.ckpt")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="integrity|truncated"):
            load_checkpoint(make_driver(), path)
        path.write_bytes(data[:20])  # not even a full header
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(make_driver(), path)

    def test_garbage_file_detected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="not a readable checkpoint|not readable"):
            load_checkpoint(make_driver(), path)

    def test_rotation_keeps_previous_snapshot(self, tmp_path):
        driver = make_driver()
        driver.run(max_rounds=2)
        path = save_checkpoint(driver, tmp_path / "c.ckpt")
        driver.run(max_rounds=4)
        save_checkpoint(driver, path)
        prev = previous_checkpoint_path(path)
        assert prev.exists()
        older, newer = make_driver(), make_driver()
        load_checkpoint(older, prev)
        load_checkpoint(newer, path)
        assert (older.rounds, newer.rounds) == (2, 4)


class TestAutoResume:
    def test_fallback_to_previous_good_snapshot(self, tmp_path):
        driver = make_driver()
        driver.run(max_rounds=2)
        path = save_checkpoint(driver, tmp_path / "c.ckpt")
        driver.run(max_rounds=4)
        save_checkpoint(driver, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # bit rot in the primary
        path.write_bytes(bytes(raw))

        fresh = make_driver()
        used = load_latest_checkpoint(fresh, path)
        assert used == previous_checkpoint_path(path)
        assert fresh.rounds == 2

    def test_no_checkpoints_raises_with_details(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no loadable checkpoint"):
            load_latest_checkpoint(make_driver(), tmp_path / "missing.ckpt")

    def test_maybe_resume_fresh_start(self, tmp_path):
        assert maybe_resume(make_driver(), tmp_path / "missing.ckpt") is False

    def test_maybe_resume_restores(self, tmp_path):
        driver = make_driver()
        driver.run(max_rounds=3)
        path = save_checkpoint(driver, tmp_path / "c.ckpt")
        fresh = make_driver()
        assert maybe_resume(fresh, path) is True
        assert fresh.rounds == 3

    def test_maybe_resume_survives_total_damage(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"garbage")
        previous_checkpoint_path(path).write_bytes(b"more garbage")
        assert maybe_resume(make_driver(), path) is False


class TestPeriodicCheckpoints:
    def test_run_snapshots_on_interval(self, tmp_path):
        path = tmp_path / "periodic.ckpt"
        driver = make_driver(checkpoint_path=path, checkpoint_interval=2)
        driver.run(max_rounds=5)
        assert path.exists()
        restored = make_driver()
        load_checkpoint(restored, path)
        assert restored.rounds == 4  # saved at rounds 2 and 4
        prev = make_driver()
        load_checkpoint(prev, previous_checkpoint_path(path))
        assert prev.rounds == 2

    def test_resume_from_periodic_snapshot_is_bit_identical(self, tmp_path):
        straight = make_driver()
        straight.run(max_rounds=6)
        ref = straight.result()

        path = tmp_path / "periodic.ckpt"
        interrupted = make_driver(checkpoint_path=path, checkpoint_interval=3)
        interrupted.run(max_rounds=3)  # "killed" right after the snapshot

        resumed = make_driver()
        assert maybe_resume(resumed, path) is True
        resumed.run(max_rounds=6)
        res = resumed.result()
        for a, b in zip(ref.window_ln_g, res.window_ln_g):
            assert np.array_equal(a, b)
        assert np.array_equal(ref.exchange_accepts, res.exchange_accepts)

    def test_disabled_by_default(self, tmp_path):
        path = tmp_path / "never.ckpt"
        driver = make_driver(checkpoint_path=path)  # interval stays 0
        driver.run(max_rounds=3)
        assert not path.exists()


class TestLogicalValidation:
    """Restore-time guard checks: a checkpoint whose *values* are corrupt
    (written by a poisoned run, not damaged on disk) must not load."""

    def test_poisoned_checkpoint_rejected(self, tmp_path):
        driver = make_driver()
        driver.run(max_rounds=2)
        driver.walkers[0][0].ln_g[2] = np.nan
        ckpt = save_checkpoint(driver, tmp_path / "rewl.ckpt")
        with pytest.raises(ValueError, match="logical validation"):
            load_checkpoint(make_driver(), ckpt)

    def test_bad_ln_f_rejected(self, tmp_path):
        driver = make_driver()
        driver.run(max_rounds=2)
        driver.walkers[1][0].ln_f = float("inf")
        ckpt = save_checkpoint(driver, tmp_path / "rewl.ckpt")
        with pytest.raises(ValueError, match="logical validation"):
            load_checkpoint(make_driver(), ckpt)

    def test_fallback_to_prev_on_logical_damage(self, tmp_path):
        """A poisoned primary falls back to the rotated clean snapshot,
        exactly like a torn write does."""
        path = tmp_path / "rewl.ckpt"
        driver = make_driver()
        driver.run(max_rounds=2)
        save_checkpoint(driver, path)  # clean snapshot
        driver.run(max_rounds=2)
        driver.walkers[0][0].ln_g[1] = np.nan
        save_checkpoint(driver, path)  # rotates clean -> .prev, writes poison

        restored = make_driver()
        used = load_latest_checkpoint(restored, path)
        assert used == previous_checkpoint_path(path)
        assert restored.rounds == 2
        assert np.isfinite(restored.walkers[0][0].ln_g).all()

        fresh = make_driver()
        assert maybe_resume(fresh, path)
        assert fresh.rounds == 2


class TestResilienceRideAlong:
    """Supervisor state and quarantine flags persist through checkpoints."""

    def _driver(self, seed=3):
        from repro.resilience import GuardPolicy, ResilienceConfig

        ham = IsingHamiltonian(square_lattice(4))
        grid = EnergyGrid.from_levels(ham.energy_levels())
        return REWLDriver(
            hamiltonian=ham, proposal_factory=lambda: FlipProposal(),
            grid=grid, initial_config=np.zeros(16, dtype=np.int8),
            config=REWLConfig(n_windows=2, walkers_per_window=1,
                              exchange_interval=300, ln_f_final=1e-6,
                              seed=seed),
            resilience=ResilienceConfig(guards=GuardPolicy(max_rollbacks=0)),
        )

    def test_quarantine_survives_restore(self, tmp_path):
        driver = self._driver()
        driver.run(max_rounds=2)
        driver.supervisor.on_window_failure(driver, 0, RuntimeError("boom"))
        assert driver.window_quarantined == [True, False]
        ckpt = save_checkpoint(driver, tmp_path / "rewl.ckpt")

        restored = self._driver()
        load_checkpoint(restored, ckpt)
        assert restored.window_quarantined == [True, False]
        rows = {r["window"]: r for r in restored.supervisor.dispositions()}
        assert rows[0]["disposition"] == "quarantined"
        assert rows[0]["task_failures"] == 1

    def test_unsupervised_driver_tolerates_resilient_checkpoint(self, tmp_path):
        """Resilience state in the file is optional on both sides."""
        driver = self._driver()
        driver.run(max_rounds=2)
        ckpt = save_checkpoint(driver, tmp_path / "rewl.ckpt")
        plain = make_driver(n_windows=2, walkers=1)
        load_checkpoint(plain, ckpt)  # no supervisor: state is ignored
        assert plain.rounds == 2

    def test_legacy_checkpoint_without_resilience_state(self, tmp_path):
        plain = make_driver(n_windows=2, walkers=1)
        plain.run(max_rounds=2)
        ckpt = save_checkpoint(plain, tmp_path / "rewl.ckpt")
        restored = self._driver()
        load_checkpoint(restored, ckpt)
        assert restored.window_quarantined == [False, False]
        assert restored.supervisor.quarantined == []
