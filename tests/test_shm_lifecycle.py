"""Shared-memory lifecycle tests: segment creation, zero-copy attach,
unlink-on-close, and the no-leak contract under worker death and injected
faults.

Run directly (``python -m pytest tests/test_shm_lifecycle.py``) and as the
shm leg of the CI chaos matrix (``REPRO_FAULTS`` set in the environment).
"""

import numpy as np
import pytest

from repro.faults import FAULTS_ENV_VAR
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.parallel import REWLConfig, REWLDriver, ShmRank, ShmWorld
from repro.proposals import FlipProposal
from repro.resilience import GuardPolicy, ResilienceConfig
from repro.sampling import EnergyGrid


def _segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory

    from repro.parallel.comm import _attach_segment

    try:
        seg = _attach_segment(name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


def _shm_driver(*, shm_ranks=1, resilience=None, seed=11):
    ham = IsingHamiltonian(square_lattice(4))
    grid = EnergyGrid.from_levels(ham.energy_levels())
    return REWLDriver(
        hamiltonian=ham, proposal_factory=lambda: FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                          exchange_interval=200, ln_f_final=5e-2, seed=seed,
                          backend="shm", shm_ranks=shm_ranks),
        resilience=resilience,
    )


class TestShmWorld:
    def test_alloc_attach_write_read_unlink(self):
        world = ShmWorld(2)
        host_view = world.alloc_array("table", (4, 3), np.float64)
        names = world.segment_names
        assert len(names) == 1  # the array
        assert all(_segment_exists(n) for n in names)

        # A rank endpoint on the handle maps the same bytes, zero-copy.
        comm = ShmRank(world.handle(), 0)
        rank_view = comm.shared_array("table")
        host_view[2, 1] = 7.5
        assert rank_view[2, 1] == 7.5
        rank_view[0, 0] = -1.0
        assert host_view[0, 0] == -1.0
        comm.close()  # detaches only — segments stay linked
        assert all(_segment_exists(n) for n in names)

        world.close()
        assert not any(_segment_exists(n) for n in names)
        assert world.segment_names == []

    def test_close_is_idempotent(self):
        world = ShmWorld(1)
        world.close()
        world.close()

    def test_duplicate_array_name_rejected(self):
        world = ShmWorld(1)
        try:
            world.alloc_array("x", (2,), np.int64)
            with pytest.raises(ValueError, match="already allocated"):
                world.alloc_array("x", (2,), np.int64)
        finally:
            world.close()

    def test_unknown_array_name_rejected(self):
        world = ShmWorld(1)
        try:
            comm = ShmRank(world.handle(), 0)
            with pytest.raises(KeyError, match="unknown shared array"):
                comm.shared_array("nope")
        finally:
            world.close()


class TestDriverLifecycle:
    def test_run_then_close_unlinks_every_segment(self):
        drv = _shm_driver(shm_ranks=2)
        names = drv._engine.world.segment_names
        assert names and all(_segment_exists(n) for n in names)
        drv.run(max_rounds=3)
        procs = list(drv._engine._proc.values())
        assert procs and all(p.is_alive() for p in procs)
        drv.close()
        assert not any(p.is_alive() for p in procs)
        assert not any(_segment_exists(n) for n in names)

    def test_close_without_run_unlinks(self):
        drv = _shm_driver()
        names = drv._engine.world.segment_names
        drv.close()
        assert not any(_segment_exists(n) for n in names)

    def test_worker_kill_is_healed_and_segments_unlink(self):
        """A killed worker rank is respawned (its windows handed to the
        supervisor), the campaign finishes, and close() still unlinks."""
        drv = _shm_driver(
            shm_ranks=1,
            resilience=ResilienceConfig(
                guards=GuardPolicy(mode="quarantine", max_rollbacks=1)
            ),
        )
        engine = drv._engine
        names = engine.world.segment_names
        try:
            engine.start()
            victim = engine._proc[1]
            victim.kill()
            victim.join(timeout=5.0)
            assert not victim.is_alive()
            drv.run(max_rounds=5)
            # The rank was respawned and later rounds kept stepping.
            assert engine._proc[1] is not victim
            assert drv.supervisor.summary()["task_failures"] >= 1
        finally:
            drv.close()
        assert not any(_segment_exists(n) for n in names)

    def test_no_leak_under_injected_faults(self, monkeypatch):
        """Crash/hang chaos inside the worker ranks (absorbed by rank-side
        retries) must leave no /dev/shm entry behind."""
        monkeypatch.setenv(FAULTS_ENV_VAR,
                           "crash=0.2,hang=0.05,hang_s=0.01,seed=4")
        drv = _shm_driver(
            shm_ranks=2,
            resilience=ResilienceConfig(
                guards=GuardPolicy(mode="quarantine", max_rollbacks=1)
            ),
        )
        names = drv._engine.world.segment_names
        try:
            drv.run(max_rounds=5)
        finally:
            drv.close()
        assert not any(_segment_exists(n) for n in names)

    def test_faulted_run_matches_clean_run(self, monkeypatch):
        """Retries restart a faulted advance from the same shared state, so
        a chaos run that survives is bit-identical to the clean run."""
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        drv = _shm_driver(shm_ranks=1)
        try:
            clean = drv.run(max_rounds=20)
        finally:
            drv.close()

        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=0.2,seed=7")
        drv = _shm_driver(shm_ranks=1)
        try:
            chaotic = drv.run(max_rounds=20)
        finally:
            drv.close()
        assert chaotic.rounds == clean.rounds
        assert chaotic.total_steps == clean.total_steps
        for a, b in zip(chaotic.window_ln_g, clean.window_ln_g):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(chaotic.exchange_attempts,
                                      clean.exchange_attempts)
        np.testing.assert_array_equal(chaotic.exchange_accepts,
                                      clean.exchange_accepts)
