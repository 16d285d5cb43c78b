"""Tests for the shared-memory transport (``repro.parallel.comm``) and the
contract of the ranks built on it: an idle rank waits without a deadline,
an orphaned one exits, and a rank — forked or spawned — runs the exit
handlers registered inside it and none of its controller's."""

import atexit
import gc
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.parallel import REWLConfig, REWLDriver, ShmRank, ShmWorld
from repro.parallel.comm import _POLL_S
from repro.proposals import FlipProposal
from repro.resilience import GuardPolicy, ResilienceConfig
from repro.sampling import EnergyGrid


def _echo_rank(handle, rank):
    """Module-level so a spawned rank can unpickle it: add the payload into
    the shared array, then echo the message back to rank 0."""
    comm = ShmRank(handle, rank)
    try:
        _, msg = comm.recv()
        comm.shared_array("table")[...] += msg
        comm.send(("echo", msg), dest=0)
    finally:
        comm.close()


class TestShmRank:
    def test_send_and_receive_through_a_spawned_rank(self):
        world = ShmWorld(2)
        try:
            table = world.alloc_array("table", (3,), np.int64)
            table[...] = [1, 2, 3]
            proc = world.spawn(_echo_rank, 1)
            host = ShmRank(world.handle(), 0)
            host.send(10, dest=1)
            assert host.recv(timeout=60.0) == (1, ("echo", 10))
            np.testing.assert_array_equal(table, [11, 12, 13])
            proc.join(timeout=10.0)
            assert proc.exitcode == 0
        finally:
            world.close()

    def test_receive_returns_the_senders_rank(self):
        world = ShmWorld(3)
        try:
            handle = world.handle()
            host = ShmRank(handle, 0)
            ShmRank(handle, 2).send("from two", dest=0)
            ShmRank(handle, 1).send("from one", dest=0)
            got = [host.recv(timeout=5.0), host.recv(timeout=5.0)]
            assert got == [(2, "from two"), (1, "from one")]
        finally:
            world.close()

    def test_receive_with_a_timeout_raises_timeout_error(self):
        world = ShmWorld(1)
        try:
            with pytest.raises(TimeoutError, match="rank 0"):
                ShmRank(world.handle(), 0).recv(timeout=0.05)
        finally:
            world.close()

    def test_unknown_shared_array_is_a_key_error(self):
        world = ShmWorld(1)
        try:
            world.alloc_array("ln_g", (2,), np.float64)
            comm = ShmRank(world.handle(), 0)
            with pytest.raises(KeyError, match=r"unknown shared array .*'ln_g'"):
                comm.shared_array("lng")
        finally:
            world.close()


def _driver(backend, shm_ranks=None):
    ham = IsingHamiltonian(square_lattice(4))
    return REWLDriver(
        hamiltonian=ham, proposal_factory=lambda: FlipProposal(),
        grid=EnergyGrid.from_levels(ham.energy_levels()),
        initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                          exchange_interval=200, ln_f_final=5e-2, seed=11,
                          backend=backend, shm_ranks=shm_ranks),
    )


#: Runs in a child interpreter: a 2-rank shm campaign, then the rank pids
#: and segment names on stdout, then an idle wait to be killed in.
_ORPHAN_SCRIPT = """
import json, sys, time
import numpy as np
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import FlipProposal
from repro.sampling import EnergyGrid

ham = IsingHamiltonian(square_lattice(4))
drv = REWLDriver(
    hamiltonian=ham, proposal_factory=lambda: FlipProposal(),
    grid=EnergyGrid.from_levels(ham.energy_levels()),
    initial_config=np.zeros(16, dtype=np.int8),
    config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                      exchange_interval=200, ln_f_final=5e-2, seed=11,
                      backend="shm", shm_ranks=2),
)
drv.run(max_rounds=2)
print(json.dumps({
    "pids": [p.pid for p in drv._engine._proc.values()],
    "segments": drv._engine.world.segment_names,
}), flush=True)
time.sleep(120)
"""


def _child_env() -> dict:
    """The environment of a child interpreter that imports this checkout."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie (an orphan's reaper
    may be slow, or absent in a container)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestIdleRanks:
    def test_idle_ranks_serve_the_next_run(self):
        """A pause between run() calls longer than several poll slices — at
        any length, since a waiting rank has no deadline — leaves the same
        ranks serving, and the campaign equals one that never paused."""
        ref = _driver("fused")
        ref.run(max_rounds=2)
        want = ref.run(max_rounds=4)

        drv = _driver("shm", shm_ranks=2)
        try:
            drv.run(max_rounds=2)
            procs = dict(drv._engine._proc)
            time.sleep(3 * _POLL_S)
            assert all(p.is_alive() for p in procs.values())
            got = drv.run(max_rounds=4)
            assert drv._engine._proc == procs
        finally:
            drv.close()
        assert got.total_steps == want.total_steps
        for a, b in zip(got.window_ln_g, want.window_ln_g):
            np.testing.assert_array_equal(a, b)

    def test_a_dropped_driver_releases_its_ranks_and_segments(self):
        """Ranks that wait with no deadline must not outlive a world its
        owner dropped without close()."""
        drv = _driver("shm", shm_ranks=2)
        drv.run(max_rounds=1)
        procs = list(drv._engine._proc.values())
        names = drv._engine.world.segment_names
        assert procs and all(p.is_alive() for p in procs)
        del drv
        gc.collect()
        for p in procs:
            p.join(timeout=5.0)
        assert not any(p.is_alive() for p in procs)
        assert not any(Path("/dev/shm", n).exists() for n in names)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads process state from /proc")
    def test_ranks_exit_when_their_controller_is_killed(self):
        child = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT], env=_child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        pids = []
        try:
            line = child.stdout.readline()
            assert line, "controller process produced no output"
            info = json.loads(line)
            pids = info["pids"]
            assert len(pids) == 2 and all(_running(p) for p in pids)
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10.0)
            deadline = time.monotonic() + 5.0
            while any(_running(p) for p in pids) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(_running(p) for p in pids)
            # With its last holder gone, the controller's resource tracker
            # unlinks the segments the controller never got to close.
            segments = [Path("/dev/shm", n) for n in info["segments"]]
            deadline = time.monotonic() + 5.0
            while any(s.exists() for s in segments) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(s.exists() for s in segments)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            child.stdout.close()


# --------------------------------------------------------------------------
# the forked-rank contract
# --------------------------------------------------------------------------


class _ExitProbe:
    """Registers an exit handler that writes ``<directory>/rank-<pid>`` when
    it is unpickled in a process other than the one that built it — the
    mechanism a rank-side statistics dump relies on."""

    def __init__(self, directory):
        self.directory = str(directory)
        self.owner = os.getpid()

    def __setstate__(self, state):
        self.__dict__.update(state)
        if os.getpid() != self.owner:
            atexit.register(self._mark)

    def _mark(self):
        Path(self.directory, f"rank-{os.getpid()}").touch()


def _contract_driver(proposal_factory, respawn: bool):
    """A 2-rank shm campaign; with ``respawn`` a supervisor is armed and
    rank 1 is killed before the first round, so it runs respawned."""
    ham = IsingHamiltonian(square_lattice(4))
    drv = REWLDriver(
        hamiltonian=ham, proposal_factory=proposal_factory,
        grid=EnergyGrid.from_levels(ham.energy_levels()),
        initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                          exchange_interval=200, ln_f_final=5e-2, seed=11,
                          backend="shm", shm_ranks=2),
        resilience=(
            ResilienceConfig(guards=GuardPolicy(mode="quarantine",
                                                max_rollbacks=1))
            if respawn else None
        ),
    )
    victim = None
    if respawn:
        drv._engine.start()
        victim = drv._engine._proc[1]
        victim.kill()
        victim.join(timeout=5.0)
    return drv, victim


#: Runs in a child interpreter: registers an exit handler of its own, then
#: drives a 2-rank campaign (argv[2] == "1": with rank 1 killed first).
_CONTROLLER_SCRIPT = """
import atexit, os, sys
from pathlib import Path
from tests.test_parallel_comm import _contract_driver
from repro.proposals import FlipProposal

out, respawn = sys.argv[1], sys.argv[2] == "1"
atexit.register(lambda: Path(out, f"controller-{os.getpid()}").touch())
drv, victim = _contract_driver(FlipProposal, respawn)
try:
    drv.run(max_rounds=3)
    assert victim is None or drv._engine._proc[1] is not victim
finally:
    drv.close()
"""


@pytest.mark.parametrize("respawn", [False, True], ids=["clean", "respawn"])
class TestForkedRankContract:
    def test_a_rank_runs_the_exit_handlers_registered_inside_it(
            self, tmp_path, respawn):
        probe = _ExitProbe(tmp_path)

        def probed_flips():
            proposal = FlipProposal()
            proposal.exit_probe = probe
            return proposal

        drv, victim = _contract_driver(probed_flips, respawn)
        try:
            drv.run(max_rounds=3)
            ranks = [p.pid for p in drv._engine._proc.values()]
        finally:
            drv.close()
        assert len(ranks) == 2
        if victim is not None:
            assert victim.pid not in ranks  # killed: its handler never ran
        marks = sorted(p.name for p in tmp_path.iterdir())
        assert marks == sorted(f"rank-{pid}" for pid in ranks)

    def test_a_rank_runs_none_of_its_controllers_handlers(
            self, tmp_path, respawn):
        repo = Path(__file__).resolve().parents[1]
        child = subprocess.Popen(
            [sys.executable, "-c", _CONTROLLER_SCRIPT, str(tmp_path),
             "1" if respawn else "0"],
            env=_child_env(), cwd=repo, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        marks = [p.name for p in tmp_path.iterdir()]
        assert marks == [f"controller-{child.pid}"]
