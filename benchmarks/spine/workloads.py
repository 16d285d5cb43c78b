"""The four spine workloads.

One *campaign* is the unit of work: set up a system from a seed, run the
sampler to convergence, and turn the result into a normalised ln g(E) and a
thermodynamic table, which is then checked against an oracle.  A benchmark
run executes a fixed number of campaigns back to back (``campaign_s`` sizes
it to the measuring time), each from its own sub-seed, so every run yields
several set-up and time-to-DoS samples, and two runs at one seed do
identical work.

Campaigns are sized to a few seconds each (the driver's time cap allows
~25 s per run): the Ising cell is 6x6, the HEA grid trims 10 % off each end
of the annealed energy range (the extreme tails cost most of a full-range
campaign and do not move the 3.1 kK transition), and the DL run stops at
ln f = 3e-3.  Each still converges through the same code paths, at the same
window/walker shapes, as the full-size campaigns.

Layer calls are made through ``tr`` (a :class:`tracing.Tracer` or
:class:`tracing.NullTracer`): with tracing off the samplers receive the plain
objects and the spans are no-ops, so both modes run the same benchmark code.
"""

from __future__ import annotations

import copy
import hashlib
import shutil
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from repro.analysis import transition_temperature
from repro.dos import (
    exact_ising_dos_bruteforce,
    exact_ising_specific_heat,
    normalize_ln_g,
    thermodynamics,
)
from repro.dos.thermo import log_multinomial, log_total_states
from repro.experiments.common import estimate_energy_range
from repro.hamiltonians import KB_EV_PER_K, IsingHamiltonian, NbMoTaWHamiltonian
from repro.lattice import bcc, equiatomic_counts, random_configuration, square_lattice
from repro.nn import MADE, MADEConfig
from repro.obs import (
    ConvergenceConfig,
    EventLog,
    HealthConfig,
    Instrumentation,
    JsonlSink,
    Telemetry,
    TimeSeriesConfig,
)
from repro.parallel import REWLConfig, REWLDriver, load_checkpoint, save_checkpoint
from repro.proposals import FlipProposal, MADEProposal, MixtureProposal, SwapProposal
from repro.resilience import ResilienceConfig
from repro.sampling import EnergyGrid, MetropolisSampler, WLConfig, make_wang_landau
from repro.training import ProposalTrainer, ReplayBuffer
from repro.util.rng import RngFactory

from tracing import (
    CALLS,
    CHILD,
    DL_METHODS,
    HAM_METHODS,
    INCL,
    LOCAL_METHODS,
    MODEL_METHODS,
    ROWS,
    ZERO,
)

__all__ = ["WORKLOADS", "Options", "Outcome", "PER_LAYER", "warm_oracles"]


@dataclass
class Options:
    """Per-invocation switches shared by every campaign of a run."""

    workdir: Path
    smoke: bool = False
    max_rounds: int = 20_000  # non-convergence within this many = failure


@dataclass
class Outcome:
    """What one campaign produced."""

    ok: bool
    reason: str
    steps: int
    digest: str
    dos_error: float
    setup_s: float = 0.0
    run_s: float = 0.0    # wall clock of run()
    post_s: float = 0.0   # stitch + normalise + thermodynamic table
    layers: dict = field(default_factory=dict)

    @property
    def solve_s(self) -> float:
        """Time to DoS: from calling run() to holding ln g and the table."""
        return self.run_s + self.post_s

    @property
    def steps_per_s(self) -> float:
        return self.steps / self.run_s if self.run_s > 0 else 0.0


def _digest(arrays, *counts) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr(tuple(int(c) for c in counts)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------- oracles

ISING_TEMPS = np.linspace(1.6, 3.4, 13)
HEA_TEMPS = np.arange(1000.0, 6000.0 + 1e-9, 25.0)
HEA_TC_K = 3100.0


@lru_cache(maxsize=None)
def _kaufman_c_per_site(length: int) -> np.ndarray:
    n = length * length
    return np.array(
        [exact_ising_specific_heat(length, length, t) for t in ISING_TEMPS]
    ) / n


@lru_cache(maxsize=None)
def _exact_ln_g_4x4() -> dict[float, float]:
    levels, degens = exact_ising_dos_bruteforce(4)
    return {float(e): float(np.log(d)) for e, d in zip(levels, degens)}


def warm_oracles() -> None:
    """Compute the exact references once, before any clock starts."""
    _kaufman_c_per_site(IsingFused.length)
    _exact_ln_g_4x4()


def _hot_path_layers(totals, tables, sites_per_move, wall, lanes=1) -> dict:
    """``kernels.*`` and ``proposals.draw_*`` from the proxies' totals.

    ``lanes`` ranks run concurrently, so their busy seconds are spread over
    that many lanes when set against ``wall``.
    """
    de = totals.get("kernels.delta_e", ZERO)
    draw = totals.get("proposals.draw", ZERO)
    draw_s = draw[INCL] - draw[CHILD]
    row_bytes = sites_per_move * tables.cat_table.shape[1] * (
        tables.cat_table.itemsize + 1 + tables.diff_rows.itemsize
    )
    return {
        "kernels.delta_e_s": de[INCL],
        "kernels.delta_e_calls": de[CALLS],
        "kernels.delta_e_rows": de[ROWS],
        "kernels.delta_e_ns_per_row": de[INCL] / max(de[ROWS], 1) * 1e9,
        "kernels.delta_e_bytes_computed": de[ROWS] * row_bytes,
        "kernels.delta_e_share": de[INCL] / lanes / wall,
        "kernels.table_bytes": tables.cat_table.nbytes + tables.diff_rows.nbytes,
        "proposals.draw_s": draw_s,
        "proposals.draw_calls": draw[CALLS],
        "proposals.draw_share": draw_s / lanes / wall,
    }


def _sampling_layers(commit_s, steps, iterations, counters, wall, lanes=1) -> dict:
    """``sampling.*``: the sampler's own time and its event counters."""
    proposals = max(sum(c.proposals for c in counters), 1)
    return {
        "sampling.commit_ns_per_step": commit_s / steps * 1e9,
        "sampling.round_self_share": commit_s / lanes / wall,
        "sampling.accept_ratio": sum(c.accepted for c in counters) / proposals,
        "sampling.out_of_grid_ratio": sum(c.out_of_grid for c in counters) / proposals,
        "sampling.steps_to_dos": steps,
        "sampling.wl_iterations": iterations,
    }


# ------------------------------------------------------------ REWL family


class RewlWorkload:
    """A 4-window replica-exchange Wang-Landau campaign."""

    name = ""
    why = ""
    backend = "fused"
    shm_ranks = None
    ops = False          # production wiring: telemetry, health, ..., checkpoints
    reference = None     # workload whose ln g digest this one must reproduce
    proposal = FlipProposal
    sites_per_move = 1
    walkers = 16
    ln_f_final = 1e-4
    smoke_ln_f_final = 1e-2
    tolerance = 0.0
    smoke_tolerance = 0.0
    #: nominal time to DoS of one campaign on the reference box: a run that
    #: measures for S seconds holds int(S / campaign_s) campaigns
    campaign_s = 1.0

    # -- per-system hooks --------------------------------------------------

    def system(self, seed: int, tr):
        """-> (hamiltonian, grid, initial_config, ln(total states))."""
        raise NotImplementedError

    def dos_error(self, ham, energies, ln_g) -> float:
        raise NotImplementedError

    def extra_checks(self, stitched, smoke: bool) -> str:
        return ""

    # -- campaign ----------------------------------------------------------

    def setup(self, seed: int, tr, opts: Options):
        ham, grid, cfg0, log_total = self.system(seed, tr)
        cfg = REWLConfig(
            n_windows=4, walkers_per_window=self.walkers, overlap=0.6,
            exchange_interval=200, flatness=0.8, seed=seed,
            ln_f_final=self.smoke_ln_f_final if opts.smoke else self.ln_f_final,
            backend=self.backend, shm_ranks=self.shm_ranks,
            checkpoint_interval=25 if self.ops else 0,
        )
        wiring: dict = {}
        telemetry = sink_path = None
        if self.ops:
            cdir = opts.workdir / f"campaign-{seed}"
            cdir.mkdir(parents=True, exist_ok=True)
            sink_path = cdir / "trace.jsonl"
            telemetry = Telemetry(
                events=EventLog(run_id=self.name, sinks=[JsonlSink(sink_path)])
            )
            wiring = dict(
                instrumentation=Instrumentation(
                    telemetry=telemetry, health=HealthConfig(),
                    convergence=ConvergenceConfig(), timeseries=TimeSeriesConfig(),
                ),
                resilience=ResilienceConfig(),
                checkpoint_path=cdir / "campaign.ckpt",
            )
        make = self.proposal
        factory = (lambda: tr.wrap(make(), LOCAL_METHODS)) if tr.enabled else make
        with tr.span("parallel.init"):
            driver = REWLDriver(
                hamiltonian=tr.wrap(ham, HAM_METHODS), proposal_factory=factory,
                grid=grid, initial_config=cfg0, config=cfg, **wiring,
            )
        return dict(ham=ham, grid=grid, log_total=log_total, driver=driver,
                    telemetry=telemetry, sink_path=sink_path)

    def solve(self, c, tr, opts: Options) -> Outcome:
        driver = c["driver"]
        layers: dict = {}
        try:
            if tr.enabled:
                tr.stats.reset()
            t0 = perf_counter()
            if tr.enabled:
                res, info = _run_by_rounds(driver, tr, opts.max_rounds)
            else:
                res, info = driver.run(max_rounds=opts.max_rounds), None
            t_run = perf_counter()
            steps = int(res.total_steps)
            digest = _digest(res.window_ln_g, steps, res.rounds)
            if not res.converged:
                return Outcome(False, f"not converged in {res.rounds} rounds",
                               steps, digest, float("inf"), run_s=t_run - t0)
            with tr.span("dos.stitch"):
                st = res.stitched()
            with tr.span("dos.thermo"):
                ln_g = normalize_ln_g(st.ln_g, c["log_total"])
                err = self.dos_error(
                    c["ham"], c["grid"].centers[st.visited], ln_g[st.visited]
                )
            t_end = perf_counter()
            if self.ops:
                layers["obs.trace_bytes"] = c["sink_path"].stat().st_size
            if tr.enabled:
                # Probes run on the finished campaign, outside every clock;
                # the checkpoint-load probe rebinds the teams, so it is last.
                totals = tr.stats.snapshot()
                commit_ns = _commit_probe(driver, tr)
                if self.ops:
                    layers.update(_ops_probes(driver, c["sink_path"].parent))
        finally:
            driver.close()
            if c["telemetry"] is not None:
                c["telemetry"].close()
                shutil.rmtree(c["sink_path"].parent, ignore_errors=True)
        tol = self.smoke_tolerance if opts.smoke else self.tolerance
        reason = self.extra_checks(st, opts.smoke)
        if not reason and not err <= tol:
            reason = f"dos_error {err:.4g} above tolerance {tol}"
        if tr.enabled:
            # Worker ranks dump their totals as they exit, i.e. in close().
            tr.stats.collect_dumps(totals)
            layers.update(self._layers(c, totals, res, st, info, err, commit_ns))
            if self.ops:
                layers["obs.per_round_share"] = sum(
                    layers[f"obs.{hook}_observe_s"]
                    for hook in ("convergence", "health", "timeseries")
                ) / layers["parallel.round_s_p50"]
        return Outcome(not reason, reason, steps, digest, float(err),
                       run_s=t_run - t0, post_s=t_end - t_run, layers=layers)

    # -- per-layer numbers of one traced campaign --------------------------

    def _layers(self, c, totals, res, st, info, err, commit_ns) -> dict:
        walls = np.asarray(info["walls"])
        run_wall = float(walls.sum())
        steps = int(res.total_steps)
        lanes = self.shm_ranks if self.backend == "shm" else 1
        commit_s = commit_ns * 1e-9 * steps
        hot = _hot_path_layers(totals, c["ham"].tables, self.sites_per_move,
                               run_wall, lanes)
        sampling = _sampling_layers(
            commit_s, steps, int(sum(res.window_iterations)),
            [w.counters for w in res.walkers], run_wall, lanes,
        )
        window_steps = np.zeros(len(res.windows))
        for w in res.walkers:
            window_steps[w.window] += w.n_steps
        attempts = int(res.exchange_attempts.sum())
        return {
            **hot, **sampling,
            "parallel.rounds": int(res.rounds),
            "parallel.round_s_p50": float(np.percentile(walls, 50)),
            "parallel.round_s_p95": float(np.percentile(walls, 95)),
            "parallel.exchange_attempts": attempts,
            "parallel.exchange_accept_ratio": (
                int(res.exchange_accepts.sum()) / max(attempts, 1)
            ),
            "parallel.window_imbalance": float(
                window_steps.max() / window_steps.mean()
            ),
            "parallel.tail_frac": (
                (info["end"] - info["first_converged"]) / (info["end"] - info["begin"])
            ),
            # the round wall the three busy times leave: interpreter,
            # exchange, sync, observers, waiting for the slower rank
            "parallel.residual_share": 1.0 - (
                hot["kernels.delta_e_share"] + hot["proposals.draw_share"]
                + sampling["sampling.round_self_share"]
            ),
            "dos.joint_residual_max": float(np.max(st.joint_residuals)),
            "dos.span_frac": st.span / c["log_total"],
            "dos_error": float(err),
        }


def _run_by_rounds(driver, tr, max_rounds: int):
    """Step the campaign one round per ``run()`` call, one span per round."""
    walls: list[float] = []
    first_converged = None
    begin = perf_counter()
    while True:
        before = tr.stats.snapshot()
        steps0 = driver.total_steps()
        with tr.span("parallel.round", round=driver.rounds) as sp:
            res = driver.run(max_rounds=driver.rounds + 1)
        spent = tr.stats.since(before)
        sp["steps"] = driver.total_steps() - steps0
        sp["delta_e_s"] = spent.get("kernels.delta_e", ZERO)[INCL]
        sp["draw_s"] = spent.get("proposals.draw", ZERO)[INCL]
        walls.append(sp["end"] - sp["start"])
        if first_converged is None and any(driver.window_converged):
            first_converged = sp["end"]
        if res.converged or driver.rounds >= max_rounds:
            end = perf_counter()
            return res, dict(
                walls=walls, begin=begin, end=end,
                first_converged=end if first_converged is None else first_converged,
            )


def _commit_probe(driver, tr, super_steps: int = 100) -> float:
    """ns per walker step of the sampler's own work (accept/reject + commit).

    A copy of each finished window team takes ``super_steps`` stand-alone
    super-steps; what the proxied ΔE and draw calls do not cover is the
    sampling layer's self time.  Median over the windows.
    """
    per_step = []
    for team in driver.walkers:
        probe = copy.deepcopy(team[0], memo={id(tr.stats): tr.stats})
        before = tr.stats.snapshot()
        t0 = perf_counter()
        probe.steps(super_steps)
        wall = perf_counter() - t0
        covered = tr.stats.top_level_seconds(tr.stats.since(before))
        per_step.append((wall - covered) / (super_steps * probe.n_slots) * 1e9)
    return median(per_step)


def _ops_probes(driver, cdir: Path, calls: int = 200) -> dict:
    """Cost of each wired-in public hook, called on the finished driver.

    The observers sample on a stride of ``driver.rounds``, so the round
    counter is walked through ``calls`` values to get the amortised
    per-round cost; it is restored afterwards.
    """
    rounds = driver.rounds

    def per_round(hook) -> float:
        t0 = perf_counter()
        for i in range(calls):
            driver.rounds = rounds + i
            hook(driver)
        driver.rounds = rounds
        return (perf_counter() - t0) / calls

    out = {
        "obs.convergence_observe_s": per_round(driver.convergence.observe_round),
        "obs.health_observe_s": per_round(driver.health.observe_round),
        "obs.timeseries_observe_s": per_round(driver.timeseries.observe_round),
        "resilience.guard_s": per_round(driver.supervisor.guard_round),
        "resilience.snapshot_s": per_round(driver.supervisor.snapshot),
    }
    path = cdir / "probe.ckpt"
    saves, loads = [], []
    for _ in range(5):
        t0 = perf_counter()
        save_checkpoint(driver, path)
        saves.append(perf_counter() - t0)
    out["parallel.checkpoint_bytes"] = path.stat().st_size
    # Loading swaps unpickled teams (and proxies) into the driver: last probe.
    for _ in range(3):
        t0 = perf_counter()
        load_checkpoint(driver, path)
        loads.append(perf_counter() - t0)
    out["parallel.checkpoint_save_s"] = median(saves)
    out["parallel.checkpoint_load_s"] = median(loads)
    return out


class IsingFused(RewlWorkload):
    name = "ising_fused"
    why = ("flip moves price 4 neighbours on 64 rows, so the sampler's per-row "
           "Python commit and the round machinery dominate and kernels do little")
    length = 6
    ln_f_final = 3e-4
    campaign_s = 2.3
    tolerance = 0.35        # max |C/N - Kaufman| over 13 T; worst of 380: 0.22
    smoke_tolerance = 5.0

    def system(self, seed, tr):
        n = self.length ** 2
        with tr.span("lattice.build"):
            lattice = square_lattice(self.length)
        cfg0 = RngFactory(seed).make("init").integers(0, 2, size=n).astype(np.int8)
        with tr.span("hamiltonians.build"):
            ham = IsingHamiltonian(lattice)
            ham.delta_energy_flip_many(cfg0[None], np.array([0]), np.array([1]))
        with tr.span("sampling.grid"):
            grid = EnergyGrid.from_levels(ham.energy_levels())
        return ham, grid, cfg0, log_total_states(n, 2)

    def dos_error(self, ham, energies, ln_g):
        table = thermodynamics(energies, ln_g, ISING_TEMPS)
        c = table.specific_heat / ham.n_sites
        return float(np.max(np.abs(c - _kaufman_c_per_site(self.length))))


class HeaFused(RewlWorkload):
    name = "hea_fused"
    why = ("the paper's alloy: one 128-row, 2x14-neighbour swap gather per "
           "super-step is the largest kernels share, on a uniform grid, in process")
    proposal = SwapProposal
    sites_per_move = 2
    walkers = 32
    ln_f_final = 2.5e-4
    smoke_ln_f_final = 5e-2
    tolerance = 0.15        # |T_c - 3100 K| / 3100 K; worst of 760: 0.09
    smoke_tolerance = 1.0
    n_bins = 32
    residual_limit = 0.5    # worst of 760: 0.34
    campaign_s = 4.6        # hea_shm_ops keeps it: both solve the same sub-seeds

    def system(self, seed, tr):
        with tr.span("lattice.build"):
            lattice = bcc(3)
        counts = equiatomic_counts(lattice.n_sites, 4)
        cfg0 = random_configuration(lattice.n_sites, counts, rng=seed)
        with tr.span("hamiltonians.build"):
            ham = NbMoTaWHamiltonian(lattice, n_shells=2)
            ham.delta_energy_swap_many(cfg0[None], np.array([0]), np.array([1]))
        with tr.span("sampling.grid"):
            e_lo, e_hi = estimate_energy_range(ham, counts, rng=seed, margin=0.10)
            # The alloy's energies are whole meV; bin edges go on half meV so
            # that no level sits on a window edge.  REWLDriver raises when one
            # does (drive_into_range takes the edge level by its running
            # energy sum, the team refuses it by the recomputed one), which
            # the unsnapped range does on 2 % of seeds.
            lo = np.floor(e_lo * 1000) - 0.5
            width = np.ceil((e_hi * 1000 - lo) / self.n_bins)
            grid = EnergyGrid.uniform(
                lo / 1000, (lo + width * self.n_bins) / 1000, self.n_bins
            )
        return ham, grid, cfg0, log_multinomial(counts)

    def dos_error(self, ham, energies, ln_g):
        table = thermodynamics(energies, ln_g, HEA_TEMPS, kb=KB_EV_PER_K)
        t_c, _ = transition_temperature(HEA_TEMPS, table.specific_heat)
        return abs(t_c - HEA_TC_K) / HEA_TC_K

    def extra_checks(self, stitched, smoke: bool) -> str:
        if not stitched.visited.all():
            return f"{int((~stitched.visited).sum())} bins never visited"
        worst = float(np.max(stitched.joint_residuals))
        if worst > self.residual_limit and not smoke:
            return f"stitch residual {worst:.3g} above {self.residual_limit}"
        return ""


class HeaShmOps(HeaFused):
    name = "hea_shm_ops"
    why = ("the hea_fused campaign bit for bit, but on 2 shared-memory ranks with "
           "telemetry, health, convergence, time series, guards and checkpoints on")
    backend = "shm"
    shm_ranks = 2
    ops = True
    reference = "hea_fused"


# --------------------------------------------------------- DL-mixed WL run


class IsingDlMixed:
    name = "ising_dl_mixed"
    why = ("the deep-learning path: MADE forwards, the log q cache and full "
           "energies dominate a stand-alone batched WL run; no parallel code runs")
    reference = None
    ln_f_final = 3e-3
    smoke_ln_f_final = 1e-1
    tolerance = 1.0         # RMS ln g error; worst of 380: 0.53, no q-ratio: ~7.5
    smoke_tolerance = 50.0
    batch_size = 32
    check_interval = 500
    campaign_s = 1.8
    betas = (0.1, 0.25, 0.4, 0.55)

    def setup(self, seed, tr, opts):
        rngs = RngFactory(seed)
        with tr.span("lattice.build"):
            lattice = square_lattice(4)
        cfg0 = rngs.make("init").integers(0, 2, size=16).astype(np.int8)
        with tr.span("hamiltonians.build"):
            ham = IsingHamiltonian(lattice)
            ham.delta_energy_flip_many(cfg0[None], np.array([0]), np.array([1]))
        with tr.span("sampling.grid"):
            grid = EnergyGrid.from_levels(ham.energy_levels())
        with tr.span("training.harvest"):
            buffer = ReplayBuffer(2048, 16, 2)
            for i, beta in enumerate(self.betas):
                chain = MetropolisSampler(
                    ham, FlipProposal(), beta, cfg0, rng=rngs.make("harvest", i)
                )
                chain.run(200)
                chain.run(128 * 8, callback=lambda s, _k: buffer.add(s.config),
                          callback_every=8)
        with tr.span("training.fit"):
            model = MADE(MADEConfig(n_sites=16, n_species=2, hidden=(96,)),
                         rng=rngs.make("model"))
            trainer = ProposalTrainer(model, buffer, lr=3e-3, batch_size=64,
                                      rng=rngs.make("train"))
            loss = trainer.train_steps(400)["last_loss"]
        dl = MADEProposal(tr.wrap(model, MODEL_METHODS), composition="free")
        mixture = MixtureProposal([
            (tr.wrap(FlipProposal(), LOCAL_METHODS), 0.7),
            (tr.wrap(dl, DL_METHODS), 0.3),
        ])
        sampler = make_wang_landau(
            hamiltonian=tr.wrap(ham, HAM_METHODS), proposal=mixture, grid=grid,
            initial_config=cfg0, rng=rngs.make("wl"),
            config=WLConfig(
                batch_size=self.batch_size, check_interval=self.check_interval,
                ln_f_final=self.smoke_ln_f_final if opts.smoke else self.ln_f_final,
            ),
        )
        return dict(ham=ham, grid=grid, sampler=sampler, loss=float(loss))

    def solve(self, c, tr, opts) -> Outcome:
        sampler, grid = c["sampler"], c["grid"]
        max_steps = opts.max_rounds * self.check_interval  # a round = one flatness check
        if tr.enabled:
            tr.stats.reset()
        t0 = perf_counter()
        res = sampler.run(max_steps=max_steps)
        t_run = perf_counter()
        steps = int(res.n_steps)
        digest = _digest([res.ln_g], steps, res.n_iterations)
        if not res.converged:
            return Outcome(False, f"not converged in {steps} steps", steps,
                           digest, float("inf"), run_s=t_run - t0)
        log_total = log_total_states(16, 2)
        with tr.span("dos.thermo"):
            ln_g = normalize_ln_g(res.masked_ln_g(), log_total)
            thermodynamics(grid.centers[res.visited], ln_g[res.visited], ISING_TEMPS)
            exact = _exact_ln_g_4x4()
            seen = {float(e): float(v) for e, v in
                    zip(grid.centers[res.visited], ln_g[res.visited])}
            err = float(np.sqrt(np.mean(
                [(seen.get(e, -np.inf) - v) ** 2 for e, v in exact.items()]
            )))
        t_end = perf_counter()
        tol = self.smoke_tolerance if opts.smoke else self.tolerance
        reason = "" if err <= tol else f"dos_error {err:.4g} above tolerance {tol}"
        layers = {}
        if tr.enabled:
            layers = self._layers(c, tr, res, t_run - t0, ln_g, log_total, err)
        return Outcome(not reason, reason, steps, digest, err,
                       run_s=t_run - t0, post_s=t_end - t_run, layers=layers)

    def _layers(self, c, tr, res, run_wall, ln_g, log_total, err) -> dict:
        totals = tr.stats.snapshot()
        dl = totals.get("proposals.dl", ZERO)
        sample = totals.get("nn.sample", ZERO)
        log_prob = totals.get("nn.log_prob", ZERO)
        energies = totals.get("hamiltonians.energies", ZERO)
        # what the proxied proposals do not cover is the sampler's own time
        commit_s = run_wall - tr.stats.top_level_seconds(totals)
        finite = ln_g[np.isfinite(ln_g)]
        return {
            **_hot_path_layers(totals, c["ham"].tables, 1, run_wall),
            **_sampling_layers(commit_s, int(res.n_steps), int(res.n_iterations),
                               [res.counters], run_wall),
            "proposals.dl_s": dl[INCL],
            "proposals.dl_rows": dl[ROWS],
            "proposals.dl_share": dl[INCL] / run_wall,
            # Every DL row needs log q of its current configuration; only
            # the rows the cache misses reach the model's log_prob.
            "proposals.logq_cache_hit_ratio": (
                1.0 - log_prob[ROWS] / max(dl[ROWS], 1)
            ),
            "nn.sample_s": sample[INCL],
            "nn.log_prob_s": log_prob[INCL],
            # computed: one forward per site per sample() call, one per log_prob()
            "nn.forward_calls": sample[CALLS] * 16 + log_prob[CALLS],
            "hamiltonians.energies_s": energies[INCL],
            "hamiltonians.energies_rows": energies[ROWS],
            "training.final_loss": c["loss"],
            "dos.span_frac": float(finite.max() - finite.min()) / log_total,
            "dos_error": float(err),
        }


WORKLOADS = {w.name: w for w in (IsingFused(), HeaFused(), HeaShmOps(), IsingDlMixed())}

#: name -> (unit, better); the order BENCHMARK.json lists them in.  A layer
#: a workload never enters reads 0 there.  Counts repeat exactly at a seed.
PER_LAYER = {
    "kernels.delta_e_s": ("s", "lower"),
    "kernels.delta_e_calls": ("count", "lower"),
    "kernels.delta_e_rows": ("count", "lower"),
    "kernels.delta_e_ns_per_row": ("ns", "lower"),
    "kernels.delta_e_bytes_computed": ("B", "lower"),
    "kernels.delta_e_share": ("ratio", "lower"),
    "kernels.table_bytes": ("B", "lower"),
    "proposals.draw_s": ("s", "lower"),
    "proposals.draw_calls": ("count", "lower"),
    "proposals.draw_share": ("ratio", "lower"),
    "proposals.dl_s": ("s", "lower"),
    "proposals.dl_rows": ("count", "lower"),
    "proposals.dl_share": ("ratio", "lower"),
    "proposals.logq_cache_hit_ratio": ("ratio", "higher"),
    "sampling.commit_ns_per_step": ("ns", "lower"),
    "sampling.round_self_share": ("ratio", "lower"),
    "sampling.accept_ratio": ("ratio", "higher"),
    "sampling.out_of_grid_ratio": ("ratio", "lower"),
    "sampling.steps_to_dos": ("count", "lower"),
    "sampling.wl_iterations": ("count", "lower"),
    "sampling.grid_s": ("s", "lower"),
    "parallel.init_s": ("s", "lower"),
    "parallel.rounds": ("count", "lower"),
    "parallel.round_s_p50": ("s", "lower"),
    "parallel.round_s_p95": ("s", "lower"),
    "parallel.exchange_attempts": ("count", "lower"),
    "parallel.exchange_accept_ratio": ("ratio", "higher"),
    "parallel.window_imbalance": ("ratio", "lower"),
    "parallel.tail_frac": ("ratio", "lower"),
    "parallel.residual_share": ("ratio", "lower"),
    "parallel.rank_speedup": ("ratio", "higher"),
    "parallel.checkpoint_save_s": ("s", "lower"),
    "parallel.checkpoint_load_s": ("s", "lower"),
    "parallel.checkpoint_bytes": ("B", "lower"),
    "obs.convergence_observe_s": ("s", "lower"),
    "obs.health_observe_s": ("s", "lower"),
    "obs.timeseries_observe_s": ("s", "lower"),
    "obs.trace_bytes": ("B", "lower"),
    "obs.per_round_share": ("ratio", "lower"),
    "resilience.guard_s": ("s", "lower"),
    "resilience.snapshot_s": ("s", "lower"),
    "nn.sample_s": ("s", "lower"),
    "nn.log_prob_s": ("s", "lower"),
    "nn.forward_calls": ("count", "lower"),
    "hamiltonians.energies_s": ("s", "lower"),
    "hamiltonians.energies_rows": ("count", "lower"),
    "hamiltonians.build_s": ("s", "lower"),
    "lattice.build_s": ("s", "lower"),
    "training.harvest_s": ("s", "lower"),
    "training.fit_s": ("s", "lower"),
    "training.final_loss": ("nats", "lower"),
    "dos.stitch_s": ("s", "lower"),
    "dos.thermo_s": ("s", "lower"),
    "dos.joint_residual_max": ("lng", "lower"),
    "dos.span_frac": ("ratio", "higher"),
    "machine.calib_gather_ns": ("ns", "lower"),
    "machine.calib_pyloop_ns": ("ns", "lower"),
    "machine.calib_drift": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "dos_error": ("err", "lower"),
    "failed_frac": ("ratio", "lower"),
}
