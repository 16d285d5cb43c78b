"""Telemetry overhead: the no-op bundle must not tax the WL hot loop.

The obs subsystem's performance contract is that a disabled
:class:`repro.obs.Telemetry` (null event sink) costs <3% of Wang-Landau
step throughput versus entirely uninstrumented code, because the step loop
only touches plain integer counters and ``emit`` bails on one boolean.
A JSONL-sink run is benchmarked alongside for the real cost of tracing.

Run: ``pytest benchmarks/bench_obs_overhead.py --benchmark-only``.
"""

import numpy as np

from repro.obs import (
    ConvergenceConfig,
    ConvergenceLedger,
    Instrumentation,
    JsonlSink,
    SectionProfiler,
    Telemetry,
)
from repro.obs.events import EventLog
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import FlipProposal
from repro.sampling import EnergyGrid

_BLOCK = 20_000  # WL steps per benchmark round


def bench_wl_steps_bare(benchmark, make_ising_wl, throughput):
    """Baseline: the raw step path, no telemetry object anywhere."""
    wl = make_ising_wl(ln_f_final=1e-12)  # never converges inside the bench
    throughput(_BLOCK)

    def block():
        wl.steps(_BLOCK)
        return wl.n_steps

    assert benchmark(block) >= _BLOCK


def bench_wl_run_null_telemetry(benchmark, make_ising_wl, throughput):
    """run() with the disabled default Telemetry — the <3% overhead target."""
    wl = make_ising_wl(ln_f_final=1e-12)
    throughput(_BLOCK)
    tel = Telemetry()
    assert not tel.enabled

    def block():
        wl.run(max_steps=wl.n_steps + _BLOCK, telemetry=tel)
        return wl.n_steps

    assert benchmark(block) >= _BLOCK


def bench_wl_steps_profiled(benchmark, make_ising_wl, throughput):
    """The step path with a live sampling profiler (default stride).

    The profiler's overhead contract: it observes the same compiled block,
    timing the field draw and the block once per call, so this stays
    within a few percent of ``bench_wl_steps_bare``.
    """
    wl = make_ising_wl(ln_f_final=1e-12)
    wl.enable_profiling(SectionProfiler())
    throughput(_BLOCK)

    def block():
        wl.steps(_BLOCK)
        return wl.n_steps

    assert benchmark(block) >= _BLOCK


def bench_wl_run_jsonl_telemetry(benchmark, make_ising_wl, throughput,
                                 tmp_path_factory):
    """run() with a live JSONL sink — what a traced run actually costs."""
    wl = make_ising_wl(ln_f_final=1e-12)
    throughput(_BLOCK)
    trace = tmp_path_factory.mktemp("obs") / "bench.jsonl"
    tel = Telemetry(events=EventLog(run_id="bench", sinks=[JsonlSink(trace)]))

    def block():
        wl.run(max_steps=wl.n_steps + _BLOCK, telemetry=tel)
        return wl.n_steps

    assert benchmark(block) >= _BLOCK
    tel.close()


def bench_rewl_round_null_telemetry(benchmark, ising_4x4):
    """One REWL advance+exchange+sync round with disabled telemetry."""
    grid = EnergyGrid.from_levels(ising_4x4.energy_levels())
    driver = REWLDriver(
        hamiltonian=ising_4x4, proposal_factory=lambda: FlipProposal(),
        grid=grid, initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                   exchange_interval=1_000, ln_f_final=1e-12, seed=0),
        instrumentation=Instrumentation(telemetry=Telemetry()),
    )

    def one_round():
        driver._advance_phase()
        driver.rounds += 1
        driver._exchange_phase()
        driver._sync_phase()
        return driver.rounds

    assert benchmark(one_round) >= 1


def bench_rewl_round_ledger(benchmark, ising_4x4):
    """One REWL round with the ConvergenceLedger sampling *every* round.

    Worst-case diagnostics cost (production default strides every 10th
    round); gated in CI against the baseline alongside the other
    bench_obs_overhead entries.
    """
    grid = EnergyGrid.from_levels(ising_4x4.energy_levels())
    driver = REWLDriver(
        hamiltonian=ising_4x4, proposal_factory=lambda: FlipProposal(),
        grid=grid, initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                   exchange_interval=1_000, ln_f_final=1e-12, seed=0),
        instrumentation=Instrumentation(
            telemetry=Telemetry(),
            convergence=ConvergenceLedger(ConvergenceConfig(sample_every=1)),
        ),
    )

    def one_round():
        driver._advance_phase()
        driver.rounds += 1
        driver._exchange_phase()
        driver._sync_phase()
        driver.convergence.observe_round(driver)
        return driver.rounds

    assert benchmark(one_round) >= 1


def bench_rewl_round_timeseries_served(benchmark, ising_4x4):
    """One REWL round with the TimeSeriesRecorder sampling *every* round
    while the HTTP status server is up and scraped once per round.

    Worst-case live-telemetry cost: the production default strides every
    5th round and Prometheus scrapes every 15-60 s, which amortizes this
    to ≤2% of ``bench_rewl_round_null_telemetry``.  Gated in CI against
    the baseline with the other bench_obs_overhead entries.
    """
    import urllib.request

    from repro.obs.server import StatusServer
    from repro.obs.timeseries import TimeSeriesConfig, TimeSeriesRecorder

    grid = EnergyGrid.from_levels(ising_4x4.energy_levels())
    recorder = TimeSeriesRecorder(TimeSeriesConfig(sample_every=1))
    driver = REWLDriver(
        hamiltonian=ising_4x4, proposal_factory=lambda: FlipProposal(),
        grid=grid, initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                   exchange_interval=1_000, ln_f_final=1e-12, seed=0),
        instrumentation=Instrumentation(telemetry=Telemetry(),
                                        timeseries=recorder),
    )
    server = StatusServer(port=0).start()
    server.board.publish_recorder(recorder)

    def one_round():
        driver._advance_phase()
        driver.rounds += 1
        driver._exchange_phase()
        driver._sync_phase()
        driver.timeseries.observe_round(driver)
        with urllib.request.urlopen(server.url + "/metrics", timeout=5) as r:
            r.read()
        return driver.rounds

    assert benchmark(one_round) >= 1
    server.stop()
