"""Structured run telemetry: metrics, spans, and JSONL event traces.

DeepThermo's claims are operational — time-to-flat-histogram, exchange
acceptance, walker throughput — so the reproduction carries a telemetry
layer wired through the sampling stack:

- :mod:`repro.obs.metrics` — picklable, mergeable counters / gauges /
  histograms (per-walker metrics survive process boundaries and reduce
  across windows),
- :mod:`repro.obs.tracing` — nestable spans with per-path aggregates; also
  home of ``Timer``/``TimerRegistry``,
- :mod:`repro.obs.events` — newline-delimited JSON event records behind
  swappable sinks (no-op by default),
- :mod:`repro.obs.report` — ``python -m repro.obs.report trace.jsonl``
  renders per-phase time/throughput breakdowns from a trace,
- :mod:`repro.obs.profile` — deterministic counter-sampled section profiler
  hooked into the ΔE / proposal / histogram-update / exchange hot paths,
- :mod:`repro.obs.sample` — :class:`RoundSample`, the one record of a REWL
  round boundary that the driver builds (at most once per round, on the
  union of the observers' strides) and that the health monitor, the
  convergence ledger and the time series consume; none of them reads a
  walker team or the clock,
- :mod:`repro.obs.health` — heartbeats and stall/anomaly detection for long
  REWL campaigns (``REPRO_HEALTH``),
- :mod:`repro.obs.bench` — BENCH_<n>.json benchmark snapshots and
  regression comparison (``python -m repro obs bench / bench-compare``),
- :mod:`repro.obs.dash` — ``python -m repro obs dash / tail`` terminal
  views over a live JSONL trace,
- :mod:`repro.obs.convergence` — per-window/per-walker scientific
  diagnostics (flatness, ln g drift, replica round trips, ETA) behind the
  same deterministic-stride contract (``REPRO_CONVERGENCE``),
- :mod:`repro.obs.chrometrace` — ``python -m repro obs export-trace``
  merges per-worker JSONL traces (``REPRO_TRACE_DIR``) into one Chrome
  trace-event timeline,
- :mod:`repro.obs.timeseries` — deterministic ring-buffered live series
  sampled at round boundaries (``REPRO_TIMESERIES``), plus the
  cross-process worker-series aggregator,
- :mod:`repro.obs.promexport` — OpenMetrics/Prometheus text exposition of
  a metrics snapshot,
- :mod:`repro.obs.server` — read-only HTTP status server (``/metrics``,
  ``/healthz``, ``/campaign``, ``/events``; ``REPRO_OBS_PORT`` /
  ``run_all --serve``),
- :mod:`repro.obs.costattr` — wall-clock cost attribution: profiler
  sections folded into the propose/ΔE/commit/exchange/... phase tree.

:class:`Telemetry` bundles the three runtime pieces behind one handle that
drivers accept as an optional argument.  The determinism contract: enabling
telemetry never draws random numbers and never accumulates floats into
sampler state, so instrumented runs are bit-identical to bare ones.
"""

from __future__ import annotations

from repro.obs.chrometrace import merge_traces, to_chrome
from repro.obs.costattr import attribute_cost, format_cost_line, publish_cost
from repro.obs.convergence import (
    CONVERGENCE_ENV_VAR,
    ConvergenceConfig,
    ConvergenceLedger,
)
from repro.obs.events import (
    ConsoleSink,
    EventLog,
    EventSink,
    FileSink,
    JsonlSink,
    MemorySink,
    NullSink,
    SCHEMA_VERSION,
    TRACE_DIR_ENV_VAR,
    TRACE_ENV_VAR,
    TRACE_FSYNC_ENV_VAR,
    event_field,
    from_env,
    worker_log,
)
from repro.obs.instrumentation import Instrumentation
from repro.obs.health import (
    HEALTH_ENV_VAR,
    HealthConfig,
    HealthMonitor,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_registries,
)
from repro.obs.profile import (
    PROFILE_ENV_VAR,
    SectionProfiler,
    SectionStat,
    profile_from_env,
)
from repro.obs.promexport import render_openmetrics
from repro.obs.sample import RoundSample, WindowSample
from repro.obs.server import (
    OBS_PORT_ENV_VAR,
    StatusBoard,
    StatusServer,
    get_board,
    server_from_env,
    start_server,
    stop_server,
)
from repro.obs.timeseries import (
    TIMESERIES_ENV_VAR,
    SeriesBuffer,
    TimeSeriesConfig,
    TimeSeriesRecorder,
    aggregate_worker_series,
)
from repro.obs.tracing import Span, Timer, TimerRegistry, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_registries",
    "Span",
    "Timer",
    "TimerRegistry",
    "Tracer",
    "ConsoleSink",
    "EventLog",
    "EventSink",
    "FileSink",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "SCHEMA_VERSION",
    "TRACE_DIR_ENV_VAR",
    "TRACE_ENV_VAR",
    "TRACE_FSYNC_ENV_VAR",
    "event_field",
    "from_env",
    "worker_log",
    "merge_traces",
    "to_chrome",
    "CONVERGENCE_ENV_VAR",
    "ConvergenceConfig",
    "ConvergenceLedger",
    "Instrumentation",
    "RoundSample",
    "WindowSample",
    "Telemetry",
    "HEALTH_ENV_VAR",
    "HealthConfig",
    "HealthMonitor",
    "PROFILE_ENV_VAR",
    "SectionProfiler",
    "SectionStat",
    "profile_from_env",
    "TIMESERIES_ENV_VAR",
    "SeriesBuffer",
    "TimeSeriesConfig",
    "TimeSeriesRecorder",
    "aggregate_worker_series",
    "render_openmetrics",
    "OBS_PORT_ENV_VAR",
    "StatusBoard",
    "StatusServer",
    "get_board",
    "server_from_env",
    "start_server",
    "stop_server",
    "attribute_cost",
    "format_cost_line",
    "publish_cost",
]


class Telemetry:
    """One handle bundling a metrics registry, a tracer, and an event log.

    ``Telemetry()`` is fully disabled (null event log) and cheap enough to
    be every driver's default.  ``Telemetry.from_env(run_id=...)`` attaches
    a JSONL or console sink when ``REPRO_TRACE`` is set.
    """

    def __init__(self, metrics: MetricsRegistry | None = None,
                 events: EventLog | None = None, run_id: str | None = None):
        self.events = events if events is not None else EventLog(run_id=run_id)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = Tracer(events=self.events)

    @classmethod
    def from_env(cls, run_id: str | None = None, extra_sinks=()) -> "Telemetry":
        return cls(events=from_env(run_id=run_id, extra_sinks=extra_sinks))

    @property
    def enabled(self) -> bool:
        """True when at least one event sink is live."""
        return self.events.enabled

    def span(self, name: str, **fields) -> Span:
        return self.tracer.span(name, **fields)

    def emit(self, kind: str, **fields) -> None:
        self.events.emit(kind, **fields)

    def summary(self) -> dict:
        """JSON-ready snapshot: run id + span aggregates + metrics."""
        return {
            "run_id": self.events.run_id,
            "spans": self.tracer.as_dict(),
            "metrics": self.metrics.as_dict(),
        }

    def close(self) -> None:
        self.events.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
