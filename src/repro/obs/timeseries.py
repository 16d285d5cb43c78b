"""Deterministic in-process time series for live campaign telemetry.

Everything observability built before this module is either *cumulative*
(metrics registry, profiler) or *post-hoc* (JSONL traces digested after the
run).  :class:`TimeSeriesRecorder` is the live middle: at round boundaries
it takes the driver's :class:`~repro.obs.sample.RoundSample` — per-window
ln f / flatness / fill, campaign step counters, the
:class:`~repro.obs.convergence.ConvergenceLedger` ETA and resilience
dispositions — into fixed-capacity :class:`SeriesBuffer` rings, and
republishes the latest values as *labeled* gauges in the metrics registry so
the OpenMetrics exposition (:mod:`repro.obs.promexport`) and the HTTP status
server (:mod:`repro.obs.server`) can serve them without touching sampler
state.

Each round is taken at most once, and the recorder writes only into itself
and the metrics registry, so a recorded (or served) run is bit-identical to
a bare one (tested in ``tests/test_obs_server.py``).  Ring buffers decimate
like the ConvergenceLedger (:class:`SeriesBuffer`).

Cross-process aggregation: when ``REPRO_TRACE_DIR`` is set, worker
processes append ``worker_span`` records to per-pid JSONL files
(:func:`repro.obs.events.worker_log`).  The recorder tails those files
incrementally (:class:`repro.obs.events.JsonlFollower`) and folds them into
campaign-level series keyed by ``(window, walker)`` — advance seconds and
walker throughput per lane;  :func:`aggregate_worker_series` is the
standalone post-hoc spelling of the same fold.

Environment wiring: ``REPRO_TIMESERIES=1`` (or ``"every=5,max=512"``)
attaches a recorder to any REWL entry point; serving (``REPRO_OBS_PORT`` /
``run_all --serve``) implies one.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import ClassVar

from repro.obs.events import TRACE_DIR_ENV_VAR, JsonlFollower, event_field
from repro.obs.sample import RoundSample
from repro.util.validation import EnvSpec, check_integer

__all__ = [
    "TIMESERIES_ENV_VAR",
    "SeriesBuffer",
    "TimeSeriesConfig",
    "TimeSeriesRecorder",
    "aggregate_worker_series",
]

TIMESERIES_ENV_VAR = "REPRO_TIMESERIES"


@dataclass(frozen=True)
class TimeSeriesConfig(EnvSpec):
    """Sampling cadence and retention for :class:`TimeSeriesRecorder`.

    ``sample_every`` is a round stride; ``max_samples`` bounds every series
    (every-other decimation on overflow, the ConvergenceLedger scheme).
    """

    ENV_VAR: ClassVar[str] = TIMESERIES_ENV_VAR
    SPEC_KEYS: ClassVar[dict[str, str]] = {
        "every": "sample_every", "sample_every": "sample_every",
        "max": "max_samples", "max_samples": "max_samples",
    }

    sample_every: int = 5
    max_samples: int = 512

    def __post_init__(self):
        check_integer("sample_every", self.sample_every, minimum=1)
        check_integer("max_samples", self.max_samples, minimum=4)


class SeriesBuffer:
    """Fixed-capacity ``(x, value)`` series with every-other decimation.

    ``x`` is whatever the producer samples against (round number here).
    Appends past ``capacity`` drop every other old sample, keeping the
    newest — deterministic in the append count alone, so two runs that
    append the same values decimate to the same retained set.
    """

    __slots__ = ("capacity", "samples")

    def __init__(self, capacity: int = 512):
        check_integer("capacity", capacity, minimum=4)
        self.capacity = int(capacity)
        self.samples: list[tuple] = []

    def append(self, x, value) -> None:
        self.samples.append((x, value))
        if len(self.samples) > self.capacity:
            # Drop every other old sample, keeping the newest (mirrors
            # ConvergenceLedger._decimate).
            del self.samples[-2::-2]

    def last(self):
        """The newest ``(x, value)`` pair, or None when empty."""
        return self.samples[-1] if self.samples else None

    def values(self) -> list:
        return [v for _, v in self.samples]

    def as_list(self) -> list[list]:
        return [[x, v] for x, v in self.samples]

    def __len__(self) -> int:
        return len(self.samples)


def _labels_key(labels: dict | None) -> tuple:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _series_name(name: str, labels: tuple) -> str:
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class TimeSeriesRecorder:
    """Round-boundary sampler feeding the live-telemetry surface.

    The driver owns the hookup (like the ledger): construction, then
    :meth:`observe_round` once per round and once more, forced, at the end
    of each ``run()``; :meth:`note_cost` lands the end-of-run cost
    attribution.  All mutable state is guarded by a lock so
    the HTTP server thread can render a consistent view while the campaign
    is mid-round — the server only ever reads the recorder's own plain-data
    copies, never live sampler state.
    """

    def __init__(self, config: TimeSeriesConfig | None = None):
        self.cfg = config or TimeSeriesConfig()
        self._lock = threading.Lock()
        self.samples = 0
        self.series: dict[tuple[str, tuple], SeriesBuffer] = {}
        self.latest: dict = {}
        self.metrics_snapshot: dict = {}
        self.cost: dict | None = None
        self.workers: dict[tuple, dict] = {}
        self._followers: dict[str, JsonlFollower] = {}
        self._first: RoundSample | None = None  # the steps/s baseline
        self._round: int | None = None

    # ------------------------------------------------------------- series

    def series_buffer(self, name: str, labels: dict | None = None) -> SeriesBuffer:
        key = (name, _labels_key(labels))
        buf = self.series.get(key)
        if buf is None:
            buf = self.series[key] = SeriesBuffer(self.cfg.max_samples)
        return buf

    def _record(self, name: str, x, value, labels: dict | None = None) -> None:
        self.series_buffer(name, labels).append(x, value)

    # ------------------------------------------------------------ observe

    def observe_round(self, driver, force: bool = False) -> None:
        """Take the driver's round record on the stride (or when forced)."""
        if force or driver.rounds % self.cfg.sample_every == 0:
            self.consume(driver.round_sample(), driver.obs, driver.health)

    def consume(self, sample: RoundSample, telemetry, health=None) -> None:
        """Append a round record to the series and refresh the served view.

        Series points and gauges are taken at most once per round; a repeat
        of the last round (the forced end-of-run call) only refreshes the
        view and the metrics snapshot, which by then holds the cost gauges.
        Writes go to the recorder and ``telemetry.metrics`` only.
        """
        metrics = telemetry.metrics
        windows = [w.row() for w in sample.windows]
        fresh = sample.round != self._round
        lanes = self._fold_workers() if fresh else []
        with self._lock:
            if fresh:
                self._round = sample.round
                self.samples += 1
                self._record_round(sample, windows, lanes, metrics)
            self.latest = {
                "run": telemetry.events.run_id,
                "round": sample.round,
                "updated_ts": sample.wall,
                "updated_mono": sample.mono,
                "steps": sample.steps,
                "converged": all(w.converged for w in sample.windows),
                "degraded": sample.degraded,
                "budget": sample.budget,
                "eta": sample.eta,
                "windows": windows,
                "dispositions": list(sample.dispositions),
                "quarantined": [w.window for w in sample.windows
                                if w.quarantined],
                "heartbeats": health.heartbeats if health is not None else 0,
                "alerts": len(health.alerts) if health is not None else 0,
            }
            self.metrics_snapshot = metrics.as_dict()

    def _record_round(self, sample, windows, lanes, metrics) -> None:
        rounds = sample.round
        self._first = self._first or sample
        steps_per_s = sample.steps_per_s(self._first)
        for entry in windows:
            labels = {"window": entry["window"]}
            for key in ("ln_f", "flatness", "fill", "iteration"):
                self._record(f"rewl.window.{key}", rounds, entry[key], labels)
                metrics.set(f"rewl.window.{key}", entry[key], labels=labels)
        self._record("rewl.steps_total", rounds, sample.steps)
        self._record("rewl.converged_windows", rounds,
                     sample.converged_windows)
        self._record("rewl.quarantined_windows", rounds,
                     sample.quarantined_windows)
        if steps_per_s is not None:
            self._record("rewl.steps_per_s", rounds, round(steps_per_s, 3))
            metrics.set("rewl.steps_per_s", steps_per_s)
        eta = sample.eta
        if isinstance(eta, dict):
            self._record("rewl.eta_rounds", rounds, eta.get("rounds"))
            metrics.set("rewl.eta_rounds", float(eta.get("rounds") or 0))
            if eta.get("seconds") is not None:
                self._record("rewl.eta_seconds", rounds, eta["seconds"])
                metrics.set("rewl.eta_seconds", float(eta["seconds"]))
        for (w, k), lane in lanes:
            labels = {"window": w, "walker": "-" if k is None else k}
            self._record("rewl.worker.advance_s", rounds,
                         round(lane["seconds"], 6), labels)
            metrics.set("rewl.worker.advance_s", lane["seconds"], labels=labels)
            if lane["seconds"] > 0 and lane["steps"]:
                metrics.set("rewl.worker.steps_per_s",
                            lane["steps"] / lane["seconds"], labels=labels)

    # ---------------------------------------------------- worker traces

    def _fold_workers(self) -> list[tuple[tuple, dict]]:
        """Incrementally fold ``REPRO_TRACE_DIR`` worker files into lanes.

        Returns the ``((window, walker), lane)`` pairs that changed this
        fold, so the caller republishes only fresh gauges.
        """
        directory = os.environ.get(TRACE_DIR_ENV_VAR, "").strip()
        if not directory or not os.path.isdir(directory):
            return []
        changed: dict[tuple, dict] = {}
        for entry in sorted(os.listdir(directory)):
            if not entry.endswith(".jsonl"):
                continue
            path = os.path.join(directory, entry)
            follower = self._followers.get(path)
            if follower is None:
                follower = self._followers[path] = JsonlFollower(path)
            for record in follower.poll():
                lane = _fold_worker_record(self.workers, record)
                if lane is not None:
                    changed[lane] = self.workers[lane]
        return sorted(changed.items(), key=_lane_order)

    # ----------------------------------------------------------- cost hook

    def note_cost(self, cost: dict) -> None:
        """Land the end-of-run wall-clock cost attribution (plain data)."""
        with self._lock:
            self.cost = cost

    # ------------------------------------------------------------- render

    def status(self) -> dict:
        """JSON-ready live view (what ``/campaign`` serves per run)."""
        with self._lock:
            out = dict(self.latest)
            out["samples"] = self.samples
            out["series"] = {
                _series_name(name, labels): buf.as_list()
                for (name, labels), buf in sorted(self.series.items())
            }
            if self.cost is not None:
                out["cost"] = self.cost
            if self.workers:
                out["workers"] = {
                    f"{w}:{'-' if k is None else k}": dict(lane)
                    for (w, k), lane in sorted(self.workers.items(),
                                               key=_lane_order)
                }
            return out

    def metrics_view(self) -> dict:
        """The newest metrics-registry snapshot (``/metrics`` input)."""
        with self._lock:
            return dict(self.metrics_snapshot)

    def summary(self) -> dict:
        """Compact digest for ``REWLResult.telemetry["timeseries"]``."""
        with self._lock:
            return {
                "samples": self.samples,
                "series": sorted(
                    _series_name(name, labels)
                    for name, labels in self.series
                ),
                "points": sum(len(buf) for buf in self.series.values()),
                "workers": len(self.workers),
            }


def _lane_order(item) -> tuple:
    """Sort key of a ``((window, walker), lane)`` item; None sorts first."""
    (w, k), _ = item
    return (-1 if w is None else w, -1 if k is None else k)


def _fold_worker_record(lanes: dict[tuple, dict], record: dict):
    """Fold one worker-trace record into the lane table; returns the lane
    key when the record contributed, else None."""
    if record.get("kind") != "worker_span":
        return None
    dur = event_field(record, "dur_s")
    if not isinstance(dur, (int, float)):
        return None
    window = event_field(record, "window")
    walker = event_field(record, "walker")
    key = (window, walker)
    lane = lanes.get(key)
    if lane is None:
        lane = lanes[key] = {"seconds": 0.0, "steps": 0, "spans": 0}
    lane["seconds"] += float(dur)
    lane["spans"] += 1
    steps = event_field(record, "steps")
    if isinstance(steps, (int, float)):
        lane["steps"] += int(steps)
    return key


def aggregate_worker_series(paths, run: str | None = None) -> dict[tuple, dict]:
    """Post-hoc cross-process fold: worker JSONL files → per-lane totals.

    ``paths`` is any mix of ``.jsonl`` files and directories of
    ``worker-*.jsonl`` (a ``REPRO_TRACE_DIR``).  Returns ``{(window,
    walker): {"seconds", "steps", "spans"}}`` — the same fold the live
    recorder applies incrementally, usable standalone after a campaign.
    """
    from repro.obs.chrometrace import iter_trace_files
    from repro.obs.report import load_trace

    lanes: dict[tuple, dict] = {}
    for path in iter_trace_files(paths):
        if not path.exists():
            continue
        for record in load_trace(path, run=run):
            _fold_worker_record(lanes, record)
    return lanes
