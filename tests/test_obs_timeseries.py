"""Tests for repro.obs.timeseries: ring buffers, recorder, worker folds."""

import json

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.obs import Instrumentation, Telemetry
from repro.obs.timeseries import (
    TIMESERIES_ENV_VAR,
    SeriesBuffer,
    TimeSeriesConfig,
    TimeSeriesRecorder,
    aggregate_worker_series,
)
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import FlipProposal
from repro.sampling import EnergyGrid


def _driver(**kwargs):
    ham = IsingHamiltonian(square_lattice(4))
    grid = EnergyGrid.from_levels(ham.energy_levels())
    return REWLDriver(
        hamiltonian=ham, proposal_factory=lambda: FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                          exchange_interval=200, ln_f_final=5e-2, seed=11),
        instrumentation=Instrumentation(**kwargs),
    )


class TestSeriesBuffer:
    def test_append_and_views(self):
        buf = SeriesBuffer(capacity=8)
        for i in range(5):
            buf.append(i, i * 10)
        assert len(buf) == 5
        assert buf.last() == (4, 40)
        assert buf.values() == [0, 10, 20, 30, 40]
        assert buf.as_list() == [[i, i * 10] for i in range(5)]

    def test_empty_last_is_none(self):
        assert SeriesBuffer().last() is None

    def test_decimation_keeps_newest_and_halves(self):
        buf = SeriesBuffer(capacity=8)
        for i in range(9):
            buf.append(i, i)
        # Overflow at the 9th append: every other old sample dropped,
        # newest kept.
        assert len(buf) < 9
        assert buf.last() == (8, 8)

    def test_decimation_is_a_function_of_append_count(self):
        """Two buffers fed the same number of appends retain the same x's —
        the determinism hook resumed runs rely on."""
        a, b = SeriesBuffer(capacity=8), SeriesBuffer(capacity=8)
        for i in range(100):
            a.append(i, i * 2.0)
            b.append(i, i * 2.0)
        assert a.as_list() == b.as_list()
        assert [x for x, _ in a.samples] == sorted(x for x, _ in a.samples)

    def test_capacity_bounded_forever(self):
        buf = SeriesBuffer(capacity=8)
        for i in range(10_000):
            buf.append(i, i)
        assert len(buf) <= 8
        assert buf.last() == (9_999, 9_999)

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ValueError):
            SeriesBuffer(capacity=1)


class TestConfigParsing:
    def test_defaults(self):
        cfg = TimeSeriesConfig()
        assert cfg.sample_every == 5 and cfg.max_samples == 512

    @pytest.mark.parametrize("field,value", [
        ("sample_every", 0), ("max_samples", 2),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            TimeSeriesConfig(**{field: value})

    def test_parse_enabled(self):
        assert TimeSeriesConfig.from_spec("1") == TimeSeriesConfig()
        assert TimeSeriesConfig.from_spec("on") == TimeSeriesConfig()

    def test_parse_keys(self):
        cfg = TimeSeriesConfig.from_spec("every=3,max=64")
        assert cfg.sample_every == 3 and cfg.max_samples == 64

    def test_parse_bad_spec(self):
        with pytest.raises(ValueError, match=TIMESERIES_ENV_VAR):
            TimeSeriesConfig.from_spec("cadence=3")
        with pytest.raises(ValueError):
            TimeSeriesConfig.from_spec("every=fast")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(TIMESERIES_ENV_VAR, raising=False)
        assert TimeSeriesConfig.from_env() is None
        monkeypatch.setenv(TIMESERIES_ENV_VAR, "0")
        assert TimeSeriesConfig.from_env() is None
        monkeypatch.setenv(TIMESERIES_ENV_VAR, "every=2,max=32")
        assert TimeSeriesConfig.from_env() == TimeSeriesConfig(2, 32)


class TestRecorderOnRealDriver:
    def test_run_records_series_and_gauges(self):
        recorder = TimeSeriesRecorder(TimeSeriesConfig(sample_every=2,
                                                       max_samples=64))
        driver = _driver(telemetry=Telemetry(), timeseries=recorder)
        driver.run(max_rounds=60)
        assert recorder.samples > 0
        names = recorder.summary()["series"]
        assert "rewl.window.ln_f{window=0}" in names
        assert "rewl.window.ln_f{window=1}" in names
        assert "rewl.steps_total" in names
        # Labeled gauges landed in the driver registry.
        snap = recorder.metrics_view()
        assert any(k.startswith("rewl.window.ln_f{") for k in snap)
        # ln f is monotone non-increasing within a window's series.
        values = recorder.series_buffer(
            "rewl.window.ln_f", {"window": 0}).values()
        assert values == sorted(values, reverse=True)

    def test_status_is_json_ready_plain_data(self):
        recorder = TimeSeriesRecorder(TimeSeriesConfig(sample_every=2))
        driver = _driver(telemetry=Telemetry(), timeseries=recorder)
        driver.run(max_rounds=60)
        status = recorder.status()
        json.dumps(status)  # nothing live or unserializable leaks through
        assert status["round"] == driver.rounds
        assert status["converged"] is True
        assert len(status["windows"]) == 2
        assert status["samples"] == recorder.samples
        assert "rewl.steps_total" in status["series"]

    def test_force_sampling_off_stride(self):
        recorder = TimeSeriesRecorder(TimeSeriesConfig(sample_every=1000))
        driver = _driver(telemetry=Telemetry(), timeseries=recorder)
        driver.run(max_rounds=60)
        # The stride never fires in a short run, but the driver forces a
        # final sample at run end so /metrics is never empty.
        assert recorder.samples >= 1

    def test_result_telemetry_carries_summary_and_cost(self):
        from repro.obs.profile import SectionProfiler

        recorder = TimeSeriesRecorder(TimeSeriesConfig(sample_every=2))
        driver = _driver(telemetry=Telemetry(), timeseries=recorder,
                         profiler=SectionProfiler())
        result = driver.run(max_rounds=60)
        ts = result.telemetry["timeseries"]
        assert ts["samples"] == recorder.samples
        assert ts["points"] > 0
        assert recorder.cost is not None
        assert recorder.cost["total_s"] >= 0
        assert recorder.status()["cost"] == recorder.cost

    @pytest.mark.parametrize("chunks", [(15,), (5, 10, 15)])
    def test_each_round_is_sampled_once(self, chunks):
        """The end-of-run forced sample must not repeat a round the stride
        already took, in one run() or across chunked run() calls."""
        recorder = TimeSeriesRecorder(TimeSeriesConfig(sample_every=5))
        driver = _driver(telemetry=Telemetry(), timeseries=recorder)
        for limit in chunks:
            driver.run(max_rounds=limit)
        xs = [x for x, _ in recorder.series_buffer("rewl.steps_total").samples]
        assert xs == [5, 10, 15]
        assert recorder.samples == 3

    def test_config_kwarg_wraps_into_recorder(self):
        driver = _driver(timeseries=TimeSeriesConfig(sample_every=7))
        assert isinstance(driver.timeseries, TimeSeriesRecorder)
        assert driver.timeseries.cfg.sample_every == 7

    def test_env_knob_attaches_recorder(self, monkeypatch):
        monkeypatch.setenv(TIMESERIES_ENV_VAR, "every=9")
        driver = _driver()
        assert driver.timeseries is not None
        assert driver.timeseries.cfg.sample_every == 9
        monkeypatch.setenv(TIMESERIES_ENV_VAR, "0")
        assert _driver().timeseries is None


def _worker_record(window, walker, dur_s, steps, kind="worker_span"):
    return {"v": 1, "run": "r1", "seq": 1, "ts": 0.0, "kind": kind,
            "name": "advance", "dur_s": dur_s, "window": window,
            "walker": walker, "steps": steps}


class TestWorkerFolds:
    def _write(self, path, records):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

    def test_recorder_tails_trace_dir_incrementally(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        wf = tmp_path / "worker-1.jsonl"
        self._write(wf, [_worker_record(0, 0, 0.5, 1000)])
        recorder = TimeSeriesRecorder(TimeSeriesConfig(sample_every=1))
        driver = _driver(telemetry=Telemetry(), timeseries=recorder)
        driver.run(max_rounds=60)
        assert recorder.workers[(0, 0)]["seconds"] == pytest.approx(0.5)
        # The run itself also appended worker spans to this process's file.
        assert recorder.summary()["workers"] >= 1
        snap = recorder.metrics_view()
        assert any(k.startswith("rewl.worker.advance_s{") for k in snap)

    def test_aggregate_worker_series_from_files_and_dirs(self, tmp_path):
        a = tmp_path / "worker-1.jsonl"
        b = tmp_path / "worker-2.jsonl"
        self._write(a, [_worker_record(0, 0, 0.5, 100),
                        _worker_record(0, 0, 0.25, 50),
                        _worker_record(1, 0, 1.0, 200)])
        self._write(b, [_worker_record(0, 1, 2.0, 400),
                        {"kind": "heartbeat", "round": 1}])  # ignored
        lanes = aggregate_worker_series([tmp_path])
        assert lanes[(0, 0)] == {"seconds": 0.75, "steps": 150, "spans": 2}
        assert lanes[(1, 0)]["spans"] == 1
        assert lanes[(0, 1)]["steps"] == 400
        # A single file path works too.
        assert aggregate_worker_series([a])[(1, 0)]["seconds"] == 1.0

    def test_aggregate_skips_missing_and_bad_durations(self, tmp_path):
        f = tmp_path / "worker-1.jsonl"
        self._write(f, [_worker_record(0, 0, "oops", 10),
                        _worker_record(0, 0, 0.5, 10)])
        lanes = aggregate_worker_series([f, tmp_path / "never.jsonl"])
        assert lanes[(0, 0)]["spans"] == 1

    def test_nested_fields_records_fold(self, tmp_path):
        record = {"v": 1, "run": "r1", "seq": 1, "ts": 0.0,
                  "kind": "worker_span",
                  "fields": {"name": "advance", "dur_s": 0.5, "window": 1,
                             "walker": 2, "steps": 64}}
        f = tmp_path / "worker-1.jsonl"
        f.write_text(json.dumps(record) + "\n")
        lanes = aggregate_worker_series([f])
        assert lanes[(1, 2)] == {"seconds": 0.5, "steps": 64, "spans": 1}
