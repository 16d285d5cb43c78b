"""Tests for repro.obs.chrometrace: deterministic cross-process merging,
Chrome trace-event JSON shape, and the export-trace CLI end to end."""

import json

import numpy as np
import pytest

import repro.obs.events as events_mod
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.obs import EventLog, Instrumentation, JsonlSink, Telemetry
from repro.obs.chrometrace import main_export, merge_traces, to_chrome
from repro.obs.events import TRACE_DIR_ENV_VAR, worker_log
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import FlipProposal
from repro.sampling import EnergyGrid


def _record(ts, pid, seq, kind="tick", run="r", **fields):
    return {"v": 1, "run": run, "seq": seq, "ts": ts, "pid": pid,
            "kind": kind, **fields}


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records),
                    encoding="utf-8")


@pytest.fixture
def fresh_worker_log(monkeypatch):
    """Force worker_log() to re-read REPRO_TRACE_DIR inside this test."""
    monkeypatch.setattr(events_mod, "_worker_log", None)
    monkeypatch.setattr(events_mod, "_worker_log_pid", None)
    yield
    log = events_mod._worker_log
    if log is not None:
        log.close()
    # monkeypatch restores the previous singleton on teardown.


class TestMergeDeterminism:
    def _records(self):
        return [
            _record(3.0, 20, 1), _record(1.0, 10, 1), _record(1.0, 10, 2),
            _record(2.0, 30, 5), _record(1.0, 20, 1), _record(2.5, 10, 3),
        ]

    @pytest.mark.parametrize("split", [1, 2, 3])
    def test_order_independent_of_file_layout(self, tmp_path, split):
        records = self._records()
        d = tmp_path / f"workers{split}"
        d.mkdir()
        # Round-robin the records over `split` files, simulating different
        # worker counts interleaving the same campaign's events.
        buckets = [records[i::split] for i in range(split)]
        for i, bucket in enumerate(buckets):
            _write_jsonl(d / f"worker-{i}.jsonl", bucket)
        merged = merge_traces([d])
        expected = sorted(records,
                          key=lambda r: (r["ts"], r["pid"], r["run"], r["seq"]))
        assert merged == expected

    def test_garbage_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"bad json\n' + json.dumps(_record(1.0, 1, 1)) + "\n")
        assert len(merge_traces([path])) == 1

    def test_run_filter(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_jsonl(path, [_record(1.0, 1, 1, run="a"),
                            _record(2.0, 1, 2, run="b")])
        assert [r["run"] for r in merge_traces([path], run="b")] == ["b"]


class TestToChrome:
    def test_span_becomes_complete_event(self):
        trace = to_chrome([_record(10.0, 7, 1, kind="span", name="advance",
                                   dur_s=2.0)])
        (x,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert x["name"] == "advance"
        assert x["ts"] == pytest.approx(8.0e6)  # start = end - duration
        assert x["dur"] == pytest.approx(2.0e6)
        assert x["pid"] == 7

    def test_worker_span_gets_walker_lane(self):
        trace = to_chrome([_record(5.0, 7, 1, kind="worker_span",
                                   name="advance", dur_s=1.0, window=1,
                                   walker=2)])
        (x,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert x["tid"] == 1102  # 1000 + window*100 + slot
        names = [e for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert any(e["args"]["name"] == "window 1 walker 2" for e in names)

    def test_other_kinds_become_instants_with_process_metadata(self):
        trace = to_chrome([_record(1.0, 3, 1, kind="sync", window=0)])
        (i,) = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert i["name"] == "sync" and i["ts"] == pytest.approx(1.0e6)
        procs = [e for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert procs and "pid 3" in procs[0]["args"]["name"]

    def test_nested_fields_reach_args(self):
        trace = to_chrome([_record(1.0, 3, 1, kind="span", dur_s=0.5,
                                   fields={"steps": 40, "name": "x"})])
        (x,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert x["args"]["steps"] == 40
        assert x["name"] == "x"  # name resolved through the nested payload


class TestExportCli:
    def test_export_merges_driver_and_worker_traces(self, tmp_path, capsys):
        d = tmp_path / "traces"
        d.mkdir()
        _write_jsonl(d / "worker-111.jsonl",
                     [_record(1.0, 111, 1, kind="worker_span", name="advance",
                              dur_s=0.5, window=0, walker=0)])
        _write_jsonl(d / "worker-222.jsonl",
                     [_record(1.2, 222, 1, kind="worker_span", name="advance",
                              dur_s=0.4, window=1, walker=0)])
        out = tmp_path / "trace.chrome.json"
        assert main_export([str(d), "-o", str(out)]) == 0
        trace = json.loads(out.read_text())
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert pids == {111, 222}  # timeline spans worker processes
        assert "2 process(es)" in capsys.readouterr().out

    def test_export_fails_cleanly_on_missing_input(self, tmp_path):
        assert main_export([str(tmp_path / "nope.jsonl")]) == 1


class TestWorkerTracesFromRewl:
    def _run_driver(self, telemetry=None):
        ham = IsingHamiltonian(square_lattice(4))
        grid = EnergyGrid.from_levels(ham.energy_levels())
        driver = REWLDriver(
            hamiltonian=ham, proposal_factory=lambda: FlipProposal(),
            grid=grid, initial_config=np.zeros(16, dtype=np.int8),
            config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                       exchange_interval=200, ln_f_final=5e-2, seed=11),
            instrumentation=Instrumentation(telemetry=telemetry),
        )
        driver.run(max_rounds=10)
        return driver

    def test_trace_dir_collects_worker_spans(self, tmp_path, monkeypatch,
                                             fresh_worker_log):
        monkeypatch.setenv(TRACE_DIR_ENV_VAR, str(tmp_path))
        driver = self._run_driver()
        worker_log().close()
        files = sorted(tmp_path.glob("worker-*.jsonl"))
        assert files
        records = merge_traces(files)
        spans = [r for r in records if r["kind"] == "worker_span"]
        # One advance record per round, the record a shm rank writes.
        assert len(spans) == 10
        assert all(s["name"] == "advance" and s["window"] is None
                   for s in spans)
        assert all(s["dur_s"] >= 0 for s in spans)
        assert sum(s["steps"] for s in spans) == driver.total_steps()

    def test_export_on_real_campaign_trace(self, tmp_path, monkeypatch,
                                           fresh_worker_log):
        workers = tmp_path / "workers"
        workers.mkdir()
        monkeypatch.setenv(TRACE_DIR_ENV_VAR, str(workers))
        trace_path = tmp_path / "driver.jsonl"
        tel = Telemetry(events=EventLog(
            run_id="E2", sinks=[JsonlSink(trace_path)]))
        self._run_driver(telemetry=tel)
        tel.close()
        worker_log().close()

        out = tmp_path / "campaign.chrome.json"
        assert main_export([str(trace_path), str(workers),
                            "-o", str(out)]) == 0
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        # Valid Chrome trace-event stream: every event has the mandatory
        # keys, X events carry durations, and both sources are present.
        for e in events:
            assert {"name", "ph", "pid"} <= set(e)
            if e["ph"] == "X":
                assert e["dur"] >= 0
        assert any(e["ph"] == "X" and e.get("cat") == "worker_span"
                   for e in events)
        assert any(e["ph"] == "i" for e in events)

    def test_worker_log_disabled_without_env(self, monkeypatch,
                                             fresh_worker_log):
        monkeypatch.delenv(TRACE_DIR_ENV_VAR, raising=False)
        assert not worker_log().enabled
