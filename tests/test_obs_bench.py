"""Tests for repro.obs.bench: snapshot schema, runner, and comparison."""

import json

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    QUICK_BENCHES,
    compare_snapshots,
    discover_benchmarks,
    load_snapshot,
    next_snapshot_path,
    render_compare,
    run_benchmarks,
)

_TINY_BENCH = '''\
import numpy as np

from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.proposals import FlipProposal
from repro.sampling import EnergyGrid, WangLandauSampler


def bench_tiny_wl(benchmark):
    ham = IsingHamiltonian(square_lattice(4))
    grid = EnergyGrid.from_levels(ham.energy_levels())
    wl = WangLandauSampler(hamiltonian=ham, proposal=FlipProposal(), grid=grid,
                           initial_config=np.zeros(16, dtype=np.int8), rng=0)
    benchmark.extra_info["steps_per_round"] = 200

    def block():
        wl.run(max_steps=wl.n_steps + 200)
        return wl.n_steps

    benchmark.pedantic(block, iterations=1, rounds=2)
'''


def _snapshot(means, extra=None):
    snap = {
        "v": BENCH_SCHEMA_VERSION,
        "benchmarks": {
            name: {"mean_s": mean} for name, mean in means.items()
        },
    }
    snap.update(extra or {})
    return snap


class TestCompare:
    def test_identical_snapshots_pass(self):
        snap = _snapshot({"a": 1.0, "b": 0.01})
        diff = compare_snapshots(snap, snap)
        assert diff["regressions"] == []
        assert all(e["status"] == "ok" for e in diff["entries"])

    def test_two_x_slowdown_is_flagged(self):
        old = _snapshot({"a": 1.0})
        new = _snapshot({"a": 2.0})
        diff = compare_snapshots(old, new, threshold=0.25)
        assert diff["regressions"] == ["a"]
        assert diff["entries"][0]["ratio"] == pytest.approx(2.0)

    def test_within_threshold_is_ok(self):
        diff = compare_snapshots(
            _snapshot({"a": 1.0}), _snapshot({"a": 1.2}), threshold=0.25)
        assert diff["regressions"] == []

    def test_speedup_is_improvement_not_regression(self):
        diff = compare_snapshots(
            _snapshot({"a": 1.0}), _snapshot({"a": 0.4}), threshold=0.25)
        assert diff["entries"][0]["status"] == "improvement"
        assert diff["regressions"] == []

    def test_added_and_removed_benchmarks(self):
        diff = compare_snapshots(
            _snapshot({"gone": 1.0}), _snapshot({"fresh": 1.0}))
        statuses = {e["name"]: e["status"] for e in diff["entries"]}
        assert statuses == {"gone": "removed", "fresh": "added"}

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_snapshots(_snapshot({}), _snapshot({}), threshold=-0.1)

    def test_render_names_regressions(self):
        diff = compare_snapshots(_snapshot({"a": 1.0}), _snapshot({"a": 3.0}))
        text = render_compare(diff)
        assert "regression" in text and "a" in text


class TestGateOnlyCli:
    def _write(self, tmp_path, name, means):
        path = tmp_path / name
        path.write_text(json.dumps(_snapshot(means)))
        return str(path)

    def test_gate_only_scopes_the_exit_code(self, tmp_path, capsys):
        from repro.obs.bench import main_compare

        old = self._write(tmp_path, "old.json",
                          {"e9_steps": 1.0, "dl_propose_batched": 1.0})
        new = self._write(tmp_path, "new.json",
                          {"e9_steps": 1.0, "dl_propose_batched": 3.0})
        # The regression is outside the gated substring: reported, exit 0.
        assert main_compare([old, new, "--gate-only", "e9_steps"]) == 0
        capsys.readouterr()

    def test_gate_only_is_repeatable(self, tmp_path, capsys):
        from repro.obs.bench import main_compare

        old = self._write(tmp_path, "old.json",
                          {"e9_steps": 1.0, "dl_propose_batched": 1.0})
        new = self._write(tmp_path, "new.json",
                          {"e9_steps": 1.0, "dl_propose_batched": 3.0})
        # Repeated --gate-only gates on ANY matching substring (the CI
        # bench-smoke job gates e9 throughput + the DL proposal metric).
        code = main_compare([
            old, new, "--gate-only", "e9_steps", "--gate-only", "dl_propose",
        ])
        assert code == 1
        assert "dl_propose_batched" in capsys.readouterr().out


class TestSnapshotFiles:
    def test_next_snapshot_path_skips_taken_numbers(self, tmp_path):
        assert next_snapshot_path(tmp_path).name == "BENCH_1.json"
        (tmp_path / "BENCH_1.json").write_text("{}")
        (tmp_path / "BENCH_3.json").write_text("{}")
        assert next_snapshot_path(tmp_path).name == "BENCH_2.json"

    def test_load_snapshot_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "BENCH_9.json"
        path.write_text(json.dumps({"v": 999}))
        with pytest.raises(ValueError, match="schema"):
            load_snapshot(path)

    def test_quick_subset_files_exist(self):
        names = {p.name for p in discover_benchmarks("benchmarks")}
        assert set(QUICK_BENCHES) <= names


class TestRunner:
    def test_missing_bench_file_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_benchmarks(selection=["bench_nope.py"], bench_dir=tmp_path)

    def test_runner_emits_valid_snapshot(self, tmp_path):
        """End-to-end: child pytest run -> BENCH json with stats, steps/s,
        fingerprint, and the per-section profile recovered from the child."""
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "bench_tiny.py").write_text(_TINY_BENCH)
        out = tmp_path / "BENCH_test.json"

        snapshot = run_benchmarks(bench_dir=bench_dir, out_path=out)

        assert snapshot["v"] == BENCH_SCHEMA_VERSION
        assert snapshot["pytest_exit"] == 0
        assert snapshot["selection"] == ["bench_tiny.py"]
        assert snapshot["wall_s"] > 0
        assert snapshot["fingerprint"]["python"]
        [(name, bench)] = snapshot["benchmarks"].items()
        assert "bench_tiny_wl" in name
        assert bench["mean_s"] > 0
        assert bench["steps_per_s"] > 0
        # wl.run() under REPRO_PROFILE contributes to the child's collector,
        # which the runner recovers via REPRO_PROFILE_OUT.
        assert snapshot["profile"].get("proposal.flip.fields", {}).get("calls", 0) > 0
        # And the on-disk snapshot round-trips through load_snapshot.
        assert load_snapshot(out) == snapshot


class TestRssGating:
    """Ultra-tier rows carry a peak-RSS budget; exceeding it is a
    regression even when the timing is fine."""

    def _with_rss(self, mean, peak_kb, budget_kb):
        return {"mean_s": mean, "peak_rss_kb": peak_kb,
                "rss_budget_kb": budget_kb}

    def test_over_budget_is_a_regression(self):
        old = _snapshot({"a": 1.0})
        new = _snapshot({})
        new["benchmarks"]["a"] = self._with_rss(1.0, 3_000_000, 2_097_152)
        diff = compare_snapshots(old, new)
        assert diff["regressions"] == ["a"]
        assert diff["entries"][0]["status"] == "rss-over-budget"

    def test_within_budget_is_ok(self):
        old = _snapshot({"a": 1.0})
        new = _snapshot({})
        new["benchmarks"]["a"] = self._with_rss(1.0, 500_000, 2_097_152)
        diff = compare_snapshots(old, new)
        assert diff["regressions"] == []
        assert diff["entries"][0]["status"] == "ok"

    def test_added_row_is_budget_checked(self):
        old = _snapshot({})
        new = _snapshot({})
        new["benchmarks"]["fresh"] = self._with_rss(1.0, 3_000_000, 2_097_152)
        diff = compare_snapshots(old, new)
        assert diff["regressions"] == ["fresh"]

    def test_time_regression_takes_precedence(self):
        old = _snapshot({"a": 1.0})
        new = _snapshot({})
        new["benchmarks"]["a"] = self._with_rss(2.0, 3_000_000, 2_097_152)
        diff = compare_snapshots(old, new)
        assert diff["entries"][0]["status"] == "regression"
        assert diff["regressions"] == ["a"]

    def test_render_shows_rss_column(self):
        old = _snapshot({"a": 1.0})
        new = _snapshot({})
        new["benchmarks"]["a"] = self._with_rss(1.0, 1024 * 512, 1024 * 2048)
        text = render_compare(compare_snapshots(old, new))
        assert "512/2048MB" in text
        assert "peak_rss" in text

    def test_rows_without_rss_are_untouched(self):
        old = _snapshot({"a": 1.0})
        new = _snapshot({"a": 1.0})
        diff = compare_snapshots(old, new)
        assert diff["entries"][0]["peak_rss_kb"] is None
        assert "-" in render_compare(diff)
