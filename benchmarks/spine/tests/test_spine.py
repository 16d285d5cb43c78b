"""Self-tests of the spine benchmark (``--smoke``-sized campaigns).

    PYTHONPATH=src python -m pytest benchmarks/spine/tests

They check the instrument, not the package: output schema, repeatable
counts, that tracing and the shm backend leave ln g bit-identical, that a
failed oracle or a non-converged campaign is counted and reported, and that
nothing is left behind.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SPINE = Path(__file__).resolve().parents[1]
ROOT = SPINE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(SPINE)]

import compare  # noqa: E402
import numpy as np  # noqa: E402
from run import campaigns_in, run_campaign, sub_seed  # noqa: E402
from tracing import HAM_METHODS, MODEL_METHODS, NullTracer, Tracer  # noqa: E402
from workloads import PER_LAYER, WORKLOADS, Options  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
NAMES = list(WORKLOADS)


def spine(*args, cwd=ROOT, script=SPINE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *map(str, args)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    return proc, json.loads(last) if last.startswith("{") else None


def shm_segments() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.fixture()
def opts(tmp_path):
    return Options(workdir=tmp_path, smoke=True)


def test_benchmark_json_is_the_runner_s_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/spine"]
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == PER_LAYER
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + NAMES
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    before = shm_segments()
    proc, result = spine("--workload", name, "--seed", 3, "--seconds", 1,
                         "--trace", 0, "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == campaigns_in(WORKLOADS[name], 1) == 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert shm_segments() == before
    assert not list((SPINE / ".work").glob("run-*"))


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_and_counts_repeat(name):
    runs = [spine("--workload", name, "--seed", 3, "--seconds", 1,
                  "--trace", 1, "--smoke") for _ in range(2)]
    for proc, result in runs:
        # correct also means: traced ln g == untraced ln g, and (shm) == fused
        assert proc.returncode == 0 and result["correct"], proc.stderr
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            n: unit for n, (unit, _) in PER_LAYER.items()
        }
    first, second = (r["metrics"] for _, r in runs)
    for metric, (unit, _) in PER_LAYER.items():
        if unit == "count" or metric == "dos_error":
            assert first[metric]["value"] == second[metric]["value"], metric
    assert first["sampling.steps_to_dos"]["value"] > 0
    assert first["failed_frac"]["value"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_proxies_leave_the_campaign_bit_identical(name, opts):
    plain = run_campaign(WORKLOADS[name], sub_seed(5, 0), NullTracer(), opts)
    traced = run_campaign(WORKLOADS[name], sub_seed(5, 0),
                          Tracer(dump_dir=opts.workdir), opts)
    assert plain.ok and traced.ok
    assert (traced.digest, traced.steps) == (plain.digest, plain.steps)
    assert traced.layers["kernels.delta_e_rows"] > 0
    if name != "ising_dl_mixed":
        # ranks report their own ΔE rows: one priced move per walker step
        assert traced.layers["kernels.delta_e_rows"] == traced.steps


def test_shm_ops_reproduces_the_fused_digest(opts):
    before = shm_segments()
    fused = run_campaign(WORKLOADS["hea_fused"], sub_seed(5, 0), NullTracer(), opts)
    shm = run_campaign(WORKLOADS["hea_shm_ops"], sub_seed(5, 0), NullTracer(), opts)
    assert fused.ok and shm.ok
    assert (shm.digest, shm.steps) == (fused.digest, fused.steps)
    assert shm_segments() == before


def session_processes(sid: int) -> list[str]:
    """Command lines of the processes (zombies too) in session ``sid``."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
            if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
                found.append(Path(f"/proc/{pid}/cmdline").read_text() or stat)
        except OSError:
            pass  # ended while we looked
    return found


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("max_rounds", [20_000, 2])  # converged, and failed
def test_no_process_outlives_a_shm_run(max_rounds):
    # multiprocessing's resource tracker ends only after its parent unless
    # the run stops it; the driver refuses a benchmark that leaves it behind
    proc = subprocess.Popen(
        [sys.executable, str(SPINE / "run.py"), "--workload", "hea_shm_ops",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke",
         "--max-rounds", str(max_rounds)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
        start_new_session=True,
    )
    out, _ = proc.communicate(timeout=170)
    assert session_processes(proc.pid) == []
    assert json.loads(out.splitlines()[-1])["attempted"] == 1


def test_exit_hook_stops_a_rank_left_behind():
    import multiprocessing as mp
    import time

    from run import _stop_children

    rank = mp.get_context("spawn").Process(target=time.sleep, args=(60,), daemon=True)
    rank.start()
    _stop_children()
    assert not rank.is_alive() and mp.active_children() == []


def test_campaign_count_is_fixed_by_the_workload_not_the_clock():
    # the driver's run length holds several campaigns of every workload, and
    # the count grows with --seconds alone
    for workload in WORKLOADS.values():
        n = campaigns_in(workload, SPEC["run_seconds"])
        assert n >= 4
        assert campaigns_in(workload, 2 * SPEC["run_seconds"]) in (2 * n, 2 * n + 1)


def test_unknown_workload_exits_non_zero_without_a_traceback():
    proc, result = spine("--workload", "nope", "--seed", 1, "--seconds", 1, "--trace", 0)
    assert proc.returncode != 0 and result is None
    assert "unknown workload" in proc.stderr and "Traceback" not in proc.stderr


def test_proxy_counts_rows_from_keywords_and_numpy_integers():
    class Model:
        def sample(self, n, rng=None):
            return np.zeros((n, 2))

        def log_prob(self, x_onehot):
            return np.zeros(len(x_onehot))

        def energies(self, configs=None):
            raise ValueError("the call's own error")

    tr = Tracer()
    model = tr.wrap(Model(), {**MODEL_METHODS, **HAM_METHODS})
    model.sample(np.int64(3))
    model.sample(n=4)
    model.log_prob(x_onehot=np.zeros((5, 2)))
    with pytest.raises(ValueError, match="own error"):
        model.energies()  # the missing argument must not mask it
    totals = tr.stats.snapshot()
    assert totals["nn.sample"][:2] == (2, 7)
    assert totals["nn.log_prob"][:2] == (1, 5)
    assert totals["hamiltonians.energies"][:2] == (1, 0)


def test_non_convergence_is_a_failure_and_a_non_zero_exit():
    proc, result = spine("--workload", "ising_fused", "--seed", 3, "--seconds", 1,
                         "--trace", 0, "--smoke", "--max-rounds", 2)
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_missed_tolerance_is_a_failure(opts, monkeypatch):
    monkeypatch.setattr(WORKLOADS["ising_fused"], "smoke_tolerance", 1e-9)
    out = run_campaign(WORKLOADS["ising_fused"], sub_seed(5, 0), NullTracer(), opts)
    assert not out.ok and "tolerance" in out.reason


def test_exits_non_zero_without_a_result_when_the_package_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SPINE, tmp_path / "benchmarks" / "spine",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    script = tmp_path / "benchmarks" / "spine" / "run.py"
    for args in (["--workload", "ising_fused", "--seed", 1, "--seconds", 1,
                  "--trace", 0], []):
        proc, result = spine(*args, cwd=tmp_path, script=script)
        assert proc.returncode != 0 and result is None


def test_suite_reports_the_six_end_to_end_outputs_and_compares_to_itself(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SPINE / "run.py"), "--smoke", "--seconds", "1",
         "--repeats", "2", "--seed", "3", "--out", str(tmp_path)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "spine.json").read_text())
    assert doc["smoke"] is True and set(doc["workloads"]) == set(NAMES)
    for name, w in doc["workloads"].items():
        assert set(w["end_to_end"]) == {"setup_s", "time_to_dos_s", "steps_per_s",
                                        "peak_rss_mb", "dos_error"}
        assert w["failed_frac"] == 0
        assert w["end_to_end"]["dos_error"]["max"] <= w["end_to_end"]["dos_error"]["tolerance"]
        first, second = w["steps_to_dos"]
        assert first == second and first[0] > 0  # same seed, same work
        assert f"{name:16s} dos_error" in proc.stdout
        assert f"{name:16s} failed_frac" in proc.stdout
    assert compare.main([str(tmp_path / "spine.json")] * 2) == 0


# ---------------------------------------------------------------- compare


def stats(*values):
    s = sorted(values)
    return {"median": s[len(s) // 2], "min": s[0], "max": s[-1], "n": len(s),
            "unit": "s"}


def test_verdicts():
    v = compare.verdict
    assert v(stats(10, 10.2, 10.4), stats(10.1, 10.3, 10.5), "lower", 0.10) == "ok"
    assert v(stats(10, 10.2, 10.4), stats(12, 12.2, 12.4), "lower", 0.10) == "worse"
    assert v(stats(10, 10.2, 10.4), stats(8, 8.2, 8.4), "lower", 0.10) == "better"
    assert v(stats(10, 10.2, 10.4), stats(9.7, 9.8, 9.9), "lower", 0.10) == "ok"
    assert v(stats(8, 10, 13), stats(9, 10.5, 12), "lower", 0.10) == "unresolved"
    assert v(stats(8, 10, 13), stats(14, 15, 16), "lower", 0.10) == "worse"
    assert v(stats(100, 102, 104), stats(80, 82, 84), "higher", 0.10) == "worse"
    # a 4 ms rise on a 10 ms set-up is under the 50 ms floor
    assert v(stats(.010, .010, .011), stats(.014, .014, .015), "lower", 0.25,
             floor=0.05) == "ok"


def suite_doc(time_to_dos, failed_frac=0.0, smoke=False, dos_error=(0.05, 0.06, 0.07)):
    return {
        "smoke": smoke, "noisy": False, "calibration": {"drift": 0.0},
        "bounds": {"time_to_dos_s": {"bound": 0.25, "better": "lower"}},
        "workloads": {"ising_fused": {
            "end_to_end": {"time_to_dos_s": stats(*time_to_dos),
                           "dos_error": dict(stats(*dos_error), tolerance=0.1)},
            "failed_frac": failed_frac,
        }},
    }


def test_compare_exit_status(tmp_path, capsys):
    docs = {
        "base": suite_doc((3.0, 3.1, 3.2)),
        "same": suite_doc((3.0, 3.2, 3.3)),
        "slow": suite_doc((4.5, 4.6, 4.7)),
        "flaky": suite_doc((3.0, 3.1, 3.2), failed_frac=0.1),
        "biased": suite_doc((3.0, 3.1, 3.2), dos_error=(0.05, 0.06, 0.11)),
        "smoke": suite_doc((0.3, 0.3, 0.3), smoke=True),
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    path = lambda name: str(tmp_path / f"{name}.json")
    assert compare.main([path("base"), path("same")]) == 0
    assert compare.main([path("base"), path("slow")]) == 1
    assert compare.main([path("base"), path("flaky")]) == 1
    assert compare.main([path("base"), path("biased")]) == 1
    assert compare.main([path("base"), path("smoke")]) == 2
    assert "worse" in capsys.readouterr().out
