#!/usr/bin/env python3
"""Spine benchmark: wall-clock to a stitched ln g(E) of stated accuracy.

Three ways in (see README.md):

``run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload, in this process: the fixed number of campaigns
    that S seconds hold, back to back from sub-seeds of N.  ``--trace 0``
    reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  The
    last line of stdout is one JSON object ``{"correct", "attempted",
    "failed", "metrics"}``.

``run.py [--seed N] [--seconds S] [--repeats R] [--out DIR] [--smoke]``
    The whole suite: every workload R times untraced (round-robin, a fresh
    subprocess per run) and once traced, every metric printed by name with
    its unit and written to ``DIR/spine.json``; per-campaign records and the
    traced spans go to ``DIR/details-*.json``.

``run.py compare A.json B.json``
    Verdict per workload x end-to-end metric between two suite results.

Only the standard library is imported at module level: shm worker ranks are
spawned and re-import this file.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"

#: per-layer metric <- span name, for the layers the benchmark calls directly
SPAN_METRICS = {
    "lattice.build_s": "lattice.build",
    "hamiltonians.build_s": "hamiltonians.build",
    "sampling.grid_s": "sampling.grid",
    "training.harvest_s": "training.harvest",
    "training.fit_s": "training.fit",
    "parallel.init_s": "parallel.init",
    "dos.stitch_s": "dos.stitch",
    "dos.thermo_s": "dos.thermo",
}


def _prepare() -> None:
    """Pin the environment and put this checkout's package on the path.

    Exits non-zero, without a result, when the package is not in this
    checkout (an installed copy must never be measured in its place).
    """
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"spine: cannot import the package from {src}: {exc}")
    if src not in Path(repro.__file__).resolve().parents:
        sys.exit(f"spine: imported repro from {repro.__file__}, not from {src}")


def _stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``driver.close()`` joins the worker ranks.  This catches a rank that a
    failed campaign left behind, and multiprocessing's resource tracker,
    which otherwise ends only once it sees this process gone, i.e. after it.
    """
    mp = sys.modules.get("multiprocessing")
    if mp is None:
        return
    for child in mp.active_children():
        child.kill()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()  # closes its pipe and waits for it


def sub_seed(seed: int, k: int) -> int:
    """Seed of the ``k``-th campaign of a run."""
    return seed * 4096 + k


def run_campaign(workload, seed: int, tr, opts):
    """Set up and solve one campaign; a raised exception is a failed one."""
    from workloads import Outcome

    t0 = perf_counter()
    try:
        campaign = workload.setup(seed, tr, opts)
        setup_s = perf_counter() - t0
        out = workload.solve(campaign, tr, opts)
    except Exception:  # campaign boundary: report it, count it, keep going
        traceback.print_exc()
        return Outcome(False, "raised", 0, "", float("inf"),
                       setup_s=perf_counter() - t0)
    out.setup_s = setup_s
    if tr.enabled:
        out.layers.update({m: tr.seconds(s) for m, s in SPAN_METRICS.items()})
    print(f"  campaign seed={seed} setup={out.setup_s:.3f}s solve={out.solve_s:.3f}s "
          f"steps={out.steps} dos_error={out.dos_error:.4g} "
          f"{'ok' if out.ok else 'FAILED: ' + out.reason}", file=sys.stderr)
    return out


def campaigns_in(workload, seconds: float) -> int:
    """How many campaigns a run of ``seconds`` holds.

    A fixed count, sized from the workload's nominal campaign cost and never
    from the clock: two commits then solve the same sub-seeds, their step
    counts match exactly, and slower code cannot change the seed mix it is
    averaged over.
    """
    return max(1, int(seconds / workload.campaign_s))


def measure(args) -> int:
    """One run of one workload (the contract's entry point)."""
    # Registered before anything else, so it runs after every other exit
    # hook (segment finalizers would start a new tracker), on every way out.
    atexit.register(_stop_children)
    _prepare()
    import machine
    from tracing import NullTracer, Tracer
    from workloads import PER_LAYER, WORKLOADS, Options, warm_oracles

    if args.workload not in WORKLOADS:
        sys.exit(f"spine: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    n_campaigns = campaigns_in(workload, args.seconds)
    if args.trace:
        # the untraced twin, the probes and the stepping overhead take the rest
        n_campaigns = max(1, n_campaigns // 2)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    opts = Options(workdir=workdir, smoke=args.smoke, max_rounds=args.max_rounds)
    off = NullTracer()
    try:
        warm_oracles()
        calib = machine.calibrate()
        reference = twin = None
        if workload.reference:
            reference = run_campaign(
                WORKLOADS[workload.reference], sub_seed(args.seed, 0), off, opts
            )
        outcomes, spans = [], []
        for k in range(n_campaigns):
            tr = Tracer(dump_dir=workdir) if args.trace else off
            out = run_campaign(workload, sub_seed(args.seed, k), tr, opts)
            if args.trace:
                spans += [dict(s, campaign=k) for s in tr.spans]
                if k == 0:
                    twin = run_campaign(workload, sub_seed(args.seed, 0), off, opts)
                    if out.ok and twin.digest != out.digest:
                        out.ok, out.reason = False, "traced run differs from untraced"
            if k == 0 and reference is not None and out.ok and (
                reference.digest != out.digest
            ):
                out.ok, out.reason = False, f"digest differs from {workload.reference}"
            outcomes.append(out)
        calib_end = machine.calibrate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # unless another invocation is still using it
        except OSError:
            pass

    failed = sum(not o.ok for o in outcomes)
    good = [o for o in outcomes if o.ok] or outcomes
    if not args.trace:
        # Raw wall clock, one sample per campaign; the median over the run's
        # fixed sub-seeds sheds a burst from a noisy neighbour, nothing else.
        metrics = {
            "setup_s": (median(o.setup_s for o in good), "s"),
            "time_to_dos_s": (median(o.solve_s for o in good), "s"),
            "steps_per_s": (median(o.steps_per_s for o in good), "1/s"),
            "peak_rss_mb": (machine.peak_rss_mb(), "MB"),
        }
    else:
        # Counts (and the byte sizes computed from them) repeat exactly at a
        # seed, so they come from campaign 0; everything timed is a median.
        values = {}
        for name, (unit, _better) in PER_LAYER.items():
            if unit in ("count", "B"):
                values[name] = outcomes[0].layers.get(name, 0)
            else:
                values[name] = median(o.layers.get(name, 0.0) for o in good)
        values["machine.calib_gather_ns"] = calib["gather_ns"]
        values["machine.calib_pyloop_ns"] = calib["pyloop_ns"]
        values["machine.calib_drift"] = machine.drift(calib, calib_end)
        values["failed_frac"] = failed / len(outcomes)
        if twin is not None and twin.solve_s > 0:
            values["trace.overhead_frac"] = outcomes[0].solve_s / twin.solve_s - 1.0
            # Stepping run() round by round adds start/end events of its own.
            values["obs.trace_bytes"] = twin.layers.get("obs.trace_bytes", 0)
            if reference is not None and reference.steps_per_s > 0:
                values["parallel.rank_speedup"] = (
                    twin.steps_per_s / reference.steps_per_s
                )
        metrics = {n: (values[n], PER_LAYER[n][0]) for n in PER_LAYER}

    if args.details:
        Path(args.details).write_text(json.dumps({
            "campaigns": [
                {"seed": sub_seed(args.seed, k), "ok": o.ok, "reason": o.reason,
                 "steps": o.steps, "setup_s": o.setup_s,
                 # None: the campaign raised or did not converge
                 "dos_error": o.dos_error if o.dos_error < float("inf") else None,
                 "time_to_dos_s": o.solve_s, "steps_per_s": o.steps_per_s}
                for k, o in enumerate(outcomes)
            ],
            "tolerance": workload.smoke_tolerance if args.smoke else workload.tolerance,
            "spans": spans,
        }))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:34s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ------------------------------------------------------------------ suite


def _spread(values) -> dict:
    return {"median": median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def suite(args) -> int:
    """Every workload, ``repeats`` untraced runs each plus one traced run."""
    _prepare()
    import machine
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    out_dir = Path(args.out) if args.out else WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS)

    def one(name: str, trace: int, repeat: int = 0) -> tuple[dict, dict]:
        """-> (the run's result line, its per-campaign details)."""
        details = out_dir / f"details-{name}-{'traced' if trace else repeat}.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(trace), "--max-rounds", str(args.max_rounds),
               "--details", str(details)]
        if args.smoke:
            cmd.append("--smoke")
        print(f"[spine] {name} trace={trace}", file=sys.stderr)
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, {}
        return json.loads(lines[-1]), json.loads(details.read_text())

    calib = machine.calibrate()
    runs: dict[str, list] = {n: [] for n in names}
    for repeat in range(args.repeats):  # round-robin, so drift hits all alike
        for name in names:
            runs[name].append(one(name, 0, repeat))
    traced = {name: one(name, 1)[0] for name in names}
    machine_drift = machine.drift(calib, machine.calibrate())

    report: dict = {}
    bad = False
    for name in names:
        results = [r for r, _ in runs[name]]
        attempted = sum(r["attempted"] for r in results + [traced[name]])
        failed = sum(r["failed"] for r in results + [traced[name]])
        bad = bad or failed > 0
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"]
                      for r in results if metric["name"] in r["metrics"]]
            if values:
                end_to_end[metric["name"]] = dict(_spread(values), unit=metric["unit"])
        # The two end-to-end outputs that are gated, not bounded: every
        # untraced campaign's oracle error against the workload's tolerance,
        # and the failures of all runs against 0.
        errors = [c["dos_error"] for _, d in runs[name]
                  for c in d.get("campaigns", []) if c["dos_error"] is not None]
        if errors:
            end_to_end["dos_error"] = dict(
                _spread(errors), unit="err",
                tolerance=next(d["tolerance"] for _, d in runs[name] if d),
            )
        report[name] = {
            "end_to_end": end_to_end, "per_layer": traced[name]["metrics"],
            "steps_to_dos": [[c["steps"] for c in d.get("campaigns", [])]
                             for _, d in runs[name]],
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted,
        }
        for metric, s in end_to_end.items():
            print(f"{name:16s} {metric:34s} median {s['median']:.6g} "
                  f"min {s['min']:.6g} max {s['max']:.6g} n {s['n']} {s['unit']}")
        print(f"{name:16s} {'failed_frac':34s} {failed / attempted:.6g} ratio")
        for metric, m in traced[name]["metrics"].items():
            if metric not in ("failed_frac", "dos_error"):  # the traced run's own
                print(f"{name:16s} {metric:34s} {m['value']:.6g} {m['unit']}")

    layer_drift = max(
        (r["per_layer"].get("machine.calib_drift", {}).get("value", 0.0)
         for r in report.values()), default=0.0,
    )
    # the worst drift seen: across the whole suite, or within one traced run
    drift = max(machine_drift, layer_drift)
    noisy = drift > machine.DRIFT_LIMIT
    result = {
        "fingerprint": machine.fingerprint(
            ROOT, seed=args.seed, repeats=args.repeats, seconds=seconds
        ),
        "smoke": bool(args.smoke),
        "noisy": noisy,
        "calibration": dict(calib, drift=drift),
        "bounds": {m["name"]: {"bound": m["bound"], "better": m["better"]}
                   for m in spec["end_to_end"]},
        "workloads": report,
    }
    path = out_dir / "spine.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"[spine] wrote {path}{' (noisy machine)' if noisy else ''}", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        sys.path.insert(0, str(HERE))
        from compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="looser ln f: seconds-long campaigns, for self-tests")
    parser.add_argument("--max-rounds", type=int, default=20_000)
    parser.add_argument("--details",
                        help="write the run's per-campaign records and spans here")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", help="suite output directory")
    args = parser.parse_args(argv)
    if args.workload is None:
        return suite(args)
    if args.seconds is None:
        parser.error("--workload needs --seconds")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
