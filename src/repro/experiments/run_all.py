"""Regenerate every paper table/figure: ``python -m repro.experiments.run_all``.

Options
-------
--full        run at full (slow) fidelity instead of quick mode
--only E3,E7  run a subset of experiment ids
--seed N      root seed (default 0)
--resume      continue an interrupted campaign: skip experiments already
              recorded in ``results/campaign.json`` (same mode/seed; failed
              and degraded ones are retried), and let REWL-driving
              experiments restore their own mid-run checkpoints from the
              cache directory
--resilience SPEC
              enable campaign self-healing (guards / rollback / window
              quarantine / budgets) for every REWL-driving experiment;
              SPEC is a ``REPRO_RESILIENCE`` value, e.g. ``1`` or
              ``mode=quarantine,rollbacks=2,wall_s=3600``
--serve PORT  serve live campaign telemetry over HTTP while experiments
              run: ``/metrics`` (OpenMetrics), ``/healthz``, ``/campaign``
              (manifest + live per-window status), ``/events`` (trace
              tail).  Port 0 binds an ephemeral port (printed at startup).
              Equivalent to setting ``REPRO_OBS_PORT``; serving is
              read-only and never perturbs sampling (DESIGN.md §15)

Exit codes: 0 all requested experiments succeeded; 1 some failed;
3 all completed but at least one produced a *degraded* (partial) result —
its ids are listed under ``degraded`` in ``results/campaign.json``.

Each experiment prints its tables and writes ``results/<id>.json``; a
summary manifest lands in ``results/summary.json`` and the paper-vs-measured
lines are exactly what EXPERIMENTS.md records.  Both manifests are written
atomically (tmp + rename), and the campaign manifest is updated after every
experiment, so a killed campaign can always ``--resume`` from the last good
state.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import traceback

from repro.experiments.common import EXPERIMENTS, experiment_telemetry, results_dir
from repro.kernels import native
from repro.obs import ConsoleSink

__all__ = ["main"]


def _atomic_write_json(path, payload: dict) -> None:
    """Crash-consistent manifest write: tmp file + atomic rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as f:
        f.write(json.dumps(payload, indent=2))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def _read_json(path) -> dict:
    if not path.exists():
        return {}
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return {}


def _telemetry_manifest() -> dict:
    """Where this campaign's traces land, recorded so post-hoc tooling
    (``obs report`` / ``obs export-trace``) can find them from the manifest
    alone."""
    return {
        "trace": os.environ.get("REPRO_TRACE") or None,
        "trace_dir": os.environ.get("REPRO_TRACE_DIR") or None,
        "convergence": os.environ.get("REPRO_CONVERGENCE") or None,
    }


def _load_campaign(path, mode: str, seed: int, resume: bool) -> dict:
    """The campaign manifest, or a fresh one when not resumable/compatible."""
    fresh = {"mode": mode, "seed": seed, "completed": [], "failed": [],
             "degraded": [], "telemetry": _telemetry_manifest(),
             "superstep": native.describe()}
    if not resume:
        return fresh
    campaign = _read_json(path)
    if campaign.get("mode") != mode or campaign.get("seed") != seed:
        return fresh
    campaign["superstep"] = fresh["superstep"]  # this process's, not the saved one
    campaign.setdefault("completed", [])
    campaign.setdefault("failed", [])
    campaign.setdefault("degraded", [])
    campaign.setdefault("telemetry", _telemetry_manifest())
    return campaign


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run_all",
        description="Regenerate every DeepThermo table and figure.",
    )
    parser.add_argument("--full", action="store_true", help="full fidelity (slow)")
    parser.add_argument("--only", type=str, default="",
                        help="comma-separated experiment ids (e.g. E1,E7)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--resume", action="store_true",
                        help="skip experiments already completed by an "
                             "interrupted campaign with the same mode/seed")
    parser.add_argument("--resilience", type=str, default="", metavar="SPEC",
                        help="enable campaign self-healing for REWL-driving "
                             "experiments (a REPRO_RESILIENCE value, e.g. "
                             "'1' or 'mode=quarantine,wall_s=3600')")
    parser.add_argument("--serve", type=int, default=None, metavar="PORT",
                        help="serve live telemetry over HTTP on PORT "
                             "(/metrics, /healthz, /campaign, /events; "
                             "0 = ephemeral port, printed at startup)")
    args = parser.parse_args(argv)

    server = None
    if args.serve is not None:
        from repro.obs.server import OBS_PORT_ENV_VAR, get_board, start_server

        server = start_server(port=args.serve)
        # Drivers constructed below see the knob and attach their recorders
        # to the (already running) singleton board.
        os.environ[OBS_PORT_ENV_VAR] = str(server.port)
        print(f"serving live telemetry on {server.url} "  # lint-api: allow
              f"(/metrics /healthz /campaign /events)")
        trace = os.environ.get("REPRO_TRACE", "").strip()
        if trace and trace not in ("stderr", "-"):
            get_board().publish_trace(trace)

    if args.resilience:
        from repro.resilience import RESILIENCE_ENV_VAR, ResilienceConfig

        try:
            ResilienceConfig.from_spec(args.resilience)  # fail fast on a bad spec
        except ValueError as exc:
            parser.error(str(exc))
        os.environ[RESILIENCE_ENV_VAR] = args.resilience

    wanted = [e.strip().upper() for e in args.only.split(",") if e.strip()] or list(EXPERIMENTS)
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment ids: {unknown}; known: {list(EXPERIMENTS)}")

    # Merge into any existing summary so partial (--only) runs refresh their
    # entries without dropping the others.
    summary_path = results_dir() / "summary.json"
    summary = _read_json(summary_path)
    mode = "full" if args.full else "quick"
    campaign_path = results_dir() / "campaign.json"
    campaign = _load_campaign(campaign_path, mode, args.seed, args.resume)

    def save_campaign() -> None:
        _atomic_write_json(campaign_path, campaign)
        if server is not None:
            # Mirror every manifest update onto the status board, so
            # /campaign always serves the same state the file records.
            from repro.obs.server import get_board

            get_board().publish_campaign(campaign)

    save_campaign()

    # Harness narration goes through the structured event logger (console
    # lines on stdout, plus a JSONL sink when REPRO_TRACE is set); the
    # human-readable ExperimentResult.print() tables stay the final render.
    console = ConsoleSink(sys.stdout)
    failures = []
    for exp_id in wanted:
        if (
            args.resume
            and exp_id in campaign["completed"]
            # Degraded results are retried on resume, like failures: a
            # partial harvest is not a completed experiment to build on.
            and exp_id not in campaign["degraded"]
            and (results_dir() / f"{exp_id.lower()}.json").exists()
        ):
            with experiment_telemetry(exp_id, extra_sinks=[console]) as tel:
                tel.emit("experiment_skipped", experiment=exp_id,
                         reason="already completed (campaign resume)")
            continue
        module = importlib.import_module(EXPERIMENTS[exp_id])
        with experiment_telemetry(exp_id, extra_sinks=[console]) as tel:
            tel.emit("experiment_start", experiment=exp_id,
                     module=EXPERIMENTS[exp_id], mode=mode, seed=args.seed)
            try:
                with tel.span(f"experiment.{exp_id}"):
                    result = module.run(quick=not args.full, seed=args.seed)
            except Exception as exc:  # noqa: BLE001 - report and continue
                traceback.print_exc()
                tel.emit("experiment_failed", experiment=exp_id,
                         error=f"{type(exc).__name__}: {exc}")
                failures.append(exp_id)
                if exp_id not in campaign["failed"]:
                    campaign["failed"].append(exp_id)
                save_campaign()
                continue
            # Merge rather than overwrite: experiments that created their own
            # telemetry handle (e.g. E11's REWL driver) already put span/
            # metric aggregates on the result, and the harness summary must
            # not clobber them.
            harness = tel.summary()
            if result.telemetry:
                harness["spans"] = {**harness["spans"],
                                    **result.telemetry.get("spans", {})}
                harness["metrics"] = {**harness["metrics"],
                                      **result.telemetry.get("metrics", {})}
            result.telemetry = harness
            result.print()
            path = result.save()
            tel.emit("experiment_end", experiment=exp_id,
                     elapsed_s=result.elapsed_s, file=str(path),
                     measured=result.measured,
                     degraded=bool(getattr(result, "degraded", False)))
        summary[exp_id] = {
            "title": result.title,
            "paper_claim": result.paper_claim,
            "measured": result.measured,
            "elapsed_s": result.elapsed_s,
            "file": str(path),
        }
        if exp_id not in campaign["completed"]:
            campaign["completed"].append(exp_id)
        if exp_id in campaign["failed"]:
            campaign["failed"].remove(exp_id)
        # A degraded (partial-harvest) result is *completed* but flagged, so
        # the campaign exit code and manifest can never report it as clean;
        # a clean rerun of the same experiment clears the flag.
        if getattr(result, "degraded", False):
            if exp_id not in campaign["degraded"]:
                campaign["degraded"].append(exp_id)
        elif exp_id in campaign["degraded"]:
            campaign["degraded"].remove(exp_id)
        save_campaign()
        ordered = {k: summary[k] for k in EXPERIMENTS if k in summary}
        _atomic_write_json(summary_path, ordered)

    ordered = {k: summary[k] for k in EXPERIMENTS if k in summary}
    _atomic_write_json(summary_path, ordered)
    with experiment_telemetry("run_all", extra_sinks=[console]) as tel:
        tel.emit("summary", file=str(summary_path), experiments=len(ordered),
                 failures=failures, degraded=list(campaign["degraded"]))
    if failures:
        return 1
    return 3 if campaign["degraded"] else 0


if __name__ == "__main__":
    sys.exit(main())
