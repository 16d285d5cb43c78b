"""Render a per-phase breakdown from a telemetry trace.

``python -m repro.obs.report trace.jsonl`` reads the newline-delimited JSON
records written by :class:`repro.obs.events.JsonlSink` and prints

- the runs contained in the trace (id, record count, wall-clock span),
- a per-phase table aggregated over span records (calls, total time, mean,
  share of traced time) with walker throughput where spans carry ``steps``,
- exchange-acceptance rates per adjacent window pair,
- the per-window ln f trajectory (sync events),
- a training summary when trainer events are present,
- a profiled-sections table when ``profile`` events are present (emitted by
  :mod:`repro.obs.profile` via the REWL driver),
- a "Cost attribution" table — profiler sections folded into the
  propose/ΔE/commit/exchange/... phase tree of
  :mod:`repro.obs.costattr` — when ``cost`` events are present,
- a run-health digest — heartbeat count plus ``health_alert`` events by
  kind — when :mod:`repro.obs.health` monitored the run,
- a "Convergence" table — per-window flatness/fill/ln g drift, walker-label
  tunneling counts, and the ETA projection — when the run carried a
  :class:`repro.obs.convergence.ConvergenceLedger`,
- a "Resilience" table — per-window disposition (healthy / retrying /
  rolled-back / quarantined), guard trips, rollbacks, plus budget status
  and an explicit DEGRADED banner — when the run carried a
  :class:`repro.resilience.CampaignSupervisor`.

This is the consumer side of the schema described in DESIGN.md §8/§10; the
producer side is wired through :class:`repro.parallel.rewl.REWLDriver`,
:class:`repro.sampling.batched.BatchedWangLandauSampler`,
:class:`repro.training.trainer.ProposalTrainer`, and the experiment harness.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from repro.obs.events import event_field

__all__ = ["load_trace", "render_report", "main"]


def load_trace(path, run: str | None = None) -> list[dict]:
    """Parse a JSONL trace; skips malformed lines, optionally filters by run."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and (run is None or record.get("run") == run):
                records.append(record)
    return records


def _fmt_seconds(s: float) -> str:
    return f"{s:.4f}"


def _span_table(records: list[dict]) -> str:
    from repro.util.tables import format_table

    agg: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "steps": 0}
    )
    for r in records:
        if r.get("kind") != "span":
            continue
        row = agg[r.get("path", r.get("name", "?"))]
        row["calls"] += 1
        row["total"] += float(r.get("dur_s", 0.0))
        if isinstance(r.get("steps"), (int, float)):
            row["steps"] += r["steps"]
    if not agg:
        return "(no span records)"
    # Share is computed against top-level spans only; child spans are a
    # subdivision of their parents, not extra wall time.
    top_total = sum(v["total"] for path, v in agg.items() if "." not in path)
    if top_total <= 0:
        top_total = sum(v["total"] for v in agg.values())
    rows = []
    for path in sorted(agg):
        v = agg[path]
        mean_ms = v["total"] / v["calls"] * 1e3 if v["calls"] else 0.0
        share = v["total"] / top_total if top_total > 0 else 0.0
        throughput = f"{v['steps'] / v['total']:,.0f}" if v["steps"] and v["total"] > 0 else "-"
        rows.append([path, v["calls"], _fmt_seconds(v["total"]),
                     f"{mean_ms:.3f}", f"{share:.1%}", throughput])
    return format_table(
        ["phase", "calls", "total_s", "mean_ms", "share", "steps/s"],
        rows, title="per-phase breakdown",
    )


def _exchange_table(records: list[dict]) -> str | None:
    from repro.util.tables import format_table

    attempts: dict[int, int] = defaultdict(int)
    accepts: dict[int, int] = defaultdict(int)
    for r in records:
        if r.get("kind") != "exchange_attempt":
            continue
        pair = int(r.get("pair", -1))
        attempts[pair] += 1
        if r.get("accepted"):
            accepts[pair] += 1
    if not attempts:
        return None
    rows = []
    for pair in sorted(attempts):
        att, acc = attempts[pair], accepts[pair]
        rate = f"{acc / att:.1%}" if att else "-"
        rows.append([f"{pair}-{pair + 1}", att, acc, rate])
    return format_table(
        ["window pair", "attempts", "accepts", "acceptance"],
        rows, title="replica exchanges",
    )


def _lnf_table(records: list[dict]) -> str | None:
    from repro.util.tables import format_table

    per_window: dict[int, list[float]] = defaultdict(list)
    for r in records:
        if r.get("kind") == "sync":
            per_window[int(r.get("window", -1))].append(float(r.get("ln_f", 0.0)))
        elif r.get("kind") == "wl_iteration":
            per_window[int(r.get("window", 0))].append(float(r.get("ln_f", 0.0)))
    if not per_window:
        return None
    rows = [
        [w, len(traj), f"{traj[0]:.3g}", f"{traj[-1]:.3g}"]
        for w, traj in sorted(per_window.items())
    ]
    return format_table(
        ["window", "iterations", "first ln f", "final ln f"],
        rows, title="ln f trajectory",
    )


def _fault_lines(records: list[dict]) -> list[str]:
    """Fault-tolerance digest: retries by reason, checkpoint I/O."""
    retries: dict[str, int] = defaultdict(int)
    for r in records:
        if r.get("kind") == "task_retry":
            retries[str(r.get("reason", "?"))] += 1
    saved = sum(1 for r in records if r.get("kind") == "checkpoint_saved")
    restored = sum(1 for r in records if r.get("kind") == "checkpoint_restored")
    fallbacks = sum(1 for r in records if r.get("kind") == "checkpoint_fallback")
    if not (retries or saved or restored or fallbacks):
        return []
    parts = []
    if retries:
        by_reason = ", ".join(f"{k}={v}" for k, v in sorted(retries.items()))
        parts.append(f"{sum(retries.values())} task retries ({by_reason})")
    if saved or restored:
        parts.append(f"checkpoints: {saved} saved, {restored} restored")
    if fallbacks:
        parts.append(f"{fallbacks} fallback(s) to a previous snapshot")
    return ["fault tolerance: " + "; ".join(parts), ""]


def _profile_table(records: list[dict]) -> str | None:
    """Sections table from ``profile`` events (latest event wins per run).

    The driver emits one cumulative ``profile`` event at run end, so merging
    across runs sums the last event of each run.
    """
    from repro.util.tables import format_table

    latest: dict[str, dict] = {}
    for r in records:
        if r.get("kind") == "profile" and isinstance(r.get("sections"), dict):
            latest[str(r.get("run", "?"))] = r["sections"]
    if not latest:
        return None
    merged: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "timed": 0, "est_total_s": 0.0}
    )
    for sections in latest.values():
        for name, stat in sections.items():
            row = merged[name]
            row["calls"] += int(stat.get("calls", 0))
            row["timed"] += int(stat.get("timed", 0))
            row["est_total_s"] += float(stat.get("est_total_s", 0.0))
    rows = []
    for name in sorted(merged):
        v = merged[name]
        mean_us = v["est_total_s"] / v["calls"] * 1e6 if v["calls"] else 0.0
        rows.append([name, v["calls"], v["timed"],
                     f"{v['est_total_s']:.4f}", f"{mean_us:.2f}"])
    return format_table(
        ["section", "calls", "timed", "est_total_s", "mean_us"],
        rows, title="profiled sections",
    )


def _cost_lines(records: list[dict]) -> list[str]:
    """"Cost attribution" table from ``cost`` events (latest per run).

    The driver emits one cumulative ``cost`` event at run end (the phase
    tree built by :func:`repro.obs.costattr.attribute_cost` from the merged
    profile), so per run the newest event wins.
    """
    from repro.obs.costattr import COST_KIND, PHASES
    from repro.util.tables import format_table

    latest: dict[str, dict] = {}
    for r in records:
        if r.get("kind") != COST_KIND:
            continue
        if isinstance(event_field(r, "phases"), dict):
            latest[str(r.get("run", "?"))] = r
    if not latest:
        return []
    lines: list[str] = []
    for run_id, summ in latest.items():
        phases = event_field(summ, "phases", {})
        rows = []
        for phase in PHASES:
            bucket = phases.get(phase)
            if not bucket:
                continue
            sections = bucket.get("sections", {})
            rows.append([
                phase,
                f"{bucket.get('seconds', 0.0):.4f}",
                f"{bucket.get('share', 0.0):.1%}",
                ", ".join(sorted(sections))[:56] or "-",
            ])
        if rows:
            lines.append(format_table(
                ["phase", "est_total_s", "share", "sections"],
                rows, title=f"Cost attribution (run {run_id})",
            ))
        total = event_field(summ, "total_s", 0.0)
        unattributed = event_field(summ, "unattributed_s", 0.0)
        detail = f"attributed wall-clock: {total:.4f}s"
        if unattributed:
            detail += f" (+{unattributed:.4f}s in unmapped sections)"
        lines.append(detail)
        lines.append("")
    return lines


def _health_lines(records: list[dict]) -> list[str]:
    """Run-health digest: heartbeat count + alerts by kind (with details)."""
    heartbeats = sum(1 for r in records if r.get("kind") == "heartbeat")
    alerts = [r for r in records if r.get("kind") == "health_alert"]
    if not heartbeats and not alerts:
        return []
    by_kind: dict[str, int] = defaultdict(int)
    for a in alerts:
        # Alert payloads may ride flat next to the envelope or nested under
        # "fields" — event_field reads both shapes.
        by_kind[str(event_field(a, "alert", "?"))] += 1
    summary = ", ".join(f"{k}={v}" for k, v in sorted(by_kind.items()))
    lines = [
        f"run health: {heartbeats} heartbeat(s), {len(alerts)} alert(s)"
        + (f" ({summary})" if summary else "")
    ]
    for a in alerts:
        lines.append(f"  [{event_field(a, 'alert', '?')}] round "
                     f"{event_field(a, 'round', '?')}: "
                     f"{event_field(a, 'detail', '')}")
    lines.append("")
    return lines


def _convergence_lines(records: list[dict]) -> list[str]:
    """"Convergence" section from ledger summary events (latest per run).

    The driver emits one cumulative ``convergence`` event at run end (the
    digest of :class:`repro.obs.convergence.ConvergenceLedger`), so per run
    the newest event wins; the ETA shown is the freshest of the summary's
    own projection and the last heartbeat's ``eta`` field.
    """
    from repro.util.tables import format_table

    latest: dict[str, dict] = {}
    for r in records:
        if r.get("kind") != "convergence":
            continue
        windows = event_field(r, "windows")
        if isinstance(windows, list):
            latest[str(r.get("run", "?"))] = r
    if not latest:
        return []
    heartbeat_eta = None
    for r in records:
        if r.get("kind") == "heartbeat":
            eta = event_field(r, "eta")
            if isinstance(eta, dict):
                heartbeat_eta = eta
    lines: list[str] = []
    for run_id, summ in latest.items():
        eta = event_field(summ, "eta") or heartbeat_eta
        eta_by_window = {}
        if isinstance(eta, dict):
            for entry in eta.get("windows", []):
                eta_by_window[entry.get("window")] = entry
        rows = []
        for w in event_field(summ, "windows", []):
            flat = w.get("flatness") or []
            traj = w.get("ln_f") or []
            drift = w.get("ln_g_drift")
            proj = eta_by_window.get(w.get("window"))
            rows.append([
                w.get("window"),
                w.get("syncs", 0),
                f"{traj[-1]:.3g}" if traj else "-",
                f"{flat[-1]:.3f}" if flat else "-",
                f"{w.get('fill', 0.0):.1%}",
                "-" if drift is None else f"{drift:.3g}",
                "flat" if proj is None else f"{proj.get('eta_rounds', '?')}",
            ])
        if rows:
            lines.append(format_table(
                ["window", "syncs", "ln f", "flatness", "fill",
                 "ln g drift", "eta rounds"],
                rows, title=f"Convergence (run {run_id})",
            ))
        attempts = sum(event_field(summ, "pair_attempts", []) or [])
        accepts = sum(event_field(summ, "pair_accepts", []) or [])
        detail = (
            f"replica diffusion: {event_field(summ, 'tunnels', 0)} tunnel(s), "
            f"{event_field(summ, 'round_trips', 0)} round trip(s); "
            f"exchanges {accepts}/{attempts} accepted"
        )
        if isinstance(eta, dict) and eta.get("windows"):
            seconds = eta.get("seconds")
            wall = "" if seconds is None else f" (~{seconds:,.0f}s)"
            detail += f"; ETA {eta.get('rounds', '?')} round(s){wall}"
        lines.append(detail)
        lines.append("")
    return lines


def _resilience_lines(records: list[dict]) -> list[str]:
    """"Resilience" section: disposition table + guard/budget digest.

    The driver emits one cumulative ``resilience`` event at run end (the
    digest of :class:`repro.resilience.CampaignSupervisor`); per run the
    newest event wins.  Incremental ``guard_trip`` / ``window_rollback`` /
    ``window_quarantine`` / ``budget_exhausted`` events are counted as a
    cross-check even when no summary made it out (e.g. an aborted run).
    """
    from repro.util.tables import format_table

    latest: dict[str, dict] = {}
    for r in records:
        if r.get("kind") != "resilience":
            continue
        if isinstance(event_field(r, "windows"), list):
            latest[str(r.get("run", "?"))] = r
    trips = sum(1 for r in records if r.get("kind") == "guard_trip")
    rollbacks = sum(1 for r in records if r.get("kind") == "window_rollback")
    quarantines = sum(1 for r in records if r.get("kind") == "window_quarantine")
    budget_events = [r for r in records if r.get("kind") == "budget_exhausted"]
    if not latest and not (trips or rollbacks or quarantines or budget_events):
        return []
    lines: list[str] = []
    for run_id, summ in latest.items():
        rows = []
        for w in event_field(summ, "windows", []) or []:
            rows.append([
                w.get("window"),
                w.get("disposition", "?"),
                w.get("guard_trips", 0),
                w.get("rollbacks", 0),
                w.get("task_failures", 0),
                (w.get("reason") or "-")[:48],
            ])
        if rows:
            lines.append(format_table(
                ["window", "disposition", "guard trips", "rollbacks",
                 "task failures", "reason"],
                rows, title=f"Resilience (run {run_id}, "
                            f"mode {event_field(summ, 'mode', '?')})",
            ))
        budget = event_field(summ, "budget") or {}
        status = (
            f"budget exhausted ({budget.get('trigger')})"
            if budget.get("exhausted") else "budget ok"
        )
        flag = "DEGRADED" if event_field(summ, "degraded") else "complete"
        lines.append(
            f"campaign {flag}: {event_field(summ, 'guard_trips', 0)} guard "
            f"trip(s), {event_field(summ, 'rollbacks', 0)} rollback(s), "
            f"{len(event_field(summ, 'quarantined', []) or [])} "
            f"quarantine(s); {status}"
        )
        lines.append("")
    if not latest:
        parts = []
        if trips:
            parts.append(f"{trips} guard trip(s)")
        if rollbacks:
            parts.append(f"{rollbacks} rollback(s)")
        if quarantines:
            parts.append(f"{quarantines} quarantine(s)")
        for b in budget_events:
            parts.append(f"budget exhausted ({event_field(b, 'trigger', '?')})")
        lines.append("resilience: " + "; ".join(parts)
                     + " (no run summary — campaign aborted?)")
        lines.append("")
    return lines


def _training_lines(records: list[dict]) -> list[str]:
    losses = [float(r["loss"]) for r in records
              if r.get("kind") == "train_step" and "loss" in r]
    if not losses:
        return []
    return [
        f"training: {len(losses)} steps, loss {losses[0]:.4f} -> {losses[-1]:.4f}",
        "",
    ]


def _engine_lines(records: list[dict]) -> list[str]:
    """Which implementation ran the local-move blocks (``engine.native``
    events: the compiled super-step, or the NumPy block and why)."""
    from repro.kernels.native import describe

    engines = sorted({describe(r) for r in records
                      if r.get("kind") == "engine.native"})
    return [f"superstep: {', '.join(engines)}"] if engines else []


def render_report(records: list[dict]) -> str:
    """Assemble the full text report for one trace's records."""
    lines: list[str] = []
    runs: dict[str, list[dict]] = defaultdict(list)
    for r in records:
        runs[str(r.get("run", "?"))].append(r)
    for run_id, recs in runs.items():
        stamps = [r["ts"] for r in recs if isinstance(r.get("ts"), (int, float))]
        span = f"{max(stamps) - min(stamps):.1f}s" if len(stamps) > 1 else "n/a"
        lines.append(f"run {run_id}: {len(recs)} records, wall span {span}")
    lines.extend(_engine_lines(records))
    lines.append("")
    lines.append(_span_table(records))
    lines.append("")
    for table in (_exchange_table(records), _lnf_table(records),
                  _profile_table(records)):
        if table is not None:
            lines.append(table)
            lines.append("")
    lines.extend(_cost_lines(records))
    lines.extend(_convergence_lines(records))
    lines.extend(_resilience_lines(records))
    lines.extend(_health_lines(records))
    lines.extend(_fault_lines(records))
    lines.extend(_training_lines(records))
    errors = [r for r in records if r.get("kind") == "span" and "error" in r]
    if errors:
        lines.append(f"WARNING: {len(errors)} span(s) closed by an exception "
                     f"({sorted({r['error'] for r in errors})})")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Per-phase time/throughput breakdown of a telemetry trace.",
    )
    parser.add_argument("trace", help="path to a .jsonl trace file")
    parser.add_argument("--run", default=None,
                        help="only include records from this run id")
    args = parser.parse_args(argv)

    path = Path(args.trace)
    if not path.exists():
        print(f"no such trace file: {path}", file=sys.stderr)
        return 1
    records = load_trace(path, run=args.run)
    if not records:
        print(f"no telemetry records in {path}"
              + (f" for run {args.run}" if args.run else ""), file=sys.stderr)
        return 1
    print(render_report(records), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
