"""Wall-clock cost attribution: profiler sections folded into phases.

The :class:`~repro.obs.profile.SectionProfiler` answers "how long does one
block take"; this module answers the operator question "where did the
campaign's wall-clock go".  :func:`attribute_cost` folds a merged profile
(``SectionProfiler.as_dict()``) into a fixed phase tree:

==========  ==================================================================
phase       profiler sections
==========  ==================================================================
propose     ``proposal.*`` (field draws, incl. pooled DL candidates)
block       ``wl.block`` — one block of super-steps for a group of teams,
            compiled or NumPy: resolve, ΔE gather, bin lookup and commit
            (``wl.block.*`` sections, e.g. a NumPy block's pooled-row log q
            scoring ``wl.block.score``, time parts of it and add nothing)
commit      ``wl.flat_check``
advance     the *unattributed* remainder of ``rewl.advance`` — driver-side
            advance time not explained by the sections above or by the
            guards (dispatch, shm round-trips, failure handling)
exchange    ``rewl.exchange_round``
sync        ``rewl.sync``
checkpoint  ``rewl.checkpoint``
guard       ``rewl.guard``
stitch      ``rewl.stitch``
==========  ==================================================================

The propose, block, commit and guard sections happen *inside* the advance
phase (each window is guarded as its advance lands), so naive addition
would double count: the ``advance`` row reports only the remainder
``rewl.advance − (propose + block + commit + guard)``, clamped at zero
(the subtraction mixes exact timings with strided estimates, which can land
slightly negative).  Shares are fractions of the attributed total, so the
table reads as "X% of the accounted wall-clock".

All numbers are ``est_total_s`` estimates (mean of timed calls × call
count — the profiler's own reconstruction); the attribution is a pure
function of the profile dict and is rendered three ways: ``/metrics``
gauges (:func:`publish_cost`), the ``obs report`` "Cost attribution" table,
and a one-line ``obs dash`` summary.
"""

from __future__ import annotations

__all__ = ["COST_KIND", "PHASES", "attribute_cost", "publish_cost",
           "format_cost_line"]

#: Event kind under which drivers emit the attribution dict.
COST_KIND = "cost"

#: Phase order for rendering (biggest conceptual pipeline order, not size).
PHASES = ("propose", "block", "commit", "advance",
          "exchange", "sync", "checkpoint", "guard", "stitch")

#: Exact-section → phase mapping (the ``proposal.`` prefix in _phase_of).
_EXACT = {
    "wl.block": "block",
    "wl.flat_check": "commit",
    "rewl.exchange_round": "exchange",
    "rewl.sync": "sync",
    "rewl.checkpoint": "checkpoint",
    "rewl.guard": "guard",
    "rewl.stitch": "stitch",
}

#: Sections folded into the advance remainder rather than a phase of their
#: own (the driver-side phase timer).
_ADVANCE_SECTION = "rewl.advance"


def _phase_of(section: str) -> str | None:
    if section in _EXACT:
        return _EXACT[section]
    if section.startswith("proposal."):
        return "propose"
    return None


def attribute_cost(profile: dict) -> dict:
    """Fold a ``SectionProfiler.as_dict()`` profile into the phase tree.

    Returns ``{"total_s", "phases": {phase: {"seconds", "share",
    "sections": {name: seconds}}}, "unattributed_s"}``.  Phases with zero
    cost are omitted; ``unattributed_s`` collects sections that map to no
    phase (custom user sections), so the table never silently drops time.
    """
    phases: dict[str, dict] = {}
    advance_total = 0.0
    inside_advance = 0.0
    unattributed = 0.0
    for section, entry in sorted(profile.items()):
        seconds = float(entry.get("est_total_s", 0.0) or 0.0)
        if seconds <= 0.0:
            continue
        if section == _ADVANCE_SECTION:
            advance_total += seconds
            continue
        if section.startswith("wl.block."):  # inside wl.block, counted there
            continue
        phase = _phase_of(section)
        if phase is None:
            unattributed += seconds
            continue
        bucket = phases.setdefault(phase, {"seconds": 0.0, "sections": {}})
        bucket["seconds"] += seconds
        bucket["sections"][section] = round(seconds, 6)
        if phase in ("propose", "block", "commit", "guard"):
            inside_advance += seconds
    remainder = max(0.0, advance_total - inside_advance)
    if remainder > 0.0:
        phases["advance"] = {
            "seconds": remainder,
            "sections": {_ADVANCE_SECTION: round(remainder, 6)},
        }
    total = sum(bucket["seconds"] for bucket in phases.values())
    for bucket in phases.values():
        bucket["share"] = round(bucket["seconds"] / total, 4) if total else 0.0
        bucket["seconds"] = round(bucket["seconds"], 6)
    return {
        "total_s": round(total, 6),
        "phases": {p: phases[p] for p in PHASES if p in phases},
        "unattributed_s": round(unattributed, 6),
    }


def publish_cost(cost: dict, metrics) -> None:
    """Expose an attribution as registry gauges (→ ``/metrics``).

    One labeled gauge per phase (``rewl.cost.phase_s{phase="..."}``) plus
    the attributed total — the shape Prometheus dashboards stack.
    """
    metrics.set("rewl.cost.total_s", cost.get("total_s", 0.0))
    for phase, bucket in cost.get("phases", {}).items():
        metrics.set("rewl.cost.phase_s", bucket["seconds"],
                    labels={"phase": phase})
        metrics.set("rewl.cost.phase_share", bucket["share"],
                    labels={"phase": phase})


def format_cost_line(cost: dict, top: int = 3) -> str:
    """One-line digest for ``obs dash``: top phases by share."""
    phases = cost.get("phases", {})
    if not phases:
        return "cost attribution: (no profiled sections)"
    ranked = sorted(phases.items(), key=lambda kv: -kv[1]["seconds"])
    bits = ", ".join(
        f"{phase} {bucket['share']:.0%} ({bucket['seconds']:.3g}s)"
        for phase, bucket in ranked[:top]
    )
    return (
        f"cost attribution: {cost.get('total_s', 0.0):.3g}s attributed — {bits}"
    )
