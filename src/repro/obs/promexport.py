"""OpenMetrics / Prometheus text exposition of the metrics registry.

:func:`render_openmetrics` turns a :class:`~repro.obs.metrics.MetricsRegistry`
snapshot (``metrics.as_dict()`` — the picklable plain-data form that already
travels through checkpoints and per-rank reductions) into the OpenMetrics
text format that Prometheus and its ecosystem scrape:

- dotted metric names are sanitized to the ``[a-zA-Z_:][a-zA-Z0-9_:]*``
  charset (``rewl.window.ln_f`` → ``rewl_window_ln_f``),
- counters get the mandatory ``_total`` sample suffix,
- histograms expand to cumulative ``_bucket{le="..."}`` series (with the
  ``+Inf`` bucket), ``_count`` and ``_sum``,
- label values are escaped per the spec (backslash, double quote, newline),
- every family gets exactly one ``# TYPE`` line, series of one family are
  contiguous, and the exposition ends with ``# EOF``.

The renderer is a pure function of the snapshot dict — no clock, no RNG, no
registry mutation — so serving ``/metrics`` (:mod:`repro.obs.server`)
cannot perturb a campaign.  Validity is pinned down in
``tests/test_obs_promexport.py`` (escaping, type lines, counter
monotonicity across successive snapshots).
"""

from __future__ import annotations

import math
import re

__all__ = ["CONTENT_TYPE", "render_openmetrics", "sanitize_metric_name"]

#: Content type of the exposition (the Prometheus text format; OpenMetrics
#: consumers accept it and stdlib serving needs no content negotiation).
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_BAD = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(name: str) -> str:
    """Fold a dotted registry name into the Prometheus name charset."""
    out = _NAME_BAD.sub("_", str(name))
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _sanitize_label_name(name: str) -> str:
    out = _LABEL_BAD.sub("_", str(name))
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _escape_label_value(value) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(labels: dict, extra: list[tuple[str, str]] = ()) -> str:
    pairs = [
        (_sanitize_label_name(k), _escape_label_value(v))
        for k, v in sorted(labels.items())
    ]
    pairs.extend(extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def _render_value(value) -> str:
    if value is None:
        return "NaN"
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_openmetrics(snapshot: dict, prefix: str = "") -> str:
    """Render a ``metrics.as_dict()`` snapshot as exposition text.

    ``snapshot`` maps series keys to the plain-data entry each metric's
    ``as_dict`` produced; labeled entries carry explicit ``name`` +
    ``labels`` fields, unlabeled ones use the key as the family name.
    ``prefix`` is prepended to every family name (e.g. ``"repro_"``).
    """
    # Group series by family so each family renders one TYPE line with its
    # series contiguous (an OpenMetrics requirement).
    families: dict[str, list[tuple[dict, dict]]] = {}
    for key, entry in sorted(snapshot.items()):
        name = sanitize_metric_name(prefix + str(entry.get("name", key)))
        labels = entry.get("labels") or {}
        families.setdefault(name, []).append((entry, labels))

    lines: list[str] = []
    for name in sorted(families):
        series = families[name]
        kind = series[0][0].get("kind", "gauge")
        if kind == "counter":
            lines.append(f"# TYPE {name} counter")
            for entry, labels in series:
                lines.append(
                    f"{name}_total{_render_labels(labels)} "
                    f"{_render_value(entry.get('value', 0))}"
                )
        elif kind == "histogram":
            lines.append(f"# TYPE {name} histogram")
            for entry, labels in series:
                buckets = entry.get("buckets", [])
                counts = entry.get("counts", [])
                cumulative = 0
                for edge, count in zip(buckets, counts):
                    cumulative += int(count)
                    le = _render_labels(labels, [("le", _render_value(edge))])
                    lines.append(f"{name}_bucket{le} {cumulative}")
                total = int(entry.get("count", 0))
                le_inf = _render_labels(labels, [("le", "+Inf")])
                lines.append(f"{name}_bucket{le_inf} {total}")
                rendered = _render_labels(labels)
                lines.append(f"{name}_count{rendered} {total}")
                lines.append(
                    f"{name}_sum{rendered} {_render_value(entry.get('sum', 0.0))}"
                )
        else:  # gauge (and anything unknown degrades to a gauge)
            lines.append(f"# TYPE {name} gauge")
            for entry, labels in series:
                lines.append(
                    f"{name}{_render_labels(labels)} "
                    f"{_render_value(entry.get('value', 0.0))}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
