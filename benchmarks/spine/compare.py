"""``run.py compare A.json B.json``: did B get worse than A?

Per workload x end-to-end metric: both medians, the ratio B/A (A is the
base), the regression bound, and a verdict

- ``worse``       B's median is worse than A's by more than the bound (and
                  the spread is within the bound, or B loses every run),
- ``better``      every run of B reads better than every run of A, by more
                  than the run-to-run spread,
- ``ok``          no worse than the bound allows, and the runs resolve it,
- ``unresolved``  the run-to-run spread is wider than the bound, so the
                  medians cannot show "no worse" (and B does not win every
                  run).

``dos_error`` and ``failed_frac`` are gated, not bounded: ``worse`` when a
campaign of B misses the oracle's tolerance, or B's ``failed_frac`` is above
A's.  Exit status 1 on any ``worse``; 2 when the two files cannot be
compared (a smoke result against a full one).
"""

from __future__ import annotations

import json
import sys

__all__ = ["verdict", "compare", "main"]

#: absolute floors under the relative bound (set-up of the Ising workloads is
#: ~10 ms, where 25 % is timer noise): metric -> same unit as the metric
FLOORS = {"setup_s": 0.05}


def verdict(a: dict, b: dict, better: str, bound: float, floor: float = 0.0) -> str:
    """``a``/``b`` are ``{"median", "min", "max"}`` of the runs of each side."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    allowed = max(bound, floor / a["median"])
    spread = max((s["max"] - s["min"]) / s["median"] for s in (a, b))
    if better == "lower":
        b_wins, b_loses = b["max"] < a["min"], b["min"] > a["max"]
    else:
        b_wins, b_loses = b["min"] > a["max"], b["max"] < a["min"]
    if worse_by > allowed and (spread <= allowed or b_loses):
        return "worse"
    if spread > allowed:
        return "better" if b_wins else "unresolved"
    return "better" if b_wins and -worse_by > spread else "ok"


def compare(a: dict, b: dict) -> tuple[list[dict], bool]:
    """Rows of the comparison and whether B regressed."""
    rows, regressed = [], False
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            rows.append({"workload": name, "metric": "-", "verdict": "missing in B"})
            regressed = True
            continue
        for metric, spec in a["bounds"].items():
            sa, sb = wa["end_to_end"].get(metric), wb["end_to_end"].get(metric)
            if sa is None or sb is None:
                rows.append({"workload": name, "metric": metric,
                             "verdict": "no runs"})
                regressed = True
                continue
            v = verdict(sa, sb, spec["better"], spec["bound"], FLOORS.get(metric, 0.0))
            regressed = regressed or v == "worse"
            rows.append({
                "workload": name, "metric": metric, "a": sa["median"],
                "b": sb["median"], "ratio": sb["median"] / sa["median"],
                "bound": spec["bound"], "unit": sa["unit"], "verdict": v,
            })
        ea, eb = wa["end_to_end"].get("dos_error"), wb["end_to_end"].get("dos_error")
        if ea and eb:
            # gated, not bounded: no campaign of B may miss the tolerance
            missed = eb["max"] > eb["tolerance"]
            regressed = regressed or missed
            rows.append({
                "workload": name, "metric": "dos_error", "a": ea["median"],
                "b": eb["median"], "ratio": eb["median"] / ea["median"],
                "bound": eb["tolerance"], "unit": "err, bound = tolerance",
                "verdict": "worse" if missed else "ok",
            })
        rose = wb["failed_frac"] > wa["failed_frac"]
        regressed = regressed or rose
        rows.append({
            "workload": name, "metric": "failed_frac", "a": wa["failed_frac"],
            "b": wb["failed_frac"], "ratio": float("nan"), "bound": 0.0,
            "unit": "ratio", "verdict": "worse" if rose else "ok",
        })
    return rows, regressed


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        a, b = json.load(fa), json.load(fb)
    if a["smoke"] != b["smoke"]:
        print("spine compare: refusing to compare a --smoke result with a full one",
              file=sys.stderr)
        return 2
    for side, doc in (("A", a), ("B", b)):
        if doc["noisy"]:
            print(f"note: {side} was taken on a noisy machine "
                  f"(calibration drift {doc['calibration']['drift']:.1%})")
    rows, regressed = compare(a, b)
    print(f"{'workload':16s} {'metric':14s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for r in rows:
        if "a" not in r:
            print(f"{r['workload']:16s} {r['metric']:14s} {r['verdict']}")
            continue
        print(f"{r['workload']:16s} {r['metric']:14s} {r['a']:12.5g} {r['b']:12.5g} "
              f"{r['ratio']:7.3f} {r['bound']:6.2f}  {r['verdict']} [{r['unit']}]")
    return 1 if regressed else 0
