"""Shared infrastructure for the experiment runners."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.hamiltonians import NbMoTaWHamiltonian
from repro.lattice import bcc, equiatomic_counts, random_configuration
from repro.obs import Telemetry
from repro.proposals import SwapProposal
from repro.sampling import CanonicalTeam, EnergyGrid
from repro.util.rng import as_generator

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "results_dir",
    "estimate_energy_range",
    "experiment_telemetry",
    "hea_system",
    "default_hea_grid",
]

#: Registry of experiment ids -> module paths (populated by run_all).
EXPERIMENTS = {
    "E1": "repro.experiments.e01_wl_validation",
    "E2": "repro.experiments.e02_hea_dos",
    "E3": "repro.experiments.e03_specific_heat",
    "E4": "repro.experiments.e04_sro",
    "E5": "repro.experiments.e05_acceptance",
    "E6": "repro.experiments.e06_time_to_flat",
    "E7": "repro.experiments.e07_strong_scaling",
    "E8": "repro.experiments.e08_weak_scaling",
    "E9": "repro.experiments.e09_throughput",
    "E10": "repro.experiments.e10_training_ablation",
    "E11": "repro.experiments.e11_window_ablation",
    "E12": "repro.experiments.e12_systems_table",
    # Extension experiments (DESIGN.md §4b) — not paper figures.
    "E13": "repro.experiments.e13_wham_cross_validation",
    "E14": "repro.experiments.e14_sro_anneal",
}


@dataclass
class ExperimentResult:
    """Everything one experiment produces.

    Attributes
    ----------
    experiment_id : str
        E1..E12.
    title : str
    paper_claim : str
        What the paper's figure/table shows (the *shape* we must match).
    measured : str
        One-line summary of what this run measured.
    tables : dict[str, str]
        Rendered text tables/series (printed by run_all).
    data : dict
        Raw numbers (JSON-serializable) for downstream use.
    elapsed_s : float
    telemetry : dict
        Structured run telemetry (span aggregates, metrics, run id) stamped
        by the harness; lands in the saved JSON as a ``telemetry`` block.
    degraded : bool
        True when the experiment completed on *partial* data — e.g. a REWL
        campaign that quarantined a window or hit a budget
        (:mod:`repro.resilience`).  Propagated to ``campaign.json`` and the
        run_all exit code so a degraded result can never pass silently.
    """

    experiment_id: str
    title: str
    paper_claim: str
    measured: str
    tables: dict[str, str] = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    elapsed_s: float = 0.0
    telemetry: dict = field(default_factory=dict)
    degraded: bool = False

    def print(self) -> None:
        # This IS the human-facing final render (DESIGN.md §8) — the one
        # place experiment code writes to stdout directly.
        tag = " [DEGRADED]" if self.degraded else ""
        header = (
            f"=== {self.experiment_id}: {self.title}{tag} "
            f"({self.elapsed_s:.1f}s) ==="
        )
        print(header)  # lint-api: allow
        for name in sorted(self.tables):
            print(self.tables[name])  # lint-api: allow
            print()  # lint-api: allow
        print(f"paper claim : {self.paper_claim}")  # lint-api: allow
        print(f"measured    : {self.measured}")  # lint-api: allow
        print("=" * len(header))  # lint-api: allow

    def save(self, directory: Path | None = None) -> Path:
        directory = results_dir() if directory is None else Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.experiment_id.lower()}.json"
        payload = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_claim": self.paper_claim,
            "measured": self.measured,
            "tables": self.tables,
            "data": _jsonify(self.data),
            "elapsed_s": self.elapsed_s,
            "telemetry": _jsonify(self.telemetry),
            "degraded": self.degraded,
        }
        path.write_text(json.dumps(payload, indent=2))
        return path


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def results_dir() -> Path:
    """``results/`` next to the repository root (created on demand)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent / "results"
    return Path.cwd() / "results"


class timed:
    """Context manager stamping ``elapsed_s`` onto an ExperimentResult."""

    def __init__(self):
        self.start = time.perf_counter()

    def stamp(self, result: ExperimentResult) -> ExperimentResult:
        result.elapsed_s = time.perf_counter() - self.start
        return result


def experiment_telemetry(experiment_id: str, extra_sinks=()) -> Telemetry:
    """Telemetry handle for one experiment run.

    Honors the ``REPRO_TRACE`` environment knob (JSONL path / ``stderr`` /
    unset → disabled), so every runner and the ``run_all`` harness share one
    wiring convention.  Stamp the summary onto the result before saving::

        tel = experiment_telemetry("E11")
        ...
        result.telemetry = tel.summary()
    """
    return Telemetry.from_env(run_id=experiment_id, extra_sinks=extra_sinks)


# ------------------------------------------------------------- HEA helpers


def hea_system(length: int = 3, n_shells: int = 2):
    """The standard HEA workload: NbMoTaW on a BCC L³ cell, equiatomic."""
    ham = NbMoTaWHamiltonian(bcc(length), n_shells=n_shells)
    counts = equiatomic_counts(ham.n_sites, 4)
    return ham, counts


#: The pilot's annealing ramp: one sweep (``n_sites`` steps per row) at
#: each inverse temperature, in order.
_PILOT_BETAS = np.geomspace(0.5, 200.0, 400)


def estimate_energy_range(ham, counts, rng=0, margin: float = 0.02) -> tuple[float, float]:
    """Annealed estimate of the reachable energy range at fixed composition.

    The estimator: one simulated-annealing chain per direction, both started
    from the same random configuration at ``counts`` and run for 400 sweeps
    of swap moves on the ramp β_s = geomspace(0.5, 200) — one chain at +β_s
    (descending to ``e_lo``), one at −β_s (climbing to ``e_hi``).  The two
    chains are the rows of one 2-row
    :class:`~repro.sampling.metropolis.CanonicalTeam`, advanced by the
    block engine one ``n_sites``-step block per sweep; the extremes are the
    rows' final energies, recomputed from their configurations.

    Returns ``(e_lo, e_hi)`` *shrunk inward* by ``margin`` of the span: the
    annealed extremes are exponentially rare states, and a flat-histogram
    grid that insists on them spends almost all its time hunting the tails.
    Trimming the outermost percents is standard practice (the paper's DoS
    figures likewise cover a chosen window, not the literal ground state).
    Rigorous matrix bounds (:meth:`Hamiltonian.energy_bounds`) are far too
    loose for window construction.
    """
    rng = as_generator(rng)
    start = random_configuration(ham.n_sites, counts, rng=rng)
    pilot = CanonicalTeam(ham, SwapProposal(), np.stack([start, start]), 0.0, rng)
    for beta in _PILOT_BETAS:
        pilot.beta[:] = beta, -beta
        pilot.steps(ham.n_sites)
    e_lo, e_hi = ham.energies(pilot.configs).tolist()
    span = e_hi - e_lo
    if span <= 0:
        raise RuntimeError("degenerate energy range estimate")
    return e_lo + margin * span, e_hi - margin * span


def default_hea_grid(ham, counts, n_bins: int = 60, rng=0) -> EnergyGrid:
    """Uniform grid over the annealed energy range."""
    e_lo, e_hi = estimate_energy_range(ham, counts, rng=rng)
    return EnergyGrid.uniform(e_lo, e_hi, n_bins)
