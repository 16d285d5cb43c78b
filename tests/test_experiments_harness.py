"""Smoke/integration tests for the experiment harness.

Only the cheap experiments run here (model-only E7/E8/E9/E12 plus the shared
infrastructure); the sampling-heavy ones are exercised by
``python -m repro.experiments.run_all`` and the benchmarks.
"""

import json

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS, ExperimentResult
from repro.experiments.common import (
    estimate_energy_range,
    hea_system,
    results_dir,
)
from repro.hamiltonians import IsingHamiltonian, PairHamiltonian
from repro.lattice import random_configuration, square_lattice
from repro.proposals import SwapProposal
from repro.util.rng import as_generator


def anneal_extreme(ham, config, rng, minimize: bool = True, sweeps: int = 400) -> float:
    """One simulated anneal with swaps, one one-row proposal at a time: the
    reference law of :func:`estimate_energy_range`'s pilot rows."""
    rng = as_generator(rng)
    sign = 1.0 if minimize else -1.0
    cfg = np.array(config, copy=True)
    energy = ham.energy(cfg)
    prop = SwapProposal()
    for beta in np.geomspace(0.5, 200.0, sweeps):
        for _ in range(ham.n_sites):
            move = prop.propose_many(cfg[None], ham, rng, current_energies=[energy])
            delta = float(move.delta_energies[0])
            if sign * delta <= 0 or rng.random() < np.exp(-beta * sign * delta):
                move.apply_row(0, cfg)
                energy += delta
    return float(energy)


def reference_range(ham, counts, rng) -> tuple[float, float]:
    """Unshrunk range of two scalar anneals from one random start."""
    rng = as_generator(rng)
    cfg = random_configuration(ham.n_sites, counts, rng=rng)
    return anneal_extreme(ham, cfg, rng, True), anneal_extreme(ham, cfg, rng, False)


class TestExperimentResult:
    def test_save_round_trip(self, tmp_path):
        result = ExperimentResult(
            experiment_id="EX",
            title="test",
            paper_claim="claim",
            measured="measured",
            tables={"t": "a | b"},
            data={"arr": np.arange(3), "nested": {"x": np.float64(1.5)}},
        )
        path = result.save(tmp_path)
        payload = json.loads(path.read_text())
        assert payload["data"]["arr"] == [0, 1, 2]
        assert payload["data"]["nested"]["x"] == 1.5

    def test_print_does_not_crash(self, capsys):
        ExperimentResult("EX", "t", "c", "m", tables={"a": "row"}).print()
        out = capsys.readouterr().out
        assert "EX" in out and "row" in out

    def test_registry_complete(self):
        assert list(EXPERIMENTS)[:12] == [f"E{k}" for k in range(1, 13)]
        assert "E13" in EXPERIMENTS  # extension experiment

    def test_results_dir_next_to_pyproject(self):
        d = results_dir()
        assert (d.parent / "pyproject.toml").exists()


class TestCommonHelpers:
    def test_hea_system(self):
        ham, counts = hea_system(3)
        assert ham.n_sites == 54
        assert counts.sum() == 54

    def test_estimate_energy_range_brackets_samples(self):
        """The annealed range must bracket typical random-config energies
        and stay inside the rigorous bounds."""
        ham = IsingHamiltonian(square_lattice(4))
        e_lo, e_hi = estimate_energy_range(ham, [8, 8], rng=0)
        lo_bound, hi_bound = ham.energy_bounds()
        assert lo_bound <= e_lo < e_hi <= hi_bound
        rng = np.random.default_rng(1)
        typical = [
            ham.energy(rng.permutation(np.repeat([0, 1], 8)).astype(np.int8))
            for _ in range(10)
        ]
        assert e_lo < np.mean(typical) < e_hi

    def test_pilot_follows_the_scalar_anneals_law(self):
        """The block-engine pilot's e_lo and e_hi against two scalar anneals
        from one start, 8 independent seeds each: equal means by a
        two-sample z-test.  Both laws often find the same extreme on every
        seed, where the spread (and so the allowance) is 0."""
        rng = np.random.default_rng(5)
        mats = rng.normal(scale=0.02, size=(2, 3, 3))
        ham = PairHamiltonian(square_lattice(4), mats + mats.transpose(0, 2, 1))
        counts = [6, 5, 5]
        pilot = np.array([estimate_energy_range(ham, counts, rng=seed, margin=0.0)
                          for seed in range(8)])
        scalar = np.array([reference_range(ham, counts, rng=100 + seed)
                           for seed in range(8)])
        diff = pilot.mean(axis=0) - scalar.mean(axis=0)
        se = np.sqrt((pilot.var(axis=0, ddof=1) + scalar.var(axis=0, ddof=1)) / 8)
        assert np.all(np.abs(diff) <= 5 * se + 1e-9)


@pytest.mark.parametrize("module_name", [
    "repro.experiments.e07_strong_scaling",
    "repro.experiments.e08_weak_scaling",
    "repro.experiments.e09_throughput",
    "repro.experiments.e12_systems_table",
])
def test_fast_experiments_run(module_name, tmp_path):
    import importlib

    module = importlib.import_module(module_name)
    result = module.run(quick=True, seed=0)
    assert result.tables
    assert result.measured
    assert result.elapsed_s >= 0.0
    result.save(tmp_path)


def test_e7_curve_shape():
    from repro.experiments.e07_strong_scaling import run

    data = run(quick=True).data
    for machine, points in data.items():
        times = [p["time"] for p in points]
        assert all(a > b for a, b in zip(times, times[1:])), machine


def test_e12_matches_combinatorics():
    from repro.experiments.e12_systems_table import run

    data = run(quick=True).data
    assert data["16"]["n_sites"] == 8192
    assert data["16"]["ln_total_states"] == pytest.approx(8192 * np.log(4.0))
