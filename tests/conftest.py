"""Shared fixtures for the DeepThermo reproduction test suite."""

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian, NbMoTaWHamiltonian, PottsHamiltonian
from repro.lattice import bcc, equiatomic_counts, random_configuration, square_lattice


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def ising_4x4():
    return IsingHamiltonian(square_lattice(4))


@pytest.fixture
def ising_6x6():
    return IsingHamiltonian(square_lattice(6))


@pytest.fixture
def potts3_4x4():
    return PottsHamiltonian(square_lattice(4), q=3)


@pytest.fixture
def hea_small():
    """NbMoTaW on a 3³ BCC cell (54 sites) — small enough for fast tests."""
    return NbMoTaWHamiltonian(bcc(3))


@pytest.fixture
def hea_config(hea_small, rng):
    counts = equiatomic_counts(hea_small.n_sites, 4)
    return random_configuration(hea_small.n_sites, counts, rng=rng)


@pytest.fixture(params=["native", "numpy"])
def superstep_path(request, monkeypatch):
    """Pin which implementation runs local-move blocks — the compiled
    super-step or the NumPy block — in this process and in every rank it
    spawns (``REPRO_NO_NATIVE`` travels with the environment)."""
    from repro.kernels import native

    if request.param == "numpy":
        monkeypatch.setenv(native.ENV_VAR, "1")
    else:
        monkeypatch.delenv(native.ENV_VAR, raising=False)
    native.reset()
    active = native.library() is not None
    try:
        if request.param == "native" and not active:
            pytest.skip(f"no native super-step here: {native.describe()}")
        assert active == (request.param == "native")
        yield request.param
    finally:
        native.reset()
