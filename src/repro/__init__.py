"""DeepThermo reproduction.

A from-scratch Python implementation of *DeepThermo: Deep Learning
Accelerated Parallel Monte Carlo Sampling for Thermodynamics Evaluation of
High Entropy Alloys* (Yin, Wang, Shankar — IPDPS 2023).

Subpackages
-----------
``repro.util``          shared numerics / RNG / timing utilities
``repro.lattice``       periodic lattices, neighbor shells, configurations
``repro.hamiltonians``  Ising, Potts, and HEA effective-pair-interaction models
``repro.nn``            pure-numpy neural-network substrate (VAE, MADE, ...)
``repro.proposals``     MC proposals: local, cluster, deep-learning global
``repro.sampling``      Metropolis, Wang-Landau, multicanonical, tempering
``repro.parallel``      replica-exchange Wang-Landau, in process or on shm ranks
``repro.obs``           run telemetry: metrics, spans, JSONL event traces
``repro.dos``           density-of-states stitching and thermodynamics
``repro.analysis``      short-range order, transitions, diagnostics
``repro.training``      online training loop for learned proposals
``repro.machine``       V100/MI250X machine performance models
``repro.experiments``   one runner per paper table/figure

Quickstart
----------
>>> from repro.lattice import bcc, random_configuration, equiatomic_counts
>>> from repro.hamiltonians import NbMoTaWHamiltonian
>>> lat = bcc(4)
>>> ham = NbMoTaWHamiltonian(lat)
>>> config = random_configuration(lat.n_sites, equiatomic_counts(lat.n_sites, 4), rng=0)
>>> energy = ham.energy(config)
"""

__version__ = "1.0.0"
