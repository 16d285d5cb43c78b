"""Pure-numpy neural-network substrate (S3).

The paper trains its deep-learning MC proposals with PyTorch on V100/MI250X
GPUs; this environment has no torch and no GPU, so the substrate is a small
explicit-backprop framework (DESIGN.md §4).  It provides exactly what the
proposals need and nothing more:

- :mod:`repro.nn.layers` — Dense, activations, Sequential (forward caches,
  backward accumulates gradients),
- :mod:`repro.nn.losses` — categorical cross-entropy from logits, MSE,
  Gaussian-VAE KL,
- :mod:`repro.nn.optim` — SGD (momentum) and Adam with gradient clipping,
- :mod:`repro.nn.models.vae` — categorical VAE over lattice configurations
  (global-update proposal of the paper),
- :mod:`repro.nn.models.made` — MADE autoregressive model with *exact*
  likelihoods (ablation / cross-check proposal),
- :mod:`repro.nn.serialization` — save/load parameters as ``.npz``.

Every layer's backward pass is verified against central finite differences
in ``tests/test_nn_gradcheck.py``.
"""

from repro.nn.initializers import glorot_uniform, he_normal, normal_init, zeros_init
from repro.nn.layers import (
    Layer,
    Dense,
    ReLU,
    Tanh,
    Sigmoid,
    LeakyReLU,
    Softplus,
    Sequential,
    Parameter,
)
from repro.nn.losses import (
    mse_loss,
    categorical_cross_entropy_from_logits,
    gaussian_kl_divergence,
)
from repro.nn.optim import SGD, Adam
from repro.nn.models.vae import CategoricalVAE, VAEConfig
from repro.nn.models.made import MADE, MADEConfig
from repro.nn.serialization import save_params, load_params
from repro.nn.workspace import Workspace, encode_one_hot

__all__ = [
    "glorot_uniform",
    "he_normal",
    "normal_init",
    "zeros_init",
    "Layer",
    "Dense",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "LeakyReLU",
    "Softplus",
    "Sequential",
    "Parameter",
    "mse_loss",
    "categorical_cross_entropy_from_logits",
    "gaussian_kl_divergence",
    "SGD",
    "Adam",
    "CategoricalVAE",
    "VAEConfig",
    "MADE",
    "MADEConfig",
    "save_params",
    "load_params",
    "Workspace",
    "encode_one_hot",
]
