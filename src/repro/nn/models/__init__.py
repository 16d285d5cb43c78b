"""Generative models used as MC proposal distributions."""

from repro.nn.models.vae import CategoricalVAE, VAEConfig
from repro.nn.models.made import MADE, MADEConfig

__all__ = ["CategoricalVAE", "VAEConfig", "MADE", "MADEConfig"]
