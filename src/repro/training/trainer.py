"""Trainer binding a proposal model to a replay buffer."""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from repro.nn.models.made import MADE
from repro.nn.models.vae import CategoricalVAE
from repro.nn.optim import Adam
from repro.training.buffer import ReplayBuffer
from repro.util.rng import as_generator

__all__ = ["ProposalTrainer"]


class ProposalTrainer:
    """Train a VAE or MADE proposal model from a replay buffer.

    Parameters
    ----------
    model : CategoricalVAE or MADE
        An unconditioned MADE (``cond_dim == 0``).
    buffer : ReplayBuffer
    lr : float
        Adam learning rate.
    batch_size : int
    rng : seed or Generator
        Batch-sampling and (for the VAE) reparameterization stream.
    telemetry : repro.obs.Telemetry, optional
        Records per-step loss/batch timing (``train.loss`` gauge,
        ``train.batch_seconds`` histogram, ``train_step`` events).  Training
        math is unaffected: telemetry draws nothing from ``rng``.
    """

    def __init__(self, model, buffer: ReplayBuffer, lr: float = 1e-3,
                 batch_size: int = 64, rng=None, telemetry=None):
        if not isinstance(model, (CategoricalVAE, MADE)):
            raise TypeError(
                f"model must be CategoricalVAE or MADE, got {type(model).__name__}"
            )
        if isinstance(model, MADE) and model.config.cond_dim > 0:
            raise ValueError(
                "a conditioned MADE needs a condition per training row, which a "
                "replay buffer does not hold; train it with model.train_step(..., cond=...)"
            )
        self.model = model
        self.buffer = buffer
        self.batch_size = int(batch_size)
        self.rng = as_generator(rng)
        self.optimizer = Adam(model.parameters(), lr=lr)
        self.loss_history: list[float] = []
        self.steps_trained = 0
        self.telemetry = telemetry

    @property
    def is_vae(self) -> bool:
        return isinstance(self.model, CategoricalVAE)

    def train_steps(self, n_steps: int) -> dict:
        """Run ``n_steps`` gradient steps; returns mean metrics."""
        if len(self.buffer) == 0:
            raise ValueError("replay buffer is empty; harvest configurations first")
        obs = self.telemetry
        losses = []
        with obs.span("train", steps=n_steps) if obs is not None else nullcontext():
            for _ in range(n_steps):
                t0 = time.perf_counter()
                batch = self.buffer.sample_one_hot(self.batch_size, self.rng)
                if self.is_vae:
                    metrics = self.model.train_step(batch, self.optimizer, self.rng)
                else:
                    metrics = self.model.train_step(batch, self.optimizer)
                losses.append(metrics["loss"])
                self.loss_history.append(metrics["loss"])
                self.steps_trained += 1
                if obs is not None:
                    dt = time.perf_counter() - t0
                    obs.metrics.inc("train.steps")
                    obs.metrics.observe("train.batch_seconds", dt)
                    obs.metrics.set("train.loss", metrics["loss"])
                    if obs.enabled:
                        obs.emit("train_step", step=self.steps_trained,
                                 loss=float(metrics["loss"]), dur_s=dt)
        return {"mean_loss": float(np.mean(losses)), "last_loss": float(losses[-1])}

    def train_until(self, target_loss: float, max_steps: int = 5_000,
                    patience_window: int = 50) -> dict:
        """Train until the rolling mean loss reaches ``target_loss``.

        Returns the final metrics plus whether the target was reached —
        the E10 training-cost ablation sweeps this budget.
        """
        reached = False
        steps = 0
        while steps < max_steps:
            block = min(patience_window, max_steps - steps)
            self.train_steps(block)
            steps += block
            rolling = float(np.mean(self.loss_history[-patience_window:]))
            if rolling <= target_loss:
                reached = True
                break
        return {
            "steps": steps,
            "reached": reached,
            "rolling_loss": float(np.mean(self.loss_history[-patience_window:])),
        }
