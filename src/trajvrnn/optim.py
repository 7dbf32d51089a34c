"""Adam optimizer with a stepped learning-rate schedule.

The learning rate starts at `lr` and is multiplied by `decay_factor`
every `decay_interval` epochs, signalled by calling `epoch_tick` at each
epoch boundary.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the moment decays and denominator guard


class Adam:
    def __init__(self, params, lr=0.001, decay_factor=0.9, decay_interval=20):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate parameter names passed to Adam")
        self.lr = float(lr)
        self.decay_factor = float(decay_factor)
        self.decay_interval = int(decay_interval)
        # `not 0 <= x < inf` is true for nan too
        if not (0.0 <= self.lr < np.inf and 0.0 <= self.decay_factor < np.inf
                and self.decay_interval >= 0):
            raise ConfigError(f"Adam needs finite lr and decay_factor >= 0 and decay_interval "
                              f">= 0 (0: never decay), got {lr!r}, {decay_factor!r}, "
                              f"{decay_interval!r}")
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        """One Adam update from the gradients the parameters hold; a missing,
        misshapen or non-finite one raises before any state changes."""
        for p in self.params:
            if p.grad is None or p.grad.shape != p.data.shape:
                raise ConfigError(f"parameter {p.name!r} has no gradient of shape {p.data.shape}")
            if not np.isfinite(p.grad).all():
                raise NumericError(f"parameter {p.name!r} has a non-finite gradient")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for p in self.params:
            g = p.grad
            m = self.m[p.name]
            v = self.v[p.name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def epoch_tick(self, epoch: int):
        """Signal that `epoch` (1-based) just finished; applies lr decay."""
        if self.decay_interval > 0 and epoch > 0 and epoch % self.decay_interval == 0:
            self.lr *= self.decay_factor

    # ---- persistence -------------------------------------------------
    def state_arrays(self):
        """Moment arrays keyed for checkpointing, in parameter order."""
        out = {}
        for p in self.params:
            out[f"adam.m.{p.name}"] = self.m[p.name]
            out[f"adam.v.{p.name}"] = self.v[p.name]
        return out

    def load_state(self, arrays, step_count: int, lr: float):
        for p in self.params:
            for prefix, slot in (("adam.m.", self.m), ("adam.v.", self.v)):
                key = prefix + p.name
                if key not in arrays:
                    raise ConfigError(f"optimizer state missing {key!r}")
                arr = arrays[key]
                if arr.shape != p.data.shape:
                    raise ConfigError(f"optimizer state {key!r} has shape {arr.shape}, "
                                      f"expected {p.data.shape}")
                slot[p.name] = arr.copy()
        self.step_count = int(step_count)
        self.lr = float(lr)

