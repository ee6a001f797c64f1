"""Adam optimizer over named parameter dictionaries.

Parameters live in plain ``{name: ndarray}`` dicts (the same names used for
graph leaves), so one optimizer instance can drive any subset of networks.
Updates are pure numpy and fully deterministic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]

# The moment decay rates and denominator offset of Kingma and Ba (arXiv 1412.6980).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, learning_rate: float):
        self.learning_rate = float(learning_rate)
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict, grads: dict) -> dict:
        """One descent step; returns a new parameter dict (inputs untouched)."""
        self.t += 1
        bias1 = 1.0 - BETA1 ** self.t
        bias2 = 1.0 - BETA2 ** self.t
        out = dict(params)
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            m = self.m[name] = BETA1 * self.m[name] + (1.0 - BETA1) * g
            v = self.v[name] = BETA2 * self.v[name] + (1.0 - BETA2) * (g * g)
            m_hat = m / bias1
            v_hat = v / bias2
            out[name] = params[name] - self.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
        return out

    def step_ascent(self, params: dict, grads: dict) -> dict:
        """One ascent step (maximization) on the same moment estimates."""
        return self.step(params, {k: -g for k, g in grads.items()})
