"""Adam optimizer that steps named parameter arrays in place.

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

    def step(self, params: dict, grads: dict) -> None:
        """One descent step, in place: each writable float64 ``params[name]``
        with a gradient becomes p - lr * (m / bias1) / (sqrt(v / bias2) + eps),
        computed in that order, so bit for bit the expression written out."""
        self.t += 1
        bias1 = 1.0 - BETA1 ** self.t
        bias2 = 1.0 - BETA2 ** self.t
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            m, v = self.m[name], self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = m / bias1
            update *= self.learning_rate
            denom = v / bias2
            np.sqrt(denom, out=denom)
            denom += EPS
            update /= denom
            params[name] -= update

    def step_ascent(self, params: dict, grads: dict) -> None:
        """One ascent step (maximization) on the same moment estimates, in place."""
        self.step(params, {k: -g for k, g in grads.items()})
