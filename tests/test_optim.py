"""Unit tests for the in-place Adam optimizer."""

import numpy as np

from acda.optim import BETA1, BETA2, EPS, Adam


def test_adam_steps_update_the_given_arrays_to_the_closed_form():
    """Three descent then three ascent steps: each call returns None and
    writes the dict's own arrays, whose values are Adam's update written
    out, bit for bit (an ascent step is a descent step on -grad).  The
    parameters start near zero, so a reordered update shows in their bits."""
    lr = 0.01
    w0, b0 = np.array([[0.0, 0.01], [-0.02, 0.0]]), np.array([0.0, 0.003])
    params = {"W": w0.copy(), "b": b0.copy()}
    arrays = dict(params)
    grads = [{"W": np.array([[0.3, -1.2], [2.0, 0.7]]), "b": np.array([-0.4, 0.9])},
             {"W": np.array([[-0.7, 0.1], [0.05, 1.5]]), "b": np.array([1.1, -0.2])},
             {"W": np.array([[0.2, 0.2], [-3.0, 0.6]]), "b": np.array([0.0, 0.3])}] * 2

    opt = Adam(lr)
    expected = {"W": w0, "b": b0}
    m = {k: np.zeros_like(a) for k, a in expected.items()}
    v = {k: np.zeros_like(a) for k, a in expected.items()}
    for t, step_grads in enumerate(grads, start=1):
        sign = 1.0 if t <= 3 else -1.0
        step = opt.step if t <= 3 else opt.step_ascent
        assert step(params, step_grads) is None
        for k, g in step_grads.items():
            g = sign * g
            m[k] = BETA1 * m[k] + (1.0 - BETA1) * g
            v[k] = BETA2 * v[k] + (1.0 - BETA2) * (g * g)
            expected[k] = expected[k] - lr * (m[k] / (1.0 - BETA1 ** t)) / (
                np.sqrt(v[k] / (1.0 - BETA2 ** t)) + EPS)
        assert all(params[k] is arrays[k] for k in params)
        for k in params:
            assert params[k].tobytes() == expected[k].tobytes()
    assert opt.t == 6
