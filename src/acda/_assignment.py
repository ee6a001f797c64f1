"""Names the solver behind the equal-size path of ``transport.exact_w1``.

That path calls ``scipy.optimize.linear_sum_assignment``, a shortest-
augmenting-path solver in C++ (Crouse, IEEE TAES 2016).
"""

from __future__ import annotations

__all__ = ["backend"]


# perfbench/run.py reports backend() after every run, so this module stays.
def backend() -> str:
    """Name of the square assignment solver: always 'scipy'."""
    return "scipy"
