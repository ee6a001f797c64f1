"""Names the solver behind the assignment path of ``transport.exact_w1``.

That path serves every pair of sizes m and n with lcm(m, n) at most
``EXACT_W1_SIZE_LIMIT``: it splits each point into points of mass
1/lcm(m, n) and calls ``scipy.optimize.linear_sum_assignment``, a shortest-
augmenting-path solver in C++ (Crouse, IEEE TAES 2016), on them.  Its
optimal coupling has entries that are whole multiples of 1/lcm(m, n).
Pairs with a larger lcm go through a transportation LP instead.
"""

from __future__ import annotations

__all__ = ["backend"]


# perfbench/run.py reports backend() after every run, so this module stays.
def backend() -> str:
    """Name of the square assignment solver: always 'scipy'."""
    return "scipy"
