"""Independent value check: the transportation LP solved by scipy's HiGHS.

The cost matrix is built here with numpy from the instance's positions, so
the check shares neither kantor's distance code nor its solver.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from kantor import Metric

# HiGHS works to a feasibility tolerance of about 1e-7; kantor's values are
# exact (integer metrics) or accurate to about 1e-12 (Euclid).
LP_REL_TOL = 1e-7


def lp_value(instance) -> float:
    """Minimum transport cost, or ValueError if HiGHS reports no optimum."""
    src = np.asarray(instance.source.positions(), dtype=np.float64)
    snk = np.asarray(instance.sink.positions(), dtype=np.float64)
    delta = src[:, None, :] - snk[None, :, :]
    if instance.metric is Metric.L1:
        cost = np.abs(delta).sum(axis=2)
    else:
        cost = (delta * delta).sum(axis=2)
        if instance.metric is Metric.EUCLID:
            cost = np.sqrt(cost)
    n, m = cost.shape
    rows = sparse.kron(sparse.identity(n), np.ones((1, m)))
    cols = sparse.kron(np.ones((1, n)), sparse.identity(m))
    a_eq = sparse.vstack([rows, cols]).tocsr()
    b_eq = np.concatenate([instance.source.masses(), instance.sink.masses()]).astype(np.float64)
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise ValueError(f"HiGHS found no optimum: {res.message}")
    return float(res.fun)


def agrees(lp: float, value) -> bool:
    return abs(lp - float(value)) <= LP_REL_TOL * (1 + abs(lp))
