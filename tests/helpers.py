"""Reference forms of package operations that only the tests need."""

import numpy as np

from sketchreg.feasible import FeasibleSet, RMetricProx
from sketchreg.sketches import SketchOperator, apply


def prox_r_metric(w: FeasibleSet, r_factor: np.ndarray, x_prev: np.ndarray,
                  c: np.ndarray, eta: float) -> np.ndarray:
    """One-shot form of :class:`RMetricProx`: argmin_{x in W}
    0.5 ||R(x_prev - x)||^2 + eta <c, x>."""
    return RMetricProx(r_factor, w).solve(
        np.asarray(x_prev, dtype=np.float64), np.asarray(c, dtype=np.float64), eta
    )


def dense_sketch(sk: SketchOperator) -> np.ndarray:
    """S materialized as an s x n array."""
    return apply(sk, np.eye(sk.n))
