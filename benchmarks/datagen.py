"""Benchmark input generator, independent of the package under test.

Draws study data from the paper's linear structural system: a uniform
baseline covariate ``c0``, a logistic binary exposure ``e``, three normal
post-treatment covariates ``c1``, and normal mediator ``m`` and outcome ``y``
equations with an exposure-by-mediator interaction.  The true contrast mean
is ``beta0 = 2.678`` and the effect ``-0.918``.  It uses numpy's default
generator, so the inputs stay fixed for a seed whatever the package does
with its own random streams.
"""

from __future__ import annotations

import numpy as np

E_COEF = (0.9, 0.3)
C1_INTERCEPT = np.array([0.8, 0.6, -0.3])
C1_ON_C0 = np.array([1.0, 0.1, 0.2])
C1_ON_E = np.array([0.5, -0.4, 0.5])
C1_ON_C0E = np.array([-0.1, 0.8, -0.2])
M_INTERCEPT, M_ON_C0, M_ON_E = -0.5, -0.2, 0.3
M_ON_C1 = np.array([-0.2, 0.1, 0.5])
M_ON_EC1 = np.array([0.4, 0.0, 0.0])
Y_INTERCEPT, Y_ON_C0, Y_ON_E = 0.2, 0.2, 0.6
Y_ON_C1 = np.array([1.0, 0.7, 0.3])
Y_ON_M, Y_ON_EM = -0.9, -0.8

HEADER = "c0_1,e,c1_1,c1_2,c1_3,m,y"
BETA0 = 2.678


def draw(n: int, seed: int) -> np.ndarray:
    """An ``(n, 7)`` array in CSV column order: c0_1, e, c1_1..c1_3, m, y."""
    rng = np.random.default_rng(seed)
    c0 = rng.uniform(0.0, 2.0, n)
    e = (rng.random(n) < 1.0 / (1.0 + np.exp(-(E_COEF[0] + E_COEF[1] * c0)))).astype(float)
    c1 = (
        C1_INTERCEPT
        + np.outer(c0, C1_ON_C0)
        + np.outer(e, C1_ON_E)
        + np.outer(c0 * e, C1_ON_C0E)
        + rng.standard_normal((n, 3))
    )
    m = M_INTERCEPT + M_ON_C0 * c0 + M_ON_E * e + c1 @ M_ON_C1 + e * (c1 @ M_ON_EC1) + rng.standard_normal(n)
    y = (
        Y_INTERCEPT + Y_ON_C0 * c0 + Y_ON_E * e + c1 @ Y_ON_C1
        + (Y_ON_M + Y_ON_EM * e) * m + rng.standard_normal(n)
    )
    return np.column_stack([c0, e, c1, m, y])


def write_csv(path, n: int, seed: int) -> None:
    """Write ``draw(n, seed)`` in the package's strict CSV schema."""
    fmt = ["%.17g", "%d", "%.17g", "%.17g", "%.17g", "%.17g", "%.17g"]
    np.savetxt(path, draw(n, seed), fmt=fmt, delimiter=",", header=HEADER, comments="")
