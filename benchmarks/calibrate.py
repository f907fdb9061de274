"""Host-speed calibration for the benchmark's timings.

The benchmark runs on small shared hosts whose speed drifts by tens of
percent within a minute.  Every timed interval is therefore bracketed by a
fixed kernel, and reported as ``raw * REFERENCE_S / kernel``: seconds on a
host where the kernel takes ``REFERENCE_S``.  The kernel mixes what the
workloads do (interpreted Python, numpy element-wise arithmetic, and pivoted
QR of a 1000 x 14 matrix) and uses nothing from the package under test, so a
change to the package cannot move it.

Import probes are calibrated the same way, by a fixed reference import run
in a fresh interpreter before and after each probe: an import is mostly
reading, unmarshalling and running module code, which the in-process kernel
tracks poorly.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import linalg as sla

REFERENCE_S = 0.1
# Nothing from the package under test, so a change to it cannot move this.
IMPORT_REFERENCE = "import numpy, scipy.linalg"
IMPORT_REFERENCE_S = 0.5

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((1000, 14))
_Y = _RNG.random(1000)


def kernel_seconds() -> float:
    """Time of one fixed calibration kernel."""
    t0 = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i % 7
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + 1
    a = np.arange(20_000, dtype=float)
    for _ in range(600):
        a = np.sqrt(a * a + 1.0)
    w = np.sqrt(_Y * (1.0 - _Y))
    for _ in range(150):
        q, r, _piv = sla.qr(_X * w[:, None], mode="economic", pivoting=True)
        sla.solve_triangular(r, q.T @ _Y)
    return time.perf_counter() - t0


def scale(raw: float, before: float, after: float, reference: float = REFERENCE_S) -> float:
    """``raw`` seconds in reference-host seconds, from the calibration times
    around it (kernels, or reference imports with ``IMPORT_REFERENCE_S``)."""
    return raw * reference / (0.5 * (before + after))
