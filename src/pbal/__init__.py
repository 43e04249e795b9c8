"""Deterministic particle solver for 1D congested nonlocal balance laws.

Moving-cell scheme for densities driven by an external field, a nonlocal
interaction gradient modulated by a non-increasing congestion factor, and a
source term, together with a diagnostics suite (a-priori envelopes, entropy
residuals, equicontinuity moduli) and a finite-volume cross-check.
"""

import os as _os
import sys as _sys

# pbal runs on one thread: load numpy without OpenBLAS's worker pool unless the
# user sized it or loaded numpy first.  OpenBLAS reads the variable at load.
if "numpy" not in _sys.modules and not _os.environ.keys() & {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]
del _os, _sys

from .diagnostics import check_bounds, compute_envelopes, good_v_audit
from .initial import quantile_init
from .integrator import SolverConfig, integrate
from .scenario import builtin_catalog, builtin_initial, scenario_validate

__version__ = "0.1.0"

__all__ = [
    "SolverConfig", "builtin_catalog", "builtin_initial", "check_bounds",
    "compute_envelopes", "good_v_audit", "integrate", "quantile_init",
    "scenario_validate",
]
