"""Deterministic particle solver for 1D congested nonlocal balance laws.

Moving-cell scheme for densities driven by an external field, a nonlocal
interaction gradient modulated by a non-increasing congestion factor, and a
source term, together with a diagnostics suite (a-priori envelopes, entropy
residuals, equicontinuity moduli) and a finite-volume cross-check.
"""

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
