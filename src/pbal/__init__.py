"""Deterministic particle solver for 1D congested nonlocal balance laws.

Moving-cell scheme for densities driven by an external field, a nonlocal
interaction gradient modulated by a non-increasing congestion factor, and a
source term, together with a diagnostics suite (a-priori envelopes, entropy
residuals, equicontinuity moduli) and a finite-volume cross-check.
"""

from .density import (ParticleSystem, PiecewiseDensity, cdf, l1_distance,
                      pushforward_affine, quantile, to_density, total_mass,
                      total_variation, w1_distance)
from .diagnostics import (EnvelopeCurves, check_bounds, compute_envelopes,
                          entropy_residual, envelope_Q, envelope_R, envelope_S,
                          equicontinuity_modulus, good_v_audit)
from .initial import InitialDensity, quantile_init
from .integrator import SolverConfig, Trajectory, integrate
from .reference import GridConfig, GridState, compare_l1, fv_run, fv_step
from .scenario import (Advection, Branch, Congestion, Potential, Scenario, Source,
                       builtin_catalog, builtin_initial, load_scenario, scenario_validate)

__version__ = "0.1.0"

__all__ = [
    "Advection", "Branch", "Congestion", "EnvelopeCurves", "GridConfig",
    "GridState", "InitialDensity", "ParticleSystem", "PiecewiseDensity",
    "Potential", "Scenario", "SolverConfig", "Source", "Trajectory",
    "builtin_catalog", "builtin_initial", "cdf", "check_bounds", "compare_l1",
    "compute_envelopes", "entropy_residual", "envelope_Q", "envelope_R",
    "envelope_S", "equicontinuity_modulus", "fv_run", "fv_step",
    "good_v_audit", "integrate", "l1_distance", "load_scenario",
    "pushforward_affine", "quantile", "quantile_init", "scenario_validate",
    "to_density", "total_mass", "total_variation", "w1_distance",
]
