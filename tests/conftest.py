"""Shared scenario builders and a trajectory cache for the test suite.

All randomized tests use explicitly seeded generators; there is no hidden
randomness anywhere in the scheme itself.
"""

import numpy as np
import pytest

from pbal import SolverConfig, builtin_catalog, builtin_initial, integrate, quantile_init
from pbal.expressions import constant as const
from pbal.scenario import Advection, Branch, Congestion, Potential, Scenario, Source


def ones_like_v(r):
    return np.ones_like(np.asarray(r, dtype=float))


def zeros2(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def zero_source():
    return Source(f=lambda t, x, rho: 0.0 * (np.asarray(x, dtype=float) + rho),
                  c_f=0.0, drho_f_bound=const(0.0))


def zero_potential():
    z = const(0.0)
    return Potential(W=z, pieces=((0.0,), (0.0,)))


def make_scenario(v=None, v_sup=1.0, vprime=0.0, decay_g=None, V=None, dxV=None,
                  F=1.0, G=1.0, lam=1.0, potential=None, source=None,
                  branch=Branch.W_REPULSIVE, name="custom"):
    return Scenario(
        congestion=Congestion(v=v or ones_like_v, v_sup=v_sup,
                              vprime_bound=const(vprime), decay_g=decay_g),
        advection=Advection(V=V or zeros2, dxV=dxV or zeros2,
                            growth_F=const(F) if np.isscalar(F) else F,
                            growth_G=const(G) if np.isscalar(G) else G,
                            growth_lambda=const(lam) if np.isscalar(lam) else lam),
        potential=potential or zero_potential(),
        source=source or zero_source(),
        no_collapse_branch=branch,
        name=name,
    )


def zero_field_scenario():
    """Everything flat, F == 0: the trajectory must be constant."""
    return make_scenario(F=0.0, G=0.0, name="zero_field")


def quadratic_potential():
    """W(x) = x^2 / 2: gradient x, second derivative 1, no atom."""
    return Potential(W=lambda x: 0.5 * np.asarray(x, dtype=float) ** 2,
                     pieces=((0.0, 0.0, 0.5), (0.0, 0.0, 0.5)))


def random_particles(rng, n, lo=-2.0, hi=2.0, t=0.0):
    x = np.sort(rng.uniform(lo, hi, n + 1))
    while np.min(np.diff(x)) < 1e-6 * (x[-1] - x[0]):
        x = np.sort(rng.uniform(lo, hi, n + 1))
    q = rng.uniform(0.1, 1.0, n)
    from pbal import ParticleSystem
    return ParticleSystem(t=t, x=x, q=q)


_TRAJ_CACHE = {}


def catalog_run(name, n, t_end=1.0, k_snapshots=65, store_steps=False,
                rel_tol=1e-8, abs_tol=1e-8):
    """Cached catalog integration so criteria can share trajectories."""
    key = (name, n, t_end, k_snapshots, store_steps, rel_tol, abs_tol)
    if key not in _TRAJ_CACHE:
        scenario = builtin_catalog(name)
        p0 = quantile_init(builtin_initial(name), n)
        cfg = SolverConfig(t_end=t_end, rel_tol=rel_tol, abs_tol=abs_tol,
                           snapshot_times=np.linspace(0.0, t_end, k_snapshots),
                           store_steps=store_steps)
        _TRAJ_CACHE[key] = integrate(p0, scenario, cfg)
    return _TRAJ_CACHE[key]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
