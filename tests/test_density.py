import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbal.density import (ParticleSystem, PiecewiseDensity, cdf, l1_distance,
                          pushforward_affine, to_density, total_mass,
                          total_variation, w1_distance)
from pbal.errors import DegenerateStateError, MassMismatchError
from pbal.initial import InitialDensity
from pbal.reference import GridState

from conftest import random_particles


def block(breaks, heights):
    return PiecewiseDensity(np.asarray(breaks, dtype=float), np.asarray(heights, dtype=float))


def quantile(d, m):
    """The leftmost x with cdf(d, x) >= m, by ``InitialDensity.quantiles`` on
    the step density ``d``, built as ``InitialDensity.from_blocks`` builds it."""
    rho0 = InitialDensity(pdf=d, cdf=lambda y: cdf(d, y), support=d.support,
                          total_mass=total_mass(d))
    return float(rho0.quantiles([m])[0])


# ---------------------------------------------------------------- to_density

def test_to_density_single_block():
    d = to_density(ParticleSystem(0.0, [0.0, 1.0], [1.0]))
    assert np.allclose(d.breakpoints, [0.0, 1.0])
    assert np.allclose(d.heights, [1.0])


def test_to_density_two_cells():
    # hand evaluation: 1/0.5 = 2 and 0.5/0.5 = 1
    d = to_density(ParticleSystem(0.0, [0.0, 0.5, 1.0], [1.0, 0.5]))
    assert np.allclose(d.heights, [2.0, 1.0])


def test_zero_mass_particle_rejected():
    with pytest.raises(DegenerateStateError):
        ParticleSystem(0.0, [0.0, 1.0], [0.0])


def test_collision_rejected():
    with pytest.raises(DegenerateStateError):
        ParticleSystem(0.0, [0.0, 1e-15, 1.0], [0.5, 0.5])


# ---------------------------------------------------------------- total mass

def test_total_mass_two_blocks():
    assert total_mass(block([0.0, 0.5, 1.0], [2.0, 1.0])) == pytest.approx(1.5)


def test_total_mass_empty():
    assert total_mass(PiecewiseDensity()) == 0.0


def test_total_mass_uniform():
    assert total_mass(block([-1.0, 2.5], [0.4])) == pytest.approx(0.4 * 3.5)


# ------------------------------------------------------------ total variation

def test_tv_single_block():
    assert total_variation(block([0.0, 1.0], [0.7])) == pytest.approx(1.4)


def test_tv_two_heights():
    # jumps: |2-0| + |1-2| + |0-1| = 4
    assert total_variation(block([0.0, 0.5, 1.0], [2.0, 1.0])) == pytest.approx(4.0)


def test_tv_staircase():
    # 0 -> 1 -> 2 -> 0: up 2 total, down 2
    assert total_variation(block([0.0, 1.0, 2.0], [1.0, 2.0])) == pytest.approx(4.0)


# ------------------------------------------------------------- cdf / quantile

def test_cdf_uniform_block():
    d = block([0.0, 1.0], [1.0])
    assert cdf(d, 0.25) == pytest.approx(0.25)
    assert cdf(d, -1.0) == 0.0
    assert cdf(d, 2.0) == pytest.approx(1.0)


def test_quantile_uniform_block():
    d = block([0.0, 1.0], [1.0])
    assert quantile(d, 0.5) == pytest.approx(0.5)


def test_quantile_piecewise():
    # CDF: slope 2 on (0, 0.5), slope 1 on (0.5, 1); level 1.25 -> x = 0.75
    d = block([0.0, 0.5, 1.0], [2.0, 1.0])
    assert quantile(d, 1.25) == pytest.approx(0.75)


def test_quantile_levels_outside_the_mass_clip():
    # a level above the mass is the mass, one at or below 0 the support's left end
    d = block([0.0, 1.0], [1.0])
    assert quantile(d, 1.5) == 1.0
    assert quantile(d, -0.1) == 0.0


def test_quantile_cdf_round_trip(rng):
    for _ in range(20):
        p = random_particles(rng, 12)
        d = to_density(p)
        xs = rng.uniform(p.x[0], p.x[-1], 5)
        for x in xs:
            # all heights positive: CDF strictly increasing, round trip exact
            assert quantile(d, cdf(d, x)) == pytest.approx(x, abs=1e-12)
        ms = rng.uniform(0.0, total_mass(d), 5)
        for m in ms:
            assert cdf(d, quantile(d, m)) == pytest.approx(m, abs=1e-12)


# ----------------------------------------------------------------- l1 / w1

def test_l1_identical():
    d = block([0.0, 1.0], [1.0])
    assert l1_distance(d, d) == 0.0


def test_l1_disjoint_unit_blocks():
    a = block([0.0, 1.0], [1.0])
    b = block([2.0, 3.0], [1.0])
    assert l1_distance(a, b) == pytest.approx(2.0)


def test_l1_merged_partition():
    # int |2-1| on (0,.5) + int |0-1| on (.5,1) = 1
    a = block([0.0, 0.5], [2.0])
    b = block([0.0, 1.0], [1.0])
    assert l1_distance(a, b) == pytest.approx(1.0)


def test_w1_translation():
    a = block([0.0, 1.0], [0.7])
    b = block([2.5, 3.5], [0.7])
    assert w1_distance(a, b) == pytest.approx(0.7 * 2.5)


def test_w1_identical():
    d = block([0.0, 0.5, 1.0], [2.0, 1.0])
    assert w1_distance(d, d) == 0.0


def test_w1_overlapping_blocks():
    a = block([0.0, 1.0], [1.0])
    b = block([0.5, 1.5], [1.0])
    assert w1_distance(a, b) == pytest.approx(0.5)


def test_w1_mass_mismatch():
    with pytest.raises(MassMismatchError):
        w1_distance(block([0.0, 1.0], [1.0]), block([0.0, 1.0], [2.0]))


def test_zero_mass_density_distances():
    empty = PiecewiseDensity()
    unit = block([0.0, 1.0], [1.0])
    assert l1_distance(empty, empty) == 0.0
    assert l1_distance(empty, unit) == pytest.approx(1.0)
    assert w1_distance(empty, empty) == 0.0
    with pytest.raises(MassMismatchError):
        w1_distance(empty, unit)


def test_quantile_flat_part_inequality():
    # interior vacuum: the CDF is flat on (1, 2); the generalized inverse
    # picks the left edge, so quantile(cdf(x)) < x strictly inside the gap
    d = block([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
    x = 1.7
    assert quantile(d, cdf(d, x)) == pytest.approx(1.0)
    assert quantile(d, cdf(d, x)) <= x


# ------------------------------------------------------------- pushforward

def test_pushforward_identity():
    p = ParticleSystem(0.0, [0.0, 0.5, 1.0], [1.0, 0.5])
    d = pushforward_affine(p, p)
    assert np.allclose(d.heights, to_density(p).heights)


def test_pushforward_translation():
    p = ParticleSystem(0.0, [0.0, 0.5, 1.0], [1.0, 0.5])
    q = ParticleSystem(1.0, [1.0, 1.5, 2.0], [1.0, 0.5])
    d = pushforward_affine(p, q)
    assert np.allclose(d.breakpoints, q.x)
    assert np.allclose(d.heights, to_density(p).heights)


def test_pushforward_stretch():
    p = ParticleSystem(0.0, [0.0, 1.0], [1.0])
    q = ParticleSystem(0.0, [0.0, 2.0], [1.0])
    d = pushforward_affine(p, q)
    assert np.allclose(d.heights, [0.5])


def test_pushforward_n_mismatch():
    p = ParticleSystem(0.0, [0.0, 1.0], [1.0])
    q = ParticleSystem(0.0, [0.0, 0.5, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        pushforward_affine(p, q)


# ------------------------------------------------------------ property tests

def test_mass_identity_random(rng):
    for _ in range(50):
        p = random_particles(rng, int(rng.integers(1, 40)))
        assert total_mass(to_density(p)) == pytest.approx(np.sum(p.q), rel=1e-12)


def _random_density(rng, mass):
    n = int(rng.integers(2, 12))
    bp = np.sort(rng.uniform(-3, 3, n + 1))
    while np.min(np.diff(bp)) < 1e-3:
        bp = np.sort(rng.uniform(-3, 3, n + 1))
    h = rng.uniform(0.05, 1.0, n)
    h *= mass / np.sum(h * np.diff(bp))
    return PiecewiseDensity(bp, h)


def test_w1_symmetry_triangle(rng):
    for _ in range(30):
        mass = rng.uniform(0.5, 2.0)
        a, b, c = (_random_density(rng, mass) for _ in range(3))
        dab, dba = w1_distance(a, b), w1_distance(b, a)
        assert dab == pytest.approx(dba, rel=1e-10, abs=1e-12)
        assert dab <= w1_distance(a, c) + w1_distance(c, b) + 1e-10


def test_w1_pushforward_displacement_bound(rng):
    # W1(rho, Xi# rho) <= sum q_i (|dx_{i-1}| + |dx_i|) <= 2 mass delta
    for _ in range(30):
        p = random_particles(rng, 15)
        delta = 0.25 * float(np.min(np.diff(p.x)))
        shift = rng.uniform(-delta, delta, p.x.size)
        p_to = ParticleSystem(p.t, p.x + shift, p.q)
        d = w1_distance(to_density(p), pushforward_affine(p, p_to))
        assert d <= 2.0 * np.sum(p.q) * delta + 1e-12


def test_l1_pushforward_mass_difference(rng):
    # sharing the target partition, the L1 distance is the mass l1 difference
    for _ in range(30):
        n = 10
        p_from = random_particles(rng, n)
        x_to = np.sort(rng.uniform(-2, 2, n + 1))
        while np.min(np.diff(x_to)) < 1e-3:
            x_to = np.sort(rng.uniform(-2, 2, n + 1))
        q_to = rng.uniform(0.1, 1.0, n)
        p_to = ParticleSystem(0.0, x_to, q_to)
        d = l1_distance(pushforward_affine(p_from, p_to), to_density(p_to))
        assert d == pytest.approx(np.sum(np.abs(p_from.q - q_to)), rel=1e-12)


@st.composite
def step_densities(draw, max_cells=6):
    """A step density of 1..max_cells cells, positive heights, starting in [-2, 2]."""
    n = draw(st.integers(1, max_cells))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    heights = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    return block(draw(st.floats(-2.0, 2.0)) + np.concatenate(([0.0], np.cumsum(gaps))), heights)


def _l1_brute_force(a, b):
    # |a - b| = a + b - 2 min(a, b); min(a, b) is min(h, k) on the overlap of
    # every pair of cells
    overlap = 0.0
    for a0, a1, h in zip(a.breakpoints[:-1], a.breakpoints[1:], a.heights):
        for b0, b1, k in zip(b.breakpoints[:-1], b.breakpoints[1:], b.heights):
            overlap += max(0.0, min(a1, b1) - max(a0, b0)) * min(h, k)
    return total_mass(a) + total_mass(b) - 2.0 * overlap


def _w1_brute_force(a, b):
    # W1 = int_0^M |Q_a(m) - Q_b(m)| dm; between merged mass levels both
    # quantile functions are affine, so the integrand is |affine|, split at
    # its root
    cum_a = np.concatenate(([0.0], np.cumsum(a.heights * np.diff(a.breakpoints))))
    cum_b = np.concatenate(([0.0], np.cumsum(b.heights * np.diff(b.breakpoints))))
    levels = np.union1d(cum_a, cum_b)
    d = np.interp(levels, cum_a, a.breakpoints) - np.interp(levels, cum_b, b.breakpoints)
    total = 0.0
    for m0, m1, d0, d1 in zip(levels[:-1], levels[1:], d[:-1], d[1:]):
        if d0 * d1 >= 0.0:
            total += 0.5 * (abs(d0) + abs(d1)) * (m1 - m0)
        else:
            root = m0 + (m1 - m0) * d0 / (d0 - d1)
            total += 0.5 * abs(d0) * (root - m0) + 0.5 * abs(d1) * (m1 - root)
    return total


@settings(max_examples=200, deadline=None)
@given(a=step_densities(), b=step_densities())
def test_distances_match_brute_force(a, b):
    assert abs(l1_distance(a, b) - _l1_brute_force(a, b)) <= 1e-12 * (
        total_mass(a) + total_mass(b))
    b = block(b.breakpoints, b.heights * (total_mass(a) / total_mass(b)))
    assert abs(w1_distance(a, b) - _w1_brute_force(a, b)) <= 1e-12 * max(1.0, _w1_brute_force(a, b))


# Breakpoints drawn from a small pool, so that the two densities share points,
# hold both zeros and points one ulp apart, whose midpoint rounds onto an end;
# each density's own breakpoints are strictly increasing.
_POOL = st.sampled_from([-1.5, -0.5, -0.0, 0.0, 1e-300, 0.25, np.nextafter(0.25, 1.0), 0.5,
                         np.nextafter(2.0, 0.0), 2.0, 3.0, np.nextafter(3.0, 4.0)])


@st.composite
def _pool_density(draw):
    points = sorted(set(draw(st.lists(_POOL, max_size=7))))  # -0.0 and 0.0 are one
    bp = np.array([draw(st.sampled_from([p, -p])) if p == 0.0 else p for p in points])
    heights = np.ones(bp.size - 1) if bp.size > 1 and draw(st.booleans()) else np.empty(0)
    return PiecewiseDensity(bp, heights)


@settings(max_examples=300, deadline=None)
@given(a=_pool_density(), b=_pool_density())
def test_merge_gives_the_cells_a_search_gives(a, b):
    from pbal.density import _merge_with_cells, cell_index

    z, cell_a, cell_b = _merge_with_cells(a.breakpoints, b.breakpoints)
    assert np.array_equal(z, np.unique(np.concatenate((a.breakpoints, b.breakpoints))))
    for x, cell in ((a.breakpoints, cell_a), (b.breakpoints, cell_b)):
        want = cell_index(x, z)
        assert cell.dtype == want.dtype and np.array_equal(cell, want)


def _w1_searched(a, b):
    """``w1_distance`` with each CDF searching the merged points."""
    z = np.unique(np.concatenate((a.breakpoints, b.breakpoints)))
    du = cdf(a, z) - cdf(b, z)
    lo, hi = du[:-1], du[1:]
    width = np.diff(z)
    same = lo * hi >= 0.0
    area_same = 0.5 * (np.abs(lo) + np.abs(hi)) * width
    denom = np.where(same, 1.0, np.abs(lo - hi))
    area_cross = 0.5 * (lo * lo + hi * hi) / denom * width
    return float(np.sum(np.where(same, area_same, area_cross)))


@st.composite
def _pool_step(draw):
    """A step density on two or more pool breakpoints, positive heights."""
    points = sorted(draw(st.lists(_POOL, min_size=2, max_size=7, unique=True)))
    bp = np.array([draw(st.sampled_from([p, -p])) if p == 0.0 else p for p in points])
    return block(bp, draw(st.lists(st.floats(0.05, 2.0), min_size=bp.size - 1,
                                   max_size=bp.size - 1)))


@settings(max_examples=300, deadline=None)
@given(a=_pool_step(), b=_pool_step())
def test_w1_bitwise_equals_the_searched_cdfs(a, b):
    b = block(b.breakpoints, b.heights * (total_mass(a) / total_mass(b)))
    assert w1_distance(a, b) == _w1_searched(a, b)


def _l1_searched(a, b):
    """``l1_distance`` with each density searching the merged panels' midpoints."""
    z = np.unique(np.concatenate((a.breakpoints, b.breakpoints)))
    if z.size < 2:
        return 0.0
    mids = 0.5 * (z[:-1] + z[1:])
    return float(np.sum(np.abs(a(mids) - b(mids)) * np.diff(z)))


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(_pool_step(), _pool_density()), b=st.one_of(_pool_step(), _pool_density()))
def test_l1_bitwise_equals_the_searched_midpoints(a, b):
    # shared breakpoints, both signs of zero, and empty densities
    assert l1_distance(a, b) == _l1_searched(a, b)


def test_nan_breakpoint_rejected():
    with pytest.raises(ValueError, match="strictly increasing"):
        block([0.0, np.nan, 1.0], [1.0, 1.0])


# ------------------------------------------------------------ array ownership

_RECORDS = {
    "ParticleSystem": (lambda a: ParticleSystem(0.0, [0.0, 1.0, 2.0, 3.0], a), "q"),
    "PiecewiseDensity": (lambda a: PiecewiseDensity([0.0, 1.0, 2.0, 3.0], a), "heights"),
    "GridState": (lambda a: GridState(0.0, 0.5, a, 0.0), "cells"),
}


def _read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("record", _RECORDS)
def test_a_record_keeps_a_read_only_owner_and_copies_anything_else(record):
    make, name = _RECORDS[record]
    owner = _read_only(np.array([1.0, 2.0, 3.0]))
    assert getattr(make(owner), name) is owner
    writable = np.array([1.0, 2.0, 3.0])
    view = _read_only(np.array([0.5, 1.0, 2.0, 3.0]))[1:]
    ints = _read_only(np.array([1, 2, 3]))
    copies = [getattr(make(a), name) for a in (writable, view, ints, [1.0, 2.0, 3.0])]
    writable[0] = 5.0  # its copy does not see it
    for got, a in zip(copies, (writable, view, ints)):
        assert got is not a
    for got in copies:
        assert got.tolist() == [1.0, 2.0, 3.0] and got.dtype == float
        assert got.flags.owndata and not got.flags.writeable
