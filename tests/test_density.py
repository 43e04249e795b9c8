import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbal import (ParticleSystem, PiecewiseDensity, cdf, l1_distance,
                  pushforward_affine, quantile, to_density, total_mass,
                  total_variation, w1_distance)
from pbal.errors import DegenerateStateError, MassMismatchError

from conftest import random_particles


def block(breaks, heights):
    return PiecewiseDensity(np.asarray(breaks, dtype=float), np.asarray(heights, dtype=float))


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


def test_quantile_domain_error():
    d = block([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        quantile(d, 1.5)
    with pytest.raises(ValueError):
        quantile(d, -0.1)


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
    with pytest.raises(ValueError):
        quantile(empty, 0.0)


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
