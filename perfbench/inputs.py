"""Seeded input files for the workloads.

Every input is a two-plateau initial density drawn from the seed and the
op's input index; the program under test receives only the files written
here.  A run gives its ops different indices, so its median covers several
inputs: the step controller's work changes by up to ±10 % between inputs
that differ only in the third digit, and one input per run would carry that
into the run-to-run spread.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Width of the linear ramps of the CSV profile: the sampled density must be
# continuous, and steep ramps keep it close to a step.
RAMP = 0.02


def initial_profile(seed: int, index: int = 0):
    """(position, value) samples of the ``--initial`` CSV: two adjacent
    plateaus of heights below 0.9 and total mass about 1, in either order."""
    rng = random.Random(f"initial-{seed}-{index}")
    h1 = rng.uniform(0.75, 0.85)
    h2 = rng.uniform(0.4, 0.5)
    if rng.random() < 0.5:
        h1, h2 = h2, h1
    m1 = rng.uniform(0.5, 0.6)
    w1, w2 = m1 / h1, (1.0 - m1) / h2
    a = -0.5 * (w1 + w2) + rng.uniform(-0.1, 0.1)
    c, b = a + w1, a + w1 + w2
    return [(a, 0.0), (a + RAMP, h1), (c, h1), (c + RAMP, h2), (b, h2), (b + RAMP, 0.0)]


def initial_blocks(seed: int, index: int = 0):
    """Constant blocks of the scenario file's ``metadata.initial``: a higher
    inner plateau between two lower outer ones, symmetric about 0, mass 1.

    The symmetry keeps the zero of the free velocity on the middle particle.
    Asymmetric plateaus under this repulsive kernel make the upwind branch
    flip inside steps, and the step halvings that costs vary from none to
    more than the accepted steps from one input to the next, which no bound
    on a timing could absorb.
    """
    rng = random.Random(f"blocks-{seed}-{index}")
    h_in = rng.uniform(0.82, 0.88)
    h_out = rng.uniform(0.52, 0.58)
    m_in = rng.uniform(0.42, 0.48)
    a = m_in / (2.0 * h_in)
    b = a + (1.0 - m_in) / (2.0 * h_out)
    return [[-b, -a, h_out], [-a, a, h_in], [a, b, h_out]]


def blocks_mass(blocks):
    return sum((b - a) * h for a, b, h in blocks)


def scenario_doc(blocks):
    """The repulsive-source model as a scenario file (no catalog fast path)."""
    return {
        "congestion": {"v": "1/(1 + r)", "v_sup": 1.0, "vprime_bound": "1"},
        "advection": {"V": "0", "dxV": "0", "F": "2", "G": "1", "lambda": "1"},
        "potential": {"W": "-abs(x)", "dxW_neg": "1", "dxW_pos": "-1",
                      "dx2W": "0", "atom_w": -2.0},
        "source": {"f": "rho*bump(x)", "c_f": 0.5, "drho_f_bound": "1"},
        "metadata": {"name": "repulsive_source_file", "branch": "w_repulsive",
                     "initial": {"blocks": blocks}},
    }


def write_initial_csv(path: Path, seed: int, index: int = 0) -> Path:
    path.write_text("".join(f"{x!r},{y!r}\n" for x, y in initial_profile(seed, index)))
    return path


def write_scenario(path: Path, seed: int, index: int = 0) -> float:
    """Write the scenario file; returns the initial mass."""
    blocks = initial_blocks(seed, index)
    path.write_text(json.dumps(scenario_doc(blocks), indent=2) + "\n")
    return blocks_mass(blocks)
