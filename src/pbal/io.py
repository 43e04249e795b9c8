"""Serialization: snapshot CSVs, run manifests, reports and SVG plots.

CSV floats are written with 17 significant digits (``.17g``), which
round-trips every double but is not the shortest form: 0.1 is written as
0.10000000000000001.  JSON floats take Python's shortest round-trip repr and
SVG coordinates two decimals, so identical runs produce byte-identical
files.  Text files are written a line at a time as their rows are
formatted, so no file is ever held in memory whole.
"""

from __future__ import annotations

import json

import numpy as np


def _fmt(x):
    return format(float(x), ".17g")


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def write_particle_csv(traj, path):
    """One record per cell per snapshot: t,i,x_left,x_right,q,rho."""
    def rows():
        yield "t,i,x_left,x_right,q,rho"
        for p in traj.snapshots:
            t, x, q, rho = _fmt(p.t), p.x, p.q, p.heights
            yield from (",".join((t, str(i + 1), _fmt(x[i]), _fmt(x[i + 1]), _fmt(q[i]), _fmt(rho[i])))
                        for i in range(p.n))
    _write_lines(path, rows())


def write_grid_csv(gtraj, path):
    """Same schema with the cell index replacing the particle index."""
    def rows():
        yield "t,j,x_left,x_right,q,rho"
        for g in gtraj.snapshots:
            t, edges, cells = _fmt(g.t), g.interfaces, g.cells
            yield from (",".join((t, str(j + 1), _fmt(edges[j]), _fmt(edges[j + 1]),
                                  _fmt(cells[j] * g.dx), _fmt(cells[j])))
                        for j in range(g.j))
    _write_lines(path, rows())


def write_manifest(path, **fields):
    _write_json(path, fields)


def write_report(path, records):
    """Structured report: one JSON record per check."""
    _write_json(path, records)


def write_envelope_csv(path, rows, header):
    def lines():
        yield ",".join(header)
        for row in rows:
            yield ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)
    _write_lines(path, lines())


def density_polyline(p):
    """Staircase outline (x, y) pairs of a particle snapshot: x_0, x_0, x_1,
    x_1, .., x_N, x_N at heights 0, rho_1, rho_1, .., rho_N, rho_N, 0."""
    return np.repeat(p.x, 2), np.concatenate(([0.0], np.repeat(p.heights, 2), [0.0]))


def write_density_svg(traj, path):
    """Static 720 x 360 SVG (margin 40), one polyline of the reconstruction per snapshot."""
    snaps = traj.snapshots
    x_min = min(float(p.x[0]) for p in snaps)
    x_max = max(float(p.x[-1]) for p in snaps)
    y_max = max(max(float(np.max(p.heights)) for p in snaps), 1e-12)
    sx = 640 / max(x_max - x_min, 1e-12)
    sy = 280 / y_max

    def px(x):
        return 40 + (x - x_min) * sx

    def py(y):
        return 320 - y * sy

    def lines():
        yield '<svg xmlns="http://www.w3.org/2000/svg" width="720" height="360" viewBox="0 0 720 360">'
        yield '<rect width="720" height="360" fill="white"/>'
        yield '<line x1="40" y1="320" x2="680" y2="320" stroke="black"/>'
        n = max(len(snaps) - 1, 1)
        for k, p in enumerate(snaps):
            shade = int(220 * (1 - k / n))
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(*density_polyline(p)))
            yield (f'<polyline fill="none" stroke="rgb({shade},{shade // 2},{255 - shade})" '
                   f'stroke-width="1.2" points="{pts}"/>')
        yield "</svg>"
    _write_lines(path, lines())
