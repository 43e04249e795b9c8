"""Serialization: snapshot CSVs, run manifests, reports and SVG plots.

All floating-point output uses the shortest round-trip format so identical
runs produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np


def _fmt(x):
    return format(float(x), ".17g")


def write_particle_csv(traj, path):
    """One record per cell per snapshot: t,i,x_left,x_right,q,rho."""
    from .density import snapshot_rows

    lines = ["t,i,x_left,x_right,q,rho"]
    for p in traj.snapshots:
        for t, i, xl, xr, q, rho in snapshot_rows(p):
            lines.append(",".join((_fmt(t), str(i), _fmt(xl), _fmt(xr), _fmt(q), _fmt(rho))))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_grid_csv(gtraj, path):
    """Same schema with the cell index replacing the particle index."""
    lines = ["t,j,x_left,x_right,q,rho"]
    for g in gtraj.snapshots:
        edges = g.interfaces
        for j in range(g.j):
            lines.append(",".join((
                _fmt(g.t), str(j + 1), _fmt(edges[j]), _fmt(edges[j + 1]),
                _fmt(g.cells[j] * g.dx), _fmt(g.cells[j]),
            )))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_manifest(path, **fields):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(fields, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def write_report(path, records):
    """Structured report: one JSON record per check."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(records, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def write_envelope_csv(path, rows, header):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def density_polyline(p):
    """Staircase outline (x, y) pairs of a particle snapshot."""
    rho = p.q / np.diff(p.x)
    xs = [p.x[0]]
    ys = [0.0]
    for i in range(p.n):
        xs.extend([p.x[i], p.x[i + 1]])
        ys.extend([rho[i], rho[i]])
    xs.append(p.x[-1])
    ys.append(0.0)
    return np.asarray(xs), np.asarray(ys)


def write_density_svg(traj, path, width=720, height=360, margin=40):
    """Static SVG with one polyline of the reconstruction per snapshot."""
    xs_all, ys_all = [], []
    outlines = []
    for p in traj.snapshots:
        xs, ys = density_polyline(p)
        outlines.append((xs, ys))
        xs_all.append(xs)
        ys_all.append(ys)
    x_min = min(float(np.min(a)) for a in xs_all)
    x_max = max(float(np.max(a)) for a in xs_all)
    y_max = max(max(float(np.max(a)) for a in ys_all), 1e-12)
    sx = (width - 2 * margin) / max(x_max - x_min, 1e-12)
    sy = (height - 2 * margin) / y_max

    def px(x):
        return margin + (x - x_min) * sx

    def py(y):
        return height - margin - y * sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    n = max(len(outlines) - 1, 1)
    for k, (xs, ys) in enumerate(outlines):
        shade = int(220 * (1 - k / n))
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="rgb({shade},{shade // 2},{255 - shade})" '
            f'stroke-width="1.2" points="{pts}"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
