"""Artifact IO: field and trajectory CSVs, trace CSVs, distance matrices and
JSON manifests.

Floats are written with repr(), the shortest round-tripping form, so repeated
runs of the same study produce byte-identical files.  Writers format whole
rows in bulk: `repr` of an element of `ndarray.tolist()` is the same string
as `repr(float(x))` of the array element.
"""
from __future__ import annotations

import functools
import json
import math
import os

import numpy as np

from .solver import Field, Grid, Trajectory


def _reprs(values) -> list[str]:
    """repr() of each value as a Python float, in bulk."""
    return list(map(repr, np.asarray(values, dtype=float).reshape(-1).tolist()))


def _header(d: int) -> str:
    return "t," + ",".join(f"x{k + 1}" for k in range(d)) + ",u"


def write_field_csv(path, field: Field):
    write_trajectory_rows(path, field.grid, [field.time], field.values[None, ...])


def write_trajectory_csv(path, trajectory: Trajectory):
    write_trajectory_rows(path, trajectory.grid, trajectory.times, trajectory.states)


@functools.lru_cache(maxsize=1)
def _coordinate_strings(grid: Grid) -> tuple[str, ...]:
    """",x1,...,xd," per cell.  One entry: consecutive files usually share
    their grid (a germ study writes every field on its comparison grid)."""
    return tuple("," + ",".join(map(repr, row)) + ","
                 for row in grid.points().reshape(-1, grid.d).tolist())


def write_trajectory_rows(path, grid: Grid, times, states):
    coords = _coordinate_strings(grid)
    with open(path, "w") as fh:
        fh.write(_header(grid.d) + "\n")
        for t, values in zip(_reprs(times), states):
            fh.write("".join([f"{t}{c}{v}\n" for c, v in zip(coords, _reprs(values))]))


def _axis_bounds(centers: np.ndarray) -> tuple[float, float]:
    """Bounds of a uniform axis with these cell centers.  The midpoint
    estimate can be off in its last bits, so take the shortest decimals
    (relative to the extent) that reproduce every center exactly: bounds
    stated as short decimals come back as written."""
    n = centers.size
    step = (centers[-1] - centers[0]) / (n - 1)
    lo, hi = float(centers[0] - step / 2), float(centers[-1] + step / 2)
    scale = math.floor(math.log10(hi - lo))
    for digits in range(18):
        a, b = round(lo, digits - scale), round(hi, digits - scale)
        if a < b and np.array_equal(Grid((a,), (b,), (n,)).centers(0), centers):
            return a, b
    return lo, hi


def _grid_from_columns(columns: list[np.ndarray]) -> Grid:
    lows, highs, counts = [], [], []
    for col in columns:
        centers = np.unique(col)
        if centers.size < 2:
            raise ValueError("cannot reconstruct a grid axis from fewer than 2 distinct coordinates")
        dx = np.diff(centers)
        if not np.allclose(dx, dx[0], rtol=1e-9, atol=1e-12):
            raise ValueError("field CSV is not on a uniform grid")
        lo, hi = _axis_bounds(centers)
        lows.append(lo)
        highs.append(hi)
        counts.append(centers.size)
    return Grid(tuple(lows), tuple(highs), tuple(counts))


def read_trajectory_csv(path) -> Trajectory:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    d = len(names) - 2
    if d < 1 or names != _header(d).split(","):
        raise ValueError(f"not a trajectory CSV: header {','.join(names)!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    t_col = data[:, 0]
    x_cols = [data[:, 1 + k] for k in range(d)]
    u_col = data[:, -1]

    times = np.unique(t_col)
    grid = _grid_from_columns(x_cols)
    states = np.empty((times.size,) + tuple(grid.counts))
    dx = grid.dx
    t_idx = np.searchsorted(times, t_col)
    cell_idx = tuple(
        np.clip(np.round((x_cols[k] - grid.lows[k] - dx[k] / 2) / dx[k]).astype(int), 0, grid.counts[k] - 1)
        for k in range(d)
    )
    filled = np.zeros((times.size,) + tuple(grid.counts), dtype=bool)
    states[(t_idx,) + cell_idx] = u_col
    filled[(t_idx,) + cell_idx] = True
    if not filled.all():
        raise ValueError("field CSV does not cover the full grid")
    return Trajectory(grid=grid, times=tuple(float(t) for t in times), states=states, manifest={})


def read_field_csv(path) -> Field:
    traj = read_trajectory_csv(path)
    if len(traj.times) != 1:
        raise ValueError(f"expected a single-time field CSV, found {len(traj.times)} times")
    return traj.field(0)


def write_trace_csv(path, trace):
    """Interface trace as t,s,p_u with s the tangential parameter (0 in 1D)."""
    p = trace.averaged
    tang = trace.tangential_points
    s_cols = [f",{s}," for s in _reprs(tang[:, 0] if tang.shape[1] else np.zeros(p.shape[1]))]
    with open(path, "w") as fh:
        fh.write("t,s,p_u\n")
        for t, values in zip(_reprs(trace.times), p):
            fh.write("".join([f"{t}{s}{v}\n" for s, v in zip(s_cols, _reprs(values))]))


def write_manifest(path, data: dict):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_matrix_csv(path, ids, matrix):
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w") as fh:
        fh.write("id," + ",".join(ids) + "\n")
        for row_id, row in zip(ids, matrix):
            fh.write(row_id + "," + ",".join(_reprs(row)) + "\n")


def read_matrix_csv(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    ids = lines[0].split(",")[1:]
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        rows.append([float(v) for v in cells[1:]])
    return ids, np.asarray(rows)


def write_deltas_csv(path, epsilons, deltas):
    with open(path, "w") as fh:
        fh.write("eps_coarse,eps_fine,delta\n")
        eps = _reprs(epsilons)
        for coarse, fine, delta in zip(eps, eps[1:], _reprs(deltas)):
            fh.write(f"{coarse},{fine},{delta}\n")


def ensure_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
