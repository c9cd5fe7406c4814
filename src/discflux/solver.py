"""Viscous finite-volume solver for the smoothed-interface equation

    du/dt + div F_eps(x, u) = eps * Laplace(u)

on cell-centered grids in d = 1 or 2.  Convection uses the local
Lax-Friedrichs (Rusanov) flux, diffusion the standard second difference, time
stepping is explicit Euler with exact-time substepping at the requested
output times.  Boundary cells are held at the far-field state.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flux import PiecewiseFlux, derivative_coeffs, horner, rows_sum, sign_changes
from .geometry import Box

CFL_SPEED_FLOOR = 1e-12
MAX_PRINCIPLE_TOL = 1e-10  # slack of max_principle_check on [a, b]


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid over a box; every axis needs >= 4 cells."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.lows) == len(self.highs) == len(self.counts)):
            raise ValueError("grid extents and counts must agree in length")
        if any(n < 4 for n in self.counts):
            raise ValueError("each axis needs at least 4 cells")
        for lo, hi in zip(self.lows, self.highs):
            if not (lo < hi):
                raise ValueError("degenerate grid extent")

    @property
    def d(self) -> int:
        return len(self.counts)

    @property
    def dx(self) -> tuple[float, ...]:
        return tuple((hi - lo) / n for lo, hi, n in zip(self.lows, self.highs, self.counts))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    @property
    def box(self) -> Box:
        return Box(self.lows, self.highs)

    def centers(self, axis: int) -> np.ndarray:
        dx = self.dx[axis]
        return self.lows[axis] + dx * (np.arange(self.counts[axis]) + 0.5)

    def points(self) -> np.ndarray:
        """Cell-center coordinates, shape (*counts, d)."""
        axes = [self.centers(k) for k in range(self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def interior_face_points(self, axis: int) -> np.ndarray:
        """Coordinates of the faces between consecutive cells along `axis`,
        cell centers in the other directions; shape has counts[axis]-1 there."""
        coords = [self.centers(k) for k in range(self.d)]
        dx = self.dx[axis]
        coords[axis] = self.lows[axis] + dx * np.arange(1, self.counts[axis])
        mesh = np.meshgrid(*coords, indexing="ij")
        return np.stack(mesh, axis=-1)

    def interpolate(self, values: np.ndarray, points) -> np.ndarray:
        """Multilinear interpolation of cell-center values, shape
        (..., *counts), at points (..., d), extrapolated linearly beyond the
        outer centers; leading axes of values (times, say) lead the result.
        The corner terms are added in the order of scipy's
        RegularGridInterpolator (method "linear", fill_value=None), so both
        give the same bits."""
        pts = np.asarray(points, dtype=float)
        cells, fractions = [], []
        for k in range(self.d):
            c, x = self.centers(k), pts[..., k]
            i = np.clip(np.searchsorted(c, x, side="right") - 1, 0, len(c) - 2)
            cells.append(i)
            fractions.append((x - c[i]) / (c[i + 1] - c[i]))
        out = 0.0
        for corner in itertools.product((0, 1), repeat=self.d):
            term = values[(...,) + tuple(i + up for i, up in zip(cells, corner))]
            for up, y in zip(corner, fractions):
                term = term * (y if up else 1 - y)
            out = out + term
        return out


@dataclass(frozen=True)
class Field:
    grid: Grid
    values: np.ndarray
    time: float

    def __post_init__(self):
        if tuple(self.values.shape) != tuple(self.grid.counts):
            raise ValueError(f"field shape {self.values.shape} does not match grid {self.grid.counts}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a viscous run needs besides the initial field.

    One epsilon drives the viscosity and the interface smoothing, and a
    rough flux is mollified at the same radius (mollify_flux(model,
    epsilon)).

    boundary is the pinned far-field state: a single number, or one
    (low side, high side) pair per axis when the data has unequal tails.
    """

    flux: PiecewiseFlux
    epsilon: float
    final_time: float
    boundary: float | Sequence
    cfl: float = 0.45
    output_times: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.final_time <= 0:
            raise ValueError("final_time must be positive")
        if not (0.0 < self.cfl < 1.0):
            raise ValueError("cfl must lie in (0, 1)")
        if self.output_times is not None and not all(
                0.0 <= t <= self.final_time * (1 + 1e-12) for t in self.output_times):
            raise ValueError("output times must lie in [0, final_time]")
        for lo, hi in self.boundary_pairs:
            if not (self.flux.a <= lo <= self.flux.b and self.flux.a <= hi <= self.flux.b):
                raise ValueError("boundary states must lie in [a, b]")

    @property
    def boundary_pairs(self) -> tuple[tuple[float, float], ...]:
        d = self.flux.d
        b = self.boundary
        if isinstance(b, (int, float)):
            return tuple((float(b), float(b)) for _ in range(d))
        pairs = []
        for item in b:
            if isinstance(item, (int, float)):
                pairs.append((float(item), float(item)))
            else:
                lo, hi = item
                pairs.append((float(lo), float(hi)))
        if len(pairs) != d:
            raise ValueError("need one boundary entry per axis")
        return tuple(pairs)


@dataclass(frozen=True)
class Trajectory:
    grid: Grid
    times: tuple[float, ...]
    states: np.ndarray  # (n_times, *counts)
    manifest: dict

    def field(self, i: int) -> Field:
        return Field(self.grid, self.states[i], self.times[i])

    @property
    def final(self) -> Field:
        return self.field(len(self.times) - 1)


def cfl_timestep(config: RunConfig, grid: Grid, speed: float) -> float:
    """dt = cfl * min(dx_min / (2 d max(speed, floor)), dx_min^2 / (2 d eps))."""
    dx_min = min(grid.dx)
    d = grid.d
    conv = dx_min / (2.0 * d * max(speed, CFL_SPEED_FLOOR))
    diff = dx_min * dx_min / (2.0 * d * config.epsilon)
    return config.cfl * min(conv, diff)


def _axslice(ndim, axis, sl):
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


class _Faces:
    """Smoothed flux F = sum over sides and their terms of w * (factor * P)
    of one axis on the interior faces, as the rows (coeffs, factors) of
    PiecewiseFlux.at: smoothing weights and term factors are fixed for the
    run.

    Each distinct P and P' is evaluated once per cell per step, by Horner,
    and sliced onto the faces.  The Rusanov coefficient is the exact max of
    |F'| over [ul, ur] (an E-scheme for any degree): it sits at an endpoint
    or at a sign change of F'' inside, and those depend only on the face, so
    they and |F'| there are tabulated once per run.  The bound is the same
    max over [a, b]."""

    def __init__(self, config: RunConfig, grid: Grid, axis: int):
        model = config.flux
        self.pts = grid.interior_face_points(axis)
        self.lo = _axslice(grid.d, axis, slice(None, -1))
        self.hi = _axslice(grid.d, axis, slice(1, None))
        shape = self.pts.shape[:-1]
        self.rows = model.at(self.pts, config.epsilon).rows(axis)
        self.crit = []  # (state, |F'| there) per candidate column, face arrays
        width = max(len(derivative_coeffs(c)) for c, _ in self.rows)
        if width > 2:  # F'' is not constant
            column = (-1,) + (1,) * len(shape)
            dF = np.broadcast_to(rows_sum(
                self.rows,
                lambda c: np.pad(derivative_coeffs(c), (0, width - len(derivative_coeffs(c)))).reshape(column),
            ), (width,) + shape)
            table, inverse = np.unique(dF.reshape(width, -1).T, axis=0, return_inverse=True)
            states = sign_changes(table[:, 1:] * np.arange(1, width), model.a, model.b)[inverse.ravel()]
            for col in states.T:
                if not np.isnan(col).all():
                    col = col.reshape(shape)
                    self.crit.append((col, np.nan_to_num(self._speed(col))))
        ends = [self._speed(np.full(shape, s)) for s in (model.a, model.b)]
        self.bound = float(max(x.max() for x in ends + [speed for _, speed in self.crit]))

    def _speed(self, states):
        """|F'| at per-face states."""
        return np.abs(rows_sum(self.rows, lambda c: horner(states, derivative_coeffs(c))))

    def rusanov(self, values: np.ndarray, cells: dict, window: tuple = ()):
        """Rusanov flux 0.5 (F(ul) + F(ur)) - 0.5 alpha (ur - ul) on the faces
        between the cells of `values` and its coefficient alpha; `values` is
        the block of cells whose faces are the slice `window` of this axis's
        face tables (all of them by default).  `cells` keeps P and P' of
        `values` per coefficient tuple for the other axes."""
        lo, hi = self.lo, self.hi
        ul, ur = values[lo], values[hi]
        rows = [(coeffs, [f[window] if isinstance(f, np.ndarray) else f for f in factors])
                for coeffs, factors in self.rows]
        for coeffs, _ in rows:
            if coeffs not in cells:
                cells[coeffs] = (horner(values, coeffs), horner(values, derivative_coeffs(coeffs)))
        fl, fr, dl, dr = (rows_sum(rows, lambda c: cells[c][j][sl]) for j in (0, 1) for sl in (lo, hi))
        alpha = np.maximum(np.abs(dl), np.abs(dr))
        if self.crit:
            smin, smax = np.minimum(ul, ur), np.maximum(ul, ur)
            for state, speed in self.crit:
                state = state[window]
                alpha = np.maximum(alpha, np.where((state >= smin) & (state <= smax), speed[window], 0.0))
        return 0.5 * (fl + fr) - 0.5 * alpha * (ur - ul), alpha


class _Stepper:
    """An explicit step restricted to a window of interior cells, one
    [lo, hi) range of array indices per axis; the full step is the window of
    the whole interior.  Everything but the state and dt is fixed for a run
    and set up once: the face tables, the spacing and the diffusion limit
    of the CFL guard, the boundary pairs and the stencil slices.

    The window is read with a one-cell halo and written back in place.  A
    step of a cell reads only its 3-cell stencil along each axis, so a cell
    none of whose stencil changed at the last step gets the same increment
    again, which left it unchanged; at the same or a shorter dt (rounding is
    monotone) it stays unchanged.  The next window is therefore the bounding
    box of the cells whose bits changed, widened by one cell: the numerical
    domain of dependence.  A longer dt than the last step's needs a full step
    again, and so does the first step, whose boundary pin moves the
    boundary cells."""

    def __init__(self, config: RunConfig, grid: Grid):
        d = grid.d
        self.faces = [_Faces(config, grid, k) for k in range(d)]
        self.bound = max(f.bound for f in self.faces)
        self.d, self.eps, self.cfl = d, config.epsilon, config.cfl
        self.dx = grid.dx
        self.dx_min = min(self.dx)
        self.diff_limit = self.dx_min * self.dx_min / (2.0 * d * self.eps)
        self.pairs = config.boundary_pairs
        self.full = tuple((1, n - 1) for n in grid.counts)
        self.other_axes = [tuple(m for m in range(d) if m != k) for k in range(d)]
        # per axis, on a block with its halo: the cells above, at and below
        # each cell, and the cut of the other axes' halo
        self.stencil = [
            (_axslice(d, k, slice(2, None)), _axslice(d, k, slice(1, -1)), _axslice(d, k, slice(None, -2)),
             tuple(slice(1, -1) if m != k else slice(None) for m in range(d)))
            for k in range(d)
        ]

    def advance(self, values: np.ndarray, window, dt: float):
        """Step the cells of `window` in place; returns the largest Rusanov
        coefficient on the window's faces and the window of the next step
        (None when no bit changed)."""
        d = self.d
        block = values[tuple(slice(lo - 1, hi + 1) for lo, hi in window)]
        cells = tuple(slice(lo, hi) for lo, hi in window)
        acc = np.zeros(tuple(hi - lo for lo, hi in window))
        alpha_max = 0.0
        kernel = {}
        for k, (faces, dx, (up, mid, down, shrink)) in enumerate(zip(self.faces, self.dx, self.stencil)):
            # the faces between the block's cells along k, in every row of it
            fwin = tuple(slice(lo - 1, hi + (m != k)) for m, (lo, hi) in enumerate(window))
            fhat, alpha = faces.rusanov(block, kernel, fwin)
            alpha_max = max(alpha_max, float(alpha.max()))
            div = (fhat[faces.hi] - fhat[faces.lo]) / dx
            lap = (block[up] - 2.0 * block[mid] + block[down]) / (dx * dx)
            acc += -div[shrink] + self.eps * lap[shrink]

        # the step must respect the same bound the run derived dt from; a
        # face outside the window passed with the same coefficient at a dt at
        # least as long, since only a full step follows a shorter one
        limit = self.cfl * min(self.dx_min / (2.0 * d * max(alpha_max, CFL_SPEED_FLOOR)), self.diff_limit)
        if dt > limit * (1.0 + 1e-9):
            raise ValueError(f"time step {dt:.3e} violates the CFL bound {limit:.3e} (wave speed {alpha_max:.3e})")

        new = values[cells] + dt * acc
        # bits compared as int64, so a flip of the sign of zero is a change
        if window == self.full:
            # the pin can move boundary cells: compare the whole grid
            old, offsets = values.copy(), (0,) * d
            values[cells] = new
            _pin_boundary(values, self.pairs)
            changed = values.view(np.int64) != old.view(np.int64)
        else:
            changed, offsets = new.view(np.int64) != values[cells].view(np.int64), [lo for lo, _ in window]
            values[cells] = new
        return alpha_max, self._widened(changed, offsets)

    def _widened(self, changed: np.ndarray, offsets):
        """Bounding box of the changed cells, widened by one cell and clipped
        to the interior; None when none changed."""
        window = []
        for offset, other, (first, stop) in zip(offsets, self.other_axes, self.full):
            hit = (changed.any(axis=other) if other else changed).nonzero()[0]
            if hit.size == 0:
                return None
            window.append((max(offset + int(hit[0]) - 1, first), min(offset + int(hit[-1]) + 2, stop)))
        return tuple(window)


def _pin_boundary(values: np.ndarray, pairs):
    d = values.ndim
    for k in range(d):
        values[_axslice(d, k, 0)] = pairs[k][0]
        values[_axslice(d, k, -1)] = pairs[k][1]


def step(field: Field, config: RunConfig, dt: float) -> Field:
    """Single explicit update; refuses time steps above the CFL bound."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    stepper = _Stepper(config, field.grid)
    limit = cfl_timestep(config, field.grid, stepper.bound)
    if dt > limit * (1.0 + 1e-9):
        raise ValueError(f"dt {dt:.6g} exceeds the CFL bound {limit:.6g}")
    values = np.array(field.values, dtype=float, copy=True)
    stepper.advance(values, stepper.full, dt)
    return Field(field.grid, values, field.time + dt)


def _normalize_output_times(config: RunConfig) -> list[float]:
    """The sorted output times with 0 and T; a time in the slack RunConfig
    allows beyond T is T, so that no step runs past it."""
    T = config.final_time
    if config.output_times is None:
        return np.linspace(0.0, T, 9).tolist()
    return sorted({min(float(t), T) for t in config.output_times} | {0.0, T})


def run(u0: Field, config: RunConfig) -> Trajectory:
    """Advance u0 to final_time, recording the state at the requested output
    times (t = 0 and T always included).  Aborts on non-finite values."""
    grid = u0.grid
    if grid.d != config.flux.d:
        raise ValueError("grid and flux dimension mismatch")
    t0 = time.perf_counter()
    stepper = _Stepper(config, grid)
    speed = stepper.bound
    dt_base = cfl_timestep(config, grid, speed)
    out_times = _normalize_output_times(config)

    values = np.array(u0.values, dtype=float, copy=True)
    recorded = [values.copy()]
    t = 0.0
    n_steps = cell_updates = clipped_steps = 0
    alpha_max = 0.0
    dt_min, dt_max = np.inf, 0.0
    window, dt_last = stepper.full, np.inf
    for target in out_times[1:]:
        while t < target - 1e-13:
            dt = min(dt_base, target - t)
            if dt > dt_last:
                window = stepper.full
            t += dt
            if window is not None:
                cells = tuple(slice(lo, hi) for lo, hi in window)
                cell_updates += math.prod(hi - lo for lo, hi in window)
                alpha, window = stepper.advance(values, window, dt)
                alpha_max = max(alpha_max, alpha)
                # only the stepped cells can have left the finite range
                if not np.isfinite(values[cells]).all():
                    raise RuntimeError(f"non-finite solver state at t = {t:.6g}")
            clipped_steps += dt < dt_base
            dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
            dt_last = dt
            n_steps += 1
        recorded.append(values.copy())
    manifest = {
        "flux": config.flux.name or "custom",
        "epsilon": config.epsilon,
        "final_time": config.final_time,
        "cfl": config.cfl,
        "boundary": [list(p) for p in config.boundary_pairs],
        "grid": {"lows": list(grid.lows), "highs": list(grid.highs), "counts": list(grid.counts)},
        "speed_bound": speed,
        "dt_base": dt_base,
        "n_steps": n_steps,
        # interior cells actually stepped, and the output-clipped substeps
        # (a longer step after one steps the whole grid)
        "cell_updates": cell_updates,
        "clipped_steps": clipped_steps,
        "dt_min": dt_min,
        "dt_max": dt_max,
        "alpha_max": alpha_max,
        # <= 1: no step's coefficient exceeded the bound dt_base came from
        "cfl_margin": alpha_max / speed if speed > 0 else 0.0,
        "output_times": out_times,
        # cell_volume * sum(state) at the first and last recorded time
        "mass_start": grid.cell_volume * float(recorded[0].sum()),
        "mass_end": grid.cell_volume * float(recorded[-1].sum()),
        "wall_time_s": time.perf_counter() - t0,
    }
    return Trajectory(grid=grid, times=tuple(out_times), states=np.stack(recorded), manifest=manifest)


@dataclass(frozen=True)
class MaxPrincipleReport:
    passed: bool
    min_value: float
    max_value: float
    tol: float
    witness: dict | None


def max_principle_check(trajectory: Trajectory, a: float, b: float) -> MaxPrincipleReport:
    tol = MAX_PRINCIPLE_TOL
    lo = float(trajectory.states.min())
    hi = float(trajectory.states.max())
    passed = lo >= a - tol and hi <= b + tol
    witness = None
    if not passed:
        idx = np.unravel_index(
            np.argmin(trajectory.states) if lo < a - tol else np.argmax(trajectory.states),
            trajectory.states.shape,
        )
        witness = {"time": trajectory.times[idx[0]], "cell": tuple(int(i) for i in idx[1:])}
    return MaxPrincipleReport(passed=bool(passed), min_value=lo, max_value=hi, tol=tol, witness=witness)
