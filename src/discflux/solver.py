"""Viscous finite-volume solver for the smoothed-interface equation

    du/dt + div F_eps(x, u) = eps * Laplace(u)

on cell-centered grids in d = 1 or 2.  Convection uses the local
Lax-Friedrichs (Rusanov) flux, diffusion the standard second difference, time
stepping is explicit Euler with exact-time substepping at the requested
output times.  Boundary cells are held at the far-field state.
"""
from __future__ import annotations

import bisect
import contextlib
import dataclasses
import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flux import PiecewiseFlux, derivative_coeffs, horner, rows_sum, sign_changes
from .geometry import Box

MAX_PRINCIPLE_TOL = 1e-10  # slack of max_principle_check on [a, b]
# a run of more interior cells times base steps is refused before its first step
MAX_CELL_STEPS = 1e9
# glibc's mallopt parameter number, and the free heap top the solver keeps
M_TOP_PAD = -2
HEAP_TOP_PAD = 16 << 20


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


DEFAULT_CFL = 0.45  # the CFL number of a run, a germ study and a scenario that states none


@dataclass(frozen=True)
class RunConfig:
    """Everything a viscous run needs besides the initial field.

    One epsilon drives the viscosity and the interface smoothing.  The flux
    is solved as given: a rough flux is mollified by the caller
    (mollify_flux) before it is put here.

    boundary is the pinned far-field state: a single number, or one
    (low side, high side) pair per axis when the data has unequal tails.
    """

    flux: PiecewiseFlux
    epsilon: float
    final_time: float
    boundary: float | Sequence
    cfl: float = DEFAULT_CFL
    output_times: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.final_time <= 0:
            raise ValueError("final_time must be positive")
        if not (0.0 < self.cfl <= 0.5):
            raise ValueError(f"cfl {self.cfl} is outside (0, 0.5], where the time step keeps the scheme monotone")
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


def _max_dt(cfl: float, epsilon: float, dx: Sequence[float], speed: float) -> float:
    """The time-step rule, dt = cfl / sum_k (speed / dx_k + eps / dx_k^2).
    With the Rusanov coefficients frozen, a cell's diagonal coefficient is at
    least 1 - dt sum_k (2 speed / dx_k + 2 eps / dx_k^2) >= 1 - 2 cfl (the
    factor 2: the smoothed interface's face fluxes are read at different x,
    so their F' terms do not cancel), Crandall and Majda's (1980) condition.
    But each face's exact Rusanov bound moves with its states, adding up to
    |F''| |du| to a slope: an E-scheme (Osher 1984), not monotone on rough
    data (ROADMAP's witness pair; item 9 is the fix)."""
    return cfl / sum(speed / h + epsilon / (h * h) for h in dx)


def cfl_timestep(config: RunConfig, grid: Grid, speed: float) -> float:
    """The largest stable time step for Rusanov coefficients up to `speed`:
    cfl / sum_k (speed / dx_k + eps / dx_k^2) (_max_dt)."""
    return _max_dt(config.cfl, config.epsilon, grid.dx, speed)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table, inverse) with table[inverse] == rows: the distinct rows of a
    float table by their bits, found by a lexsort over the rows' int64 bit
    patterns, so rows that differ only in the sign of a zero stay apart.
    The order of the table's rows is unspecified."""
    rows = np.ascontiguousarray(rows, dtype=float)
    bits = rows.view(np.int64)
    order = np.lexsort(bits.T)
    ranked = bits[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return rows[order[first]], inverse


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
    they and |F'| there are tabulated once per run: the sign changes are
    found once per distinct row of F' coefficients (_distinct_rows, a lexsort
    over their bits) and read back onto the faces.  The bound is the same
    max over [a, b]."""

    def __init__(self, config: RunConfig, grid: Grid, axis: int):
        model = config.flux
        self.pts = grid.interior_face_points(axis)
        self.lo = _axslice(grid.d, axis, slice(None, -1))
        self.hi = _axslice(grid.d, axis, slice(1, None))
        shape = self.pts.shape[:-1]
        self.rows = model.at(self.pts, config.epsilon).rows(axis)
        self.derivatives = {c: derivative_coeffs(c) for c, _ in self.rows}
        self.crit = []  # (state, |F'| there) per candidate column, face arrays
        width = max(len(dc) for dc in self.derivatives.values())
        if width > 2:  # F'' is not constant
            column = (-1,) + (1,) * len(shape)
            dF = np.broadcast_to(rows_sum(
                self.rows,
                lambda c: np.pad(self.derivatives[c], (0, width - len(self.derivatives[c]))).reshape(column),
            ), (width,) + shape)
            table, inverse = _distinct_rows(dF.reshape(width, -1).T)
            states = sign_changes(table[:, 1:] * np.arange(1, width), model.a, model.b)[inverse]
            for col in states.T:
                if not np.isnan(col).all():
                    col = col.reshape(shape)
                    self.crit.append((col, np.nan_to_num(self._speed(col))))
        ends = [self._speed(np.full(shape, s)) for s in (model.a, model.b)]
        self.bound = float(max(x.max() for x in ends + [speed for _, speed in self.crit]))

    def _speed(self, states):
        """|F'| at per-face states."""
        return np.abs(rows_sum(self.rows, lambda c: horner(states, self.derivatives[c])))

    def rusanov(self, values: np.ndarray, cells: dict, window: tuple = ()):
        """Rusanov flux 0.5 (F(ul) + F(ur)) - 0.5 alpha (ur - ul) on the faces
        between the cells of `values` and its coefficient alpha; `values` is
        the block of cells whose faces are `window` of this axis's face
        tables (a tuple of slices or row indices; all of them by default).
        `cells` keeps P and P' of `values` per coefficient tuple for the
        other axes."""
        lo, hi = self.lo, self.hi
        ul, ur = values[lo], values[hi]
        rows = [(coeffs, [f[window] if isinstance(f, np.ndarray) else f for f in factors])
                for coeffs, factors in self.rows]
        for coeffs, _ in rows:
            if coeffs not in cells:
                cells[coeffs] = (horner(values, coeffs), horner(values, self.derivatives[coeffs]))
        fl, fr, dl, dr = (rows_sum(rows, lambda c: cells[c][j][sl]) for j in (0, 1) for sl in (lo, hi))
        alpha = np.maximum(np.abs(dl), np.abs(dr))
        if self.crit:
            smin, smax = np.minimum(ul, ur), np.maximum(ul, ur)
            for state, speed in self.crit:
                state = state[window]
                alpha = np.maximum(alpha, np.where((state >= smin) & (state <= smax), speed[window], 0.0))
        return 0.5 * (fl + fr) - 0.5 * alpha * (ur - ul), alpha


class _Stepper:
    """An explicit step of fields that share a grid, each restricted to its
    own window of interior cells, one [lo, hi) range of array indices per
    axis; the full step is the window of the whole interior.  Everything but
    the states and dt is fixed for a run and set up once: the face tables,
    the spacing and viscosity the CFL guard reads (_max_dt, the rule the run
    took dt from), each field's boundary pairs and the stencil slices.

    A step of a cell reads only its 3-cell stencil along each axis, so a cell
    none of whose stencil changed at the last step gets the same increment
    again, which left it unchanged; at the same or a shorter dt (rounding is
    monotone) it stays unchanged.  A field's next window is therefore the
    bounding box of its cells whose bits changed, widened by one cell: the
    numerical domain of dependence.  A longer dt than the last step's needs
    a full step again, and so does the first step, whose boundary pin moves
    the boundary cells.

    The fields are stepped as one block: each window's rows along axis 0
    with a one-cell halo, stacked along axis 0, over the union of the
    windows' ranges on the other axes.  By the argument above, the cells of
    the union outside a field's own window keep their bits.  The face
    between two stacked segments and the halo rows beside it are junk:
    their increments are dropped and their coefficients ignored.  A lone
    field's block is a view of its window with its halo."""

    def __init__(self, config: RunConfig, grid: Grid, pairs):
        d = grid.d
        self.faces = [_Faces(config, grid, k) for k in range(d)]
        self.bound = max(f.bound for f in self.faces)
        self.d, self.eps, self.cfl = d, config.epsilon, config.cfl
        self.counts = grid.counts
        self.dx = grid.dx
        self.pairs = pairs  # the boundary pairs of each field
        self.full = tuple((1, n - 1) for n in grid.counts)
        self.inner = (slice(1, -1),) * d
        # per axis, on a block with its halo: the cells above, at and below
        # each cell, and the cut of the other axes' halo
        self.stencil = [
            (_axslice(d, k, slice(2, None)), _axslice(d, k, slice(1, -1)), _axslice(d, k, slice(None, -2)),
             tuple(slice(1, -1) if m != k else slice(None) for m in range(d)))
            for k in range(d)
        ]

    def advance(self, values: np.ndarray, live, windows, dt: float, t: float):
        """Step the window `windows[i]` of each field `live[i]` of `values`,
        shape (fields, *counts), in place to time t; returns the largest
        Rusanov coefficient on each such field's faces and its next window
        (None when no bit changed)."""
        d, n0 = self.d, self.counts[0]
        rows = [(w[0][0] - 1, w[0][1] + 1) for w in windows]
        across = tuple(slice(min(w[k][0] for w in windows) - 1, max(w[k][1] for w in windows) + 1)
                       for k in range(1, d)) if d > 1 else ()
        stacked = values.reshape((-1,) + self.counts[1:])
        if len(live) == 1:
            (lo, hi), = rows
            starts, seams = [0, hi - lo], None
            cell_rows, face_rows = slice(lo, hi), slice(lo, hi - 1)
            take = slice(live[0] * n0 + lo, live[0] * n0 + hi)
        else:
            sizes = [hi - lo for lo, hi in rows]
            starts = list(itertools.accumulate(sizes, initial=0))
            # the first block row of each segment but the first
            seams = np.array(starts[1:-1])
            cell_rows = np.arange(starts[-1]) + np.repeat([lo - s for (lo, _), s in zip(rows, starts)], sizes)
            take = cell_rows + np.repeat([j * n0 for j in live], sizes)
            # the junk face after a segment reads any valid row
            face_rows = np.minimum(cell_rows[:-1], n0 - 2)
        block = stacked[(take,) + across]
        acc = np.zeros(block[self.inner].shape)
        alpha = None
        kernel = {}
        for k, (faces, dx, (up, mid, down, shrink)) in enumerate(zip(self.faces, self.dx, self.stencil)):
            # the faces between the block's cells along k, in every row of it
            fwin = (face_rows if k == 0 else cell_rows,) + tuple(
                slice(s.start, s.stop - (m == k)) for m, s in enumerate(across, 1))
            fhat, coeff = faces.rusanov(block, kernel, fwin)
            if seams is not None:
                rows_max = coeff.max(axis=tuple(range(1, d))) if d > 1 else coeff
                if k == 0:
                    rows_max[seams - 1] = 0.0
                maxima = np.maximum.reduceat(rows_max, starts[:-1]).tolist()
            else:
                maxima = [float(coeff.max())]
            alpha = maxima if alpha is None else [max(a, b) for a, b in zip(alpha, maxima)]
            div = (fhat[faces.hi] - fhat[faces.lo]) / dx
            lap = (block[up] - 2.0 * block[mid] + block[down]) / (dx * dx)
            # eps lap - div: the same bits as -div + eps lap, one negation fewer
            acc += self.eps * lap[shrink] - div[shrink]

        # the step must respect the same bound the run derived dt from; a
        # face outside a window passed with the same coefficient at a dt at
        # least as long, since only a full step follows a shorter one
        for i, speed in enumerate(alpha):
            limit = _max_dt(self.cfl, self.eps, self.dx, speed)
            if dt > limit * (1.0 + 1e-9):
                raise ValueError(f"{_which(values, live[i])}time step {dt:.3e} violates the CFL bound {limit:.3e} "
                                 f"(wave speed {speed:.3e})")

        new = block.copy()
        new[self.inner] += dt * acc
        if seams is not None:
            halo = np.concatenate([seams - 1, seams])
            new[halo] = block[halo]
        for i, (j, w) in enumerate(zip(live, windows)):
            if w == self.full:
                # the pin can move boundary cells
                _pin_boundary(new[starts[i]:starts[i + 1]], self.pairs[j])
        # only the stepped cells can have left the finite range
        finite = np.isfinite(new)
        if not finite.all():
            row = int(np.argwhere(~finite)[0][0])
            i = bisect.bisect_right(starts, row) - 1
            raise RuntimeError(f"{_which(values, live[i])}non-finite solver state at t = {t:.6g}")
        # bits compared as int64, so a flip of the sign of zero is a change
        changed = new.view(np.int64) != block.view(np.int64)
        stacked[(take,) + across] = new
        return alpha, self._widened(changed, rows, starts, across)

    def _widened(self, changed: np.ndarray, rows, starts, across):
        """Per segment of the block, the bounding box of its changed cells,
        widened by one cell and clipped to the interior; None when none
        changed."""
        d = self.d
        hits = (changed.any(axis=tuple(range(1, d))) if d > 1 else changed).nonzero()[0]
        if len(rows) > 1:
            bounds = np.searchsorted(hits, starts).tolist()
            segments = np.logical_or.reduceat(changed, starts[:-1], axis=0) if d > 1 else None
        else:
            bounds = [0, len(hits)]
            segments = changed.any(axis=0, keepdims=True) if d > 1 else None
        windows = []
        for i, (lo, _) in enumerate(rows):
            first, stop = bounds[i], bounds[i + 1]
            if first == stop:
                windows.append(None)
                continue
            # block row r is grid row r + offset
            offset = lo - starts[i]
            window = [(max(int(hits[first]) + offset - 1, 1), min(int(hits[stop - 1]) + offset + 2, self.counts[0] - 1))]
            for k in range(1, d):
                hit = np.flatnonzero(segments[i].any(axis=tuple(m for m in range(d - 1) if m != k - 1)))
                offset = across[k - 1].start
                window.append((max(int(hit[0]) + offset - 1, 1), min(int(hit[-1]) + offset + 2, self.counts[k] - 1)))
            windows.append(tuple(window))
        return windows


def _which(values: np.ndarray, j: int) -> str:
    """The prefix naming field j in an error, when there are several."""
    return f"field {j}: " if len(values) > 1 else ""


def _pin_boundary(values: np.ndarray, pairs):
    d = values.ndim
    for k in range(d):
        values[_axslice(d, k, 0)] = pairs[k][0]
        values[_axslice(d, k, -1)] = pairs[k][1]


def _normalize_output_times(config: RunConfig) -> list[float]:
    """The sorted output times with 0 and T; a time in the slack RunConfig
    allows beyond T is T, so that no step runs past it."""
    T = config.final_time
    if config.output_times is None:
        return np.linspace(0.0, T, 9).tolist()
    return sorted({min(float(t), T) for t in config.output_times} | {0.0, T})


def run(u0: Field, config: RunConfig) -> Trajectory:
    """Advance u0 to final_time, recording the state at the requested output
    times (t = 0 and T always included): run_lockstep of one field."""
    return run_lockstep([u0], [config])[0]


@functools.cache
def _keep_heap_top():
    """Have glibc keep HEAP_TOP_PAD bytes free at the top of the heap.  By
    default it hands the free top back to the system once 128 kB are free
    there, and a step's temporaries on a block of some thousand cells free
    more than that, so every step faulted its pages back in: a 16,384-cell
    run spent about 40% of its time in the kernel.  Where mallopt is
    missing this does nothing."""
    import ctypes

    with contextlib.suppress(OSError, AttributeError, TypeError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_TOP_PAD, HEAP_TOP_PAD)


def run_lockstep(u0s: Sequence[Field], configs: Sequence[RunConfig]) -> list[Trajectory]:
    """Advance fields on one grid under configs that differ only in their
    boundary, one trajectory each, in lockstep: they share the dt schedule,
    and each step is one _Stepper block over all their windows.  Every
    field keeps its own window, pin, CFL guard and manifest, and its
    trajectory equals a run of it alone bit for bit; wall_time_s is the
    whole lockstep run's.

    Refuses, before the first step, a run whose interior cells times base
    steps exceed MAX_CELL_STEPS, and aborts on non-finite values; either
    error names the field when there are several."""
    grid, config = u0s[0].grid, configs[0]
    if len(u0s) != len(configs) or any(u.grid != grid for u in u0s[1:]) or any(
            dataclasses.replace(c, boundary=config.boundary) != config for c in configs[1:]):
        raise ValueError("lockstep fields need one grid and configs that differ only in boundary")
    if grid.d != config.flux.d:
        raise ValueError("grid and flux dimension mismatch")
    _keep_heap_top()
    t0 = time.perf_counter()
    stepper = _Stepper(config, grid, [c.boundary_pairs for c in configs])
    speed = stepper.bound
    dt_base = cfl_timestep(config, grid, speed)
    estimate = math.prod(n - 2 for n in grid.counts) * math.ceil(config.final_time / dt_base)
    if estimate > MAX_CELL_STEPS:
        raise ValueError(
            f"epsilon {config.epsilon:.6g} on dx {min(grid.dx):.6g} gives dt_base {dt_base:.3e}: about "
            f"{estimate:.3e} cell-steps, above the limit of {MAX_CELL_STEPS:.0e}")
    out_times = _normalize_output_times(config)

    values = np.array([u.values for u in u0s], dtype=float)
    recorded = [values.copy()]
    t = 0.0
    n_steps = clipped_steps = 0
    cell_updates = [0] * len(u0s)
    alpha_max = [0.0] * len(u0s)
    dt_min, dt_max = np.inf, 0.0
    windows, dt_last = [stepper.full] * len(u0s), np.inf
    for target in out_times[1:]:
        while t < target - 1e-13:
            dt = min(dt_base, target - t)
            if dt > dt_last:
                windows = [stepper.full] * len(u0s)
            t += dt
            live = [j for j, w in enumerate(windows) if w is not None]
            if live:
                alpha, fresh = stepper.advance(values, live, [windows[j] for j in live], dt, t)
                for j, w, a in zip(live, fresh, alpha):
                    cell_updates[j] += math.prod(hi - lo for lo, hi in windows[j])
                    windows[j] = w
                    alpha_max[j] = max(alpha_max[j], a)
            clipped_steps += dt < dt_base
            dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
            dt_last = dt
            n_steps += 1
        recorded.append(values.copy())
    states = np.stack(recorded, axis=1)
    wall = time.perf_counter() - t0
    trajectories = []
    for c, s, updates, alpha in zip(configs, states, cell_updates, alpha_max):
        manifest = {
            "flux": config.flux.name or "custom",
            "epsilon": config.epsilon,
            "final_time": config.final_time,
            "cfl": config.cfl,
            "boundary": [list(p) for p in c.boundary_pairs],
            "grid": {"lows": list(grid.lows), "highs": list(grid.highs), "counts": list(grid.counts)},
            "speed_bound": speed,
            "dt_base": dt_base,
            "n_steps": n_steps,
            # interior cells actually stepped, and the output-clipped substeps
            # (a longer step after one steps the whole grid)
            "cell_updates": updates,
            "clipped_steps": clipped_steps,
            "dt_min": dt_min,
            "dt_max": dt_max,
            "alpha_max": alpha,
            # <= 1: no step's coefficient exceeded the bound dt_base came from
            "cfl_margin": alpha / speed if speed > 0 else 0.0,
            "output_times": out_times,
            # cell_volume * sum(state) at the first and last recorded time
            "mass_start": grid.cell_volume * float(s[0].sum()),
            "mass_end": grid.cell_volume * float(s[-1].sum()),
            "wall_time_s": wall,
        }
        trajectories.append(Trajectory(grid=grid, times=tuple(out_times), states=s, manifest=manifest))
    return trajectories


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
