"""Vanishing-viscosity germ study: a countable dense family of dyadic step
data, viscous runs along a fixed decreasing epsilon sequence, numerical
diagonal subsequence selection, and completeness/stability reports.

Grid resolution is slaved to the viscosity (dx <= eps/4, power-of-two cell
counts) so every run resolves its own layer; endpoints are compared on the
grid of the finest run.
"""
from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .entropy import l1_distance
from .flux import PiecewiseFlux, as_points
from .geometry import Box, Cone, speed_bound
# run stays importable here: bench/tracer.py wraps discflux.germ.run
from .solver import DEFAULT_CFL, Field, Grid, RunConfig, run, run_lockstep  # noqa: F401
from . import storage

DEFAULT_CELL_BUDGET = 32768
MEMBER_CAP = 100000
CONTRACTION_SLACK = 0.05  # share by which an L1 contraction ratio may exceed 1


def dyadic_values(a: float, b: float, level: int) -> np.ndarray:
    return a + (b - a) * np.arange(2 ** level + 1) / (2 ** level)


def member_count(level: int, d: int) -> int:
    return (2 ** level + 1) ** ((2 ** level) ** d)


def _pieces(box: Box, p: int, pts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per axis, the index of the piece of `pts` in the partition of `box`
    into p equal pieces, clipped to [0, p - 1]."""
    return tuple(np.clip(np.floor((pts[..., k] - box.lows[k]) / (box.widths[k] / p)).astype(int), 0, p - 1)
                 for k in range(box.d))


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant datum on the dyadic partition of a box: 2^level
    pieces per axis, values from the dyadic lattice in [a, b]."""

    box: Box
    level: int
    values: tuple[float, ...]  # row-major over pieces
    label: str

    def __post_init__(self):
        if len(self.values) != (2 ** self.level) ** self.box.d:
            raise ValueError("value count does not match the dyadic partition")

    @property
    def pieces_per_axis(self) -> int:
        return 2 ** self.level

    def value_array(self) -> np.ndarray:
        p = self.pieces_per_axis
        return np.asarray(self.values).reshape((p,) * self.box.d)

    def __call__(self, x) -> np.ndarray:
        return self.value_array()[_pieces(self.box, self.pieces_per_axis, as_points(x, self.box.d))]


@dataclass(frozen=True)
class DenseFamily:
    """All dyadic step data at one level.  Members are materialized only up
    to a cap; projection works at any level."""

    box: Box
    a: float
    b: float
    level: int
    count: int
    members: tuple[StepFunction, ...] | None

    @property
    def enumerable(self) -> bool:
        return self.members is not None

    def project(self, u0: Field) -> StepFunction:
        """The member closest in the piecewise sense: cell means per dyadic
        piece, snapped to the nearest dyadic value (ties to the lower one)."""
        grid = u0.grid
        p = 2 ** self.level
        idx = np.ravel_multi_index(_pieces(self.box, p, grid.points().reshape(-1, grid.d)), (p,) * grid.d)
        n_pieces = p ** grid.d
        sums = np.bincount(idx, weights=u0.values.reshape(-1), minlength=n_pieces)
        counts = np.bincount(idx, minlength=n_pieces)
        if (counts == 0).any():
            raise ValueError("comparison grid too coarse for this family level")
        means = sums / counts
        vals = dyadic_values(self.a, self.b, self.level)
        chosen = vals[np.argmin(np.abs(means[:, None] - vals[None, :]), axis=1)]
        key = "".join(str(int(round((v - self.a) / (self.b - self.a) * p))) for v in chosen)
        return StepFunction(self.box, self.level, tuple(float(v) for v in chosen),
                            label=f"L{self.level}-{key}")


def build_dense_family(level: int, a: float, b: float, box: Box) -> DenseFamily:
    if level < 0:
        raise ValueError("level must be >= 0")
    count = member_count(level, box.d)
    members = None
    if count <= MEMBER_CAP:
        vals = dyadic_values(a, b, level)
        pieces = (2 ** level) ** box.d
        members = []
        for i, combo in enumerate(itertools.product(range(len(vals)), repeat=pieces)):
            key = "".join(str(c) for c in combo)
            members.append(StepFunction(box, level, tuple(float(vals[c]) for c in combo),
                                        label=f"L{level}-{key}"))
        members = tuple(members)
    return DenseFamily(box=box, a=a, b=b, level=level, count=count, members=members)


# ---------------------------------------------------------------------------
# epsilon sequences


def grid_for_epsilon(box: Box, eps: float, cell_budget: int = DEFAULT_CELL_BUDGET) -> Grid:
    """Power-of-two counts with dx <= eps/4 on every axis."""
    counts = []
    for w in box.widths:
        n = 2 ** max(2, math.ceil(math.log2(4.0 * w / eps)))
        counts.append(n)
    total = int(np.prod(counts))
    if total > cell_budget:
        raise ValueError(
            f"eps = {eps} needs {total} cells, above the cell budget {cell_budget}"
        )
    return Grid(box.lows, box.highs, tuple(counts))


@dataclass(frozen=True)
class GermRecord:
    member_id: str
    epsilons: tuple[float, ...]
    initial: Field  # on the comparison grid
    endpoints: tuple[Field, ...]  # u_eps(T) per eps, on the comparison grid
    deltas: tuple[float, ...]  # l1(endpoint[k+1], endpoint[k])
    grid_counts: tuple[tuple[int, ...], ...]


def _interp_to(field: Field, dst: Grid) -> Field:
    values = field.values.copy() if field.grid == dst else field.grid.interpolate(field.values, dst.points())
    return Field(dst, values, field.time)


def _edge_boundary(u0_fn, box: Box):
    center = np.asarray(box.center, dtype=float)
    pairs = []
    for k in range(box.d):
        lo_pt = center.copy()
        hi_pt = center.copy()
        lo_pt[k] = box.lows[k]
        hi_pt[k] = box.highs[k] - 1e-12 * box.widths[k]
        lo_v = float(np.asarray(u0_fn(lo_pt[None, :])).reshape(-1)[0])
        hi_v = float(np.asarray(u0_fn(hi_pt[None, :])).reshape(-1)[0])
        pairs.append((lo_v, hi_v))
    return tuple(pairs)


# set in each pool worker by _init_worker: the solve of one task
_worker_job = None


def _init_worker(job):
    global _worker_job
    _worker_job = job


def _worker_task(index: int):
    return _worker_job(index)


def _map(job, count: int) -> tuple[list, int]:
    """[job(0), ..., job(count - 1)] and the number of processes that ran
    them: a fork process pool with one worker per usable CPU, tasks handed
    out in index order (job reaches the workers by fork, not by pickling, so
    it may hold closures).  With one CPU or one task no pool is started.  A
    worker's exception re-raises here with its type; a worker that dies
    raises BrokenProcessPool (a RuntimeError) instead of leaving the call
    waiting.  The pool is shut down on return, before anything else forks."""
    workers = max(1, min(count, len(os.sched_getaffinity(0))))
    if workers == 1:
        return [job(i) for i in range(count)], 1
    # imported here so that runs which start no pool do not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker, initargs=(job,)) as pool:
        return list(pool.map(_worker_task, range(count), chunksize=1)), workers


def run_sequence(data: dict, epsilons, model: PiecewiseFlux, box: Box, final_time: float,
                 boundary=None, cell_budget: int = DEFAULT_CELL_BUDGET, cfl: float = DEFAULT_CFL,
                 records_dir: str | None = None) -> tuple[list[GermRecord], dict]:
    """Run the viscous solver for each datum of `data` (member id -> initial
    function) and each epsilon, and collect endpoints on the comparison grid,
    the grid of the finest epsilon.  Returns the records, in the order of
    `data`, and the counters of this call's solves: {"tasks": each task's
    counters, in epsilon order, "solver": their sums and the number of
    processes that ran them}.

    A task is one epsilon: run_lockstep over every datum, on the pool of
    _map, finest epsilon (the longest task) first.  Each run's arithmetic
    stays in one process, so the records equal separate runs bit for bit.
    With `records_dir`, each task writes its endpoints, and the coarsest the
    initial data, as record CSVs there."""
    start = time.perf_counter()
    eps_list = [float(e) for e in epsilons]
    if not data:
        raise ValueError("no data to solve")
    if len(eps_list) < 2:
        raise ValueError("need at least two epsilons")
    if any(e <= 0 for e in eps_list) or any(b <= a for a, b in zip(eps_list[1:], eps_list[:-1])):
        raise ValueError("epsilon sequence must be positive and strictly decreasing")
    comparison_grid = grid_for_epsilon(box, eps_list[-1], cell_budget)
    ids, fns = list(data), list(data.values())
    bounds = [_edge_boundary(fn, box) if boundary is None else boundary for fn in fns]
    initials = [Field(comparison_grid, np.asarray(fn(comparison_grid.points()), dtype=float), 0.0)
                for fn in fns]

    def solve(task: int):
        began = time.perf_counter()
        k = len(eps_list) - 1 - task
        grid = grid_for_epsilon(box, eps_list[k], cell_budget)
        configs = [RunConfig(flux=model, epsilon=eps_list[k], final_time=final_time, boundary=b, cfl=cfl,
                             output_times=(final_time,)) for b in bounds]
        trajs = run_lockstep([Field(grid, np.asarray(fn(grid.points()), dtype=float), 0.0) for fn in fns],
                             configs)
        ends = [_interp_to(tr.final, comparison_grid) for tr in trajs]
        solved = time.perf_counter()
        if records_dir:
            for member_id, end, initial in zip(ids, ends, initials):
                _write_csvs(os.path.join(records_dir, member_id), {"initial": initial, k: end} if k == 0 else {k: end})
        return ends, {"epsilon": eps_list[k], "data": len(fns),
                      "steps": sum(tr.manifest["n_steps"] for tr in trajs),
                      "cell_updates": sum(tr.manifest["cell_updates"] for tr in trajs), "worker": os.getpid(),
                      "start_s": began - start, "solve_s": solved - began,
                      "write_s": time.perf_counter() - solved if records_dir else 0.0}

    solved, workers = _map(solve, len(eps_list))
    pids = list(dict.fromkeys(task["worker"] for _, task in solved))  # in the order of their first task
    solved.reverse()
    tasks = [dict(task, worker=pids.index(task["worker"])) for _, task in solved]
    counts = tuple(tuple(grid_for_epsilon(box, e, cell_budget).counts) for e in eps_list)
    records = []
    for m, (member_id, initial) in enumerate(zip(ids, initials)):
        endpoints = [ends[m] for ends, _ in solved]
        deltas = tuple(l1_distance(endpoints[k + 1], endpoints[k]) for k in range(len(endpoints) - 1))
        records.append(GermRecord(member_id=member_id, epsilons=tuple(eps_list), initial=initial,
                                  endpoints=tuple(endpoints), deltas=deltas, grid_counts=counts))
    solver = {"runs": len(fns) * len(tasks), "steps": sum(t["steps"] for t in tasks),
              "cell_steps": sum(t["steps"] * math.prod(c) for t, c in zip(tasks, counts)),
              "cell_updates": sum(t["cell_updates"] for t in tasks),
              "solve_s": sum(t["solve_s"] for t in tasks), "workers": workers}
    return records, {"solver": solver, "tasks": tasks}


# ---------------------------------------------------------------------------
# diagonal selection


@dataclass(frozen=True)
class SelectionResult:
    indices: tuple[int, ...]
    passed: bool
    threshold: float
    steps: tuple[dict, ...]
    failed_member: str | None = None
    failed_step: int | None = None


def diagonal_select(records, threshold: float) -> SelectionResult:
    """Numerical diagonal argument: pick strictly increasing delta indices
    k_1 < k_2 < ... with max-over-members delta_k <= threshold * 2^-j at step
    j = 1, 2, ..., one step per delta (and non-increasing along the
    selection).  Failure is an outcome, not an error; the report names the
    blocking datum."""
    records = list(records)
    if not records:
        raise ValueError("no records")
    n_deltas = len(records[0].deltas)
    if any(len(r.deltas) != n_deltas for r in records):
        raise ValueError("records disagree on the number of deltas")
    if n_deltas < 3:
        raise ValueError("need at least 4 epsilons (3 deltas) per record")

    table = np.array([r.deltas for r in records])  # (members, deltas)
    worst = table.max(axis=0)
    indices = []
    steps = []
    prev = -1
    prev_delta = math.inf
    for j in range(1, n_deltas + 1):
        bound = threshold * 2.0 ** (-j)
        cap = min(bound, prev_delta)
        chosen = None
        for k in range(prev + 1, n_deltas):
            if worst[k] <= cap:
                chosen = k
                break
        if chosen is None:
            candidates = worst[prev + 1:]
            if candidates.size:
                k_best = int(np.argmin(candidates)) + prev + 1
                blocker = records[int(np.argmax(table[:, k_best]))].member_id
            else:
                blocker = records[0].member_id
            steps.append({"step": j, "bound": bound, "index": None, "max_delta": None})
            return SelectionResult(indices=tuple(indices), passed=False, threshold=threshold,
                                   steps=tuple(steps), failed_member=blocker, failed_step=j)
        indices.append(chosen)
        steps.append({"step": j, "bound": bound, "index": chosen, "max_delta": float(worst[chosen])})
        prev = chosen
        prev_delta = worst[chosen]
    return SelectionResult(indices=tuple(indices), passed=True, threshold=threshold, steps=tuple(steps))


# ---------------------------------------------------------------------------
# contraction matrix and stability


@dataclass(frozen=True)
class ContractionMatrix:
    ids: tuple[str, ...]
    data_distances: np.ndarray
    limit_distances: np.ndarray
    ratios: np.ndarray
    cone: Cone


def contraction_matrix(records, cone: Cone) -> ContractionMatrix:
    """Pairwise initial and endpoint distances with their ratios.

    On the whole space the endpoint/data ratio is at most 1; a truncated box
    leaks mass through its open boundary at member-dependent rates, so the
    endpoint distance is measured on the cone section at the endpoint time
    and the data distance on the cone base, which is the portion of the
    whole-space inequality the box can certify."""
    records = list(records)
    n = len(records)
    data = np.zeros((n, n))
    limit = np.zeros((n, n))
    t_end = records[0].endpoints[-1].time if records else 0.0
    if cone.section_radius(t_end) <= 0:
        raise ValueError("cone section is empty at the endpoint time; shorten the run")
    for table, fields, t in ((data, [r.initial for r in records], 0.0),
                             (limit, [r.endpoints[-1] for r in records], t_end)):
        cells = cone.cells(fields[0].grid, t) if fields else None
        for i in range(n):
            for j in range(i + 1, n):
                table[i, j] = table[j, i] = l1_distance(fields[i], fields[j], cells)
    ratios = np.zeros((n, n))
    off = ~np.eye(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios[off] = np.where(data[off] > 0, limit[off] / np.where(data[off] > 0, data[off], 1.0), np.inf)
    return ContractionMatrix(ids=tuple(r.member_id for r in records),
                             data_distances=data, limit_distances=limit, ratios=ratios,
                             cone=cone)


@dataclass(frozen=True)
class StabilityReport:
    worst_ratio: float
    worst_pair: tuple[str, str] | None
    passed: bool
    pairs: int


def stability_report(matrix: ContractionMatrix) -> StabilityReport:
    """The worst ratio over the pairs with distinct data, the first in row
    order of the upper triangle when it ties."""
    rows, cols = np.triu_indices(len(matrix.ids), 1)
    keep = matrix.data_distances[rows, cols] > 0
    rows, cols = rows[keep], cols[keep]
    ratios = matrix.ratios[rows, cols]
    worst = 0.0
    worst_pair = None
    if ratios.size and ratios.max() > 0:
        k = int(ratios.argmax())
        worst = float(ratios[k])
        worst_pair = (matrix.ids[rows[k]], matrix.ids[cols[k]])
    return StabilityReport(worst_ratio=worst, worst_pair=worst_pair, passed=worst <= 1.0 + CONTRACTION_SLACK,
                           pairs=int(keep.sum()))


# ---------------------------------------------------------------------------
# the study orchestrator


@dataclass(frozen=True)
class GermEstimate:
    limit: Field
    error_bar: float
    member_id: str
    approx_error: float
    delta_tail: float


def _delta_tail(deltas) -> float:
    last = deltas[-1]
    prev = deltas[-2] if len(deltas) > 1 else 0.0
    if last <= 0:
        return 0.0
    rho = min(last / prev, 0.9) if prev > 0 else 0.0
    return float(last * rho / (1.0 - rho))


def _estimate(u0: Field, member: StepFunction, record: GermRecord) -> GermEstimate:
    """The limit estimate for `u0` from the record of `member`, its
    projection: the member's finest endpoint, with the triangle-inequality
    error bar approx_error + delta_tail."""
    if u0.grid != record.initial.grid:
        raise ValueError("data to solve must live on the comparison grid")
    approx = l1_distance(u0, record.initial)
    tail = _delta_tail(record.deltas)
    return GermEstimate(limit=record.endpoints[-1], error_bar=approx + tail,
                        member_id=member.label, approx_error=approx, delta_tail=tail)


@dataclass(frozen=True)
class GermLevelResult:
    family: DenseFamily
    records: tuple[GermRecord, ...]  # in the order of family.members
    selection: SelectionResult
    matrix: ContractionMatrix
    stability: StabilityReport
    records_dir: str | None  # where the solving tasks wrote the record CSVs, if anywhere
    counters: dict  # run_sequence's counters of the level's solves

    def estimate(self, u0: Field) -> GermEstimate:
        """The limit estimate for `u0` from the record of its projection
        onto this level's family."""
        member = self.family.project(u0)
        return _estimate(u0, member, next(r for r in self.records if r.member_id == member.label))


class GermStudy:
    """The settings of a germ study, fixed at construction: each
    level_result and solve runs its own run_sequence on them."""

    def __init__(self, model: PiecewiseFlux, final_time: float, epsilons,
                 box: Box | None = None, cell_budget: int = DEFAULT_CELL_BUDGET,
                 cfl: float = DEFAULT_CFL, threshold: float | None = None):
        self.model = model
        self.box = box if box is not None else model.domain
        self.final_time = float(final_time)
        self.epsilons = tuple(float(e) for e in epsilons)
        self.cell_budget = cell_budget
        self.cfl = cfl
        self.comparison_grid = grid_for_epsilon(self.box, self.epsilons[-1], cell_budget)
        self.threshold = (0.05 * (model.b - model.a) * self.box.volume
                          if threshold is None else float(threshold))
        # contraction is certified on the largest cone the box supports
        speed = speed_bound(model, self.box)
        inradius = float(self.box.widths.min() / 2.0)
        self.cone = Cone(tuple(float(v) for v in self.box.center), inradius, max(speed, 1e-12))
        if self.cone.section_radius(self.final_time) <= 0:
            raise ValueError(
                f"final time {self.final_time} empties the contraction cone "
                f"(radius {inradius}, speed {speed}); shorten the run or grow the box"
            )

    def family(self, level: int) -> DenseFamily:
        return build_dense_family(level, self.model.a, self.model.b, self.box)

    def level_result(self, level: int, records_dir: str | None = None) -> GermLevelResult:
        """Records, selection and stability of every member of a level, all
        solved by one run_sequence (one lockstep task per epsilon), their
        record CSVs written into `records_dir` when it is given."""
        family = self.family(level)
        if not family.enumerable:
            raise ValueError(f"family level {level} has {family.count} members, too many to enumerate")
        records, counters = run_sequence({m.label: m for m in family.members}, self.epsilons, self.model,
                                         self.box, self.final_time, cell_budget=self.cell_budget,
                                         cfl=self.cfl, records_dir=records_dir)
        selection = diagonal_select(records, self.threshold)
        matrix = contraction_matrix(records, self.cone)
        return GermLevelResult(family=family, records=tuple(records), selection=selection, matrix=matrix,
                               stability=stability_report(matrix), records_dir=records_dir, counters=counters)

    def solve(self, u0: Field, level: int) -> GermEstimate:
        """Limit estimate for arbitrary data at any level: project onto the
        family, solve that member alone, and report the triangle-inequality
        error bar approx_error + delta_tail."""
        member = self.family(level).project(u0)
        (record,), _ = run_sequence({member.label: member}, self.epsilons, self.model, self.box,
                                    self.final_time, cell_budget=self.cell_budget, cfl=self.cfl)
        return _estimate(u0, member, record)


# ---------------------------------------------------------------------------
# persistence


def _csv_name(key) -> str:
    return "initial.csv" if key == "initial" else f"endpoint_{key:02d}.csv"


def _write_csvs(dirpath, fields: dict):
    """Write `fields` into `dirpath` under their _csv_name; a failure raises storage.WriteError."""
    storage.ensure_dir(dirpath)
    for key, fld in fields.items():
        path = os.path.join(dirpath, _csv_name(key))
        try:
            storage.write_field_csv(path, fld)
        except OSError as exc:
            raise storage.WriteError.of(path, exc) from None


def _save_manifest(record: GermRecord, dirpath):
    storage.write_manifest(os.path.join(dirpath, "manifest.json"), {
        "member_id": record.member_id,
        "epsilons": list(record.epsilons),
        "deltas": list(record.deltas),
        "grid_counts": [list(c) for c in record.grid_counts],
        "files": {"initial": _csv_name("initial"), "endpoints": [_csv_name(k) for k in range(len(record.endpoints))]},
    })


def save_level_result(path, result: GermLevelResult, extra: dict):
    """The level manifest at `path`, with `extra` merged in, and beside it the
    distance matrices and a manifest per member record.  The record CSVs are
    the solving tasks' (run_sequence's records_dir), which must be
    `<dirname(path)>/records`: a ValueError names that directory otherwise."""
    dirpath = os.path.dirname(path)
    records_dir = os.path.join(dirpath, "records")
    if result.records_dir is None or os.path.abspath(result.records_dir) != os.path.abspath(records_dir):
        raise ValueError(f"the level's record CSVs are not in {records_dir} (they are in {result.records_dir})")
    for record in result.records:
        _save_manifest(record, os.path.join(records_dir, record.member_id))
    storage.write_matrix_csv(os.path.join(dirpath, "data_distances.csv"),
                             result.matrix.ids, result.matrix.data_distances)
    storage.write_matrix_csv(os.path.join(dirpath, "limit_distances.csv"),
                             result.matrix.ids, result.matrix.limit_distances)
    storage.write_matrix_csv(os.path.join(dirpath, "contraction_ratios.csv"),
                             result.matrix.ids, result.matrix.ratios)
    manifest = {
        "level": result.family.level,
        "members": list(result.matrix.ids),
        "selection": {
            "indices": list(result.selection.indices),
            "pass": result.selection.passed,
            "threshold": result.selection.threshold,
            "steps": list(result.selection.steps),
            "failed_member": result.selection.failed_member,
        },
        "stability": {
            "worst_ratio": result.stability.worst_ratio,
            "worst_pair": list(result.stability.worst_pair) if result.stability.worst_pair else None,
            "pass": result.stability.passed,
        },
    }
    cone = result.matrix.cone
    manifest["contraction_cone"] = {"center": list(cone.center), "radius": cone.radius, "speed": cone.speed}
    manifest.update(extra)
    storage.write_manifest(path, manifest)
