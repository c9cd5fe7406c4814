"""Command line front end.

Every subcommand except `diff` takes a scenario JSON file, runs the matching
study, writes artifacts under --out, and prints one line per check.  Exit
codes: 0 all checks pass, 2 at least one check fails, 1 usage or runtime
error.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import sys
import time

import numpy as np

from . import germ as germ_mod
from . import storage
from .entropy import (
    bump_battery,
    cone_locality_check,
    entropy_battery,
    interface_trace,  # noqa: F401  stays importable here: bench/tracer.py wraps discflux.cli.interface_trace
    kato_battery,
    l1_distance,
)
from .geometry import Cone, flatten_model, radial_extend_model, speed_bound
from .scenario import (
    Scenario,
    ScenarioError,
    builtin_scenario_names,
    builtin_scenario_path,
    parse_scenario,
)
from .solver import Field, Grid, Trajectory, max_principle_check, run

DEFAULT_OUT_ROOT = "discflux_out"


class _PhaseClock:
    """Seconds one scenario command spends solving, verifying and writing
    artifacts, for report.json's `timings` block, and the artifacts it
    wrote, for its `artifacts` block.  Time outside the three phases
    (parsing, initial data, interpolation) counts only in total_s, which
    runs from `start`.

    `write(name, write, *args)` hands `write(out/name, *args)` to a forked
    child as soon as its data exists, so io_s counts the fork, not the
    formatting, and records `name` under its stem (a germ level's record
    CSVs are written by its pool tasks, in solve_s).  report.json is written
    after the children finish."""

    def __init__(self, out: str, start: float):
        self.start = start
        self.seconds = {"solve_s": 0.0, "verify_s": 0.0, "io_s": 0.0}
        self.out = out
        self.writers = storage.Writers()
        self.artifacts: dict = {}

    def __call__(self, phase: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[phase] += time.perf_counter() - start

    def write(self, name: str, write, *args):
        self("io_s", self.writers.submit, write, os.path.join(self.out, name), *args)
        self.artifacts |= {os.path.splitext(name)[0]: name}

    def timings(self) -> dict:
        return dict(self.seconds, total_s=time.perf_counter() - self.start)


def _check(checks, name: str, ok: bool, detail: str):
    checks.append({"name": name, "pass": bool(ok), "detail": detail})


def _solve(clock, checks, sc: Scenario, u0: Field, config, name: str, label: str) -> Trajectory:
    """Run, hand the trajectory to its writer as `name`, and check the max
    principle on the scenario's [a, b] as `label`."""
    traj = clock("solve_s", run, u0, config)
    clock.write(name, storage.write_trajectory_csv, traj)
    model = sc.model
    rep = clock("verify_s", max_principle_check, traj, model.a, model.b)
    span = f"[{rep.min_value:.6g}, {rep.max_value:.6g}]"
    detail = f"values stay in {span} against [{model.a}, {model.b}]"
    if rep.witness is not None:
        cell = ", ".join(map(str, rep.witness["cell"]))
        detail = (f"values reach {span} outside [{model.a}, {model.b}]; "
                  f"worst at t = {rep.witness['time']:.6g}, cell ({cell})")
    _check(checks, label, rep.passed, detail)
    return traj


def _battery(clock, checks, sc: Scenario, battery, trajs, model, tol_factor: float,
             name: str, label: str):
    """`battery(*trajs, model)` on the study's bumps (the battery's own test
    functions without `bumps`) and its `tol_factor` (`tol_factor` without),
    its JSON handed to a writer as `name`, its check line as `label`: the report."""
    phis = None
    if "bumps" in sc.study:
        phis = bump_battery(trajs[0].grid.box, trajs[0].times[-1], count=int(sc.study["bumps"]))
    report = clock("verify_s", battery, *trajs, model, phis=phis,
                   tol_factor=sc.study.get("tol_factor", tol_factor))
    clock.write(name, storage.write_manifest, report.to_json())
    lam, phi = report.worst
    lam_txt = "none" if lam is None else f"{lam:.6g}"
    _check(checks, label, report.passed,
           f"min residual {report.min_residual:.3e} (worst at lambda={lam_txt}, {phi})")
    return report


# ---------------------------------------------------------------------------
# subcommand bodies; each returns (checks, manifest_extras)


def _exec_run(sc: Scenario, clock) -> tuple[list, dict]:
    checks: list = []
    model = sc.model
    traj = _solve(clock, checks, sc, sc.initial_field(), sc.config, "trajectory.csv", "max_principle")
    extras = {"solver": traj.manifest}

    if sc.chart is None:
        return checks, extras

    # charted pipeline: flatten the interface, extend the flux radially so it
    # is defined on the whole flattened box, re-solve, and map the flattened
    # solution back for a side-by-side comparison
    itf = model.interface
    flat = flatten_model(model)
    center = np.asarray(sc.chart["center"], dtype=float)
    flat_center = itf.flatten(center)
    ext = radial_extend_model(flat, flat_center, sc.chart["radius"])

    grid = sc.grid
    flat_grid = Grid(flat.domain.lows, flat.domain.highs, grid.counts)
    u0_flat = Field(flat_grid, sc.values_at(sc.initial, itf.unflatten(flat_grid.points())), 0.0)
    config_flat = dataclasses.replace(sc.config, flux=ext)
    traj_flat = _solve(clock, checks, sc, u0_flat, config_flat,
                       "flattened_trajectory.csv", "max_principle_flattened")

    # pull the flattened solution back onto the original grid: every time in
    # its writer, the final time here (interpolate is elementwise over times)
    points = itf.flatten(grid.points())
    clock.write("mapped_trajectory.csv", _write_pulled_back, flat_grid, traj_flat, points, grid)
    mapped_final = Field(grid, flat_grid.interpolate(traj_flat.states[-1], points), traj_flat.times[-1])

    gap = clock("verify_s", l1_distance, traj.final, mapped_final)
    tol = 2e-2  # the L1 gap allowed between the straight and the mapped-back flattened solve
    _check(checks, "flatten_roundtrip", gap <= tol,
           f"L1 gap {gap:.3e} vs tol {tol:.3e} at t={traj.times[-1]:.6g}")

    _battery(clock, checks, sc, entropy_battery, [traj_flat], ext, 1e-2,
             "entropy_report.json", "entropy_battery_flattened")
    extras["flattened_solver"] = traj_flat.manifest
    return checks, extras


def _write_pulled_back(path, flat_grid: Grid, traj_flat: Trajectory, points, grid: Grid):
    """Write the flattened trajectory interpolated at `points`, the flattened
    images of `grid`'s cell centers, as a trajectory on `grid`."""
    storage.write_trajectory_rows(path, grid, traj_flat.times, flat_grid.interpolate(traj_flat.states, points))


def _exec_entropy(sc: Scenario, clock) -> tuple[list, dict]:
    checks: list = []
    model = sc.model
    traj = _solve(clock, checks, sc, sc.initial_field(), sc.config, "trajectory.csv", "max_principle")
    report = _battery(clock, checks, sc, entropy_battery, [traj], model, 1e-3,
                      "entropy_report.json", "entropy_battery")
    if report.trace is not None:
        clock.write("trace.csv", storage.write_trace_csv, report.trace)
    return checks, {"solver": traj.manifest}


def _exec_kato(sc: Scenario, clock) -> tuple[list, dict]:
    checks: list = []
    traj_a = _solve(clock, checks, sc, sc.initial_field(), sc.config,
                    "trajectory_a.csv", "max_principle_a")
    traj_b = _solve(clock, checks, sc, sc.field_from_spec(sc.study["initial_b"]), sc.config,
                    "trajectory_b.csv", "max_principle_b")
    _battery(clock, checks, sc, kato_battery, [traj_a, traj_b], sc.model, 1e-3,
             "kato_report.json", "kato_battery")
    return checks, {"solver_a": traj_a.manifest, "solver_b": traj_b.manifest}


def _exec_cone(sc: Scenario, clock) -> tuple[list, dict]:
    checks: list = []
    model = sc.model
    u0 = sc.initial_field()
    pert = sc.perturbation()
    u0_b = Field(sc.grid, np.clip(u0.values + pert, model.a, model.b), 0.0)

    cone_spec = sc.study["cone"]
    cone = Cone(tuple(float(v) for v in cone_spec["center"]), float(cone_spec["radius"]),
                speed_bound(model, model.domain))

    clash = bool((cone.cells(sc.grid, 0.0) & (np.abs(pert) > 1e-14)).any())
    _check(checks, "perturbation_outside_base", not clash,
           f"perturbation support vs cone base B(center, {cone.radius:.6g})")

    traj_a = _solve(clock, checks, sc, u0, sc.config, "trajectory_base.csv", "max_principle_base")
    traj_b = _solve(clock, checks, sc, u0_b, sc.config,
                    "trajectory_perturbed.csv", "max_principle_perturbed")

    tol = float(sc.study.get("tol", 1e-2))
    rep = clock("verify_s", cone_locality_check, traj_a, traj_b, cone, tol=tol)
    _check(checks, "cone_locality", rep.passed,
           f"kappa {rep.kappa:.3e} vs tol {tol:.3e} (speed {cone.speed:.6g})")
    return checks, {"solver_base": traj_a.manifest, "solver_perturbed": traj_b.manifest,
                    "cone": {"center": list(cone.center), "radius": cone.radius,
                             "speed": cone.speed},
                    "locality": {"kappa": rep.kappa, "per_time": list(rep.per_time)}}


def _exec_converge(sc: Scenario, clock) -> tuple[list, dict]:
    checks: list = []
    model = sc.model
    epsilons = [float(e) for e in sc.study["epsilons"]]

    def u0_fn(pts):
        return sc.values_at(sc.initial, pts)

    records, counters = clock("solve_s", germ_mod.run_sequence, {sc.name: u0_fn}, epsilons, model,
                              model.domain, sc.config.final_time, boundary=sc.config.boundary,
                              cell_budget=sc.cell_budget, cfl=sc.config.cfl)
    record, = records
    clock.write("deltas.csv", storage.write_deltas_csv, record.epsilons, record.deltas)
    clock.write("finest_endpoint.csv", storage.write_field_csv, record.endpoints[-1])

    tail = record.deltas[1:]
    monotone = all(b < a for a, b in zip(tail, tail[1:])) if len(tail) > 1 else True
    txt = ", ".join(f"{d:.3e}" for d in record.deltas)
    _check(checks, "delta_tail_decreasing", monotone, f"deltas [{txt}]")
    return checks, {"epsilons": list(record.epsilons), "deltas": list(record.deltas),
                    "grid_counts": [list(c) for c in record.grid_counts], **counters}


def _exec_germ(sc: Scenario, clock) -> tuple[list, dict]:
    checks: list = []
    model = sc.model
    level = int(sc.study["level"])
    study = germ_mod.GermStudy(model, sc.config.final_time,
                               [float(e) for e in sc.study["epsilons"]],
                               cell_budget=sc.cell_budget, cfl=sc.config.cfl,
                               threshold=sc.study.get("threshold"))
    result = clock("solve_s", study.level_result, level, os.path.join(clock.out, "records"))
    sel = result.selection
    if sel.passed:
        detail = f"indices {list(sel.indices)} under threshold {sel.threshold:.3e}"
    else:
        detail = f"blocked at step {sel.failed_step} by {sel.failed_member}"
    _check(checks, "diagonal_selection", sel.passed, detail)
    st = result.stability
    pair = "/".join(st.worst_pair) if st.worst_pair else "none"
    _check(checks, "germ_stability", st.passed,
           f"worst contraction ratio {st.worst_ratio:.4f} over {st.pairs} pairs (pair {pair})")

    target = sc.field_from_spec(sc.study.get("solve_target", sc.initial), grid=study.comparison_grid)
    est = clock("verify_s", result.estimate, target)
    clock.write("estimate.csv", storage.write_field_csv, est.limit)
    extra = {"family_size": len(result.records),
             "estimate": {"member_id": est.member_id, "error_bar": est.error_bar,
                          "approx_error": est.approx_error, "delta_tail": est.delta_tail,
                          "file": "estimate.csv"}}
    # the level pool is shut down by now, so the fork copies no thread of it
    clock.write("manifest.json", germ_mod.save_level_result, result, extra)
    # each member's observed rates, log2(delta_k / delta_k+1), null where a delta is 0
    rates = {r.member_id: [math.log2(a / b) if a and b else None for a, b in zip(r.deltas, r.deltas[1:])]
             for r in result.records}
    # report.json only: the level manifest keeps its bytes, which run times would vary
    return checks, {**extra, "rates": rates, **result.counters}


_EXECUTORS = {
    "run": _exec_run,
    "entropy-check": _exec_entropy,
    "kato-check": _exec_kato,
    "cone-check": _exec_cone,
    "converge": _exec_converge,
    "germ": _exec_germ,
}


def _resolve_scenario(value: str) -> str:
    """A path wins; otherwise bare names refer to the shipped scenarios."""
    if not os.path.exists(value) and value in builtin_scenario_names():
        return builtin_scenario_path(value)
    return value


def _run_scenario_command(args) -> int:
    start = time.perf_counter()
    sc = parse_scenario(_resolve_scenario(args.scenario))
    if sc.kind != args.command:
        print(f"error: scenario {sc.name!r} has kind {sc.kind!r}, "
              f"but the {args.command!r} subcommand was invoked", file=sys.stderr)
        return 1
    clock = _PhaseClock(storage.ensure_dir(args.out or os.path.join(DEFAULT_OUT_ROOT, sc.name)), start)
    try:
        checks, extras = _EXECUTORS[sc.kind](sc, clock)
        for entry in checks:
            if not args.quiet:
                verdict = "PASS" if entry["pass"] else "FAIL"
                print(f"[check] {entry['name']}: {verdict} {entry['detail']}")
        ok = all(entry["pass"] for entry in checks)
        manifest = {"scenario": sc.raw, "name": sc.name, "kind": sc.kind, "hypotheses": sc.hypotheses,
                    "checks": checks, "pass": ok}
        manifest.update(extras, artifacts=clock.artifacts, timings=clock.timings())
        # the join sits inside write_manifest, so report.json appears only
        # once every artifact it lists is complete
        storage.write_manifest(os.path.join(clock.out, "report.json"), manifest, after=clock.writers)
    except BaseException:
        # leave no child behind; the original error is the one to report
        with contextlib.suppress(RuntimeError):
            clock.writers.wait()
        raise
    n_pass = sum(1 for e in checks if e["pass"])
    print(f"scenario {sc.name}: {'PASS' if ok else 'FAIL'} ({n_pass}/{len(checks)} checks)")
    return 0 if ok else 2


def _cmd_diff(args) -> int:
    fa = storage.read_field_csv(args.field_a)
    fb = storage.read_field_csv(args.field_b)
    if fa.grid != fb.grid:
        print("error: fields live on different grids", file=sys.stderr)
        return 1
    gap = l1_distance(fa, fb)
    sup = float(np.abs(fa.values - fb.values).max())
    ok = gap <= args.tol and sup <= args.sup_tol
    if not args.quiet:
        print(f"[check] field_diff: {'PASS' if ok else 'FAIL'} "
              f"L1 {gap:.3e} vs {args.tol:.3e}, sup {sup:.3e} vs {args.sup_tol:.3e}")
    return 0 if ok else 2


def _tolerance(text: str) -> float:
    """A tolerance flag's value: a number >= 0, inf included (NaN fails the test)."""
    if not float(text) >= 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number >= 0")
    return float(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built at the first call and kept: parse_args keeps
    no state between calls."""
    parser = argparse.ArgumentParser(
        prog="discflux",
        description="viscous runs and verification batteries for conservation "
                    "laws with an interface flux jump",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress per-check lines")
    common.add_argument("--debug", action="store_true",
                        help="re-raise errors with their traceback instead of one error line")
    scenario = argparse.ArgumentParser(add_help=False, parents=[common])
    scenario.add_argument("--out", help="output directory (default discflux_out/<name>)")

    sub = parser.add_subparsers(dest="command")
    helps = {
        "run": "solve a scenario (with the flattened comparison when a chart is given)",
        "entropy-check": "solve and evaluate the entropy residual battery",
        "kato-check": "solve two initial data and evaluate the contraction residuals",
        "cone-check": "verify that a perturbation outside a cone base stays outside the cone",
        "converge": "run a decreasing viscosity sequence and report endpoint distances",
        "germ": "run a dyadic family study with diagonal selection and stability",
    }
    for kind in _EXECUTORS:
        p = sub.add_parser(kind, parents=[scenario], help=helps[kind])
        p.add_argument("scenario", help="path to a scenario JSON file, or a shipped scenario name")
        p.set_defaults(func=_run_scenario_command)

    pd = sub.add_parser("diff", parents=[common], help="compare two single-time field CSV files")
    pd.add_argument("field_a")
    pd.add_argument("field_b")
    pd.add_argument("--tol", type=_tolerance, default=1e-12, help="L1 tolerance (default 1e-12)")
    pd.add_argument("--sup-tol", type=_tolerance, default=float("inf"), help="sup-norm tolerance (default inf)")
    pd.set_defaults(func=_cmd_diff)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except Exception as exc:
        if args.debug:
            raise
        prefixes = {ScenarioError: "scenario error: ", storage.WriteError: "error: "}
        print(prefixes.get(type(exc), f"error: {type(exc).__name__}: ") + str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
