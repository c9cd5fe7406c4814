"""Command line front end.

Every subcommand except `diff` takes a scenario JSON file, runs the matching
study, writes artifacts under --out, and prints one line per check.  Exit
codes: 0 all checks pass, 2 at least one check fails, 1 usage or runtime
error.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import germ as germ_mod
from . import storage
from .entropy import (
    cone_locality_check,
    entropy_battery,
    interface_trace,
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


def _interface_is_flat(model) -> bool:
    itf = model.interface
    if itf is None:
        return True
    spec = itf.spec or {}
    return spec.get("kind") == "zero" or all(v == 0.0 for v in spec.get("coeffs", [0.0]))


class _PhaseClock:
    """Seconds one scenario command spends solving, verifying and writing
    artifacts, for the `timings` block of report.json.  Time outside the
    three phases (parsing, initial data, interpolation) counts only in
    total_s."""

    def __init__(self):
        self.start = time.perf_counter()
        self.seconds = {"solve_s": 0.0, "verify_s": 0.0, "io_s": 0.0}

    def __call__(self, phase: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[phase] += time.perf_counter() - start

    def timings(self) -> dict:
        return dict(self.seconds, total_s=time.perf_counter() - self.start)


def _check(checks, name: str, ok: bool, detail: str):
    checks.append({"name": name, "pass": bool(ok), "detail": detail})


def _max_principle(clock, checks, traj: Trajectory, model, label: str = "max_principle"):
    rep = clock("verify_s", max_principle_check, traj, model.a, model.b)
    _check(checks, label, rep.passed,
           f"values stay in [{rep.min_value:.6g}, {rep.max_value:.6g}] against [{model.a}, {model.b}]")
    return rep


def _battery_check(checks, report, label: str):
    lam, phi = report.worst
    lam_txt = "none" if lam is None else f"{lam:.6g}"
    _check(checks, label, report.passed,
           f"min residual {report.min_residual:.3e} (worst at lambda={lam_txt}, {phi})")


def _write_trace(clock, traj: Trajectory, model, out: str, artifacts: dict):
    if model.interface is None:
        return
    try:
        trace = clock("verify_s", interface_trace, traj, model.interface, bounds=(model.a, model.b))
    except ValueError as exc:
        raise RuntimeError(f"interface trace unavailable: {exc}") from exc
    clock("io_s", storage.write_trace_csv, os.path.join(out, "trace.csv"), trace)
    artifacts["trace"] = "trace.csv"


# ---------------------------------------------------------------------------
# subcommand bodies; each returns (checks, manifest_extras)


def _exec_run(sc: Scenario, out: str, args, clock) -> tuple[list, dict]:
    checks: list = []
    artifacts: dict = {}
    traj = clock("solve_s", run, sc.initial_field(), sc.config)
    clock("io_s", storage.write_trajectory_csv, os.path.join(out, "trajectory.csv"), traj)
    artifacts["trajectory"] = "trajectory.csv"
    _max_principle(clock, checks, traj, sc.model)
    extras = {"solver": traj.manifest, "artifacts": artifacts}

    if sc.chart is None:
        return checks, extras

    # charted pipeline: flatten the interface, extend the flux radially so it
    # is defined on the whole flattened box, re-solve, and map the flattened
    # solution back for a side-by-side comparison
    model = sc.model
    if model.interface is None:
        raise RuntimeError("a chart needs a flux with an interface")
    itf = model.interface
    flat = flatten_model(model)
    center = np.asarray(sc.chart["center"], dtype=float)
    flat_center = itf.flatten(center)
    ext = radial_extend_model(flat, flat_center, sc.chart["radius"])

    from .scenario import initial_values_at

    grid = sc.grid
    flat_grid = Grid(flat.domain.lows, flat.domain.highs, grid.counts)
    vals = initial_values_at(sc.initial, itf.unflatten(flat_grid.points()), model.a, model.b,
                             model.d, seed=sc.seed)
    u0_flat = Field(flat_grid, vals, 0.0)
    config_flat = sc.config.__class__(
        flux=ext,
        epsilon=sc.config.epsilon,
        final_time=sc.config.final_time,
        boundary=sc.config.boundary,
        cfl=sc.config.cfl,
        output_times=sc.config.output_times,
        smoothing_width=sc.config.smoothing_width,
    )
    traj_flat = clock("solve_s", run, u0_flat, config_flat)
    clock("io_s", storage.write_trajectory_csv, os.path.join(out, "flattened_trajectory.csv"), traj_flat)
    artifacts["flattened_trajectory"] = "flattened_trajectory.csv"
    _max_principle(clock, checks, traj_flat, model, "max_principle_flattened")

    # pull the flattened solution back onto the original grid
    from scipy.interpolate import RegularGridInterpolator

    axes = [flat_grid.centers(k) for k in range(flat_grid.d)]
    query = itf.flatten(grid.points()).reshape(-1, grid.d)
    mapped = np.empty((len(traj_flat.times),) + grid.counts)
    for i in range(len(traj_flat.times)):
        itp = RegularGridInterpolator(axes, traj_flat.states[i], method="linear",
                                      bounds_error=False, fill_value=None)
        mapped[i] = itp(query).reshape(grid.counts)
    mapped_traj = Trajectory(grid=grid, times=traj_flat.times, states=mapped,
                             manifest={"mapped_from": "flattened_trajectory.csv"})
    clock("io_s", storage.write_trajectory_csv, os.path.join(out, "mapped_trajectory.csv"), mapped_traj)
    artifacts["mapped_trajectory"] = "mapped_trajectory.csv"

    gap = clock("verify_s", l1_distance, traj.final, mapped_traj.final)
    tol = args.tol if args.tol is not None else 2e-2
    _check(checks, "flatten_roundtrip", gap <= tol,
           f"L1 gap {gap:.3e} vs tol {tol:.3e} at t={traj.times[-1]:.6g}")

    report = clock("verify_s", entropy_battery, traj_flat, ext, tol_factor=sc.study.get("tol_factor", 1e-2))
    clock("io_s", storage.write_manifest, os.path.join(out, "entropy_report.json"), report.to_json())
    artifacts["entropy_report"] = "entropy_report.json"
    _battery_check(checks, report, "entropy_battery_flattened")

    extras["flattened_solver"] = traj_flat.manifest
    return checks, extras


def _exec_entropy(sc: Scenario, out: str, args, clock) -> tuple[list, dict]:
    checks: list = []
    artifacts: dict = {}
    transformed = bool(sc.study.get("transformed", False))
    if transformed and not _interface_is_flat(sc.model):
        raise RuntimeError(
            "transformed residuals on a curved interface need the charted run pipeline"
        )
    traj = clock("solve_s", run, sc.initial_field(), sc.config)
    clock("io_s", storage.write_trajectory_csv, os.path.join(out, "trajectory.csv"), traj)
    artifacts["trajectory"] = "trajectory.csv"
    _max_principle(clock, checks, traj, sc.model)

    phis = None
    if "bumps" in sc.study:
        from .entropy import bump_battery

        phis = bump_battery(traj.grid.box, traj.times[-1], count=int(sc.study["bumps"]))
    report = clock("verify_s", entropy_battery, traj, sc.model, phis=phis,
                   tol_factor=sc.study.get("tol_factor", 1e-3), transformed=transformed)
    clock("io_s", storage.write_manifest, os.path.join(out, "entropy_report.json"), report.to_json())
    artifacts["entropy_report"] = "entropy_report.json"
    _battery_check(checks, report, "entropy_battery")
    _write_trace(clock, traj, sc.model, out, artifacts)
    return checks, {"solver": traj.manifest, "artifacts": artifacts}


def _exec_kato(sc: Scenario, out: str, args, clock) -> tuple[list, dict]:
    checks: list = []
    artifacts: dict = {}
    traj_a = clock("solve_s", run, sc.initial_field(), sc.config)
    traj_b = clock("solve_s", run, sc.field_from_spec(sc.study["initial_b"]), sc.config)
    clock("io_s", storage.write_trajectory_csv, os.path.join(out, "trajectory_a.csv"), traj_a)
    clock("io_s", storage.write_trajectory_csv, os.path.join(out, "trajectory_b.csv"), traj_b)
    artifacts["trajectory_a"] = "trajectory_a.csv"
    artifacts["trajectory_b"] = "trajectory_b.csv"
    _max_principle(clock, checks, traj_a, sc.model, "max_principle_a")
    _max_principle(clock, checks, traj_b, sc.model, "max_principle_b")

    phis = None
    if "bumps" in sc.study:
        from .entropy import bump_battery

        phis = bump_battery(traj_a.grid.box, traj_a.times[-1], count=int(sc.study["bumps"]))
    report = clock("verify_s", kato_battery, traj_a, traj_b, sc.model, phis=phis,
                   tol_factor=sc.study.get("tol_factor", 1e-3))
    clock("io_s", storage.write_manifest, os.path.join(out, "kato_report.json"), report.to_json())
    artifacts["kato_report"] = "kato_report.json"
    _battery_check(checks, report, "kato_battery")
    return checks, {"solver_a": traj_a.manifest, "solver_b": traj_b.manifest,
                    "artifacts": artifacts}


def _exec_cone(sc: Scenario, out: str, args, clock) -> tuple[list, dict]:
    checks: list = []
    artifacts: dict = {}
    model = sc.model
    u0 = sc.initial_field()
    from .scenario import initial_values_at

    pert = initial_values_at(sc.study["perturbation"], sc.grid.points(), model.a, model.b,
                             model.d, seed=sc.seed)
    perturbed = np.clip(u0.values + pert, model.a, model.b)
    u0_b = Field(sc.grid, perturbed, 0.0)

    cone_spec = sc.study["cone"]
    center = np.asarray(cone_spec["center"], dtype=float)
    if center.shape != (model.d,):
        raise RuntimeError(f"cone center needs {model.d} coordinates")
    # propagation speed over a ball (about the origin) that covers the domain
    corners = np.array(np.meshgrid(*[(lo, hi) for lo, hi in
                                     zip(model.domain.lows, model.domain.highs)])).T.reshape(-1, model.d)
    cover = float(np.linalg.norm(corners, axis=-1).max())
    bound = speed_bound(model, cover, max(abs(model.a), abs(model.b)))
    cone = Cone(tuple(float(v) for v in center), float(cone_spec["radius"]), bound.value)

    dist = np.linalg.norm(sc.grid.points() - center, axis=-1)
    inside = np.abs(pert) > 1e-14
    clash = bool((dist[inside] <= cone.radius).any()) if inside.any() else False
    _check(checks, "perturbation_outside_base", not clash,
           f"perturbation support vs cone base B(center, {cone.radius:.6g})")

    traj_a = clock("solve_s", run, u0, sc.config)
    traj_b = clock("solve_s", run, u0_b, sc.config)
    clock("io_s", storage.write_trajectory_csv, os.path.join(out, "trajectory_base.csv"), traj_a)
    clock("io_s", storage.write_trajectory_csv, os.path.join(out, "trajectory_perturbed.csv"), traj_b)
    artifacts["trajectory_base"] = "trajectory_base.csv"
    artifacts["trajectory_perturbed"] = "trajectory_perturbed.csv"
    _max_principle(clock, checks, traj_a, model, "max_principle_base")
    _max_principle(clock, checks, traj_b, model, "max_principle_perturbed")

    tol = args.tol if args.tol is not None else float(sc.study.get("tol", 1e-2))
    rep = clock("verify_s", cone_locality_check, traj_a, traj_b, cone, tol=tol)
    _check(checks, "cone_locality", rep.passed,
           f"kappa {rep.kappa:.3e} vs tol {tol:.3e} (speed {bound.value:.6g})")
    return checks, {"solver_base": traj_a.manifest, "solver_perturbed": traj_b.manifest,
                    "cone": {"center": list(cone.center), "radius": cone.radius,
                             "speed": cone.speed},
                    "locality": {"kappa": rep.kappa, "per_time": list(rep.per_time)},
                    "artifacts": artifacts}


def _exec_converge(sc: Scenario, out: str, args, clock) -> tuple[list, dict]:
    checks: list = []
    artifacts: dict = {}
    model = sc.model
    epsilons = [float(e) for e in sc.study["epsilons"]]
    budget = int(sc.study.get("cell_budget", args.cell_budget))

    def u0_fn(pts):
        from .scenario import initial_values_at

        return initial_values_at(sc.initial, pts, model.a, model.b, model.d, seed=sc.seed)

    boundary = sc.config.boundary
    record = clock("solve_s", germ_mod.run_sequence, u0_fn, epsilons, model, model.domain,
                   sc.config.final_time, boundary=boundary, cell_budget=budget,
                   cfl=sc.config.cfl, member_id=sc.name)
    clock("io_s", storage.write_deltas_csv, os.path.join(out, "deltas.csv"), record.epsilons, record.deltas)
    artifacts["deltas"] = "deltas.csv"
    clock("io_s", storage.write_field_csv, os.path.join(out, "finest_endpoint.csv"), record.endpoints[-1])
    artifacts["finest_endpoint"] = "finest_endpoint.csv"

    tail = record.deltas[1:]
    monotone = all(b < a for a, b in zip(tail, tail[1:])) if len(tail) > 1 else True
    txt = ", ".join(f"{d:.3e}" for d in record.deltas)
    _check(checks, "delta_tail_decreasing", monotone, f"deltas [{txt}]")
    return checks, {"epsilons": list(record.epsilons), "deltas": list(record.deltas),
                    "grid_counts": [list(c) for c in record.grid_counts],
                    "artifacts": artifacts}


def _exec_germ(sc: Scenario, out: str, args, clock) -> tuple[list, dict]:
    checks: list = []
    model = sc.model
    level = int(sc.study["level"])
    budget = int(sc.study.get("cell_budget", args.cell_budget))
    study = germ_mod.GermStudy(model, sc.config.final_time,
                               [float(e) for e in sc.study["epsilons"]],
                               cell_budget=budget, cfl=sc.config.cfl,
                               threshold=sc.study.get("threshold"))
    result = clock("solve_s", study.level_result, level)
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

    extra: dict = {"family_size": len(result.records)}
    target_spec = sc.study.get("solve_target", sc.initial)
    target = sc.field_from_spec(target_spec, grid=study.comparison_grid)
    est = clock("solve_s", study.solve, target, level)
    clock("io_s", storage.write_field_csv, os.path.join(out, "estimate.csv"), est.limit)
    extra["estimate"] = {
        "member_id": est.member_id,
        "error_bar": est.error_bar,
        "approx_error": est.approx_error,
        "delta_tail": est.delta_tail,
        "file": "estimate.csv",
    }
    clock("io_s", germ_mod.save_level_result, result, out, extra=extra)
    # report.json only: run times would make the level manifest differ per run
    return checks, {**extra, "solver": result.solver_counters()}


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
    clock = _PhaseClock()
    sc = parse_scenario(_resolve_scenario(args.scenario), seed=args.seed)
    if sc.kind != args.command:
        print(f"error: scenario {sc.name!r} has kind {sc.kind!r}, "
              f"but the {args.command!r} subcommand was invoked", file=sys.stderr)
        return 1
    out = args.out or os.path.join(DEFAULT_OUT_ROOT, sc.name)
    storage.ensure_dir(out)
    checks, extras = _EXECUTORS[sc.kind](sc, out, args, clock)
    for entry in checks:
        if not args.quiet:
            verdict = "PASS" if entry["pass"] else "FAIL"
            print(f"[check] {entry['name']}: {verdict} {entry['detail']}")
    ok = all(entry["pass"] for entry in checks)
    manifest = {"scenario": sc.raw, "name": sc.name, "kind": sc.kind,
                "checks": checks, "pass": ok}
    manifest.update(extras)
    manifest["timings"] = clock.timings()
    storage.write_manifest(os.path.join(out, "report.json"), manifest)
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
    tol = args.tol if args.tol is not None else 1e-12
    sup_tol = args.sup_tol if args.sup_tol is not None else float("inf")
    ok = gap <= tol and sup <= sup_tol
    if not args.quiet:
        print(f"[check] field_diff: {'PASS' if ok else 'FAIL'} "
              f"L1 {gap:.3e} vs {tol:.3e}, sup {sup:.3e} vs {sup_tol:.3e}")
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discflux",
        description="viscous runs and verification batteries for conservation "
                    "laws with an interface flux jump",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output directory (default discflux_out/<name>)")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized initial data")
    common.add_argument("--tol", type=float, default=None, help="override the headline check tolerance")
    common.add_argument("--cell-budget", type=int, default=germ_mod.DEFAULT_CELL_BUDGET,
                        help="refuse epsilon sweeps needing more cells than this")
    common.add_argument("--quiet", action="store_true", help="suppress per-check lines")
    common.add_argument("--debug", action="store_true",
                        help="re-raise errors with their traceback instead of one error line")

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
        p = sub.add_parser(kind, parents=[common], help=helps[kind])
        p.add_argument("scenario",
                       help="path to a scenario JSON file, or a shipped scenario name")
        p.set_defaults(func=_run_scenario_command)

    pd = sub.add_parser("diff", parents=[common], help="compare two single-time field CSV files")
    pd.add_argument("field_a")
    pd.add_argument("field_b")
    pd.add_argument("--sup-tol", type=float, default=None, help="sup-norm tolerance")
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
        if isinstance(exc, ScenarioError):
            print(f"scenario error: {exc}", file=sys.stderr)
        else:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
