"""Acceptance battery: one test per headline claim, at production scale.

Each test prints a single verdict line.  The rest of the suite covers the
same machinery at unit scale; this module is the only one allowed to take
minutes.
"""

import math
import time

import numpy as np
from scipy.interpolate import RegularGridInterpolator

import discflux as dx
from conftest import block_field, component_value, dense_bounds, l1_ratios, residual
from discflux import entropy
from discflux.entropy import ResidualWorkspace, cone_locality_check, l1_distance
from discflux.geometry import Cone, flatten_model, project_to_ball, radial_extend_model, speed_bound
from discflux.presets import PRESET_NAMES
from discflux.solver import Trajectory


def _verdict(number: int, label: str, passed: bool, detail: str):
    print(f"[criterion {number}] {label}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} {label}: {detail}"


def _production_grid(model) -> dx.Grid:
    box = model.domain
    counts = (400,) if model.d == 1 else (128, 128)
    return dx.Grid(box.lows, box.highs, counts)


def _run_params(d: int) -> dict:
    if d == 1:
        return {"epsilon": 4e-3, "final_time": 0.1,
                "output_times": (0.0, 0.05, 0.1)}
    return {"epsilon": 0.02, "final_time": 0.04,
            "output_times": (0.0, 0.02, 0.04)}


def _random_blocks(rng, model, pieces: int = 5):
    """Random axis-aligned piecewise-constant data as a function of points,
    so the same sample can be placed on grids of any resolution."""
    box = model.domain
    cuts = [np.sort(rng.uniform(lo, hi, pieces - 1))
            for lo, hi in zip(box.lows, box.highs)]
    table = rng.uniform(model.a, model.b, (pieces,) * model.d)

    def fn(pts):
        idx = tuple(np.searchsorted(cuts[k], pts[..., k], side="right")
                    for k in range(model.d))
        return table[idx]

    return fn


def _quartic_bump(pts, center, radius, base, amp):
    r2 = ((pts - np.asarray(center)) ** 2).sum(axis=-1) / radius ** 2
    return base + amp * np.clip(1.0 - r2, 0.0, None) ** 2


def test_criterion_1_max_principle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    lo_margin = math.inf
    hi_margin = math.inf
    bounded = True
    for name in PRESET_NAMES:
        model = dx.preset(name)
        grid = _production_grid(model)
        params = _run_params(model.d)
        config = dx.RunConfig(flux=model, boundary=0.5 * (model.a + model.b), **params)
        for _ in range(10):
            u0 = dx.Field(grid, _random_blocks(rng, model)(grid.points()), 0.0)
            traj = dx.run(u0, config)
            lo_margin = min(lo_margin, float(traj.states.min()) - model.a)
            hi_margin = min(hi_margin, model.b - float(traj.states.max()))
            bounded = bounded and traj.states.min() >= model.a - 1e-10 \
                and traj.states.max() <= model.b + 1e-10
    elapsed = time.perf_counter() - t0
    _verdict(1, "max principle", bounded and elapsed <= 120.0,
             f"4 presets x 10 runs, worst margins {lo_margin:.2e}/{hi_margin:.2e}, "
             f"{elapsed:.1f}s")


def test_criterion_2_l1_contraction():
    rng = np.random.default_rng(202)
    worst = {}
    burgers_fns = []
    for name in PRESET_NAMES:
        model = dx.preset(name)
        grid = _production_grid(model)
        params = _run_params(model.d)
        config = dx.RunConfig(flux=model, boundary=0.5 * (model.a + model.b), **params)
        pairs = []
        for _ in range(10):
            fa, fb = _random_blocks(rng, model), _random_blocks(rng, model)
            if name == "burgers":
                burgers_fns.append((fa, fb))
            pairs.append((dx.run(dx.Field(grid, fa(grid.points()), 0.0), config),
                          dx.run(dx.Field(grid, fb(grid.points()), 0.0), config)))
        worst[name] = max(max(l1_ratios(ta, tb)) for ta, tb in pairs)

    # 4x refinement on burgers with the very same data samples
    model = dx.preset("burgers")
    box = model.domain
    fine = dx.Grid(box.lows, box.highs, (1600,))
    config = dx.RunConfig(flux=model, boundary=0.5 * (model.a + model.b),
                          **_run_params(1))
    fine_pairs = [(dx.run(dx.Field(fine, fa(fine.points()), 0.0), config),
                   dx.run(dx.Field(fine, fb(fine.points()), 0.0), config))
                  for fa, fb in burgers_fns]
    fine_worst = max(max(l1_ratios(ta, tb)) for ta, tb in fine_pairs)

    coarse_excess = max(worst["burgers"] - 1.0, 0.0)
    fine_excess = max(fine_worst - 1.0, 0.0)
    passed = all(w <= 1.05 for w in worst.values()) \
        and fine_worst < 1.01 and fine_excess <= coarse_excess + 1e-12
    _verdict(2, "L1 contraction", passed,
             f"worst ratios {max(worst.values()):.6f} coarse, {fine_worst:.6f} at 4x")


def test_criterion_3_entropy_residuals(burgers_shock_traj, burgers_rarefaction_traj,
                                       burgers_model, fine_grid):
    t0 = time.perf_counter()
    shock = dx.entropy_battery(burgers_shock_traj, burgers_model, tol_factor=1e-3)
    rare = dx.entropy_battery(burgers_rarefaction_traj, burgers_model, tol_factor=1e-3)

    # planted non-entropic field: the reversed stationary jump is a weak
    # solution but expands, and the battery must reject it
    x = fine_grid.points()[..., 0]
    times = tuple(np.linspace(0.0, 0.5, 65))
    states = np.tile(np.where(x < 0, 1.0, 0.0), (65, 1))
    planted = Trajectory(fine_grid, times, states, {})
    phi = entropy.TestFunction(time_center=0.25, time_radius=0.25,
                               space_center=(0.0,), space_radius=(0.45,))
    resid = residual(ResidualWorkspace(planted, burgers_model).terms([0.5], phi)[0])
    scale = phi.c1_norm * fine_grid.box.volume
    detected = resid < -0.01 * scale

    elapsed = time.perf_counter() - t0
    passed = shock.passed and rare.passed and detected and elapsed <= 60.0
    _verdict(3, "entropy residual battery", passed,
             f"shock min {shock.min_residual:.2e}, rarefaction min "
             f"{rare.min_residual:.2e}, planted {resid:.3f} < {-0.01 * scale:.3f}, "
             f"{elapsed:.1f}s")


def test_criterion_4_interface_admissibility(two_flux_model, fine_grid,
                                             two_flux_block_traj):
    report = dx.entropy_battery(two_flux_block_traj, flatten_model(two_flux_model),
                                tol_factor=1e-2)

    mins = []
    for eps in (4e-3, 2e-3, 1e-3):
        if eps == 1e-3:
            traj = two_flux_block_traj
        else:
            config = dx.RunConfig(flux=two_flux_model, epsilon=eps, final_time=0.09,
                                  boundary=0.0,
                                  output_times=tuple(np.linspace(0.0, 0.09, 129)))
            traj = dx.run(block_field(fine_grid, 0.1, 0.3, 1.0), config)
        mins.append(dx.entropy_battery(traj, flatten_model(two_flux_model),
                                       tol_factor=1e-2).min_residual)

    monotone = mins[0] < mins[1] < mins[2] < 0.0 or mins[2] >= 0.0
    _verdict(4, "interface admissibility", report.passed and monotone,
             f"battery min {report.min_residual:.2e}, sweep "
             + " -> ".join(f"{m:.2e}" for m in mins))


def test_criterion_5_flattening_consistency():
    model = dx.preset("tilted_2d")
    itf = model.interface
    flat = flatten_model(model)
    ext = radial_extend_model(flat, itf.flatten(np.zeros(2)), 1.2)

    grid = _production_grid(model)
    flat_grid = dx.Grid(flat.domain.lows, flat.domain.highs, grid.counts)
    u0 = dx.Field(grid, _quartic_bump(grid.points(), (0.0, 0.0), 0.25, 0.0, 0.4), 0.0)
    u0_flat = dx.Field(flat_grid,
                       _quartic_bump(itf.unflatten(flat_grid.points()),
                                     (0.0, 0.0), 0.25, 0.0, 0.4), 0.0)

    kw = dict(epsilon=0.02, final_time=0.08, boundary=0.0, output_times=(0.0, 0.08))
    original = dx.run(u0, dx.RunConfig(flux=model, **kw))
    flattened = dx.run(u0_flat, dx.RunConfig(flux=ext, **kw))

    axes = [flat_grid.centers(k) for k in range(2)]
    itp = RegularGridInterpolator(axes, flattened.final.values, method="linear",
                                  bounds_error=False, fill_value=None)
    query = itf.flatten(grid.points()).reshape(-1, 2)
    mapped = dx.Field(grid, itp(query).reshape(grid.counts), flattened.final.time)

    gap = l1_distance(original.final, mapped)
    _verdict(5, "flattening consistency", gap <= 2e-2,
             f"L1 gap {gap:.3e} vs 2e-2 at t=0.08 on 128x128")


def test_criterion_6_cone_locality(burgers_model):
    grid = dx.Grid((-0.5,), (0.5,), (400,))
    pts = grid.points()
    base = dx.Field(grid, _quartic_bump(pts, (0.0,), 0.1, 0.25, 0.5), 0.0)
    config = dx.RunConfig(flux=burgers_model, epsilon=1e-3, final_time=0.15,
                          boundary=0.25, output_times=tuple(np.linspace(0.0, 0.15, 16)))
    cone = Cone((0.0,), 0.25, speed_bound(burgers_model, dx.Box((-0.25,), (0.25,))))
    ref = dx.run(base, config)

    x = pts[..., 0]
    outside = dx.Field(grid, base.values + 0.2 * ((x >= 0.3) & (x < 0.4)), 0.0)
    out_report = cone_locality_check(ref, dx.run(outside, config), cone, tol=1e-2)

    inside = dx.Field(grid, base.values + 0.2 * ((x >= 0.0) & (x < 0.1)), 0.0)
    in_report = cone_locality_check(ref, dx.run(inside, config), cone, tol=1e-2)

    passed = out_report.passed and not in_report.passed
    _verdict(6, "cone locality", passed,
             f"outside kappa {out_report.kappa:.2e} <= 1e-2, "
             f"inside kappa {in_report.kappa:.2e} flagged")


def test_criterion_7_radial_extension():
    rng = np.random.default_rng(707)
    radius = 0.8
    rays_ok = inside_ok = lipschitz_ok = True
    for name in PRESET_NAMES:
        model = dx.preset(name)
        d = model.d
        center = np.zeros(d)
        ext = radial_extend_model(model, center, radius)

        def sample(n, lo, hi):
            dirs = rng.normal(size=(n, d))
            dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
            return dirs * rng.uniform(lo, hi, (n, 1))

        x_out = sample(200, radius * 1.1, 3.0)
        x_in = sample(200, 0.0, radius * 0.999)
        pair_a = sample(10_000, radius * 1.01, 2.5)
        pair_b = sample(10_000, radius * 1.01, 2.5)
        proj_a = project_to_ball(pair_a, center, radius)
        proj_b = project_to_ball(pair_b, center, radius)
        gap_out = np.linalg.norm(pair_a - pair_b, axis=-1)
        gap_proj = np.linalg.norm(proj_a - proj_b, axis=-1)
        resolved = gap_proj > 1e-12

        def values(comp, pts, lam):
            out = component_value(comp, pts, lam)
            return np.broadcast_to(np.asarray(out, dtype=float), pts.shape[:-1])

        for comp, raw in zip(ext.left + ext.right, model.left + model.right):
            for lam in (0.3, 0.7):
                # doubling an outside point stays on the same ray
                rays_ok = rays_ok and np.allclose(
                    values(comp, x_out, lam), values(comp, 2.0 * x_out, lam),
                    rtol=1e-12, atol=1e-15)
                inside_ok = inside_ok and np.array_equal(
                    values(comp, x_in, lam), values(raw, x_in, lam))

                q_out = np.abs(values(comp, pair_a, lam) - values(comp, pair_b, lam)) / gap_out
                q_in = (np.abs(values(raw, proj_a, lam) - values(raw, proj_b, lam))
                        / np.where(resolved, gap_proj, 1.0))
                lipschitz_ok = lipschitz_ok \
                    and q_out[resolved].max(initial=0.0) <= q_in[resolved].max(initial=0.0) + 1e-9 \
                    and q_out[~resolved].max(initial=0.0) <= 1e-6

    _verdict(7, "radial extension", rays_ok and inside_ok and lipschitz_ok,
             f"rays {rays_ok}, inside exact {inside_ok}, "
             f"Lipschitz at 10^4 pairs {lipschitz_ok}")


def test_criterion_8_germ_completeness(two_flux_model):
    t0 = time.perf_counter()
    study = dx.GermStudy(two_flux_model, final_time=0.12,
                         epsilons=(4e-3, 2e-3, 1e-3, 5e-4),
                         box=dx.Box((-0.5,), (0.5,)))
    result = study.level_result(1)

    # steady members settle to an identically zero tail; everyone else must
    # still be shrinking at the finest step
    tails_ok = all(r.deltas[-1] < r.deltas[-2] or r.deltas[-1] == 0.0
                   for r in result.records)
    ratios = result.matrix.ratios
    off_diag = ~np.eye(len(result.matrix.ids), dtype=bool)
    matrix_ok = np.array_equal(ratios, ratios.T) \
        and float(ratios[off_diag].max()) <= 1.05

    cg = study.comparison_grid
    ramp = dx.Field(cg, cg.points()[..., 0] + 0.5, 0.0)
    bar1 = result.estimate(ramp).error_bar
    bar2 = study.solve(ramp, 2).error_bar

    elapsed = time.perf_counter() - t0
    passed = tails_ok and result.selection.passed and result.stability.passed \
        and matrix_ok and bar2 <= 0.55 * bar1 and elapsed <= 600.0
    _verdict(8, "germ completeness surrogate", passed,
             f"9 members, worst ratio {result.stability.worst_ratio:.4f}, "
             f"bars {bar1:.4f} -> {bar2:.4f}, {elapsed:.0f}s")


def test_criterion_9_speed_bound_and_growth():
    # dense-grid oracle from the preset polynomials themselves
    lam = np.linspace(0.0, 1.0, 200_001)
    g_single = np.abs(np.gradient(lam * (1.0 - lam), lam, edge_order=2))
    g_double = np.abs(np.gradient(2.0 * lam * (1.0 - lam), lam, edge_order=2))
    oracle_burgers = float(g_single.max())
    oracle_two = float(np.sqrt(g_single ** 2 + g_double ** 2).max())

    unit = dx.Box((-1.0,), (1.0,))
    n_burgers = speed_bound(dx.preset("burgers"), unit)
    n_two = speed_bound(dx.preset("two_flux"), unit)
    speeds_ok = abs(n_burgers - oracle_burgers) <= 1e-6 \
        and abs(n_two - oracle_two) <= 1e-6 \
        and abs(oracle_burgers - 1.0) <= 1e-9 \
        and abs(oracle_two - math.sqrt(5.0)) <= 1e-9

    growth_ok = True
    worst_gap = -math.inf
    for name in PRESET_NAMES:
        model = dx.preset(name)
        d = model.d
        center = np.zeros(d)
        radius = 0.6
        # the cube about the cone's base ball
        base_box = dx.Box((-radius,) * d, (radius,) * d)
        speed = speed_bound(model, base_box)
        # the dense max of the mixed derivatives d^2 f_k / (dx_k dlam) over the cube and [a, b]
        growth_c = dense_bounds(model, base_box, 33 if d == 1 else 9)[1]
        final_time = 0.15 if d == 1 else 0.06
        assert radius - speed * final_time > 0.05

        box = model.domain
        grid = dx.Grid(box.lows, box.highs, (400,) if d == 1 else (96, 96))
        pts = grid.points()
        u1 = dx.Field(grid, np.full(grid.counts, 0.4), 0.0)
        u2 = dx.Field(grid, _quartic_bump(pts, center, 0.15, 0.4, 0.3), 0.0)
        config = dx.RunConfig(flux=model, epsilon=2e-3 if d == 1 else 0.02,
                              final_time=final_time, boundary=0.4,
                              output_times=tuple(np.linspace(0.0, final_time, 7)))
        cone = Cone(tuple(center), radius, speed)
        report = cone_locality_check(dx.run(u1, config), dx.run(u2, config),
                                     cone, tol=math.inf)
        base_mass = report.per_time[0]["l1"]
        for row in report.per_time:
            bound = math.exp(2.0 * d * growth_c * row["time"]) * 1.05
            ratio = row["l1"] / base_mass
            worst_gap = max(worst_gap, ratio - bound)
            growth_ok = growth_ok and ratio <= bound

    _verdict(9, "speed bound and cone growth", speeds_ok and growth_ok,
             f"N {n_burgers:.8f}/{n_two:.8f} vs 1/sqrt(5), "
             f"worst growth slack {worst_gap:.2e}")
