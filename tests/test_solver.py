"""Viscous solver: CFL rule, single steps, full runs, maximum principle,
conservation and the viscous-level L1 contraction."""
import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import discflux as dx
from conftest import block_field, riemann_field, step_bv_flux
from discflux.solver import _Faces


def _bump_field(grid: dx.Grid, base: float, amp: float, center: float, radius: float) -> dx.Field:
    x = grid.points()[..., 0]
    s = np.abs(x - center) / radius
    vals = base + amp * np.where(s < 1.0, (1.0 - s**2) ** 2, 0.0)
    return dx.Field(grid, vals, 0.0)


# ---------------------------------------------------------------------------
# CFL rule


def test_cfl_timestep_frozen_example(burgers_model):
    # oracle first: cfl * min(dx/(2 d N), dx^2/(2 d eps)) with the numbers
    # dx = 0.01, eps = 0.01, d = 1, N = 1, cfl = 0.9
    oracle = 0.9 * min(0.01 / 2.0, 0.01**2 / 0.02)
    np.testing.assert_allclose(oracle, 0.0045, rtol=1e-14)

    grid = dx.Grid((-0.5,), (0.5,), (100,))
    config = dx.RunConfig(flux=burgers_model, epsilon=0.01, final_time=1.0, boundary=0.0, cfl=0.9)
    np.testing.assert_allclose(dx.cfl_timestep(config, grid, speed=1.0), oracle, rtol=1e-14)


def test_cfl_timestep_limits(burgers_model):
    grid = dx.Grid((-0.5,), (0.5,), (100,))
    dxm = 0.01
    # convection-dominated: huge speed
    config = dx.RunConfig(flux=burgers_model, epsilon=1.0, final_time=1.0, boundary=0.0, cfl=0.5)
    np.testing.assert_allclose(dx.cfl_timestep(config, grid, 100.0), 0.5 * dxm / 200.0, rtol=1e-14)
    # diffusion-dominated: large viscosity
    np.testing.assert_allclose(dx.cfl_timestep(config, grid, 0.0), 0.5 * dxm**2 / 2.0, rtol=1e-14)


def test_step_refuses_cfl_violation(burgers_model):
    grid = dx.Grid((-0.5,), (0.5,), (100,))
    config = dx.RunConfig(flux=burgers_model, epsilon=1e-3, final_time=1.0, boundary=0.0)
    u0 = dx.Field(grid, np.full(grid.counts, 0.5), 0.0)
    with pytest.raises(ValueError, match="CFL"):
        dx.step(u0, config, dt=1.0)
    with pytest.raises(ValueError, match="positive"):
        dx.step(u0, config, dt=0.0)


# ---------------------------------------------------------------------------
# single steps


def test_step_keeps_endpoint_state(two_flux_model):
    grid = dx.Grid((-0.5,), (0.5,), (64,))
    config = dx.RunConfig(flux=two_flux_model, epsilon=1e-2, final_time=1.0, boundary=0.0)
    u0 = dx.Field(grid, np.zeros(grid.counts), 0.0)
    dt = dx.cfl_timestep(config, grid, _Faces(config, grid, 0).bound)
    u1 = dx.step(u0, config, dt)
    np.testing.assert_array_equal(u1.values, u0.values)
    assert u1.time == dt


def test_step_keeps_constant_state_for_homogeneous_flux(burgers_model):
    grid = dx.Grid((-0.5,), (0.5,), (64,))
    config = dx.RunConfig(flux=burgers_model, epsilon=1e-2, final_time=1.0, boundary=0.3)
    u0 = dx.Field(grid, np.full(grid.counts, 0.3), 0.0)
    dt = dx.cfl_timestep(config, grid, _Faces(config, grid, 0).bound)
    u1 = dx.step(u0, config, dt)
    np.testing.assert_array_equal(u1.values, u0.values)


# ---------------------------------------------------------------------------
# full runs


@pytest.mark.parametrize("d, cells", [(1, 128), (2, 24)])
def test_mollified_step_flux_runs_through_the_kernel(d, cells):
    model = dx.mollify_flux(step_bv_flux(1.0, 2.0, d), eps=0.05)
    grid = dx.Grid(model.domain.lows, model.domain.highs, (cells,) * d)
    config = dx.RunConfig(flux=model, epsilon=0.05, final_time=0.2, boundary=0.0)
    inside = np.all(np.abs(grid.points() - 0.1) < 0.4, axis=-1)
    traj = dx.run(dx.Field(grid, np.where(inside, 0.9, 0.0), 0.0), config)
    # away from the jump the mollified coefficient is vr = 2, and on [0, 1]
    # |P_1'| = |1 - 2 lam| and |P_2'| = |2 lam - 3 lam^2| both peak at 1
    assert abs(traj.manifest["speed_bound"] - 2.0) <= 1e-12
    assert 0.0 < traj.manifest["cfl_margin"] <= 1.0
    assert dx.max_principle_check(traj, model.a, model.b).passed
    assert not np.array_equal(traj.states[-1], traj.states[0])


def test_run_constant_endpoint_trajectory(two_flux_model):
    grid = dx.Grid((-0.5,), (0.5,), (64,))
    config = dx.RunConfig(flux=two_flux_model, epsilon=1e-2, final_time=0.05, boundary=0.0)
    traj = dx.run(dx.Field(grid, np.zeros(grid.counts), 0.0), config)
    assert np.all(traj.states == 0.0)


def test_run_hits_output_times_exactly(burgers_model):
    grid = dx.Grid((-0.5,), (0.5,), (64,))
    times = (0.0, 0.0123, 0.05, 0.1)
    config = dx.RunConfig(
        flux=burgers_model, epsilon=1e-2, final_time=0.1, boundary=0.0, output_times=times
    )
    traj = dx.run(_bump_field(grid, 0.0, 0.5, 0.0, 0.2), config)
    assert traj.times == times
    assert traj.states.shape == (4, 64)


def test_run_default_output_times_manifest_serializes(burgers_model):
    grid = dx.Grid((-0.5,), (0.5,), (64,))
    config = dx.RunConfig(flux=burgers_model, epsilon=0.05, final_time=0.01, boundary=0.0)
    traj = dx.run(dx.Field(grid, np.full(grid.counts, 0.3), 0.0), config)
    assert traj.times == tuple(np.linspace(0.0, 0.01, 9).tolist())
    assert all(type(t) is float for t in traj.times)
    assert json.loads(json.dumps(traj.manifest))["clipped_steps"] == traj.manifest["clipped_steps"] > 0


def test_run_manifest_records_parameters(burgers_shock_traj):
    man = burgers_shock_traj.manifest
    for key in ("epsilon", "cfl", "speed_bound", "dt_base", "n_steps", "wall_time_s",
                "dt_min", "dt_max", "alpha_max", "cfl_margin"):
        assert key in man
    assert man["epsilon"] == 1e-3
    assert man["n_steps"] >= 1
    assert 0.0 < man["dt_min"] <= man["dt_max"] <= man["dt_base"]
    assert man["cfl_margin"] == man["alpha_max"] / man["speed_bound"]
    assert 0.0 < man["cfl_margin"] <= 1.0
    assert man["grid"]["counts"] == [400]


def test_stationary_shock_stays_centered(burgers_shock_traj):
    # Rankine-Hugoniot speed (f(0) - f(1))/(0 - 1) = 0, so the jump must not move
    final = burgers_shock_traj.final
    x = final.grid.centers(0)
    crossings = x[np.nonzero(np.diff(final.values >= 0.5))[0]]
    assert crossings.size >= 1
    dx_cell = final.grid.dx[0]
    assert np.all(np.abs(crossings) <= 2 * dx_cell)


def _rarefaction_error(n_cells: int, eps: float, model) -> float:
    grid = dx.Grid((-0.5,), (0.5,), (n_cells,))
    config = dx.RunConfig(flux=model, epsilon=eps, final_time=0.5, boundary=((1.0, 0.0),))
    traj = dx.run(riemann_field(grid, 1.0, 0.0), config)
    x = grid.centers(0)
    exact = np.clip((1.0 - x / 0.5) / 2.0, 0.0, 1.0)
    return float(np.sum(np.abs(traj.final.values - exact)) * grid.dx[0])


def test_rarefaction_converges_to_exact_fan(burgers_model):
    errors = [
        _rarefaction_error(100, 4e-3, burgers_model),
        _rarefaction_error(200, 2e-3, burgers_model),
        _rarefaction_error(400, 1e-3, burgers_model),
    ]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-2


def test_two_flux_self_convergence(two_flux_model):
    def solve(n_cells, eps):
        grid = dx.Grid((-0.5,), (0.5,), (n_cells,))
        config = dx.RunConfig(flux=two_flux_model, epsilon=eps, final_time=0.1, boundary=0.5)
        u0 = dx.Field(grid, np.full(grid.counts, 0.5), 0.0)
        return dx.run(u0, config).final

    fine = solve(400, 1e-3)
    coarse = solve(100, 4e-3)
    gap = float(np.sum(np.abs(fine.values - np.repeat(coarse.values, 4))) * fine.grid.dx[0])
    assert gap <= 2e-2


def test_epsilon_self_convergence(burgers_model):
    grid = dx.Grid((-0.5,), (0.5,), (200,))

    def final(eps):
        config = dx.RunConfig(flux=burgers_model, epsilon=eps, final_time=0.15, boundary=0.0)
        return dx.run(_bump_field(grid, 0.0, 0.6, 0.0, 0.2), config).final.values

    eps_seq = [1.6e-2, 8e-3, 4e-3, 2e-3]
    states = [final(e) for e in eps_seq]
    deltas = [
        float(np.sum(np.abs(b - a)) * grid.dx[0]) for a, b in zip(states[:-1], states[1:])
    ]
    assert deltas[1] >= deltas[2]


# ---------------------------------------------------------------------------
# frozen-cell window: run() steps only the cells whose stencil changed


def _stepped_run(u0: dx.Field, config: dx.RunConfig, times):
    """run()'s dt schedule as a loop of public full-grid step() calls: the
    states at `times` and the manifest's step statistics."""
    grid = u0.grid
    faces = [_Faces(config, grid, k) for k in range(grid.d)]
    dt_base = dx.cfl_timestep(config, grid, max(f.bound for f in faces))
    field, states, dts, alpha_max = u0, [u0.values], [], 0.0
    for target in times[1:]:
        while field.time < target - 1e-13:
            dt = min(dt_base, target - field.time)
            alpha_max = max([alpha_max] + [float(f.rusanov(field.values, {})[1].max()) for f in faces])
            field = dx.step(field, config, dt)
            dts.append(dt)
        states.append(field.values)
    stats = {"n_steps": len(dts), "dt_min": min(dts), "dt_max": max(dts), "alpha_max": alpha_max}
    return np.stack(states), stats


def _assert_window_exact(u0: dx.Field, config: dx.RunConfig) -> dict:
    traj = dx.run(u0, config)
    states, stats = _stepped_run(u0, config, traj.times)
    # int64 views: equal bits, signed zeros included
    assert_array_equal(traj.states.view(np.int64), states.view(np.int64))
    assert {k: traj.manifest[k] for k in stats} == stats
    man = traj.manifest
    assert 0 < man["cell_updates"] <= man["n_steps"] * math.prod(n - 2 for n in u0.grid.counts)
    return man


def _random_steps(grid: dx.Grid, base: float, rng) -> dx.Field:
    x = grid.centers(0)
    breaks = np.sort(rng.uniform(-0.3, 0.3, 5))
    vals = np.full(x.shape, base)
    for lo, hi, v in zip(breaks[:-1], breaks[1:], rng.uniform(0.0, 1.0, 4)):
        vals[(x >= lo) & (x < hi)] = v
    return dx.Field(grid, vals, 0.0)


@pytest.mark.parametrize("base", [0.0, 0.25])
@pytest.mark.parametrize("name", ["burgers", "two_flux"])
def test_windowed_run_equals_full_steps_1d(name, base):
    grid = dx.Grid((-0.5,), (0.5,), (96,))
    config = dx.RunConfig(flux=dx.preset(name), epsilon=4e-3, final_time=0.04, boundary=base,
                          output_times=(0.013, 0.04))
    man = _assert_window_exact(_random_steps(grid, base, np.random.default_rng(int(base * 4) + 7)), config)
    # the tails stay still for a while: the window is smaller than the grid
    assert man["cell_updates"] < man["n_steps"] * 94


def test_windowed_run_equals_full_steps_2d():
    model = dx.preset("tilted_2d")
    grid = dx.Grid(model.domain.lows, model.domain.highs, (20, 16))
    values = np.zeros(grid.counts)
    values[6:11, 5:9] = np.random.default_rng(11).uniform(0.0, 1.0, (5, 4))
    config = dx.RunConfig(flux=model, epsilon=2e-2, final_time=0.03, boundary=0.0, output_times=(0.011,))
    _assert_window_exact(dx.Field(grid, values, 0.0), config)


def test_frozen_run_steps_the_grid_once(burgers_model):
    # constant data equal to the boundary state: after the first full step
    # no bit changes, and only t, n_steps and the dt statistics advance
    grid = dx.Grid((-0.5,), (0.5,), (64,))
    config = dx.RunConfig(flux=burgers_model, epsilon=1e-2, final_time=0.2, boundary=0.3, output_times=(0.2,))
    man = _assert_window_exact(dx.Field(grid, np.full(grid.counts, 0.3), 0.0), config)
    assert man["n_steps"] > 1
    assert man["cell_updates"] == 62
    assert man["clipped_steps"] <= 1


def test_windowed_shock_with_clipped_outputs(burgers_model, fine_grid):
    # nine output times: the step after each output-clipped substep is a
    # longer one, and it must step the whole grid again
    config = dx.RunConfig(flux=burgers_model, epsilon=1e-3, final_time=0.5, boundary=((0.0, 1.0),))
    man = _assert_window_exact(riemann_field(fine_grid, 0.0, 1.0), config)
    assert man["clipped_steps"] >= 1


# ---------------------------------------------------------------------------
# lockstep: fields on one grid stepped as one block equal separate runs


def _assert_lockstep_exact(u0s, configs) -> list:
    together = dx.run_lockstep(u0s, configs)
    assert len(together) == len(u0s)
    for u0, config, traj in zip(u0s, configs, together):
        alone = dx.run(u0, config)
        assert traj.times == alone.times
        # int64 views: equal bits at every output time, signed zeros included
        assert_array_equal(traj.states.view(np.int64), alone.states.view(np.int64))
        assert ({k: v for k, v in traj.manifest.items() if k != "wall_time_s"}
                == {k: v for k, v in alone.manifest.items() if k != "wall_time_s"})
    return together


def _germ_members(grid: dx.Grid, model, epsilon: float, final_time: float, output_times):
    """The level-1 step data on [-0.5, 0.5], each pinned to its own edge
    values, as in a germ study."""
    box = dx.Box((-0.5,), (0.5,))
    members = dx.build_dense_family(1, model.a, model.b, box).members
    u0s, configs = [], []
    for m in members:
        lo, hi = m.values
        u0s.append(dx.Field(grid, m(grid.points()), 0.0))
        configs.append(dx.RunConfig(flux=model, epsilon=epsilon, final_time=final_time,
                                    boundary=((lo, hi),), output_times=output_times))
    return u0s, configs


@pytest.mark.parametrize("output_times", [(0.04,), (0.013, 0.0205, 0.04)])
def test_lockstep_germ_members_equal_separate_runs(output_times):
    grid = dx.Grid((-0.5,), (0.5,), (128,))
    u0s, configs = _germ_members(grid, dx.preset("two_flux"), 1 / 32, 0.04, output_times)
    assert len({c.boundary for c in configs}) == 9
    trajs = _assert_lockstep_exact(u0s, configs)
    # the two constants equal to their pins freeze after the first step,
    # and only an output-clipped step's longer successor steps them again
    full = trajs[0].manifest["cell_updates"]
    assert full == trajs[-1].manifest["cell_updates"] == 126 * (1 + len(output_times) - 1)
    if len(output_times) > 1:
        assert trajs[0].manifest["clipped_steps"] >= len(output_times) - 1


def test_lockstep_windows_that_empty_at_different_steps(burgers_model, monkeypatch):
    from discflux import solver

    grid = dx.Grid((-0.5,), (0.5,), (64,))
    config = dx.RunConfig(flux=burgers_model, epsilon=1e-2, final_time=0.3, boundary=0.3,
                          output_times=(0.3,))
    # a constant equal to the pin, bumps that relax to it after some steps,
    # one that never does, and boundary cells that only the pin moves
    u0s = []
    for amp in (0.0, 1e-16, 1e-15, 1e-14, 0.2):
        values = np.full(grid.counts, 0.3)
        values[30:33] += amp
        u0s.append(dx.Field(grid, values, 0.0))
    off_pin = np.full(grid.counts, 0.3)
    off_pin[[0, -1]] = 0.9
    u0s.append(dx.Field(grid, off_pin, 0.0))
    calls = []
    advance = solver._Stepper.advance

    def recording(self, values, live, windows, dt, t):
        calls.append(tuple(live))
        return advance(self, values, live, windows, dt, t)

    monkeypatch.setattr(solver._Stepper, "advance", recording)
    trajs = _assert_lockstep_exact(u0s, [config] * len(u0s))
    monkeypatch.undo()
    lockstep = calls[:trajs[0].manifest["n_steps"]]
    last_live = [max(i for i, live in enumerate(lockstep) if j in live) for j in range(len(u0s))]
    # each window empties at its own step; the last field stays live
    assert last_live[0] == 0 and last_live[:4] == sorted(set(last_live[:4]))
    assert last_live[3] < last_live[4] == len(lockstep) - 1
    assert trajs[0].manifest["cell_updates"] == 62
    assert (trajs[5].states[-1, [0, -1]] == 0.3).all() and trajs[5].manifest["cell_updates"] > 62


def test_lockstep_2d_fields_equal_separate_runs():
    model = dx.preset("tilted_2d")
    grid = dx.Grid(model.domain.lows, model.domain.highs, (24, 24))
    rng = np.random.default_rng(5)
    u0s = []
    for rows, cols in ((slice(4, 9), slice(14, 19)), (slice(12, 18), slice(5, 9))):
        values = np.zeros(grid.counts)
        values[rows, cols] = rng.uniform(0.0, 1.0, (rows.stop - rows.start, cols.stop - cols.start))
        u0s.append(dx.Field(grid, values, 0.0))
    config = dx.RunConfig(flux=model, epsilon=2e-2, final_time=0.03, boundary=0.0,
                          output_times=(0.011,))
    trajs = _assert_lockstep_exact(u0s, [config, config])
    assert all(t.manifest["cell_updates"] < t.manifest["n_steps"] * 22 * 22 for t in trajs)


def test_lockstep_failures_name_the_field(burgers_model):
    grid = dx.Grid((-0.5,), (0.5,), (64,))
    config = dx.RunConfig(flux=burgers_model, epsilon=1e-3, final_time=0.05, boundary=0.0)
    calm = dx.Field(grid, np.zeros(grid.counts), 0.0)
    # a state far outside [a, b] has |F'| = 9 against the bound 1
    fast = np.zeros(grid.counts)
    fast[30] = 5.0
    with pytest.raises(ValueError, match="field 1: time step .* violates the CFL bound"):
        dx.run_lockstep([calm, dx.Field(grid, fast, 0.0), calm], [config] * 3)
    broken = np.zeros(grid.counts)
    broken[20] = np.nan
    with pytest.raises(RuntimeError, match="field 2: non-finite solver state at t = "):
        dx.run_lockstep([calm, calm, dx.Field(grid, broken, 0.0)], [config] * 3)
    # a lone run keeps its plain messages
    with pytest.raises(RuntimeError, match="^non-finite solver state"):
        dx.run(dx.Field(grid, broken, 0.0), config)


def test_lockstep_needs_one_grid_and_one_config_up_to_the_boundary(burgers_model):
    grid = dx.Grid((-0.5,), (0.5,), (64,))
    u0 = dx.Field(grid, np.zeros(grid.counts), 0.0)
    config = dx.RunConfig(flux=burgers_model, epsilon=1e-2, final_time=0.05, boundary=0.0)
    other = dx.Grid((-0.5,), (0.5,), (32,))
    for u0s, configs in (
            ([u0, dx.Field(other, np.zeros(32), 0.0)], [config, config]),
            ([u0, u0], [config, dataclasses.replace(config, epsilon=2e-2)]),
            ([u0, u0], [config])):
        with pytest.raises(ValueError, match="one grid"):
            dx.run_lockstep(u0s, configs)


def test_run_refuses_an_estimated_cost_above_the_limit(burgers_model):
    # eps = 10 on 400 cells: dt_base = 0.45 dx^2 / 20 = 1.4e-7, about 7.1
    # million steps of 398 interior cells
    grid = dx.Grid((-0.5,), (0.5,), (400,))
    config = dx.RunConfig(flux=burgers_model, epsilon=10.0, final_time=1.0, boundary=0.0)
    with pytest.raises(ValueError, match=r"epsilon 10 on dx 0\.0025 gives dt_base 1\.406e-07: "
                                         r"about 2\.83.e\+09 cell-steps, above the limit of 1e\+09"):
        dx.run(dx.Field(grid, np.zeros(400), 0.0), config)


# ---------------------------------------------------------------------------
# maximum principle and conservation


def test_max_principle_on_fixture_runs(burgers_shock_traj, burgers_rarefaction_traj, two_flux_block_traj):
    for traj in (burgers_shock_traj, burgers_rarefaction_traj, two_flux_block_traj):
        report = dx.max_principle_check(traj, 0.0, 1.0)
        assert report.passed
    # the shock data attains both endpoint states exactly
    assert burgers_shock_traj.states.min() == 0.0
    assert burgers_shock_traj.states.max() == 1.0


def test_max_principle_on_random_data_all_presets():
    rng = np.random.default_rng(41)
    for name in dx.PRESET_NAMES:
        model = dx.preset(name)
        counts = (24,) * model.d
        grid = dx.Grid(model.domain.lows, model.domain.highs, counts)
        u0 = dx.Field(grid, rng.uniform(model.a, model.b, counts), 0.0)
        config = dx.RunConfig(flux=model, epsilon=2e-2, final_time=0.02, boundary=model.a)
        traj = dx.run(u0, config)
        report = dx.max_principle_check(traj, model.a, model.b)
        assert report.passed, name
        assert traj.manifest["cfl_margin"] <= 1.0, name


def test_max_principle_witness_mechanics():
    grid = dx.Grid((-0.5,), (0.5,), (4,))
    states = np.zeros((2, 4))
    states[1, 2] = 1.2
    traj = dx.Trajectory(grid=grid, times=(0.0, 0.1), states=states, manifest={})
    report = dx.max_principle_check(traj, 0.0, 1.0)
    assert not report.passed
    assert report.max_value == 1.2
    assert report.witness == {"time": 0.1, "cell": (2,)}


def test_discrete_conservation_with_quiet_boundary(burgers_model):
    # waves from the bump reach at most |x| = 0.25 by T = 0.1, so the state
    # stays at a near the boundary and no mass can leave
    grid = dx.Grid((-0.5,), (0.5,), (200,))
    config = dx.RunConfig(flux=burgers_model, epsilon=1e-3, final_time=0.1, boundary=0.0)
    traj = dx.run(_bump_field(grid, 0.0, 0.6, 0.0, 0.15), config)
    mass = traj.states.sum(axis=1) * grid.cell_volume
    assert np.max(np.abs(mass - mass[0])) <= 1e-8


def test_manifest_mass_balance_with_quiet_boundary(burgers_model):
    # the manifest's mass at the first and last recorded time: a compact
    # bump far from the pinned boundary loses nothing through it
    grid = dx.Grid((-0.5,), (0.5,), (200,))
    config = dx.RunConfig(flux=burgers_model, epsilon=1e-3, final_time=0.1, boundary=0.0)
    traj = dx.run(_bump_field(grid, 0.0, 0.6, 0.0, 0.15), config)
    manifest = traj.manifest
    assert manifest["mass_start"] == grid.cell_volume * float(traj.states[0].sum())
    assert manifest["mass_start"] > 0.0
    assert manifest["mass_end"] == pytest.approx(manifest["mass_start"], rel=1e-12)


def test_viscous_l1_contraction_under_refinement(burgers_model):
    # monotone scheme: the discrete L1 distance of two runs must not grow
    excesses = []
    for n_cells, eps in ((100, 4e-3), (200, 2e-3), (400, 1e-3)):
        grid = dx.Grid((-0.5,), (0.5,), (n_cells,))
        config = dx.RunConfig(flux=burgers_model, epsilon=eps, final_time=0.2, boundary=0.0)
        u1 = _bump_field(grid, 0.0, 0.6, -0.05, 0.2)
        u2 = _bump_field(grid, 0.0, 0.4, 0.1, 0.15)
        before = dx.l1_distance(u1, u2)
        after = dx.l1_distance(dx.run(u1, config).final, dx.run(u2, config).final)
        excesses.append(after - before)
    assert all(e <= 1e-10 for e in excesses)


# ---------------------------------------------------------------------------
# interpolation onto other grids, against scipy's RegularGridInterpolator


def _rgi(grid, values, points):
    from scipy.interpolate import RegularGridInterpolator

    axes = [grid.centers(k) for k in range(grid.d)]
    itp = RegularGridInterpolator(axes, values, method="linear", bounds_error=False, fill_value=None)
    return itp(points.reshape(-1, grid.d)).reshape(points.shape[:-1])


def _signed_values(rng, shape):
    # random values with signed zeros among them, so the sum order shows
    values = rng.normal(size=shape)
    flat = values.reshape(-1)
    flat[::7], flat[3::7], flat[4::7] = 0.0, -0.0, -0.0
    return values


def _assert_same_bits(a, b):
    assert a.shape == b.shape
    assert_array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("cells", [512, 1024, 2048, 4096])
def test_interpolate_matches_scipy_1d(cells):
    rng = np.random.default_rng(cells)
    src, dst = dx.Grid((-1.0,), (1.0,), (cells,)), dx.Grid((-1.0,), (1.0,), (8192,))
    values = _signed_values(rng, src.counts)
    # the finest grid (extrapolating at both ends), the nodes themselves and
    # points beyond the box on either side
    beyond = np.array([-1.7, -1.0, -1.0 + 0.25 * src.dx[0], 1.0 - 0.25 * src.dx[0], 1.0, 1.3])
    for points in (dst.points(), src.points(), beyond[:, None]):
        _assert_same_bits(src.interpolate(values, points), _rgi(src, values, points))


def test_interpolate_matches_scipy_2d():
    rng = np.random.default_rng(20)
    grid = dx.Grid((-1.0, -0.5), (1.0, 0.5), (40, 24))
    values = _signed_values(rng, grid.counts)
    points = rng.uniform((-1.3, -0.8), (1.3, 0.8), size=(20_000, 2))
    points[:50] = grid.points().reshape(-1, 2)[:50]
    _assert_same_bits(grid.interpolate(values, points), _rgi(grid, values, points))


def test_interpolate_matches_scipy_on_the_chart_pullback():
    # the query of the charted tilted_flatten_2d run: the original grid's
    # centers, flattened, on the flattened grid, for a stack of states
    sc = dx.parse_scenario(dx.builtin_scenario_path("tilted_flatten_2d"))
    flat = dx.flatten_model(sc.model)
    flat_grid = dx.Grid(flat.domain.lows, flat.domain.highs, sc.grid.counts)
    query = sc.model.interface.flatten(sc.grid.points())
    states = _signed_values(np.random.default_rng(2), (3,) + flat_grid.counts)
    expected = np.stack([_rgi(flat_grid, values, query) for values in states])
    _assert_same_bits(flat_grid.interpolate(states, query), expected)


def test_output_times_in_the_slack_past_final_time_add_no_step(burgers_model):
    # RunConfig accepts output times up to final_time * (1 + 1e-12); the run
    # records them at final_time and never steps past it
    grid = dx.Grid((-0.5,), (0.5,), (16,))
    config = dx.RunConfig(flux=burgers_model, epsilon=0.05, final_time=1.0, boundary=0.0,
                          output_times=(0.5, 1.0000000000005))
    traj = dx.run(dx.Field(grid, np.zeros(16), 0.0), config)
    assert traj.times == (0.0, 0.5, 1.0)
    assert traj.manifest["output_times"] == [0.0, 0.5, 1.0]
    assert traj.manifest["dt_min"] > 1e-6
