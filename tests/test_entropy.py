"""Entropy machinery: test functions, interface traces, admissibility and
Kato residuals, L1 contraction and cone locality."""
import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import discflux as dx
from conftest import block_field, component_value, l1_ratios, residual, sharp_flux, smooth_divergence, smoothed_flux
from discflux import entropy
from discflux.entropy import (
    ResidualWorkspace,
    bump_battery,
    cone_locality_check,
    interface_trace,
    kato_battery,
    l1_distance,
    lambda_battery,
)
from discflux.flux import smoothstep
from discflux.geometry import Cone, Interface, flatten_model
from discflux.solver import Trajectory


def _phi(t_center, t_radius, center, radius, label="phi"):
    return entropy.TestFunction(
        time_center=t_center,
        time_radius=t_radius,
        space_center=(center,) if np.isscalar(center) else tuple(center),
        space_radius=(radius,) if np.isscalar(radius) else tuple(radius),
        label=label,
    )


def _residual(traj, model, lam, phi):
    """E(lam, phi) of one pair."""
    return residual(ResidualWorkspace(traj, model).terms([lam], phi)[0])


def _whole_grid(grid, times):
    """The support box of a test phi that is not a bump: every recorded time and cell."""
    return (slice(None),) * (1 + grid.d)


def _constant_trajectory(grid, value, times, eps=1e-3):
    states = np.tile(np.full(grid.counts, float(value)), (len(times),) + (1,) * grid.d)
    return Trajectory(grid=grid, times=tuple(times), states=states,
                      manifest={"epsilon": eps})


# ---------------------------------------------------------------------------
# test functions


def test_bump_is_nonnegative_and_compact():
    phi = _phi(0.25, 0.2, 0.0, 0.3)
    t = np.linspace(-0.5, 1.0, 41)
    x = np.linspace(-1.0, 1.0, 41)[:, None]
    vals = phi.tables(t[:, None], x[None, :, :][0])[0]
    assert np.all(vals >= 0.0)
    assert phi.tables(0.25, np.array([0.31]))[0] == 0.0
    assert phi.tables(0.5, np.array([0.0]))[0] == 0.0


def test_bump_derivatives_crosscheck():
    phi = _phi(0.3, 0.25, (0.1, -0.2), (0.4, 0.3))
    rng = np.random.default_rng(19)
    t = rng.uniform(0.1, 0.5, 200)
    x = rng.uniform(-0.5, 0.5, (200, 2))
    h = 1e-6

    def value(t, x):
        return phi.tables(t, x)[0]

    _, dt, grad = phi.tables(t, x)
    fd_t = (value(t + h, x) - value(t - h, x)) / (2 * h)
    assert np.all(np.abs(dt - fd_t) <= 1e-6 * (1 + np.abs(fd_t)))
    assert len(grad) == 2
    for k in range(2):
        dxk = np.zeros(2)
        dxk[k] = h
        fd_k = (value(t, x + dxk) - value(t, x - dxk)) / (2 * h)
        assert np.all(np.abs(grad[k] - fd_k) <= 1e-6 * (1 + np.abs(fd_k)))


def test_bump_validate_rejects_protruding_support():
    box = dx.Box((-0.5,), (0.5,))
    with pytest.raises(ValueError, match="support"):
        _phi(0.25, 0.3, 0.0, 0.3).validate(box, final_time=0.5)
    with pytest.raises(ValueError, match="axis 0"):
        _phi(0.25, 0.2, 0.4, 0.2).validate(box, final_time=0.5)
    _phi(0.25, 0.2, 0.0, 0.3).validate(box, final_time=0.5)


def test_lambda_battery_layout():
    lams = lambda_battery(0.2, 0.7)
    assert lams.shape == (11,)
    assert lams[0] == 0.2 and lams[-1] == 0.7
    np.testing.assert_allclose(np.diff(lams), 0.05, atol=1e-15)


def test_bump_battery_layout(burgers_model):
    box = burgers_model.domain
    phis = bump_battery(box, final_time=0.5)
    assert len(phis) == 20
    assert phis[0].label == "phi00"
    assert phis[0].time_center == 0.25 and phis[0].time_radius == 0.25
    assert len({p.label for p in phis}) == 20
    for p in phis:
        p.validate(box, 0.5)


# ---------------------------------------------------------------------------
# interface traces


def test_trace_continuous_field(two_flux_model, fine_grid):
    x = fine_grid.points()[..., 0]
    states = np.tile(0.4 + 0.3 * np.sin(2.0 * x), (2, 1))
    traj = Trajectory(fine_grid, (0.0, 0.1), states, {"epsilon": 1e-3})
    trace = interface_trace(traj, two_flux_model)
    np.testing.assert_allclose(trace.averaged, 0.4, atol=1e-4)


def test_trace_two_state_average(two_flux_model, fine_grid):
    x = fine_grid.points()[..., 0]
    states = np.tile(np.where(x < 0, 0.2, 0.8), (2, 1))
    traj = Trajectory(fine_grid, (0.0, 0.1), states, {"epsilon": 1e-3})
    trace = interface_trace(traj, two_flux_model)
    np.testing.assert_allclose(trace.left, 0.2, atol=1e-13)
    np.testing.assert_allclose(trace.right, 0.8, atol=1e-13)
    np.testing.assert_allclose(trace.averaged, 0.5, atol=1e-13)


def test_trace_viscous_layer_between_sides(two_flux_model, fine_grid):
    eps = 0.01
    x = fine_grid.points()[..., 0]
    profile = 0.1 + 0.8 * smoothstep(x / eps)
    states = np.tile(profile, (2, 1))
    traj = Trajectory(fine_grid, (0.0, 0.1), states, {"epsilon": eps})
    trace = interface_trace(traj, two_flux_model)
    assert np.all(trace.left >= 0.1 - 1e-12) and np.all(trace.right <= 0.9 + 1e-12)
    assert np.all(trace.averaged >= 0.1) and np.all(trace.averaged <= 0.9)

    # oracle: linear extrapolation of the analytic layer from the stencil cells
    def extrap(o1, o2):
        v1 = 0.1 + 0.8 * smoothstep(o1 / eps)
        v2 = 0.1 + 0.8 * smoothstep(o2 / eps)
        return v1 - o1 * (v2 - v1) / (o2 - o1)

    h = fine_grid.dx[0]
    np.testing.assert_allclose(trace.left[0], extrap(-1.5 * h, -2.5 * h), atol=1e-12)
    np.testing.assert_allclose(trace.right[0], extrap(1.5 * h, 2.5 * h), atol=1e-12)


def test_trace_clamps_to_bounds(two_flux_model, fine_grid):
    x = fine_grid.points()[..., 0]
    states = np.tile(np.where(x < 0, 0.2, 0.8), (2, 1))
    traj = Trajectory(fine_grid, (0.0, 0.1), states, {"epsilon": 1e-3})
    trace = interface_trace(traj, dataclasses.replace(two_flux_model, a=0.4, b=0.6))
    np.testing.assert_allclose(trace.left, 0.4, atol=1e-13)
    np.testing.assert_allclose(trace.right, 0.6, atol=1e-13)


def test_trace_unresolved_interface_raises(two_flux_model, fine_grid):
    states = np.zeros((2,) + fine_grid.counts)
    with pytest.raises(ValueError, match="not resolved"):
        interface_trace(Trajectory(fine_grid, (0.0, 0.1), states, {"epsilon": 1e-4}), two_flux_model)
    with pytest.raises(ValueError, match="epsilon"):
        interface_trace(Trajectory(fine_grid, (0.0, 0.1), states, {}), two_flux_model)


def test_trace_interface_near_boundary_raises(two_flux_model, fine_grid):
    model = dataclasses.replace(two_flux_model, interface=Interface(0, 1, (0.499,)))
    states = np.zeros((2,) + fine_grid.counts)
    traj = Trajectory(fine_grid, (0.0, 0.1), states, {"epsilon": 1e-2})
    with pytest.raises(ValueError, match="boundary"):
        interface_trace(traj, model)


# ---------------------------------------------------------------------------
# admissibility residuals


def test_endpoint_lambdas_reduce_to_weak_form(burgers_shock_traj, burgers_model):
    phi = _phi(0.25, 0.2, 0.0, 0.4)
    ws = ResidualWorkspace(burgers_shock_traj, burgers_model)
    tol = 1e-3 * phi.c1_norm * burgers_model.domain.volume
    assert all(abs(residual(row)) <= tol for row in ws.terms([0.0, 1.0], phi))


def test_kruzhkov_rejects_lambda_outside_interval(burgers_shock_traj, burgers_model):
    phi = _phi(0.25, 0.2, 0.0, 0.4)
    with pytest.raises(ValueError, match="lambda"):
        _residual(burgers_shock_traj, burgers_model, 1.5, phi)


def test_stationary_shock_battery_admissible(burgers_shock_traj, burgers_model):
    report = dx.entropy_battery(burgers_shock_traj, burgers_model)
    assert report.passed
    assert len(report.entries) == 11 * 20
    assert report.min_residual >= -1e-3 * max(e.tol for e in report.entries) / 1e-3


def test_rarefaction_battery_admissible(burgers_rarefaction_traj, burgers_model):
    report = dx.entropy_battery(burgers_rarefaction_traj, burgers_model)
    assert report.passed


def _expansion_shock(grid):
    """Stationary expansion: RH speed is zero but the jump is non-entropic."""
    x = grid.points()[..., 0]
    times = tuple(np.linspace(0.0, 0.5, 65))
    return Trajectory(grid, times, np.tile(np.where(x < 0, 1.0, 0.0), (65, 1)), {})


def test_expansion_shock_detected(burgers_model, fine_grid):
    traj = _expansion_shock(fine_grid)
    phi = _phi(0.25, 0.25, 0.0, 0.45)

    # oracle first: E(lam, phi) = -2 f(lam) * integral of phi(t, 0) dt, and the
    # time integral of the quartic bump is r_t * 16/15
    lam = 0.5
    f_lam = lam * (1 - lam)
    oracle = -2.0 * f_lam * 0.25 * 16.0 / 15.0
    np.testing.assert_allclose(oracle, -2.0 / 15.0, rtol=1e-15)

    resid = _residual(traj, burgers_model, lam, phi)
    np.testing.assert_allclose(resid, oracle, rtol=1e-3, atol=1e-5)
    scale = phi.c1_norm * fine_grid.box.volume
    assert resid < -0.01 * scale

    # the same field is still a weak solution: endpoint residuals vanish
    assert abs(_residual(traj, burgers_model, 0.0, phi)) <= 1e-3 * scale


def test_transformed_residual_equals_plain_in_flat_1d(two_flux_block_traj, two_flux_model):
    phi = _phi(0.045, 0.04, 0.05, 0.2)
    for lam in (0.3, 0.6):
        plain = _residual(two_flux_block_traj, two_flux_model, lam, phi)
        transf = _residual(two_flux_block_traj, flatten_model(two_flux_model), lam, phi)
        assert plain == transf


def test_constant_field_interface_residual_closed_form(two_flux_model, fine_grid):
    c = 0.5
    times = np.linspace(0.0, 0.09, 33)
    traj = _constant_trajectory(fine_grid, c, times)
    phi = _phi(0.045, 0.04, 0.0, 0.3)

    # oracle first: all terms cancel except the interface boundary terms,
    # leaving sgn(c - lam) * (F_L(c) - F_R(c)) * integral phi(t, 0) dt
    tw = np.empty(times.size)
    tw[0] = 0.5 * (times[1] - times[0])
    tw[-1] = 0.5 * (times[-1] - times[-2])
    tw[1:-1] = 0.5 * (times[2:] - times[:-2])
    phi_on_interface = float(tw @ phi.tables(times, np.zeros((times.size, 1)))[0])
    fl_c = c * (1 - c)
    fr_c = 2 * c * (1 - c)

    flat = flatten_model(two_flux_model)
    for lam in (0.3, 0.7):
        oracle = np.sign(c - lam) * (fl_c - fr_c) * phi_on_interface
        resid = _residual(traj, flat, lam, phi)
        np.testing.assert_allclose(resid, oracle, rtol=1e-3, atol=1e-6)
    assert _residual(traj, flat, 0.3, phi) < 0
    assert _residual(traj, flat, 0.7, phi) > 0


def test_transformed_residual_change_of_variables_2d():
    # same analytic field expressed in both coordinate systems; the flattening
    # map is volume preserving, so the residuals must agree up to quadrature
    model = dx.preset("tilted_2d")
    itf = model.interface
    T, eps = 0.4, 0.05

    def field(t, pts_flat):
        s = np.clip(np.linalg.norm(pts_flat, axis=-1) / 0.6, 0.0, 1.0)
        return 0.2 + 0.5 * (1.0 - s**2) ** 2 * (1.0 - 0.5 * np.asarray(t) / T)

    times = tuple(np.linspace(0.0, T, 17))
    from discflux.geometry import flattened_box

    fbox = flattened_box(model.domain, itf)
    fgrid = dx.Grid(fbox.lows, fbox.highs, (64, 64))
    ftraj = Trajectory(
        fgrid, times, np.stack([field(t, fgrid.points()) for t in times]), {"epsilon": eps}
    )
    ogrid = dx.Grid(model.domain.lows, model.domain.highs, (64, 64))
    opts = ogrid.points()
    otraj = Trajectory(
        ogrid, times, np.stack([field(t, itf.flatten(opts)) for t in times]), {"epsilon": eps}
    )

    phi_flat = entropy.TestFunction(
        time_center=0.2, time_radius=0.2, space_center=(0.0, 0.0), space_radius=(0.5, 0.5)
    )

    class PhiOriginal:
        """phi_flat composed with the flattening map; chain rule for the
        gradient with d(x1 - 0.2 x2)/dx2 = -0.2."""

        support = staticmethod(_whole_grid)

        def tables(self, t, x):
            value, dt, (g0, g1) = phi_flat.tables(t, itf.flatten(x))
            return value, dt, [g0, g1 - 0.2 * g0]

    tol = 1e-3 * phi_flat.c1_norm * ogrid.box.volume
    flat = flatten_model(model)
    for lam in (0.25, 0.4, 0.6):
        r_flat = _residual(ftraj, flat, lam, phi_flat)
        r_orig = _residual(otraj, model, lam, PhiOriginal())
        assert abs(r_flat) > 1e-4  # comparison is not vacuous
        assert abs(r_flat - r_orig) <= tol


def test_residual_linear_in_phi(two_flux_block_traj, two_flux_model):
    phi1 = _phi(0.045, 0.04, 0.1, 0.2, "p1")
    phi2 = _phi(0.05, 0.035, -0.1, 0.25, "p2")
    alpha, beta = 0.7, 2.3

    class Combo:
        support = staticmethod(_whole_grid)

        def tables(self, t, x):
            (v1, dt1, g1), (v2, dt2, g2) = phi1.tables(t, x), phi2.tables(t, x)
            return alpha * v1 + beta * v2, alpha * dt1 + beta * dt2, [alpha * a + beta * b for a, b in zip(g1, g2)]

    ws = ResidualWorkspace(two_flux_block_traj, two_flux_model)
    lam = 0.4
    combined = residual(ws.terms([lam], Combo())[0])
    separate = alpha * residual(ws.terms([lam], phi1)[0]) + beta * residual(ws.terms([lam], phi2)[0])
    np.testing.assert_allclose(combined, separate, atol=1e-12)


def test_entropy_report_json_layout(burgers_shock_traj, burgers_model):
    phi = _phi(0.25, 0.2, 0.0, 0.3)
    report = dx.entropy_battery(burgers_shock_traj, burgers_model, phis=[phi])
    blob = report.to_json()
    entry = blob["entries"][0]
    assert set(entry) == {"lambda", "phi_id", "residual", "tol", "pass"}
    assert set(blob["summary"]) == {"min_residual", "worst_lambda", "worst_phi", "pass", "count"}


ENTROPY_TERMS = ("time", "convection", "divergence", "interface", "initial")
KATO_TERMS = ("time", "convection", "initial")


def _entropy_rows(traj, model, phis=None):
    """The rows of terms of entropy_battery(traj, model, phis=phis) in the
    order of its entries, from a workspace of their own."""
    ws = ResidualWorkspace(traj, model)
    lambdas = lambda_battery(model.a, model.b).tolist()
    phis = phis or bump_battery(traj.grid.box, traj.times[-1])
    return [row for phi in phis for row in ws.terms(lambdas, phi).tolist()]


def _kato_rows(u, v, model, phis=None):
    """The rows of terms of kato_battery(u, v, model, phis=phis), from a workspace of their own."""
    return ResidualWorkspace(u, model).kato(v, phis or bump_battery(u.grid.box, u.times[-1])).tolist()


def _assert_terms_of_failing_entries(report, names, rows):
    """Each entry's residual is the sum of its row of terms from left to
    right, bit for bit; a failing entry carries that row, named by `names`,
    a passing entry no terms, in the report and in its JSON.  Returns the
    failing entries."""
    assert len(rows) == len(report.entries)
    failing = []
    for entry, blob, row in zip(report.entries, report.to_json()["entries"], rows):
        assert entry.residual.hex() == sum(row).hex()
        if entry.passed:
            assert entry.terms is None and "terms" not in blob
            continue
        assert tuple(entry.terms) == names and entry.terms == dict(zip(names, row)) and blob["terms"] == entry.terms
        failing.append(entry)
    return failing


def test_failing_entropy_entries_carry_their_terms(burgers_model, fine_grid):
    traj = _expansion_shock(fine_grid)
    phis = [_phi(0.25, 0.25, 0.0, 0.45, "shock"), _phi(0.1, 0.05, 0.0, 0.3, "early"),
            _phi(0.3, 0.2, 0.25, 0.2, "right")]
    report = dx.entropy_battery(traj, burgers_model, phis=phis)
    failing = _assert_terms_of_failing_entries(report, ENTROPY_TERMS, _entropy_rows(traj, burgers_model, phis))
    assert failing and len(failing) < len(report.entries)
    # the bump on the jump fails through its convection term; the others pass
    worst = min(report.entries, key=lambda e: e.residual)
    assert worst.phi_id == "shock" and worst.terms["convection"] < 0
    assert worst.terms["interface"] == worst.terms["divergence"] == 0.0
    assert all(e.passed for e in report.entries if e.phi_id == "right")

    # an x-dependent flux on a field that solves nothing: the divergence term shows
    ramp = _x_ramp_fixture(fine_grid, 1.0)
    phis = bump_battery(ramp.grid.box, ramp.times[-1])[:4]
    report = dx.entropy_battery(ramp, dx.preset("x_ramp"), tol_factor=1e-9, phis=phis)
    failing = _assert_terms_of_failing_entries(report, ENTROPY_TERMS, _entropy_rows(ramp, dx.preset("x_ramp"), phis))
    assert failing and len(failing) < len(report.entries)
    assert any(e.terms["divergence"] != 0.0 for e in failing)


def test_failing_interface_entries_carry_their_terms(two_flux_model, fine_grid):
    # the constant field of test_constant_field_interface_residual_closed_form
    # fails for lambda < c; the sides do not depend on x, so no divergence
    # term, and the jump at lambda > 0 shows in the interface term
    traj = _constant_trajectory(fine_grid, 0.5, np.linspace(0.0, 0.09, 33))
    phis = [_phi(0.045, 0.04, 0.0, 0.3)]
    report = dx.entropy_battery(traj, flatten_model(two_flux_model), phis=phis, tol_factor=1e-6)
    failing = _assert_terms_of_failing_entries(report, ENTROPY_TERMS,
                                               _entropy_rows(traj, flatten_model(two_flux_model), phis))
    assert [e.lam for e in failing] == [0.0, 0.1, 0.2, 0.3, 0.4]
    assert all(e.terms["divergence"] == 0.0 for e in failing)
    assert all(e.terms["interface"] < 0 for e in failing[1:])


@pytest.mark.parametrize("name", ["burgers_shock", "burgers_rarefaction", "two_flux_admissibility",
                                  "tilted_flatten_2d", "kato_burgers"])
def test_shipped_battery_residuals_are_the_sums_of_their_terms(name, tmp_path, monkeypatch):
    # every shipped scenario that runs a battery, through the CLI: each
    # entry's residual against its row of terms from a workspace of its own
    from discflux import cli
    from discflux.scenario import builtin_scenario_path, parse_scenario

    calls = []
    for attr in ("entropy_battery", "kato_battery"):
        def spy(*args, _battery=getattr(cli, attr), **kwargs):
            calls.append((args, kwargs, _battery(*args, **kwargs)))
            return calls[-1][-1]
        monkeypatch.setattr(cli, attr, spy)
    assert cli.main([parse_scenario(builtin_scenario_path(name)).kind, name, "--out", str(tmp_path), "--quiet"]) == 0
    [((*trajs, model), kwargs, report)] = calls
    assert "phis" not in kwargs  # each battery runs on its own bump_battery
    if len(trajs) == 1:
        _assert_terms_of_failing_entries(report, ENTROPY_TERMS, _entropy_rows(*trajs, model))
    else:
        _assert_terms_of_failing_entries(report, KATO_TERMS, _kato_rows(*trajs, model))


# ---------------------------------------------------------------------------
# Kato residuals


def test_kato_identical_runs_is_exactly_zero(burgers_shock_traj, burgers_model):
    phi = _phi(0.25, 0.2, 0.0, 0.3)
    report = kato_battery(burgers_shock_traj, burgers_shock_traj, burgers_model, phis=[phi])
    assert [e.residual for e in report.entries] == [0.0]


def test_kato_grid_mismatch_raises(burgers_shock_traj, burgers_model):
    grid = dx.Grid((-0.5,), (0.5,), (100,))
    other = _constant_trajectory(grid, 0.0, np.asarray(burgers_shock_traj.times))
    phi = _phi(0.25, 0.2, 0.0, 0.3)
    with pytest.raises(ValueError, match="grid"):
        kato_battery(burgers_shock_traj, other, burgers_model, phis=[phi])


def test_kato_nested_burgers_battery(burgers_model):
    grid = dx.Grid((-0.5,), (0.5,), (200,))
    x = grid.points()[..., 0]
    s = np.clip(np.abs(x) / 0.2, 0.0, 1.0)
    shape = (1.0 - s**2) ** 2

    def solve(amp):
        config = dx.RunConfig(flux=burgers_model, epsilon=2e-3, final_time=0.2, boundary=0.0)
        return dx.run(dx.Field(grid, amp * shape, 0.0), config)

    report = kato_battery(solve(0.3), solve(0.6), burgers_model)
    assert report.passed
    assert report.min_residual >= -1e-3 * max(e.tol for e in report.entries) / 1e-3


def test_kato_two_flux_shifted_steps(two_flux_block_traj, two_flux_model, fine_grid):
    config = dx.RunConfig(
        flux=two_flux_model,
        epsilon=1e-3,
        final_time=0.09,
        boundary=0.0,
        output_times=tuple(np.linspace(0.0, 0.09, 129)),
    )
    shifted = dx.run(block_field(fine_grid, 0.05, 0.25, 1.0), config)
    report = kato_battery(two_flux_block_traj, shifted, two_flux_model, tol_factor=1e-2)
    assert report.passed


def test_kato_stationary_x_ramp_pair_is_quadrature_zero():
    # (1 + 0.3 x) u (1 - u) = C is an exact stationary solution of x_ramp for
    # each C: the Kato flux |C1 - C2| is constant, so K(phi) = 0 up to the
    # quadrature error for every bump
    model = dx.preset("x_ramp")
    grid = dx.Grid((-1.0,), (1.0,), (400,))
    x = grid.points()[..., 0]
    times = tuple(np.linspace(0.0, 1.0, 257))

    def stationary(c):
        u = 0.5 * (1.0 - np.sqrt(1.0 - 4.0 * c / (1.0 + 0.3 * x)))
        return Trajectory(grid, times, np.tile(u, (len(times), 1)), {})

    report = kato_battery(stationary(0.1), stationary(0.15), model,
                          phis=bump_battery(grid.box, times[-1])[:6])
    assert len(report.entries) == 6
    assert max(abs(e.residual) for e in report.entries) <= 1e-5


def test_kato_refuses_trajectories_that_start_after_zero(burgers_shock_traj, burgers_model):
    late = Trajectory(burgers_shock_traj.grid, burgers_shock_traj.times[1:],
                      burgers_shock_traj.states[1:], burgers_shock_traj.manifest)
    phi = _phi(0.3, 0.15, 0.0, 0.3)
    with pytest.raises(ValueError, match="t = 0"):
        kato_battery(late, late, burgers_model, phis=[phi])


def test_kato_across_an_interface_needs_the_runs_epsilon(two_flux_block_traj, two_flux_model):
    # a trajectory read back without a manifest has no epsilon to smooth by
    bare = Trajectory(two_flux_block_traj.grid, two_flux_block_traj.times, two_flux_block_traj.states, {})
    with pytest.raises(ValueError, match="smoothed flux across an interface needs the run's epsilon"):
        kato_battery(bare, bare, two_flux_model, phis=[_phi(0.045, 0.04, 0.0, 0.3)])


def test_kato_battery_rejects_a_pair_with_a_planted_bump():
    from discflux.scenario import builtin_scenario_path, parse_scenario

    sc = parse_scenario(builtin_scenario_path("kato_burgers"))
    u = dx.run(sc.initial_field(), sc.config)
    v = dx.run(sc.field_from_spec(sc.study["initial_b"]), sc.config)
    assert kato_battery(u, v, sc.model).passed

    # from the recorded time 0.15 on, v carries a bump no solution creates,
    # where u and v are both still 0, so |u - v| grows from nothing
    late = 3 * (len(v.times) - 1) // 4
    x = v.grid.points()[..., 0]
    planted = np.array(v.states)
    planted[late:] += 0.8 * np.clip(1.0 - ((x + 0.25) / 0.2) ** 2, 0.0, None) ** 2
    v_planted = Trajectory(v.grid, v.times, np.clip(planted, 0.0, 1.0), v.manifest)
    report = kato_battery(u, v_planted, sc.model)
    assert not report.passed
    assert min(e.residual / e.tol for e in report.entries) < -2.0
    failing = _assert_terms_of_failing_entries(report, KATO_TERMS, _kato_rows(u, v_planted, sc.model))
    assert failing and len(failing) < len(report.entries)


# ---------------------------------------------------------------------------
# the table-once batteries against the per-pair formulas they replaced


def _trapezoid(times):
    t = np.asarray(times, dtype=float)
    w = np.empty_like(t)
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    return w


def _per_pair_kruzhkov(traj, model, lam, phi):
    """E(lam, phi) with per-time tables and 3-operand einsums, one pair at a time."""
    from discflux.geometry import transformed_normal_flux

    grid = traj.grid
    pts = grid.points().reshape(-1, grid.d)
    times = np.asarray(traj.times)
    tw = _trapezoid(times)
    nt = len(times)
    states = traj.states.reshape(nt, -1)
    flux_u = np.stack([sharp_flux(model, pts, states[i]) for i in range(nt)])
    lam_arr = np.full(pts.shape[0], lam)
    flux_lam = sharp_flux(model, pts, lam_arr)
    div_lam = smooth_divergence(model, pts, lam_arr)
    per_time = [phi.tables(t, pts) for t in times]
    vals = np.stack([value for value, _, _ in per_time])
    dts = np.stack([dt for _, dt, _ in per_time])
    grads = np.stack([np.stack(grad, axis=-1) for _, _, grad in per_time])

    diff = states - lam
    sgn = np.sign(diff)
    term_time = np.einsum("t,tc,tc->", tw, np.abs(diff), dts)
    conv = ((flux_u - flux_lam[None]) * grads).sum(axis=-1)
    term_conv = np.einsum("t,tc,tc->", tw, sgn, conv)
    term_div = np.einsum("t,tc,c,tc->", tw, sgn, div_lam, vals)
    total = grid.cell_volume * (term_time + term_conv - term_div)
    if model.interface is not None:
        tr = interface_trace(traj, model)
        surf = tr.surface_points
        m_lam = np.full(surf.shape[0], lam)
        jump = (component_value(transformed_normal_flux(model.right, model.interface), surf, m_lam)
                - component_value(transformed_normal_flux(model.left, model.interface), surf, m_lam))
        surf_vals = np.stack([phi.tables(t, surf)[0] for t in times])
        delta = np.einsum("t,tm,m,tm->", tw, np.sign(tr.averaged - lam), jump, surf_vals)
        total -= tr.tangential_weight * delta
    return float(total + grid.cell_volume * (np.abs(states[0] - lam) @ vals[0]))


def _per_time_kato(u1, u2, model, phi):
    """Kato residual re-evaluating the smoothed fluxes at every time.  The
    Kato flux is sgn(u1 - u2) (F(x, u1) - F(x, u2)) alone: no divergence
    source enters (Kruzhkov 1970)."""
    eps = u1.manifest.get("epsilon") or u2.manifest.get("epsilon") or 1.0
    grid = u1.grid
    pts = grid.points().reshape(-1, grid.d)
    times = np.asarray(u1.times)
    tw = _trapezoid(times)
    nt = len(times)
    s1 = u1.states.reshape(nt, -1)
    s2 = u2.states.reshape(nt, -1)
    total = 0.0
    for i in range(nt):
        diff = s1[i] - s2[i]
        sgn = np.sign(diff)
        f1 = smoothed_flux(model, pts, s1[i], eps)
        f2 = smoothed_flux(model, pts, s2[i], eps)
        _, dt, grad = phi.tables(times[i], pts)
        contrib = (
            np.abs(diff) @ dt
            + (sgn * ((f1 - f2) * np.stack(grad, axis=-1)).sum(axis=-1)).sum()
        )
        total += tw[i] * contrib
    total += np.abs(s1[0] - s2[0]) @ phi.tables(times[0], pts)[0]
    return float(total * grid.cell_volume)


def _assert_same_battery(report, reference):
    """Residuals within 1e-12 relative, the same verdicts and the same worst pair."""
    assert [(e.lam, e.phi_id) for e in report.entries] == [key for key, _ in reference]
    for entry, (_, ref) in zip(report.entries, reference):
        assert abs(entry.residual - ref) <= 1e-12 * max(1.0, abs(ref))
        assert entry.passed == (ref >= -entry.tol)
    worst_key, _ = min(reference, key=lambda item: item[1])
    assert report.worst == worst_key


def _flattened_2d_fixture():
    """An analytic field on the flattened tilted_2d box: interface traces and
    two flux components, no solve."""
    from discflux.geometry import flattened_box

    model = dx.preset("tilted_2d")
    fbox = flattened_box(model.domain, model.interface)
    grid = dx.Grid(fbox.lows, fbox.highs, (32, 32))
    times = tuple(np.linspace(0.0, 0.4, 9))
    pts = grid.points()
    r = np.clip(np.linalg.norm(pts, axis=-1) / 0.6, 0.0, 1.0)
    states = np.stack([0.2 + 0.5 * (1.0 - r**2) ** 2 * (1.0 - t) for t in times])
    return model, Trajectory(grid, times, states, {"epsilon": 0.05})


def _x_ramp_fixture(grid, phase_speed):
    """x-dependent flux, so the smooth divergence terms are nonzero."""
    times = tuple(np.linspace(0.0, 0.2, 17))
    x = grid.points()[..., 0]
    states = np.stack([np.clip(0.5 + 0.4 * np.sin(6.0 * x + phase_speed * t), 0.0, 1.0) for t in times])
    return Trajectory(grid, times, states, {})


@pytest.mark.parametrize("case", ["burgers_shock", "x_ramp", "two_flux_interface", "flattened_2d"])
def test_entropy_battery_matches_per_pair_formula(case, request, fine_grid):
    if case == "burgers_shock":
        model, traj = request.getfixturevalue("burgers_model"), request.getfixturevalue("burgers_shock_traj")
    elif case == "x_ramp":
        model, traj = dx.preset("x_ramp"), _x_ramp_fixture(fine_grid, 1.0)
    elif case == "two_flux_interface":
        model, traj = request.getfixturevalue("two_flux_model"), request.getfixturevalue("two_flux_block_traj")
    else:
        model, traj = _flattened_2d_fixture()
        model = flatten_model(model)
    # a recorded interior state as lambda: sgn(u - lambda) is 0 on that cell
    nt = len(traj.times)
    recorded = float(traj.states.reshape(nt, -1)[nt // 2, traj.states[0].size // 2 + 3])
    assert model.a < recorded < model.b
    phis = bump_battery(traj.grid.box, traj.times[-1])[:4]

    report = dx.entropy_battery(traj, model, phis=phis)
    reference = [((float(lam), phi.label), _per_pair_kruzhkov(traj, model, float(lam), phi))
                 for phi in phis for lam in lambda_battery(model.a, model.b)]
    _assert_same_battery(report, reference)
    ws = ResidualWorkspace(traj, model)
    for phi in phis:
        ref = _per_pair_kruzhkov(traj, model, recorded, phi)
        assert abs(residual(ws.terms([recorded], phi)[0]) - ref) <= 1e-12 * max(1.0, abs(ref))


def _live_block_terms(ws, lambdas, phi):
    """ResidualWorkspace.terms without the support box: every table over all
    recorded times x cells, then the block of times x cells where any table
    is nonzero, picked by a mask and np.ix_."""
    t, w = ws.times[:, None], ws.tw[:, None]
    value, dt, grad = phi.tables(t, ws.points)
    tables = [g * w for g in grad]
    tables.append(dt * w)
    phi0 = phi.tables(ws.times[:1, None], ws.points)[0]
    tables.append(value * w)
    live = np.logical_or.reduce([tab != 0 for tab in tables])
    cells = np.flatnonzero(live.any(axis=0))
    block = np.ix_(np.flatnonzero(live.any(axis=1)), cells)
    *wg, wdt, wv = [tab[block] for tab in tables]
    conv_u = sum(ws.flux_u[..., k][block] * g for k, g in enumerate(wg))
    tr = ws.traces
    if tr is not None:
        surf = phi.tables(ws.times[:, None], tr.surface_points)[0] * ws.tw[:, None]
    vol = ws.cell_volume
    out = np.zeros((len(lambdas), 5))
    for row, lam in zip(out, lambdas):
        flux_lam, div_lam, jump = ws._lam_tables(lam)
        diff = ws.states[block]
        diff -= lam
        sgn = np.sign(diff)
        # per cell, the sums over times of sgn times each weighted table
        s_grad = np.stack([np.einsum("ij,ij->j", sgn, g) for g in wg], axis=-1)
        s_phi = np.einsum("ij,ij->j", sgn, wv)
        convection = np.einsum("ij,ij->", sgn, conv_u) - np.einsum("ij,ij->", s_grad, flux_lam[cells])
        row[0] = vol * np.einsum("ij,ij->", np.abs(diff), wdt)
        row[1] = vol * convection
        row[2] = -vol * np.einsum("j,j->", s_phi, div_lam[cells])
        if tr is not None:
            row[3] = -tr.tangential_weight * np.einsum("ij,ij->", np.sign(tr.averaged - lam), jump * surf)
        row[4] = vol * np.einsum("ij,ij->", np.abs(ws.states[:1] - lam), phi0)
    return out


class _Everywhere:
    """A phi nonzero on every recorded time and cell, its support box the
    whole grid, so the live block of the old code is the whole grid too."""

    support = staticmethod(_whole_grid)

    def tables(self, t, x):
        shape = np.broadcast_shapes(np.shape(t), np.shape(x)[:-1])
        time, space = 2.0 + np.asarray(t), 3.0 + np.sum(x, axis=-1)
        value = time * space
        dt = np.broadcast_to(space, shape).copy()
        return value, dt, [np.broadcast_to(time, shape).copy() for _ in range(np.shape(x)[-1])]


def _edge_bumps(traj):
    """Bumps at the edges of the support box: one whose time support falls
    between two recorded times, one whose box reaches the first cell of
    every axis and t = 0, one whose box reaches the last cell of every axis
    and t = T (its support runs past T, which only a battery refuses)."""
    grid, times = traj.grid, traj.times
    box, gap = grid.box, times[1] - times[0]
    between = entropy.TestFunction(times[1] + 0.5 * gap, 0.25 * gap, box.center,
                                   tuple(0.3 * w for w in box.widths), "between")
    first = entropy.TestFunction(0.0, 0.25 * times[-1], tuple(lo + 0.2 * w for lo, w in zip(box.lows, box.widths)),
                                 tuple(0.2 * w for w in box.widths), "first")
    last = entropy.TestFunction(times[-1], 0.25 * times[-1],
                                tuple(hi - 0.2 * w for hi, w in zip(box.highs, box.widths)),
                                tuple(0.2 * w for w in box.widths), "last")
    assert between.support(grid, times)[0] == slice(0, 0)
    assert all(s.start == 0 for s in first.support(grid, times))
    assert all(s.stop == n for s, n in zip(last.support(grid, times)[1:], grid.counts))
    assert last.support(grid, times)[0].stop == len(times)
    return [between, first, last]


@pytest.mark.parametrize("case", ["burgers_shock", "x_ramp", "two_flux_interface", "flattened_2d"])
def test_support_box_residuals_equal_the_live_block_bits(case, request, fine_grid):
    if case == "burgers_shock":
        model, traj = request.getfixturevalue("burgers_model"), request.getfixturevalue("burgers_shock_traj")
    elif case == "x_ramp":
        model, traj = dx.preset("x_ramp"), _x_ramp_fixture(fine_grid, 1.0)
    elif case == "two_flux_interface":
        model, traj = request.getfixturevalue("two_flux_model"), request.getfixturevalue("two_flux_block_traj")
    else:
        model, traj = _flattened_2d_fixture()
        model = flatten_model(model)
    nt = len(traj.times)
    lambdas = lambda_battery(model.a, model.b).tolist()
    lambdas.append(float(traj.states.reshape(nt, -1)[nt // 2, traj.states[0].size // 2 + 3]))
    phis = bump_battery(traj.grid.box, traj.times[-1])[:6] + _edge_bumps(traj) + [_Everywhere()]
    ws = ResidualWorkspace(traj, model)
    for phi in phis:
        got = ws.terms(lambdas, phi)
        assert_array_equal(got.view(np.int64), _live_block_terms(ws, lambdas, phi).view(np.int64))


class _CountedBump(entropy.TestFunction):
    """A bump that counts the (time, cell) points it is evaluated at."""

    points = [0]

    def _count(self, t, x):
        _CountedBump.points[0] += math.prod(np.broadcast_shapes(np.shape(t), np.shape(x)[:-1]))

    def tables(self, t, x):
        self._count(t, x)
        return super().tables(t, x)


def test_default_battery_reads_each_bump_on_its_support_box(burgers_shock_traj, burgers_model):
    traj = burgers_shock_traj
    grid, nt = traj.grid, len(traj.times)
    plain = dx.entropy_battery(traj, burgers_model)
    counted = [_CountedBump(*(getattr(p, f.name) for f in dataclasses.fields(p)))
               for p in bump_battery(grid.box, traj.times[-1])]
    _CountedBump.points[0] = 0
    report = dx.entropy_battery(traj, burgers_model, phis=counted)
    assert [e.residual for e in report.entries] == [e.residual for e in plain.entries]
    # per bump: one evaluation on its box, and one on the t = 0 row
    cells = math.prod(grid.counts)
    boxes = [math.prod(len(range(n)[s]) for s, n in zip(p.support(grid, traj.times), (nt,) + grid.counts))
             for p in counted]
    assert _CountedBump.points[0] == sum(box + cells for box in boxes)
    assert sum(boxes) < 0.5 * len(boxes) * nt * cells  # far below the full tables


@pytest.mark.parametrize("case", ["burgers", "x_ramp", "two_flux_interface"])
def test_kato_battery_matches_per_time_formula(case, request, fine_grid):
    if case == "burgers":
        model = request.getfixturevalue("burgers_model")
        u1 = request.getfixturevalue("burgers_shock_traj")
        u2 = request.getfixturevalue("burgers_rarefaction_traj")
    elif case == "x_ramp":
        model = dx.preset("x_ramp")
        u1, u2 = _x_ramp_fixture(fine_grid, 1.0), _x_ramp_fixture(fine_grid, -3.0)
    else:
        model = request.getfixturevalue("two_flux_model")
        u1 = request.getfixturevalue("two_flux_block_traj")
        # same data on the right half only: sgn(u1 - u2) is 0 on half the cells
        x = u1.grid.points()[..., 0]
        u2 = Trajectory(u1.grid, u1.times, np.where(x > 0, u1.states, 0.5 * u1.states[::-1]),
                        u1.manifest)
    phis = bump_battery(u1.grid.box, u1.times[-1])[:6]
    report = kato_battery(u1, u2, model, phis=phis)
    reference = [((None, phi.label), _per_time_kato(u1, u2, model, phi)) for phi in phis]
    _assert_same_battery(report, reference)


# ---------------------------------------------------------------------------
# distances, contraction, cone locality


def test_l1_distance_examples(fine_grid):
    u1 = dx.Field(fine_grid, np.zeros(fine_grid.counts), 0.0)
    vals = np.zeros(fine_grid.counts)
    vals[7] = 1.0
    u2 = dx.Field(fine_grid, vals, 0.0)
    assert l1_distance(u1, u1) == 0.0
    np.testing.assert_allclose(l1_distance(u1, u2), fine_grid.dx[0], rtol=1e-15)


def test_l1_distance_independent_reduction(fine_grid):
    rng = np.random.default_rng(29)
    a = rng.uniform(0.0, 1.0, fine_grid.counts)
    b = rng.uniform(0.0, 1.0, fine_grid.counts)

    # oracle first: compensated summation in reversed order
    oracle = math.fsum(abs(x - y) for x, y in zip(a[::-1], b[::-1])) * fine_grid.dx[0]

    got = l1_distance(dx.Field(fine_grid, a, 0.0), dx.Field(fine_grid, b, 0.0))
    np.testing.assert_allclose(got, oracle, rtol=1e-14)


def test_l1_distance_grid_mismatch(fine_grid):
    other = dx.Grid((-0.5,), (0.5,), (100,))
    with pytest.raises(ValueError, match="grid"):
        l1_distance(
            dx.Field(fine_grid, np.zeros(fine_grid.counts), 0.0),
            dx.Field(other, np.zeros(other.counts), 0.0),
        )


def test_contraction_equal_data_passes(burgers_shock_traj):
    traj = burgers_shock_traj
    assert all(l1_distance(traj.field(i), traj.field(i)) == 0.0 for i in range(len(traj.times)))


def test_contraction_nested_and_symmetric(burgers_model):
    grid = dx.Grid((-0.5,), (0.5,), (200,))
    x = grid.points()[..., 0]
    s = np.clip(np.abs(x) / 0.2, 0.0, 1.0)
    shape = (1.0 - s**2) ** 2
    config = dx.RunConfig(flux=burgers_model, epsilon=2e-3, final_time=0.2, boundary=0.0)
    t1 = dx.run(dx.Field(grid, 0.3 * shape, 0.0), config)
    t2 = dx.run(dx.Field(grid, 0.6 * shape, 0.0), config)
    fwd, rev = l1_ratios(t1, t2), l1_ratios(t2, t1)
    assert max(fwd) <= 1.05
    assert fwd == rev


def test_cone_locality_identical_and_inversion(burgers_model):
    grid = dx.Grid((-0.5,), (0.5,), (100,))
    x = grid.points()[..., 0]
    s = np.clip(np.abs(x) / 0.15, 0.0, 1.0)
    base = 0.25 + 0.5 * (1.0 - s**2) ** 2
    config = dx.RunConfig(flux=burgers_model, epsilon=4e-3, final_time=0.05, boundary=0.25)
    cone = Cone(center=(0.0,), radius=0.25, speed=1.0)

    ta = dx.run(dx.Field(grid, base, 0.0), config)
    same = cone_locality_check(ta, ta, cone, tol=1e-2)
    assert same.passed and same.kappa == 0.0

    # perturbation inside the base must be flagged as non-local
    inside = np.array(base)
    s2 = np.clip(np.abs(x - 0.05) / 0.05, 0.0, 1.0)
    inside += 0.2 * (1.0 - s2**2) ** 2
    tb = dx.run(dx.Field(grid, np.clip(inside, 0.0, 1.0), 0.0), config)
    report = cone_locality_check(ta, tb, cone, tol=1e-2)
    assert not report.passed
    assert report.kappa > report.tol


# ---------------------------------------------------------------------------
# determinism


_BLAS_PROBE = """
import numpy as np
import discflux as dx
from discflux.entropy import kato_battery
from discflux.solver import Trajectory

model = dx.preset("tilted_2d")
grid = dx.Grid(model.domain.lows, model.domain.highs, (128, 128))
rng = np.random.default_rng(5)
times = tuple(np.linspace(0.0, 0.1, 5))
u1, u2 = (Trajectory(grid, times, rng.uniform(model.a, model.b, (5, 128, 128)), {"epsilon": 0.05})
          for _ in range(2))
entries = dx.entropy_battery(u1, model).entries + kato_battery(u1, u2, model).entries
print(" ".join(e.residual.hex() for e in entries))
"""


def test_battery_residuals_do_not_depend_on_blas_threads():
    # 16,384 cells: past the size where OpenBLAS threads a 1-d dot product,
    # whose summation order then follows the thread count
    src = os.path.dirname(os.path.dirname(dx.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [
        subprocess.run([sys.executable, "-c", _BLAS_PROBE], capture_output=True, text=True, check=True,
                       env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)).stdout
        for threads in ("1", "2")
    ]
    assert len(outs[0].split()) == 20 * 11 + 20
    assert outs[0] == outs[1]
