"""Dyadic dense families, epsilon-sequence runs, diagonal selection, and germ limits."""

import json
import math
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from discflux import germ, storage
from discflux.entropy import l1_distance
from discflux.geometry import Box, Cone
from discflux.germ import (
    DEFAULT_CELL_BUDGET,
    GermLevelResult,
    GermRecord,
    GermStudy,
    StepFunction,
    build_dense_family,
    contraction_matrix,
    diagonal_select,
    dyadic_values,
    grid_for_epsilon,
    member_count,
    run_sequence,
    save_level_result,
    stability_report,
)
from discflux.solver import DEFAULT_CFL, Field, Grid

UNIT_BOX = Box((0.0,), (1.0,))


# base and endpoint section (radius 0.9 at t = 0.1) cover the whole [0, 1]
# of the fake records, so distances on the cone are distances on the box
COVERING_CONE = Cone((0.5,), 1.0, 1.0)


def _fake_record(member_id, deltas, initial_values=None, endpoint_values=None, time=0.1):
    """Record with hand-set deltas and fields; enough for the selection and
    matrix mechanics, no solver involved."""
    grid = Grid((0.0,), (1.0,), (8,))
    init = np.full(grid.counts, 0.0) if initial_values is None else np.asarray(initial_values, dtype=float)
    end = init.copy() if endpoint_values is None else np.asarray(endpoint_values, dtype=float)
    n_eps = len(deltas) + 1
    eps = tuple(1e-2 * 2.0 ** -k for k in range(n_eps))
    return GermRecord(
        member_id=member_id,
        epsilons=eps,
        initial=Field(grid, init, 0.0),
        endpoints=tuple(Field(grid, end, time) for _ in range(n_eps)),
        deltas=tuple(float(d) for d in deltas),
        grid_counts=((8,),) * n_eps,
    )


@pytest.fixture(scope="module")
def burgers_study(burgers_model):
    return GermStudy(burgers_model, final_time=0.1, epsilons=(3.2e-2, 1.6e-2, 8e-3, 4e-3))


@pytest.fixture(scope="module")
def burgers_level1(burgers_study):
    return burgers_study.level_result(1)


@pytest.fixture(scope="module")
def mini_study(two_flux_model):
    return GermStudy(two_flux_model, final_time=0.05, epsilons=(1.6e-2, 8e-3, 4e-3))


@pytest.fixture(scope="module")
def constant_record(two_flux_model):
    (record,), _ = run_sequence(
        {"const-a": lambda pts: np.zeros(pts.shape[:-1])},
        (3.2e-2, 1.6e-2, 8e-3, 4e-3),
        two_flux_model,
        two_flux_model.domain,
        final_time=0.05,
        cell_budget=DEFAULT_CELL_BUDGET, cfl=DEFAULT_CFL,
    )
    return record


@pytest.fixture(scope="module")
def step_record(two_flux_model):
    def step_fn(pts):
        x = pts[..., 0]
        return np.where((x >= 0.1) & (x < 0.3), 1.0, 0.0)

    (record,), _ = run_sequence(
        {"step": step_fn},
        (1.6e-2, 8e-3, 4e-3, 2e-3),
        two_flux_model,
        two_flux_model.domain,
        final_time=0.09,
        cell_budget=DEFAULT_CELL_BUDGET, cfl=DEFAULT_CFL,
    )
    return record


# ---------------------------------------------------------------------------
# dense family construction


def test_level_zero_family_is_the_two_constants():
    fam = build_dense_family(0, 0.0, 1.0, UNIT_BOX)
    assert fam.count == 2 == member_count(0, 1)
    assert [m.values for m in fam.members] == [(0.0,), (1.0,)]
    assert [m.label for m in fam.members] == ["L0-0", "L0-1"]


def test_level_one_count_matches_the_combinatorics():
    fam = build_dense_family(1, 0.0, 1.0, UNIT_BOX)
    assert fam.count == 9 == member_count(1, 1)
    values = {m.values for m in fam.members}
    assert len(values) == 9
    lattice = {0.0, 0.5, 1.0}
    assert all(set(v) <= lattice for v in values)
    # enumeration order is deterministic: row-major over the value lattice
    assert [m.label for m in fam.members] == [f"L1-{i}{j}" for i in range(3) for j in range(3)]

    fam2d = build_dense_family(1, 0.0, 1.0, Box((0.0, 0.0), (1.0, 1.0)))
    assert fam2d.count == 81 == member_count(1, 2)
    assert len(fam2d.members) == 81


def test_members_stay_within_the_value_range():
    a, b = 0.2, 0.9
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 1.0, size=(200, 1))
    for level in range(3):
        fam = build_dense_family(level, a, b, UNIT_BOX)
        for m in fam.members:
            arr = m.value_array()
            assert arr.min() >= a and arr.max() <= b
            vals = m(pts)
            assert vals.min() >= a and vals.max() <= b


def test_family_levels_nest_under_refinement():
    for level in (0, 1):
        coarse = build_dense_family(level, 0.0, 1.0, UNIT_BOX)
        fine = build_dense_family(level + 1, 0.0, 1.0, UNIT_BOX)
        # each member of a level is, as a function, a member of the next
        pts = np.linspace(0.0, 1.0, 257)[:, None]
        fine_values = {m(pts).tobytes() for m in fine.members}
        for m in coarse.members:
            assert m(pts).tobytes() in fine_values


def test_step_function_evaluation_and_refinement():
    box = Box((-0.5,), (0.5,))
    m = StepFunction(box, 1, (3.0, 7.0), "step")
    assert m((-0.25,)) == 3.0
    assert m((0.25,)) == 7.0
    # the breakpoint belongs to the right piece; the top edge is clipped in
    assert m((0.0,)) == 7.0
    assert m((-0.5,)) == 3.0
    assert m((0.5,)) == 7.0
    assert m.pieces_per_axis == 2

    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.5, 0.5, size=(300, 1))
    # the same function one level finer, each piece split
    assert_array_equal(StepFunction(box, 2, (3.0, 3.0, 7.0, 7.0), "step+")(pts), m(pts))

    with pytest.raises(ValueError, match="value count"):
        StepFunction(box, 1, (1.0,), "step")
    with pytest.raises(ValueError, match="level"):
        build_dense_family(-1, 0.0, 1.0, box)


def test_projection_snaps_ties_to_the_lower_value():
    fam = build_dense_family(1, 0.0, 1.0, UNIT_BOX)
    grid = Grid((0.0,), (1.0,), (16,))

    # 0.25 sits exactly between lattice values 0 and 0.5
    low_tie = fam.project(Field(grid, np.full(grid.counts, 0.25), 0.0))
    assert low_tie.values == (0.0, 0.0)
    assert low_tie.label == "L1-00"

    high_tie = fam.project(Field(grid, np.full(grid.counts, 0.75), 0.0))
    assert high_tie.values == (0.5, 0.5)
    assert high_tie.label == "L1-11"

    # a member projects to itself
    member = fam.members[5]
    roundtrip = fam.project(Field(grid, member(grid.points()), 0.0))
    assert roundtrip.values == member.values


def test_projection_requires_a_resolving_grid():
    fam = build_dense_family(3, 0.0, 1.0, UNIT_BOX)
    grid = Grid((0.0,), (1.0,), (4,))
    with pytest.raises(ValueError, match="too coarse"):
        fam.project(Field(grid, np.zeros(grid.counts), 0.0))


def test_unenumerable_level_still_reports_count_and_projects():
    fam = build_dense_family(3, 0.0, 1.0, UNIT_BOX)
    assert fam.count == 9 ** 8 == member_count(3, 1)
    assert fam.members is None
    grid = Grid((0.0,), (1.0,), (64,))
    member = fam.project(Field(grid, np.full(grid.counts, 0.3), 0.0))
    assert member.level == 3
    assert set(member.values) <= set(float(v) for v in dyadic_values(0.0, 1.0, 3))


# ---------------------------------------------------------------------------
# epsilon-slaved grids and sequence runs


def test_grid_for_epsilon_resolves_the_viscous_scale():
    grid = grid_for_epsilon(Box((-0.5,), (0.5,)), 1e-3, DEFAULT_CELL_BUDGET)
    assert grid.counts == (4096,)
    for eps in (1.6e-2, 4e-3, 1e-3):
        g = grid_for_epsilon(Box((-0.5,), (0.5,)), eps, DEFAULT_CELL_BUDGET)
        for k, n in enumerate(g.counts):
            assert n & (n - 1) == 0
            assert g.dx[k] <= eps / 4.0 + 1e-15

    g2 = grid_for_epsilon(Box((0.0, 0.0), (2.0, 1.0)), 1.6e-2, cell_budget=200000)
    assert g2.counts == (512, 256)


def test_cell_budget_guard():
    with pytest.raises(ValueError, match="budget"):
        grid_for_epsilon(Box((-0.5,), (0.5,)), 2e-5, DEFAULT_CELL_BUDGET)
    with pytest.raises(ValueError, match="budget"):
        run_sequence(
            {"zero": lambda pts: np.zeros(pts.shape[:-1])},
            (1.6e-2, 2e-5),
            model=None,
            box=Box((-0.5,), (0.5,)),
            final_time=0.01,
            cell_budget=DEFAULT_CELL_BUDGET, cfl=DEFAULT_CFL,
        )


def test_run_sequence_validates_the_epsilon_ladder(two_flux_model):
    u0 = {"zero": lambda pts: np.zeros(pts.shape[:-1])}
    box = two_flux_model.domain
    with pytest.raises(ValueError, match="two epsilons"):
        run_sequence(u0, (1e-3,), two_flux_model, box, 0.01, cell_budget=DEFAULT_CELL_BUDGET, cfl=DEFAULT_CFL)
    with pytest.raises(ValueError, match="decreasing"):
        run_sequence(u0, (1e-3, 2e-3), two_flux_model, box, 0.01, cell_budget=DEFAULT_CELL_BUDGET, cfl=DEFAULT_CFL)
    with pytest.raises(ValueError, match="positive"):
        run_sequence(u0, (1e-3, 0.0), two_flux_model, box, 0.01, cell_budget=DEFAULT_CELL_BUDGET, cfl=DEFAULT_CFL)
    with pytest.raises(ValueError, match="no data"):
        run_sequence({}, (2e-3, 1e-3), two_flux_model, box, 0.01, cell_budget=DEFAULT_CELL_BUDGET, cfl=DEFAULT_CFL)


def test_constant_datum_has_zero_deltas(constant_record):
    assert constant_record.deltas == (0.0, 0.0, 0.0)
    for endpoint in constant_record.endpoints:
        assert_array_equal(endpoint.values, constant_record.initial.values)
    assert constant_record.grid_counts == ((256,), (512,), (1024,), (2048,))


def test_rarefaction_deltas_decrease(burgers_model):
    u0 = lambda pts: np.where(pts[..., 0] < 0.0, 1.0, 0.0)
    (record,), _ = run_sequence({"fan": u0}, (1.6e-2, 8e-3, 4e-3), burgers_model,
                                burgers_model.domain, final_time=0.15, cell_budget=DEFAULT_CELL_BUDGET, cfl=DEFAULT_CFL)
    assert record.deltas[0] > record.deltas[1] > 0.0


def test_step_datum_deltas_decrease_in_the_tail(step_record):
    assert all(d > 0.0 for d in step_record.deltas)
    assert step_record.deltas[1] > step_record.deltas[2]


def test_deltas_recomputable_from_saved_artifacts(two_flux_model, tmp_path):
    result = _tiny_study(two_flux_model).level_result(1, str(tmp_path / "records"))
    save_level_result(str(tmp_path / "manifest.json"), result, {})
    for record in result.records:
        step = tmp_path / "records" / record.member_id
        # solver counters are not saved: the record manifest keeps its keys
        manifest = json.loads((step / "manifest.json").read_text())
        assert sorted(manifest) == ["deltas", "epsilons", "files", "grid_counts", "member_id"]
        assert manifest["member_id"] == record.member_id
        assert tuple(manifest["epsilons"]) == record.epsilons
        assert tuple(map(tuple, manifest["grid_counts"])) == record.grid_counts
        assert tuple(manifest["deltas"]) == record.deltas
        initial = storage.read_field_csv(step / manifest["files"]["initial"])
        assert_array_equal(initial.values, record.initial.values)

        # the path of `discflux diff`: read_field_csv, then l1_distance
        endpoints = [storage.read_field_csv(step / name) for name in manifest["files"]["endpoints"]]
        recomputed = tuple(l1_distance(fine, coarse) for coarse, fine in zip(endpoints, endpoints[1:]))
        assert recomputed == record.deltas
    assert sum(any(r.deltas) for r in result.records) == 7  # every member but the two constants


# ---------------------------------------------------------------------------
# diagonal selection


def test_single_constant_datum_selects_trivially(constant_record):
    result = diagonal_select([constant_record], threshold=1e-12)
    assert result.passed
    assert result.indices == (0, 1, 2)
    assert result.failed_member is None


def test_adversarial_record_fails_and_is_named():
    good = _fake_record("good", (0.04, 0.02, 0.01))
    spoiler = _fake_record("spoiler", (0.1, 0.2, 0.3))
    result = diagonal_select([good, spoiler], threshold=0.2)
    assert not result.passed
    assert result.failed_member == "spoiler"
    assert result.failed_step is not None
    assert result.steps[-1]["index"] is None


def test_selection_skips_forward_and_respects_the_cap():
    record = _fake_record("datum", (0.2, 0.04, 0.02, 0.01))
    result = diagonal_select([record], threshold=0.2)
    # step 1 bound is 0.1, so the 0.2 delta is skipped
    assert result.indices == (1, 2, 3)
    assert result.steps[0]["index"] == 1

    # one step per delta exhausts the indices and reports the datum
    assert not result.passed
    assert result.failed_member == "datum"
    assert result.failed_step == 4


def test_selection_input_validation():
    with pytest.raises(ValueError, match="no records"):
        diagonal_select([], threshold=0.1)
    with pytest.raises(ValueError, match="4 epsilons"):
        diagonal_select([_fake_record("short", (0.1, 0.05))], threshold=0.1)
    with pytest.raises(ValueError, match="disagree"):
        diagonal_select([_fake_record("a", (0.1, 0.05, 0.02)),
                         _fake_record("b", (0.1, 0.05, 0.02, 0.01))], threshold=0.1)


def test_level_one_selection_on_burgers(burgers_study, burgers_level1):
    selection = burgers_level1.selection
    model = burgers_study.model
    assert burgers_study.threshold == pytest.approx(
        0.05 * (model.b - model.a) * burgers_study.box.volume)
    assert selection.passed
    assert selection.indices == (0, 1, 2)
    # selected worst deltas sit under the halving bounds and never increase
    worst = [s["max_delta"] for s in selection.steps]
    for j, s in enumerate(selection.steps, start=1):
        assert s["max_delta"] <= selection.threshold * 2.0 ** (-j)
    assert all(b <= a for a, b in zip(worst, worst[1:]))


# ---------------------------------------------------------------------------
# contraction matrix and stability


def test_contraction_matrix_hand_oracle():
    grid = Grid((0.0,), (1.0,), (8,))
    half = np.zeros(8)
    half[:4] = 1.0
    r1 = _fake_record("r1", (0.01, 0.005, 0.002), np.zeros(8), np.zeros(8))
    r2 = _fake_record("r2", (0.01, 0.005, 0.002), np.ones(8), np.full(8, 0.5))
    r3 = _fake_record("r3", (0.01, 0.005, 0.002), half, np.full(8, 0.25))

    # pairwise distances by direct summation first
    vol = grid.cell_volume
    expected_data = np.zeros((3, 3))
    expected_limit = np.zeros((3, 3))
    fields = [(np.zeros(8), np.zeros(8)), (np.ones(8), np.full(8, 0.5)), (half, np.full(8, 0.25))]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            expected_data[i, j] = math.fsum(abs(a - b) for a, b in zip(fields[i][0], fields[j][0])) * vol
            expected_limit[i, j] = math.fsum(abs(a - b) for a, b in zip(fields[i][1], fields[j][1])) * vol

    matrix = contraction_matrix([r1, r2, r3], COVERING_CONE)
    assert matrix.ids == ("r1", "r2", "r3")
    assert_allclose(matrix.data_distances, expected_data, rtol=1e-14, atol=0.0)
    assert_allclose(matrix.limit_distances, expected_limit, rtol=1e-14, atol=0.0)
    off = ~np.eye(3, dtype=bool)
    assert_allclose(matrix.ratios[off], expected_limit[off] / expected_data[off], rtol=1e-14)
    assert_array_equal(np.diag(matrix.ratios), np.zeros(3))

    report = stability_report(matrix)
    assert report.pairs == 3
    assert report.passed
    assert report.worst_ratio == pytest.approx(0.5)


def test_stability_rejects_a_planted_non_contractive_pair():
    # r2 and r3 start 0.1 apart and end 0.5 apart: ratio 5.  r4 repeats r3,
    # so (r2, r4) ties with (r2, r3) and (r3, r4) has no data distance
    deltas = (0.01, 0.005, 0.002)
    r1 = _fake_record("r1", deltas, np.zeros(8), np.zeros(8))
    r2 = _fake_record("r2", deltas, np.ones(8), np.full(8, 0.5))
    r3 = _fake_record("r3", deltas, np.full(8, 0.9), np.zeros(8))
    r4 = _fake_record("r4", deltas, np.full(8, 0.9), np.zeros(8))
    report = stability_report(contraction_matrix([r1, r2, r3, r4], COVERING_CONE))
    assert not report.passed
    assert report.worst_pair == ("r2", "r3")
    assert report.worst_ratio == pytest.approx(5.0)
    assert report.pairs == 5
    # without the planted members the same records contract
    assert stability_report(contraction_matrix([r1, r2], COVERING_CONE)).passed


def test_zero_data_distance_pairs_are_skipped():
    r1 = _fake_record("r1", (0.01, 0.005, 0.002), np.zeros(8), np.zeros(8))
    r4 = _fake_record("r4", (0.01, 0.005, 0.002), np.zeros(8), np.full(8, 0.1))
    matrix = contraction_matrix([r1, r4], COVERING_CONE)
    assert matrix.ratios[0, 1] == math.inf
    report = stability_report(matrix)
    assert report.pairs == 0
    assert report.worst_pair is None
    assert report.passed


def test_cone_localized_distances():
    grid = Grid((0.0,), (1.0,), (8,))
    r1 = _fake_record("r1", (0.01, 0.005, 0.002), np.zeros(8), np.zeros(8))
    r2 = _fake_record("r2", (0.01, 0.005, 0.002), np.ones(8), np.full(8, 0.5))
    cone = Cone((0.5,), 0.3, 1.0)

    # base and section masses summed by hand over cell centers
    centers = grid.points()[..., 0]
    base_mask = np.abs(centers - 0.5) <= 0.3
    section_mask = np.abs(centers - 0.5) <= 0.3 - 1.0 * 0.1
    expected_data = float(base_mask.sum()) * grid.cell_volume
    expected_limit = 0.5 * float(section_mask.sum()) * grid.cell_volume

    matrix = contraction_matrix([r1, r2], cone=cone)
    assert matrix.cone is cone
    assert matrix.data_distances[0, 1] == pytest.approx(expected_data, rel=1e-14)
    assert matrix.limit_distances[0, 1] == pytest.approx(expected_limit, rel=1e-14)


def test_empty_cone_section_is_rejected():
    r1 = _fake_record("r1", (0.01, 0.005, 0.002), np.zeros(8), np.zeros(8), time=0.5)
    r2 = _fake_record("r2", (0.01, 0.005, 0.002), np.ones(8), np.ones(8), time=0.5)
    with pytest.raises(ValueError, match="cone section"):
        contraction_matrix([r1, r2], cone=Cone((0.5,), 0.3, 1.0))


def test_level_one_matrix_is_symmetric_with_zero_diagonal(burgers_level1):
    matrix = burgers_level1.matrix
    assert np.abs(matrix.ratios - matrix.ratios.T).max() <= 1e-14
    assert np.abs(np.diag(matrix.ratios)).max() <= 1e-14
    assert np.abs(matrix.data_distances - matrix.data_distances.T).max() == 0.0
    assert np.abs(matrix.limit_distances - matrix.limit_distances.T).max() == 0.0


def test_level_one_stability_on_burgers(burgers_level1):
    stability = burgers_level1.stability
    assert stability.passed
    assert stability.worst_ratio <= 1.05
    assert stability.pairs == 36
    assert burgers_level1.selection.passed


def test_study_rejects_a_final_time_that_empties_the_cone(burgers_model):
    with pytest.raises(ValueError, match="cone"):
        GermStudy(burgers_model, final_time=2.0, epsilons=(3.2e-2, 1.6e-2))


# ---------------------------------------------------------------------------
# GermStudy.solve


def test_in_family_data_reuses_the_member_run(burgers_study, burgers_level1):
    member = burgers_level1.family.members[5]
    grid = burgers_study.comparison_grid
    u0 = Field(grid, member(grid.points()), 0.0)

    est = burgers_level1.estimate(u0)
    assert est.member_id == member.label
    assert est.approx_error == 0.0
    assert est.error_bar == est.delta_tail
    assert est.limit is burgers_level1.records[5].endpoints[-1]


def test_solve_agrees_with_the_level_estimate(two_flux_model):
    # solve runs the projected member alone; the level runs all nine in lockstep
    study = _tiny_study(two_flux_model)
    level = study.level_result(1)
    grid = study.comparison_grid
    x = grid.points()[..., 0]
    member = level.family.members[5]
    for values in (member(grid.points()), 0.3 + 0.4 * np.clip(1.0 - (x / 0.3) ** 2, 0.0, None)):
        u0 = Field(grid, values, 0.0)
        alone, from_level = study.solve(u0, 1), level.estimate(u0)
        assert alone.member_id == from_level.member_id
        assert (alone.error_bar, alone.approx_error, alone.delta_tail) == (
            from_level.error_bar, from_level.approx_error, from_level.delta_tail)
        assert alone.limit.grid == from_level.limit.grid and alone.limit.time == from_level.limit.time
        assert_array_equal(alone.limit.values.view(np.int64), from_level.limit.values.view(np.int64))
    assert from_level.approx_error > 0.0  # the second datum is off the family


def test_smooth_profile_bar_at_level_three(burgers_study):
    grid = burgers_study.comparison_grid
    box = burgers_study.box
    profile = lambda x: 0.5 + 0.25 * np.sin(np.pi * x)

    # quadrature oracle first: project by dense piece means with ties snapped
    # down, then integrate the dyadic approximation error
    xs = np.linspace(box.lows[0], box.highs[0], 160001)
    lattice = dyadic_values(0.0, 1.0, 3)
    piece_edges = np.linspace(box.lows[0], box.highs[0], 9)
    snapped = []
    for lo, hi in zip(piece_edges[:-1], piece_edges[1:]):
        mask = (xs >= lo) & (xs < hi)
        mean = np.trapezoid(profile(xs[mask]), xs[mask]) / (hi - lo)
        snapped.append(float(lattice[np.argmin(np.abs(mean - lattice))]))
    piece_of = np.clip(((xs - box.lows[0]) / (box.widths[0] / 8)).astype(int), 0, 7)
    member_vals = np.asarray(snapped)[piece_of]
    oracle_error = np.trapezoid(np.abs(profile(xs) - member_vals), xs)

    u0 = Field(grid, profile(grid.points()[..., 0]), 0.0)
    est = burgers_study.solve(u0, 3)
    expected_key = "".join(str(int(round(v * 8))) for v in snapped)
    assert est.member_id == f"L3-{expected_key}"
    assert est.approx_error == pytest.approx(oracle_error, abs=2e-3)
    assert est.error_bar == est.approx_error + est.delta_tail

    # dyadic interpolation bound: one lattice spacing over the box
    bound = (burgers_study.model.b - burgers_study.model.a) * 2.0 ** -3 * box.volume
    assert est.error_bar <= bound + est.delta_tail + 1e-12


def test_nearby_data_give_nearby_limits(burgers_study):
    grid = burgers_study.comparison_grid
    ua = Field(grid, np.full(grid.counts, 0.4), 0.0)
    ub = Field(grid, np.full(grid.counts, 0.1), 0.0)

    eta = l1_distance(ua, ub)
    ea = burgers_study.solve(ua, 1)
    eb = burgers_study.solve(ub, 1)
    out = l1_distance(ea.limit, eb.limit)
    assert out <= eta + ea.error_bar + eb.error_bar + 1e-12
    # the constant projections are steady, so this instance is tight
    assert out == pytest.approx(1.0, rel=1e-12)


def test_solve_requires_the_comparison_grid(burgers_study):
    other = Grid((-1.0,), (1.0,), (64,))
    with pytest.raises(ValueError, match="comparison grid"):
        burgers_study.solve(Field(other, np.zeros(other.counts), 0.0), 1)


def test_germ_solve_is_deterministic(two_flux_model, mini_study):
    grid = mini_study.comparison_grid
    x = grid.points()[..., 0]
    values = 0.25 + 0.5 * np.clip(1.0 - (x / 0.2) ** 2, 0.0, None) ** 2
    u0 = Field(grid, values, 0.0)

    est1 = mini_study.solve(u0, 1)
    fresh = GermStudy(two_flux_model, final_time=0.05, epsilons=(1.6e-2, 8e-3, 4e-3))
    est2 = fresh.solve(Field(fresh.comparison_grid, values.copy(), 0.0), 1)

    assert est1.member_id == est2.member_id
    assert est1.error_bar == est2.error_bar
    assert est1.delta_tail == est2.delta_tail
    assert_array_equal(est1.limit.values, est2.limit.values)


def test_steady_member_has_zero_error_bar(mini_study):
    grid = mini_study.comparison_grid
    est = mini_study.solve(Field(grid, np.zeros(grid.counts), 0.0), 1)
    assert est.member_id == "L1-00"
    assert est.approx_error == 0.0
    assert est.delta_tail == 0.0
    assert est.error_bar == 0.0
    assert_array_equal(est.limit.values, np.zeros(grid.counts))


def test_error_bar_covers_two_further_halvings(two_flux_model):
    # a member's reported bar is its delta tail (its approx_error is 0); the
    # tail extrapolated from the ladder 0.032 ... 0.004 must cover the L1
    # distance from the 0.004 endpoint to a solve two halvings finer.  One
    # run over all six epsilons puts every endpoint on the finest grid.
    box = Box((-0.5,), (0.5,))
    family = build_dense_family(1, two_flux_model.a, two_flux_model.b, box)
    records, _ = run_sequence({m.label: m for m in family.members},
                              (3.2e-2, 1.6e-2, 8e-3, 4e-3, 2e-3, 1e-3), two_flux_model, box, final_time=0.015,
                              cell_budget=DEFAULT_CELL_BUDGET, cfl=DEFAULT_CFL)
    moving = 0
    for record in records:
        gap = l1_distance(record.endpoints[3], record.endpoints[5])
        assert germ._delta_tail(record.deltas[:3]) >= gap, record.member_id
        moving += gap > 0
    assert moving == 7  # every member but the two constants


# ---------------------------------------------------------------------------
# completeness certification


def test_certify_completeness_passes_level_one(burgers_level1):
    assert burgers_level1.selection.passed and burgers_level1.stability.passed
    assert burgers_level1.family.level == 1


def test_certification_failure_raises(mini_study):
    # a three-epsilon ladder cannot feed the diagonal argument
    with pytest.raises(ValueError):
        mini_study.level_result(1)


# ---------------------------------------------------------------------------
# members solved on the process pool


def _tiny_study(model):
    return GermStudy(model, final_time=0.01, epsilons=(3.2e-2, 1.6e-2, 8e-3, 4e-3))


def test_pooled_records_equal_sequential_runs(two_flux_model, monkeypatch):
    # three usable CPUs, whatever this host has, so the pool path runs: one
    # task per epsilon, every member in lockstep
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    study = _tiny_study(two_flux_model)
    result = study.level_result(1)
    solver, tasks = result.counters["solver"], result.counters["tasks"]
    assert solver["workers"] == 3

    # the reference: each member alone, in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    members = study.family(1).members
    assert [r.member_id for r in result.records] == [m.label for m in members]
    alone = []
    for member, record in zip(members, result.records):
        (expected,), counters = run_sequence({member.label: member}, study.epsilons, study.model,
                                             study.box, study.final_time,
                                             cell_budget=study.cell_budget, cfl=study.cfl)
        assert counters["solver"]["workers"] == 1
        alone.append(counters["tasks"])
        assert expected.initial.grid == study.comparison_grid
        assert record.deltas == expected.deltas
        assert record.grid_counts == expected.grid_counts
        assert_array_equal(record.initial.values, expected.initial.values)
        for got, want in zip(record.endpoints, expected.endpoints):
            assert got.grid == want.grid and got.time == want.time
            assert_array_equal(got.values.view(np.int64), want.values.view(np.int64))

    # per epsilon, the pool's lockstep task counts the steps, stepper calls
    # and cell updates of the nine single-datum sweeps, not their run times
    assert [t["epsilon"] for t in tasks] == list(study.epsilons)
    for k, task in enumerate(tasks):
        assert task["data"] == 9
        for key in ("steps", "blocks", "cell_updates"):
            assert task[key] == sum(a[k][key] for a in alone)
        assert task["data"] <= task["blocks"] < task["steps"]

    # the solver block is folded from the tasks
    assert solver["runs"] == 9 * 4
    assert solver["steps"] == sum(t["steps"] for t in tasks)
    assert solver["blocks"] == sum(t["blocks"] for t in tasks)
    assert solver["cell_steps"] == sum(t["steps"] * c[0] for t, c in zip(tasks, result.records[0].grid_counts))
    assert solver["cell_updates"] == sum(t["cell_updates"] for t in tasks)
    assert 0 < solver["cell_updates"] <= solver["cell_steps"]
    assert solver["solve_s"] == sum(t["solve_s"] for t in tasks) > 0.0


def test_one_cpu_or_one_task_starts_no_pool(two_flux_model, monkeypatch):
    # starting a pool would call None and fail
    monkeypatch.setattr(multiprocessing, "get_context", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _tiny_study(two_flux_model).level_result(0).counters["solver"]["workers"] == 1

    # four CPUs, but one task
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert germ._map(lambda i: i + 10, 1) == ([10], 1)


class _InlinePool:
    """ProcessPoolExecutor's part that _map uses, run in this process."""

    def __init__(self, workers, mp_context=None, initializer=None, initargs=()):
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(i) for i in items]


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_tasks_are_submitted_finest_epsilon_first(two_flux_model, monkeypatch, cpus):
    import concurrent.futures

    order = []
    real = germ.run_lockstep

    def recording(u0s, configs):
        order.append((configs[0].epsilon, len(u0s)))
        return real(u0s, configs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(germ, "run_lockstep", recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    study = _tiny_study(two_flux_model)
    assert study.level_result(1).counters["solver"]["workers"] == len(cpus)
    # one task per epsilon, each stepping all nine members
    assert order == [(eps, 9) for eps in sorted(study.epsilons)]


def _planted(real, action):
    """run_lockstep that calls action() when member L1-02 (0 on the left
    half, 1 on the right) is among the fields."""

    def run_lockstep(u0s, configs):
        if any(u0.values[0] == 0.0 and u0.values[-1] == 1.0 for u0 in u0s):
            action()
        return real(u0s, configs)

    return run_lockstep


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_worker_errors_reraise_with_their_type(two_flux_model, monkeypatch, error):
    def fail():
        raise error("planted failure")

    monkeypatch.setattr(germ, "run_lockstep", _planted(germ.run_lockstep, fail))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(error, match="planted failure"):
        _tiny_study(two_flux_model).level_result(1)


def test_a_level_too_large_to_enumerate_is_refused_before_solving(two_flux_model, monkeypatch):
    # build_dense_family leaves an unenumerable family without members,
    # by the same member_count > MEMBER_CAP rule as the scenario's parse check
    monkeypatch.setattr(germ, "run_sequence", None)
    with pytest.raises(ValueError, match="family level 3 has 43046721 members, too many to enumerate"):
        _tiny_study(two_flux_model).level_result(3)
    monkeypatch.setattr(germ, "MEMBER_CAP", 1)
    with pytest.raises(ValueError, match="family level 0 has 2 members"):
        _tiny_study(two_flux_model).level_result(0)


def test_a_dead_worker_fails_the_level_instead_of_hanging(two_flux_model, monkeypatch):
    def on_alarm(*_):
        raise TimeoutError("level_result kept waiting on a dead worker")

    monkeypatch.setattr(germ, "run_lockstep", _planted(germ.run_lockstep, lambda: os._exit(1)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            _tiny_study(two_flux_model).level_result(1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# persistence


def test_level_result_persisted_layout(tmp_path):
    half = np.zeros(8)
    half[:4] = 1.0
    records = (
        _fake_record("m0", (0.04, 0.02, 0.01), np.zeros(8), np.zeros(8)),
        _fake_record("m1", (0.03, 0.015, 0.096 / 13), np.ones(8), np.full(8, 0.5)),
        _fake_record("m2", (0.02, 0.01, 0.005), half, np.full(8, 0.25)),
    )
    selection = diagonal_select(records, threshold=0.1)
    cone = Cone((0.5,), 0.4, 1.0)
    matrix = contraction_matrix(records, cone=cone)
    out = tmp_path / "level1"
    result = GermLevelResult(family=build_dense_family(1, 0.0, 1.0, UNIT_BOX), records=records,
                             selection=selection, matrix=matrix, stability=stability_report(matrix),
                             records_dir=str(out / "records"), counters={})
    for record in records:  # the directories the solving tasks write the record CSVs into
        (out / "records" / record.member_id).mkdir(parents=True)
    save_level_result(str(out / "manifest.json"), result, {"note": "unit"})

    manifest_path = out / "manifest.json"
    assert manifest_path.is_file()
    for name in ("data_distances.csv", "limit_distances.csv", "contraction_ratios.csv"):
        assert (out / name).is_file()
    for record in records:
        assert (out / "records" / record.member_id / "manifest.json").is_file()

    manifest = json.loads(manifest_path.read_text())
    assert manifest["level"] == 1
    assert manifest["members"] == ["m0", "m1", "m2"]
    assert manifest["selection"]["pass"] == selection.passed
    assert manifest["stability"]["pass"] == result.stability.passed
    assert manifest["contraction_cone"]["radius"] == 0.4
    assert manifest["note"] == "unit"

    path = out / "contraction_ratios.csv"
    assert path.read_text().splitlines()[0] == "id,m0,m1,m2"
    ratios = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 3))
    finite = np.isfinite(matrix.ratios)
    assert_array_equal(ratios[finite], matrix.ratios[finite])

    reloaded = json.loads((out / "records" / "m1" / "manifest.json").read_text())
    assert tuple(reloaded["deltas"]) == records[1].deltas


def test_level_records_written_by_their_tasks_get_only_a_manifest(two_flux_model, tmp_path, monkeypatch):
    study = _tiny_study(two_flux_model)
    result = study.level_result(1, str(tmp_path / "level" / "records"))
    assert result.records_dir == str(tmp_path / "level" / "records")
    assert sorted(p.name for p in (tmp_path / "level" / "records").iterdir()) == sorted(
        m.label for m in result.family.members)
    tasks = result.counters["tasks"]
    assert [len(tasks), sum(t["data"] for t in tasks)] == [4, 4 * 9]

    # saved beside those CSVs, no record CSV is written again
    written = []
    monkeypatch.setattr(storage, "write_field_csv", lambda path, field: written.append(path))
    save_level_result(str(tmp_path / "level" / "manifest.json"), result, {})
    assert written == []
    for record in result.records:
        manifest = json.loads((tmp_path / "level" / "records" / record.member_id / "manifest.json").read_text())
        assert tuple(manifest["deltas"]) == record.deltas

    # saved anywhere else, or solved without a records directory, the
    # manifests would point at missing CSVs: refused before any file is written
    (tmp_path / "elsewhere").mkdir()
    for elsewhere in (result, study.level_result(0)):
        with pytest.raises(ValueError, match=f"not in {tmp_path / 'elsewhere' / 'records'}"):
            save_level_result(str(tmp_path / "elsewhere" / "manifest.json"), elsewhere, {})
    assert written == [] and not any((tmp_path / "elsewhere").iterdir())
