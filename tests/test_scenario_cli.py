"""Scenario file validation and the command line front end."""

import copy
import importlib.util
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import discflux
from conftest import CURVED_MODULATED_SPEC
from discflux import entropy, germ, storage
from discflux.cli import build_parser, main
from discflux.geometry import Box
from discflux.scenario import (
    SCENARIO_KINDS,
    ScenarioError,
    builtin_scenario_names,
    builtin_scenario_path,
    initial_values_at,
    parse_scenario,
    scenario_from_dict,
)
from discflux.solver import Field, Grid, RunConfig, run


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_doc(**overrides):
    doc = {
        "name": "cheap_run",
        "kind": "run",
        "flux": "burgers",
        "domain": {"lows": [-0.5], "highs": [0.5]},
        "grid": {"counts": [64]},
        "run": {"epsilon": 0.008, "final_time": 0.02, "boundary": [[0.0, 1.0]],
                "output_count": 5},
        "initial": {"kind": "riemann", "left": 0.0, "right": 1.0, "position": 0.0},
    }
    doc.update(overrides)
    return doc


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# parsing and validation


def test_builtin_scenarios_parse_and_roundtrip():
    names = builtin_scenario_names()
    assert names == (
        "burgers_rarefaction",
        "burgers_shock",
        "cone_burgers",
        "germ_level1",
        "kato_burgers",
        "tilted_flatten_2d",
        "two_flux_admissibility",
        "two_flux_interface",
    )
    for name in names:
        path = builtin_scenario_path(name)
        sc = parse_scenario(path)
        assert sc.kind in SCENARIO_KINDS
        assert sc.name == name
        with open(path) as fh:
            assert sc.raw == json.load(fh)
        # both hypotheses hold: the slopes of lam (1 - lam) give minors of 1
        # in 1d, tilted_2d's smallest is 0.3
        minor_max = 0.3 if name == "tilted_flatten_2d" else 1.0
        assert sc.hypotheses == {"boundary_max": 0.0, "minor_max": pytest.approx(minor_max)}
    with pytest.raises(ScenarioError, match="no builtin scenario"):
        builtin_scenario_path("not_a_scenario")


def test_unknown_key_is_named_with_a_pointer():
    # smoothing_width: one epsilon drives both the viscosity and the interface smoothing
    for key in ("epslon", "smoothing_width"):
        doc = _run_doc()
        doc["run"] = {key: 0.01, "final_time": 0.02, "boundary": 0.0, "epsilon": 0.008}
        with pytest.raises(ScenarioError, match=key) as err:
            scenario_from_dict(doc)
        assert "/run" in str(err.value)


def test_nonpositive_epsilon_cites_the_field():
    doc = _run_doc()
    doc["run"] = dict(doc["run"], epsilon=0.0)
    with pytest.raises(ScenarioError, match="/run/epsilon"):
        scenario_from_dict(doc)


def test_unknown_preset_lists_the_alternatives():
    with pytest.raises(ScenarioError, match="unknown preset.*burgers"):
        scenario_from_dict(_run_doc(flux="burger"))


def test_kind_and_required_blocks_validated():
    with pytest.raises(ScenarioError, match="/kind"):
        scenario_from_dict(_run_doc(kind="explode"))
    doc = _run_doc()
    del doc["initial"]
    with pytest.raises(ScenarioError, match="initial"):
        scenario_from_dict(doc)
    with pytest.raises(ScenarioError, match="extra"):
        scenario_from_dict(_run_doc(extra=1))


def test_grid_counts_must_match_the_flux_dimension():
    doc = _run_doc(flux="tilted_2d")
    del doc["domain"]
    with pytest.raises(ScenarioError, match="/grid/counts"):
        scenario_from_dict(doc)
    # a domain is checked against the flux's dimension before the flux is built
    with pytest.raises(ScenarioError, match="^/domain: expected 1 coordinates$"):
        scenario_from_dict(_run_doc(domain={"lows": [-0.5, -0.5], "highs": [0.5, 0.5]}))
    inline = {"d": 2, "a": 0.0, "b": 1.0, "interface": None,
              "left": [{"poly_lambda": [0.0, 1.0, -1.0]}] * 2}
    with pytest.raises(ScenarioError, match="^/domain: expected 2 coordinates$"):
        scenario_from_dict(_run_doc(flux=inline, grid={"counts": [16, 16]}))


def test_domain_override_boundary_and_output_times():
    doc = _run_doc(domain={"lows": [-0.25], "highs": [0.25]})
    doc["run"] = {"epsilon": 0.008, "final_time": 0.02, "boundary": 0.5, "output_count": 3}
    doc["initial"] = {"kind": "constant", "value": 0.5}
    sc = scenario_from_dict(doc)
    assert sc.model.domain == Box((-0.25,), (0.25,))
    assert sc.grid.counts == (64,)
    assert sc.config.boundary == 0.5
    assert sc.config.output_times == (0.0, 0.01, 0.02)

    pairs = scenario_from_dict(_run_doc())
    assert pairs.config.boundary == ((0.0, 1.0),)


def test_inline_flux_object(tmp_path, capsys):
    doc = _run_doc(flux={
        "d": 1,
        "a": 0.0,
        "b": 1.0,
        "interface": {"axis": 1, "zeta": {"kind": "zero"}},
        "left": [{"poly_lambda": [0.0, 1.0, -1.0]}],
        "right": [{"poly_lambda": [0.0, 2.0, -2.0]}],
    })
    sc = scenario_from_dict(doc)
    assert sc.model.d == 1
    assert sc.model.interface is not None
    assert sc.model.domain == Box((-0.5,), (0.5,))

    bad = dict(doc)
    bad["flux"] = dict(doc["flux"], d=3)
    with pytest.raises(ScenarioError, match="/flux"):
        scenario_from_dict(bad)

    # the paper's hypothesis f(x, a) = f(x, b) = 0: here f(x, 0) = 1
    bad["flux"] = {"d": 1, "a": 0, "b": 1, "interface": None, "left": [{"poly_lambda": [1, 1, -1]}]}
    with pytest.raises(ScenarioError, match=r"^/flux: the flux must vanish at a = 0.0 and b = 1.0, "
                                            r"but \|f\| = 1 at state 0.0 and x = \(-0.5\)$"):
        scenario_from_dict(bad)
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, bad), "--out", str(out)]) == 1
    assert "scenario error: /flux: the flux must vanish" in capsys.readouterr().err
    assert not out.exists()


def test_degenerate_flux_is_refused_with_its_direction(tmp_path, capsys):
    # xi = (2, -1) / sqrt 5 makes xi . f of (lam (1 - lam), 2 lam (1 - lam)) vanish
    doc = _run_doc(domain={"lows": [-1.0, -1.0], "highs": [1.0, 1.0]}, grid={"counts": [16, 16]},
                   flux={"d": 2, "a": 0, "b": 1, "interface": None,
                         "left": [{"poly_lambda": [0, 1, -1]}, {"poly_lambda": [0, 2, -2]}]})
    doc["run"]["boundary"] = 0.0
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "scenario error: /flux: the left flux is degenerate: xi . f(x, lam) does not depend on lam for "
        "xi = (-0.894427, 0.447214) at x = (-1, -1), and no 2 x 2 minor of its slopes exceeds 0 on the box"]
    assert not out.exists()


def test_overflowing_flux_is_refused_in_one_line(tmp_path, capsys):
    # the coefficient table overflows to inf and NaN: the refusal is the only
    # thing written, with no numpy warning ahead of it
    doc = _run_doc(flux={"d": 1, "a": 0, "b": 1, "interface": None,
                         "left": [{"poly_lambda": [0, 1e200, -1e200], "x_modulation": "affine",
                                   "x_modulation_coeffs": [1e200, 0]}]})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        "scenario error: /flux: the flux must vanish at a = 0.0 and b = 1.0, but |f| = nan at state 0.0 "
        "and x = (-0.5)"]
    assert not out.exists()


def test_boundary_zero_reads_the_box_corners():
    # f(x, 0) = delta (1 + x) on [-1, 1] peaks at the corner x = 1 with
    # 2 delta = 1.002e-12, just above the tolerance; sampled points inside
    # the box stay below it
    delta = 1e-12 / 1.996
    doc = _run_doc(domain={"lows": [-1.0], "highs": [1.0]}, flux={
        "d": 1, "a": 0, "b": 1, "interface": None,
        "left": [{"poly_lambda": [delta, 1, -1], "x_modulation": "affine", "x_modulation_coeffs": [1, 1]}]})
    with pytest.raises(ScenarioError, match=r"^/flux: the flux must vanish at a = 0.0 and b = 1.0, "
                                            r"but \|f\| = 1.002e-12 at state 0.0 and x = \(1\)$"):
        scenario_from_dict(doc)


def _tilted_run_doc(**overrides):
    doc = _run_doc(flux="tilted_2d", grid={"counts": [16, 16]}, initial={"kind": "constant", "value": 0.2},
                   **overrides)
    del doc["domain"]
    doc["run"] = dict(doc["run"], boundary=0.2)
    return doc


def test_a_chart_ball_is_refused(tmp_path, capsys):
    # a chart is the switch true and nothing else, refused as one line
    doc = _tilted_run_doc(chart={"center": [0, 0], "radius": 1.2})
    with pytest.raises(ScenarioError, match="^/chart: True was expected$"):
        scenario_from_dict(doc)
    assert main(["run", _write(tmp_path, doc), "--quiet"]) == 1
    assert capsys.readouterr().err == "scenario error: /chart: True was expected\n"


def test_a_chart_is_accepted_on_a_run_with_an_interface():
    assert scenario_from_dict(_tilted_run_doc(chart=True)).chart is True
    assert scenario_from_dict(_tilted_run_doc()).chart is False


def test_a_chart_is_refused_on_a_flux_without_an_interface():
    # burgers has no interface to flatten
    with pytest.raises(ScenarioError, match="^/chart: a chart needs a flux with an interface$"):
        scenario_from_dict(_run_doc(chart=True))


def test_a_chart_is_refused_on_every_kind_but_run():
    # only the run command flattens and re-solves on a chart
    doc = _run_doc(kind="entropy-check", flux="two_flux", chart=True)
    with pytest.raises(ScenarioError, match="^/chart: only a run reads a chart, not entropy-check$"):
        scenario_from_dict(doc)
    assert scenario_from_dict(dict(doc, kind="run")).chart is True


def test_study_schemas_are_kind_specific():
    doc = _run_doc(kind="kato-check", study={})
    with pytest.raises(ScenarioError, match="/study"):
        scenario_from_dict(doc)

    doc = _run_doc(kind="germ", study={"level": 5, "epsilons": [0.032, 0.016, 0.008, 0.004]})
    with pytest.raises(ScenarioError, match="/study/level"):
        scenario_from_dict(doc)

    doc = _run_doc(kind="converge", study={"epsilons": [0.01]})
    with pytest.raises(ScenarioError, match="/study/epsilons"):
        scenario_from_dict(doc)

    doc = _run_doc(kind="germ",
                   study={"level": 1, "epsilons": [0.032, 0.016, 0.008, 0.004],
                          "solve_target": {"kind": "blob"}})
    with pytest.raises(ScenarioError, match="/study/solve_target"):
        scenario_from_dict(doc)


# a shipped scenario of each kind
KIND_SCENARIOS = {"run": "tilted_flatten_2d", "entropy-check": "burgers_shock", "kato-check": "kato_burgers",
                  "cone-check": "cone_burgers", "converge": "two_flux_interface", "germ": "germ_level1"}


def _shipped_doc(kind):
    return json.loads(open(builtin_scenario_path(KIND_SCENARIOS[kind])).read())


@pytest.mark.parametrize("kind, block, key, value", [
    ("entropy-check", "run", "output_times", [0.0, 0.25, 0.5]),
    ("entropy-check", "study", "bumps", 6),
    ("kato-check", "study", "bumps", 6),
    ("kato-check", "study", "tol_factor", 0.001),
    ("run", "study", "tol_factor", 0.01),
    ("cone-check", "study", "tol", 0.01),
    ("converge", "study", "cell_budget", 32768),
    ("germ", "study", "cell_budget", 32768),
    ("germ", "study", "threshold", 0.05),
])
def test_values_the_code_fixes_are_unknown_keys(kind, block, key, value):
    # the output times, bump count, cell budget, selection threshold and the
    # tolerances that only one value reached are constants, not scenario keys
    doc = _shipped_doc(kind)
    doc.setdefault(block, {})[key] = value
    with pytest.raises(ScenarioError, match=fr"^/{block}: Additional properties are not allowed \('{key}' unexpected\)$"):
        scenario_from_dict(doc)


def test_cli_refuses_a_fixed_value_and_parses_the_tuning_that_stays(tmp_path, capsys):
    doc = _shipped_doc("cone-check")
    doc["study"]["tol"] = 0.01
    out = tmp_path / "out"
    assert main(["cone-check", _write(tmp_path, doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "scenario error: /study: Additional properties are not allowed ('tol' unexpected)\n")
    assert not out.exists()
    # an entropy check's tol_factor (1e-3 and 1e-2 are in use), the cfl, the
    # output count and a germ's solve target remain scenario inputs
    doc = _shipped_doc("entropy-check")
    doc["run"].update(cfl=0.25, output_count=5)
    doc["study"] = {"tol_factor": 0.01}
    sc = scenario_from_dict(doc)
    assert (sc.study, sc.config.cfl, sc.config.output_times) == ({"tol_factor": 0.01}, 0.25,
                                                                 (0.0, 0.125, 0.25, 0.375, 0.5))
    doc = _shipped_doc("germ")
    doc["study"]["solve_target"] = {"kind": "constant", "value": 0.5}
    assert scenario_from_dict(doc).study["solve_target"] == {"kind": "constant", "value": 0.5}


def test_parse_file_errors(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        parse_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        parse_scenario(bad)
    bad.write_bytes(b'{"name": "\xff"}')
    with pytest.raises(ScenarioError, match="not valid JSON: 'utf-8' codec can't decode"):
        parse_scenario(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ScenarioError, match="top level"):
        parse_scenario(arr)


def test_scenario_name_defaults_to_the_file_stem(tmp_path):
    doc = _run_doc()
    del doc["name"]
    sc = parse_scenario(_write(tmp_path, doc, "quick_look.json"))
    assert sc.name == "quick_look"


# ---------------------------------------------------------------------------
# initial data evaluation

BOX_1D = Box((-0.5,), (0.5,))


def test_initial_kinds_evaluate():
    pts = np.array([[-0.3], [-0.1], [0.0], [0.1], [0.3]])

    const = initial_values_at({"kind": "constant", "value": 0.4}, pts, 0.0, 1.0, BOX_1D)
    assert_array_equal(const, np.full(5, 0.4))

    riem = initial_values_at({"kind": "riemann", "left": 0.2, "right": 0.8, "position": 0.0},
                             pts, 0.0, 1.0, BOX_1D)
    assert_array_equal(riem, [0.2, 0.2, 0.8, 0.8, 0.8])

    block = initial_values_at({"kind": "block", "inside": 1.0, "outside": 0.0,
                               "lows": [0.1], "highs": [0.3]}, pts, 0.0, 1.0, BOX_1D)
    assert_array_equal(block, [0.0, 0.0, 0.0, 1.0, 0.0])

    spec = {"kind": "bump", "base": 0.1, "amplitude": 0.5, "center": [0.0], "radius": 0.2}
    bump = initial_values_at(spec, pts, 0.0, 1.0, BOX_1D)
    r = np.abs(pts[:, 0]) / 0.2
    oracle = 0.1 + 0.5 * np.where(r < 1, (1 - np.minimum(r, 1) ** 2) ** 2, 0.0)
    assert_allclose(bump, oracle, rtol=1e-15)

    steps = initial_values_at({"kind": "steps", "breakpoints": [0.0], "values": [1.0, 2.0]},
                              pts, 0.0, 2.0, BOX_1D)
    # the breakpoint belongs to the right piece
    assert_array_equal(steps, [1.0, 1.0, 2.0, 2.0, 2.0])


def test_random_steps_are_seeded():
    # the spec's own seed is the one seed; a spec without it draws from seed 0
    pts = np.linspace(-0.5, 0.5, 33)[:, None]
    spec = {"kind": "random_steps", "pieces": 8}
    a = initial_values_at(dict(spec, seed=3), pts, 0.0, 1.0, BOX_1D)
    b = initial_values_at(dict(spec, seed=3), pts, 0.0, 1.0, BOX_1D)
    c = initial_values_at(dict(spec, seed=4), pts, 0.0, 1.0, BOX_1D)
    assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0.0 and a.max() <= 1.0
    unseeded = initial_values_at(spec, pts, 0.0, 1.0, BOX_1D)
    assert unseeded.tobytes() == initial_values_at(dict(spec, seed=0), pts, 0.0, 1.0, BOX_1D).tobytes()


@pytest.mark.parametrize("pieces", [3, 5])
def test_random_steps_do_not_depend_on_the_grid(pieces):
    # the pieces cut the domain's first axis, not the extent of the points
    # sampled, so every grid (and a single point) sees the same datum
    spec = {"kind": "random_steps", "pieces": pieces, "seed": 5}
    width = 1.0 / pieces
    mids = -0.5 + width * (np.arange(pieces) + 0.5)
    values = initial_values_at(spec, mids[:, None], 0.0, 1.0, BOX_1D)
    assert len(set(values.tolist())) == pieces
    for k, mid in enumerate(mids):
        assert initial_values_at(spec, [[mid]], 0.0, 1.0, BOX_1D)[0] == values[k]
    for n in (8, 64, 1024):
        x = Grid((-0.5,), (0.5,), (n,)).points()
        piece = np.searchsorted(-0.5 + width * np.arange(1, pieces), x[:, 0], side="right")
        assert_array_equal(initial_values_at(spec, x, 0.0, 1.0, BOX_1D), values[piece])


def test_initial_data_validation_errors():
    # the data are checked at parse time, under the spec's own pointer
    with pytest.raises(ScenarioError, match=r"^/initial: values reach \[1.5, 1.5\], outside the state interval"):
        scenario_from_dict(_run_doc(initial={"kind": "constant", "value": 1.5}))
    with pytest.raises(ScenarioError, match="^/initial: .*increase"):
        scenario_from_dict(_run_doc(initial={"kind": "steps", "breakpoints": [0.2, 0.1],
                                             "values": [0.1, 0.2, 0.3]}))
    with pytest.raises(ScenarioError, match="^/initial: .*one more value"):
        scenario_from_dict(_run_doc(initial={"kind": "steps", "breakpoints": [0.0],
                                             "values": [0.1, 0.2, 0.3]}))
    with pytest.raises(ScenarioError, match="^/initial: .*length 1"):
        scenario_from_dict(_run_doc(initial={"kind": "block", "inside": 1.0, "outside": 0.0,
                                             "lows": [0.1, 0.1], "highs": [0.3, 0.3]}))
    with pytest.raises(ScenarioError, match="blob"):
        scenario_from_dict(_run_doc(initial={"kind": "blob"}))


def test_study_initial_data_is_checked_under_its_own_pointer():
    bump = {"kind": "bump", "base": 0.1, "amplitude": 0.5, "center": [0.0, 0.0], "radius": 0.2}
    with pytest.raises(ScenarioError, match="^/study/initial_b: bump center must have length 1"):
        scenario_from_dict(_run_doc(kind="kato-check", study={"initial_b": bump}))
    with pytest.raises(ScenarioError, match="^/study/perturbation: bump center must have length 1"):
        scenario_from_dict(_run_doc(kind="cone-check", study={
            "cone": {"center": [0.0], "radius": 0.2}, "perturbation": bump}))
    with pytest.raises(ScenarioError, match="^/study/solve_target/axis: riemann axis 2 outside 1..1"):
        scenario_from_dict(_run_doc(kind="germ", study={
            "level": 1, "epsilons": [0.032, 0.016, 0.008, 0.004],
            "solve_target": {"kind": "riemann", "left": 0.2, "right": 0.8, "position": 0.0, "axis": 2}}))
    # the values a spec states lie in [a, b] = [0, 1]; a perturbation's in
    # [a - b, b - a] = [-1, 1], so that it may lower the state
    with pytest.raises(ScenarioError, match=r"^/study/perturbation: values reach \[0.0, 1.2\]"):
        scenario_from_dict(_run_doc(kind="cone-check", study={
            "cone": {"center": [0.0], "radius": 0.2},
            "perturbation": {"kind": "block", "inside": 1.2, "outside": 0.0, "lows": [0.3], "highs": [0.4]}}))
    with pytest.raises(ScenarioError, match=r"^/study/perturbation: values reach \[-1.2, 0.0\]"):
        scenario_from_dict(_run_doc(kind="cone-check", study={
            "cone": {"center": [0.0], "radius": 0.2},
            "perturbation": dict(bump, center=[0.45], base=0.0, amplitude=-1.2)}))
    cone_doc = json.loads(open(builtin_scenario_path("cone_burgers")).read())
    cone_doc["study"]["perturbation"] = {"kind": "bump", "base": 0.0, "amplitude": -0.2,
                                         "center": [0.45], "radius": 0.04}
    lowered = scenario_from_dict(cone_doc)
    assert lowered.perturbation().min() == pytest.approx(-0.2, abs=1e-3)
    assert lowered.perturbation().max() == 0.0
    with pytest.raises(ScenarioError, match=r"^/study/solve_target: values reach \[0.6, 1.1\]"):
        scenario_from_dict(_run_doc(kind="germ", study={
            "level": 1, "epsilons": [0.032, 0.016, 0.008, 0.004],
            "solve_target": dict(bump, center=[0.0], base=0.6)}))
    with pytest.raises(ScenarioError, match=r"^/initial: values reach \[-0.1, 0.5\]"):
        scenario_from_dict(_run_doc(initial={"kind": "steps", "breakpoints": [0.0], "values": [-0.1, 0.5]}))
    steps_2d = _run_doc(flux="tilted_2d", grid={"counts": [16, 16]},
                        initial={"kind": "random_steps", "pieces": 4})
    del steps_2d["domain"]
    steps_2d["run"] = dict(steps_2d["run"], boundary=0.2)
    with pytest.raises(ScenarioError, match="^/initial: random_steps data is one-dimensional"):
        scenario_from_dict(steps_2d)


def test_initial_field_seed_plumbing(tmp_path):
    # a scenario's random_steps data come from the spec's seed key alone
    def values(**seed):
        doc = _run_doc(initial={"kind": "random_steps", "pieces": 6, **seed})
        return parse_scenario(_write(tmp_path, doc)).initial_field().values
    assert not np.array_equal(values(seed=3), values(seed=4))
    assert_array_equal(values(seed=3), values(seed=3))
    assert values().tobytes() == values(seed=0).tobytes()


# ---------------------------------------------------------------------------
# CLI exit contract


def test_cli_usage_errors(tmp_path, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["run"]) == 1
    assert main(["--help"]) == 0
    # the scenario file is the one source of a scenario's inputs: every
    # scenario command takes --out, --quiet and --debug and no other flag,
    # and diff, which has no scenario, also --tol and --sup-tol
    out = ["--out", str(tmp_path / "out")]
    shipped = {parse_scenario(builtin_scenario_path(name)).kind: name for name in builtin_scenario_names()}
    assert set(shipped) == set(SCENARIO_KINDS)
    for (kind, name), flag in itertools.product(shipped.items(), ("--seed", "--tol", "--cell-budget")):
        assert main([kind, name, flag, "1", *out]) == 1, (kind, flag)
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err, (kind, flag)
    for argv in (["diff", "a.csv", "b.csv", *out],
                 ["diff", "a.csv", "b.csv", "--seed", "1"],
                 ["diff", "a.csv", "b.csv", "--cell-budget", "1"]):
        assert main(argv) == 1, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    assert not (tmp_path / "out").exists()
    parser = build_parser()
    for kind in SCENARIO_KINDS:
        args = vars(parser.parse_args([kind, "x", "--out", "o", "--quiet", "--debug"]))
        assert args.keys() == {"command", "scenario", "out", "quiet", "debug", "func"}, kind
    args = parser.parse_args(["diff", "a", "b", "--tol", "0.5", "--sup-tol", "0.25"])
    assert (args.tol, args.sup_tol) == (0.5, 0.25)


def test_cli_refuses_a_nan_or_negative_tolerance_at_parse_time(tmp_path, capsys):
    # a NaN tolerance would fail every comparison and a negative one every
    # check: both are refused before a field is read
    grid = Grid((0.0,), (1.0,), (8,))
    field = str(tmp_path / "a.csv")
    storage.write_field_csv(field, Field(grid, np.zeros(8), 0.0))
    for value in ("nan", "-1", "-inf", "x"):
        for flag in ("--tol", "--sup-tol"):
            assert main(["diff", field, field, flag, value]) == 1, (flag, value)
            assert f"argument {flag}: " in capsys.readouterr().err, (flag, value)
    # zero and inf are numbers >= 0: inf is --sup-tol's default
    assert main(["diff", field, field, "--tol", "0", "--sup-tol", "inf", "--quiet"]) == 0


def test_cli_refuses_a_run_whose_cost_estimate_is_too_high(tmp_path, capsys):
    # burgers on 400 cells with eps = 10: dt_base = 2.8e-7, so T = 1 would
    # take 3.6 million steps; the diffusion term shows it at parse time,
    # before --out is made (the solver's own refusal is in test_solver)
    doc = json.loads(open(builtin_scenario_path("burgers_shock")).read())
    doc["run"].update(epsilon=10.0, final_time=1.0)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["entropy-check", _write(tmp_path, doc), "--out", str(out)]) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err == "scenario error: /run: about 1.415e+09 cell-steps, above the limit of 1e+09\n"
    assert not out.exists()


def test_a_run_without_an_output_count_is_priced_with_its_default_outputs():
    # about 0.22 diffusion steps, but the solver records DEFAULT_OUTPUT_COUNT
    # times, so at least 8 steps of 2e8 cells: refused, before any array exists
    doc = _run_doc(domain={"lows": [-1.0], "highs": [1.0]}, grid={"counts": [200000000]})
    doc["run"] = {"epsilon": 1e-3, "final_time": 1e-14, "boundary": 0.0}
    with pytest.raises(ScenarioError, match=r"^/run: about 1\.600e\+09 cell-steps, above the limit of 1e\+09$"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("name", builtin_scenario_names())
def test_parse_time_cost_estimate_is_a_lower_bound(name, monkeypatch):
    # the parse-time estimate may refuse only runs the solver would: with
    # the limit at the most cell-steps a run of the scenario actually takes
    # (the run block's, or in a converge or germ study, which never solves
    # the run block, each epsilon's run on its ladder grid), every shipped
    # scenario still parses; a tenth of it refuses them (an estimate reads
    # 17-67% of its run's actual count)
    sc = parse_scenario(builtin_scenario_path(name))
    if sc.kind in ("converge", "germ"):
        _, counters = germ.run_sequence({sc.name: lambda pts: sc.values_at(sc.initial, pts)},
                                        sc.study["epsilons"], sc.model, sc.model.domain, sc.config.final_time,
                                        sc.config.cfl,
                                        boundary=sc.config.boundary if sc.kind == "converge" else None)
        cell_steps = max(
            np.prod([n - 2 for n in germ.grid_for_epsilon(sc.model.domain, task["epsilon"]).counts])
            * task["steps"] for task in counters["tasks"])
    else:
        manifest = run(sc.initial_field(), sc.config).manifest
        cell_steps = np.prod([n - 2 for n in sc.grid.counts]) * manifest["n_steps"]
    monkeypatch.setattr("discflux.scenario.MAX_CELL_STEPS", cell_steps)
    parse_scenario(builtin_scenario_path(name))
    monkeypatch.setattr("discflux.scenario.MAX_CELL_STEPS", cell_steps // 10)
    with pytest.raises(ScenarioError, match="cell-steps, above the limit"):
        parse_scenario(builtin_scenario_path(name))


@pytest.mark.parametrize("grid, run", [([64], {"output_count": 1000000000000}), ([4000000], {}),
                                       ([10 ** 160], {}), ([10 ** 200], {})],
                         ids=["output_count", "cells", "cells-1e160", "cells-1e200"])
def test_cli_refuses_huge_output_counts_and_grids_before_allocating(tmp_path, grid, run):
    # np.linspace once asked for 7.28 TiB for the first, and the second
    # reached 214 MiB of RSS before the solver refused it; the child's peak
    # is read from VmHWM, which exec resets (ru_maxrss keeps the parent's).
    # The estimate saturates to inf on the last two, where h ** -2 overflowed
    # and eps / (h * h) would divide by zero
    doc = json.loads(open(builtin_scenario_path("burgers_shock")).read())
    doc["grid"]["counts"] = grid
    doc["run"].update(run)
    out = tmp_path / "out"
    argv = ["entropy-check", _write(tmp_path, doc), "--out", str(out)]
    src = os.path.dirname(os.path.dirname(discflux.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import json, sys, discflux.cli\n"
            "code = discflux.cli.main(json.loads(sys.argv[1]))\n"
            "print(code, *[ln.split()[1] for ln in open('/proc/self/status') if ln.startswith('VmHWM')])\n")
    child = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], env=env,
                           capture_output=True, text=True, check=True)
    code, rss_kib = map(int, child.stdout.split())
    assert code == 1 and rss_kib < 100 * 1024
    err = child.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("scenario error: /run: about ")
    assert err[0].endswith("cell-steps, above the limit of 1e+09")
    assert not out.exists()


def _ladder_doc(name, **study):
    doc = json.loads(open(builtin_scenario_path(name)).read())
    doc["study"].update(study)
    return doc


def _wide_germ_doc():
    # a level-0 germ on [-2, 2] to T = 0.8: the 0.0005 rung's 32768 cells
    # fit the cell budget, its steps do not fit MAX_CELL_STEPS
    doc = _ladder_doc("germ_level1", level=0, epsilons=[0.008, 0.004, 0.002, 0.0005])
    doc["domain"] = {"lows": [-2.0], "highs": [2.0]}
    doc["run"]["final_time"] = 0.8
    return doc


@pytest.mark.parametrize("kind, doc, message", [
    ("germ", _ladder_doc("germ_level1", epsilons=[0.004, 0.002, 0.001]),
     r"/study/epsilons: \[0.004, 0.002, 0.001\] is too short"),
    ("germ", _ladder_doc("germ_level1", epsilons=[0.004, 0.002, 0.002, 0.001]),
     r"/study/epsilons: \[0.004, 0.002, 0.002, 0.001\] does not strictly decrease"),
    ("converge", _ladder_doc("two_flux_interface", epsilons=[0.0005, 0.001, 0.002, 0.004]),
     r"/study/epsilons: \[0.0005, 0.001, 0.002, 0.004\] does not strictly decrease"),
    ("germ", _wide_germ_doc(), r"/study/epsilons/3: about 1\.\d{3}e\+09 cell-steps, above the limit of 1e\+09"),
    # 4 * width / eps is inf: no power of two counts the cells
    ("converge", _ladder_doc("two_flux_interface", epsilons=[0.004, 1e-310]), r"/study/epsilons/1: .+"),
], ids=["germ-three-epsilons", "germ-repeated", "converge-increasing", "germ-rung-cost", "converge-tiny-eps"])
def test_cli_refuses_bad_epsilon_ladders_before_solving(tmp_path, capsys, kind, doc, message):
    # every rung of the ladder is checked at parse time: none is solved, and
    # --out is not made
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main([kind, _write(tmp_path, doc), "--out", str(out)]) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch("scenario error: " + message, err[0]), err
    assert not out.exists()


@pytest.mark.parametrize("name", ["germ_level1", "two_flux_interface"])
def test_ladders_are_priced_on_their_rungs_not_on_the_run_block(name, monkeypatch):
    # converge and germ never solve grid and run.epsilon, and their rungs are
    # priced under /study/epsilons/<i>: a grid the run block could not afford
    # parses, and the same document as a run is still refused
    doc = _ladder_doc(name)
    doc["grid"]["counts"] = [4000000]
    assert scenario_from_dict(doc).grid.counts == (4000000,)
    with pytest.raises(ScenarioError, match=r"^/run: about \S+ cell-steps, above the limit"):
        scenario_from_dict(dict(doc, kind="run", study={}))
    # each rung outputs at the final time alone, so a ladder builds no run
    # output times: an output count that the run block alone would price is
    # never turned into a (7.28 TiB) time table
    doc["grid"]["counts"] = [400]
    doc["run"]["output_count"] = 1000000000000

    def linspace(start, stop, num=50, **kwargs):
        assert num < 10 ** 6, "a ladder built the run block's output times"
        return real_linspace(start, stop, num, **kwargs)

    real_linspace = np.linspace
    monkeypatch.setattr(np, "linspace", linspace)
    assert scenario_from_dict(doc).config.output_times is None
    with pytest.raises(ScenarioError, match=r"^/run: about \S+ cell-steps, above the limit"):
        scenario_from_dict(dict(doc, kind="run", study={}))


def test_cli_refuses_a_germ_level_too_large_to_enumerate(tmp_path, capsys):
    # level 3 in 1d has 9^8 members: refused at parse time, before --out is made
    out = tmp_path / "out"
    assert main(["germ", _write(tmp_path, _ladder_doc("germ_level1", level=3)), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "scenario error: /study/level: level 3 has 43046721 members in 1d, more than the 100000 a study enumerates"]
    assert not out.exists()
    # in 2d level 1 has 3^4 members and level 2 has 5^16
    doc = _run_doc(kind="germ", flux="tilted_2d", domain={"lows": [-0.5, -0.5], "highs": [0.5, 0.5]},
                   grid={"counts": [16, 16]}, run={"epsilon": 0.008, "final_time": 0.02, "boundary": 0.0},
                   initial={"kind": "constant", "value": 0.5},
                   study={"level": 1, "epsilons": [0.128, 0.064, 0.048, 0.032]})
    scenario_from_dict(doc)
    doc["study"]["level"] = 2
    with pytest.raises(ScenarioError, match=r"^/study/level: level 2 has 152587890625 members in 2d"):
        scenario_from_dict(doc)


def test_the_benchmark_germ_document_parses(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    for final_time in (workloads.GERM_FINAL_TIME, workloads.GERM_FINAL_TIME_SHORT):
        sc = scenario_from_dict(workloads.GermSweep(7, str(tmp_path), final_time).scenario())
        assert sc.kind == "germ" and len(sc.study["epsilons"]) == 4


def test_cli_import_leaves_test_only_dependencies_unloaded(tmp_path):
    # scipy and jsonschema are test-only dependencies: the Halton points and
    # the grid interpolation are numpy, and scenarios are validated by
    # discflux.scenario itself, so neither importing the CLI nor running the
    # samplers (batteries, cone speed), the charted pull-back, a converge
    # sweep's interpolation onto the finest grid or a germ level loads a
    # module of either
    conv_doc = _run_doc(name="conv_cheap", kind="converge",
                        initial={"kind": "riemann", "left": 1.0, "right": 0.0, "position": 0.0},
                        study={"epsilons": [0.016, 0.008, 0.004]})
    conv_doc["run"] = {"epsilon": 0.004, "final_time": 0.05, "boundary": [[1.0, 0.0]]}
    germ_doc = _run_doc(name="germ_cheap", kind="germ", initial={"kind": "constant", "value": 0.4},
                        study={"level": 0, "epsilons": [0.032, 0.016, 0.008, 0.004]})
    germ_doc["run"] = {"epsilon": 0.004, "final_time": 0.05, "boundary": 0.0}
    runs = [["entropy-check", "burgers_shock"], ["kato-check", "kato_burgers"], ["cone-check", "cone_burgers"],
            ["run", "tilted_flatten_2d"], ["converge", _write(tmp_path, conv_doc, "conv.json")],
            ["germ", _write(tmp_path, germ_doc, "germ.json")]]
    argvs = [argv + ["--out", str(tmp_path / argv[0]), "--quiet"] for argv in runs]
    src = os.path.dirname(os.path.dirname(discflux.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import json, sys, discflux.cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema'))\n"
            "print(loaded())\n"
            "codes = [discflux.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(codes, loaded())\n")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == f"{[0] * len(runs)} []"


def test_readme_python_api_is_the_package_namespace():
    # the README's "Python API" block uses every name the package exports, and no other
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Python API", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    assert sorted(set(re.findall(r"\bdx\.(\w+)", block))) == sorted(discflux.__all__)


def test_reach_collector_sees_a_shipped_scenario(tmp_path):
    # tools/reach.py's collector on one scenario: what the run enters, the
    # hypothesis check and the residual terms among it, and not the germ
    # study it never starts
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    seen = reach.entered([["entropy-check", "burgers_shock", "--out", str(tmp_path / "out")]])
    assert {"cli.main", "flux.check_hypotheses", "solver.run", "entropy.entropy_battery",
            "entropy.ResidualWorkspace.terms", "storage.write_trajectory_csv"} <= seen
    assert "germ.run_sequence" not in seen
    assert sys.getprofile() is None


def test_every_package_constant_is_loaded():
    # the AST half of tools/reach.py: no command runs; and every name its
    # allow-list excuses is a function or method the package still defines
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    assert reach.unloaded_constants() == []
    assert sorted(reach.ALLOWED.keys() - reach.defined()) == []


@pytest.mark.parametrize("block, key, literal", [("run", "epsilon", "NaN"),
                                                 ("run", "final_time", "Infinity"),
                                                 ("initial", "position", "NaN")])
def test_cli_refuses_nan_and_infinity(tmp_path, capsys, block, key, literal):
    # json.load would read these non-standard literals as floats: a NaN
    # epsilon stepped into a non-finite state, an infinite final time into
    # an OverflowError, and a NaN riemann position passed on all-zero data
    doc = _run_doc(kind="entropy-check")
    del doc["run"]["output_count"]
    doc[block][key] = "@"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc).replace('"@"', literal))
    out = tmp_path / "out"
    assert main(["entropy-check", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"scenario error: {path} is not valid JSON: {literal} is not a JSON number"]
    assert not out.exists()


def test_cli_missing_scenario_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    assert "scenario error" in capsys.readouterr().err


def test_cli_accepts_builtin_scenario_names(tmp_path, capsys):
    # resolved by name, then rejected for the wrong subcommand
    assert main(["run", "burgers_shock"]) == 1
    err = capsys.readouterr().err
    assert "entropy-check" in err

    out = tmp_path / "out"
    assert main(["entropy-check", "burgers_shock", "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "report.json").read_text())["hypotheses"] == {"boundary_max": 0.0, "minor_max": 1.0}
    assert (out / "report.json").is_file()


def test_cli_kind_mismatch(tmp_path, capsys):
    path = _write(tmp_path, _run_doc())
    assert main(["entropy-check", path]) == 1
    err = capsys.readouterr().err
    assert "kind" in err and "run" in err


def test_cli_runtime_error_exits_one(tmp_path, capsys):
    # burgers' speed 1 empties the contraction cone of radius 0.5 by T = 0.6,
    # which the germ study finds when it is built, after the parse
    doc = _run_doc(kind="germ", initial={"kind": "constant", "value": 0.4},
                   study={"level": 1, "epsilons": [0.032, 0.016, 0.008, 0.004]})
    doc["run"]["final_time"] = 0.6
    path = _write(tmp_path, doc)
    assert main(["germ", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ValueError: final time 0.6 empties the contraction cone")
    # --debug re-raises the same error with its traceback
    with pytest.raises(ValueError, match="empties the contraction cone"):
        main(["germ", path, "--out", str(tmp_path / "out"), "--debug"])


def test_cli_cell_budget_is_the_constant(tmp_path, capsys):
    # a ladder grid above CELL_BUDGET cells is refused at parse time, under
    # the pointer of its epsilon; a rung of CELL_BUDGET cells parses
    assert germ.CELL_BUDGET == 32768
    doc = _run_doc(kind="converge", study={"epsilons": [0.032, 1e-4]})
    assert main(["converge", _write(tmp_path, doc), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err == ("scenario error: /study/epsilons/1: eps = 0.0001 needs 65536 cells, "
                                       "above the cell budget 32768\n")
    assert not (tmp_path / "out").exists()
    doc["study"]["epsilons"][1] = 4 / germ.CELL_BUDGET
    assert scenario_from_dict(doc).kind == "converge"
    assert germ.grid_for_epsilon(Box((-0.5,), (0.5,)), 4 / germ.CELL_BUDGET).counts == (germ.CELL_BUDGET,)


@pytest.mark.parametrize("d, zeta, right, components", [
    (1, {"kind": "poly", "coeffs": [0.1, 0.5]}, None, 1),  # only the constant would act in d = 1
    (1, {"kind": "zero", "coeffs": [0.4]}, None, 1),
    (2, {"kind": "poly", "coeffs": []}, None, 2),
    # without an interface (zeta None) a right family distinct from the left one never acts
    (1, None, [{"poly_lambda": [0.0, 2.0, -2.0]}], 1),
    # a family needs exactly d components: a second one in d = 1 would never act
    (1, None, None, 2),
    (2, None, None, 1),
], ids=["poly-1d-two-coeffs", "zero-nonzero-coeff", "poly-2d-empty", "jump-free-distinct-right",
        "1d-two-components", "2d-one-component"])
def test_cli_refuses_ignored_interface_coefficients(tmp_path, capsys, d, zeta, right, components):
    component = {"poly_lambda": [0.0, 1.0, -1.0]}
    interface = None if zeta is None else {"axis": 1, "zeta": zeta}
    doc = _run_doc(flux={"d": d, "a": 0.0, "b": 1.0, "interface": interface,
                         "left": [component] * components, "right": right},
                   grid={"counts": [16] * d}, initial={"kind": "constant", "value": 0.3})
    del doc["domain"]
    doc["run"] = {"epsilon": 0.05, "final_time": 0.01, "boundary": 0.0}
    assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
    assert "scenario error: /flux: " in capsys.readouterr().err


_FLUX_1D = {"d": 1, "a": 0.0, "b": 1.0, "interface": None, "left": [{"poly_lambda": [0.0, 1.0, -1.0]}]}


@pytest.mark.parametrize("flux, message", [
    (dict(_FLUX_1D, speed=1.0), r"^/flux: Additional properties are not allowed \('speed' unexpected\)$"),
    (dict(_FLUX_1D, left=[{"poly_lambda": [0.0, 1.0, -1.0], "speed": 1.0}]),
     r"^/flux/left/0: Additional properties are not allowed \('speed' unexpected\)$"),
    (dict(_FLUX_1D, left=[{"poly_lambda": []}]), r"^/flux/left/0/poly_lambda: \[\] is too short$"),
    (dict(_FLUX_1D, d=3), r"^/flux/d: 3 is not one of \[1, 2\]$"),
    (dict(_FLUX_1D, left=[{"poly_lambda": [0.0, 1.0, -1.0], "x_modulation": "cubic"}]),
     r"^/flux/left/0/x_modulation: 'cubic' is not one of \['none', 'affine'\]$"),
    (dict(_FLUX_1D, interface={"axis": 1, "zeta": {"kind": "cubic", "coeffs": [0.0]}}),
     r"^/flux/interface/zeta/kind: 'cubic' is not one of \['zero', 'affine', 'poly'\]$"),
    (3, r"^/flux: 3 is not of type \['string', 'object'\]$"),
    # the scenario's top-level domain is the one source of the domain
    (dict(_FLUX_1D, domain={"lows": [-0.5], "highs": [0.5]}),
     r"^/flux: Additional properties are not allowed \('domain' unexpected\)$"),
], ids=["flux-key", "component-key", "empty-poly-lambda", "d-3", "x-modulation", "zeta-kind", "flux-type",
        "flux-domain"])
def test_the_schema_refuses_flux_specs_the_builders_take_as_read(flux, message):
    # flux_from_spec and interface_from_spec check only the rules between
    # fields; the scenario schema refuses these before either runs
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(_run_doc(flux=flux))


def test_cli_refuses_a_cfl_above_one_half(tmp_path, capsys):
    # with the Rusanov coefficients frozen, the time step keeps every
    # diagonal coefficient >= 1 - 2 cfl, which is >= 0 only up to cfl 0.5
    doc = _run_doc()
    doc["run"]["cfl"] = 0.6
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "scenario error: /run/cfl: 0.6 is greater than the maximum of 0.5\n"
    assert not out.exists()
    doc["run"]["cfl"] = 0.5
    assert main(["run", _write(tmp_path, doc), "--out", str(out), "--quiet"]) == 0


def test_cli_refuses_bad_study_initial_data_before_solving(tmp_path, capsys):
    for initial_b, message in [
        ({"kind": "bump", "base": 0.1, "amplitude": 0.5, "center": [0.0, 0.0], "radius": 0.2},
         "bump center must have length 1"),
        ({"kind": "constant", "value": 1.5}, "values reach [1.5, 1.5], outside the state interval [0.0, 1.0]"),
    ]:
        doc = _run_doc(kind="kato-check", study={"initial_b": initial_b})
        out = tmp_path / "out"
        assert main(["kato-check", _write(tmp_path, doc), "--out", str(out)]) == 1
        assert f"scenario error: /study/initial_b: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_cli_refuses_a_cone_center_of_the_wrong_length(tmp_path, capsys):
    doc = _run_doc(kind="cone-check", study={
        "cone": {"center": [0.0, 0.0], "radius": 0.2},
        "perturbation": {"kind": "block", "inside": 0.2, "outside": 0.0, "lows": [0.3], "highs": [0.4]}})
    out = tmp_path / "out"
    assert main(["cone-check", _write(tmp_path, doc), "--out", str(out)]) == 1
    assert "scenario error: /study/cone/center: expected 1 coordinates" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# CLI runs


def test_cli_run_writes_report_and_trajectory(tmp_path, capsys):
    path = _write(tmp_path, _run_doc())
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "[check] max_principle: PASS" in stdout
    assert "scenario cheap_run: PASS (1/1 checks)" in stdout

    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert report["kind"] == "run"
    assert [c["name"] for c in report["checks"]] == ["max_principle"]
    assert (out / "trajectory.csv").is_file()
    assert report["solver"]["epsilon"] == 0.008
    timings = report["timings"]
    assert set(timings) == {"solve_s", "verify_s", "io_s", "total_s"}
    phases = [timings["solve_s"], timings["verify_s"], timings["io_s"]]
    assert min(phases) > 0.0
    assert sum(phases) <= timings["total_s"]


def test_report_json_reproduces_its_run(tmp_path, capsys):
    # report.json's scenario block is the whole input of its run: rerun from
    # it, the command writes the same bytes, and no flag can change the data
    doc = _run_doc(kind="kato-check", study={"initial_b": {"kind": "random_steps", "pieces": 5, "seed": 7}})
    first = tmp_path / "first"
    assert main(["kato-check", _write(tmp_path, doc), "--out", str(first), "--quiet"]) == 0
    path = _write(tmp_path, json.loads((first / "report.json").read_text())["scenario"], "from_report.json")
    again = tmp_path / "again"
    assert main(["kato-check", path, "--out", str(again), "--quiet"]) == 0
    names = sorted(p.name for p in first.iterdir() if p.name != "report.json")
    assert names == ["kato_report.json", "trajectory_a.csv", "trajectory_b.csv"]
    assert names == sorted(p.name for p in again.iterdir() if p.name != "report.json")
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name
    capsys.readouterr()
    assert main(["kato-check", path, "--seed", "1", "--out", str(tmp_path / "seeded"), "--quiet"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "seeded").exists()


def test_cli_failing_max_principle_names_its_witness(tmp_path, capsys, monkeypatch):
    from discflux import cli
    from discflux.solver import MaxPrincipleReport

    def failing(traj, a, b):
        return MaxPrincipleReport(passed=False, min_value=-0.5, max_value=1.0, tol=1e-10,
                                  witness={"time": traj.times[2], "cell": (17,)})

    def detail(out):
        return json.loads((tmp_path / out / "report.json").read_text())["checks"][0]["detail"]

    path = _write(tmp_path, _run_doc())
    assert main(["run", path, "--out", str(tmp_path / "pass")]) == 0
    assert detail("pass").startswith("values stay in [")
    assert "worst at" not in detail("pass")
    monkeypatch.setattr(cli, "max_principle_check", failing)
    assert main(["run", path, "--out", str(tmp_path / "fail")]) == 2
    assert detail("fail") == "values reach [-0.5, 1] outside [0.0, 1.0]; worst at t = 0.01, cell (17)"
    assert f"[check] max_principle: FAIL {detail('fail')}" in capsys.readouterr().out


def test_cli_run_with_default_output_times(tmp_path):
    # no output times: nine equally spaced ones, and a report of plain numbers
    doc = {"kind": "run", "flux": "burgers", "grid": {"counts": [64]},
           "run": {"epsilon": 0.05, "final_time": 0.01, "boundary": 0.0},
           "initial": {"kind": "constant", "value": 0.3}}
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0
    solver = json.loads((out / "report.json").read_text())["solver"]
    assert type(solver["clipped_steps"]) is int and solver["clipped_steps"] > 0
    assert len(solver["output_times"]) == 9


def test_cli_quiet_suppresses_check_lines(tmp_path, capsys):
    path = _write(tmp_path, _run_doc())
    assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    stdout = capsys.readouterr().out
    assert "[check]" not in stdout
    assert "scenario cheap_run: PASS" in stdout


def test_cli_shock_battery_spec_example(tmp_path):
    out = tmp_path / "shock"
    rc = main(["entropy-check", builtin_scenario_path("burgers_shock"),
               "--out", str(out), "--quiet"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert report["timings"]["verify_s"] > 0.0
    battery = json.loads((out / "entropy_report.json").read_text())
    # timings live in report.json only: the battery file must repeat byte for byte
    assert set(battery) == {"entries", "summary"}
    assert battery["summary"]["pass"] is True
    assert battery["summary"]["count"] == 220
    worst_tol = max(e["tol"] for e in battery["entries"])
    assert battery["summary"]["min_residual"] >= -worst_tol
    # no interface, so no trace artifact
    assert "trace" not in report["artifacts"]


def test_cli_entropy_check_steady_state(tmp_path):
    doc = _run_doc(name="steady", kind="entropy-check",
                   initial={"kind": "constant", "value": 0.4})
    doc["run"] = {"epsilon": 0.016, "final_time": 0.05, "boundary": 0.4, "output_count": 9}
    out = tmp_path / "out"
    assert main(["entropy-check", _write(tmp_path, doc), "--out", str(out)]) == 0
    battery = json.loads((out / "entropy_report.json").read_text())
    assert battery["summary"]["pass"] is True
    assert battery["summary"]["count"] == 20 * 11


def test_cli_entropy_check_extracts_the_interface_trace_once(tmp_path, monkeypatch):
    # the battery's trace is the one trace.csv is written from
    calls = []
    real = entropy.interface_trace

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(entropy, "interface_trace", counted)
    out = tmp_path / "out"
    assert main(["entropy-check", "two_flux_admissibility", "--out", str(out), "--quiet"]) == 0
    assert len(calls) == 1
    assert (out / "trace.csv").is_file()
    assert json.loads((out / "report.json").read_text())["artifacts"]["trace"] == "trace.csv"


def test_cli_converge_spec_example(tmp_path):
    out = tmp_path / "conv"
    rc = main(["converge", builtin_scenario_path("two_flux_interface"),
               "--out", str(out), "--quiet"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"][0]["name"] == "delta_tail_decreasing"
    assert report["pass"] is True
    assert report["grid_counts"] == [[1024], [2048], [4096], [8192]]
    solver = report["solver"]
    # the four epsilons are four pool tasks on one worker per usable CPU
    assert solver["runs"] == 4 and 1 <= solver["workers"] <= len(os.sched_getaffinity(0))
    assert 0 < solver["cell_updates"] <= solver["cell_steps"]
    assert solver["solve_s"] > 0.0
    # one task per epsilon, whose counters sum to the solver block; converge writes no record
    tasks = report["tasks"]
    assert [t["epsilon"] for t in tasks] == [0.004, 0.002, 0.001, 0.0005]
    assert [t["data"] for t in tasks] == [1] * 4 and [t["write_s"] for t in tasks] == [0.0] * 4
    assert sum(t["steps"] for t in tasks) == solver["steps"]
    assert sum(t["blocks"] for t in tasks) == solver["blocks"] < solver["steps"]
    assert sum(t["cell_updates"] for t in tasks) == solver["cell_updates"]
    assert report["artifacts"] == {"deltas": "deltas.csv", "finest_endpoint": "finest_endpoint.csv"}

    lines = (out / "deltas.csv").read_text().strip().splitlines()
    assert lines[0] == "eps_coarse,eps_fine,delta"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [(float(r[0]), float(r[1])) for r in rows] == [
        (0.004, 0.002), (0.002, 0.001), (0.001, 0.0005)]
    deltas = [float(r[2]) for r in rows]
    assert deltas[1] > deltas[2] > 0.0
    assert (out / "finest_endpoint.csv").is_file()


def test_cli_kato_check(tmp_path):
    doc = _run_doc(name="kato_cheap", kind="kato-check", grid={"counts": [128]},
                   initial={"kind": "riemann", "left": 0.0, "right": 1.0, "position": -0.05},
                   study={"initial_b": {"kind": "riemann", "left": 0.0, "right": 1.0,
                                        "position": 0.05}})
    doc["run"] = {"epsilon": 0.008, "final_time": 0.05, "boundary": [[0.0, 1.0]],
                  "output_count": 17}
    out = tmp_path / "out"
    assert main(["kato-check", _write(tmp_path, doc), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert {c["name"] for c in report["checks"]} == {
        "max_principle_a", "max_principle_b", "kato_battery"}
    assert report["pass"] is True
    battery = json.loads((out / "kato_report.json").read_text())
    assert battery["summary"]["pass"] is True
    assert all(e["pass"] for e in battery["entries"])
    assert (out / "trajectory_a.csv").is_file() and (out / "trajectory_b.csv").is_file()


def test_cli_cone_check_and_inversion(tmp_path):
    doc = _run_doc(name="cone_cheap", kind="cone-check", grid={"counts": [128]},
                   initial={"kind": "bump", "base": 0.25, "amplitude": 0.5,
                            "center": [0.0], "radius": 0.1},
                   study={"cone": {"center": [0.0], "radius": 0.2},
                          "perturbation": {"kind": "block", "inside": 0.2, "outside": 0.0,
                                           "lows": [0.3], "highs": [0.4]}})
    doc["run"] = {"epsilon": 0.008, "final_time": 0.03, "boundary": 0.25, "output_count": 7}
    out = tmp_path / "out"
    assert main(["cone-check", _write(tmp_path, doc), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert report["locality"]["kappa"] <= 1e-2

    # a perturbation may lower the state as well
    doc["study"]["perturbation"] = {"kind": "block", "inside": -0.2, "outside": 0.0,
                                    "lows": [0.3], "highs": [0.4]}
    out_low = tmp_path / "out_low"
    assert main(["cone-check", _write(tmp_path, doc, "lower.json"), "--out", str(out_low), "--quiet"]) == 0
    assert json.loads((out_low / "report.json").read_text())["locality"]["kappa"] <= 1e-2

    # moving the same perturbation inside the base must fail the scenario
    doc["study"]["perturbation"] = {"kind": "block", "inside": 0.4, "outside": 0.0,
                                    "lows": [0.0], "highs": [0.1]}
    inside_path = _write(tmp_path, doc, "inside.json")
    out2 = tmp_path / "out2"
    assert main(["cone-check", inside_path, "--out", str(out2), "--quiet"]) == 2
    report2 = json.loads((out2 / "report.json").read_text())
    by_name = {c["name"]: c["pass"] for c in report2["checks"]}
    assert report2["pass"] is False
    assert by_name["perturbation_outside_base"] is False
    assert by_name["cone_locality"] is False


def test_cli_germ_scenario(tmp_path):
    doc = _run_doc(name="germ_cheap", kind="germ",
                   initial={"kind": "constant", "value": 0.4},
                   study={"level": 1, "epsilons": [0.032, 0.016, 0.008, 0.004]})
    doc["run"] = {"epsilon": 0.004, "final_time": 0.05, "boundary": 0.0}
    out = tmp_path / "out"
    assert main(["germ", _write(tmp_path, doc), "--out", str(out), "--quiet"]) == 0

    report = json.loads((out / "report.json").read_text())
    by_name = {c["name"]: c["pass"] for c in report["checks"]}
    assert by_name == {"diagonal_selection": True, "germ_stability": True}
    assert report["family_size"] == 9
    assert report["estimate"]["member_id"] == "L1-11"
    assert report["estimate"]["error_bar"] == pytest.approx(0.1, rel=1e-12)
    solver = report["solver"]
    assert solver["runs"] == 9 * 4
    assert solver["cell_steps"] >= solver["steps"] * 256 > 0
    # the frozen-cell windows skip the cells no wave has reached
    assert 0 < solver["cell_updates"] < solver["cell_steps"]
    assert solver["solve_s"] > 0.0
    assert 1 <= solver["workers"] <= len(os.sched_getaffinity(0))
    # one task per epsilon, each writing its records' CSVs; the finest was handed out first
    tasks = report["tasks"]
    assert [t["epsilon"] for t in tasks] == [0.032, 0.016, 0.008, 0.004]
    assert all(t["data"] == 9 and t["solve_s"] > 0 and t["write_s"] > 0 and t["start_s"] >= 0 for t in tasks)
    assert sum(t["steps"] for t in tasks) == solver["steps"]
    assert sum(t["blocks"] for t in tasks) == solver["blocks"] < solver["steps"]
    assert sum(t["cell_updates"] for t in tasks) == solver["cell_updates"]
    assert tasks[-1]["worker"] == 0 and {t["worker"] for t in tasks} <= set(range(solver["workers"]))
    assert report["artifacts"] == {"estimate": "estimate.csv", "manifest": "manifest.json"}
    assert (out / "estimate.csv").is_file()

    # one record directory per family member
    members = sorted(p.name for p in (out / "records").iterdir())
    assert members == [f"L1-{i}{j}" for i in range(3) for j in range(3)]
    for member in members:
        assert (out / "records" / member / "manifest.json").is_file()

    path = out / "contraction_ratios.csv"
    assert path.read_text().splitlines()[0] == "id," + ",".join(members)
    ratios = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, 10))
    assert_array_equal(ratios, ratios.T)
    assert_array_equal(np.diag(ratios), np.zeros(9))

    # observed rates, log2 of successive delta ratios per member, with null
    # where a delta is 0; the constant member's deltas are all 0
    for member in members:
        deltas = json.loads((out / "records" / member / "manifest.json").read_text())["deltas"]
        expected = [None if a == 0 or b == 0 else np.log2(a / b) for a, b in zip(deltas, deltas[1:])]
        assert report["rates"][member] == pytest.approx(expected, rel=1e-12), member
    assert report["rates"]["L1-00"] == [None, None]
    assert set(report["rates"]) == set(members)

    level_manifest = json.loads((out / "manifest.json").read_text())
    assert not {"solver", "rates", "tasks"} & set(level_manifest)
    assert level_manifest["selection"]["pass"] is True
    assert level_manifest["stability"]["pass"] is True
    assert level_manifest["contraction_cone"]["speed"] == pytest.approx(1.0)


def _charted_doc(flux):
    return {
        "name": "chart_mini",
        "kind": "run",
        "flux": flux,
        "grid": {"counts": [48, 48]},
        "run": {"epsilon": 0.04, "final_time": 0.02, "boundary": 0.0, "output_count": 3},
        "initial": {"kind": "bump", "base": 0.0, "amplitude": 0.4,
                    "center": [0.0, 0.0], "radius": 0.25},
        "chart": True,
    }


def _charted_report(tmp_path, doc):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, doc), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert [c["name"] for c in report["checks"]] == [
        "max_principle", "max_principle_flattened", "flatten_roundtrip",
        "entropy_battery_flattened"]
    for artifact in ("trajectory.csv", "flattened_trajectory.csv",
                     "mapped_trajectory.csv", "entropy_report.json"):
        assert (out / artifact).is_file()
    gap_check = report["checks"][2]
    assert "L1 gap" in gap_check["detail"]
    # the flattened solve used no coefficient above the bound its dt came from
    assert report["flattened_solver"]["cfl_margin"] <= 1.0
    return report


def test_cli_charted_run(tmp_path):
    report = _charted_report(tmp_path, _charted_doc("tilted_2d"))
    assert report["flattened_solver"]["n_steps"] == 6
    assert report["flattened_solver"]["speed_bound"] == 2.0


def test_cli_charted_run_curved_modulated(tmp_path):
    # curved interface, modulated sides: the flattened normal flux has
    # per-face factors
    _charted_report(tmp_path, _charted_doc(copy.deepcopy(CURVED_MODULATED_SPEC)))


# ---------------------------------------------------------------------------
# diff


def test_cli_diff_exit_contract(tmp_path, capsys):
    grid = Grid((0.0,), (1.0,), (100,))
    a = Field(grid, np.zeros(100), 0.0)
    bumped = np.zeros(100)
    bumped[40] = 0.5
    b = Field(grid, bumped, 0.0)
    other = Field(Grid((0.0,), (1.0,), (50,)), np.zeros(50), 0.0)

    pa, pb, po = (str(tmp_path / n) for n in ("a.csv", "b.csv", "o.csv"))
    storage.write_field_csv(pa, a)
    storage.write_field_csv(pb, b)
    storage.write_field_csv(po, other)

    assert main(["diff", pa, pa]) == 0
    assert "PASS" in capsys.readouterr().out

    # one cell differing by 0.5 on a 0.01 grid is exactly 0.005 in L1
    assert main(["diff", pa, pb, "--tol", "0.004"]) == 2
    out = capsys.readouterr().out
    assert "5.000e-03" in out
    assert main(["diff", pa, pb, "--tol", "0.006"]) == 0
    capsys.readouterr()
    assert main(["diff", pa, pb, "--tol", "0.006", "--sup-tol", "0.4"]) == 2
    capsys.readouterr()

    assert main(["diff", pa, po]) == 1
    assert "different grids" in capsys.readouterr().err


def test_cli_diff_refined_versus_coarse(tmp_path, burgers_model):
    grid = Grid((-0.5,), (0.5,), (128,))
    x = grid.points()[..., 0]
    u0 = Field(grid, 0.25 + 0.5 * np.clip(1.0 - (x / 0.2) ** 2, 0.0, None) ** 2, 0.0)
    paths = []
    for eps in (8e-3, 4e-3):
        config = RunConfig(flux=burgers_model, epsilon=eps, final_time=0.05, boundary=0.25)
        traj = run(u0, config)
        p = str(tmp_path / f"end_{eps}.csv")
        storage.write_field_csv(p, traj.final)
        paths.append(p)
    assert main(["diff", paths[0], paths[1], "--tol", "2e-2", "--quiet"]) == 0


# ---------------------------------------------------------------------------
# forked artifact writers


def _small_check_docs():
    """(command, scenario) for a small run, entropy check with an interface
    (so a trace is written), Kato check and cone check."""
    run_doc = _run_doc()
    entropy_doc = _run_doc(name="entropy_interface", kind="entropy-check", flux="two_flux",
                           initial={"kind": "block", "inside": 1.0, "outside": 0.0,
                                    "lows": [0.1], "highs": [0.3]})
    entropy_doc["run"] = {"epsilon": 0.008, "final_time": 0.02, "boundary": 0.0, "output_count": 5}
    kato_doc = _run_doc(name="kato_small", kind="kato-check",
                        study={"initial_b": {"kind": "riemann", "left": 0.0, "right": 1.0,
                                             "position": 0.05}})
    cone_doc = _run_doc(name="cone_small", kind="cone-check",
                        initial={"kind": "bump", "base": 0.25, "amplitude": 0.5,
                                 "center": [0.0], "radius": 0.1},
                        study={"cone": {"center": [0.0], "radius": 0.2},
                               "perturbation": {"kind": "block", "inside": 0.2, "outside": 0.0,
                                                "lows": [0.3], "highs": [0.4]}})
    cone_doc["run"] = {"epsilon": 0.008, "final_time": 0.01, "boundary": 0.25, "output_count": 3}
    return (("run", run_doc), ("entropy-check", entropy_doc),
            ("kato-check", kato_doc), ("cone-check", cone_doc))


SMALL_CHECKS = _small_check_docs()


def _small_sweep_docs():
    """(command, scenario) for a small converge sweep and a small level-1 germ study."""
    conv_doc = _run_doc(name="conv_cheap", kind="converge",
                        initial={"kind": "riemann", "left": 1.0, "right": 0.0, "position": 0.0},
                        study={"epsilons": [0.016, 0.008, 0.004]})
    conv_doc["run"] = {"epsilon": 0.004, "final_time": 0.05, "boundary": [[1.0, 0.0]]}
    germ_doc = _run_doc(name="germ_cheap", kind="germ",
                        study={"level": 1, "epsilons": [0.032, 0.016, 0.008, 0.004]})
    germ_doc["run"] = {"epsilon": 0.004, "final_time": 0.01, "boundary": 0.0}
    return ("converge", conv_doc), ("germ", germ_doc)


SMALL_COMMANDS = SMALL_CHECKS + _small_sweep_docs()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _files(root):
    """Every file under root but its report.json, relative to root."""
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()} - {"report.json"}


@pytest.mark.parametrize("command, doc", SMALL_COMMANDS, ids=[command for command, _ in SMALL_COMMANDS])
def test_cli_forked_csvs_equal_in_process_writes(tmp_path, monkeypatch, command, doc):
    path = _write(tmp_path, doc)
    forked = tmp_path / "forked"
    assert main([command, path, "--out", str(forked), "--quiet"]) == 0
    _assert_no_child_left()

    # the same command with every artifact written here, in the test process
    written = []

    def in_process(self, write, path, *args):
        written.append((write.__name__, os.path.basename(path)))
        write(path, *args)

    monkeypatch.setattr(storage.Writers, "submit", in_process)
    local = tmp_path / "local"
    assert main([command, path, "--out", str(local), "--quiet"]) == 0

    expected = {
        "run": [("write_trajectory_csv", "trajectory.csv")],
        "entropy-check": [("write_trajectory_csv", "trajectory.csv"),
                          ("write_manifest", "entropy_report.json"),
                          ("write_trace_csv", "trace.csv")],
        "kato-check": [("write_trajectory_csv", "trajectory_a.csv"),
                       ("write_trajectory_csv", "trajectory_b.csv"),
                       ("write_manifest", "kato_report.json")],
        "cone-check": [("write_trajectory_csv", "trajectory_base.csv"),
                       ("write_trajectory_csv", "trajectory_perturbed.csv")],
        "converge": [("write_deltas_csv", "deltas.csv"),
                     ("write_field_csv", "finest_endpoint.csv")],
        # the level manifest brings the matrices and the record manifests
        # beside it; the record CSVs come from the level's solving tasks
        "germ": [("write_field_csv", "estimate.csv"),
                 ("save_level_result", "manifest.json")],
    }[command]
    assert written == expected
    files = _files(forked)
    assert files == _files(local)
    beside = 3 + 9 * (1 + 4 + 1) if command == "germ" else 0  # matrices, records
    assert {name for _, name in expected} <= files and len(files) == len(expected) + beside
    for name in files:
        assert (forked / name).read_bytes() == (local / name).read_bytes(), name
    # the artifacts block lists exactly the files handed to the writers
    for out in (forked, local):
        report = json.loads((out / "report.json").read_text())
        assert report["artifacts"] == {os.path.splitext(name)[0]: name for _, name in written}


def test_cli_failing_writer_leaves_no_report_and_no_child(tmp_path, monkeypatch, capfd):
    def broken(path, *args):
        raise OSError("disk full")

    monkeypatch.setattr(storage, "write_trajectory_rows", broken)
    out = tmp_path / "out"
    assert main(["entropy-check", "burgers_shock", "--out", str(out), "--quiet"]) == 1
    assert capfd.readouterr().err.splitlines() == [f"error: writing {out / 'trajectory.csv'}: OSError: disk full"]
    assert not (out / "report.json").exists()
    _assert_no_child_left()


GERM_DOC = dict(SMALL_COMMANDS)["germ"]


def test_cli_pool_written_records_equal_in_process_ones(tmp_path, monkeypatch):
    # the level's record CSVs come from the pool workers that solved them,
    # or, with one usable CPU, from this process
    path = _write(tmp_path, GERM_DOC)
    outs = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        outs.append(tmp_path / f"cpus{len(cpus)}")
        assert main(["germ", path, "--out", str(outs[-1]), "--quiet"]) == 0
        _assert_no_child_left()
        assert json.loads((outs[-1] / "report.json").read_text())["solver"]["workers"] == len(cpus)
    files = _files(outs[0])
    assert files == _files(outs[1])
    assert len(files) == 9 * (1 + 4 + 1) + 3 + 1 + 1  # records, matrices, manifest, estimate
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_failing_record_write_in_a_worker(tmp_path, monkeypatch, capfd):
    real = storage.write_field_csv

    def failing(path, field):
        if os.path.join("records", "L1-02") in str(path):
            raise OSError("disk full")
        real(path, field)

    monkeypatch.setattr(storage, "write_field_csv", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "out"
    assert main(["germ", _write(tmp_path, GERM_DOC), "--out", str(out), "--quiet"]) == 1
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: writing {out / 'records' / 'L1-02'}{os.sep}endpoint_")
    assert err[0].endswith(".csv: OSError: disk full")
    assert not (out / "report.json").exists()
    _assert_no_child_left()


def test_cli_error_after_a_submitted_write_reaps_the_writer(tmp_path, capsys):
    # the interface at x = 0 sits on the edge of [0, 1]: the trace is refused
    # only after trajectory.csv went to its writer
    doc = _run_doc(kind="entropy-check", flux="two_flux", domain={"lows": [0.0], "highs": [1.0]},
                   initial={"kind": "constant", "value": 0.3})
    doc["run"] = dict(doc["run"], epsilon=0.05, boundary=0.3)
    out = tmp_path / "out"
    assert main(["entropy-check", _write(tmp_path, doc), "--out", str(out)]) == 1
    assert "interface too close to the domain boundary" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    _assert_no_child_left()


def test_cli_joins_writers_only_inside_write_manifest(tmp_path, monkeypatch):
    # report.json waits for the writers inside write_manifest; a join
    # anywhere else on the success path would fall outside the span a
    # tracer wraps around write_manifest
    callers = []
    wait = storage.Writers.wait

    def recording_wait(self):
        caller = sys._getframe(1).f_code
        callers.append((os.path.basename(caller.co_filename), caller.co_name))
        return wait(self)

    monkeypatch.setattr(storage.Writers, "wait", recording_wait)
    for k, (command, doc) in enumerate(SMALL_CHECKS):
        path = _write(tmp_path, doc, f"{k}.json")
        assert main([command, path, "--out", str(tmp_path / f"out{k}"), "--quiet"]) == 0
    assert callers == [("storage.py", "write_manifest")] * 4


# ---------------------------------------------------------------------------
# determinism


def test_cli_outputs_are_deterministic(tmp_path):
    run_path = _write(tmp_path, _run_doc(), "run.json")
    conv_doc = _run_doc(name="conv_cheap", kind="converge",
                        initial={"kind": "riemann", "left": 1.0, "right": 0.0, "position": 0.0},
                        study={"epsilons": [0.016, 0.008, 0.004]})
    conv_doc["run"] = {"epsilon": 0.004, "final_time": 0.05, "boundary": [[1.0, 0.0]]}
    conv_path = _write(tmp_path, conv_doc, "conv.json")
    run_2d_path = _write(tmp_path, {
        "name": "run_2d", "kind": "run", "flux": "tilted_2d", "grid": {"counts": [24, 24]},
        "run": {"epsilon": 0.04, "final_time": 0.02, "boundary": 0.0, "output_count": 3},
        "initial": {"kind": "bump", "base": 0.0, "amplitude": 0.4,
                    "center": [0.0, 0.0], "radius": 0.25},
    }, "run_2d.json")
    entropy_path = _write(tmp_path, _run_doc(name="entropy_cheap", kind="entropy-check"), "entropy.json")

    for cmd, path, names in (("run", run_path, ["trajectory.csv"]),
                             ("converge", conv_path, ["deltas.csv", "finest_endpoint.csv"]),
                             ("run", run_2d_path, ["trajectory.csv"]),
                             ("entropy-check", entropy_path,
                              ["trajectory.csv", "entropy_report.json"])):
        out1 = tmp_path / f"{cmd}_{names[0]}_1"
        out2 = tmp_path / f"{cmd}_{names[0]}_2"
        assert main([cmd, path, "--out", str(out1), "--quiet"]) == 0
        assert main([cmd, path, "--out", str(out2), "--quiet"]) == 0
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    germ_doc = _run_doc(name="germ_cheap", kind="germ",
                        study={"level": 1, "epsilons": [0.032, 0.016, 0.008, 0.004]})
    germ_doc["run"] = {"epsilon": 0.004, "final_time": 0.01, "boundary": 0.0}
    germ_path = _write(tmp_path, germ_doc, "germ.json")
    outs = [tmp_path / f"germ_{k}" for k in (1, 2)]
    for out in outs:
        assert main(["germ", germ_path, "--out", str(out), "--quiet"]) == 0
    names = sorted(str(p.relative_to(outs[0])) for p in outs[0].rglob("*")
                   if p.suffix == ".csv" or p.parent.parent.name == "records")
    assert len(names) == 3 + 1 + 9 * (1 + 4 + 1)  # matrices, estimate, records
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
