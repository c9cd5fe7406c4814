"""Scenario files: one JSON document describes a flux, a grid, a viscous run
and an optional study block for the chosen check.  Validation is strict
(unknown keys are errors) and failures carry JSON-pointer paths.

The schemas below are JSON Schema documents, checked by `_check`, which
implements the 14 keywords they use with JSON Schema's semantics (a bool is
no number, 64.0 is an integer, enum and const compare as JSON does), except
that a number must be finite as a float.  The file itself is read with `json.load`,
refusing the NaN and Infinity literals it would otherwise accept."""
from __future__ import annotations

import json
import math
import operator
import os
import sys
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .flux import PiecewiseFlux, as_points, check_hypotheses
from .geometry import Box
from .germ import MEMBER_CAP, grid_for_epsilon, member_count
from .presets import flux_from_spec, preset
from .solver import DEFAULT_CFL, DEFAULT_OUTPUT_COUNT, MAX_CELL_STEPS, Field, Grid, RunConfig

SCENARIO_KINDS = ("run", "entropy-check", "kato-check", "cone-check", "converge", "germ")


def _closed(required: list, **properties) -> dict:
    """An object schema with the given properties and no others."""
    return {"type": "object", "required": required, "additionalProperties": False,
            "properties": properties}


_NUMBER = {"type": "number"}
_NUMBER_ARRAY = {"type": "array", "items": _NUMBER, "minItems": 1}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_AXIS = {"type": "integer", "minimum": 1, "maximum": 2}
_DOMAIN_SCHEMA = _closed(["lows", "highs"], lows=_NUMBER_ARRAY, highs=_NUMBER_ARRAY)

_COMPONENT_SCHEMA = _closed(["poly_lambda"], poly_lambda=_NUMBER_ARRAY,
                            x_modulation={"enum": ["none", "affine"]},
                            x_modulation_coeffs=_NUMBER_ARRAY)
_INTERFACE_SCHEMA = _closed(["axis", "zeta"], axis=_AXIS, zeta=_closed(
    ["kind"], kind={"enum": ["zero", "affine", "poly"]}, coeffs={"type": "array", "items": _NUMBER}))
_COMPONENT_LIST = {"type": "array", "items": _COMPONENT_SCHEMA, "minItems": 1, "maxItems": 2}
_FLUX_OBJECT_SCHEMA = _closed(
    ["d", "a", "b", "left"], d={"enum": [1, 2]}, a=_NUMBER, b=_NUMBER,
    interface={"anyOf": [{"type": "null"}, _INTERFACE_SCHEMA]}, left=_COMPONENT_LIST,
    right={"anyOf": [{"type": "null"}, _COMPONENT_LIST]})

_BOUNDARY_SCHEMA = {"anyOf": [_NUMBER, {
    "type": "array", "minItems": 1, "maxItems": 2,
    "items": {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}}]}
_RUN_SCHEMA = _closed(
    ["epsilon", "final_time", "boundary"], epsilon=_POSITIVE, final_time=_POSITIVE,
    boundary=_BOUNDARY_SCHEMA, cfl={"type": "number", "exclusiveMinimum": 0, "maximum": 0.5},
    output_count={"type": "integer", "minimum": 2})

# initial data kinds; the envelope only fixes "kind", the per-kind schema is
# applied afterwards so errors point into the right block
_INITIAL_KINDS = ("constant", "riemann", "block", "bump", "steps", "random_steps")
_INITIAL_ENVELOPE = {"type": "object", "required": ["kind"],
                     "properties": {"kind": {"enum": list(_INITIAL_KINDS)}}}
# per kind: its required properties besides "kind", then its optional ones
_INITIAL_SCHEMAS = {kind: _closed(["kind", *required], kind={"const": kind}, **required, **optional)
                    for kind, required, optional in (
    ("constant", {"value": _NUMBER}, {}),
    ("riemann", {"left": _NUMBER, "right": _NUMBER, "position": _NUMBER}, {"axis": _AXIS}),
    ("block", {"inside": _NUMBER, "outside": _NUMBER, "lows": _NUMBER_ARRAY, "highs": _NUMBER_ARRAY}, {}),
    ("bump", {"base": _NUMBER, "amplitude": _NUMBER, "center": _NUMBER_ARRAY, "radius": _POSITIVE}, {}),
    ("steps", {"breakpoints": _NUMBER_ARRAY, "values": {"type": "array", "items": _NUMBER, "minItems": 2}}, {}),
    ("random_steps", {"pieces": {"type": "integer", "minimum": 1}}, {"seed": {"type": "integer", "minimum": 0}}),
)}

_EPSILONS_SCHEMA = {"type": "array", "items": _POSITIVE, "minItems": 2}
_GERM_EPSILONS_SCHEMA = dict(_EPSILONS_SCHEMA, minItems=4)  # diagonal_select needs 3 deltas
_STUDY_SCHEMAS = {
    "run": _closed([]),
    "entropy-check": _closed([], tol_factor=_POSITIVE),
    "kato-check": _closed(["initial_b"], initial_b=_INITIAL_ENVELOPE),
    "cone-check": _closed(["cone", "perturbation"],
                          cone=_closed(["center", "radius"], center=_NUMBER_ARRAY, radius=_POSITIVE),
                          perturbation=_INITIAL_ENVELOPE),
    "converge": _closed(["epsilons"], epsilons=_EPSILONS_SCHEMA),
    "germ": _closed(["level", "epsilons"], level={"type": "integer", "minimum": 0, "maximum": 3},
                    epsilons=_GERM_EPSILONS_SCHEMA, solve_target=_INITIAL_ENVELOPE),
}

_BASE_SCHEMA = _closed(
    ["kind", "flux", "grid", "run", "initial"], name={"type": "string", "minLength": 1},
    kind={"enum": list(SCENARIO_KINDS)}, flux={"type": ["string", "object"]}, domain=_DOMAIN_SCHEMA,
    grid=_closed(["counts"], counts={"type": "array", "items": {"type": "integer", "minimum": 4},
                                     "minItems": 1, "maxItems": 2}),
    run=_RUN_SCHEMA, initial=_INITIAL_ENVELOPE, chart={"const": True}, study={"type": "object"})


class ScenarioError(ValueError):
    """Scenario file rejected; the message carries a JSON-pointer path."""


_TYPES = {"object": dict, "array": list, "string": str, "null": type(None)}

# keyword: (the type it applies to, fails(value or length, bound), message)
_LIMITS = {
    "minimum": ("number", operator.lt, "is less than the minimum of {}"),
    "maximum": ("number", operator.gt, "is greater than the maximum of {}"),
    "exclusiveMinimum": ("number", operator.le, "is less than or equal to the minimum of {}"),
    "minItems": ("array", operator.lt, "is too short"),
    "maxItems": ("array", operator.gt, "is too long"),
    "minLength": ("string", operator.lt, "is too short"),
}


def _is_type(value, name: str) -> bool:
    if name not in ("number", "integer"):
        return isinstance(value, _TYPES[name])
    # finite as a float, so that no float() of a scenario number overflows
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max and (name == "number" or float(value).is_integer()))


def _fits(value, schema: dict) -> bool:
    """Whether `value` has one of the types `schema` names (any, if none)."""
    types = schema.get("type", ())
    return not types or any(_is_type(value, t) for t in ([types] if isinstance(types, str) else types))


def _json_equal(a, b) -> bool:
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _error(value, schema: dict, path: str) -> ScenarioError | None:
    try:
        _check(value, schema, path)
    except ScenarioError as exc:
        return exc
    return None


def _check(value, schema: dict, path: str):
    """Raise ScenarioError, at JSON pointer `path` ("" is the root), for the
    first keyword of `schema` that `value` breaks; a failed anyOf reports
    the first branch of the value's type, else its first branch."""
    def fail(message):
        raise ScenarioError(f"{path or '/'}: {message}")
    if not _fits(value, schema):
        fail(f"{value!r} is not of type {schema['type']!r}")
    if "enum" in schema and not any(_json_equal(value, v) for v in schema["enum"]):
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if "const" in schema and not _json_equal(value, schema["const"]):
        fail(f"{schema['const']!r} was expected")
    branches = [(_fits(value, b), _error(value, b, path)) for b in schema.get("anyOf", ())]
    if branches and all(exc for _, exc in branches):
        raise max(branches, key=lambda fit_exc: fit_exc[0])[1]
    for key, (name, fails, words) in _LIMITS.items():
        if key in schema and _is_type(value, name) and fails(
                value if name == "number" else len(value), schema[key]):
            fail(f"{value!r} {words.format(schema[key])}")
    for i, item in enumerate(value if "items" in schema and isinstance(value, list) else ()):
        _check(item, schema["items"], f"{path}/{i}")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"{key!r} is a required property")
        extra = [key for key in value if key not in properties]
        if extra and schema.get("additionalProperties") is False:
            fail(f"Additional properties are not allowed ({', '.join(map(repr, extra))} unexpected)")
        for key, sub in properties.items():
            if key in value:
                _check(value[key], sub, f"{path}/{key}")


def builtin_scenario_path(name: str) -> str:
    if not name.endswith(".json"):
        name = name + ".json"
    path = resources.files("discflux").joinpath("scenarios", name)
    if not path.is_file():
        raise ScenarioError(f"no builtin scenario named {name!r}")
    return str(path)


def builtin_scenario_names() -> tuple[str, ...]:
    root = resources.files("discflux").joinpath("scenarios")
    return tuple(sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json")))


# ---------------------------------------------------------------------------
# initial data

# the keys holding the values of the kinds that state them one by one
_STATED_KEYS = {"constant": ("value",), "riemann": ("left", "right"), "block": ("inside", "outside")}


def initial_values_at(spec: dict, pts, a: float, b: float, box: Box) -> np.ndarray:
    """Evaluate an initial-data spec, checked by validate_initial on [a, b],
    at points of shape (..., d) of the domain box, clipped to [a, b].
    random_steps draws from its spec's seed (default 0) and cuts the box's
    first axis into equal pieces, so its data do not depend on the points
    they are sampled at."""
    pts = as_points(pts, box.d)
    kind = spec["kind"]
    if kind == "constant":
        out = np.full(pts.shape[:-1], float(spec["value"]))
    elif kind == "riemann":
        axis = int(spec.get("axis", 1)) - 1
        out = np.where(pts[..., axis] < float(spec["position"]),
                       float(spec["left"]), float(spec["right"]))
    elif kind == "block":
        lows = np.asarray(spec["lows"], dtype=float)
        highs = np.asarray(spec["highs"], dtype=float)
        inside = np.all((pts >= lows) & (pts < highs), axis=-1)
        out = np.where(inside, float(spec["inside"]), float(spec["outside"]))
    elif kind == "bump":
        center = np.asarray(spec["center"], dtype=float)
        r = np.linalg.norm(pts - center, axis=-1) / float(spec["radius"])
        profile = np.where(r < 1.0, (1.0 - np.minimum(r, 1.0) ** 2) ** 2, 0.0)
        out = float(spec["base"]) + float(spec["amplitude"]) * profile
    elif kind == "steps":
        breaks = np.asarray(spec["breakpoints"], dtype=float)
        values = np.asarray(spec["values"], dtype=float)
        out = values[np.searchsorted(breaks, pts[..., 0], side="right")]
    else:  # random_steps
        pieces = int(spec["pieces"])
        rng = np.random.default_rng(int(spec.get("seed", 0)))
        values = rng.uniform(a, b, size=pieces)
        lo = box.lows[0]
        width = (box.highs[0] - lo) / pieces
        idx = np.clip(np.floor((pts[..., 0] - lo) / width).astype(int), 0, pieces - 1)
        out = values[idx]
    return np.clip(out, a, b)


def validate_initial(spec, d: int, a: float, b: float, prefix: str):
    """Check an initial-data spec for a flux in d dimensions on the state
    interval [a, b]: its schema, the values it states (random_steps draws
    its own inside [a, b]), the lengths of block bounds and bump centres,
    the riemann axis, steps kinds only in 1d, and the steps values and
    breakpoints.  Errors carry `prefix`, the spec's JSON pointer."""
    _check(spec, _INITIAL_ENVELOPE, prefix)
    kind = spec["kind"]
    _check(spec, _INITIAL_SCHEMAS[kind], prefix)
    if kind == "bump":
        stated = [spec["base"], spec["base"] + spec["amplitude"]]
    elif kind == "steps":
        stated = spec["values"]
    else:
        stated = [spec[key] for key in _STATED_KEYS.get(kind, ())]
    if stated and (min(stated) < a - 1e-12 or max(stated) > b + 1e-12):
        raise ScenarioError(
            f"{prefix}: values reach [{min(stated)}, {max(stated)}], outside the state interval [{a}, {b}]"
        )
    if kind == "block" and not len(spec["lows"]) == len(spec["highs"]) == d:
        raise ScenarioError(f"{prefix}: block bounds must have length {d}")
    if kind == "bump" and len(spec["center"]) != d:
        raise ScenarioError(f"{prefix}: bump center must have length {d}")
    if kind == "riemann" and spec.get("axis", 1) > d:
        raise ScenarioError(f"{prefix}/axis: riemann axis {spec['axis']} outside 1..{d}")
    if kind in ("steps", "random_steps") and d != 1:
        raise ScenarioError(f"{prefix}: {kind} data is one-dimensional")
    if kind == "steps":
        if len(spec["values"]) != len(spec["breakpoints"]) + 1:
            raise ScenarioError(f"{prefix}: steps needs exactly one more value than breakpoints")
        if (np.diff(spec["breakpoints"]) <= 0).any():
            raise ScenarioError(f"{prefix}: steps breakpoints must increase")


# ---------------------------------------------------------------------------
# scenario parsing


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    raw: dict
    model: PiecewiseFlux
    grid: Grid
    config: RunConfig
    initial: dict
    study: dict
    chart: bool  # the flattened comparison of a run
    hypotheses: dict  # check_hypotheses' margins, for report.json

    def initial_field(self) -> Field:
        return self.field_from_spec(self.initial)

    def values_at(self, spec: dict, points) -> np.ndarray:
        """An initial-data spec at points (..., d), on the flux's state interval."""
        return initial_values_at(spec, points, self.model.a, self.model.b, self.model.domain)

    def perturbation(self) -> np.ndarray:
        """The cone-check perturbation at the grid's cells, on [a - b, b - a]
        so that it may lower the state as well as raise it."""
        span = self.model.b - self.model.a
        return initial_values_at(self.study["perturbation"], self.grid.points(), -span, span, self.model.domain)

    def field_from_spec(self, spec: dict, grid: Grid | None = None) -> Field:
        grid = grid if grid is not None else self.grid
        return Field(grid, self.values_at(spec, grid.points()), 0.0)


def _boundary_from_json(value):
    if isinstance(value, (int, float)):
        return float(value)
    return tuple((float(lo), float(hi)) for lo, hi in value)


def _refuse_cost(pointer: str, grid: Grid, final_time: float, epsilon: float, cfl: float, outputs: int):
    """run_lockstep's cost refusal before any array exists: dt_base <= cfl /
    sum_k eps / dx_k^2, and at least one step per output.  eps / h / h
    saturates to inf where h ** -2 overflows and eps / (h * h) divides by 0."""
    steps = final_time * sum(epsilon / h / h for h in grid.dx) / cfl
    estimate = math.prod(n - 2.0 for n in grid.counts) * max(steps, outputs - 1.0)
    if estimate > MAX_CELL_STEPS:
        raise ScenarioError(f"{pointer}: about {estimate:.3e} cell-steps, above the limit of {MAX_CELL_STEPS:.0e}")


def scenario_from_dict(raw: dict, path: str = "<memory>") -> Scenario:
    _check(raw, _BASE_SCHEMA, "")
    kind = raw["kind"]

    flux_value = raw["flux"]
    if not isinstance(flux_value, str):
        _check(flux_value, _FLUX_OBJECT_SCHEMA, "/flux")
    try:
        model = preset(flux_value) if isinstance(flux_value, str) else flux_from_spec(flux_value)
    except (ValueError, KeyError) as exc:
        raise ScenarioError(f"/flux: {exc}") from None

    if "domain" in raw:
        lows = raw["domain"]["lows"]
        highs = raw["domain"]["highs"]
        if len(lows) != len(highs):
            raise ScenarioError("/domain: lows and highs must have equal length")
        if len(lows) != model.d:
            raise ScenarioError(f"/domain: expected {model.d} coordinates")
        try:
            model = replace(model, domain=Box(tuple(float(v) for v in lows), tuple(float(v) for v in highs)))
        except ValueError as exc:
            raise ScenarioError(f"/domain: {exc}") from None

    try:
        hypotheses = check_hypotheses(model)
    except ValueError as exc:
        raise ScenarioError(f"/flux: {exc}") from None

    counts = raw["grid"]["counts"]
    if len(counts) != model.d:
        raise ScenarioError(f"/grid/counts: expected {model.d} entries for this flux, got {len(counts)}")
    grid = Grid(model.domain.lows, model.domain.highs, tuple(int(n) for n in counts))

    run_block = raw["run"]
    final_time = float(run_block["final_time"])
    outputs = int(run_block.get("output_count", DEFAULT_OUTPUT_COUNT))
    ladder = kind in ("converge", "germ")  # its rungs run on their own grids, priced below, output at T
    if not ladder:
        _refuse_cost("/run", grid, final_time, float(run_block["epsilon"]),
                     float(run_block.get("cfl", DEFAULT_CFL)), outputs)
    try:
        config = RunConfig(
            flux=model,
            epsilon=float(run_block["epsilon"]),
            final_time=final_time,
            boundary=_boundary_from_json(run_block["boundary"]),
            cfl=float(run_block.get("cfl", DEFAULT_CFL)),
            output_times=None if ladder else tuple(np.linspace(0.0, final_time, outputs)),
        )
    except ValueError as exc:
        raise ScenarioError(f"/run: {exc}") from None

    validate_initial(raw["initial"], model.d, model.a, model.b, "/initial")

    study = raw.get("study", {})
    _check(study, _STUDY_SCHEMAS[kind], "/study")
    if kind == "kato-check":
        validate_initial(study["initial_b"], model.d, model.a, model.b, "/study/initial_b")
    if kind == "cone-check":
        span = model.b - model.a
        validate_initial(study["perturbation"], model.d, -span, span, "/study/perturbation")
        if len(study["cone"]["center"]) != model.d:
            raise ScenarioError(f"/study/cone/center: expected {model.d} coordinates")
    if kind == "germ" and "solve_target" in study:
        validate_initial(study["solve_target"], model.d, model.a, model.b, "/study/solve_target")
    if kind == "germ" and (count := member_count(study["level"], model.d)) > MEMBER_CAP:
        raise ScenarioError(f"/study/level: level {study['level']} has {count} members in {model.d}d, "
                            f"more than the {MEMBER_CAP} a study enumerates")

    chart = raw.get("chart", False)
    if chart and kind != "run":
        raise ScenarioError(f"/chart: only a run reads a chart, not {kind}")
    if chart and model.interface is None:
        raise ScenarioError("/chart: a chart needs a flux with an interface")

    name = raw.get("name") or os.path.splitext(os.path.basename(path))[0]
    sc = Scenario(name=name, kind=kind, raw=raw, model=model, grid=grid,
                  config=config, initial=dict(raw["initial"]), study=dict(study),
                  chart=chart, hypotheses=hypotheses)
    if ladder:
        epsilons = [float(e) for e in study["epsilons"]]
        if any(fine >= coarse for coarse, fine in zip(epsilons, epsilons[1:])):
            raise ScenarioError(f"/study/epsilons: {study['epsilons']!r} does not strictly decrease")
        for i, eps in enumerate(epsilons):
            try:  # OverflowError: an eps so small that 4 * width / eps is inf
                rung = grid_for_epsilon(model.domain, eps)
            except (ValueError, OverflowError) as exc:
                raise ScenarioError(f"/study/epsilons/{i}: {exc}") from None
            _refuse_cost(f"/study/epsilons/{i}", rung, config.final_time, eps, config.cfl, 1)
    return sc


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def parse_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_refuse_constant)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except ValueError as exc:  # malformed, NaN or Infinity, or not UTF-8
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")
    return scenario_from_dict(raw, path=str(path))
