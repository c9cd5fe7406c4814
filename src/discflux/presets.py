"""Shipped flux models and the JSON description of the polynomial family.

A flux spec is a dict

    {"d": int, "a": num, "b": num,
     "interface": {"axis": int, "zeta": {"kind": "zero|affine|poly", "coeffs": [...]}} | null,
     "left":  [{"poly_lambda": [c0, c1, ...], "x_modulation": "none" | "affine",
                "x_modulation_coeffs": [m0, m1, ...]?}, ...],
     "right": [...] | null}

interface null means a jump-free flux; right null reuses the left family.
The affine modulation m(x) = m0 + sum m_k x_k needs the extra coefficient
field, which is only allowed (and then required) when x_modulation is
"affine".
"""
from __future__ import annotations

import dataclasses

from .flux import PiecewiseFlux, poly_component
from .geometry import Box, Interface


def _component_from_spec(axis: int, spec: dict, d: int):
    coeffs = spec["poly_lambda"]
    if spec.get("x_modulation", "none") == "none":
        if "x_modulation_coeffs" in spec:
            raise ValueError("x_modulation_coeffs given but x_modulation is 'none'")
        return poly_component(axis, coeffs)
    mod = spec.get("x_modulation_coeffs")
    if mod is None or len(mod) != d + 1:
        raise ValueError(f"affine modulation needs {d + 1} coefficients")
    return poly_component(axis, coeffs, modulation=mod)


def flux_from_spec(spec: dict, domain: Box | None = None, name: str | None = None) -> PiecewiseFlux:
    """The flux of a spec that scenario._FLUX_OBJECT_SCHEMA accepts; this
    checks the rules between its fields."""
    d = int(spec["d"])
    a, b = float(spec["a"]), float(spec["b"])
    if domain is None:
        domain = Box((-1.0,) * d, (1.0,) * d)
    for side in ("left", "right"):
        family = spec.get(side)
        if family is not None and len(family) != d:
            raise ValueError(f"the {side} family has {len(family)} components, a flux in d={d} needs {d}")

    left = tuple(_component_from_spec(k, spec["left"][k], d) for k in range(d))
    if spec.get("interface") is None:
        # an explicit right family must repeat the left one
        if spec.get("right") not in (None, spec["left"]):
            raise ValueError("jump-free flux (interface null) with a distinct right family")
        interface, right = None, left
    else:
        interface = Interface.from_spec(spec["interface"], d)
        if spec.get("right") is None:
            right = left
        else:
            right = tuple(_component_from_spec(k, spec["right"][k], d) for k in range(d))
    return PiecewiseFlux(
        d=d,
        left=left,
        right=right,
        interface=interface,
        a=a,
        b=b,
        domain=domain,
        name=name,
    )


_PRESET_SPECS: dict[str, dict] = {
    # traffic-type concave flux, no interface
    "burgers": {
        "d": 1,
        "a": 0.0,
        "b": 1.0,
        "interface": None,
        "left": [{"poly_lambda": [0.0, 1.0, -1.0], "x_modulation": "none"}],
        "right": None,
    },
    # same shape on the left, doubled capacity on the right of x1 = 0
    "two_flux": {
        "d": 1,
        "a": 0.0,
        "b": 1.0,
        "interface": {"axis": 1, "zeta": {"kind": "zero", "coeffs": [0.0]}},
        "left": [{"poly_lambda": [0.0, 1.0, -1.0], "x_modulation": "none"}],
        "right": [{"poly_lambda": [0.0, 2.0, -2.0], "x_modulation": "none"}],
    },
    # jump-free but spatially modulated: exercises the smooth divergence terms
    "x_ramp": {
        "d": 1,
        "a": 0.0,
        "b": 1.0,
        "interface": None,
        "left": [
            {
                "poly_lambda": [0.0, 1.0, -1.0],
                "x_modulation": "affine",
                "x_modulation_coeffs": [1.0, 0.3],
            }
        ],
        "right": None,
    },
    # d = 2 with an affine interface x1 = 0.2 x2 and a genuinely different
    # tangential state dependence (keeps every direction non-degenerate)
    "tilted_2d": {
        "d": 2,
        "a": 0.0,
        "b": 1.0,
        "interface": {"axis": 1, "zeta": {"kind": "affine", "coeffs": [0.0, 0.2]}},
        "left": [
            {"poly_lambda": [0.0, 1.0, -1.0], "x_modulation": "none"},
            {"poly_lambda": [0.0, 0.0, 0.3, -0.3], "x_modulation": "none"},
        ],
        "right": [
            {"poly_lambda": [0.0, 2.0, -2.0], "x_modulation": "none"},
            {"poly_lambda": [0.0, 0.0, 0.3, -0.3], "x_modulation": "none"},
        ],
    },
}

PRESET_NAMES = tuple(sorted(_PRESET_SPECS))
PRESET_DIMENSIONS = {name: spec["d"] for name, spec in _PRESET_SPECS.items()}


def preset(name: str) -> PiecewiseFlux:
    try:
        spec = _PRESET_SPECS[name]
    except KeyError:
        raise ValueError(f"unknown flux preset {name!r}; available: {', '.join(PRESET_NAMES)}") from None
    return flux_from_spec(spec, name=name)


def resolve_flux(value, domain: Box | None = None) -> PiecewiseFlux:
    """Accept a preset name or an inline flux spec dict."""
    if isinstance(value, str):
        model = preset(value)
        return model if domain is None else dataclasses.replace(model, domain=domain)
    return flux_from_spec(value, domain=domain)
