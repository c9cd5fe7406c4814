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
"affine".  Axes are 1-based in the JSON form and 0-based in Interface.
"""
from __future__ import annotations

from .flux import PiecewiseFlux, poly_component
from .geometry import Box, Interface


def _component_from_spec(spec: dict, d: int):
    coeffs = spec["poly_lambda"]
    if spec.get("x_modulation", "none") == "none":
        if "x_modulation_coeffs" in spec:
            raise ValueError("x_modulation_coeffs given but x_modulation is 'none'")
        return poly_component(coeffs)
    mod = spec.get("x_modulation_coeffs")
    if mod is None or len(mod) != d + 1:
        raise ValueError(f"affine modulation needs {d + 1} coefficients")
    return poly_component(coeffs, modulation=mod)


def interface_from_spec(spec: dict, d: int) -> Interface:
    """Build from {"axis": 1-based int, "zeta": {"kind": ..., "coeffs": [...]}},
    a spec the scenario schema accepts, in d <= 2.  Kind "zero" takes no
    nonzero coefficient, "affine" exactly d (zeta = c0 + c1 s), "poly" one
    in d = 1 and at least one in d = 2."""
    axis1 = spec["axis"]
    if not (1 <= axis1 <= d):
        raise ValueError(f"interface axis {axis1} outside 1..{d}")
    kind = spec["zeta"]["kind"]
    c = tuple(float(v) for v in spec["zeta"].get("coeffs", []))
    if kind == "zero":
        if any(c):
            raise ValueError(f"zero interface with nonzero coefficients {list(c)}")
        c = (0.0,)
    elif kind == "affine":
        if len(c) != d:
            raise ValueError(f"affine interface in d={d} needs {d} coefficients, got {len(c)}")
    elif not c or (d == 1 and len(c) > 1):  # kind "poly"
        raise ValueError(f"polynomial interface in d={d} needs {'one' if d == 1 else 'at least one'} "
                         f"coefficient, got {len(c)}")
    return Interface(axis1 - 1, d, c)


def flux_from_spec(spec: dict, name: str | None = None) -> PiecewiseFlux:
    """The flux of a spec that scenario._FLUX_OBJECT_SCHEMA accepts, on the
    box [-1, 1]^d; this checks the rules between its fields."""
    d = int(spec["d"])
    a, b = float(spec["a"]), float(spec["b"])
    for side in ("left", "right"):
        family = spec.get(side)
        if family is not None and len(family) != d:
            raise ValueError(f"the {side} family has {len(family)} components, a flux in d={d} needs {d}")

    left = tuple(_component_from_spec(comp, d) for comp in spec["left"])
    if spec.get("interface") is None:
        # an explicit right family must repeat the left one
        if spec.get("right") not in (None, spec["left"]):
            raise ValueError("jump-free flux (interface null) with a distinct right family")
        interface, right = None, left
    else:
        interface = interface_from_spec(spec["interface"], d)
        if spec.get("right") is None:
            right = left
        else:
            right = tuple(_component_from_spec(comp, d) for comp in spec["right"])
    return PiecewiseFlux(
        d=d,
        left=left,
        right=right,
        interface=interface,
        a=a,
        b=b,
        domain=Box((-1.0,) * d, (1.0,) * d),
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


def preset(name: str) -> PiecewiseFlux:
    try:
        spec = _PRESET_SPECS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}") from None
    return flux_from_spec(spec, name=name)

