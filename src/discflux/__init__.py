"""Numerical laboratory for scalar conservation laws whose flux jumps across
a hypersurface: smoothed viscous runs, interface flattening, entropy and
Kato residual batteries, cone-of-dependence locality checks, and
dyadic-family vanishing-viscosity studies.

The package is driven by the `discflux` command (discflux.cli).  The names
below are the Python API the README documents; everything else is imported
from its module."""

from .entropy import entropy_battery
from .geometry import Box
from .germ import GermStudy
from .presets import preset
from .solver import Field, Grid, RunConfig, run

__all__ = ["preset", "Grid", "Field", "RunConfig", "run", "entropy_battery", "GermStudy", "Box"]

__version__ = "0.1.0"
