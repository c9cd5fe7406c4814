"""Numerical laboratory for scalar conservation laws whose flux jumps across
a hypersurface: smoothed viscous runs, interface flattening, entropy and
contraction residual batteries, cone-of-dependence locality checks, and
dyadic-family vanishing-viscosity studies."""

from .flux import (
    BoundaryReport,
    FluxComponent,
    NondegeneracyReport,
    PiecewiseFlux,
    check_boundary_zero,
    check_nondegeneracy,
    mollify_flux,
    poly_component,
    smoothing_weights,
    smoothstep,
)
from .geometry import (
    Box,
    Cone,
    Interface,
    flatten_model,
    flattened_box,
    mixed_derivative_bound,
    project_to_ball,
    radial_extend,
    radial_extend_model,
    speed_bound,
    transformed_normal_flux,
)
from .presets import PRESET_NAMES, flux_from_spec, preset, resolve_flux
from .solver import (
    Field,
    Grid,
    MaxPrincipleReport,
    RunConfig,
    Trajectory,
    cfl_timestep,
    max_principle_check,
    run,
    run_lockstep,
    step,
)
from .entropy import (
    ConeLocalityReport,
    ContractionReport,
    EntropyEntry,
    EntropyReport,
    ResidualWorkspace,
    TestFunction,
    TraceField,
    bump_battery,
    cone_locality_check,
    contraction_check,
    entropy_battery,
    interface_trace,
    kato_battery,
    l1_distance,
    lambda_battery,
)
from .germ import (
    ContractionMatrix,
    DenseFamily,
    GermEstimate,
    GermLevelResult,
    GermRecord,
    GermStudy,
    SelectionResult,
    StabilityReport,
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
from .scenario import (
    Scenario,
    ScenarioError,
    builtin_scenario_names,
    builtin_scenario_path,
    initial_values_at,
    parse_scenario,
    scenario_from_dict,
)
from . import storage

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
