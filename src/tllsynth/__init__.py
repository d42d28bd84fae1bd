"""tllsynth: provably sufficient lattice network architectures.

Synthesizes continuous piecewise-affine interpolants of controllers (or
vector fields) on eta-spaced grids dissected into permutation simplexes,
compiles them into exact two-level max-min lattice networks with a priori
size bounds, expands those to plain ReLU layers, and audits the
closed-loop guarantees (error budgets, Lipschitz bounds, invariance,
trajectory deviation, approximate simulation) at desk scale.
"""

from .cpwa import (
    CpwaInterpolant,
    build_interpolant,
    continuity_audit,
    extend_extra_corners,
    lipschitz_audit,
    region_count,
    sample_controller,
)
from .dynamics import (
    ControlSystemModel,
    FiniteTransitionSystem,
    boundary_margin,
    builtin_models,
    check_ads,
    check_delta_tau_invariance,
    check_simulation,
    deviation_audit,
    embed_tau_sampled,
    linear_1d,
    pendulum,
    perturb,
    rk4_closed_loop,
    sysid_deviation_audit,
    van_der_pol,
)
from .errors import (
    BoundViolated,
    BudgetExceeded,
    DimensionMismatch,
    DimensionTooLarge,
    DiscontinuityDetected,
    EmptySelector,
    InvariantViolation,
    NonFiniteState,
    NonPositiveBudget,
    NonPositiveEta,
    OracleFailure,
    OutsideDomain,
    SchemaError,
    StepInvalid,
)
from .geometry import (
    Box,
    EtaGrid,
    braid_face_dissection,
    braid_simplices,
    build_eta_grid,
    extra_corners,
    interpolation_hypercubes,
    locate_batch,
    permutation_rank_batch,
    simplex_vertices,
)
from .serialize import to_json_text
from .sizing import (
    SpecBudget,
    compute_sizing,
    controller_size,
    eta_max,
    gronwall_bound,
    hypercube_count_bound,
    mu_max,
    sysid_budget,
    sysid_size,
)
from .tll import (
    ScalarLattice,
    TllNetwork,
    arch_descriptor,
    compile_tll,
    expand_relu_layers,
    export_network,
    import_network,
    parallel_compose,
)

__version__ = "0.1.0"
