"""Closed-loop dynamics: plants, integration, embeddings, and audits."""

from .audits import (
    boundary_margin,
    check_delta_tau_invariance,
    deviation_audit,
    sysid_deviation_audit,
)
from .integrate import rk4_closed_loop
from .models import ControlSystemModel, builtin_models, linear_1d, pendulum, van_der_pol
from .transition import (
    FiniteTransitionSystem,
    check_ads,
    check_simulation,
    embed_tau_sampled,
    perturb,
)
