"""Closed-form budgets and network sizes from Lipschitz data.

Everything here is arithmetic on declared constants: the admissible
controller-approximation budget for a disturbance bound, the grid spacing
that meets it, and the exact two-level-lattice sizes those choices imply.
Counts are computed in exact integer arithmetic (Python ints).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .errors import NonPositiveBudget
from .geometry import Box
from .serialize import float_to_hex

#: relative amount by which the sizing audit shrinks mu before re-deriving
#: the defining inequality, to record that the strict bound holds
STRICT_MARGIN = 1e-9


@dataclass(frozen=True)
class SpecBudget:
    """Lipschitz constants and closed-loop requirements for one synthesis run.

    ``k_x`` and ``k_u`` bound the open-loop field's sensitivity to state and
    input, ``k_cont`` the controller's Lipschitz constant, ``tau`` is the
    sampling period and ``delta`` the allowed tau-step deviation.
    ``exponent_multiplier`` selects how the controller constant enters the
    exponent: 3 is the sound value backed by the interpolant's Lipschitz
    bound, 2 reproduces the looser published constant.
    """

    k_x: float
    k_u: float
    k_cont: float
    tau: float
    delta: float
    exponent_multiplier: int = 3

    def __post_init__(self):
        for name in ("k_cont", "tau", "delta"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise NonPositiveBudget(f"{name} must be strictly positive, got {v!r}")
        for name in ("k_x", "k_u"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
                raise NonPositiveBudget(f"{name} must be nonnegative, got {v!r}")
        if self.exponent_multiplier not in (2, 3):
            raise NonPositiveBudget(
                f"exponent_multiplier must be 2 or 3, got {self.exponent_multiplier!r}"
            )

    def to_json(self) -> dict:
        return {
            "k_x": float_to_hex(self.k_x),
            "k_u": float_to_hex(self.k_u),
            "k_cont": float_to_hex(self.k_cont),
            "tau": float_to_hex(self.tau),
            "delta": float_to_hex(self.delta),
            "exponent_multiplier": self.exponent_multiplier,
        }


def mu_max(budget: SpecBudget) -> float:
    """Largest admissible sup-norm controller approximation error.

    mu_max = delta / (k_u * tau * exp((k_x + c*k_u*k_cont) * tau)) with
    c the exponent multiplier.  The defining inequality is strict, so
    consumers must stay strictly below the returned value (subtract a
    margin).  With k_u = 0 the input has no effect on the field and any
    approximation error is admissible; returns +inf with a warning.
    """
    if budget.k_u == 0.0:
        warnings.warn(
            "k_u = 0: field ignores the input, approximation budget is unbounded",
            stacklevel=2,
        )
        return math.inf
    expo = (budget.k_x + budget.exponent_multiplier * budget.k_u * budget.k_cont) * budget.tau
    return budget.delta / (budget.k_u * budget.tau * math.exp(expo))


def eta_max(mu: float, k_cont: float) -> float:
    """Largest grid spacing that keeps the interpolant within ``mu``."""
    if not (mu > 0 and math.isfinite(mu)):
        raise NonPositiveBudget(f"mu must be strictly positive and finite, got {mu!r}")
    if not (k_cont > 0):
        raise NonPositiveBudget(f"k_cont must be strictly positive, got {k_cont!r}")
    return mu / (3.0 * k_cont)


def hypercube_count_bound(n: int, ext: float, eta: float) -> int:
    """Upper bound ceil(ext/eta + 2)^n on interpolation hypercubes, exact."""
    if n < 1:
        raise NonPositiveBudget(f"dimension must be at least 1, got {n}")
    if not (eta > 0 and ext > 0):
        raise NonPositiveBudget("extent and eta must be strictly positive")
    per_axis = math.ceil(ext / eta + 2.0)
    return int(per_axis) ** n


def controller_size(n: int, ext: float, eta: float) -> int:
    """Sufficient number of affine pieces: n! * ceil(ext/eta + 2)^n."""
    return math.factorial(n) * hypercube_count_bound(n, ext, eta)


def sysid_size(n: int, m: int, ext_xu: float, eta: float) -> int:
    """Sufficient identifier size over the state-input box:
    (n+m)! * ceil(ext_xu/eta + 2)^(n+m)."""
    if m < 0:
        raise NonPositiveBudget(f"input dimension must be nonnegative, got {m}")
    return controller_size(n + m, ext_xu, eta)


def gronwall_bound(mu: float, k_x: float, k_u: float, k_lip: float, tau: float) -> float:
    """Endpoint deviation bound k_u * mu * tau * exp((k_x + k_u*k_lip)*tau)
    for two closed loops whose controllers differ by at most ``mu`` and whose
    second controller is ``k_lip``-Lipschitz."""
    if mu < 0 or tau <= 0 or k_x < 0 or k_u < 0 or k_lip < 0:
        raise NonPositiveBudget("gronwall_bound needs mu,k_x,k_u,k_lip >= 0 and tau > 0")
    return k_u * mu * tau * math.exp((k_x + k_u * k_lip) * tau)


def sysid_budget(mu: float, k_x: float, k_u: float, k_cont: float, tau: float) -> float:
    """Deviation bound when the field itself is replaced by a surrogate
    within ``mu``: k_u * mu * tau * exp((k_x + k_u*k_cont)*tau).  The
    disturbance bound delta must stay strictly above the returned value."""
    return gronwall_bound(mu, k_x, k_u, k_cont, tau)


@dataclass
class SizingResult:
    """Resolved budgets and exact sizes for one synthesis configuration.

    ``audit`` records, for each derived number, the formula and inputs that
    produced it, so reports carry their own provenance.
    """

    budget: SpecBudget
    mu: float
    eta: float
    n: int
    control_size: int
    hypercube_bound: int
    sysid: dict | None = None
    audit: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "budget": self.budget.to_json(),
            "mu_max": float_to_hex(self.mu),
            "eta_max": float_to_hex(self.eta),
            "dimension": self.n,
            "controller_size": self.control_size,
            "hypercube_count_bound": self.hypercube_bound,
            "strict_margin": float_to_hex(STRICT_MARGIN),
            "audit": self.audit,
        }
        if self.sysid is not None:
            out["sysid"] = self.sysid
        return out


def compute_sizing(
    budget: SpecBudget,
    domain: Box,
    sysid_box: Box | None = None,
    eta_override: float | None = None,
) -> SizingResult:
    """Run the full sizing chain for a domain box.

    mu and eta come from the budget (eta optionally overridden), sizes from
    the exact counting formulas.  The audit trail re-derives the defining
    inequality at mu*(1-STRICT_MARGIN) to record that the strict bound holds.
    """
    n = domain.dimension
    mu = mu_max(budget)
    audit = [{
        "quantity": "mu_max",
        "formula": "delta / (k_u * tau * exp((k_x + c*k_u*k_cont) * tau))",
        "c": budget.exponent_multiplier,
        "value": float_to_hex(mu),
    }]
    eta = eta_override if eta_override is not None else (
        eta_max(mu, budget.k_cont) if math.isfinite(mu) else None
    )
    if eta is None:
        raise NonPositiveBudget("unbounded mu needs an explicit eta_override")
    if not (eta > 0 and math.isfinite(eta)):
        raise NonPositiveBudget(f"eta must be strictly positive and finite, got {eta!r}")
    audit.append({
        "quantity": "eta_max",
        "formula": "mu / (3 * k_cont)",
        "overridden": eta_override is not None,
        "value": float_to_hex(eta),
    })
    ext = domain.extent()
    size = controller_size(n, ext, eta)
    bound_cubes = hypercube_count_bound(n, ext, eta)
    audit.append({
        "quantity": "controller_size",
        "formula": "n! * ceil(ext/eta + 2)^n",
        "ext": float_to_hex(ext),
        "value": size,
    })
    if math.isfinite(mu):
        recheck = gronwall_bound(mu * (1.0 - STRICT_MARGIN), budget.k_x, budget.k_u,
                                 budget.exponent_multiplier * budget.k_cont, budget.tau)
        audit.append({
            "quantity": "defining_inequality",
            "formula": "k_u * mu*(1-margin) * tau * exp((k_x + c*k_u*k_cont)*tau) < delta",
            "lhs": float_to_hex(recheck),
            "rhs": float_to_hex(budget.delta),
            "holds": bool(recheck < budget.delta),
        })
    sysid = None
    if sysid_box is not None:
        xu = domain.product(sysid_box)
        s_size = sysid_size(n, sysid_box.dimension, xu.extent(), eta)
        s_bound = sysid_budget(mu if math.isfinite(mu) else 0.0, budget.k_x,
                               budget.k_u, budget.k_cont, budget.tau)
        sysid = {
            "size": s_size,
            "extent_xu": float_to_hex(xu.extent()),
            "deviation_bound": float_to_hex(s_bound),
            "formula": "(n+m)! * ceil(ext_xu/eta + 2)^(n+m)",
        }
        audit.append({"quantity": "sysid_size", "formula": sysid["formula"], "value": s_size})
    return SizingResult(budget, mu, eta, n, size, bound_cubes, sysid, audit)
