"""Sampling-based closed-loop audits.

Three empirical checks over probe lattices — explicitly audits, not proofs:

* margin invariance: starts near the boundary must re-enter the shrunken
  core after one period, and core starts must never leave it;
* controller deviation: two closed loops from the same starts must stay
  within the disturbance-style bound derived from their pointwise gap;
* surrogate deviation: the same comparison between a plant and an
  identified stand-in field under one shared controller.

A deviation audit integrates its loops at two steps and counts twice the
endpoint gap between the runs, its integration residual, against every
limit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ..cpwa import REL_TOL, check_oracle_reply, power_of_two_scale
from ..errors import DimensionMismatch, NonPositiveBudget
from ..geometry import Box
from ..sizing import gronwall_bound
from .integrate import rk4_closed_loop, step_count
from .models import ControlSystemModel

_AUDIT_NOTE = "sampling-based audit on finite probe sets, not a proof"
# the most violations one invariance report lists
_MAX_VIOLATIONS = 10
# a deviation audit with no configured step starts at tau/16 and halves its
# step while the integration residual is at least 1% of the margin to the
# nearest limit, down to tau/128
_FIRST_STEPS = 16
_MAX_STEPS = 128
_RESIDUAL_SHARE = 0.01


def _slack(*quantities) -> float:
    """The slack of a comparison: ``REL_TOL`` times the ``power_of_two_scale``
    of the quantities it compares, so a problem scaled by 2^k gets the same
    verdict."""
    return REL_TOL * power_of_two_scale(np.concatenate([np.ravel(q) for q in quantities]))


def boundary_margin(box: Box, pts: np.ndarray) -> np.ndarray:
    """Signed distance (infinity-norm geometry) from each point of ``pts``
    (..., n) to the complement of the box: positive inside, zero on a face,
    negative outside."""
    pts = np.asarray(pts, dtype=float)
    return np.minimum(pts - box.lower, box.upper - pts).min(axis=-1)


@dataclass
class InvarianceReport:
    """Outcome of the margin-invariance audit."""

    holds: bool
    delta: float
    tau: float
    edge_consumed: bool
    num_edge_starts: int
    num_interior_starts: int
    worst_edge_margin: float | None      # min over edge starts of margin(x(tau)) - delta
    worst_interior_margin: float | None  # min over interior starts/nodes of margin - delta
    violations: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=lambda: [_AUDIT_NOTE])
    probe_spec: str | None = None

    def to_json(self) -> dict:
        return {"audit": "delta_tau_invariance", **asdict(self)}


def _edge_aware_axes(box: Box, delta: float, per_axis: int) -> list[np.ndarray]:
    """Per-axis probe coordinates: a uniform lattice over the axis plus
    insets at 0, delta/2, and just under delta from each face, so the edge
    band is sampled even when the lattice skips it."""
    insets = np.array([0.0, 0.5 * delta, delta * (1.0 - 1e-9)])
    axes = []
    for lo, hi in zip(box.lower, box.upper):
        base = np.linspace(lo, hi, max(2, per_axis))
        cand = np.concatenate([base, lo + insets, hi - insets])
        cand = cand[(cand >= lo) & (cand <= hi)]
        axes.append(np.unique(cand))
    return axes


def check_delta_tau_invariance(model: ControlSystemModel, controller, delta: float,
                               tau: float, per_axis: int = 5,
                               step: float | None = None) -> InvarianceReport:
    """Audit margin invariance of the closed loop on the model's state box.

    The edge band collects points within ``delta`` of the boundary; the core
    is its complement.  The audit samples a lattice (densified inside the
    band), integrates every start in one pass, and verifies (a) every edge
    start reaches the core after ``tau`` and (b) every core start stays in
    the core at all integration nodes.  When some axis is narrower than
    2*delta the core has no interior and the audit fails with an
    ``EdgeConsumesDomain`` note.
    """
    if delta < 0:
        raise NonPositiveBudget(f"delta must be nonnegative, got {delta}")
    if step is None:
        step = tau / 100.0
    box = model.x_box
    if bool((box.widths <= 2.0 * delta).any()):
        return InvarianceReport(
            holds=False, delta=delta, tau=tau, edge_consumed=True,
            num_edge_starts=0, num_interior_starts=0,
            worst_edge_margin=None, worst_interior_margin=None,
            notes=[_AUDIT_NOTE,
                   "EdgeConsumesDomain: some axis width <= 2*delta, core is empty"],
        )

    mesh = np.meshgrid(*_edge_aware_axes(box, delta, per_axis), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    in_edge = boundary_margin(box, pts) < delta
    edge, core = np.flatnonzero(in_edge), np.flatnonzero(~in_edge)
    times, states, _ = rk4_closed_loop(model, controller, pts, tau, step)
    margin = boundary_margin(box, states) - delta  # (S+1, P)
    margin[:-1, edge] = np.inf     # an edge start is judged at tau only
    node = margin.argmin(axis=0)   # each start's worst node
    worst = margin[node, np.arange(len(pts))]
    worst_edge = float(worst[edge].min()) if edge.size else None
    worst_core = float(worst[core].min()) if core.size else None
    tol = _slack(box.lower, box.upper)

    # the worst starts below -tol, edge starts first; ties in start order
    violations: list[dict] = []
    for kind, group in (("edge-endpoint", edge), ("core-node", core)):
        for p in group[np.argsort(worst[group], kind="stable")]:
            if worst[p] >= -tol or len(violations) >= _MAX_VIOLATIONS:
                break
            violations.append({
                "kind": kind,
                "start": pts[p].tolist(),
                "time": float(times[node[p]]),
                "state": states[node[p], p].tolist(),
                "shortfall": float(-worst[p]),
            })

    return InvarianceReport(
        holds=all(w is None or w >= -tol for w in (worst_edge, worst_core)),
        delta=delta, tau=tau, edge_consumed=False,
        num_edge_starts=int(edge.size),
        num_interior_starts=int(core.size),
        worst_edge_margin=worst_edge, worst_interior_margin=worst_core,
        violations=violations,
        probe_spec=f"edge-aware lattice[{per_axis}^{box.dimension}]",
    )


@dataclass
class DeviationReport:
    """Outcome of a pairwise trajectory-deviation audit."""

    kind: str                    # "controller" or "field"
    max_deviation: float
    worst_start: list[float]
    mu: float
    mu_source: str               # "supplied" or "measured"
    bound: float
    bound_pass: bool
    delta: float | None
    delta_pass: bool | None
    tau: float
    step: float                  # the RK4 step max_deviation comes from
    integration_residual: float  # largest endpoint gap to the run at half the steps
    num_probes: int
    notes: list[str] = field(default_factory=lambda: [_AUDIT_NOTE])
    probe_spec: str | None = None

    @property
    def holds(self) -> bool:
        return self.bound_pass and self.delta_pass is not False

    def to_json(self) -> dict:
        fields = asdict(self)
        return {"audit": f"{fields.pop('kind')}_deviation", "holds": self.holds, **fields}


def _loop_ends(model: ControlSystemModel, controller, starts: np.ndarray, tau: float,
               steps: int) -> np.ndarray:
    """Endpoints of the closed loop from ``starts`` after ``steps`` RK4 steps."""
    return rk4_closed_loop(model, controller, starts, tau, tau / steps)[1][-1]


def _compare_loops(kind: str, model: ControlSystemModel, controller, tau: float,
                   step: float | None, probes: np.ndarray, *, k_lip: float, mu: float,
                   mu_source: str, delta: float | None,
                   probe_spec: str | None) -> DeviationReport:
    """Integrate a pair of closed loops from ``probes`` for one period: the
    starts are stacked twice, and ``model`` with ``controller`` runs one loop
    on each half.  The pair runs at step h and again with half as many
    steps, rounded up; the largest endpoint gap between the two runs is the
    integration residual.  The worst gap between the loops at step h plus
    twice the residual is checked against the Gronwall bound for ``mu``
    (with ``model``'s constants and ``k_lip``) and, when given, ``delta``,
    each up to the ``_slack`` of the endpoints and that limit.

    A configured ``step`` is h.  With none, h starts at tau/16 and halves,
    the last run at h becoming the coarse one, while the residual is at
    least 1% of the margin from the worst gap to the nearest limit, down to
    tau/128.
    """
    P = probes.shape[0]
    starts = np.vstack([probes, probes])
    bound = gronwall_bound(mu, model.k_x, model.k_u, k_lip, tau)
    limits = [bound] + ([] if delta is None else [delta])
    steps = _FIRST_STEPS if step is None else step_count(tau, step)
    coarse = _loop_ends(model, controller, starts, tau, -(-steps // 2))
    ends = _loop_ends(model, controller, starts, tau, steps)
    while True:
        dev = np.abs(ends[:P] - ends[P:]).max(axis=1)
        max_dev = float(dev.max())
        residual = float(np.abs(ends - coarse).max())
        margin = min(limit - max_dev for limit in limits)
        if (step is not None or steps >= _MAX_STEPS
                or residual < _RESIDUAL_SHARE * abs(margin)):
            break
        coarse, steps = ends, 2 * steps
        ends = _loop_ends(model, controller, starts, tau, steps)
    worst = int(np.argmax(dev))
    reach = max_dev + 2.0 * residual

    def fits(limit):
        return bool(reach <= limit + _slack(ends, limit))

    return DeviationReport(
        kind=kind, max_deviation=max_dev, worst_start=probes[worst].tolist(),
        mu=mu, mu_source=mu_source, bound=bound, bound_pass=fits(bound),
        delta=delta, delta_pass=None if delta is None else fits(delta),
        tau=float(tau), step=tau / steps, integration_residual=residual,
        num_probes=P, probe_spec=probe_spec,
    )


def deviation_audit(model: ControlSystemModel, psi, upsilon, tau: float,
                    step: float | None, probes: np.ndarray, *, k_upsilon: float,
                    mu: float | None = None,
                    mu_probes: np.ndarray | None = None,
                    delta: float | None = None,
                    probe_spec: str | None = None) -> DeviationReport:
    """Compare the closed loops under two controllers from shared starts.

    Reports the worst endpoint gap (infinity norm) over the probes and
    checks it against the disturbance bound computed from ``mu`` — the
    controllers' pointwise gap, supplied or measured on ``mu_probes``
    (falling back to the trajectory probes) — with ``k_upsilon`` the
    Lipschitz constant of the second controller.  When ``delta`` is given
    the gap is additionally checked against it.  Each check counts twice
    the integration residual; ``step`` None picks the step
    (``_compare_loops``).
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    mu_source = "supplied"
    if mu is None:
        pts = probes if mu_probes is None else np.atleast_2d(mu_probes)
        gap = np.abs(check_oracle_reply(psi(pts), pts, model.m)
                     - check_oracle_reply(upsilon(pts), pts, model.m))
        mu = float(gap.max())
        mu_source = "measured"

    def pair(x):
        # psi answers the first half of the rows, upsilon the second
        half = len(x) // 2
        return np.concatenate([check_oracle_reply(psi(x[:half]), x[:half], model.m),
                               check_oracle_reply(upsilon(x[half:]), x[half:], model.m)])

    return _compare_loops("controller", model, pair, tau, step, probes,
                          k_lip=k_upsilon, mu=mu, mu_source=mu_source, delta=delta,
                          probe_spec=probe_spec)


def sysid_deviation_audit(model_true: ControlSystemModel,
                          model_surrogate: ControlSystemModel, psi, tau: float,
                          step: float | None, probes: np.ndarray, *, k_psi: float,
                          mu: float | None = None,
                          mu_probes: np.ndarray | None = None,
                          delta: float | None = None,
                          probe_spec: str | None = None) -> DeviationReport:
    """Compare the true plant against an identified surrogate field under
    one shared controller.

    ``mu`` is the fields' pointwise gap, supplied or measured on state-input
    probes (``mu_probes`` of shape (P, n+m); defaults to the trajectory
    probes paired with the controller's own inputs).  The bound uses the
    true plant's constants and ``k_psi``, the controller's Lipschitz
    constant.  Step and residual as in ``deviation_audit``.
    """
    if (model_true.n, model_true.m) != (model_surrogate.n, model_surrogate.m):
        raise DimensionMismatch(
            "true and surrogate models must share state and input dimensions"
        )
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    n, m = model_true.n, model_true.m
    mu_source = "supplied"
    if mu is None:
        if mu_probes is None:
            xs = probes
            us = check_oracle_reply(psi(xs), xs, m)
        else:
            mu_probes = np.atleast_2d(np.asarray(mu_probes, dtype=float))
            if mu_probes.shape[1] != n + m:
                raise DimensionMismatch(
                    f"mu_probes must have {n + m} columns, got {mu_probes.shape[1]}"
                )
            xs, us = mu_probes[:, :n], mu_probes[:, n:]
        gap = np.abs(model_true.field(xs, us) - model_surrogate.field(xs, us))
        mu = float(gap.max())
        mu_source = "measured"

    def pair(x, u):
        # the true field drives the first half of the rows, the surrogate the second
        half = len(x) // 2
        return np.concatenate([model_true.field(x[:half], u[:half]),
                               model_surrogate.field(x[half:], u[half:])])

    return _compare_loops("field", replace(model_true, f=pair), psi, tau, step, probes,
                          k_lip=k_psi, mu=mu, mu_source=mu_source, delta=delta,
                          probe_spec=probe_spec)
