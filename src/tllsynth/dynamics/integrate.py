"""Fixed-step closed-loop integration.

Classical fourth-order Runge-Kutta on the closed loop g(x) = f(x, psi(x)):
the controller is re-evaluated at every stage state.  Steps are fixed and
deterministic; if the requested step does not divide the horizon it is
shrunk to the nearest exact divisor (``step_count``).
"""

from __future__ import annotations

import math

import numpy as np

from ..cpwa import check_oracle_reply
from ..errors import NonFiniteState, StepInvalid
from .models import ControlSystemModel


def step_count(tau: float, step: float) -> int:
    """The number of RK4 steps over horizon ``tau`` for a requested ``step``:
    tau/step rounded up, less a relative 1e-12 of rounding noise, so that
    ``step = tau / k`` gives k steps.  Raises ``StepInvalid`` for a bad
    horizon or step, or a step so small that the count is not finite."""
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and tau > 0):
        raise StepInvalid(f"horizon must be positive, got {tau!r}")
    if not (isinstance(step, (int, float)) and math.isfinite(step) and step > 0):
        raise StepInvalid(f"step must be positive, got {step!r}")
    ratio = tau / step
    if not math.isfinite(ratio):
        raise StepInvalid(f"step {step!r} gives no finite step count over horizon {tau!r}")
    return max(1, math.ceil(ratio * (1.0 - 1e-12)))


def rk4_closed_loop(model: ControlSystemModel, controller, X0: np.ndarray,
                    tau: float, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch RK4 over horizon tau.

    ``X0`` has shape (P, n); the controller maps (P, n) to finite (P, m),
    and ``cpwa.check_oracle_reply`` checks every reply: any other shape or
    a non-finite control is an ``OracleFailure`` naming the point.  Returns
    (times, states, controls): times (S+1,) and states (S+1, P, n) at the
    step starts and the endpoint, controls (S, P, m) applied at each step
    start (the controller is not asked at the endpoint).  Raises
    ``NonFiniteState`` the moment any stage stops being finite, and
    ``StepInvalid`` for a bad step size (``step_count``).
    """
    steps = step_count(tau, step)
    h = tau / steps
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    if X0.ndim != 2 or X0.shape[1] != model.n:
        raise StepInvalid(f"initial states must have shape (P, {model.n}), got {X0.shape}")
    P, n = X0.shape

    def g(x):
        u = check_oracle_reply(controller(x), x, model.m)
        dx = model.field(x, u)
        if not np.isfinite(dx).all():
            raise NonFiniteState("field produced non-finite derivatives")
        return dx, u

    times = np.empty(steps + 1)
    states = np.empty((steps + 1, P, n))
    controls = np.empty((steps, P, model.m))
    x = X0.copy()
    for k in range(steps):
        times[k] = k * h
        states[k] = x
        k1, u0 = g(x)
        controls[k] = u0
        k2, _ = g(x + 0.5 * h * k1)
        k3, _ = g(x + 0.5 * h * k2)
        k4, _ = g(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise NonFiniteState(f"state blew up at t={times[k] + h:.6g}")
    times[steps] = tau
    states[steps] = x
    return times, states, controls

