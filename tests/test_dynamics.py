"""Integrators, benchmark models, and the closed-loop audits."""

import math

import numpy as np
import pytest

from tllsynth import (
    Box,
    ControlSystemModel,
    NonFiniteState,
    OracleFailure,
    StepInvalid,
    boundary_margin,
    builtin_models,
    check_delta_tau_invariance,
    deviation_audit,
    linear_1d,
    pendulum,
    rk4_closed_loop,
    sysid_deviation_audit,
    van_der_pol,
)


ZERO = lambda x: np.zeros(x.shape[:-1] + (1,))

# report keys that downstream readers of the audit JSON rely on
INVARIANCE_KEYS = {"audit", "holds", "delta", "tau", "edge_consumed", "num_edge_starts",
                   "num_interior_starts", "worst_edge_margin", "worst_interior_margin",
                   "violations", "notes", "probe_spec"}
DEVIATION_KEYS = {"audit", "holds", "max_deviation", "worst_start", "mu", "mu_source",
                  "bound", "bound_pass", "delta", "delta_pass", "tau", "step",
                  "integration_residual", "num_probes", "notes", "probe_spec"}


def _scalar_model(f, name="toy", k_x=1.0, k_u=1.0, x_span=5.0):
    return ControlSystemModel(name, 1, 1, f,
                              Box([-x_span], [x_span]), Box([-5.0], [5.0]),
                              k_x=k_x, k_u=k_u)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_zero_field_keeps_state():
    model = _scalar_model(lambda x, u: np.zeros_like(x), k_x=0.0, k_u=0.0)
    X0 = np.array([[0.3], [-1.2]])
    times, states, controls = rk4_closed_loop(model, ZERO, X0, tau=1.0, step=0.1)
    assert times.shape == (11,)
    assert np.array_equal(states[-1], X0)
    assert (controls == 0).all()


def test_linear_decay_matches_analytic():
    model = _scalar_model(lambda x, u: -x)
    X0 = np.array([[1.0], [2.0], [-0.5]])
    _, states, _ = rk4_closed_loop(model, ZERO, X0, tau=1.0, step=0.01)
    expect = X0 * math.exp(-1.0)
    assert np.abs(states[-1] - expect).max() <= 1e-9


def test_closed_loop_linear_feedback_analytic():
    # x' = a x + b u with u = k x has flow e^{(a + b k) t} x0
    a, b, k = -2.0, 1.0, -0.5
    model = linear_1d(a=a, b=b)
    controller = lambda x: k * x
    x0 = np.array([[0.8]])
    _, states, controls = rk4_closed_loop(model, controller, x0, tau=1.0, step=0.005)
    expect = 0.8 * math.exp(a + b * k)
    assert states[-1, 0, 0] == pytest.approx(expect, abs=1e-8)
    assert controls[0, 0, 0] == pytest.approx(k * 0.8, abs=1e-12)


def test_integrator_is_fourth_order():
    # halving the step shrinks the endpoint error by about 2^4
    model = _scalar_model(lambda x, u: -x)
    x0 = np.array([[1.0]])
    exact = math.exp(-1.0)
    errs = []
    for h in (0.1, 0.05):
        _, states, _ = rk4_closed_loop(model, ZERO, x0, tau=1.0, step=h)
        errs.append(abs(states[-1, 0, 0] - exact))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_pendulum_against_finer_step():
    model = pendulum()
    damping = lambda x: (-0.5 * (x[..., 0] + x[..., 1]))[..., None]
    X0 = np.array([[0.5, -0.3], [-0.7, 0.2], [0.1, 0.9]])
    _, coarse, _ = rk4_closed_loop(model, damping, X0, tau=1.0, step=0.01)
    _, fine, _ = rk4_closed_loop(model, damping, X0, tau=1.0, step=0.001)
    assert np.abs(coarse[-1] - fine[-1]).max() <= 1e-8


def test_step_validation():
    model = _scalar_model(lambda x, u: -x)
    x0 = np.array([[1.0]])
    with pytest.raises(StepInvalid):
        rk4_closed_loop(model, ZERO, x0, tau=0.0, step=0.1)
    with pytest.raises(StepInvalid):
        rk4_closed_loop(model, ZERO, x0, tau=1.0, step=-0.1)
    with pytest.raises(StepInvalid):
        rk4_closed_loop(model, ZERO, np.array([[1.0, 2.0]]), tau=1.0, step=0.1)


def test_step_count_rounds_up():
    model = _scalar_model(lambda x, u: np.zeros_like(x), k_x=0.0)
    x0 = np.array([[1.0]])
    times, _, _ = rk4_closed_loop(model, ZERO, x0, tau=1.0, step=0.3)
    assert times.shape == (5,)  # ceil(1/0.3) = 4 steps
    assert times[-1] == pytest.approx(1.0, abs=1e-12)
    times, _, _ = rk4_closed_loop(model, ZERO, x0, tau=1.0, step=0.5)
    assert times.shape == (3,)


def test_blowup_raises_nonfinite():
    model = _scalar_model(lambda x, u: x ** 2, x_span=1e9)
    x0 = np.array([[5.0]])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState):
        rk4_closed_loop(model, ZERO, x0, tau=2.0, step=0.05)


def test_controller_shape_is_checked():
    model = _scalar_model(lambda x, u: -x)
    x0 = np.array([[1.0]])
    bad = lambda x: np.zeros(x.shape[:-1] + (2,))
    with pytest.raises(OracleFailure):
        rk4_closed_loop(model, bad, x0, tau=1.0, step=0.1)


def test_single_start_reaches_analytic_endpoint():
    model = linear_1d(a=-1.0, b=0.0)
    times, states, controls = rk4_closed_loop(model, ZERO, np.array([[1.0]]),
                                              tau=1.0, step=0.01)
    assert states[-1, 0, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)
    assert states.shape[0] == times.shape[0] == controls.shape[0] + 1


def test_controller_is_asked_once_per_stage_and_never_at_the_endpoint():
    # 4 stages per step; controls[k] is the control at step k's start state
    model = linear_1d(a=-1.0, b=1.0)
    asked = []

    def controller(x):
        asked.append(x.copy())
        return -0.5 * x

    _, states, controls = rk4_closed_loop(model, controller, np.array([[1.0], [-2.0]]),
                                          tau=1.0, step=0.25)
    assert len(asked) == 4 * 4 and controls.shape == (4, 2, 1)
    assert all(np.array_equal(asked[4 * k], states[k]) for k in range(4))
    assert controls.tobytes() == (-0.5 * states[:-1]).tobytes()


@pytest.mark.parametrize("controller, says", [
    (lambda x: np.zeros(x.shape[:-1]), "shape"),              # (P,) for m = 1
    (lambda x: np.full(x.shape[:-1] + (1,), np.nan), "non-finite"),
], ids=["p-reply-for-m-1", "nan-control"])
def test_controller_reply_must_be_finite_p_by_m(controller, says):
    model = linear_1d(a=-1.0, b=1.0)
    with pytest.raises(OracleFailure, match=says) as info:
        rk4_closed_loop(model, controller, np.array([[0.25]]), tau=1.0, step=0.1)
    assert "[0.25]" in str(info.value)


@pytest.mark.parametrize("audit", ["invariance", "deviation", "sysid"])
def test_each_audit_integrates_once(audit, monkeypatch):
    # once per step: every pass carries all the audit's starts, and a
    # deviation audit at a configured step makes one pass at that step and
    # one at half as many steps
    from tllsynth.dynamics import audits

    calls = []

    def counting(*args, **kwargs):
        calls.append((args[2].shape, round(args[3] / args[4])))
        return rk4_closed_loop(*args, **kwargs)

    monkeypatch.setattr(audits, "rk4_closed_loop", counting)
    model = linear_1d(a=-1.0, b=1.0)
    probes = np.array([[0.5], [-0.25], [0.0]])
    if audit == "invariance":
        report = check_delta_tau_invariance(model, ZERO, delta=0.1, tau=0.5,
                                            per_axis=5, step=0.01)
        assert report.num_edge_starts and report.num_interior_starts
    elif audit == "deviation":
        deviation_audit(model, ZERO, ZERO, tau=0.5, step=0.01, probes=probes,
                        k_upsilon=0.0)
    else:
        sysid_deviation_audit(model, model, ZERO, tau=0.5, step=0.01, probes=probes,
                              k_psi=0.0)
    if audit == "invariance":
        assert [steps for _, steps in calls] == [50]
    else:
        assert sorted(calls) == [((6, 1), 25), ((6, 1), 50)]


# ---------------------------------------------------------------------------
# benchmark models
# ---------------------------------------------------------------------------

def test_builtin_catalog():
    models = builtin_models()
    assert set(models) == {"pendulum", "van_der_pol", "linear_1d"}
    assert models["pendulum"].k_x == 1.5
    assert models["pendulum"].k_u == 1.0


def test_linear_model_constants_exact():
    model = linear_1d(a=-3.0, b=2.0)
    assert model.k_x == 3.0
    assert model.k_u == 2.0
    assert model.field(np.array([2.0]), np.array([1.0]))[0] == pytest.approx(-4.0)


def test_van_der_pol_constant_formula():
    assert van_der_pol(1.0).k_x == max(1.0, 2 * 1.0 + 1.0)
    assert van_der_pol(0.0).k_x == 1.0


def test_declared_constants_bound_sampled_quotients():
    # |f(x,u) - f(x',u')| <= k_x |x-x'| + k_u |u-u'| on 1e5 sampled pairs
    rng = np.random.default_rng(211)
    for model in builtin_models().values():
        P = 100_000
        xs = rng.uniform(model.x_box.lower, model.x_box.upper, size=(P, model.n))
        xs2 = rng.uniform(model.x_box.lower, model.x_box.upper, size=(P, model.n))
        us = rng.uniform(model.u_box.lower, model.u_box.upper, size=(P, model.m))
        us2 = rng.uniform(model.u_box.lower, model.u_box.upper, size=(P, model.m))
        lhs = np.abs(model.field(xs, us) - model.field(xs2, us2)).max(axis=1)
        rhs = (model.k_x * np.abs(xs - xs2).max(axis=1)
               + model.k_u * np.abs(us - us2).max(axis=1))
        assert (lhs <= rhs + 1e-12).all(), model.name


def test_boundary_margin_values():
    box = Box([0.0, 0.0], [1.0, 2.0])
    pts = np.array([[0.5, 1.0], [0.1, 1.9], [0.0, 0.0]])
    got = boundary_margin(box, pts)
    assert got == pytest.approx([0.5, 0.1, 0.0], abs=1e-15)


# ---------------------------------------------------------------------------
# invariance audit
# ---------------------------------------------------------------------------

def test_invariance_holds_for_contraction():
    model = _scalar_model(lambda x, u: -x, x_span=1.0)
    report = check_delta_tau_invariance(model, ZERO, delta=0.1, tau=1.0,
                                        per_axis=7, step=0.01)
    assert report.holds
    assert not report.edge_consumed
    assert report.num_edge_starts > 0
    assert report.num_interior_starts > 0
    assert report.worst_edge_margin > 0
    assert not report.violations
    assert "not a proof" in " ".join(report.notes)


def test_invariance_fails_for_expansion():
    model = _scalar_model(lambda x, u: x, x_span=1.0)
    report = check_delta_tau_invariance(model, ZERO, delta=0.2, tau=1.0,
                                        per_axis=7, step=0.01)
    assert not report.holds
    kinds = {v["kind"] for v in report.violations}
    assert "edge-endpoint" in kinds or "core-node" in kinds
    # expanding flow pushes edge starts out through the boundary
    assert any(v["kind"] == "edge-endpoint" for v in report.violations)


def test_invariance_interior_node_violations_detected():
    # expansion moves interior starts into the edge band mid-horizon
    model = _scalar_model(lambda x, u: x, x_span=1.0)
    report = check_delta_tau_invariance(model, ZERO, delta=0.3, tau=2.0,
                                        per_axis=9, step=0.01)
    assert not report.holds
    assert any(v["kind"] == "core-node" for v in report.violations)


def test_invariance_lists_tied_violations_in_start_order():
    # the unforced pendulum is odd-symmetric, so mirrored starts tie exactly;
    # edge starts come first, each group worst first, ties by start index
    report = check_delta_tau_invariance(pendulum(), ZERO, delta=0.05, tau=0.25, per_axis=5)
    listed = [(v["kind"] == "core-node", -v["shortfall"], v["start"]) for v in report.violations]
    assert len(listed) == 10
    assert listed == sorted(listed)
    assert sum(a[:2] == b[:2] for a, b in zip(listed, listed[1:])) >= 4


def test_invariance_edge_consumes_domain():
    model = _scalar_model(lambda x, u: -x, x_span=1.0)
    report = check_delta_tau_invariance(model, ZERO, delta=1.2, tau=0.5,
                                        per_axis=5, step=0.01)
    assert report.edge_consumed
    assert not report.holds
    assert any("EdgeConsumesDomain" in note for note in report.notes)


def test_invariance_verdict_is_scale_free():
    # x' = -x on [-c, c] with delta 2^-40 c beyond what one period gains
    # from the faces: the worst edge margin is -9.1e-13 c at every c = 2^k,
    # inside a slack relative to the box (an absolute 1e-9 failed from k = 11)
    tau, step = 0.1, 0.01
    unit = _scalar_model(lambda x, u: -x, x_span=1.0)
    r = rk4_closed_loop(unit, ZERO, [[1.0]], tau, step)[1][-1, 0, 0]
    delta = (1.0 - r) + 2.0 ** -40
    base = check_delta_tau_invariance(unit, ZERO, delta, tau, per_axis=5, step=step)
    assert base.holds and -1e-12 < base.worst_edge_margin < 0.0
    for k in range(-40, 41):
        c = 2.0 ** k
        model = _scalar_model(lambda x, u: -x, x_span=c)
        report = check_delta_tau_invariance(model, ZERO, delta * c, tau, per_axis=5, step=step)
        assert report.holds, k
        assert report.worst_edge_margin == base.worst_edge_margin * c
        assert report.worst_interior_margin == base.worst_interior_margin * c


def test_invariance_report_serializes():
    model = _scalar_model(lambda x, u: -x, x_span=1.0)
    report = check_delta_tau_invariance(model, ZERO, delta=0.1, tau=0.5,
                                        per_axis=5, step=0.01)
    obj = report.to_json()
    assert obj["holds"] is True
    assert set(obj) == INVARIANCE_KEYS
    assert obj["audit"] == "delta_tau_invariance"


# ---------------------------------------------------------------------------
# deviation audits
# ---------------------------------------------------------------------------

def test_deviation_zero_for_identical_controllers():
    model = pendulum()
    psi = lambda x: (-0.5 * (x[..., 0] + x[..., 1]))[..., None]
    probes = np.array([[0.2, 0.1], [-0.4, 0.3], [0.0, 0.0]])
    report = deviation_audit(model, psi, psi, tau=0.5, step=0.01, probes=probes,
                             k_upsilon=1.0, mu=0.1)
    assert report.max_deviation == 0.0
    assert report.holds
    assert report.mu_source == "supplied"
    obj = report.to_json()
    assert set(obj) == DEVIATION_KEYS
    assert obj["audit"] == "controller_deviation" and obj["holds"] is True


def test_deviation_linear_analytic():
    # x' = -x with psi = 0 vs upsilon = eps: gap at tau is eps (1 - e^{-tau})
    eps, tau = 0.125, 1.0
    model = linear_1d(a=-1.0, b=1.0)
    psi = ZERO
    upsilon = lambda x: np.full(x.shape[:-1] + (1,), eps)
    probes = np.array([[0.5], [-0.25], [0.0]])
    report = deviation_audit(model, psi, upsilon, tau=tau, step=0.001,
                             probes=probes, k_upsilon=0.0, mu=eps)
    expect = eps * (1 - math.exp(-tau))
    assert report.max_deviation == pytest.approx(expect, abs=1e-8)
    # bound: k_u mu tau e^{(k_x + k_u k_ups) tau} = eps * 1 * e^{1} >= actual
    assert report.bound == pytest.approx(eps * math.exp(1.0), rel=1e-12)
    assert report.holds


def test_deviation_measures_mu_when_not_supplied():
    model = linear_1d(a=-1.0, b=1.0)
    psi = ZERO
    upsilon = lambda x: np.full(x.shape[:-1] + (1,), 0.125)
    probes = np.array([[0.5], [-0.25]])
    report = deviation_audit(model, psi, upsilon, tau=0.5, step=0.01,
                             probes=probes, k_upsilon=0.0,
                             mu_probes=np.linspace(-1, 1, 21)[:, None])
    assert report.mu == pytest.approx(0.125, abs=1e-12)
    assert report.mu_source == "measured"


def test_deviation_delta_gate():
    model = linear_1d(a=-1.0, b=1.0)
    psi = ZERO
    upsilon = lambda x: np.full(x.shape[:-1] + (1,), 0.5)
    probes = np.array([[0.0]])
    report = deviation_audit(model, psi, upsilon, tau=1.0, step=0.01,
                             probes=probes, k_upsilon=0.0, mu=0.5, delta=0.05)
    assert report.delta_pass is False
    assert not report.holds


@pytest.mark.parametrize("mu_factor, verdict", [(1e-4, False), (1.0, True)],
                         ids=["mu-too-small", "mu-exact"])
def test_deviation_verdict_is_scale_free(mu_factor, verdict):
    # linear_1d with psi = 0 against the constant control c, starts of size
    # c and mu = mu_factor * c: the problem scaled by c = 2^k.  An absolute
    # slack of 1e-7 passed the mu-too-small case from c = 2^-23 down
    model = linear_1d(a=-1.0, b=1.0)
    for k in range(-40, 41):
        c = 2.0 ** k
        upsilon = lambda x, c=c: np.full(x.shape[:-1] + (1,), c)
        report = deviation_audit(model, ZERO, upsilon, tau=1.0, step=0.01,
                                 probes=c * np.array([[1.0], [-0.5], [0.0]]),
                                 k_upsilon=0.0, mu=mu_factor * c, delta=0.7 * c)
        assert (report.bound_pass, report.delta_pass) == (verdict, True), k


def test_configured_step_deviation_is_one_rk4_pair_at_that_step():
    model = pendulum()
    psi = lambda x: (-0.5 * (x[..., 0] + x[..., 1]))[..., None]
    upsilon = lambda x: np.clip(-0.6 * x[..., :1] - 0.4 * x[..., 1:], -0.3, 0.3)
    probes = np.array([[0.2, 0.1], [-0.4, 0.3], [0.7, -0.5]])
    tau, step = 0.5, 0.5 / 7
    report = deviation_audit(model, psi, upsilon, tau=tau, step=step, probes=probes,
                             k_upsilon=1.0, mu=0.1)
    ends = [rk4_closed_loop(model, c, probes, tau, step)[1][-1] for c in (psi, upsilon)]
    assert report.max_deviation == np.abs(ends[0] - ends[1]).max()
    assert report.step == tau / 7
    assert report.integration_residual > 0.0


def test_automatic_step_on_a_linear_loop_stops_at_a_sixteenth():
    # x' = -x + u from x0 under u = 0 and u = eps: the endpoints are
    # x0 e^{-tau} and x0 e^{-tau} + eps (1 - e^{-tau})
    eps, tau = 0.125, 1.0
    model = linear_1d(a=-1.0, b=1.0)
    upsilon = lambda x: np.full(x.shape[:-1] + (1,), eps)
    probes = np.array([[0.5], [-0.25], [0.0]])
    report = deviation_audit(model, ZERO, upsilon, tau=tau, step=None, probes=probes,
                             k_upsilon=0.0, mu=eps)
    assert report.step == tau / 16
    exact = probes[:, 0] * math.exp(-tau) + np.array([[0.0], [eps * (1 - math.exp(-tau))]])
    ends = [rk4_closed_loop(model, c, probes, tau, report.step)[1][-1, :, 0]
            for c in (ZERO, upsilon)]
    error = np.abs(np.array(ends) - exact).max()
    assert 0.0 < error <= report.integration_residual
    assert report.integration_residual < 0.01 * (report.bound - report.max_deviation)
    assert report.holds


def test_residual_counts_against_the_bound():
    # at tau/2 the gap is under the bound, but not with twice the residual
    model = linear_1d(a=-1.0, b=1.0)
    upsilon = lambda x: np.full(x.shape[:-1] + (1,), 0.125)
    probes = np.array([[0.5], [0.0]])
    kwargs = dict(tau=1.0, step=0.5, probes=probes, k_upsilon=0.0)
    first = deviation_audit(model, ZERO, upsilon, mu=0.125, **kwargs)
    assert first.integration_residual > 1e-4
    per_mu = first.bound / 0.125
    for share, verdict in [(1.0, False), (3.0, True)]:
        limit = first.max_deviation + share * first.integration_residual
        report = deviation_audit(model, ZERO, upsilon, mu=limit / per_mu, **kwargs)
        assert report.max_deviation == first.max_deviation
        assert report.max_deviation < report.bound
        assert (report.bound_pass, report.holds) == (verdict, verdict)


def test_stiff_loop_stops_at_the_step_floor_and_reports_its_residual():
    # x' = -300 x + u: RK4 is unstable down to tau/64 and stable at tau/128,
    # so the runs at tau/64 and tau/128 still disagree by far more than 1%
    # of the margin
    model = linear_1d(a=-300.0, b=1.0)
    upsilon = lambda x: np.full(x.shape[:-1] + (1,), 0.125)
    report = deviation_audit(model, ZERO, upsilon, tau=1.0, step=None,
                             probes=np.array([[0.5], [0.0]]), k_upsilon=0.0, mu=0.125,
                             delta=0.5)
    assert report.step == 1.0 / 128
    assert report.max_deviation == pytest.approx(0.125 / 300, rel=1e-9)
    assert report.integration_residual > 0.01 * (0.5 - report.max_deviation)
    assert report.delta_pass is False and not report.holds


def test_sysid_deviation_identical_models():
    model = pendulum()
    psi = lambda x: (-0.5 * (x[..., 0] + x[..., 1]))[..., None]
    probes = np.array([[0.2, 0.1], [-0.3, -0.2]])
    report = sysid_deviation_audit(model, model, psi, tau=0.5, step=0.01,
                                   probes=probes, k_psi=1.0, mu=0.05)
    assert report.max_deviation == 0.0
    assert report.holds
    obj = report.to_json()
    assert set(obj) == DEVIATION_KEYS
    assert obj["audit"] == "field_deviation" and obj["holds"] is True


def test_sysid_deviation_toy_linear_bound():
    # true x' = -x, surrogate x' = -x + 0.1: measured mu = 0.1,
    # bound k_u mu tau e^{(k_x + k_u k_psi) tau} = 0.01 e^{0.2} ~ 0.012214
    true = linear_1d(a=-1.0, b=1.0)
    surr = ControlSystemModel("shifted", 1, 1,
                              lambda x, u: -x + u + 0.1,
                              true.x_box, true.u_box, k_x=1.0, k_u=1.0)
    psi = ZERO
    probes = np.linspace(-0.9, 0.9, 7)[:, None]
    grid_xu = np.stack(np.meshgrid(np.linspace(-1, 1, 11),
                                   np.linspace(-1, 1, 11)), axis=-1).reshape(-1, 2)
    report = sysid_deviation_audit(true, surr, psi, tau=0.1, step=0.001,
                                   probes=probes, k_psi=1.0, mu_probes=grid_xu)
    assert report.mu == pytest.approx(0.1, abs=1e-12)
    assert report.bound == pytest.approx(0.01 * math.exp(0.2), rel=1e-10)
    assert report.bound == pytest.approx(0.012214, abs=5e-7)
    expect = 0.1 * (1 - math.exp(-0.1))
    assert report.max_deviation == pytest.approx(expect, abs=1e-8)
    assert report.holds


def test_sysid_mu_probe_dimension_checked():
    true = linear_1d()
    with pytest.raises(Exception):
        sysid_deviation_audit(true, true, ZERO, tau=0.1, step=0.01,
                              probes=np.array([[0.0]]), k_psi=1.0,
                              mu_probes=np.zeros((4, 3)))
