"""Error budgets, grid spacing, and architecture size formulas."""

import math

import numpy as np
import pytest

from tllsynth import (
    Box,
    NonPositiveBudget,
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

from _oracles import exact_controller_size, exact_sysid_size, expected_mu, sweep_tau


REFERENCE_BUDGET = SpecBudget(k_x=1.0, k_u=2.0, k_cont=1.0, tau=0.1, delta=0.05,
                              exponent_multiplier=2)


def test_mu_max_reference_value():
    mu = mu_max(REFERENCE_BUDGET)
    oracle = 0.05 / (2.0 * 0.1 * math.exp((1.0 + 2 * 2.0 * 1.0) * 0.1))
    assert oracle == pytest.approx(0.05 / (0.2 * math.exp(0.5)), rel=1e-15)
    assert mu == pytest.approx(oracle, rel=1e-12)


def test_mu_max_simple_arithmetic():
    # k_x=1, k_u=1, k_cont=1, tau=0.1, delta=0.05, c=2:
    # mu = 0.05 / (0.1 * e^{0.3}) = 0.37040911...
    b = SpecBudget(k_x=1.0, k_u=1.0, k_cont=1.0, tau=0.1, delta=0.05,
                   exponent_multiplier=2)
    mu = mu_max(b)
    assert mu == pytest.approx(0.05 / (0.1 * math.exp(0.3)), rel=1e-12)
    assert mu == pytest.approx(0.37040911, abs=5e-8)
    assert eta_max(mu, 1.0) == pytest.approx(mu / 3.0, rel=1e-15)
    assert eta_max(mu, 1.0) == pytest.approx(0.12346970, abs=5e-8)


def test_mu_max_uncontrolled_plant_warns_infinite():
    b = SpecBudget(k_x=1.0, k_u=0.0, k_cont=1.0, tau=0.1, delta=0.05,
                   exponent_multiplier=2)
    with pytest.warns(UserWarning):
        assert mu_max(b) == math.inf


def test_mu_max_vanishes_with_delta():
    base = dict(k_x=1.0, k_u=1.0, k_cont=1.0, tau=0.1, exponent_multiplier=2)
    assert mu_max(SpecBudget(delta=1e-12, **base)) < 1e-11
    assert mu_max(SpecBudget(delta=1e-12, **base)) > 0


def test_mu_max_monotonicity():
    base = dict(k_x=1.0, k_u=1.0, k_cont=1.0, tau=0.5, delta=0.1,
                exponent_multiplier=3)
    ref = mu_max(SpecBudget(**base))
    up = lambda **kw: mu_max(SpecBudget(**{**base, **kw}))
    assert up(delta=0.2) > ref            # looser budget helps
    assert up(k_x=2.0) < ref              # stiffer plant hurts
    assert up(k_u=2.0) < ref
    assert up(k_cont=2.0) < ref
    assert up(tau=1.0) < ref              # longer horizon hurts here


def test_eta_max_examples():
    assert eta_max(3.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert eta_max(0.3, 2.0) == pytest.approx(0.05, rel=1e-15)
    with pytest.raises(NonPositiveBudget):
        eta_max(-0.1, 1.0)
    with pytest.raises(NonPositiveBudget):
        eta_max(0.3, 0.0)


def test_hypercube_count_bound_examples():
    assert hypercube_count_bound(1, 1.0, 0.5) == 4
    assert hypercube_count_bound(2, 2.0, 0.25) == 100
    with pytest.raises(ValueError):
        hypercube_count_bound(0, 1.0, 0.5)
    with pytest.raises(NonPositiveBudget):
        hypercube_count_bound(1, 1.0, 0.0)


def test_controller_size_examples():
    assert controller_size(1, 1.0, 0.5) == 4
    assert controller_size(2, 2.0, 0.25) == 200
    assert controller_size(2, 1.0, 0.1) == 2 * 12 ** 2  # 288
    # eta barely covering: single-cell styles
    assert controller_size(1, 1.0, 1.0) == 3
    assert controller_size(3, 1.0, 0.5) == 6 * 4 ** 3  # 384


def test_reference_configuration_sizes():
    # k_x=1, k_u=1, k_cont=1, tau=0.1, delta=0.05, c=2 on [0,1]^2:
    # mu=0.37040911, eta=0.12346970, ceil(1/eta + 2) = 11, 2! * 11^2 = 242
    b = SpecBudget(k_x=1.0, k_u=1.0, k_cont=1.0, tau=0.1, delta=0.05,
                   exponent_multiplier=2)
    eta = eta_max(mu_max(b), b.k_cont)
    assert controller_size(2, 1.0, eta) == 242
    assert controller_size(2, 1.0, eta) == exact_controller_size(2, 1.0, eta)


def test_sysid_size_examples():
    assert sysid_size(1, 1, 2.0, 1.0) == 32       # 2! * 4^2
    assert sysid_size(2, 1, 4.0, 2.0 / 3.0) == 6 * 8 ** 3  # 3072
    assert sysid_size(2, 0, 1.0, 0.5) == controller_size(2, 1.0, 0.5)


def test_sizes_match_exact_arithmetic():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 7 - n))
        ext = float(rng.uniform(0.3, 5.0))
        eta = float(rng.uniform(0.05, 1.2))
        assert controller_size(n, ext, eta) == exact_controller_size(n, ext, eta)
        if n + m >= 1:
            assert sysid_size(n, m, ext, eta) == exact_sysid_size(n, m, ext, eta)


def test_gronwall_bound_examples():
    # mu=0.1, k_x=1, k_u=1, k_lip=3, tau=0.1 -> 0.01 * e^{0.4}
    assert gronwall_bound(0.1, 1.0, 1.0, 3.0, 0.1) == pytest.approx(
        0.01 * math.exp(0.4), rel=1e-12)
    assert gronwall_bound(0.1, 1.0, 1.0, 3.0, 0.1) == pytest.approx(0.014918, abs=5e-7)
    assert gronwall_bound(0.0, 1.0, 1.0, 3.0, 0.1) == 0.0
    # k_x = k_lip = 0 leaves the bare k_u * mu * tau term
    assert gronwall_bound(0.5, 0.0, 2.0, 0.0, 0.25) == pytest.approx(0.25, rel=1e-15)


def test_sysid_budget_example():
    # mu=0.1, k_x=1, k_u=1, k_cont=1, tau=0.1 -> 0.01 * e^{0.2}
    got = sysid_budget(0.1, 1.0, 1.0, 1.0, 0.1)
    assert got == pytest.approx(0.01 * math.exp(0.2), rel=1e-12)
    assert got == pytest.approx(0.012214, abs=5e-7)


def test_budget_chain_is_consistent():
    rng = np.random.default_rng(29)
    for _ in range(40):
        b = SpecBudget(
            k_x=float(rng.uniform(0.1, 3.0)),
            k_u=float(rng.uniform(0.1, 3.0)),
            k_cont=float(rng.uniform(0.1, 3.0)),
            tau=float(rng.uniform(0.05, 1.0)),
            delta=float(rng.uniform(0.01, 1.0)),
            exponent_multiplier=int(rng.choice([2, 3])),
        )
        mu = mu_max(b)
        # plugging mu back reproduces delta up to roundoff ...
        closed = gronwall_bound(mu, b.k_x, b.k_u,
                                b.exponent_multiplier * b.k_cont, b.tau)
        assert closed == pytest.approx(b.delta, rel=1e-12)
        # ... and any strict shrink restores the strict inequality
        shrunk = gronwall_bound(mu * (1 - 1e-9), b.k_x, b.k_u,
                                b.exponent_multiplier * b.k_cont, b.tau)
        assert shrunk < b.delta


def test_budget_validation():
    with pytest.raises(NonPositiveBudget):
        SpecBudget(k_x=1.0, k_u=1.0, k_cont=1.0, tau=0.1, delta=0.0,
                   exponent_multiplier=2)
    with pytest.raises(NonPositiveBudget):
        SpecBudget(k_x=1.0, k_u=1.0, k_cont=1.0, tau=-0.1, delta=0.05,
                   exponent_multiplier=2)
    with pytest.raises(NonPositiveBudget):
        SpecBudget(k_x=-1.0, k_u=1.0, k_cont=1.0, tau=0.1, delta=0.05,
                   exponent_multiplier=2)
    with pytest.raises(ValueError):
        SpecBudget(k_x=1.0, k_u=1.0, k_cont=1.0, tau=0.1, delta=0.05,
                   exponent_multiplier=4)


def test_sweep_tau_finds_interior_maximum():
    b = SpecBudget(k_x=1.0, k_u=1.0, k_cont=1.0, tau=0.5, delta=0.1,
                   exponent_multiplier=2)
    taus = np.linspace(0.05, 2.0, 40)
    best_tau, best_mu, table = sweep_tau(b, taus)
    assert len(table) == 40
    assert best_mu == max(mu for (_, mu) in table)
    assert best_mu == mu_max(SpecBudget(b.k_x, b.k_u, b.k_cont, best_tau,
                                        b.delta, b.exponent_multiplier))
    # mu(tau) ~ delta/(k_u tau e^{g tau}) is decreasing, so earliest tau wins
    assert best_tau == pytest.approx(0.05, rel=1e-12)


def test_compute_sizing_end_to_end():
    b = SpecBudget(k_x=1.0, k_u=1.0, k_cont=1.0, tau=0.1, delta=0.05,
                   exponent_multiplier=2)
    res = compute_sizing(b, Box([0.0, 0.0], [1.0, 1.0]),
                         sysid_box=Box([0.0, 0.0, 0.0], [2.0, 2.0, 2.0]))
    assert res.mu == pytest.approx(expected_mu(0.05, 1, 1, 1, 0.1, 2), rel=1e-12)
    assert res.eta == pytest.approx(res.mu / 3.0, rel=1e-15)
    assert res.control_size == 242
    assert res.hypercube_bound == 121
    assert res.sysid is not None
    ineq = [a for a in res.audit if a["quantity"] == "defining_inequality"]
    assert ineq and ineq[0]["holds"] is True


def test_compute_sizing_eta_override():
    b = SpecBudget(k_x=1.0, k_u=1.0, k_cont=1.0, tau=0.1, delta=0.05,
                   exponent_multiplier=2)
    res = compute_sizing(b, Box([0.0], [1.0]), eta_override=0.5)
    assert res.eta == 0.5
    assert res.control_size == 4


def test_compute_sizing_rejects_bad_override():
    b = SpecBudget(k_x=1.0, k_u=1.0, k_cont=1.0, tau=0.1, delta=0.05,
                   exponent_multiplier=2)
    with pytest.raises(NonPositiveBudget):
        compute_sizing(b, Box([0.0], [1.0]), eta_override=-0.25)
