"""Sampled transition systems, perturbation, and simulation checks."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from tllsynth import (
    Box,
    DimensionMismatch,
    FiniteTransitionSystem,
    SchemaError,
    SpecBudget,
    build_eta_grid,
    build_interpolant,
    check_ads,
    check_simulation,
    compile_tll,
    compute_sizing,
    embed_tau_sampled,
    linear_1d,
    pendulum,
    perturb,
    rk4_closed_loop,
    sample_controller,
    to_json_text,
)

from _oracles import (
    brute_force_ads,
    brute_force_simulation,
    linear_scan_embed,
    near_scan_perturb,
    pair_loop_greatest,
    random_transition_system,
    set_seed_pairs,
    successors,
)


def _ts(coords, transitions):
    return FiniteTransitionSystem(np.asarray(coords, dtype=float), set(transitions))


# ---------------------------------------------------------------------------
# the structure itself
# ---------------------------------------------------------------------------

def test_basic_accessors():
    ts = _ts([[0.0], [1.0], [2.0]], {(0, "a", 1), (1, "a", 2), (1, "b", 0)})
    assert ts.num_states == 3
    assert ts.labels == {"a", "b"}
    assert successors(ts, 1) == [("a", 2), ("b", 0)]
    assert successors(ts, 1, "b") == [("b", 0)]
    assert ts.distance(0, 2) == 2.0


def test_transitions_validated():
    with pytest.raises(ValueError):
        _ts([[0.0]], {(0, "a", 5)})
    with pytest.raises(ValueError):
        _ts([[0.0]], {(-1, "a", 0)})


def test_unknown_states_error_names_the_smallest_bad_transition():
    # set order follows the string hashes, which vary from run to run
    bad = {(3, "b", 0), (0, "z", 7), (0, "a", 9), (-2, "a", 1), (2, "a", -1)}
    with pytest.raises(ValueError) as info:
        _ts([[0.0], [1.0], [2.0]], bad | {(0, "a", 1), (2, "c", 2)})
    assert str(info.value) == ("5 transitions reference unknown states (there are 3), "
                               "the smallest (-2, 'a', 1)")


def test_relabeled_unifies_labels():
    ts = _ts([[0.0], [1.0]], {(0, "a", 1), (1, "b", 0)})
    flat = ts.relabeled()
    assert flat.labels == {"*"}
    assert len(flat.transitions) == 2


def test_json_roundtrip():
    ts = _ts([[0.0, 1.0], [2.0, 3.0]], {(0, "go", 1), (1, "go", 1)})
    back = FiniteTransitionSystem.from_json(ts.to_json())
    assert np.array_equal(back.coords, ts.coords)
    assert back.transitions == ts.transitions


def test_json_schema_violations():
    ts = _ts([[0.0], [1.0]], {(0, "a", 1)})
    obj = ts.to_json()
    bad = {k: v for k, v in obj.items() if k != "states"}
    with pytest.raises(SchemaError):
        FiniteTransitionSystem.from_json(bad)
    bad = dict(obj)
    bad["states"] = list(reversed(obj["states"]))
    with pytest.raises(SchemaError):
        FiniteTransitionSystem.from_json(bad)
    state = obj["states"][0]
    for states in ([{"id": 0}], [5], [state, {"id": 1, "coords": ["0x1p+0", "0x1p+0"]}],
                   [state, {**obj["states"][1], "id": True}]):
        with pytest.raises(SchemaError):
            FiniteTransitionSystem.from_json({**obj, "states": states})
    edge = obj["transitions"][0]
    for transitions in (5, [5], [{"src": None, "label": "a", "dst": 1}],
                        [{"src": "x", "label": "a", "dst": 1}],
                        [{**edge, "src": 1.9}], [{**edge, "label": 7}],
                        [{**edge, "dst": "0"}]):
        with pytest.raises(SchemaError):
            FiniteTransitionSystem.from_json({**obj, "transitions": transitions})


def test_arrays_are_sorted_and_transitions_built_from_them():
    ts = FiniteTransitionSystem(coords=[[0.0], [1.0], [2.0]],
                                transitions=[(2, "a", 0), (0, "b", 1), (0, "a", 2),
                                             (0, "a", 1), (2, "a", 0)])
    assert ts.label_names == ("a", "b")
    assert ts.src.dtype == ts.lab.dtype == ts.dst.dtype == np.int32
    assert list(zip(ts.src.tolist(), ts.lab.tolist(), ts.dst.tolist())) == [
        (0, 0, 1), (0, 0, 2), (0, 1, 1), (2, 0, 0)]
    assert ts.transitions == {(0, "a", 1), (0, "a", 2), (0, "b", 1), (2, "a", 0)}
    assert all(type(v) in (int, str) for tr in ts.transitions for v in tr)
    with pytest.raises(ValueError):
        ts.src[0] = 1     # the arrays are read-only, so the cached set stays true
    empty = FiniteTransitionSystem(np.zeros((2, 1)))
    assert empty.transitions == set() and empty.labels == set()
    assert empty.relabeled().label_names == ()


def test_endpoints_past_int64_are_unknown_states():
    with pytest.raises(ValueError) as info:
        _ts([[0.0]], {(0, "a", 0), (0, "a", 2 ** 70), (-(2 ** 65), "b", 0)})
    assert str(info.value) == ("2 transitions reference unknown states (there are 1), "
                               f"the smallest ({-(2 ** 65)}, 'b', 0)")


def _sorted_set_json(ts):
    """to_json as written from ``sorted(ts.transitions)``."""
    obj = ts.to_json()
    obj["transitions"] = [{"src": s, "label": u, "dst": t}
                          for (s, u, t) in sorted(ts.transitions)]
    return obj


def test_to_json_writes_the_sorted_transition_set_byte_for_byte():
    rng = np.random.default_rng(353)
    systems = [random_transition_system(rng, max_states=12) for _ in range(20)]
    systems.append(_ts([[0.0], [1.0]], {(1, "b", 0), (0, "B", 1), (0, "a", 1), (0, "b", 0)}))
    for ts in systems:
        text = to_json_text(ts.to_json())
        assert text == to_json_text(_sorted_set_json(ts))
        back = FiniteTransitionSystem.from_json(ts.to_json())
        assert to_json_text(back.to_json()) == text


# ---------------------------------------------------------------------------
# embedding closed loops
# ---------------------------------------------------------------------------

def test_embed_zero_field_self_loops():
    model = linear_1d(a=0.0, b=0.0)
    controller = lambda x: np.zeros_like(x)
    samples = np.array([[-0.5], [0.0], [0.5]])
    ts = embed_tau_sampled(model, controller, samples, tau=1.0, step=0.1)
    assert ts.num_states == 3
    assert ts.transitions == {(0, next(iter(ts.labels)), 0),
                              (1, next(iter(ts.labels)), 1),
                              (2, next(iter(ts.labels)), 2)}


def test_embed_contraction_appends_endpoints():
    model = linear_1d(a=-1.0, b=0.0)
    controller = lambda x: np.zeros_like(x)
    samples = np.array([[1.0], [-1.0]])
    ts = embed_tau_sampled(model, controller, samples, tau=1.0, step=0.01)
    # two sources plus two new endpoint states
    assert ts.num_states == 4
    assert len(ts.transitions) == 2
    end = math.exp(-1.0)
    coords = sorted(float(c[0]) for c in ts.coords)
    assert coords == pytest.approx([-1.0, -end, end, 1.0], abs=1e-9)


def test_embed_deduplicates_coincident_samples():
    model = linear_1d(a=0.0, b=0.0)
    controller = lambda x: np.zeros_like(x)
    samples = np.array([[0.25], [0.25 + 1e-12]])
    ts = embed_tau_sampled(model, controller, samples, tau=0.5, step=0.1)
    assert ts.num_states == 1
    assert len(ts.transitions) == 1


def test_embed_default_snap_follows_the_states_scale():
    # 0.25 and 0.25 + 2^-40 merge and 0.5 stays apart, all times 2^k, for
    # every k (an absolute 1e-9 merged all three at k = -40)
    model = linear_1d(a=0.0, b=0.0)
    controller = lambda x: np.zeros_like(x)
    for k in range(-40, 41):
        samples = 2.0 ** k * np.array([[0.25], [0.25 + 2.0 ** -40], [0.5]])
        ts = embed_tau_sampled(model, controller, samples, tau=0.5, step=0.1)
        assert ts.num_states == 2, k
    assert embed_tau_sampled(model, controller, np.empty((0, 1)), tau=0.5).num_states == 0


def test_embed_labels_hash_control_segments():
    # identical control traces share a label; different ones do not
    model = linear_1d(a=-1.0, b=1.0)
    controller = lambda x: 0.5 * x
    samples = np.array([[0.4], [-0.4], [0.8]])
    ts = embed_tau_sampled(model, controller, samples, tau=0.5, step=0.05)
    labels = {u for (_, u, _) in ts.transitions}
    assert len(labels) == 3  # three distinct segments
    assert all(u.startswith("u#") and len(u) == 18 for u in labels)
    # re-embedding reproduces the exact same labels (determinism)
    again = embed_tau_sampled(model, controller, samples, tau=0.5, step=0.05)
    assert {u for (_, u, _) in again.transitions} == labels


def test_embed_labels_hash_the_controls_at_every_node_and_the_endpoint():
    # the integrator returns the controls at the step starts; the embedding
    # asks for the endpoint's itself, so each label covers all steps + 1 nodes
    from tllsynth.dynamics.transition import _segment_label

    model = linear_1d(a=-1.0, b=1.0)
    controller = lambda x: -0.5 * x
    samples = np.array([[0.5], [-0.25]])
    ts = embed_tau_sampled(model, controller, samples, tau=0.5, step=0.125)
    _, states, controls = rk4_closed_loop(model, controller, samples, 0.5, 0.125)
    assert controls.shape == (4, 2, 1) and states.shape == (5, 2, 1)
    want = {_segment_label(-0.5 * states[:, col]) for col in range(2)}
    assert {u for (_, u, _) in ts.transitions} == want


def test_embed_labels_follow_the_controls_own_scale():
    # u = c sin(3 x1) on the pendulum: 25 samples, 25 distinct segments at
    # any c; an absolute rounding grain merged them all at c = 1e-12
    from tllsynth import pendulum

    model = pendulum()
    axis = np.linspace(-0.55, 0.65, 5)   # off the origin, where u = 0 = 2u
    samples = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)

    def partition(c):
        ts = embed_tau_sampled(model, lambda x: c * np.sin(3.0 * x[..., :1]), samples,
                               tau=0.25, step=0.025)
        by_label = {}
        for src, u, _ in sorted(ts.transitions):
            by_label.setdefault(u, []).append(src)
        return sorted(by_label.values()), {u for (_, u, _) in ts.transitions}

    groups, labels = partition(1.0)
    assert len(labels) == 25
    for c in (1e-12, 1e-300, 1e12):
        assert partition(c)[0] == groups
    # segments u and 2u differ, though they round alike relative to their scales
    assert partition(2.0)[1].isdisjoint(labels)


def test_embed_extra_states_are_interned_not_integrated():
    model = linear_1d(a=0.0, b=0.0)
    controller = lambda x: np.zeros_like(x)
    samples = np.array([[0.0]])
    extra = np.array([[3.0], [0.0]])
    ts = embed_tau_sampled(model, controller, samples, tau=1.0, step=0.1,
                           extra_states=extra)
    assert ts.num_states == 2  # 0.0 deduplicated, 3.0 appended
    assert all(src == 0 for (src, _, _) in ts.transitions)
    with pytest.raises(DimensionMismatch):
        embed_tau_sampled(model, controller, samples, tau=1.0, step=0.1,
                          extra_states=np.zeros((1, 2)))


@pytest.mark.parametrize("with_extras", [False, True], ids=["samples", "extra-states"])
def test_embed_matches_linear_scan_reference(with_extras):
    # coarse snapping merges nearby samples, endpoints and extra states, so
    # the first-match order of the interning decides the state numbering
    from tllsynth import pendulum

    model = pendulum()
    controller = lambda x: -0.5 * (x[..., :1] + x[..., 1:])
    rng = np.random.default_rng(359)
    for _ in range(5):
        samples = rng.uniform(-0.6, 0.6, size=(40, 2))
        extra = None
        if with_extras:
            extra = np.vstack([rng.uniform(-0.8, 0.8, size=(20, 2)),
                               samples[::4] + rng.uniform(-0.02, 0.02, size=(10, 2))])
        kwargs = dict(tau=0.25, step=0.025, snap_tol=0.08, extra_states=extra)
        ts = embed_tau_sampled(model, controller, samples, **kwargs)
        ref = linear_scan_embed(model, controller, samples, **kwargs)
        assert ts.to_json() == ref.to_json()
        assert ts.num_states < 2 * len(samples) + (0 if extra is None else len(extra))


def test_embed_snap_tolerance_controls_merging():
    model = linear_1d(a=-1.0, b=0.0)
    controller = lambda x: np.zeros_like(x)
    samples = np.array([[0.001]])
    loose = embed_tau_sampled(model, controller, samples, tau=1.0, step=0.01,
                              snap_tol=0.01)
    assert loose.num_states == 1  # endpoint snaps back onto the source
    tight = embed_tau_sampled(model, controller, samples, tau=1.0, step=0.01,
                              snap_tol=1e-12)
    assert tight.num_states == 2


@pytest.mark.parametrize("snap_tol", [math.nan, -1e-9])
def test_embed_rejects_a_nan_or_negative_snap_tolerance(snap_tol):
    model = linear_1d(a=-1.0, b=0.0)
    controller = lambda x: np.zeros_like(x)
    with pytest.raises(ValueError, match=f"snap_tol must be nonnegative, got {snap_tol}"):
        embed_tau_sampled(model, controller, np.array([[0.5]]), tau=1.0, snap_tol=snap_tol)


# ---------------------------------------------------------------------------
# perturbation
# ---------------------------------------------------------------------------

def test_perturb_zero_is_identity():
    ts = _ts([[0.0], [1.0]], {(0, "a", 1)})
    same = perturb(ts, 0.0)
    assert same.transitions == ts.transitions


def test_perturb_widens_targets_by_distance():
    ts = _ts([[0.0], [1.0], [2.0]], {(0, "a", 0), (1, "a", 1)})
    widened = perturb(ts, 1.0)
    # target 0 gains neighbor 1; target 1 (middle) gains 0 and 2
    assert widened.transitions == {
        (0, "a", 0), (0, "a", 1),
        (1, "a", 0), (1, "a", 1), (1, "a", 2),
    }


def test_perturb_saturates_at_diameter():
    ts = _ts([[0.0], [1.0], [2.0]], {(0, "a", 1)})
    full = perturb(ts, 10.0)
    assert full.transitions == {(0, "a", 0), (0, "a", 1), (0, "a", 2)}


def test_perturb_rejects_negative_delta():
    ts = _ts([[0.0]], {(0, "a", 0)})
    with pytest.raises(ValueError):
        perturb(ts, -0.1)


def test_perturb_rejects_nan_delta():
    ts = _ts([[0.0]], {(0, "a", 0)})
    with pytest.raises(ValueError, match="delta must be nonnegative, got nan"):
        perturb(ts, math.nan)


def test_perturb_matches_the_per_transition_scan():
    rng = np.random.default_rng(349)
    for _ in range(30):
        ts = random_transition_system(rng, max_states=40, min_states=20, density=0.05)
        delta = float(rng.uniform(0.0, 1.5))
        assert perturb(ts, delta).to_json() == near_scan_perturb(ts, delta).to_json()


def test_perturb_is_monotone_in_delta():
    rng = np.random.default_rng(311)
    for _ in range(50):
        ts = random_transition_system(rng)
        d1, d2 = sorted(rng.uniform(0, 3, size=2))
        assert perturb(ts, d1).transitions <= perturb(ts, d2).transitions
        assert ts.transitions <= perturb(ts, d1).transitions


# ---------------------------------------------------------------------------
# ordinary simulation
# ---------------------------------------------------------------------------

def test_identity_simulation_holds():
    ts = _ts([[0.0], [1.0]], {(0, "a", 1), (1, "b", 0)})
    verdict = check_simulation(ts, ts)
    assert verdict.holds
    assert {(i, i) for i in range(2)} <= verdict.relation.pairs


def test_extra_left_behavior_breaks_simulation():
    # left can do "b" from state 1; the spec system cannot
    left = _ts([[0.0], [1.0]], {(0, "a", 1), (1, "b", 0)})
    spec = _ts([[0.0], [1.0]], {(0, "a", 1)})
    verdict = check_simulation(left, spec)
    assert not verdict.holds
    assert verdict.counterexample is not None


def test_universal_spec_simulates_everything():
    rng = np.random.default_rng(313)
    for _ in range(20):
        ts = random_transition_system(rng)
        hub = _ts([[0.0, 0.0]],
                  {(0, lab, 0) for lab in (ts.labels or {"a"})})
        verdict = check_simulation(ts, hub)
        assert verdict.holds


def test_simulation_matches_brute_force():
    rng = np.random.default_rng(317)
    for _ in range(60):
        a = random_transition_system(rng)
        b = random_transition_system(rng)
        verdict = check_simulation(a, b)
        rel, total = brute_force_simulation(a, b)
        assert verdict.relation.pairs == rel
        assert verdict.holds == total


def test_distance_gate_restricts_relation():
    a = _ts([[0.0], [5.0]], {(0, "a", 0), (1, "a", 1)})
    b = _ts([[0.1], [5.1]], {(0, "a", 0), (1, "a", 1)})
    wide = check_simulation(a, b)
    assert (0, 1) in wide.relation.pairs
    gated = check_simulation(a, b, max_pair_distance=0.5)
    assert gated.holds
    assert (0, 1) not in gated.relation.pairs
    assert gated.relation.pairs == {(0, 0), (1, 1)}


def test_distance_gate_matches_brute_force():
    rng = np.random.default_rng(331)
    for _ in range(40):
        a = random_transition_system(rng)
        b = random_transition_system(rng)
        gate = float(rng.uniform(0.5, 3.0))
        verdict = check_simulation(a, b, max_pair_distance=gate)
        rel, total = brute_force_simulation(a, b, max_pair_distance=gate)
        assert verdict.relation.pairs == rel
        assert verdict.holds == total


def test_distance_gate_needs_matching_dimensions():
    a = _ts([[0.0]], {(0, "a", 0)})
    b = _ts([[0.0, 0.0]], {(0, "a", 0)})
    with pytest.raises(DimensionMismatch):
        check_simulation(a, b, max_pair_distance=1.0)


@pytest.mark.parametrize("gate", [math.nan, -0.5])
def test_distance_gate_rejects_nan_and_negative(gate):
    ts = _ts([[0.0]], {(0, "a", 0)})
    with pytest.raises(ValueError, match=f"max_pair_distance must be nonnegative, got {gate}"):
        check_simulation(ts, ts, max_pair_distance=gate)


def test_verdict_serializes():
    ts = _ts([[0.0]], {(0, "a", 0)})
    obj = check_simulation(ts, ts).to_json()
    assert obj["holds"] is True
    assert obj["mode"] == "ordinary"
    assert obj["pairs"] == [[0, 0]]


# ---------------------------------------------------------------------------
# approximate simulation
# ---------------------------------------------------------------------------

def test_ads_self_loop_any_delta():
    ts = _ts([[0.0]], {(0, "a", 0)})
    for delta in (0.0, 0.5, 2.0):
        verdict = check_ads(ts, ts, delta)
        assert verdict.holds
        assert verdict.relation.pairs == {(0, 0)}


def test_ads_chain_against_coarse_spec():
    # left walks a 5-state chain; the 2-state spec only covers it when delta
    # absorbs the spacing
    chain = _ts([[float(i)] for i in range(5)],
                {(i, "a", i + 1) for i in range(4)})
    # the spec loops at both ends and can hop either way; the perturbed chain
    # wanders +-delta, so matching needs delta to absorb the spacing
    spec = _ts([[0.0], [4.0]],
               {(0, "a", 0), (0, "a", 1), (1, "a", 1), (1, "a", 0)})
    near = check_ads(chain, spec, 2.0)
    assert near.holds
    far = check_ads(chain, spec, 0.5)
    assert not far.holds
    assert far.counterexample is not None


def test_ads_matches_brute_force():
    rng = np.random.default_rng(337)
    for _ in range(50):
        a = random_transition_system(rng)
        b = random_transition_system(rng)
        delta = float(rng.uniform(0.0, 2.5))
        verdict = check_ads(a, b, delta)
        rel, total = brute_force_ads(a, b, delta, perturb(a, delta))
        assert verdict.relation.pairs == rel
        assert verdict.holds == total


def test_ads_zero_delta_equals_unified_label_simulation():
    rng = np.random.default_rng(347)
    for _ in range(40):
        a = random_transition_system(rng)
        b = random_transition_system(rng)
        ads = check_ads(a, b, 0.0)
        plain = check_simulation(a.relabeled(), b.relabeled(),
                                 max_pair_distance=0.0)
        assert ads.relation.pairs == plain.relation.pairs
        assert ads.holds == plain.holds


def test_ads_requires_matching_dimensions_and_delta_sign():
    a = _ts([[0.0]], {(0, "a", 0)})
    b = _ts([[0.0, 0.0]], {(0, "a", 0)})
    with pytest.raises(DimensionMismatch):
        check_ads(a, b, 0.1)
    with pytest.raises(ValueError):
        check_ads(a, a, -0.5)


def test_ads_rejects_nan_delta():
    ts = _ts([[0.0]], {(0, "a", 0)})
    with pytest.raises(ValueError, match="delta must be nonnegative, got nan"):
        check_ads(ts, ts, math.nan)


# ---------------------------------------------------------------------------
# the array fixpoint against the pair loop, past the subset enumeration
# ---------------------------------------------------------------------------

def _pair_loop_verdict(trans_a, num_a, trans_b, num_b, seed, label_free):
    rel = pair_loop_greatest(trans_a, num_a, trans_b, num_b, seed, label_free)
    missing = sorted(set(range(num_a)) - {x for (x, _) in rel})
    return rel, not missing, (missing[0] if missing else None)


def _assert_same(verdict, want):
    assert (verdict.relation.pairs, verdict.holds, verdict.counterexample) == want


@functools.lru_cache(maxsize=None)
def _pendulum_loops(per_axis):
    """tau-sampled embeddings of a lattice network loop and of its saturating
    controller's loop on per_axis^2 starts, as the closed-loop benchmark
    sets them up."""
    budget = SpecBudget(k_x=1.5, k_u=1.0, k_cont=1.0, tau=0.25, delta=0.8,
                        exponent_multiplier=3)
    box = Box([-1.0, -1.0], [1.0, 1.0])
    eta = compute_sizing(budget, box).eta
    gain = np.array([0.55, 0.45])
    psi = lambda x: np.clip(-(np.asarray(x) @ gain), -0.6, 0.6)[..., None]
    grid = build_eta_grid(box, eta)
    net = compile_tll(build_interpolant(grid, sample_controller(psi, grid, 1), k_cont=1.0))
    axis = np.linspace(-0.7, 0.7, per_axis)
    samples = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    kwargs = dict(tau=budget.tau, step=budget.tau / 100.0, snap_tol=eta / 10)
    ts_up = embed_tau_sampled(pendulum(), lambda x: net.eval_batch(np.atleast_2d(x)),
                              samples, **kwargs)
    ts_psi = embed_tau_sampled(pendulum(), psi, samples, extra_states=ts_up.coords, **kwargs)
    return ts_up, ts_psi


@pytest.mark.parametrize("per_axis", [15, 30])
@pytest.mark.parametrize("delta", [0.8, 0.02])   # 0.02 drops pairs, 0.8 none
def test_ads_on_pendulum_embeddings_matches_the_pair_loop(per_axis, delta):
    ts_up, ts_psi = _pendulum_loops(per_axis)
    right = perturb(ts_psi, delta)
    assert right.transitions == near_scan_perturb(ts_psi, delta).transitions
    want = _pair_loop_verdict(ts_up.transitions, ts_up.num_states, right.transitions,
                              right.num_states, set_seed_pairs(ts_up, right, 0.0), True)
    _assert_same(check_ads(ts_up, right, 0.0), want)
    assert want[1] == (delta == 0.8)


def test_ads_and_simulation_on_larger_random_systems_match_the_pair_loop():
    rng = np.random.default_rng(367)
    for _ in range(12):
        a, b = (random_transition_system(rng, max_states=60, min_states=20,
                                         density=float(rng.uniform(0.02, 0.08)))
                for _ in range(2))
        want = _pair_loop_verdict(a.transitions, a.num_states, b.transitions,
                                  b.num_states, set_seed_pairs(a, b, math.inf), False)
        _assert_same(check_simulation(a, b), want)
        gate = float(rng.uniform(0.5, 2.0))
        want = _pair_loop_verdict(a.transitions, a.num_states, b.transitions,
                                  b.num_states, set_seed_pairs(a, b, gate), False)
        _assert_same(check_simulation(a, b, max_pair_distance=gate), want)
        delta = float(rng.uniform(0.0, 1.0))
        left = near_scan_perturb(a, delta)
        want = _pair_loop_verdict(left.transitions, left.num_states, b.transitions,
                                  b.num_states, set_seed_pairs(a, b, delta), True)
        _assert_same(check_ads(a, b, delta), want)


def test_perturb_and_ads_stay_small_in_memory():
    # the parent's set-based code kept 5.84 MB after perturb alone
    ts_up, ts_psi = _pendulum_loops(15)
    tracemalloc.start()
    try:
        verdict = check_ads(ts_up, perturb(ts_psi, 0.8), 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.holds
    assert peak < 3 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MB"


# ---------------------------------------------------------------------------
# end-to-end: sampled loop vs. its reference loop
# ---------------------------------------------------------------------------

def test_sampled_loop_approximately_simulates_reference():
    """A lattice controller's embedded loop is delta-covered by the ideal
    loop's perturbed embedding when the control gap stays within budget."""
    from tllsynth import (
        SpecBudget, build_eta_grid, build_interpolant, compile_tll,
        gronwall_bound, mu_max, sample_controller,
    )

    model = linear_1d(a=-2.0, b=1.0)
    psi = lambda x: -0.5 * x
    budget = SpecBudget(k_x=2.0, k_u=1.0, k_cont=0.5, tau=1.0, delta=0.2,
                        exponent_multiplier=3)
    mu = mu_max(budget)
    eta = mu / (3 * budget.k_cont)
    grid = build_eta_grid(Box([-1.0], [1.0]), eta)
    omega = sample_controller(lambda p: psi(p), grid, 1)
    net = compile_tll(build_interpolant(grid, omega, k_cont=budget.k_cont))
    upsilon = lambda x: net.eval_batch(np.atleast_2d(x)).reshape(x.shape[:-1] + (1,))

    # measured control gap stays within the budgeted mu
    probe = np.linspace(-1, 1, 401)[:, None]
    gap = np.abs(upsilon(probe)[:, 0] - psi(probe)[:, 0]).max()
    assert gap <= mu + 1e-12

    samples = np.linspace(-0.7, 0.7, 9)[:, None]
    ts_up = embed_tau_sampled(model, upsilon, samples, tau=budget.tau,
                              step=0.01, snap_tol=eta / 10)
    ts_psi = embed_tau_sampled(model, lambda x: psi(x), samples, tau=budget.tau,
                               step=0.01, snap_tol=eta / 10,
                               extra_states=ts_up.coords)

    # trajectory endpoints differ by less than the closed-loop bound <= delta
    bound = gronwall_bound(gap, budget.k_x, budget.k_u,
                           3 * budget.k_cont, budget.tau)
    assert bound <= budget.delta + 1e-12

    verdict = check_ads(ts_up, perturb(ts_psi, budget.delta), 0.0)
    assert verdict.holds
