"""Max-min lattice compilation, composition, and ReLU expansion."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tllsynth import (
    BoundViolated,
    Box,
    DimensionMismatch,
    EmptySelector,
    InvariantViolation,
    ScalarLattice,
    SchemaError,
    TllNetwork,
    arch_descriptor,
    build_eta_grid,
    build_interpolant,
    compile_tll,
    controller_size,
    expand_relu_layers,
    export_network,
    import_network,
    parallel_compose,
    to_json_text,
)
from tllsynth import tll
from tllsynth.cpwa import REL_TOL, value_scale

from _oracles import (
    all_dominating_selectors,
    attaining_simplexes,
    compile_scalar_tll,
    covered_selectors,
    expand_network,
    irredundant_selectors,
    lattice_values,
    max_dual_norm,
    schedule_widths,
    schedule_widths_v1,
    simplex_relations,
)
from test_cpwa import _traced_peak, consistent_extras, omega_of


def _random_interpolant(rng, n=2, eta=0.4, m=1, box=None):
    grid = build_eta_grid(box or Box(np.zeros(n), np.ones(n)), eta)
    omega = rng.normal(size=(m, grid.num_points))
    return build_interpolant(grid, omega, k_cont=None)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def test_constant_compiles_to_single_piece():
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 0.5)
    interp = build_interpolant(grid, np.full((1, grid.num_points), 2.5))
    net = compile_tll(interp)
    lat = net.outputs[0]
    assert lat.size == 1
    assert lat.selectors == [[0]]
    assert net(np.array([0.3, 0.7]))[0] == pytest.approx(2.5, abs=1e-12)


def test_hat_function_two_pieces_two_sets():
    # single-point grid with explicit zero corner values: a symmetric hat
    grid = build_eta_grid(Box([0.0], [1.0]), 1.0)
    interp = build_interpolant(grid, np.array([[1.0]]),
                               extra_values={(-1,): [0.0], (1,): [0.0]})
    net = compile_tll(interp)
    lat = net.outputs[0]
    assert lat.size == 2
    # both simplexes produce the same dominance set {0, 1}, stored once
    assert [sorted(s) for s in lat.selectors] == [[0, 1]]
    # the hat is the plain min of its two slopes
    for x in np.linspace(-0.4, 1.4, 33):
        vals = lat.W @ [x] + lat.b
        assert net(np.array([x]))[0] == pytest.approx(min(vals), abs=1e-12)
        assert net(np.array([x]))[0] == pytest.approx(
            min(1.0 + (x - 0.5), 1.0 - (x - 0.5)), abs=1e-12)


def test_network_equals_interpolant_on_probes():
    rng = np.random.default_rng(79)
    for n, eta in ((1, 0.3), (2, 0.4), (3, 0.5)):
        interp = _random_interpolant(rng, n=n, eta=eta)
        net = compile_tll(interp)
        pts = rng.uniform(0, 1, size=(2000, n))
        gap = np.abs(net.eval_batch(pts) - interp.eval_batch(pts)).max()
        assert gap <= 1e-9


def sinusoid_interpolant(scale, k_cont=None):
    """sin(3x) cos(2y) on the unit square at eta = 0.1, times ``scale``."""
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 0.1)
    x, y = grid.points.T
    return build_interpolant(grid, scale * (np.sin(3.0 * x) * np.cos(2.0 * y))[None], k_cont)


def test_compile_is_exact_at_every_value_scale():
    ref = compile_tll(sinusoid_interpolant(1.0)).outputs[0]
    # a power-of-two scale changes no rounding decision: same selectors,
    # bank exactly 2^k times the unit-scale bank
    for k in (-40, -20, 20, 30):
        lat = compile_tll(sinusoid_interpolant(2.0 ** k)).outputs[0]
        assert lat.selectors == ref.selectors
        assert lat.W.tobytes() == (ref.W * 2.0 ** k).tobytes()
        assert lat.b.tobytes() == (ref.b * 2.0 ** k).tobytes()
    pts = np.random.default_rng(103).uniform(0.0, 1.0, size=(2000, 2))
    for scale in (1e-12, 1e-10, 1e-6, 1e3, 1e9):
        interp = sinusoid_interpolant(scale)
        net = compile_tll(interp)
        lat = net.outputs[0]
        assert (lat.size, len(lat.selectors)) == (ref.size, len(ref.selectors))
        gap = np.abs(net.eval_batch(pts) - interp.eval_batch(pts)).max()
        assert gap <= 1e-9 * np.abs(interp.omega).max()


def test_network_matches_samples_at_grid_points():
    rng = np.random.default_rng(83)
    interp = _random_interpolant(rng, n=2, eta=0.4, m=2)
    net = compile_tll(interp)
    got = net.eval_batch(interp.grid.points)
    assert np.allclose(got, interp.omega.T, atol=1e-9)


def test_network_is_total_far_outside_domain():
    rng = np.random.default_rng(89)
    interp = _random_interpolant(rng, n=2)
    net = compile_tll(interp)
    far = np.array([[100.0, -50.0], [1e6, 1e6]])
    assert np.isfinite(net.eval_batch(far)).all()


def test_bank_size_within_constructive_bound():
    rng = np.random.default_rng(97)
    grid = build_eta_grid(Box([0.0], [1.0]), 0.5)
    omega = rng.normal(size=(1, grid.num_points))
    net = compile_tll(build_interpolant(grid, omega))
    bound = controller_size(1, 1.0, 0.5)
    assert bound == 4
    assert net.outputs[0].size <= bound
    assert net.provenance["bound_n"] == bound


def test_selector_sets_are_per_simplex_and_deduplicated():
    rng = np.random.default_rng(101)
    for _ in range(5):
        interp = _random_interpolant(rng, n=2, eta=0.45)
        net = compile_tll(interp)
        lat = net.outputs[0]
        # at most one set per simplex, and no two stored sets are equal
        assert 1 <= len(lat.selectors) <= interp.num_simplexes
        as_sets = [frozenset(s) for s in lat.selectors]
        assert len(set(as_sets)) == len(as_sets)
        for sel in lat.selectors:
            assert sel and all(0 <= i < lat.size for i in sel)


@pytest.mark.parametrize("n, m, eta", [(1, 1, 0.15), (1, 2, 0.15), (2, 1, 0.3),
                                        (2, 2, 0.3), (3, 1, 0.5), (3, 2, 0.5)])
def test_selectors_are_vertex_certified_or_all_dominating(n, m, eta):
    rng = np.random.default_rng(131 + 10 * n + m)
    base = _random_interpolant(rng, n=n, eta=eta, m=m)
    for scale in (1.0, 2.0 ** -40, 1e9):
        interp = build_interpolant(base.grid, scale * base.omega, k_cont=None)
        for j, lat in enumerate(compile_tll(interp).outputs):
            _, _, act, dominating, below = simplex_relations(interp, j)
            below = [set(k) for k in below]

            def from_simplex(sel, s):
                # holds s's active piece, only dominating members, and either
                # a member below every simplex's active piece or all of them
                return (act[s] in sel and sel <= set(dominating[s])
                        and (all(sel & k for k in below) or sel == set(dominating[s])))

            sels = [set(sel) for sel in lat.selectors]
            for sel in sels:
                assert any(from_simplex(sel, s) for s in range(act.size))
            for s in range(act.size):
                assert any(from_simplex(sel, s) for sel in sels)


def _bits(rows, count):
    """Packed rows (``tll._bit_rows``'s layout) unpacked to ``count``
    columns, and whether every padding bit after them is zero."""
    bits = np.unpackbits(rows.view(np.uint8), axis=1).view(bool)
    return bits[:, :count], not bits[:, count:].any()


def _uncovered(sets, dom_rows, act):
    """``tll._cover`` that keeps every set: the selectors before the cover."""
    return sets


def test_selector_that_cannot_cover_keeps_its_dominating_set(monkeypatch):
    # a below relation with a hole: simplex 0 is covered by its own active
    # piece alone, so every selector without that piece keeps all its
    # dominating members and the lattice stays exact, before the cover and
    # after it
    rng = np.random.default_rng(139)
    interp = _random_interpolant(rng, n=2, eta=0.3)
    relations = tll._vertex_relations

    def holed(interp, W, b, act, slack):
        below_rows, dom_rows, _ = relations(interp, W, b, act, slack)
        below, _ = _bits(below_rows, act.size)      # (N, S): function i below on k
        below[:, 0] = np.arange(b.size) == act[0]
        return tll._bit_rows(below), dom_rows, below.sum(axis=1)

    monkeypatch.setattr(tll, "_vertex_relations", holed)
    with monkeypatch.context() as patch:
        patch.setattr(tll, "_cover", _uncovered)
        net = compile_tll(interp)
    _, _, act, dominating, _ = simplex_relations(interp, 0)
    uncovered = [list(d) for d in dominating if act[0] not in d]
    assert uncovered
    for sel in uncovered:
        assert sel in net.outputs[0].selectors
    pts = rng.uniform(0, 1, size=(2000, 2))
    assert np.abs(net.eval_batch(pts) - interp.eval_batch(pts)).max() <= 1e-9
    covered = compile_tll(interp)
    for sel in covered.outputs[0].selectors:
        assert act[0] in sel or tuple(sel) in dominating
    assert np.abs(covered.eval_batch(pts) - interp.eval_batch(pts)).max() <= 1e-9


def test_selector_mass_is_at_most_a_fifth_of_the_all_dominating_mass():
    interp = sinusoid_interpolant(1.0)
    reference = all_dominating_selectors(interp, 0)
    assert sum(map(len, reference)) == 33654
    assert 5 * sum(map(len, compile_tll(interp).outputs[0].selectors)) <= 33654


def _pruning_cases():
    """Random interpolants for n = 1..3 and m = 1..2, then the sinusoid."""
    rng = np.random.default_rng(149)
    for n, m, eta in [(1, 1, 0.15), (1, 2, 0.12), (2, 1, 0.3), (2, 2, 0.35),
                      (3, 1, 0.5), (3, 2, 0.6)]:
        yield _random_interpolant(rng, n=n, eta=eta, m=m)
    yield sinusoid_interpolant(1.0)


def test_selectors_equal_the_reference_walk_prune_and_absorption(monkeypatch):
    monkeypatch.setattr(tll, "_cover", _uncovered)
    for interp in _pruning_cases():
        for j, lat in enumerate(compile_tll(interp).outputs):
            assert lat.selectors == [list(T) for T in irredundant_selectors(interp, j)]


def test_selectors_equal_the_greedy_cover_reference():
    for interp in _pruning_cases():
        for j, lat in enumerate(compile_tll(interp).outputs):
            assert lat.selectors == covered_selectors(interp, j)


def test_cover_breaks_a_tie_by_the_earlier_set():
    # every function dominates on both simplexes, function 0 is active on
    # both: each two-member set attains on both, and the earlier one is kept
    dom_rows = tll._bit_rows(np.ones((3, 2), dtype=bool))
    act = np.zeros(2, dtype=np.intp)
    assert tll._cover([(0, 1), (0, 2)], dom_rows, act) == [(0, 1)]
    assert tll._cover([(0, 2), (0, 1)], dom_rows, act) == [(0, 2)]


def test_every_simplex_is_attained_by_a_kept_set():
    for interp in _pruning_cases():
        for j, lat in enumerate(compile_tll(interp).outputs):
            attains = attaining_simplexes(interp, j, lat.selectors)
            assert all(attains)
            assert set().union(*attains) == set(range(interp.num_simplexes))


def test_every_kept_set_attains_where_no_other_kept_set_does():
    # the cover's reverse pass leaves no pick that the others make redundant
    rng = np.random.default_rng(157)
    for n, eta in [(1, 0.1), (1, 0.07), (2, 0.3), (2, 0.25), (3, 0.5), (3, 0.45)]:
        interp = _random_interpolant(rng, n=n, eta=eta, m=2)
        net = compile_tll(interp)
        for j, lat in enumerate(net.outputs):
            attains = attaining_simplexes(interp, j, lat.selectors)
            for t, mine in enumerate(attains):
                others = set().union(*(a for u, a in enumerate(attains) if u != t))
                assert mine - others, (n, j, lat.selectors[t])
        pts = rng.uniform(0.0, 1.0, size=(2000, n))
        gap = np.abs(net.eval_batch(pts) - interp.eval_batch(pts)).max(axis=0)
        assert (gap <= [REL_TOL * value_scale(interp, j) for j in range(interp.m)]).all()


def test_covering_selectors_are_irredundant_and_unabsorbed():
    checked = 0
    for interp in _pruning_cases():
        for j, lat in enumerate(compile_tll(interp).outputs):
            below = [set(k) for k in simplex_relations(interp, j)[4]]
            reference = irredundant_selectors(interp, j)
            for T in map(tuple, lat.selectors):
                pins, covers = reference[T]
                if not covers:
                    continue
                # dropping a member that is not a pin leaves some simplex
                # with no member below it
                for x in set(T) - pins:
                    assert not all((set(T) - {x}) & k for k in below)
                    checked += 1
                # no smaller covering set holds all of T's pins
                for S, (_, s_covers) in reference.items():
                    assert not (s_covers and set(S) < set(T) and pins <= set(S))
    assert checked > 1000


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_selectors_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    interps = list(_pruning_cases())
    expected = [compile_tll(interp).outputs for interp in interps]
    monkeypatch.setattr(tll, "_CHUNK_VALUES", chunk)
    for interp, outputs in zip(interps, expected):
        got = compile_tll(interp).outputs
        assert [lat.selectors for lat in got] == [lat.selectors for lat in outputs]


def _relation_cases():
    """Random interpolants whose simplex count S is a multiple of neither 8
    nor 64: 1-D (S = 84, m = 2), 2-D (S = 162) and 3-D (S = 162, m = 2),
    with banks of 82 to 157 functions."""
    rng = np.random.default_rng(227)
    for n, m, eta in [(1, 2, 0.012), (2, 1, 0.13), (3, 2, 0.5)]:
        interp = _random_interpolant(rng, n=n, eta=eta, m=m)
        assert interp.num_simplexes % 8 and interp.num_simplexes > 64
        yield interp


@pytest.mark.parametrize("chunk", [1, 7, 64, tll._CHUNK_VALUES])
def test_packed_relations_are_the_per_simplex_sets_at_chunk_and_word_borders(monkeypatch, chunk):
    # rows end inside a byte and inside a word, and chunks of 8 simplexes
    # (64 to 192 at the default) end inside words
    monkeypatch.setattr(tll, "_CHUNK_VALUES", chunk)
    for interp in _relation_cases():
        for j in range(interp.m):
            W, b, act, dominating, below = simplex_relations(interp, j)
            S, N = act.size, b.size
            below_rows, dom_rows, below_counts = tll._vertex_relations(
                interp, W, b, act, REL_TOL * value_scale(interp, j))
            assert below_rows.shape == dom_rows.shape == (N, -(-S // 64))
            want_dom, want_below = np.zeros((S, N), dtype=bool), np.zeros((S, N), dtype=bool)
            for s in range(S):
                want_dom[s, list(dominating[s])] = True
                want_below[s, list(below[s])] = True
            for rows, want in ((below_rows, want_below.T), (dom_rows, want_dom.T)):
                got, clean = _bits(rows, want.shape[1])
                assert clean and np.array_equal(got, want)
            # the walk's order reads how many simplexes each function is below on
            assert np.array_equal(below_counts, want_below.sum(axis=0))
            # the attains rows and the cover, against the set-based references
            sets = list(irredundant_selectors(interp, j))
            got, clean = _bits(tll._attains(sets, dom_rows, act), S)
            assert clean
            assert [set(np.flatnonzero(row).tolist()) for row in got] == \
                attaining_simplexes(interp, j, sets)
            kept = tll._cover(sets, dom_rows, act)
            assert [list(T) for T in kept] == covered_selectors(interp, j)


def test_compile_holds_less_than_one_dense_relation_beyond_its_packed_rows(monkeypatch):
    # 2-D unit square at eta 0.05: S = 882 simplexes, N = 845 functions.  The
    # packed relations take about S N / 4 bytes (dom and below, by
    # function); one dense (S, N) boolean takes S N.  With chunks cut to
    # 2^12 values the scratch is, from its shapes: one float and one bool
    # buffer of 8 simplexes' vertex values, the cover rows of one walk
    # (min(S, N) rows) and the two row gathers of _attains.  Everything
    # else compile holds, selector sets and the float buffer of one product
    # term (8 simplexes' vertex values) included, must fit in less than
    # S N, so no dense relation fits beside it.
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 0.05)
    x, y = grid.points.T
    interp = build_interpolant(grid, (np.sin(3.0 * x) * np.cos(2.0 * y)
                                      + 0.5 * np.sin(5.0 * x * y))[None])
    monkeypatch.setattr(tll, "_CHUNK_VALUES", 1 << 12)
    N = compile_tll(interp).outputs[0].size     # first-call work stays out of the peak
    S, n = interp.num_simplexes, interp.n
    assert (S, N) == (882, 845)
    words_S = -(-S // 64)
    packed = 8 * 2 * N * words_S
    scratch = 9 * 8 * (n + 1) * N + 8 * min(S, N) * words_S + 2 * 8 * tll._CHUNK_VALUES
    peak = _traced_peak(compile_tll, interp)
    assert peak < packed + scratch + S * N, (peak - packed - scratch) / (S * N)


def test_eval_batch_holds_one_bank_value_array(monkeypatch):
    # P = 2,000 points against N = 400 functions: the (P, N) bank values take
    # 6.4 MB, and the gather chunk is cut to 2^12 values (32 kB), so a second
    # (P, N) array, such as a separate ``+ b``, would show
    rng = np.random.default_rng(229)
    P, N = 2000, 400
    sels = [rng.integers(N, size=int(k)).tolist() for k in rng.integers(1, 9, size=300)]
    net = TllNetwork(2, [ScalarLattice(rng.normal(size=(N, 2)), rng.normal(size=N), sels)])
    X = rng.uniform(0.0, 1.0, size=(P, 2))
    monkeypatch.setattr(tll, "_CHUNK_VALUES", 1 << 12)
    net.eval_batch(X)                            # first-call work stays out of the peak
    values = 8 * P * N
    peak = _traced_peak(net.eval_batch, X)
    assert peak < values + values / 4, peak / values


def test_pruned_lattice_equals_the_interpolant_within_the_value_scale():
    rng = np.random.default_rng(151)
    for interp in _pruning_cases():
        net = compile_tll(interp)
        pts = rng.uniform(0.0, 1.0, size=(2000, interp.n))
        gap = np.abs(net.eval_batch(pts) - interp.eval_batch(pts)).max(axis=0)
        assert (gap <= [REL_TOL * value_scale(interp, j) for j in range(interp.m)]).all()


def test_compile_scalar_output_selection():
    rng = np.random.default_rng(103)
    interp = _random_interpolant(rng, n=1, eta=0.3, m=3)
    for j in range(3):
        net = compile_scalar_tll(interp, output=j)
        assert net.m == 1
        pts = rng.uniform(0, 1, size=(200, 1))
        assert np.allclose(net.eval_batch(pts)[:, 0],
                           interp.eval_batch(pts)[:, j], atol=1e-9)
    with pytest.raises(InvariantViolation):
        compile_scalar_tll(interp, output=3)


# ---------------------------------------------------------------------------
# parallel composition
# ---------------------------------------------------------------------------

def test_parallel_compose_identity():
    rng = np.random.default_rng(107)
    net = compile_tll(_random_interpolant(rng, n=2))
    again = parallel_compose([net])
    pts = rng.uniform(0, 1, size=(100, 2))
    assert np.array_equal(again.eval_batch(pts), net.eval_batch(pts))


def test_parallel_compose_stacks_outputs_exactly():
    rng = np.random.default_rng(109)
    a = compile_tll(_random_interpolant(rng, n=2, eta=0.4))
    b = compile_tll(_random_interpolant(rng, n=2, eta=0.3))
    both = parallel_compose([a, b])
    assert both.m == 2
    pts = rng.uniform(0, 1, size=(150, 2))
    stacked = both.eval_batch(pts)
    assert np.array_equal(stacked[:, 0], a.eval_batch(pts)[:, 0])
    assert np.array_equal(stacked[:, 1], b.eval_batch(pts)[:, 0])


def test_parallel_compose_rejects_dimension_mismatch():
    rng = np.random.default_rng(113)
    a = compile_tll(_random_interpolant(rng, n=1, eta=0.3))
    b = compile_tll(_random_interpolant(rng, n=2, eta=0.4))
    with pytest.raises(DimensionMismatch):
        parallel_compose([a, b])
    with pytest.raises(DimensionMismatch):
        parallel_compose([])


# ---------------------------------------------------------------------------
# Lipschitz behavior
# ---------------------------------------------------------------------------

def test_global_lipschitz_quotient_bounded_by_bank():
    rng = np.random.default_rng(127)
    net = compile_tll(_random_interpolant(rng, n=2, eta=0.4))
    k = max_dual_norm(net)
    xs = rng.uniform(-2, 3, size=(300, 2))
    ys = rng.uniform(-2, 3, size=(300, 2))
    fx = net.eval_batch(xs)
    fy = net.eval_batch(ys)
    gaps = np.abs(fx - fy).max(axis=1)
    dists = np.abs(xs - ys).max(axis=1)
    keep = dists > 1e-9
    assert (gaps[keep] <= k * dists[keep] + 1e-9 * (1 + k)).all()


# ---------------------------------------------------------------------------
# architecture descriptor
# ---------------------------------------------------------------------------

def test_arch_descriptor_reports_sizes():
    rng = np.random.default_rng(131)
    interp = _random_interpolant(rng, n=1, eta=0.5, box=Box([0.0], [1.0]))
    net = compile_tll(interp)
    desc = arch_descriptor(net)
    out = desc["per_output"][0]
    assert out["N"] == net.outputs[0].size
    assert out["M"] == len(net.outputs[0].selectors)
    assert out["N"] <= 4
    assert desc["bound_n"] == 4
    assert desc["shape_convention"] == "pairwise-tree-v2"
    assert desc["implementation_defined"] is True
    assert out["layers"][0][0] == 1
    assert out["layers"][-1][1] == 1


def test_arch_descriptor_flags_bound_violation():
    rng = np.random.default_rng(137)
    net = compile_tll(_random_interpolant(rng, n=2, eta=0.3))
    with pytest.raises(BoundViolated):
        arch_descriptor(net, bound_n=1)


def test_arch_descriptor_needs_a_bound():
    lat = ScalarLattice(np.array([[1.0]]), np.array([0.0]), [[0]])
    net = TllNetwork(1, [lat])
    with pytest.raises(InvariantViolation):
        arch_descriptor(net)


# ---------------------------------------------------------------------------
# ReLU expansion
# ---------------------------------------------------------------------------

def test_expansion_matches_lattice_on_probes():
    rng = np.random.default_rng(139)
    for n, eta in ((1, 0.3), (2, 0.4)):
        net = compile_tll(_random_interpolant(rng, n=n, eta=eta))
        relu = expand_relu_layers(net)
        pts = rng.uniform(-0.5, 1.5, size=(500, n))
        for x in pts:
            assert np.allclose(relu(x), net(x), atol=1e-9)


def test_expansion_shapes_follow_descriptor_for_single_output():
    rng = np.random.default_rng(149)
    net = compile_tll(_random_interpolant(rng, n=2, eta=0.45))
    desc = arch_descriptor(net)
    relu = expand_relu_layers(net)
    assert relu.shapes() == desc["per_output"][0]["layers"]


def test_expansion_handles_multiple_outputs():
    rng = np.random.default_rng(151)
    interp = _random_interpolant(rng, n=2, eta=0.45, m=2)
    net = compile_tll(interp)
    relu = expand_relu_layers(net)
    pts = rng.uniform(0, 1, size=(100, 2))
    for x in pts:
        assert np.allclose(relu(x), net(x), atol=1e-9)
    shapes = relu.shapes()
    assert shapes[0][0] == 2 and shapes[-1][1] == 2


def test_expansion_of_single_piece_network():
    grid = build_eta_grid(Box([0.0], [1.0]), 1.0)
    interp = build_interpolant(grid, np.array([[1.5]]))
    net = compile_tll(interp)
    relu = expand_relu_layers(net)
    for x in (-3.0, 0.2, 7.0):
        assert relu(np.array([x]))[0] == pytest.approx(1.5, abs=1e-12)


def _random_lattice(rng, n, max_set=8, num_sets=None):
    """Bank of 1..12 functions (one all-zero, for signed zeros) and selector
    sets of 1..max_set members, repeats allowed."""
    N = int(rng.integers(1, 13))
    W, b = rng.normal(size=(N, n)), rng.normal(size=N)
    W[0], b[0] = 0.0, -0.0
    M = int(rng.integers(1, 7)) if num_sets is None else num_sets
    sels = [rng.integers(N, size=int(rng.integers(1, max_set + 1))).tolist() for _ in range(M)]
    return ScalarLattice(W, b, sels)


def _random_networks(rng):
    for _ in range(120):
        n = int(rng.integers(1, 4))
        yield TllNetwork(n, [_random_lattice(rng, n) for _ in range(int(rng.integers(1, 3)))])
    for n in (1, 2, 3):
        yield TllNetwork(n, [_random_lattice(rng, n, 1, 1)])          # depth 0
        yield TllNetwork(n, [_random_lattice(rng, n, 1, 1) for _ in range(2)])
        for _ in range(5):                                              # padding
            yield TllNetwork(n, [_random_lattice(rng, n, 1, 1), _random_lattice(rng, n)])
            yield TllNetwork(n, [_random_lattice(rng, n), _random_lattice(rng, n, 1, 1)])


def test_descriptor_widths_match_reference_schedule():
    rng = np.random.default_rng(179)
    nets = list(_random_networks(rng))
    nets.append(compile_tll(_random_interpolant(rng, n=2, eta=0.3, m=2)))
    for net in nets:
        desc = arch_descriptor(net, bound_n=12 if "bound_n" not in net.provenance else None)
        for lat, out in zip(net.outputs, desc["per_output"]):
            widths = schedule_widths([len(s) for s in lat.selectors])
            assert out["layers"] == [[a, b] for a, b in zip([net.n] + widths, widths + [1])]
            assert out["neurons"] == sum(widths)
            assert out["selector_mass"] == sum(map(len, lat.selectors))


def _plan_widths(set_sizes):
    """Layer widths the descriptor gives a lattice with these set sizes."""
    lat = ScalarLattice(np.zeros((1, 1)), np.zeros(1), [[0] * k for k in set_sizes])
    desc = arch_descriptor(TllNetwork(1, [lat]), bound_n=1)
    return [w for _, w in desc["per_output"][0]["layers"][:-1]]


def test_early_merge_tree_is_never_wider_or_deeper_than_the_first_tree():
    rng = np.random.default_rng(191)
    cases = [rng.integers(1, hi, size=int(rng.integers(1, 60))).tolist()
             for hi in (2, 3, 9, 40, 300) for _ in range(40)]
    cases += [[1], [2], [1, 1], [5, 1, 1, 1], [1, 64], [64, 1, 1, 2, 3, 33]]
    for sizes in cases:
        v1, v2 = schedule_widths_v1(sizes), _plan_widths(sizes)
        assert v2 == schedule_widths(sizes)
        assert len(v2) <= len(v1)
        assert all(a <= b for a, b in zip(v2, v1)), (sizes, v2, v1)
    for k in (1, 2, 3, 7, 8, 9, 100):
        for M in (1, 2, 3, 17):
            assert _plan_widths([k] * M) == schedule_widths_v1([k] * M)
    # the two singletons of [9, 1, 1] pair at level 0 and their max is then
    # carried once, where the first tree carries both until the 9 finishes
    assert _plan_widths([9, 1, 1]) == [3 * 4 + 2 + 3, 3 * 2 + 2 + 2, 3 + 2 + 2, 3 + 2, 3]
    assert schedule_widths_v1([9, 1, 1]) == [3 * 4 + 2 + 4, 3 * 2 + 2 + 4, 3 + 2 + 4, 3 + 4,
                                             3 + 2, 3]


def test_expansion_matches_reference_bitwise():
    def same(a, b):
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    rng = np.random.default_rng(181)
    nets = list(_random_networks(rng))
    nets.append(compile_tll(_random_interpolant(rng, n=2, eta=0.3, m=2)))
    for net in nets:
        layers, out_w, out_b = expand_network(
            net.n, [(lat.W, lat.b, lat.selectors) for lat in net.outputs])
        relu = expand_relu_layers(net)
        assert len(relu.layers) == len(layers)
        for (W, c), (W_ref, c_ref) in zip(relu.layers, layers):
            assert same(W, W_ref) and same(c, c_ref)
        assert same(relu.out_w, out_w) and same(relu.out_b, out_b)
    assert any(len(expand_relu_layers(net).layers) == 0 for net in nets)


# ---------------------------------------------------------------------------
# lattice evaluation
# ---------------------------------------------------------------------------

def _bitwise(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _lattices(net):
    return [(lat.W, lat.b, lat.selectors) for lat in net.outputs]


def _eval_networks(rng):
    """(network, inputs) pairs: random lattices of mixed set sizes with
    repeated members, the same lattices on integer banks and inputs (so that
    values tie), a compiled network, one parallel composition, and each
    network again after an export/import round trip.  m is 1 or 2."""
    nets = []
    for m in (1, 2):
        for n in (1, 2, 3):
            lats = [_random_lattice(rng, n, max_set=9, num_sets=int(rng.integers(1, 40)))
                    for _ in range(m)]
            nets.append((TllNetwork(n, lats), False))
            ints = [ScalarLattice(np.round(2.0 * lat.W), np.round(2.0 * lat.b), lat.selectors)
                    for lat in lats]
            nets.append((TllNetwork(n, ints), True))
    one_output = [net for net, ints in nets if net.n == 2 and net.m == 1 and not ints]
    nets.append((parallel_compose(one_output + [compile_scalar_tll(
        _random_interpolant(rng, n=2, eta=0.3))]), False))
    nets.append((compile_tll(_random_interpolant(rng, n=2, eta=0.3, m=2)), False))
    nets += [(import_network(export_network(net)), ints) for net, ints in nets]
    assert {net.m for net, _ in nets} == {1, 2}
    return nets


def _inputs(rng, P, n, ints):
    if ints:
        return rng.integers(-2, 3, size=(P, n)).astype(float)
    return rng.uniform(-0.5, 1.5, size=(P, n))


@pytest.mark.parametrize("P", [0, 1, 111])
def test_eval_batch_is_bitwise_the_selector_loop(P):
    rng = np.random.default_rng(197)
    for net, ints in _eval_networks(rng):
        X = _inputs(rng, P, net.n, ints)
        assert _bitwise(net.eval_batch(X), lattice_values(_lattices(net), X))


def test_eval_batch_over_several_chunks_is_bitwise_the_selector_loop():
    # 150 sets of each size 1..6: the size-6 bucket gathers 900 values per
    # row, so 3,000 rows take several chunks of _CHUNK_VALUES values
    rng = np.random.default_rng(199)
    sels = [rng.integers(20, size=k).tolist() for k in range(1, 7) for _ in range(150)]
    rng.shuffle(sels)
    lat = ScalarLattice(rng.normal(size=(20, 2)), rng.normal(size=20), sels)
    for net in (TllNetwork(2, [lat]), TllNetwork(2, [lat, _random_lattice(rng, 2, 9, 30)])):
        X = _inputs(rng, 3000, 2, False)
        assert 3000 > 2 * (tll._CHUNK_VALUES // 900)
        assert _bitwise(net.eval_batch(X), lattice_values(_lattices(net), X))


@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_eval_batch_chunk_bound_does_not_change_bits(monkeypatch, chunk):
    rng = np.random.default_rng(211)
    cases = [(net, _inputs(rng, 111, net.n, ints)) for net, ints in _eval_networks(rng)]
    want = [net.eval_batch(X) for net, X in cases]
    monkeypatch.setattr(tll, "_CHUNK_VALUES", chunk)   # every call crosses chunk boundaries
    for (net, X), before in zip(cases, want):
        got = net.eval_batch(X)
        assert _bitwise(got, before) and _bitwise(got, lattice_values(_lattices(net), X))


@pytest.mark.parametrize("chunk", [1, 7, 64, None])
def test_eval_batch_bits_do_not_depend_on_the_batch(monkeypatch, chunk):
    # the whole batch, each row alone and blocks of 37 rows, at chunk
    # bounds that cut every call and at the default; no value is -0
    rng = np.random.default_rng(233)
    cases = [(net, _inputs(rng, 111, net.n, ints)) for net, ints in _eval_networks(rng)]
    if chunk is not None:
        monkeypatch.setattr(tll, "_CHUNK_VALUES", chunk)
    for net, X in cases:
        whole = net.eval_batch(X)
        alone = np.concatenate([net.eval_batch(X[i:i + 1]) for i in range(len(X))])
        blocks = np.concatenate([net.eval_batch(X[i:i + 37]) for i in range(0, len(X), 37)])
        assert _bitwise(alone, whole) and _bitwise(blocks, whole)
        assert not np.signbit(whole[whole == 0.0]).any()


def test_eval_batch_peak_does_not_grow_with_the_batch():
    # N = 400 functions, 300 sets of 1 to 8 members.  Beside the (P, m)
    # result, a call holds at most six chunk-sized arrays: the bank values
    # and one product term, one gather, and the minima of the M < N
    # selectors as a list, side by side and in selector order
    rng = np.random.default_rng(229)
    N = 400
    sels = [rng.integers(N, size=int(k)).tolist() for k in rng.integers(1, 9, size=300)]
    net = TllNetwork(2, [ScalarLattice(rng.normal(size=(N, 2)), rng.normal(size=N), sels)])
    for P in (500, 5000):
        X = rng.uniform(0.0, 1.0, size=(P, 2))
        net.eval_batch(X)                        # first-call work stays out of the peak
        bound = 8 * P * net.m + 6 * 8 * tll._CHUNK_VALUES
        peak = _traced_peak(net.eval_batch, X)
        assert peak < bound, (P, peak, bound)


_BLAS_CHILD = """
import hashlib
import numpy as np
from tllsynth import ScalarLattice, TllNetwork
rng = np.random.default_rng(239)
digest = hashlib.sha256()
for n in (2, 3, 4):
    sels = [rng.integers(900, size=int(k)).tolist() for k in rng.integers(1, 9, size=200)]
    net = TllNetwork(n, [ScalarLattice(rng.normal(size=(900, n)), rng.normal(size=900), sels)])
    digest.update(net.eval_batch(rng.uniform(-1.0, 1.0, size=(5000, n))).tobytes())
print(digest.hexdigest())
"""


def test_eval_batch_bits_do_not_depend_on_the_blas_setting():
    # one child per OpenBLAS setting: one thread, two threads, and one
    # thread on the Haswell kernels; N = 900 functions, 5,000 rows each
    src = str(Path(tll.__file__).resolve().parents[1])
    digests = set()
    for setting in ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
                    {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Haswell"}):
        env = {**os.environ, "PYTHONPATH": src, **setting}
        proc = subprocess.run([sys.executable, "-c", _BLAS_CHILD], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1, digests


def test_eval_batch_rejects_inputs_of_another_shape():
    net = TllNetwork(2, [ScalarLattice(np.ones((1, 2)), np.zeros(1), [[0]])])
    for X in (np.zeros(2), np.zeros((3, 1)), np.zeros((3, 3)), np.zeros((2, 3, 2))):
        with pytest.raises(DimensionMismatch, match=r"\(P, 2\)"):
            net.eval_batch(X)


# ---------------------------------------------------------------------------
# validation and serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("selectors, error", [
    ([[0], []], EmptySelector),
    ([[0], [-1]], InvariantViolation),
    ([[0, 1], [2]], InvariantViolation),
    ([[2 ** 70]], InvariantViolation),
    ([[0.7, 1]], InvariantViolation),
    ([[0, np.float64(1.0)]], InvariantViolation),
    ([[True, 1]], InvariantViolation),
    ([[np.bool_(False)]], InvariantViolation),
    (np.array([[0.0, 1.0]]), InvariantViolation),
    (np.array([[False, True]]), InvariantViolation),
    (np.empty((0, 2), dtype=np.intp), InvariantViolation),
    (np.empty((2, 0), dtype=np.intp), EmptySelector),
], ids=["empty-set", "index-minus-one", "index-N", "index-beyond-int64", "float-index",
        "numpy-float-index", "bool-index", "numpy-bool-index", "float-array", "bool-array",
        "no-set-array", "empty-set-array"])
def test_constructor_rejects_bad_lattice(selectors, error):
    W = np.array([[1.0], [0.5]])
    with pytest.raises(error):
        TllNetwork(1, [ScalarLattice(W, np.zeros(2), selectors)])


def test_network_constructor_validation():
    W = np.array([[1.0], [0.5]])
    b = np.zeros(2)
    with pytest.raises(EmptySelector):
        TllNetwork(1, [ScalarLattice(W, b, [[0], []])])
    with pytest.raises(InvariantViolation):
        TllNetwork(1, [ScalarLattice(W, b, [[0], [2]])])  # index out of range
    with pytest.raises(InvariantViolation):
        TllNetwork(0, [ScalarLattice(W, b, [[0]])])
    # NumPy integers are indices like Python ints
    net = TllNetwork(1, [ScalarLattice(W, b, [[np.int32(0)], list(np.arange(2))])])
    assert net.outputs[0].selectors[1] == [0, 1]


def test_constructor_reads_numpy_selector_arrays():
    rng = np.random.default_rng(193)
    W, b = rng.normal(size=(5, 2)), rng.normal(size=5)
    sels = [[0, 3], [1, 4], [2, 2]]
    as_list = TllNetwork(2, [ScalarLattice(W, b, sels)], {"bound_n": 5})
    as_array = TllNetwork(2, [ScalarLattice(W, b, np.array(sels))], {"bound_n": 5})
    X = rng.uniform(-2, 2, size=(50, 2))
    assert as_array.eval_batch(X).tobytes() == as_list.eval_batch(X).tobytes()
    assert export_network(as_array) == export_network(as_list)
    assert arch_descriptor(as_array) == arch_descriptor(as_list)
    for (Wa, ca), (Wl, cl) in zip(expand_relu_layers(as_array).layers,
                                  expand_relu_layers(as_list).layers):
        assert Wa.tobytes() == Wl.tobytes() and ca.tobytes() == cl.tobytes()


def test_export_import_roundtrip_bitwise():
    rng = np.random.default_rng(157)
    interp = _random_interpolant(rng, n=2, eta=0.4, m=2)
    net = compile_tll(interp)
    obj = export_network(net)
    assert set(obj["provenance"]) == {"eta", "K_cont", "bound_N"}
    back = import_network(obj)
    for lat_a, lat_b in zip(net.outputs, back.outputs):
        assert np.array_equal(lat_a.W, lat_b.W)
        assert np.array_equal(lat_a.b, lat_b.b)
        assert lat_a.selectors == lat_b.selectors
    assert back.provenance == net.provenance
    # re-export reproduces the same canonical text
    assert to_json_text(export_network(back)) == to_json_text(obj)
    pts = rng.uniform(0, 1, size=(100, 2))
    assert np.array_equal(back.eval_batch(pts), net.eval_batch(pts))


def test_import_rejects_truncated_documents():
    rng = np.random.default_rng(163)
    obj = export_network(compile_tll(_random_interpolant(rng, n=1, eta=0.4)))
    for key in ("n", "outputs", "provenance"):
        bad = {k: v for k, v in obj.items() if k != key}
        with pytest.raises(SchemaError):
            import_network(bad)
    bad = {**obj, "outputs": [{"bank": []}]}
    with pytest.raises(SchemaError):
        import_network(bad)
    for bound in ("x", 2.5, True):
        bad = {**obj, "provenance": {**obj["provenance"], "bound_N": bound}}
        with pytest.raises(SchemaError):
            import_network(bad)
    assert import_network({**obj, "provenance": {**obj["provenance"], "bound_N": None}})
    for m in ("1", 1.0):
        with pytest.raises(SchemaError):
            import_network({**obj, "m": m})


def test_import_rejects_tampered_selectors():
    rng = np.random.default_rng(167)
    obj = export_network(compile_tll(_random_interpolant(rng, n=1, eta=0.4)))
    import copy
    bad = copy.deepcopy(obj)
    bad["outputs"][0]["selectors"][0] = [len(bad["outputs"][0]["bank"])]
    with pytest.raises(InvariantViolation):
        import_network(bad)
    bad = copy.deepcopy(obj)
    bad["outputs"][0]["selectors"][0] = []
    with pytest.raises(EmptySelector):
        import_network(bad)


def test_import_rejects_non_integer_selector_members():
    rng = np.random.default_rng(191)
    obj = export_network(compile_tll(_random_interpolant(rng, n=1, eta=0.4)))
    for member in (0.0, "0", None, [0], True, False):
        for alone in (False, True):   # next to integer members, or the whole selector
            bad = copy.deepcopy(obj)
            selector = bad["outputs"][0]["selectors"][-1]
            selector[:] = [member] if alone else selector + [member]
            with pytest.raises(SchemaError):
                import_network(bad)


def test_import_rejects_boolean_coefficients():
    # JSON true is not the float 1.0: a bias true would load as 1.0
    rng = np.random.default_rng(193)
    obj = export_network(compile_tll(_random_interpolant(rng, n=1, eta=0.4)))
    for edit in (lambda out: out["bank"][0].update(b=True),
                 lambda out: out["bank"][0]["w"].__setitem__(0, False)):
        bad = copy.deepcopy(obj)
        edit(bad["outputs"][0])
        with pytest.raises(SchemaError):
            import_network(bad)
    with pytest.raises(SchemaError):
        import_network({**obj, "provenance": {**obj["provenance"], "eta": True}})


def test_import_reads_every_bank_spelling_alike_and_names_the_first_bad_entry():
    rng = np.random.default_rng(231)
    net = compile_tll(_random_interpolant(rng, n=2, eta=0.4))
    obj = export_network(net)
    lat = net.outputs[0]
    spellings = (
        float.hex,                                        # the long float.hex() form
        lambda x: float.hex(x) if np.signbit(x) else "+" + float.hex(x),
        float,                                            # JSON numbers
    )
    for spell in spellings:
        for edited in range(2):    # one entry in another spelling, or all of them
            doc = copy.deepcopy(obj)
            bank = doc["outputs"][0]["bank"]
            for k in range(len(bank) if edited else 1):
                bank[k] = {"w": [spell(x) for x in lat.W[k].tolist()], "b": spell(float(lat.b[k]))}
            back = import_network(doc).outputs[0]
            assert _bitwise(back.W, lat.W) and _bitwise(back.b, lat.b)
    # each fault names itself, and of two faults the earlier entry's is raised
    faults = [
        (lambda bank: bank.__setitem__(1, ["0x1p+0"]), "bank entry: expected a JSON object"),
        (lambda bank: bank[1].pop("b"), "bank entry: missing keys ['b']"),
        (lambda bank: bank[1].update(w="0x1p+0"), "expected a list of hex floats"),
        (lambda bank: bank[1]["w"].append("0x1p+0"), "bank weight length 3 != n=2"),
        (lambda bank: bank[1].update(b="0.5"), "not a hex float '0.5'"),
        (lambda bank: bank[1]["w"].__setitem__(0, "0x1.zp+0"), "malformed hex float '0x1.zp+0'"),
        (lambda bank: bank[1].update(b=None), "expected hex float string, got NoneType"),
    ]
    for fault, text in faults:
        for later in (None, 2):
            doc = copy.deepcopy(obj)
            bank = doc["outputs"][0]["bank"]
            fault(bank)
            if later is not None:
                bank[later] = {"w": "0x0p+0"}        # a second fault after the first
            with pytest.raises(SchemaError) as err:
                import_network(doc)
            assert str(err.value).startswith(text), (text, str(err.value))


def test_network_call_on_one_point_is_a_batch_row():
    rng = np.random.default_rng(173)
    net = compile_tll(_random_interpolant(rng, n=1, eta=0.4))
    x = np.array([0.4])
    assert net(x).shape == (1,)
    assert np.array_equal(net(x), net.eval_batch(x[None])[0])
