"""Sampling, corner extension, and the piecewise-affine interpolant."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from _oracles import (
    SimplexId,
    brute_force_extra_values,
    closed_form_pieces,
    dict_piece_bank,
    grid_offsets,
    lu_pieces,
    nearest_power_of_two,
    simplex_world_vertices,
    whole_table_continuity,
)
from tllsynth import (
    Box,
    BudgetExceeded,
    CpwaInterpolant,
    DiscontinuityDetected,
    OracleFailure,
    SchemaError,
    build_eta_grid,
    build_interpolant,
    compile_tll,
    continuity_audit,
    extend_extra_corners,
    extra_corners,
    lipschitz_audit,
    locate_batch,
    region_count,
    sample_controller,
)
from tllsynth import cpwa
from tllsynth.cli import main
from tllsynth.cpwa import BatchOracle, check_oracle_reply, piece_bank, value_scale
from tllsynth.serialize import dump_json


def consistent_extras(grid, fn):
    """Values of ``fn`` at every non-grid corner, for affine-exact builds."""
    extras = extra_corners(grid)
    coords = grid.anchor + grid.eta * extras
    return {tuple(c): np.atleast_1d(fn(x)) for c, x in zip(extras.tolist(), coords)}


def by_corner(grid, values):
    """Extra-corner value columns (m, E) keyed by their corner offsets."""
    return dict(zip(map(tuple, extra_corners(grid).tolist()), values.T))


def omega_of(grid, fn):
    """Row-per-output table of ``fn`` over the grid points."""
    vals = np.array([np.atleast_1d(fn(p)) for p in grid.points], dtype=float)
    return vals.T.copy()


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_controller_constant():
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 0.5)
    omega = sample_controller(lambda x: [2.5], grid, 1)
    assert omega.shape == (1, grid.num_points)
    assert (omega == 2.5).all()


def test_sample_controller_affine():
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 0.5)
    omega = sample_controller(lambda x: [x[0] + 2 * x[1], -x[0]], grid, 2)
    expect = np.stack([grid.points @ [1, 2], -grid.points[:, 0]])
    assert np.allclose(omega, expect, atol=1e-15)


def test_sample_controller_failures():
    grid = build_eta_grid(Box([0.0], [1.0]), 0.5)
    with pytest.raises(OracleFailure):
        sample_controller(lambda x: [np.nan], grid, 1)
    with pytest.raises(OracleFailure):
        sample_controller(lambda x: [1.0, 2.0], grid, 1)
    with pytest.raises(OracleFailure):
        sample_controller(lambda x: 1 / 0, grid, 1)
    with pytest.raises(OracleFailure):
        sample_controller(lambda x: [0.0], grid, 0)
    with pytest.raises(OracleFailure):
        sample_controller(lambda x: [[0.0]], grid, 1)    # one point is not a batch
    with pytest.raises(OracleFailure):
        sample_controller(lambda x: ["zero"], grid, 1)


def test_per_point_oracle_is_never_handed_a_batch():
    # on this 2-point grid with m = 2, handing the lambda the (2, 2) point
    # array would return a well-shaped (2, 2) reply of wrong values
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 0.5]), 0.5)
    assert grid.num_points == 2
    omega = sample_controller(lambda x: [x[0] + 2 * x[1], -x[0]], grid, 2)
    expect = np.array([[p[0] + 2 * p[1], -p[0]] for p in grid.points]).T
    assert omega.tobytes() == expect.tobytes()


def test_per_point_raise_names_the_grid_point():
    grid = build_eta_grid(Box([0.0], [1.0]), 0.25)

    def oracle(x):
        if x[0] == 0.625:
            raise ValueError("no answer here")
        return [x[0]]

    with pytest.raises(OracleFailure, match=r"grid point \[0\.625\]: no answer here"):
        sample_controller(oracle, grid, 1)


def test_batch_oracle_answers_the_whole_grid_in_one_call():
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 0.25)
    W = np.array([[1.0], [2.0]])
    calls = []

    def answer(points):
        calls.append(points.copy())
        return points @ W

    omega = sample_controller(BatchOracle(answer), grid, 1)
    assert len(calls) == 1 and calls[0].tobytes() == grid.points.tobytes()
    assert omega.tobytes() == (grid.points @ W).T.tobytes()

    def nan_inside(points):
        values = points @ W
        values[6] = np.nan
        return values

    with pytest.raises(OracleFailure, match=r"non-finite values at \[0\.375, 0\.625\]"):
        sample_controller(BatchOracle(nan_inside), grid, 1)
    with pytest.raises(OracleFailure, match=r"shape \(16,\)"):
        sample_controller(BatchOracle(lambda points: points[:, 0]), grid, 1)


def test_oracle_reply_check_names_the_first_bad_point():
    points = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    good = np.arange(6.0).reshape(3, 2)
    assert check_oracle_reply(good.tolist(), points, 2).tobytes() == good.tobytes()
    bad = good.copy()
    bad[1, 0], bad[2, 1] = np.inf, np.nan
    with pytest.raises(OracleFailure, match=r"\[2\.0, 3\.0\]"):
        check_oracle_reply(bad, points, 2)
    for reply in (good.T, good.ravel(), good[:2], [["a", "b"]] * 3):
        with pytest.raises(OracleFailure):
            check_oracle_reply(reply, points, 2)


def test_oracle_reply_check_on_no_points_says_none_were_asked():
    points = np.empty((0, 2))
    assert check_oracle_reply(np.empty((0, 3)), points, 3).shape == (0, 3)
    for reply in ([], [[1.0, 2.0, 3.0]], [1.0], [["a"]]):
        with pytest.raises(OracleFailure, match="no points were asked"):
            check_oracle_reply(reply, points, 3)


# ---------------------------------------------------------------------------
# extra-corner values
# ---------------------------------------------------------------------------

def test_extension_takes_neighborhood_minimum():
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 1.0 / 3.0)  # 3 x 3 points
    omega = np.array([[1.0, 2.0, -4.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]])
    vals = extend_extra_corners(omega, grid)
    assert vals.shape == (1, len(extra_corners(grid))) == (1, 16)
    vals = by_corner(grid, vals)
    assert vals[(-1, 1)] == pytest.approx([-4.0])   # neighbors (0, 0..2)
    assert vals[(-1, 0)] == pytest.approx([1.0])    # neighbors (0, 0..1)
    assert vals[(-1, -1)] == pytest.approx([1.0])   # single neighbor (0, 0)


def test_extension_singleton_and_per_output():
    grid = build_eta_grid(Box([0.0], [1.0]), 0.5)
    omega = np.array([[3.0, 7.0], [5.0, -1.0]])
    vals = extend_extra_corners(omega, grid)   # columns: corners -1 and 2
    assert vals.tolist() == [[3.0, 7.0], [5.0, -1.0]]   # single neighbors: points 0 and 1


def test_extension_all_equal_values():
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 0.5)
    omega = np.full((1, grid.num_points), 4.25)
    vals = extend_extra_corners(omega, grid)
    assert vals.shape == (1, len(extra_corners(grid)))
    assert (vals == 4.25).all()


# ---------------------------------------------------------------------------
# single affine pieces
# ---------------------------------------------------------------------------

def _piece(interp, simplex):
    """(w, b) of output 0 on one simplex of a built interpolant, as
    evaluation forms it."""
    f = interp.perms.index(simplex.sigma)
    W, B = interp._pieces_at(np.array([simplex.cell]), np.array([f]))
    return W[0, 0], float(B[0, 0])


def _piece_table(interp):
    """The interpolant's pieces (W, B) from ``_piece_chunks``, put together
    into the whole (C, n!, m, n) and (C, n!, m) table."""
    chunks = [(W, B) for _, _, _, W, B in interp._piece_chunks()]
    return tuple(np.concatenate(part) for part in zip(*chunks))


def _feed_pieces(monkeypatch, interp, W, B):
    """Make everything that reads ``interp._piece_chunks`` read the whole
    tables W, B instead, in the interpolant's own chunks."""
    chunks = interp._piece_chunks

    def doctored():
        for lo, hi, values, _, _ in chunks():
            yield lo, hi, values, W[lo:hi], B[lo:hi]
    monkeypatch.setattr(interp, "_piece_chunks", doctored)


def test_affine_piece_constant():
    grid = build_eta_grid(Box([-0.5, -0.5], [1.5, 1.5]), 1.0)
    interp = build_interpolant(grid, np.full((1, grid.num_points), 3.0))
    w, b = _piece(interp, SimplexId((0, 0), (0, 1)))
    assert w == pytest.approx([0.0, 0.0], abs=1e-12)
    assert b == pytest.approx(3.0, abs=1e-12)
    assert np.abs(w).sum() == pytest.approx(0.0, abs=1e-12)


def test_affine_piece_recovers_plane():
    # unit simplex (0,0), (0,1), (1,1) with values of x1 + 2 x2; grid
    # offsets are (0,0), (0,1), (1,0), (1,1), and (1,0) is not a vertex
    grid = build_eta_grid(Box([-0.5, -0.5], [1.5, 1.5]), 1.0)
    interp = build_interpolant(grid, np.array([[0.0, 2.0, 7.0, 3.0]]))
    w, b = _piece(interp, SimplexId((0, 0), (0, 1)))
    assert w == pytest.approx([1.0, 2.0], abs=1e-12)
    assert b == pytest.approx(0.0, abs=1e-12)


def test_affine_piece_reproduces_vertices():
    rng = np.random.default_rng(31)
    grid = build_eta_grid(Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), 0.5)
    omega = rng.normal(size=(1, grid.num_points))
    extras = {tuple(c): rng.normal(size=1) for c in extra_corners(grid).tolist()}
    interp = build_interpolant(grid, omega, extra_values=extras)
    value = dict(extras)
    value.update((tuple(o), omega[:, i]) for i, o in enumerate(grid_offsets(grid).tolist()))
    for _ in range(20):
        sigma = tuple(rng.permutation(3).tolist())
        cell = tuple(int(v) for v in rng.integers(-1, 2, size=3))
        s = SimplexId(cell, sigma)
        verts = simplex_world_vertices(s, grid)
        offsets = np.rint((verts - grid.anchor) / grid.eta).astype(int)
        vals = np.array([value[tuple(o)][0] for o in offsets.tolist()])
        w, b = _piece(interp, s)
        assert np.allclose(verts @ w + b, vals, atol=1e-9, rtol=1e-9)


def test_closed_form_pieces_match_lu_reference():
    # n = 1..4, random anchors and eta, value scales 1e-12 .. 1e9: the
    # closed form agrees with the LU solve relative to the data's scale
    rng = np.random.default_rng(97)
    for n in (1, 2, 3, 4):
        for scale in (1e-12, 1e-3, 1.0, 1e9):
            lower = rng.uniform(-5.0, 5.0, size=n)
            eta = float(rng.uniform(0.2, 0.6))
            grid = build_eta_grid(Box(lower, lower + rng.uniform(0.5, 1.5, size=n)), eta)
            omega = scale * rng.normal(size=(2, grid.num_points))
            interp = build_interpolant(grid, omega)
            W, B = lu_pieces(interp)
            got_W, got_B = _piece_table(interp)
            value_scale = float(np.abs(omega).max())
            x_scale = float(np.abs(grid.anchor).max()) + eta * (max(grid.axis_counts) + 1)
            assert np.abs(got_W - W).max() <= 1e-12 * value_scale / eta
            assert np.abs(got_B - B).max() <= 1e-12 * value_scale * (1.0 + x_scale / eta)


# ---------------------------------------------------------------------------
# full interpolants
# ---------------------------------------------------------------------------

def test_interpolant_matches_samples_at_grid_points():
    rng = np.random.default_rng(37)
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 0.4)
    omega = rng.normal(size=(2, grid.num_points))
    interp = build_interpolant(grid, omega)
    got = interp.eval_batch(grid.points)
    assert np.allclose(got, omega.T, atol=1e-9)


def test_interpolant_midpoint_average_1d():
    grid = build_eta_grid(Box([0.0], [1.0]), 0.5)
    interp = build_interpolant(grid, np.array([[0.0, 1.0]]))
    assert interp(np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-12)


def test_affine_function_reproduced_exactly():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3):
        box = Box(np.zeros(n), np.ones(n))
        grid = build_eta_grid(box, 0.4)
        for _ in range(10):
            w = rng.normal(size=n)
            b = float(rng.normal())
            fn = lambda x: np.atleast_1d(x @ w + b)
            interp = build_interpolant(grid, omega_of(grid, fn),
                                       extra_values=consistent_extras(grid, fn))
            pts = rng.uniform(0, 1, size=(500, n))
            got = interp.eval_batch(pts)[:, 0]
            assert np.allclose(got, pts @ w + b, atol=1e-9, rtol=1e-9)


def test_min_rule_interpolant_is_sandwiched_by_corner_values():
    rng = np.random.default_rng(43)
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 0.3)
    omega = rng.normal(size=(1, grid.num_points))
    interp = build_interpolant(grid, omega)
    corner_value = {c: v[0] for c, v in by_corner(grid, extend_extra_corners(omega, grid)).items()}
    corner_value.update((tuple(o), omega[0, i]) for i, o in enumerate(grid_offsets(grid).tolist()))
    unit = np.array(list(itertools.product((0, 1), repeat=2)))
    pts = rng.uniform(0, 1, size=(400, 2))
    cells, _, _ = locate_batch(pts, grid)
    for cell, v in zip(cells, interp.eval_batch(pts)[:, 0]):
        corner_vals = [corner_value[tuple(c)] for c in (cell + unit).tolist()]
        assert min(corner_vals) - 1e-9 <= v <= max(corner_vals) + 1e-9


def test_eval_scalar_and_batch_agree():
    rng = np.random.default_rng(47)
    grid = build_eta_grid(Box([-1.0, 0.0], [1.0, 2.0]), 0.45)
    omega = rng.normal(size=(2, grid.num_points))
    interp = build_interpolant(grid, omega)
    pts = rng.uniform([-1, 0], [1, 2], size=(50, 2))
    batch = interp.eval_batch(pts)
    for k in range(50):
        assert np.allclose(interp(pts[k]), batch[k], atol=1e-12)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def test_region_count_constant_is_one():
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 0.5)
    interp = build_interpolant(grid, np.full((1, grid.num_points), 2.0))
    assert region_count(interp) == [1]


def test_region_count_two_sided_hat():
    grid = build_eta_grid(Box([0.0], [1.0]), 1.0)  # single point at 0.5
    interp = build_interpolant(grid, np.array([[1.0]]),
                               extra_values={(-1,): [0.0], (1,): [0.0]})
    assert region_count(interp) == [2]
    assert interp.num_simplexes == 2


def test_region_count_bounded_by_simplex_count():
    rng = np.random.default_rng(53)
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 0.4)
    omega = rng.normal(size=(1, grid.num_points))
    interp = build_interpolant(grid, omega)
    counts = region_count(interp)
    assert counts[0] <= interp.num_simplexes
    assert counts[0] > 1


def _same_bank(got, want):
    return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(got, want))


def test_piece_bank_matches_dict_dedup():
    rng = np.random.default_rng(79)
    for n, eta in ((1, 0.15), (2, 0.3), (3, 0.45)):
        grid = build_eta_grid(Box(np.zeros(n), np.ones(n)), eta)
        omega = rng.normal(size=(3, grid.num_points))
        omega[1] = np.round(omega[1])   # integer samples: many pieces coincide
        omega[2] = 0.5                  # one piece
        for scale in (1.0, 2.0 ** -40, 1e-12, 1e-6, 1e3, 1e9):
            interp = build_interpolant(grid, omega * scale)
            for j in range(3):
                bank = piece_bank(interp, j)
                assert _same_bank(bank, dict_piece_bank(interp, j))
                assert bank[2].shape == (interp.num_simplexes,)


def test_value_scale_is_the_nearest_power_of_two():
    grid = build_eta_grid(Box([0.0], [1.0]), 0.5)
    tops = [0.0, 5e-324, 1e-12, 0.74, 0.75, 1.0, 1.49, 1.5, 3.0, 1e9, 2.0 ** 30, 1e300]
    for top in tops:
        for sign in (1.0, -1.0):
            omega = np.zeros((2, grid.num_points))
            omega[1, 0] = sign * top
            omega[1, 1] = sign * top / 3.0
            interp = build_interpolant(grid, omega)
            assert value_scale(interp, 0) == 1.0
            assert value_scale(interp, 1) == nearest_power_of_two(top)
    # a constant near the float maximum: 2^1024 is not a float, 2^1023 is
    huge = build_interpolant(grid, np.full((1, grid.num_points), 1.7e308))
    assert value_scale(huge, 0) == nearest_power_of_two(1.7e308) == 2.0 ** 1023
    assert region_count(huge) == [1]


def test_piece_bank_key_never_reads_the_offset(monkeypatch):
    # pieces whose b differ in the 12th decimal but whose gradients and
    # corner values agree are one piece; the bank keeps the first b
    b = 2.2053876672105
    assert np.round(b, 12) != round(b, 12)
    grid = build_eta_grid(Box([0.0], [1.0]), 0.5)
    interp = build_interpolant(grid, np.zeros((1, grid.num_points)))
    W, B, _ = closed_form_pieces(interp)
    W[...] = 0.0
    W[1, 0, 0, 0] = -0.0                # -0 is folded into +0
    B[...] = round(b, 12)
    B[0, 0, 0] = b
    _feed_pieces(monkeypatch, interp, W, B)
    bank_W, bias, active = piece_bank(interp, 0)
    assert bias.tolist() == [b] and active.tolist() == [0, 0, 0]
    assert _same_bank((bank_W, bias, active), dict_piece_bank(interp, 0, (W, B)))
    assert region_count(interp) == [1]


def test_piece_bank_keeps_its_pieces_on_a_domain_moved_by_1e6():
    # the same samples on the unit square and on [1e6, 1e6 + 1]^2: b carries
    # w . x_0, about 1e6 times the gradient, the key does not
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 0.1)
    x, y = grid.points.T
    near = build_interpolant(grid, (np.sin(3.0 * x) * np.cos(2.0 * y))[None])
    far = build_interpolant(build_eta_grid(Box([1e6, 1e6], [1e6 + 1.0, 1e6 + 1.0]), 0.1),
                            near.omega)
    W, b, active = piece_bank(near, 0)
    W_far, b_far, active_far = piece_bank(far, 0)
    assert np.array_equal(active_far, active) and np.array_equal(W_far, W)
    assert region_count(far) == region_count(near) == [len(b)]
    assert _same_bank((W_far, b_far, active_far), dict_piece_bank(far, 0))


def test_region_count_equals_compiled_bank_sizes():
    rng = np.random.default_rng(83)
    for n, eta in ((1, 0.2), (2, 0.35), (3, 0.5)):
        grid = build_eta_grid(Box(np.zeros(n), np.ones(n)), eta)
        omega = np.round(rng.normal(size=(2, grid.num_points)), 1)
        interp = build_interpolant(grid, omega)
        net = compile_tll(interp)
        assert region_count(interp) == [lat.size for lat in net.outputs]


def _random_interpolants(rng):
    """Min-rule interpolants on 1- to 4-D grids with 1 to 3 outputs, their
    samples at scales 1e-12 to 1e9, one output of each rounded to whole
    multiples of its scale so that many pieces coincide."""
    for n, eta in ((1, 0.07), (2, 0.12), (3, 0.25), (4, 0.35)):
        grid = build_eta_grid(Box(np.zeros(n), rng.uniform(0.5, 1.0, size=n)), eta)
        for m in (1, 2, 3):
            for scale in (1e-12, 1e-3, 1.0, 1e9):
                omega = rng.normal(size=(m, grid.num_points))
                omega[-1] = np.round(omega[-1])
                yield build_interpolant(grid, omega * scale)


@pytest.mark.parametrize("chunk", [1 << 18, 3000, 1])
def test_pieces_are_bitwise_the_whole_table_closed_form(monkeypatch, chunk):
    # the chunked pieces, and the ones evaluation forms per point, are the
    # whole table's to the bit, and so are the values evaluation returns
    monkeypatch.setattr(cpwa, "_CHUNK_VALUES", chunk)   # 3000: several chunks per grid
    rng = np.random.default_rng(227)
    for interp in _random_interpolants(rng):
        W, B, _ = closed_form_pieces(interp)
        got_W, got_B = _piece_table(interp)
        assert got_W.shape == W.shape and got_W.tobytes() == W.tobytes()
        assert got_B.shape == B.shape and got_B.tobytes() == B.tobytes()
        assert region_count(interp) == [len(piece_bank(interp, j)[1]) for j in range(interp.m)]
        X = rng.uniform(interp.grid.domain.lower, interp.grid.domain.upper,
                        size=(500, interp.n))
        cells, ranks, _ = locate_batch(X, interp.grid)
        lin = np.ravel_multi_index((cells + 1).T, tuple(c + 1 for c in interp.grid.axis_counts))
        point_W, point_B = interp._pieces_at(cells, ranks)
        assert point_W.tobytes() == W[lin, ranks].tobytes()
        assert point_B.tobytes() == B[lin, ranks].tobytes()
        want = np.einsum("pmn,pn->pm", W[lin, ranks], X) + B[lin, ranks]
        assert interp.eval_batch(X).tobytes() == want.tobytes()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dedup_and_continuity_hold_a_small_multiple_of_the_piece_table(monkeypatch):
    # 4-D unit cube at eta 0.25: 625 cells, 15,000 simplexes, 600 kB of
    # pieces (W and B of 8-byte floats).  The chunks are cut to 2^14 values
    # (131 kB) so that a whole-table temporary would show.  The dedup may
    # hold one output's gradients (480 kB); construction, the Lipschitz
    # audit and evaluation hold no table at all.
    grid = build_eta_grid(Box(np.zeros(4), np.ones(4)), 0.25)
    omega = np.sin(3.0 * grid.points).sum(axis=1)[None]
    monkeypatch.setattr(cpwa, "_CHUNK_VALUES", 1 << 14)
    peak = _traced_peak(build_interpolant, grid, omega)
    interp = build_interpolant(grid, omega, k_cont=10.0)
    assert interp.num_simplexes == 15000
    C, F, m, n = len(interp.cells), len(interp.perms), interp.m, interp.n
    table = C * F * m * (n + 1) * 8
    assert table == 600000
    assert peak < table / 2, ("construction", peak / table)
    for audit in (region_count, continuity_audit):
        peak = _traced_peak(audit, interp)
        assert peak < 4 * table, (audit.__name__, peak / table)
    X = np.random.default_rng(5).uniform(0.0, 1.0, size=(4096, 4))
    for fn, args in ((lipschitz_audit, (interp,)), (interp.eval_batch, (X,))):
        peak = _traced_peak(fn, *args)
        assert peak < table / 2, (fn.__name__, peak / table)


def test_min_rule_matches_per_corner_neighbor_minimum():
    rng = np.random.default_rng(89)
    cases = [
        (Box([0.0], [1.0]), 0.3),
        (Box([0.0], [1.0]), 1.0),                             # single point
        (Box([0.0, 0.0], [1.0, 0.35]), 0.2),                  # counts (5, 2)
        (Box([0.0, 0.0, 0.0], [0.6, 0.2, 0.9]), 0.2),         # counts (3, 1, 4)
        (Box([0.0, 0.0, 0.0, 0.0], [0.6, 0.2, 0.9, 0.4]), 0.2),  # (3, 1, 4, 2)
    ]
    for box, eta in cases:
        grid = build_eta_grid(box, eta)
        for omega in (rng.normal(size=(2, grid.num_points)),
                      rng.choice([0.0, -0.0, 1.0], size=(2, grid.num_points))):
            got = extend_extra_corners(omega, grid)
            want = brute_force_extra_values(omega, grid)
            assert list(by_corner(grid, got)) == list(want)
            assert got.tobytes() == np.array(list(want.values())).T.tobytes()
            assert np.isfinite(got).all()


def test_lipschitz_audit_constant_and_affine():
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 0.4)
    const = build_interpolant(grid, np.full((1, grid.num_points), 1.0),
                              extra_values=consistent_extras(grid, lambda x: [1.0]))
    assert lipschitz_audit(const, bound=math.inf).value == pytest.approx(0.0, abs=1e-12)

    fn = lambda x: np.atleast_1d(2.0 * x[..., 0] - 0.5 * x[..., 1])
    affine = build_interpolant(grid, omega_of(grid, fn),
                               extra_values=consistent_extras(grid, fn))
    report = lipschitz_audit(affine, bound=3.0)
    assert report.value == pytest.approx(2.5, abs=1e-9)
    assert report.bound == 3.0


def test_lipschitz_audit_needs_k_cont_or_a_bound():
    # with neither there is nothing to check the slopes against
    grid = build_eta_grid(Box([0.0], [1.0]), 0.25)
    interp = build_interpolant(grid, np.ones((1, grid.num_points)))
    with pytest.raises(ValueError, match="needs an interpolant with K_cont or an explicit bound"):
        lipschitz_audit(interp)


def test_lipschitz_audit_flags_budget_violation():
    rng = np.random.default_rng(59)
    grid = build_eta_grid(Box([0.0], [1.0]), 0.25)
    omega = rng.uniform(-1, 1, size=(1, grid.num_points))
    interp = build_interpolant(grid, omega, k_cont=0.01)
    with pytest.raises(BudgetExceeded):
        lipschitz_audit(interp)


@pytest.mark.parametrize("chunk", [1, 500, 1 << 18])
def test_lipschitz_audit_is_bitwise_the_whole_table_max(monkeypatch, chunk):
    interps = list(_random_interpolants(np.random.default_rng(233)))
    monkeypatch.setattr(cpwa, "_CHUNK_VALUES", chunk)   # 1: one cell per chunk
    for interp in interps:
        want = np.abs(closed_form_pieces(interp)[0]).sum(axis=3).max()
        got = lipschitz_audit(interp, bound=math.inf).value
        assert type(got) is float and got == want


@pytest.mark.parametrize("chunk", [1, 50, 1 << 18])
def test_lipschitz_audit_names_the_first_worst_piece_at_any_chunk(monkeypatch, chunk):
    # one unit spike per output on a zero 3-D interpolant: every piece whose
    # walk passes a spike mid-way is steepest, 2 / eta, in both outputs and
    # many cells; the first of them over the whole table is named
    grid = build_eta_grid(Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), 0.3)
    omega = np.zeros((2, grid.num_points))
    omega[1, 5] = omega[0, 20] = 1.0
    interp = build_interpolant(grid, omega, k_cont=1.0)
    dual = np.abs(closed_form_pieces(interp)[0]).sum(axis=3)        # (C, n!, m)
    c, f, j = np.unravel_index(np.argmax(dual), dual.shape)
    tied = np.argwhere(dual == dual.max())
    assert set(tied[:, 2].tolist()) == {0, 1}
    monkeypatch.setattr(cpwa, "_CHUNK_VALUES", chunk)
    step = max(1, chunk // (len(interp.perms) * (interp.n + 1) * (interp.n + interp.m)))
    if step < len(interp.cells):
        assert len(set((tied[:, 0] // step).tolist())) > 1   # the tie spans chunks
    with pytest.raises(BudgetExceeded) as info:
        lipschitz_audit(interp)
    assert str(info.value) == (
        f"piece gradient dual norm {dual.max():.6g} exceeds bound 3 at cell "
        f"{tuple(interp.cells[c].tolist())}, permutation {interp.perms[f]}, output {j}")


@pytest.mark.parametrize("chunk", [1, 50, 1 << 18])
def test_construction_names_the_first_piece_that_is_not_finite(monkeypatch, tmp_path, capsys,
                                                               chunk):
    grid = build_eta_grid(Box(np.zeros(4), np.ones(4)), 0.125)     # interp-4d's grid
    omega = np.sin(3.0 * grid.points).sum(axis=1)[None]
    omega[0, [5, 3000]] = float.fromhex("0x1p+1023")                # slopes overflow
    with monkeypatch.context() as unchecked:
        unchecked.setattr(CpwaInterpolant, "_piece_chunks", lambda self: iter(()))
        interp = build_interpolant(grid, omega, k_cont=1.0)
    W, B, _ = closed_form_pieces(interp)
    bad = ~(np.isfinite(W).all(axis=(2, 3)) & np.isfinite(B).all(axis=2))
    c, f = np.argwhere(bad)[0]                                      # the whole-table rule
    assert (interp.cells[c].tolist(), interp.perms[f]) == ([-1, -1, -1, 4], (0, 1, 2, 3))
    assert len(set(np.argwhere(bad)[:, 0].tolist())) > 1
    message = ("piece at cell [-1, -1, -1, 4], permutation (0, 1, 2, 3) is not finite: "
               "its corner values are non-finite or too large")
    monkeypatch.setattr(cpwa, "_CHUNK_VALUES", chunk)
    with pytest.raises(FloatingPointError) as info:
        build_interpolant(grid, omega, k_cont=1.0)
    assert str(info.value) == message
    with pytest.raises(FloatingPointError) as info:
        CpwaInterpolant.from_json(interp.to_json())
    assert str(info.value) == message
    path = tmp_path / "interpolant.json"
    dump_json(interp.to_json(), str(path))
    assert main(["verify", str(path), "--which", "lipschitz", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"numerical error: {message}\n"
    assert not (tmp_path / "verify_lipschitz_report.json").exists()


def test_continuity_audit_accepts_valid_interpolants():
    rng = np.random.default_rng(61)
    for n, eta in ((1, 0.3), (2, 0.4), (3, 0.5)):
        grid = build_eta_grid(Box(np.zeros(n), np.ones(n)), eta)
        omega = rng.normal(size=(1, grid.num_points))
        interp = build_interpolant(grid, omega)
        assert continuity_audit(interp) <= 1e-9


def test_continuity_exact_in_one_dimension():
    rng = np.random.default_rng(67)
    grid = build_eta_grid(Box([0.0], [1.0]), 0.2)
    omega = rng.normal(size=(1, grid.num_points))
    interp = build_interpolant(grid, omega)
    # breakpoints meet to solver precision
    assert continuity_audit(interp) <= 1e-12


@pytest.mark.parametrize("chunk", [1, 500, 1 << 18])
def test_continuity_audit_is_bitwise_the_whole_table_certificate(monkeypatch, chunk):
    interps = list(_random_interpolants(np.random.default_rng(229)))
    monkeypatch.setattr(cpwa, "_CHUNK_VALUES", chunk)   # 1: one cell per chunk
    for interp in interps:
        got = continuity_audit(interp)
        assert type(got) is float and got == whole_table_continuity(interp)[0]


@pytest.mark.parametrize("chunk", [1, 50, 1 << 18])
def test_continuity_audit_names_the_first_worst_simplex_at_any_chunk(monkeypatch, chunk):
    # a zero interpolant with two equally bad pieces, then a NaN one after
    # them: the first maximum over the whole table is named, a NaN first
    grid = build_eta_grid(Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), 0.3)
    monkeypatch.setattr(cpwa, "_CHUNK_VALUES", chunk)
    for bad in ([(3, 2, 1), (40, 0, 1)], [(3, 2, 1), (40, 0, 1), (52, 4, 0)]):
        interp = build_interpolant(grid, np.zeros((2, grid.num_points)))
        W, B, _ = closed_form_pieces(interp)
        for c, f, j in bad:
            B[c, f, j] = 1.0
        if len(bad) == 3:
            B[bad[-1]] = np.nan
        _feed_pieces(monkeypatch, interp, W, B)
        bound, (c, f, j) = whole_table_continuity(interp, (W, B))
        assert (c, f, j) == bad[-1 if len(bad) == 3 else 0]
        with pytest.raises(DiscontinuityDetected) as info:
            continuity_audit(interp)
        assert (f"{bound:.3e} scales" in str(info.value)
                and f"cell {interp.cells[c].tolist()}, permutation {interp.perms[f]}, "
                    f"output {j}" in str(info.value))


def test_continuity_audit_catches_corruption(monkeypatch):
    rng = np.random.default_rng(71)
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 0.4)
    omega = rng.normal(size=(1, grid.num_points))
    for corrupt in (1, 0):
        interp = build_interpolant(grid, omega)
        pieces = closed_form_pieces(interp)[:2]
        pieces[corrupt][2, 0, 0] += 0.5   # shift (B) or tilt (W) one piece off its neighbors
        _feed_pieces(monkeypatch, interp, *pieces)
        with pytest.raises(DiscontinuityDetected):
            continuity_audit(interp)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_interpolant_json_roundtrip_bitwise():
    rng = np.random.default_rng(73)
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 0.4)
    omega = rng.normal(size=(2, grid.num_points))
    interp = build_interpolant(grid, omega, k_cont=1.5)
    obj = interp.to_json()
    assert "K_cont" in obj
    back = CpwaInterpolant.from_json(obj)
    assert np.array_equal(back.omega, interp.omega)
    assert np.array_equal(back.corners, interp.corners)
    for got, want in zip(_piece_table(back), _piece_table(interp)):
        assert np.array_equal(got, want)
    assert back.k_cont == interp.k_cont
    assert back.min_rule_extras is True
    pts = rng.uniform(0, 1, size=(100, 2))
    assert np.array_equal(back.eval_batch(pts), interp.eval_batch(pts))


def test_interpolant_json_roundtrip_every_dimension():
    # n = 1..4, m = 1..2, min-rule corners and caller-supplied corners
    rng = np.random.default_rng(79)
    for n in (1, 2, 3, 4):
        grid = build_eta_grid(Box(np.zeros(n), rng.uniform(0.5, 1.0, size=n)), 0.3)
        extras = list(map(tuple, extra_corners(grid).tolist()))
        for m in (1, 2):
            omega = rng.normal(size=(m, grid.num_points))
            supplied = {c: rng.normal(size=m) for c in extras}
            caller = build_interpolant(grid, omega, extra_values=supplied)
            # the mapping becomes one column per corner, in extra_corners order
            assert caller.extra_values.tobytes() == np.array(
                [supplied[c] for c in extras]).T.tobytes()
            for interp in (build_interpolant(grid, omega, k_cont=0.7), caller):
                obj = interp.to_json()
                assert "offsets" not in obj["grid"] and "extra_corners" not in obj
                # min-rule values are derived on load, only the caller's are stored
                assert ("extra_values" in obj) is not interp.min_rule_extras
                back = CpwaInterpolant.from_json(obj)
                assert back.extra_values.shape == (m, len(extras))
                for name in ("omega", "extra_values", "corners"):
                    assert getattr(back, name).tobytes() == getattr(interp, name).tobytes()
                for got, want in zip(_piece_table(back), _piece_table(interp)):
                    assert got.tobytes() == want.tobytes()
                assert back.min_rule_extras is interp.min_rule_extras
                assert back.k_cont == interp.k_cont


def test_interpolant_json_requires_keys():
    # a caller-supplied file, the one kind that stores extra_values
    grid = build_eta_grid(Box([0.0], [1.0]), 0.5)
    interp = build_interpolant(grid, np.array([[0.0, 1.0]]),
                               extra_values={(-1,): [0.0], (2,): [0.0]})
    obj = interp.to_json()
    for key in ("omega", "extra_values", "min_rule_extras"):
        with pytest.raises(SchemaError, match=key):
            CpwaInterpolant.from_json({k: v for k, v in obj.items() if k != key})
    for flag in ("false", 0, None):   # a JSON boolean, not a truthy stand-in
        with pytest.raises(SchemaError):
            CpwaInterpolant.from_json({**obj, "min_rule_extras": flag})
    with pytest.raises(SchemaError, match="extra_values"):   # min-rule values are derived
        CpwaInterpolant.from_json({**obj, "min_rule_extras": True})


def test_interpolant_rejects_uncovered_corner():
    grid = build_eta_grid(Box([0.0], [1.0]), 0.5)
    omega = np.array([[0.0, 1.0]])   # extra corners at offsets -1 and 2
    with pytest.raises(ValueError):
        # missing the corner at offset 2
        build_interpolant(grid, omega, extra_values={(-1,): np.array([0.0])})
    with pytest.raises(ValueError):
        # offset 0 is a grid point: its value is omega's, not an extra
        build_interpolant(grid, omega, extra_values={(-1,): [0.0], (0,): [5.0], (2,): [0.0]})
    for values in ([[0.0]], [[0.0, 0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0]):
        with pytest.raises(ValueError):   # one value per output and extra corner
            CpwaInterpolant(grid, omega, np.array(values))
    obj = build_interpolant(grid, omega, extra_values={(-1,): [0.0], (2,): [0.0]}).to_json()
    for values in ([["0x0.0p+0"]], [["0x0.0p+0"] * 3], [["0x0.0p+0"] * 2] * 2,
                   [["0x0.0p+0", "0x0.0p+0"], ["0x0.0p+0"]]):
        with pytest.raises(ValueError):
            CpwaInterpolant.from_json({**obj, "extra_values": values})
    for edit in ({"extra_values": [["0x0.0p+0", True]]}, {"extra_values": [5]},
                 {"omega": 5}):   # not rows of hex floats
        with pytest.raises(SchemaError):
            CpwaInterpolant.from_json({**obj, **edit})
