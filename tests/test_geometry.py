"""Grids, hypercubes, extra corners, and the braid dissection."""

import itertools
import math

import numpy as np
import pytest

from _oracles import SimplexId, grid_offsets, permutation_rank, simplex_world_vertices
from tllsynth import (
    Box,
    DimensionTooLarge,
    EtaGrid,
    NonPositiveEta,
    OutsideDomain,
    SchemaError,
    braid_face_dissection,
    braid_simplices,
    build_eta_grid,
    extra_corners,
    interpolation_hypercubes,
    locate_batch,
    permutation_rank_batch,
    simplex_vertices,
)


# ---------------------------------------------------------------------------
# boxes and extent
# ---------------------------------------------------------------------------

def test_extent_examples():
    assert Box([0, 0], [1, 1]).extent() == 1.0
    assert Box([0, 0], [2, 1]).extent() == 2.0
    assert Box([-1, -1, -1], [1, 1, 1]).extent() == 2.0


def test_box_validation_and_roundtrip():
    with pytest.raises(ValueError):
        Box([0.0, 1.0], [1.0, 1.0])  # empty on axis 1
    with pytest.raises(ValueError):
        Box([0.0], [np.inf])
    box = Box([-0.3, 0.1], [0.7, 2.5])
    back = Box.from_json(box.to_json())
    assert np.array_equal(back.lower, box.lower)
    assert np.array_equal(back.upper, box.upper)


# ---------------------------------------------------------------------------
# eta grids
# ---------------------------------------------------------------------------

def test_unit_interval_half_eta_grid():
    grid = build_eta_grid(Box([0.0], [1.0]), 0.5)
    assert grid.num_points == 2
    assert np.allclose(grid.points.ravel(), [0.25, 0.75], atol=1e-15)


def test_wide_eta_collapses_to_center():
    grid = build_eta_grid(Box([0.0], [1.0]), 1.0)
    assert grid.num_points == 1
    assert grid.points.ravel()[0] == pytest.approx(0.5, abs=1e-15)


def test_third_eta_grid_is_centered():
    grid = build_eta_grid(Box([0.0], [1.0]), 1.0 / 3.0)
    assert grid.num_points == 3
    assert np.allclose(grid.points.ravel(), [1 / 6, 1 / 2, 5 / 6], atol=1e-12)


def test_nonpositive_eta_rejected():
    box = Box([0.0], [1.0])
    for eta in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(NonPositiveEta):
            build_eta_grid(box, eta)


def test_grid_invariants_on_random_boxes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        lo = rng.uniform(-3, 0, size=n)
        hi = lo + rng.uniform(0.3, 4.0, size=n)
        eta = float(rng.uniform(0.05, 1.5))
        grid = build_eta_grid(Box(lo, hi), eta)
        grid.validate()
        pts = grid.points
        assert (pts >= lo - 1e-12).all() and (pts <= hi + 1e-12).all()
        # per-axis covering by closed eta-balls
        for i in range(n):
            axis = np.unique(pts[:, i])
            assert axis[0] - eta <= lo[i] + 1e-12
            assert axis[-1] + eta >= hi[i] - 1e-12
        # points reconstruct exactly from anchor + eta * offsets
        assert np.array_equal(pts, grid.anchor + eta * grid_offsets(grid))


def test_grid_covering_slack_quarter_eta():
    # centered construction leaves at least eta/4 covering slack per side
    rng = np.random.default_rng(11)
    for _ in range(20):
        width = float(rng.uniform(0.2, 5.0))
        eta = float(rng.uniform(0.05, 1.0))
        grid = build_eta_grid(Box([0.0], [width]), eta)
        first = float(grid.points.min())
        last = float(grid.points.max())
        assert first - eta <= 0.0 - eta / 4 + 1e-12
        assert last + eta >= width + eta / 4 - 1e-12


def test_grid_json_roundtrip_bit_exact():
    grid = build_eta_grid(Box([-0.3, 0.1], [0.9, 2.0]), 0.37)
    obj = grid.to_json()
    back = EtaGrid.from_json(obj)
    assert back.eta == grid.eta
    assert np.array_equal(back.anchor, grid.anchor)
    assert np.array_equal(back.points, grid.points)
    assert back.axis_counts == grid.axis_counts


def test_grid_json_rejects_tampering():
    grid = build_eta_grid(Box([0.0], [1.0]), 0.25)
    obj = grid.to_json()
    assert sorted(obj) == ["anchor", "axis_counts", "domain", "eta"]
    for counts in ([4.0], [True], 4, None):   # not a list of JSON integers
        with pytest.raises(SchemaError):
            EtaGrid.from_json({**obj, "axis_counts": counts})
    # the constructor checks one positive count per axis, containment and covering
    for counts in ([4, 1], [], [3], [5], [0], [-4], [10 ** 30]):
        with pytest.raises(ValueError):
            EtaGrid.from_json({**obj, "axis_counts": counts})
    with pytest.raises(SchemaError):
        EtaGrid.from_json({**obj, "eta": True})
    bad = dict(obj)
    del bad["anchor"]
    with pytest.raises(SchemaError):
        EtaGrid.from_json(bad)
    # the older format listed every offset and the dimension instead of the counts
    old = {k: v for k, v in obj.items() if k != "axis_counts"}
    old.update(dimension=1, offsets=grid_offsets(grid).tolist())
    with pytest.raises(SchemaError, match="axis_counts"):
        EtaGrid.from_json(old)


# ---------------------------------------------------------------------------
# interpolation hypercubes
# ---------------------------------------------------------------------------

def test_hypercubes_unit_interval():
    grid = build_eta_grid(Box([0.0], [1.0]), 0.5)
    cubes = interpolation_hypercubes(grid)
    assert cubes.tolist() == [[-1], [0], [1]]
    mins = (grid.anchor + grid.eta * cubes).ravel()
    assert mins == pytest.approx([-0.25, 0.25, 0.75], abs=1e-15)
    # count bound: n=1, ext=1, eta=0.5 -> ceil(1/0.5 + 2)^1 = 4
    assert len(cubes) <= 4


def test_hypercube_count_within_formula_bound():
    grid = build_eta_grid(Box([0.0, 0.0], [2.0, 2.0]), 0.25)
    cubes = interpolation_hypercubes(grid)
    bound = math.ceil(2.0 / 0.25 + 2) ** 2  # 100
    assert bound == 100
    assert len(cubes) <= bound
    # exact count for the full box lattice: prod(count_i + 1)
    assert len(cubes) == np.prod(np.asarray(grid.axis_counts) + 1)


def test_single_point_grid_has_two_intervals():
    grid = build_eta_grid(Box([0.0], [1.0]), 1.0)
    cubes = interpolation_hypercubes(grid)
    assert cubes.tolist() == [[-1], [0]]


def test_hypercube_corners_match_sign_generation():
    # every (grid point, sign vector) pair spans a cube; its minimal corner
    # steps down on the negative axes, and the distinct ones are the cubes
    for box, eta in ((Box([0.0, 0.0], [1.0, 1.0]), 0.5),
                     (Box([0.0, 0.0, 0.0], [1.0, 0.4, 2.0]), 0.45)):
        grid = build_eta_grid(box, eta)
        signs = list(itertools.product((-1, 1), repeat=grid.dimension))
        cells = {tuple(o if r > 0 else o - 1 for o, r in zip(offset, rho))
                 for offset in grid_offsets(grid).tolist() for rho in signs}
        assert interpolation_hypercubes(grid).tolist() == sorted(map(list, cells))


def test_hypercubes_cover_domain():
    rng = np.random.default_rng(13)
    grid = build_eta_grid(Box([-1.0, 0.5], [1.0, 2.0]), 0.3)
    pts = rng.uniform([-1.0, 0.5], [1.0, 2.0], size=(500, 2))
    cells, _, t = locate_batch(pts, grid)
    assert (t >= -1e-9).all() and (t <= 1 + 1e-9).all()
    counts = np.asarray(grid.axis_counts)
    assert (cells >= -1).all() and (cells < counts).all()


# ---------------------------------------------------------------------------
# extra corners
# ---------------------------------------------------------------------------

def test_extra_corners_unit_interval():
    grid = build_eta_grid(Box([0.0], [1.0]), 0.5)
    extras = extra_corners(grid)
    assert extras.tolist() == [[-1], [2]]
    coords = (grid.anchor + grid.eta * extras).ravel()
    assert coords == pytest.approx([-0.25, 1.25], abs=1e-15)


def test_extra_corners_are_exactly_the_non_grid_corners():
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), 0.4)
    extras = extra_corners(grid)
    unit = np.array(list(itertools.product((0, 1), repeat=2)))
    all_corners = {tuple(c) for cell in interpolation_hypercubes(grid)
                   for c in (cell + unit).tolist()}
    expect = all_corners - {tuple(o) for o in grid_offsets(grid).tolist()}
    assert extras.tolist() == sorted(map(list, expect))
    # each extra corner has a grid point within its closed eta-ball
    coords = grid.anchor + grid.eta * extras
    gaps = np.abs(coords[:, None, :] - grid.points[None, :, :]).max(axis=2)
    assert (gaps.min(axis=1) <= grid.eta + 1e-12).all()


# ---------------------------------------------------------------------------
# braid dissection
# ---------------------------------------------------------------------------

def test_simplex_counts():
    assert len(braid_simplices(1)) == 1
    assert len(braid_simplices(2)) == 2
    assert len(braid_simplices(3)) == 6
    assert braid_simplices(2) == [(0, 1), (1, 0)]  # lexicographic


def test_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        braid_simplices(7)


def test_simplex_vertices_identity_permutation():
    verts = simplex_vertices((0, 1))
    assert np.array_equal(verts, [[0, 0], [0, 1], [1, 1]])


def test_simplex_vertices_reversed_permutation_3d():
    verts = simplex_vertices((2, 1, 0))
    assert np.array_equal(verts, [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]])


def test_simplex_vertices_endpoints():
    for n in range(1, 5):
        for sigma in braid_simplices(n):
            verts = simplex_vertices(sigma)
            assert np.array_equal(verts[0], np.zeros(n))
            assert np.array_equal(verts[-1], np.ones(n))
            # each step flips exactly one coordinate from 0 to 1
            diffs = np.diff(verts, axis=0)
            assert (diffs.sum(axis=1) == 1).all()
            assert ((diffs == 0) | (diffs == 1)).all()


def test_partition_volumes_sum_to_one():
    for n in range(1, 5):
        total = 0.0
        for sigma in braid_simplices(n):
            verts = simplex_vertices(sigma).astype(float)
            edges = verts[1:] - verts[0]
            vol = abs(np.linalg.det(edges)) / math.factorial(n)
            assert vol == pytest.approx(1.0 / math.factorial(n), abs=1e-12)
            total += vol
        assert total == pytest.approx(1.0, abs=1e-12)


def test_simplices_partition_cube_interior():
    # random interior points fall in exactly one simplex (ties have measure 0)
    rng = np.random.default_rng(5)
    for n in (2, 3):
        pts = rng.uniform(0.01, 0.99, size=(200, n))
        for t in pts:
            hits = []
            for sigma in braid_simplices(n):
                order = np.argsort(t, kind="stable")
                if tuple(order) == sigma:
                    hits.append(sigma)
            assert len(hits) == 1


def test_face_dissections_match_across_opposite_faces():
    for n in (2, 3, 4):
        for axis in range(n):
            low = braid_face_dissection(n, axis, 0)
            high = braid_face_dissection(n, axis, 1)
            assert low == high
            assert len(low) == math.factorial(n - 1)


# ---------------------------------------------------------------------------
# point location
# ---------------------------------------------------------------------------

def _unit_cell_grid():
    # two points per axis at 0 and 1 so cell (0, 0) is the unit square
    return build_eta_grid(Box([-0.5, -0.5], [1.5, 1.5]), 1.0)


def test_locate_simplex_interior_point():
    grid = _unit_cell_grid()
    cells, ranks, t = locate_batch(np.array([[0.3, 0.8]]), grid)
    assert cells.tolist() == [[0, 0]]
    assert braid_simplices(2)[ranks[0]] == (0, 1)
    assert np.allclose(t, [[0.3, 0.8]], atol=1e-15)


def test_locate_simplex_tie_is_lexicographic():
    grid = _unit_cell_grid()
    _, ranks, _ = locate_batch(np.array([[0.5, 0.5]]), grid)
    assert braid_simplices(2)[ranks[0]] == (0, 1)


def test_locate_cell_face_points_take_lower_cell():
    grid = build_eta_grid(Box([0.0], [1.0]), 0.5)
    cells, _, t = locate_batch(np.array([[0.25], [0.75]]), grid)  # the grid points
    assert cells.tolist() == [[-1], [0]]
    assert t[0, 0] == pytest.approx(1.0, abs=0)


def test_locate_outside_union_raises():
    grid = build_eta_grid(Box([0.0], [1.0]), 0.5)
    with pytest.raises(OutsideDomain):
        locate_batch(np.array([[3.0]]), grid)
    with pytest.raises(OutsideDomain):
        locate_batch(np.array([[0.5], [-2.0]]), grid)
    with pytest.raises(OutsideDomain, match="nan"):
        locate_batch(np.array([[0.5], [np.nan]]), grid)


def test_located_simplex_contains_its_point():
    rng = np.random.default_rng(17)
    grid = build_eta_grid(Box([-1.0, -1.0, 0.0], [1.0, 0.5, 2.0]), 0.45)
    pts = rng.uniform([-1, -1, 0], [1, 0.5, 2], size=(300, 3))
    cells, ranks, t = locate_batch(pts, grid)
    perms = braid_simplices(3)
    for x, cell, rank, tk in zip(pts, cells, ranks, t):
        sigma = perms[rank]
        # normalized coordinates lie in the unit cube, sorted by sigma
        assert (tk >= -1e-12).all() and (tk <= 1 + 1e-12).all()
        assert (np.diff(tk[list(sigma)]) >= -1e-12).all()
        verts = simplex_world_vertices(SimplexId(tuple(cell.tolist()), sigma), grid)
        assert verts.shape == (4, 3)
        # point is a convex combination of the vertices: barycentric solve
        A = np.vstack([verts.T, np.ones(4)])
        lam, *_ = np.linalg.lstsq(A, np.append(x, 1.0), rcond=None)
        assert (lam > -1e-9).all()


def test_locate_batch_matches_scalar():
    rng = np.random.default_rng(19)
    grid = build_eta_grid(Box([-1.0, 0.0], [1.0, 1.0]), 0.3)
    pts = rng.uniform([-1, 0], [1, 1], size=(400, 2))
    cells, ranks, t = locate_batch(pts, grid)
    for k in range(pts.shape[0]):
        cell, rank, tk = locate_batch(pts[k:k + 1], grid)
        assert np.array_equal(cell[0], cells[k])
        assert np.array_equal(tk[0], t[k])
        assert rank[0] == ranks[k]
        assert ranks[k] == permutation_rank(tuple(np.argsort(t[k], kind="stable")))
    # normalized coordinates reconstruct the points
    assert np.allclose(grid.anchor + grid.eta * (cells + t), pts, atol=1e-12)


def test_permutation_rank_batch_is_lexicographic():
    for n in range(1, 6):
        perms = list(itertools.permutations(range(n)))
        ranks = permutation_rank_batch(np.array(perms))
        assert np.array_equal(ranks, np.arange(len(perms)))
