"""Continuous piecewise-affine interpolation over braid-dissected hypercubes.

Controller values are sampled on the grid, hypercube corners outside the
grid receive the minimum over their eta-ball grid neighbors, and each braid
(Kuhn) simplex carries the unique affine function interpolating its n+1
corner values.  A Kuhn simplex walks from its cube's minimal corner to the
opposite one, one axis per vertex, so each piece is read off in closed form
from the value steps along that walk.  Adjacent simplexes share the corners
of their common face, so continuity is certified exactly at the vertices.
The result is a globally continuous piecewise-affine function on the
hypercube union whose pieces, sizes, and Lipschitz data are auditable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetExceeded, DiscontinuityDetected, OracleFailure, OutsideDomain, SchemaError
from .geometry import (
    EtaGrid,
    braid_simplices,
    extra_corners,
    interpolation_hypercubes,
    locate_batch,
    simplex_vertices,
)
from .serialize import float_or_none, hex_or_none, hex_to_vec, require_keys, rows_to_hex

_DEDUP_DECIMALS = 12
# floats held by one chunk's temporaries: the vertex values and coordinates
# of _vertex_chunks and the points of CpwaInterpolant.eval_batch (tll.py
# keeps its own, smaller chunk)
_CHUNK_VALUES = 1 << 18
REL_TOL = 1e-9  # every value tolerance is REL_TOL times the output's value_scale


def check_oracle_reply(reply, points: np.ndarray, m: int) -> np.ndarray:
    """An oracle's reply at ``points`` (P, n) as a finite (P, m) array.

    A reply that is not numeric or has another shape raises
    ``OracleFailure`` naming the first point asked for; one that holds a
    non-finite row names the first such point.
    """
    try:
        values = np.asarray(reply, dtype=float)
    except (TypeError, ValueError) as exc:
        raise OracleFailure(f"oracle reply for the points from {points[0].tolist()} is not "
                            f"numeric: {exc}") from exc
    if values.shape != (len(points), m):
        raise OracleFailure(f"oracle returned shape {values.shape} for the points from "
                            f"{points[0].tolist()}, expected ({len(points)}, {m})")
    if not np.isfinite(values).all():
        first = np.flatnonzero(~np.isfinite(values).all(axis=1))[0]
        raise OracleFailure(f"oracle returned non-finite values at {points[first].tolist()}")
    return values


@dataclass(frozen=True)
class BatchOracle:
    """A controller that answers a whole (P, n) array of points at once.

    Wrapping a callable in it tells ``sample_controller`` to hand ``fn`` the
    entire grid in one call; its reply must be (P, m).
    """

    fn: Callable[[np.ndarray], object]


def sample_controller(oracle, grid: EtaGrid, m: int) -> np.ndarray:
    """Evaluate a controller oracle at every grid point.

    Returns the omega value table, one row per output: shape (m, P).  The
    oracle takes one of two contracts, chosen by its type:

    - a ``BatchOracle`` is called once with all grid points, shape (P, n),
      and returns (P, m);
    - any other callable is called point by point with a vector of shape
      (n,) and returns m reals; a raise there is an ``OracleFailure``
      naming the grid point.  It is never handed a batch.

    The points go out in ``grid.points`` order and the whole reply is
    checked once by ``check_oracle_reply``: a wrong shape or a non-finite
    value is an ``OracleFailure`` naming the first bad point.
    """
    if m < 1:
        raise OracleFailure(f"output dimension must be at least 1, got {m}")
    points = grid.points
    if isinstance(oracle, BatchOracle):
        reply = oracle.fn(points)
    else:
        reply = []
        for p in points:
            try:
                reply.append(np.atleast_1d(oracle(p)))
            except Exception as exc:
                raise OracleFailure(f"oracle raised at grid point {p.tolist()}: {exc}") from exc
    return check_oracle_reply(reply, points, m).T.copy()


def extend_extra_corners(omega: np.ndarray, grid: EtaGrid) -> np.ndarray:
    """Values for non-grid corners, shape (m, E) with columns in
    ``extra_corners(grid)`` order: per-output minimum over the corner's
    eta-ball grid neighbors (independently for each output row).

    The grid values are padded with +inf by two steps per side, and the
    minimum is taken over the 3^n unit shifts of that array at once.
    """
    omega = np.asarray(omega, dtype=float)
    counts, m = grid.axis_counts, omega.shape[0]
    padded = np.full(tuple(c + 4 for c in counts) + (m,), np.inf)
    padded[tuple(slice(2, c + 2) for c in counts)] = omega.T.reshape(counts + (m,))
    mins = np.full(tuple(c + 2 for c in counts) + (m,), np.inf)
    for shift in itertools.product(range(3), repeat=grid.dimension):
        np.minimum(mins, padded[tuple(slice(s, s + c + 2) for s, c in zip(shift, counts))],
                   out=mins)
    return mins[tuple((extra_corners(grid) + 1).T)].T.copy()


class CpwaInterpolant:
    """Piecewise-affine interpolant of grid samples on the hypercube union.

    Pieces are indexed by (hypercube cell, sorting permutation).  Each is
    fixed by the n+1 corner values of its simplex, so only the corner table
    is held (``corners``, one row per corner of the lattice): pieces are
    formed where they are read, a cell chunk at a time by the audits and
    the dedup, one per point by evaluation, which locates the simplex and
    applies its affine function.  ``omega`` (m, P) holds the grid values
    and ``extra_values`` (m, E) the values at the non-grid corners, columns
    in ``extra_corners(grid)`` order.  With ``extra_values`` None they
    follow from omega by the eta-ball minimum rule (the guarantee-carrying
    construction, ``extend_extra_corners``); otherwise the caller's values
    are kept (e.g. affine-consistent test data).  ``min_rule_extras``
    records which.  Construction forms every piece once and raises
    ``FloatingPointError`` naming the first one that is not finite.
    """

    def __init__(self, grid: EtaGrid, omega: np.ndarray, extra_values: np.ndarray | None = None,
                 k_cont: float | None = None):
        omega = np.asarray(omega, dtype=float)
        if omega.ndim != 2 or omega.shape[1] != grid.num_points:
            raise ValueError(f"omega must have shape (m, {grid.num_points})")
        if not np.isfinite(omega).all():
            raise OracleFailure("omega holds non-finite values")
        self.min_rule_extras = extra_values is None
        if self.min_rule_extras:
            extra_values = extend_extra_corners(omega, grid)
        self.extra_values = np.asarray(extra_values, dtype=float)
        num_extra = math.prod(c + 2 for c in grid.axis_counts) - grid.num_points
        if self.extra_values.shape != (omega.shape[0], num_extra):
            raise ValueError(f"extra_values must have shape ({omega.shape[0]}, {num_extra})")
        self.grid = grid
        self.omega = omega
        self.k_cont = None if k_cont is None else float(k_cont)
        if self.k_cont is not None and not 0.0 <= self.k_cont < math.inf:
            raise ValueError(f"k_cont must be a Lipschitz constant >= 0 and finite, "
                             f"got {self.k_cont!r}")
        self.perms = braid_simplices(grid.dimension)
        self.unit = np.stack([simplex_vertices(s) for s in self.perms])  # (n!, n+1, n)
        self.cells = interpolation_hypercubes(grid)
        dims = self._corner_dims = tuple(c + 2 for c in grid.axis_counts)
        self.corners = self._corner_table()                                        # (prod dims, m)
        self._cell_corner = np.ravel_multi_index((self.cells + 1).T, dims)          # (C,)
        self._unit_lin = np.ravel_multi_index(tuple(np.moveaxis(self.unit, -1, 0)), dims)
        # the step t at which each permutation's walk adds axis a: (n!, n)
        self._steps = np.argmax(np.diff(self.unit, axis=1), axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, _, _, W, B in self._piece_chunks():
                bad = ~(np.isfinite(W).all(axis=(2, 3)) & np.isfinite(B).all(axis=2))
                if bad.any():
                    c, f = np.argwhere(bad)[0]
                    raise FloatingPointError(
                        f"piece at cell {self.cells[lo + c].tolist()}, permutation "
                        f"{self.perms[f]} is not finite: its corner values are non-finite "
                        "or too large")

    # -- corner values and pieces -----------------------------------------

    def _corner_table(self) -> np.ndarray:
        """Values on the full corner lattice (offsets -1..count per axis),
        shape (prod(count_i + 2), m): grid entries from omega, the rest from
        extra_values.  Both fill their corners in lexicographic order."""
        counts = self.grid.axis_counts
        table = np.empty(self._corner_dims + (self.m,))
        grid_part = tuple(slice(1, c + 1) for c in counts)
        table[grid_part] = self.omega.T.reshape(counts + (self.m,))
        extra = np.ones(table.shape[:-1], dtype=bool)
        extra[grid_part] = False
        table[extra] = self.extra_values.T
        return table.reshape(-1, self.m)

    def _vertex_chunks(self):
        """Corner values at every simplex vertex, cell chunk by cell chunk:
        yields (lo, hi, values), values (hi - lo, n!, n+1, m) for cells
        lo:hi, simplexes in (cell, permutation) order.  A chunk holds about
        ``_CHUNK_VALUES`` values counting the (.., n) vertex coordinates a
        caller may pair with them, and is gathered one vertex column at a
        time: a vertex's corner is cell + unit vertex, so their flat
        indices add."""
        F, V = self._unit_lin.shape
        C = len(self.cells)
        step = max(1, _CHUNK_VALUES // (F * V * (self.n + self.m)))
        for lo in range(0, C, step):
            hi = min(lo + step, C)
            corner = self._cell_corner[lo:hi, None]
            values = np.empty((hi - lo, F, V, self.m))
            for t in range(V):
                values[:, :, t] = self.corners[corner + self._unit_lin[:, t]]
            yield lo, hi, values

    def _slopes(self, values: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Piece gradients (c, f, m, n) from vertex values (c, f, n+1, m) of
        simplexes whose walks add axis a at step ``steps[f, a]``: vertex t+1
        adds one axis, whose slope is (v_{t+1} - v_t) / eta."""
        c, F, V, m = values.shape
        slopes = (np.diff(values, axis=2) / self.grid.eta).reshape(c, F * (V - 1), m)
        order = (np.arange(F)[:, None] * (V - 1) + steps).ravel()    # (f, a) -> (f, step)
        return np.ascontiguousarray(
            np.take(slopes, order, axis=1).reshape(c, F, V - 1, m).swapaxes(2, 3))

    def _offsets(self, values: np.ndarray, W: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """b = v_0 - w.x_0 at the minimal corner x_0 of each simplex's cell,
        (c, f, m), for vertex values (c, f, n+1, m), gradients W (c, f, m, n)
        and cells (c, n)."""
        x0 = self.grid.anchor + self.grid.eta * cells
        return values[:, :, 0] - np.einsum("cfmn,cn->cfm", W, x0)

    def _piece_chunks(self):
        """Every piece, cell chunk by cell chunk of ``_vertex_chunks``:
        yields (lo, hi, values, W, B), W (hi - lo, n!, m, n) and B
        (hi - lo, n!, m).  No more than one chunk of pieces is held."""
        for lo, hi, values in self._vertex_chunks():
            W = self._slopes(values, self._steps)
            yield lo, hi, values, W, self._offsets(values, W, self.cells[lo:hi])

    # -- shape ------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.grid.dimension

    @property
    def m(self) -> int:
        return self.omega.shape[0]

    @property
    def num_simplexes(self) -> int:
        return self.cells.shape[0] * len(self.perms)

    # -- evaluation --------------------------------------------------------

    def _pieces_at(self, cells: np.ndarray, ranks: np.ndarray):
        """Pieces of the simplexes (cells[k], perms[ranks[k]]), cells (P, n)
        offsets: W (P, m, n) and B (P, m), formed from their n+1 corner
        values alone."""
        corner = np.ravel_multi_index((cells + 1).T, self._corner_dims)
        values = self.corners[corner[:, None] + self._unit_lin[ranks]]        # (P, n+1, m)
        # the points ride as the permutation axis of one cell, each with its own steps
        W = self._slopes(values[None], self._steps[ranks])[0]                  # (P, m, n)
        return W, self._offsets(values[:, None], W[:, None], cells)[:, 0]

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Values at many points, shape (P, m).  Each point is located and
        given its simplex's piece, in chunks of ``_CHUNK_VALUES / ((n+1)(n+m))``
        points, so that their vertex values and coordinates stay near
        ``_CHUNK_VALUES`` values, as in ``_vertex_chunks``."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise OutsideDomain("batch must have shape (P, n)")
        out = np.empty((len(X), self.m))
        step = max(1, _CHUNK_VALUES // ((self.n + 1) * (self.n + self.m)))
        for lo in range(0, len(X), step):
            x = X[lo:lo + step]
            cells, ranks, _ = locate_batch(x, self.grid)
            W, B = self._pieces_at(cells, ranks)
            out[lo:lo + step] = np.einsum("pmn,pn->pm", W, x) + B
        return out

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.eval_batch(x[None])[0] if x.ndim == 1 else self.eval_batch(x)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """What fixes the interpolant: min-rule extra values are left out,
        since ``from_json`` derives them from omega."""
        obj = {
            "grid": self.grid.to_json(),
            "omega": rows_to_hex(self.omega),
            "K_cont": hex_or_none(self.k_cont),
            "min_rule_extras": self.min_rule_extras,
        }
        if not self.min_rule_extras:
            obj["extra_values"] = rows_to_hex(self.extra_values)
        return obj

    @staticmethod
    def from_json(obj: dict) -> "CpwaInterpolant":
        require_keys(obj, ("grid", "omega", "min_rule_extras"), "interpolant")
        min_rule = obj["min_rule_extras"]
        if not isinstance(min_rule, bool):
            raise SchemaError("interpolant min_rule_extras must be true or false")
        if min_rule and "extra_values" in obj:
            raise SchemaError("interpolant with min_rule_extras true stores no extra_values: "
                              "they follow from omega (older files stored them)")
        if not min_rule and "extra_values" not in obj:
            raise SchemaError("interpolant with min_rule_extras false must store extra_values")
        return CpwaInterpolant(
            EtaGrid.from_json(obj["grid"]),
            _hex_rows(obj["omega"], "omega"),
            None if min_rule else _hex_rows(obj["extra_values"], "extra_values"),
            float_or_none(obj.get("K_cont")),
        )


def _hex_rows(rows, what: str) -> np.ndarray:
    """A JSON list of equally long rows of hex floats as an array; anything
    else is a ``SchemaError`` naming the field (and the row lengths)."""
    if not isinstance(rows, list):
        raise SchemaError(f"interpolant {what} must be a list of rows")
    vecs = [hex_to_vec(row) for row in rows]
    if len({len(v) for v in vecs}) > 1:
        raise SchemaError(f"interpolant {what} rows must be equally long, got lengths "
                          f"{[len(v) for v in vecs]}")
    return np.array(vecs)


def build_interpolant(grid: EtaGrid, omega: np.ndarray, k_cont: float | None = None,
                      extra_values: dict | None = None) -> CpwaInterpolant:
    """Assemble the interpolant for sampled controller values.

    By default non-grid corners get the eta-ball minimum rule, which is the
    construction carrying the approximation guarantee.  Callers may override
    ``extra_values`` with a mapping from each non-grid corner offset (exactly
    those of ``extra_corners(grid)``) to its m values, e.g. to feed
    affine-consistent corner data in tests.
    """
    if extra_values is None:
        return CpwaInterpolant(grid, omega, k_cont=k_cont)
    corners = list(map(tuple, extra_corners(grid).tolist()))
    if sorted(extra_values) != corners:
        raise ValueError("extra corner offsets must be exactly the non-grid hypercube corners")
    values = np.array([extra_values[c] for c in corners], dtype=float).T
    return CpwaInterpolant(grid, omega, values, k_cont)


def power_of_two_scale(values) -> float:
    """The power of two nearest to max|values| (1.0 if all zero or empty).
    Dividing by it and multiplying back are exact, so values * 2^k keep
    their digits."""
    frac, exp = math.frexp(float(np.abs(values).max(initial=0.0)))  # frac in [0.5, 1)
    if frac == 0.0:
        return 1.0
    return math.ldexp(1.0, min(exp if frac >= 0.75 else exp - 1, 1023))  # 2^1024 overflows


def value_scale(interp: CpwaInterpolant, output: int) -> float:
    """The ``power_of_two_scale`` of one output's omega, the unit of every value
    tolerance: omega * 2^k compiles to the same selectors and a bank 2^k as large."""
    return power_of_two_scale(interp.omega[output])


def _piece_classes(interp: CpwaInterpolant, output: int) -> tuple[np.ndarray, np.ndarray]:
    """The dedup behind ``piece_bank``: the first simplex of every distinct
    piece of one output, ascending, and each simplex's class (its index in
    that list), simplexes in (cell, permutation) order.

    The output's gradients (C, n!, n) are collected from ``_piece_chunks``.
    The key rows are sorted and compared one column at a time, so only a
    few (C * n!,) arrays are held besides, never the whole key.  A column
    is the gradient entry, or the corner value plus w_i * (-eta * cell_i)
    added axis by axis, divided by the value scale, rounded and -0 folded,
    read as uint64 words.  Stable sorts from the last column to the first order
    the rows lexicographically with equal rows in simplex order, and
    adjacent-row comparisons find the classes: two pieces are one when
    their rounded keys agree byte for byte.
    """
    grid, n = interp.grid, interp.n
    C, F = len(interp.cells), len(interp.perms)
    w = np.empty((C, F, n))
    for lo, hi, _, W, _ in interp._piece_chunks():
        w[lo:hi] = W[:, :, output]
    corner = interp.corners[interp._cell_corner, output]            # v_0 of each cell
    scale = value_scale(interp, output)

    def column(i: int) -> np.ndarray:
        if i < n:
            col = w[..., i] / scale
        else:
            col = np.empty((C, F))
            col[...] = corner[:, None]
            for a in range(n):
                col += w[..., a] * (-grid.eta * interp.cells[:, a])[:, None]
            col /= scale
        np.round(col, _DEDUP_DECIMALS, out=col)
        col += 0.0                                                  # folds -0 into +0
        return col.reshape(-1).view(np.uint64)

    order = np.arange(C * F)
    for i in reversed(range(n + 1)):
        order = order[np.argsort(column(i)[order], kind="stable")]
    same = np.ones(C * F - 1, dtype=bool)                           # row k+1 equals row k, sorted
    for i in range(n + 1):
        sorted_col = column(i)[order]
        same &= sorted_col[1:] == sorted_col[:-1]
    new = np.concatenate(([True], ~same))
    starts = order[new]                                             # first simplex per class
    by_first = np.argsort(starts)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    inverse = np.empty_like(order)
    inverse[order] = rank[np.cumsum(new) - 1]
    return starts[by_first], inverse


def piece_bank(interp: CpwaInterpolant, output: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct affine pieces of one output, in first-occurrence order.

    Returns the bank ``W`` (N, n) and ``b`` (N,), taken from each piece's
    first simplex, and the bank index of every simplex's piece (C * n!,),
    simplexes in (cell, permutation) order.  With s the output's
    ``value_scale``, two pieces are the same when ``np.round(key / s, 12)``
    agrees exactly, with -0 folded into +0, for key the gradient w followed
    by the piece's value at the grid anchor.  That value is read off the
    cell's minimal corner x_0, v_0 + w.(anchor - x_0) with anchor - x_0 =
    -eta * cell, summed axis by axis, not through b = v_0 - w.x_0: its
    rounding then follows the domain's extent, not its distance from the
    origin.
    """
    first, inverse = _piece_classes(interp, output)
    F = len(interp.perms)
    W, b = np.empty((first.size, interp.n)), np.empty(first.size)
    for lo, hi, _, w, bias in interp._piece_chunks():
        k = slice(*np.searchsorted(first, (lo * F, hi * F)))      # first is ascending
        cell, perm = np.divmod(first[k] - lo * F, F)
        W[k], b[k] = w[cell, perm, output], bias[cell, perm, output]
    return W, b, inverse


def region_count(interp: CpwaInterpolant) -> list[int]:
    """Number of distinct affine pieces per output (the ``piece_bank`` sizes)."""
    return [len(_piece_classes(interp, j)[0]) for j in range(interp.m)]


@dataclass
class LipschitzReport:
    """Gradient dual-norm audit of all pieces."""

    value: float
    bound: float


def lipschitz_audit(interp: CpwaInterpolant, bound: float | None = None) -> LipschitzReport:
    """Max over pieces of sum_i |w_i|, checked against the bound.

    The default bound is 3 * k_cont of the interpolant; with neither a
    bound nor k_cont there is nothing to check, which raises ``ValueError``.
    Exceeding ``bound * (1 + REL_TOL)`` raises ``BudgetExceeded`` naming
    the first worst simplex and output.  Only the slopes are formed, in the
    cell chunks of ``_vertex_chunks``, and each sum runs in axis order.
    """
    if bound is None:
        if interp.k_cont is None:
            raise ValueError(
                "lipschitz audit needs an interpolant with K_cont or an explicit bound")
        bound = 3.0 * interp.k_cont
    worst, where = -np.inf, None
    for lo, hi, values in interp._vertex_chunks():
        dual = np.abs(interp._slopes(values, interp._steps)).sum(axis=3)   # (c, n!, m)
        k = int(np.argmax(dual))
        if dual.flat[k] > worst:      # the first maximum over all pieces
            c, f, j = np.unravel_index(k, dual.shape)
            worst, where = float(dual.flat[k]), (lo + c, f, j)
    report = LipschitzReport(worst, bound)
    if report.value > bound * (1.0 + REL_TOL):
        c, f, j = where
        raise BudgetExceeded(
            f"piece gradient dual norm {report.value:.6g} exceeds bound {bound:.6g} at cell "
            f"{tuple(int(v) for v in interp.cells[c])}, permutation {interp.perms[f]}, output {j}"
        )
    return report


def continuity_audit(interp: CpwaInterpolant) -> float:
    """Certify continuity exactly: twice the largest vertex residual, in
    units of each output's ``value_scale``.

    Each piece, formed from its corner values by ``_piece_chunks``, is
    evaluated at its own n+1 vertices and compared with the corner values
    there.  Simplexes sharing a face share that face's corners, so at each
    shared vertex their pieces differ by at most twice the largest
    residual, and by linearity so they do on the whole face.
    That relative bound is returned; above ``REL_TOL`` (or NaN) it raises
    ``DiscontinuityDetected`` naming the first worst simplex and output.
    The residuals are taken in the cell chunks of ``_piece_chunks``.
    """
    grid = interp.grid
    scale = [value_scale(interp, j) for j in range(interp.m)]
    worst, where = -np.inf, None
    for lo, hi, values, W, B in interp._piece_chunks():
        world = grid.anchor + grid.eta * (interp.cells[lo:hi, None, None, :] + interp.unit)
        resid = np.einsum("cfmn,cftn->cftm", W, world)                  # (c, n!, n+1, m)
        resid += B[:, :, None, :]
        resid -= values
        np.abs(resid, out=resid)
        resid /= scale
        k = int(np.argmax(resid))
        top = resid.flat[k]
        # the first maximum (or NaN) over the whole table, as one argmax finds it
        if top > worst or (np.isnan(top) and not np.isnan(worst)):
            worst = top
            c, f, _, j = np.unravel_index(k, resid.shape)
            where = (lo + c, f, j)
    bound = 2.0 * float(worst)
    if not bound <= REL_TOL:
        c, f, j = where
        raise DiscontinuityDetected(
            f"vertex residuals bound the face jump by {bound:.3e} scales (> {REL_TOL:.1e}) "
            f"at cell {interp.cells[c].tolist()}, permutation {interp.perms[f]}, output {j}")
    return bound
