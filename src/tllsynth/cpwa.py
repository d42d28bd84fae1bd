"""Continuous piecewise-affine interpolation over braid-dissected hypercubes.

Controller values are sampled on the grid, hypercube corners outside the
grid receive the minimum over their eta-ball grid neighbors, and each braid
simplex carries the unique affine function interpolating its n+1 corner
values.  The result is a globally continuous piecewise-affine function on
the hypercube union whose pieces, sizes, and Lipschitz data are auditable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    DiscontinuityDetected,
    OracleFailure,
    SingularSystem,
)
from .geometry import (
    EtaGrid,
    SimplexId,
    braid_simplices,
    extra_corners,
    interpolation_hypercubes,
    locate_batch,
    permutation_rank,
    simplex_vertices,
    simplex_world_vertices,
)
from .serialize import float_to_hex, hex_to_float, hex_to_vec, require_keys

_RESIDUAL_RTOL = 1e-9
_DEDUP_DECIMALS = 12


def sample_controller(oracle, grid: EtaGrid, m: int) -> np.ndarray:
    """Evaluate a controller oracle at every grid point.

    Returns the omega value table, one row per output: shape (m, P).
    The oracle is called point by point with a vector of shape (n,) and must
    return m finite reals.  Any raise, wrong arity, or non-finite value is
    reported as ``OracleFailure``.
    """
    if m < 1:
        raise OracleFailure(f"output dimension must be at least 1, got {m}")
    values = np.empty((grid.num_points, m))
    for i, p in enumerate(grid.points):
        try:
            v = np.atleast_1d(np.asarray(oracle(p), dtype=float))
        except Exception as exc:
            raise OracleFailure(f"oracle raised at grid point {p.tolist()}: {exc}") from exc
        if v.shape != (m,):
            raise OracleFailure(
                f"oracle returned shape {v.shape} at {p.tolist()}, expected ({m},)"
            )
        if not np.isfinite(v).all():
            raise OracleFailure(f"oracle returned non-finite values at {p.tolist()}")
        values[i] = v
    return values.T.copy()


def extend_extra_corners(omega: np.ndarray, grid: EtaGrid) -> dict[tuple[int, ...], np.ndarray]:
    """Values for non-grid corners: per-output minimum over the corner's
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
    corners = extra_corners(grid)
    values = mins[tuple((corners + 1).T)]
    return {tuple(c): v for c, v in zip(corners.tolist(), values)}


@dataclass(frozen=True)
class AffinePiece:
    """One affine function w.x + b."""

    w: np.ndarray
    b: float

    def __call__(self, x) -> float | np.ndarray:
        return np.asarray(x, dtype=float) @ self.w + self.b

    @property
    def dual_norm(self) -> float:
        """sum_i |w_i|: the Lipschitz constant under the infinity norm."""
        return float(np.abs(self.w).sum())


def _solve_pieces(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve stacked (n+1)x(n+1) interpolation systems with residual check.

    ``A`` has shape (..., n+1, n+1) (vertex rows with a trailing 1 column),
    ``rhs`` shape (..., n+1, m).  LAPACK's LU with partial pivoting does the
    elimination; solutions are rejected unless the relative residual is
    within 1e-9.
    """
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"degenerate simplex vertex matrix: {exc}") from exc
    resid = np.abs(A @ sol - rhs).max()
    scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
    if not np.isfinite(sol).all() or resid > _RESIDUAL_RTOL * scale:
        raise SingularSystem(
            f"interpolation solve residual {resid:.3e} exceeds {_RESIDUAL_RTOL:.1e} * {scale:.3e}"
        )
    return sol


def affine_piece(simplex: SimplexId, grid: EtaGrid, corner_values) -> AffinePiece:
    """Affine function interpolating the n+1 corner values of one simplex."""
    vals = np.asarray(corner_values, dtype=float)
    n = grid.dimension
    if vals.shape != (n + 1,):
        raise ValueError(f"need {n + 1} corner values, got shape {vals.shape}")
    verts = simplex_world_vertices(simplex, grid)
    A = np.concatenate([verts, np.ones((n + 1, 1))], axis=1)
    sol = _solve_pieces(A, vals[:, None])[:, 0]
    return AffinePiece(sol[:n].copy(), float(sol[n]))


class CpwaInterpolant:
    """Piecewise-affine interpolant of grid samples on the hypercube union.

    Pieces are indexed by (hypercube cell, sorting permutation); evaluation
    locates the simplex and applies its affine function.  ``omega`` has one
    row per output; ``extra_values`` maps non-grid corner offsets to their
    value vectors.  ``min_rule_extras`` records whether those values came
    from the eta-ball minimum rule (the guarantee-carrying construction) or
    were supplied by the caller (e.g. affine-consistent test data).
    """

    def __init__(self, grid: EtaGrid, omega: np.ndarray,
                 extra_values: dict[tuple[int, ...], np.ndarray],
                 k_cont: float | None = None, min_rule_extras: bool = True):
        omega = np.asarray(omega, dtype=float)
        if omega.ndim != 2 or omega.shape[1] != grid.num_points:
            raise ValueError(f"omega must have shape (m, {grid.num_points})")
        if not np.isfinite(omega).all():
            raise OracleFailure("omega holds non-finite values")
        self.grid = grid
        self.omega = omega
        self.extra_values = {tuple(k): np.asarray(v, dtype=float) for k, v in extra_values.items()}
        self.k_cont = None if k_cont is None else float(k_cont)
        self.min_rule_extras = bool(min_rule_extras)
        self.perms = braid_simplices(grid.dimension)
        self._build_pieces()

    # -- construction -----------------------------------------------------

    def _corner_table(self) -> np.ndarray:
        """Values on the full corner lattice (offsets -1..count per axis),
        shape (prod(count_i + 2), m); grid entries from omega, the rest from
        extra_values."""
        n, m = self.grid.dimension, self.omega.shape[0]
        dims = tuple(c + 2 for c in self.grid.axis_counts)
        table = np.full((int(np.prod(dims)), m), np.nan)
        lin_grid = np.ravel_multi_index((self.grid.offsets + 1).T, dims)
        table[lin_grid] = self.omega.T
        for corner, vals in self.extra_values.items():
            if any(o < -1 or o > c for o, c in zip(corner, self.grid.axis_counts)):
                raise ValueError(f"extra corner {corner} outside the corner lattice")
            idx = np.ravel_multi_index(tuple(o + 1 for o in corner), dims)
            if np.asarray(vals).shape != (m,):
                raise ValueError(f"extra corner {corner} needs {m} values")
            table[idx] = vals
        return table

    def _build_pieces(self) -> None:
        grid = self.grid
        n, m = grid.dimension, self.omega.shape[0]
        cells = interpolation_hypercubes(grid)
        self.cells = cells
        self.cell_dims = tuple(c + 1 for c in grid.axis_counts)
        table = self._corner_table()
        corner_dims = tuple(c + 2 for c in grid.axis_counts)
        n_fact = len(self.perms)
        C = cells.shape[0]
        unit = np.stack([simplex_vertices(s) for s in self.perms])        # (n!, n+1, n)
        vert_off = cells[:, None, None, :] + unit[None, :, :, :]         # (C, n!, n+1, n)
        lin = np.ravel_multi_index(tuple((vert_off[..., i] + 1) for i in range(n)), corner_dims)
        rhs = table[lin]                                                  # (C, n!, n+1, m)
        if np.isnan(rhs).any():
            missing = np.argwhere(np.isnan(rhs[..., 0]))[0]
            off = vert_off[tuple(missing)]
            raise ValueError(f"no value for hypercube corner at offset {off.tolist()}")
        world = grid.anchor + grid.eta * vert_off.astype(float)
        A = np.concatenate([world, np.ones((C, n_fact, n + 1, 1))], axis=3)
        sol = _solve_pieces(A.reshape(-1, n + 1, n + 1), rhs.reshape(-1, n + 1, m))
        sol = sol.reshape(C, n_fact, n + 1, m)
        self.W = np.ascontiguousarray(np.swapaxes(sol[:, :, :n, :], 2, 3))  # (C, n!, m, n)
        self.B = np.ascontiguousarray(sol[:, :, n, :])                      # (C, n!, m)

    # -- shape and lookup -------------------------------------------------

    @property
    def n(self) -> int:
        return self.grid.dimension

    @property
    def m(self) -> int:
        return self.omega.shape[0]

    @property
    def num_simplexes(self) -> int:
        return self.cells.shape[0] * len(self.perms)

    def _cell_lin(self, cells: np.ndarray) -> np.ndarray:
        shifted = np.asarray(cells) + 1
        return np.ravel_multi_index(tuple(shifted[..., i] for i in range(self.n)), self.cell_dims)

    # -- evaluation --------------------------------------------------------

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Values at many points, shape (P, m)."""
        X = np.asarray(X, dtype=float)
        cells, ranks, _ = locate_batch(X, self.grid)
        lin = self._cell_lin(cells)
        W = self.W[lin, ranks]                       # (P, m, n)
        B = self.B[lin, ranks]                       # (P, m)
        return np.einsum("pmn,pn->pm", W, X) + B

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.eval_batch(x[None])[0] if x.ndim == 1 else self.eval_batch(x)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "grid": self.grid.to_json(),
            "omega": [[float_to_hex(v) for v in row] for row in self.omega],
            "extra_corners": [
                {"offset": list(k), "values": [float_to_hex(v) for v in vals]}
                for k, vals in sorted(self.extra_values.items())
            ],
            "K_cont": None if self.k_cont is None else float_to_hex(self.k_cont),
            "min_rule_extras": self.min_rule_extras,
        }

    @staticmethod
    def from_json(obj: dict) -> "CpwaInterpolant":
        require_keys(obj, ("grid", "omega", "extra_corners"), "interpolant")
        grid = EtaGrid.from_json(obj["grid"])
        omega = np.array([[hex_to_float(v) for v in row] for row in obj["omega"]])
        extras = {
            tuple(int(i) for i in e["offset"]): hex_to_vec(e["values"])
            for e in obj["extra_corners"]
        }
        k_cont = obj.get("K_cont")
        return CpwaInterpolant(
            grid, omega, extras,
            None if k_cont is None else hex_to_float(k_cont),
            bool(obj.get("min_rule_extras", False)),
        )


def build_interpolant(grid: EtaGrid, omega: np.ndarray, k_cont: float | None = None,
                      extra_values: dict | None = None) -> CpwaInterpolant:
    """Assemble the interpolant for sampled controller values.

    By default non-grid corners get the eta-ball minimum rule, which is the
    construction carrying the approximation guarantee.  Callers may override
    ``extra_values`` (all non-grid corners must then be covered), e.g. to
    feed affine-consistent corner data in tests.
    """
    if extra_values is None:
        extra_values = extend_extra_corners(omega, grid)
        min_rule = True
    else:
        min_rule = False
    return CpwaInterpolant(grid, omega, extra_values, k_cont, min_rule)


def piece_bank(interp: CpwaInterpolant, output: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct affine pieces of one output, in first-occurrence order.

    Returns the bank ``W`` (N, n) and ``b`` (N,), taken from each piece's
    first simplex, and the bank index of every simplex's piece (C * n!,),
    simplexes in (cell, permutation) order.  Two pieces are the same when
    ``np.round(w, 12)`` and Python's correctly rounded ``round(b, 12)``
    agree exactly, with -0 folded into +0.
    """
    w = interp.W[:, :, output].reshape(-1, interp.n)
    b = interp.B[:, :, output].reshape(-1)
    key = np.empty((b.size, interp.n + 1))
    key[:, :-1] = np.round(w, _DEDUP_DECIMALS)
    key[:, -1] = [round(v, _DEDUP_DECIMALS) for v in b.tolist()]
    key += 0.0  # fold -0.0 into +0.0, so equal keys have equal bytes
    rows = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    keep = first[order]
    return w[keep], b[keep], rank[inverse]


def region_count(interp: CpwaInterpolant) -> list[int]:
    """Number of distinct affine pieces per output (the ``piece_bank`` sizes)."""
    return [len(piece_bank(interp, j)[1]) for j in range(interp.m)]


@dataclass
class LipschitzReport:
    """Gradient dual-norm audit of all pieces."""

    per_output: list[float]
    value: float
    bound: float | None
    worst: SimplexId
    worst_output: int

    def to_json(self) -> dict:
        return {
            "per_output": [float_to_hex(v) for v in self.per_output],
            "value": float_to_hex(self.value),
            "bound": None if self.bound is None else float_to_hex(self.bound),
            "worst_cell": list(self.worst.cell),
            "worst_sigma": list(self.worst.sigma),
            "worst_output": self.worst_output,
        }


def lipschitz_audit(interp: CpwaInterpolant, bound: float | None = None,
                    slack: float = 1e-9) -> LipschitzReport:
    """Max over pieces of sum_i |w_i| per output, checked against the bound.

    The default bound is 3 * k_cont when the interpolant declares k_cont.
    Exceeding the bound beyond ``slack`` raises ``BudgetExceeded`` naming
    the offending simplex.
    """
    if bound is None and interp.k_cont is not None:
        bound = 3.0 * interp.k_cont
    dual = np.abs(interp.W).sum(axis=3)          # (C, n!, m)
    per_output = dual.max(axis=(0, 1))
    flat = int(np.argmax(dual))
    c, f, j = np.unravel_index(flat, dual.shape)
    worst = SimplexId(tuple(int(v) for v in interp.cells[c]), interp.perms[f])
    report = LipschitzReport([float(v) for v in per_output], float(dual.max()),
                             bound, worst, int(j))
    if bound is not None and report.value > bound + slack:
        raise BudgetExceeded(
            f"piece gradient dual norm {report.value:.6g} exceeds bound {bound:.6g} "
            f"at cell {worst.cell}, permutation {worst.sigma}, output {j}"
        )
    return report


def continuity_audit(interp: CpwaInterpolant, samples_per_face: int = 4,
                     tol: float = 1e-9, seed: int = 0) -> float:
    """Sample shared faces and compare the adjacent pieces directly.

    Within a cube, simplexes adjacent by one transposition of the sorting
    permutation share the tie hyperplane; across cubes, neighbors share the
    axis face.  The max observed jump is returned; a jump above ``tol``
    raises ``DiscontinuityDetected``.
    """
    rng = np.random.default_rng(seed)
    grid = interp.grid
    n = grid.dimension
    perms = interp.perms
    max_jump = 0.0
    worst = None

    def jump_at(lin_a, rank_a, lin_b, rank_b, x):
        nonlocal max_jump, worst
        va = interp.W[lin_a, rank_a] @ x + interp.B[lin_a, rank_a]
        vb = interp.W[lin_b, rank_b] @ x + interp.B[lin_b, rank_b]
        j = float(np.abs(va - vb).max())
        if j > max_jump:
            max_jump, worst = j, x.copy()

    cells = interp.cells
    # tie hyperplanes inside each cube
    if n >= 2:
        for ci in range(cells.shape[0]):
            lin = int(interp._cell_lin(cells[ci]))
            base = grid.anchor + grid.eta * cells[ci]
            for ra, sigma in enumerate(perms):
                for pos in range(n - 1):
                    swapped = list(sigma)
                    swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
                    rb = permutation_rank(tuple(swapped))
                    if rb < ra:
                        continue
                    for _ in range(samples_per_face):
                        vals = np.sort(rng.random(n))
                        vals[pos + 1] = vals[pos]
                        t = np.empty(n)
                        t[list(sigma)] = vals
                        jump_at(lin, ra, lin, rb, base + grid.eta * t)
    # shared faces between adjacent cubes
    for axis in range(n):
        for ci in range(cells.shape[0]):
            cell = cells[ci]
            if cell[axis] + 1 > grid.axis_counts[axis] - 1:
                continue
            nb = cell.copy()
            nb[axis] += 1
            lin_a, lin_b = int(interp._cell_lin(cell)), int(interp._cell_lin(nb))
            for _ in range(samples_per_face):
                t = rng.random(n)
                t[axis] = 1.0
                x = grid.anchor + grid.eta * (cell + t)
                ta, tb = t, t.copy()
                tb[axis] = 0.0
                ra = permutation_rank(tuple(int(i) for i in np.argsort(ta, kind="stable")))
                rb = permutation_rank(tuple(int(i) for i in np.argsort(tb, kind="stable")))
                jump_at(lin_a, ra, lin_b, rb, x)
    if max_jump > tol:
        raise DiscontinuityDetected(
            f"pieces disagree by {max_jump:.3e} (> {tol:.1e}) near {worst.tolist()}"
        )
    return max_jump
