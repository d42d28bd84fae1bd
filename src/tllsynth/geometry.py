"""Rectangular lattices, interpolation hypercubes, and braid-sorted simplexes.

The domain is an axis-aligned box.  A grid of spacing eta is placed so that
closed eta-balls (infinity norm) around the grid points cover the box while
every point stays inside it.  Around each grid point, sign vectors span the
interpolation hypercubes of edge length eta; each hypercube is dissected into
n! simplexes by the hyperplanes x_i = x_j of its normalized coordinates, one
simplex per sorting permutation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, NonPositiveEta, OutsideDomain, SchemaError
from .serialize import float_to_hex, hex_to_float, hex_to_vec, is_int, require_keys, vec_to_hex

#: factorial growth guard: n! hypercube dissections above this are refused
DEFAULT_DIMENSION_CAP = 6

#: how far, in lattice units, ``locate_batch`` accepts a point past the
#: hypercube union's outer faces as float dust
LOCATE_SLACK = 1e-9


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by lower and upper corner vectors.

    Parameters
    ----------
    lower, upper : array_like, shape (n,)
        Corner vectors with ``lower[i] < upper[i]`` for every axis.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lower and upper must be 1-D vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box corners must be finite")
        if not (lo < hi).all():
            raise ValueError("box must satisfy lower < upper on every axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def extent(self) -> float:
        """Largest side length (the quantity the size formulas consume)."""
        return float(np.max(self.widths))

    def product(self, other: "Box") -> "Box":
        """Cartesian product box (state box times input box)."""
        return Box(
            np.concatenate([self.lower, other.lower]),
            np.concatenate([self.upper, other.upper]),
        )

    def to_json(self) -> dict:
        return {
            "lower": vec_to_hex(self.lower),
            "upper": vec_to_hex(self.upper),
        }

    @staticmethod
    def from_json(obj: dict) -> "Box":
        require_keys(obj, ("lower", "upper"), "box")
        return Box(hex_to_vec(obj["lower"]), hex_to_vec(obj["upper"]))


def _lattice(dims: tuple[int, ...]) -> np.ndarray:
    """Integer vectors with ``0 <= v[i] < dims[i]`` in lexicographic order,
    shape (prod(dims), n)."""
    return np.indices(dims, dtype=np.int64).reshape(len(dims), -1).T.copy()


class EtaGrid:
    """Rectangular lattice of spacing ``eta`` covering a box domain.

    Points are a real anchor plus eta times integer offset vectors
    (``point = anchor + eta * offset``), so lattice relations stay exact:
    any two points differ by integer multiples of eta per coordinate.
    Closed eta-balls around the points cover the domain and all points lie
    inside it.  Offsets run from 0 to ``axis_counts[i] - 1`` per axis.
    """

    def __init__(self, eta: float, anchor: np.ndarray, axis_counts: tuple[int, ...], domain: Box):
        if not (eta > 0.0 and math.isfinite(eta)):
            raise NonPositiveEta(f"eta must be positive and finite, got {eta}")
        anchor = np.asarray(anchor, dtype=float)
        if anchor.shape != (domain.dimension,):
            raise ValueError("anchor dimension does not match domain")
        if not np.isfinite(anchor).all():
            raise ValueError(f"grid anchor must be finite, got {anchor.tolist()}")
        if len(axis_counts) != domain.dimension or any(c < 1 for c in axis_counts):
            raise ValueError("axis_counts must hold a positive count per axis")
        self.eta = float(eta)
        self.anchor = anchor
        self.axis_counts = tuple(int(c) for c in axis_counts)
        self.domain = domain
        self.validate()
        self._points = self.anchor + self.eta * _lattice(self.axis_counts)

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def num_points(self) -> int:
        return self._points.shape[0]

    @property
    def points(self) -> np.ndarray:
        """Real coordinates, shape (num_points, n)."""
        return self._points

    def validate(self) -> None:
        """Check the covering and containment invariants exactly per axis.

        The product structure reduces covering to per-axis interval covering:
        first point within eta of the lower edge, last within eta of the
        upper edge, consecutive gaps at most 2*eta.
        """
        lo, hi = self.domain.lower, self.domain.upper
        for i, count in enumerate(self.axis_counts):
            first = self.anchor[i]
            last = self.anchor[i] + self.eta * (count - 1)
            if first < lo[i] or last > hi[i]:
                raise ValueError(f"grid points leave the domain on axis {i}")
            if first - self.eta > lo[i] or last + self.eta < hi[i]:
                raise ValueError(f"closed eta-balls fail to cover axis {i}")
            # spacing is exactly eta, below the 2*eta gap limit

    def to_json(self) -> dict:
        return {
            "eta": float_to_hex(self.eta),
            "anchor": vec_to_hex(self.anchor),
            "axis_counts": list(self.axis_counts),
            "domain": self.domain.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "EtaGrid":
        require_keys(obj, ("eta", "anchor", "axis_counts", "domain"), "grid")
        domain = Box.from_json(obj["domain"])
        counts = obj["axis_counts"]
        if not isinstance(counts, list) or not all(map(is_int, counts)):
            raise SchemaError("grid axis_counts must be a list of integers")
        return EtaGrid(hex_to_float(obj["eta"]), hex_to_vec(obj["anchor"]), tuple(counts), domain)


def build_eta_grid(domain: Box, eta: float) -> EtaGrid:
    """Construct the covering lattice of spacing ``eta`` for a box domain.

    Per axis the point count is the smallest that still covers,
    ``max(1, ceil(width/eta - 1/2))``, and the run of points is centered in
    the interval.  Containment and covering then hold with slack at least
    eta/4, which keeps the exact validation robust in floating point.
    """
    if not (isinstance(eta, (int, float)) and math.isfinite(eta) and eta > 0.0):
        raise NonPositiveEta(f"eta must be positive and finite, got {eta!r}")
    counts = []
    anchor = np.empty(domain.dimension)
    for i in range(domain.dimension):
        width = float(domain.widths[i])
        count = max(1, math.ceil(width / eta - 0.5))
        center = 0.5 * (domain.lower[i] + domain.upper[i])
        anchor[i] = center - 0.5 * eta * (count - 1)
        counts.append(count)
    return EtaGrid(eta, anchor, tuple(counts), domain)


def interpolation_hypercubes(grid: EtaGrid) -> np.ndarray:
    """Minimal corners of all interpolation hypercubes, shape (C, n).

    Every (grid point, sign vector) pair spans a cube of edge eta; for a
    full box lattice the distinct minimal corners are exactly the offsets
    -1 .. count-1 per axis, so C = prod(count_i + 1).  Rows are sorted
    lexicographically.
    """
    return _lattice(tuple(c + 1 for c in grid.axis_counts)) - 1


def extra_corners(grid: EtaGrid) -> np.ndarray:
    """Offsets of the hypercube corners that are not grid points, shape (E, n).

    Corners run over -1 .. count per axis; the extra ones have some
    coordinate at -1 or count.  Each lies within one step of a grid point,
    since every axis holds at least one point.  Rows are sorted
    lexicographically.
    """
    counts = np.asarray(grid.axis_counts)
    corners = _lattice(tuple(c + 2 for c in grid.axis_counts)) - 1
    return corners[((corners < 0) | (corners >= counts)).any(axis=1)]


def braid_simplices(n: int) -> list[tuple[int, ...]]:
    """Sorting permutations indexing the n! braid simplexes of the unit cube.

    Returned in lexicographic order; entry sigma describes the region where
    coordinate sigma[0] is smallest and sigma[n-1] largest.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if n > DEFAULT_DIMENSION_CAP:
        raise DimensionTooLarge(
            f"braid dissection in dimension {n} exceeds cap {DEFAULT_DIMENSION_CAP}")
    return list(itertools.permutations(range(n)))


def simplex_vertices(sigma: tuple[int, ...]) -> np.ndarray:
    """Vertices of the braid simplex for sorting permutation ``sigma``.

    Returns an integer array of shape (n+1, n): vertex t sets the t largest
    coordinates (sigma[n-t:], in sorting order) to one, so vertex 0 is the
    cube origin and vertex n the all-ones corner.  All vertices are corners
    of the unit cube, walking one coordinate at a time.
    """
    n = len(sigma)
    verts = np.zeros((n + 1, n), dtype=np.int64)
    for t in range(1, n + 1):
        verts[t] = verts[t - 1]
        verts[t, sigma[n - t]] = 1
    return verts


def braid_face_dissection(n: int, axis: int, side: int) -> set[frozenset[tuple[int, ...]]]:
    """Restriction of the braid dissection to one cube face, axis dropped.

    Collects, for every simplex, the vertices lying on the face
    ``x[axis] == side`` and keeps the full (n-1)-dimensional restrictions
    (n vertices).  Coordinates are projected by deleting ``axis``, which is
    the single-coordinate translation matching of opposing faces: the sets
    for side 0 and side 1 must be equal.
    """
    out: set[frozenset[tuple[int, ...]]] = set()
    for sigma in braid_simplices(n):
        verts = simplex_vertices(sigma)
        on_face = verts[verts[:, axis] == side]
        if on_face.shape[0] == n:
            projected = np.delete(on_face, axis, axis=1)
            out.add(frozenset(tuple(int(v) for v in row) for row in projected))
    return out


def permutation_rank_batch(sigmas: np.ndarray) -> np.ndarray:
    """Lexicographic ranks for an array of permutations, shape (P, n)."""
    P, n = sigmas.shape
    ranks = np.zeros(P, dtype=np.int64)
    for j in range(n - 1):
        smaller_later = np.zeros(P, dtype=np.int64)
        for k in range(j + 1, n):
            smaller_later += sigmas[:, k] < sigmas[:, j]
        ranks += smaller_later * math.factorial(n - 1 - j)
    return ranks


def locate_batch(X: np.ndarray, grid: EtaGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized location of many points.

    Returns (cells, perm_ranks, t): integer cells (P, n), lexicographic
    permutation ranks (P,), and normalized coordinates (P, n).  Points on a
    shared face go to the cell with the smaller minimal corner (exact
    integer lattice coordinates step down), clamped into the union; ranks
    come from the ascending stable argsort, so ties break by ascending
    index.  ``LOCATE_SLACK`` (in lattice units) absorbs float dust at the
    outer boundary; beyond it, or with a NaN coordinate, the point is
    outside the union.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != grid.dimension:
        raise OutsideDomain("batch must have shape (P, n)")
    c = (X - grid.anchor) / grid.eta
    counts = np.asarray(grid.axis_counts)
    lo, hi = -1.0 - LOCATE_SLACK, counts + LOCATE_SLACK
    inside = (c >= lo) & (c <= hi)
    if not inside.all():
        bad = np.flatnonzero(~inside.all(axis=1))
        raise OutsideDomain(f"{bad.size} points leave the hypercube union (first: {X[bad[0]].tolist()})")
    cells = np.floor(c).astype(np.int64)
    cells[c == cells] -= 1  # face points take the lower cell
    np.clip(cells, -1, counts - 1, out=cells)
    t = c - cells
    sigmas = np.argsort(t, axis=1, kind="stable")
    return cells, permutation_rank_batch(sigmas), t
