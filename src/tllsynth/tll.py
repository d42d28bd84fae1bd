"""Two-level max-min lattice networks compiled from piecewise-affine data.

A scalar network is a bank of N affine functions plus selector sets; its
value is the max over sets of the min over each set's bank members.  The
bank is the deduplicated piece list of the interpolant.  Each simplex first
builds one candidate set: its active piece plus bank functions that
dominate that piece on the simplex, chosen so that for every simplex some
member lies at or below that simplex's active piece (a covering rule).  So
no set exceeds the interpolant anywhere, and the sets are irredundant: in
each, every member but the simplex's own active piece (its pin) is the
only one at or below some simplex's active piece, so none can go without
breaking the covering rule, and no set is absorbed by a subset that holds
its pins.  A set attains on a simplex when it holds the simplex's active
piece and every member dominates there; the network keeps only a greedy
cover of the simplexes by attaining sets (Chvatal's rule), so on every
simplex some kept set attains the interpolant and the lattice is exact.
Every relation is checked at simplex vertices, which settles it exactly
by linearity.  Multi-output networks stack scalar lattices side by side.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cpwa import REL_TOL, CpwaInterpolant, piece_bank, value_scale
from .errors import (
    BoundViolated,
    DimensionMismatch,
    EmptySelector,
    InvariantViolation,
    SchemaError,
)
from .serialize import (
    float_or_none,
    hex_or_none,
    hex_to_float,
    hex_to_vec,
    is_int,
    require_keys,
    rows_to_hex,
    vec_to_hex,
)
from .sizing import controller_size

_ALL_BITS = ~np.uint64(0)
# floats or words held by one chunk's temporaries (256 KiB): the bank values
# and the gathered selector values of TllNetwork.eval_batch, the vertex
# values of _vertex_relations, the cover rows _scalar_lattice keeps for
# _prune and the member rows _attains gathers
_CHUNK_VALUES = 1 << 15


def _bank_values(X: np.ndarray, WT: np.ndarray, bias: np.ndarray,
                 out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Bank values of the rows of ``X`` (k, n) into ``out`` (k, N), in one
    fixed order per element, each step rounded on its own: ``x_0 w_0``,
    then ``+ x_j w_j`` for j = 1 .. n-1, then ``+ b``, then ``+ 0.0``.  So
    a row's values have the same bits in any block of rows and under any
    BLAS, which is never called.  ``WT`` is the (n, N) transposed weights
    and ``term`` a buffer of ``out``'s shape for one product term, an
    ``np.einsum`` outer product (a broadcast multiply's bits, but faster).

    ``bias`` is ``b + 0.0``: it holds no -0, so one add of it gives the
    bits of ``+ b`` then ``+ 0.0``, whose only effect is to turn a -0 sum
    into +0.  No value is then -0, so a min or max never ties -0 against
    +0, where the pick would follow the reduction order."""
    np.einsum("i,j->ij", X[:, 0], WT[0], out=out)
    for j in range(1, WT.shape[0]):
        np.einsum("i,j->ij", X[:, j], WT[j], out=term)
        out += term
    out += bias
    return out


@dataclass
class ScalarLattice:
    """Bank plus selector sets for one output."""

    W: np.ndarray                 # (N, n)
    b: np.ndarray                 # (N,)
    selectors: list[list[int]]

    @property
    def size(self) -> int:
        return int(self.b.shape[0])


def _members(selectors) -> np.ndarray:
    """Every selector member, set after set, as one index array, allocated
    once at its full size."""
    return np.fromiter(itertools.chain.from_iterable(selectors), dtype=np.intp,
                       count=sum(map(len, selectors)))


def _size_buckets(sizes: np.ndarray, members: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Selectors grouped by set size: for each size k, the members of its
    selectors as an (M_k, k) index array, sizes ascending; and for each
    selector, the column of its min when the buckets' minima stand side by
    side in that order."""
    starts = np.cumsum(sizes) - sizes
    groups = [np.flatnonzero(sizes == k) for k in np.flatnonzero(np.bincount(sizes))]
    idxs = [members[starts[g, None] + np.arange(sizes[g[0]])] for g in groups]
    return idxs, np.argsort(np.concatenate(groups))


class TllNetwork:
    """Max-of-mins network over affine banks, one lattice per output.

    Evaluation is total on R^n (affine functions are global); equality with
    the source interpolant is only claimed on the interpolant's hypercube
    union.  ``provenance`` carries the grid spacing, the declared controller
    Lipschitz constant, and the constructive size bound the bank must obey.
    A non-finite bank coefficient raises ``FloatingPointError``.  The
    selector sets are read once, at construction, into the index arrays
    evaluation uses, so mutating an output's ``ScalarLattice`` afterwards is
    not supported.
    """

    def __init__(self, n: int, outputs: list[ScalarLattice], provenance: dict | None = None):
        if n < 1 or not outputs:
            raise InvariantViolation("network needs n >= 1 and at least one output")
        self._buckets = []                   # per output: size buckets into the joint bank
        offset = widest = 0
        for j, out in enumerate(outputs):
            if out.W.shape != (out.b.shape[0], n) or out.b.ndim != 1:
                raise InvariantViolation("bank shapes are inconsistent")
            finite = np.isfinite(out.W).all(axis=1) & np.isfinite(out.b)
            if not finite.all():
                raise FloatingPointError(f"output {j}: bank row {int(np.argmin(finite))} "
                                         "holds a non-finite coefficient")
            if out.size < 1 or not len(out.selectors):
                raise InvariantViolation("bank and selector list must be nonempty")
            sizes = np.fromiter(map(len, out.selectors), dtype=np.intp,
                                count=len(out.selectors))
            if not sizes.all():
                raise EmptySelector("selector set is empty")
            kinds = set(map(type, itertools.chain.from_iterable(out.selectors)))
            if any(issubclass(k, bool) or not issubclass(k, (int, np.integer)) for k in kinds):
                raise InvariantViolation("selector entries must be integers, not floats or bools")
            try:
                members = _members(out.selectors)
            except OverflowError as exc:
                raise InvariantViolation("selector index out of bank range") from exc
            if members.min() < 0 or members.max() >= out.size:
                raise InvariantViolation("selector index out of bank range")
            idxs, column = _size_buckets(sizes, members)
            self._buckets.append(([idx + offset for idx in idxs], column))
            widest = max(widest, max(idx.size for idx in idxs))
            offset += out.size
        # every output's bank side by side, as evaluation reads it
        self._WT = np.ascontiguousarray(np.concatenate([out.W for out in outputs]).T, dtype=float)
        self._bias = np.concatenate([out.b for out in outputs]).astype(float) + 0.0
        self._widest = max(widest, offset)    # bank or gather values per row
        self.n = n
        self.outputs = outputs
        self.provenance = dict(provenance or {})

    @property
    def m(self) -> int:
        return len(self.outputs)

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Values at the rows of ``X`` (P, n), shape (P, m).

        Rows go in chunks whose bank values, every output's side by side,
        and whose gathered values of each selector size fill at most
        ``_CHUNK_VALUES`` floats, so no (P, N) array is formed.  A chunk's
        bank values come from ``_bank_values`` into two buffers allocated
        once per call; then per output, each selector size takes one gather
        and one ``min`` over its (rows, M_k, k) values, and the minima are
        put back in selector order before the ``max``.  So a row's value is
        bitwise that of one ``min`` per selector over its fixed-order bank
        values, whatever the batch it is in, the chunk bound or the BLAS."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise DimensionMismatch(f"network inputs must have shape (P, {self.n}), "
                                    f"got {X.shape}")
        P = X.shape[0]
        res = np.empty((P, self.m))
        step = max(1, _CHUNK_VALUES // self._widest)
        vals = np.empty((min(step, P), self._bias.size))
        term = np.empty(vals.shape)
        for lo in range(0, P, step):
            rows = X[lo:lo + step]
            k = rows.shape[0]
            out = _bank_values(rows, self._WT, self._bias, vals[:k], term[:k])
            for j, (idxs, column) in enumerate(self._buckets):
                mins = np.concatenate([out[:, idx].min(axis=2) for idx in idxs], axis=1)
                res[lo:lo + k, j] = mins[:, column].max(axis=1)
        return res

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.eval_batch(x[None])[0] if x.ndim == 1 else self.eval_batch(x)


def _vertex_relations(interp: CpwaInterpolant, W: np.ndarray, b: np.ndarray,
                      act: np.ndarray, slack: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed relations from one evaluation of the bank at every simplex's
    n+1 vertices.  Function i dominates on simplex s when it is >= the
    active piece of s less ``slack`` there, and lies below when it is <= the
    active piece plus ``slack``; by linearity both are exact on the whole
    simplex.  Returns ``below_rows`` and ``dom_rows`` (N, words of S), row i
    packing the simplexes function i lies below or dominates on, every
    padding bit zero (``_bit_rows``'s layout), and ``below_counts`` (N,),
    the number of simplexes each function lies below on.

    Simplexes go in chunks of a multiple of 8, so that each chunk packs
    into whole byte columns of the rows.  A chunk evaluates into one float
    buffer of at most ``_CHUNK_VALUES`` values, or 8 simplexes, by
    ``_bank_values``, so each vertex value has the bits
    ``TllNetwork.eval_batch`` gives the bank there, and compares into one
    reused bool buffer.  So no (S, N) boolean is ever formed.
    """
    grid, F, n = interp.grid, len(interp.perms), interp.n
    S, N = act.size, b.size
    below_rows, dom_rows = _zero_rows(N, S), _zero_rows(N, S)
    below_bytes, dom_bytes = below_rows.view(np.uint8), dom_rows.view(np.uint8)
    below_counts = np.zeros(N, dtype=np.intp)
    step = max(8, _CHUNK_VALUES // (N * (n + 1)) // 8 * 8)
    WT, bias = np.ascontiguousarray(W.T), b + 0.0
    vals = np.empty((min(step, S), n + 1, N))
    term = np.empty(vals.shape)
    test = np.empty(vals.shape, dtype=bool)
    for lo in range(0, S, step):
        s = np.arange(lo, min(lo + step, S))
        corners = interp.cells[s // F][:, None, :] + interp.unit[s % F]   # (k, n+1, n)
        out, hit = vals[:s.size], test[:s.size]
        _bank_values((grid.anchor + grid.eta * corners.astype(float)).reshape(-1, n), WT, bias,
                     out.reshape(-1, N), term[:s.size].reshape(-1, N))
        own = np.take_along_axis(out, act[s, None, None], axis=2)
        cols = slice(lo // 8, lo // 8 - (-s.size // 8))
        np.less_equal(out, own + slack, out=hit)
        below = hit.all(axis=1)                                           # (k, N)
        below_bytes[:, cols] = np.packbits(below.T, axis=1)
        below_counts += below.sum(axis=0)
        np.greater_equal(out, own - slack, out=hit)
        dom_bytes[:, cols] = np.packbits(hit.all(axis=1).T, axis=1)
    return below_rows, dom_rows, below_counts


def _zero_rows(R: int, K: int) -> np.ndarray:
    """R packed rows of K zero bits, in 64-bit words."""
    return np.zeros((R, -(-K // 64)), dtype=np.uint64)


def _bit_rows(mask: np.ndarray) -> np.ndarray:
    """Rows of a boolean (R, K) matrix packed into 64-bit words, zero-padded:
    ``np.packbits`` order, so bit k of a row is bit 7 - k % 8 of byte k // 8."""
    packed = _zero_rows(*mask.shape)
    packed.view(np.uint8)[:, :-(-mask.shape[1] // 8)] = np.packbits(mask, axis=1)
    return packed


def _row_bits(row: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` bits of one packed row, as booleans."""
    return np.unpackbits(row.view(np.uint8), count=count).view(bool)


def _column_bits(rows: np.ndarray, k: int) -> np.ndarray:
    """Bit ``k`` of every packed row, as booleans: one strided byte gather."""
    return (rows.view(np.uint8)[:, k >> 3] & (0x80 >> (k & 7))).astype(bool)


def _prune(walks: list, before: np.ndarray, act: np.ndarray, rows: np.ndarray,
           full: np.ndarray, sets: list) -> None:
    """Irredundant sets from covering walks, written to ``sets[s]`` sorted.

    Each walk is ``(s, members)``: simplex s and the members its walk kept
    after the pinned active piece ``act[s]``, in walk order; ``before`` holds,
    walk after walk, the walk's cover row just before each member.  All walks
    step in lockstep from their last member back: step r visits every walk's
    r-th member from the end and drops it when its ``before`` row, ORed with
    the later members still kept, covers every simplex.  The pin is never
    visited.  What stays still covers, and dropping any further member would
    leave a simplex uncovered.
    """
    if not walks:
        return
    simplexes = np.array([s for s, _ in walks])
    counts = np.fromiter((m.size for _, m in walks), dtype=np.intp, count=len(walks))
    members = np.concatenate([m for _, m in walks])
    by_count = np.argsort(-counts, kind="stable")     # walks still stepping come first
    last, left = np.cumsum(counts)[by_count] - 1, counts[by_count]
    alive = np.searchsorted(-left, -np.arange(left[0]))   # walks that step r visits
    # the later members' cover, padding bits set so that a full cover is all ones
    later = np.repeat(~full[None], len(walks), axis=0)
    keep = np.empty(members.size, dtype=bool)
    for r, k in enumerate(alive.tolist()):
        at = last[:k] - r
        need = np.bitwise_and.reduce(np.take(before, at, axis=0) | later[:k], axis=1) != _ALL_BITS
        keep[at] = need
        later[:k] |= np.take(rows, members[at], axis=0) * need[:, None]
    # pins and kept members, sorted within each walk by a (walk, member) key
    N = rows.shape[0]
    walk_of = np.repeat(np.arange(len(walks)), counts)
    key = np.concatenate((np.arange(len(walks)) * N + act[simplexes],
                          (walk_of * N + members)[keep]))
    key.sort()
    bounds = np.searchsorted(key, np.arange(len(walks) + 1) * N).tolist()
    flat = key % N
    for s, lo, hi in zip(simplexes.tolist(), bounds, bounds[1:]):
        sets[s] = flat[lo:hi]


def _attains(sets: list, dom_rows: np.ndarray, act: np.ndarray) -> np.ndarray:
    """Packed (M, words) rows, bit k of row t set when set t attains on
    simplex k: it holds k's active piece and every member dominates on k.

    ``dom_rows`` row i packs the simplexes function i dominates on.  A
    set's row is the AND of its members' rows, masked by the OR of their
    active rows (the simplexes whose active piece the set holds); the
    active rows get their bits straight from ``act``, one per simplex.  Sets
    go in chunks whose gathered rows fill ``_CHUNK_VALUES`` words, or one set.
    """
    N, words = dom_rows.shape
    active = _zero_rows(N, act.size)                     # row i: where i is the active piece
    s = np.arange(act.size)
    np.bitwise_or.at(active.view(np.uint8), (act, s >> 3), (0x80 >> (s & 7)).astype(np.uint8))
    sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    members = np.concatenate(sets)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    out = np.empty((len(sets), words), dtype=np.uint64)
    lo = 0
    while lo < len(sets):
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + _CHUNK_VALUES // words, "right")))
        at = members[starts[lo]:ends[hi - 1]]
        offsets = starts[lo:hi] - starts[lo]
        out[lo:hi] = (np.bitwise_and.reduceat(dom_rows[at], offsets)
                      & np.bitwise_or.reduceat(active[at], offsets))
        lo = hi
    return out


@dataclass(slots=True)
class _Gain:
    """A heap entry of ``_cover``: set ``t`` newly attains on ``gain``
    simplexes with ``size`` members.  More gain per member comes first,
    compared by integer cross-products so that ties are exact, and on a tie
    the lower index."""

    gain: int
    size: int
    t: int

    def __lt__(self, other: _Gain) -> bool:
        mine, theirs = self.gain * other.size, other.gain * self.size
        return mine > theirs or (mine == theirs and self.t < other.t)


def _cover(sets: list, dom_rows: np.ndarray, act: np.ndarray) -> list:
    """The sets a greedy cover of the simplexes by attaining sets keeps
    (``_attains``), in their given order.

    Each pick is the set that newly attains on the most simplexes per
    member (Chvatal's greedy set cover), the lowest index on ties.  Gains
    only fall as picks attain simplexes, so a heap of stale gains re-scores
    only its top (Minoux's lazy greedy): a top whose fresh gain equals its
    stale one is the pick.  The rows are Python integers here, so a
    re-score is one AND and one bit count.  Each simplex's own set attains
    on it, so the cover completes.

    A reverse pass then visits the picks from the last one back and drops
    each one the other kept picks make redundant: every simplex it attains
    on is attained by another kept pick.  So every kept set attains on
    some simplex no other kept set attains on.  The pass keeps one count
    per simplex, of the kept picks attaining on it, and unpacks one pick's
    row at a time.
    """
    attains = _attains(sets, dom_rows, act)
    rows = [int.from_bytes(row.tobytes(), "little") for row in attains]
    left = int.from_bytes(_bit_rows(np.ones((1, act.size), dtype=bool)).tobytes(), "little")
    heap = [_Gain(row.bit_count(), len(T), t) for t, (row, T) in enumerate(zip(rows, sets))]
    heapq.heapify(heap)
    picked = []
    while left:
        top = heap[0]
        gain = (rows[top.t] & left).bit_count()
        if gain == top.gain:
            heapq.heappop(heap)
            picked.append(top.t)
            left &= ~rows[top.t]
        else:
            heapq.heapreplace(heap, _Gain(gain, top.size, top.t))
    counts = np.zeros(act.size, dtype=np.intp)     # kept picks attaining on each simplex
    for t in picked:
        counts += _row_bits(attains[t], act.size)
    kept = []
    for t in picked[::-1]:
        hit = _row_bits(attains[t], act.size)
        if counts[hit].min() > 1:
            counts -= hit
        else:
            kept.append(t)
    return [sets[t] for t in sorted(kept)]


def _scalar_lattice(interp: CpwaInterpolant, output: int) -> ScalarLattice:
    """Bank and selector sets of one interpolant output.

    Bank: distinct pieces (``piece_bank``).  Candidate sets: one per simplex
    s, built from its active piece and drawn from the functions that
    dominate it on s (>= at the n+1 vertices less REL_TOL * ``value_scale``,
    rounding noise).  Every candidate holds for every simplex k a member <=
    k's active piece on k (vertex check with the same slack), so its min is
    at or below the interpolant everywhere.  Both relations are held once,
    packed by function (``_vertex_relations``); s's dominating functions
    are bit s of every ``dom`` row.  To build the set, they are walked in
    one global order, functions below on more simplexes first, and a
    member is kept only when it is below on a simplex no earlier member
    covers.
    ``_prune`` then walks the kept members back and drops each one the
    others make redundant, in chunks of walks whose cover rows fill
    ``_CHUNK_VALUES`` words.  The set's own active piece, its pin, always
    stays, so each simplex's set attains on it.  A set whose dominating
    functions cannot cover every simplex keeps all of them, the
    all-dominating set of the Tarela-Martinez lattice, whose min is at or
    below the interpolant pointwise; it is not pruned.

    Pruned sets are also free of lattice absorption with the pins kept (Xu
    et al.'s irredundant form): no covering set T strictly holds another
    covering set S that holds T's pins, for then S would cover without the
    members of T outside S, none of them a pin, and the pruning would have
    dropped them.

    The distinct candidates, in simplex order of first appearance, then go
    to ``_cover``, which keeps a subset that attains on every simplex: on
    each simplex some kept set equals the interpolant and none exceeds it,
    so the max of the kept sets is exact.
    """
    W, b, act = piece_bank(interp, output)
    # row i of rows / dom_rows: the simplexes function i is below / dominates on
    rows, dom_rows, below_counts = _vertex_relations(interp, W, b, act,
                                                     REL_TOL * value_scale(interp, output))
    full = _bit_rows(np.ones((1, act.size), dtype=bool))[0]
    order = np.argsort(-below_counts, kind="stable")

    any_word = np.ones(full.size, dtype=bool)
    sets: list = [None] * act.size     # each simplex's set, sorted
    walks: list = []                   # covering walks not yet pruned
    # their cover rows, walk after walk: _CHUNK_VALUES words, or room for
    # one walk, which keeps fewer members than there are simplexes or functions
    before = np.empty((max(_CHUNK_VALUES // full.size, min(act.size, b.size)), full.size),
                      dtype=np.uint64)
    used = 0
    for s, a in enumerate(act):
        dom = _column_bits(dom_rows, s)
        dom[a] = False                 # the pin leads the walk
        walk = np.concatenate(([a], order[dom[order]]))
        cover = np.bitwise_or.accumulate(np.take(rows, walk, axis=0), axis=0)
        if (cover[-1] != full).any():
            sets[s] = np.sort(walk)
            continue
        # a bool matmul with ones is a row-wise any, twice as fast on narrow rows
        grew = np.flatnonzero((cover[1:] != cover[:-1]) @ any_word)
        if used + grew.size > before.shape[0]:
            _prune(walks, before[:used], act, rows, full, sets)
            walks, used = [], 0
        before[used:used + grew.size] = cover[grew]
        used += grew.size
        walks.append((s, walk[grew + 1]))
    _prune(walks, before[:used], act, rows, full, sets)
    del before, rows
    candidates = list({sel.tobytes(): sel for sel in sets}.values())   # distinct, in order
    del sets
    return ScalarLattice(W, b, [sel.tolist() for sel in _cover(candidates, dom_rows, act)])


def compile_tll(interp: CpwaInterpolant, bound_n: int | None = None) -> TllNetwork:
    """Compile every output into one lattice each, stacked side by side."""
    grid = interp.grid
    lattices = [_scalar_lattice(interp, j) for j in range(interp.m)]
    if bound_n is None:
        bound_n = controller_size(grid.dimension, grid.domain.extent(), grid.eta)
    provenance = {
        "eta": grid.eta,
        "k_cont": interp.k_cont,
        "bound_n": int(bound_n),
    }
    return TllNetwork(grid.dimension, lattices, provenance)


def parallel_compose(nets: list[TllNetwork]) -> TllNetwork:
    """Stack networks over a shared input space into one multi-output net.

    All operands must agree on the input dimension; outputs are concatenated
    in order and each keeps its own bank and selectors, which is the
    blockwise parallel composition of the underlying ReLU realizations.
    """
    if not nets:
        raise DimensionMismatch("nothing to compose")
    n = nets[0].n
    if any(net.n != n for net in nets):
        dims = [net.n for net in nets]
        raise DimensionMismatch(f"input dimensions differ: {dims}")
    outputs = []
    for net in nets:
        outputs.extend(
            ScalarLattice(lat.W.copy(), lat.b.copy(), [list(s) for s in lat.selectors])
            for lat in net.outputs
        )
    provs = [net.provenance for net in nets]
    provenance = provs[0] if all(p == provs[0] for p in provs) else {"composed": provs}
    return TllNetwork(n, outputs, provenance)


# the name of the layer shapes below, in descriptors and expanded exports
SHAPE_CONVENTION = "pairwise-tree-v2"


def _tree_plan(set_sizes) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The pairwise tree of one output: its set order and its ReLU levels,
    each as (group sizes, max flag per group).

    Sets go deepest min tree first (ceil(log2 s) levels for a set of s,
    stable).  A level holds one min group per set still reducing, then one
    max group: the wire of every set whose min is finished (a singleton
    from level 0), then the partial maxes.  The sets that finish on a level
    are the deepest-first order's last min groups, so their wires already
    stand just before the max group's.  The tree ends when no set reduces
    and the max group holds one wire.  A level spends 3 neurons per pair
    and 2 per odd wire of a group.
    """
    sizes = np.asarray(set_sizes, dtype=np.int64)
    order = np.argsort(-np.frexp(sizes - 1)[1], kind="stable")
    sizes, wires, plan = sizes[order], 0, []
    while True:
        live = np.count_nonzero(sizes > 1)
        sizes, wires = sizes[:live], wires + sizes.size - live
        if not live and wires == 1:
            return order, plan
        groups = np.append(sizes, wires) if wires else sizes
        plan.append((groups, np.arange(groups.size) >= live))
        sizes, wires = (sizes + 1) // 2, (wires + 1) // 2


def arch_descriptor(net: TllNetwork, bound_n: int | None = None) -> dict:
    """Report N, M, selector mass (total set size) and layer shapes per
    output; enforce the size bound.

    Layer shapes follow this package's pairwise min/max tree expansion
    (``SHAPE_CONVENTION``: ``_tree_plan``'s levels, where finished set
    minima join the max tree at once; 3 neurons per binary gadget, 2 per
    carried wire) and are implementation defined, not canonical.
    """
    if bound_n is None:
        bound_n = net.provenance.get("bound_n")
    if bound_n is None:
        raise InvariantViolation("no size bound supplied or recorded at compile time")
    per_output = []
    for j, lat in enumerate(net.outputs):
        if lat.size > bound_n:
            raise BoundViolated(
                f"output {j}: bank size {lat.size} exceeds constructive bound {bound_n}"
            )
        widths = [int((3 * (sizes // 2) + 2 * (sizes % 2)).sum())
                  for sizes, _ in _tree_plan([len(s) for s in lat.selectors])[1]]
        dims = [net.n] + widths + [1]
        layers = [[dims[i], dims[i + 1]] for i in range(len(dims) - 1)]
        per_output.append({
            "N": lat.size,
            "M": len(lat.selectors),
            "selector_mass": sum(map(len, lat.selectors)),
            "layers": layers,
            "neurons": int(sum(widths)),
        })
    return {
        "per_output": per_output,
        "bound_n": int(bound_n),
        "shape_convention": SHAPE_CONVENTION,
        "implementation_defined": True,
    }


# -- explicit ReLU expansion -------------------------------------------------


@dataclass
class ReluNetwork:
    """Dense ReLU layers realizing a lattice network exactly.

    ``layers`` maps z -> relu(W z + c) in order, then the affine readout
    produces the outputs.  Produced by ``expand_relu_layers``, one layer per
    level of the outputs' tree plans (``_tree_plan``); only the first layer
    holds bank coefficients, and every later layer and the readout hold
    entries in {-1, 0, 1} and zero biases.  Evaluation matches the lattice
    evaluation to float roundoff.
    """

    layers: list[tuple[np.ndarray, np.ndarray]]
    out_w: np.ndarray
    out_b: np.ndarray

    def __call__(self, x) -> np.ndarray:
        z = np.asarray(x, dtype=float)
        for W, c in self.layers:
            z = np.maximum(z @ W.T + c, 0.0)
        return z @ self.out_w.T + self.out_b

    def shapes(self) -> list[list[int]]:
        dims = [self.layers[0][0].shape[1]] if self.layers else [self.out_w.shape[1]]
        for W, _ in self.layers:
            dims.append(W.shape[0])
        dims.append(self.out_w.shape[0])
        return [[dims[i], dims[i + 1]] for i in range(len(dims) - 1)]


def _tree_level(A: np.ndarray, beta: np.ndarray, sizes: np.ndarray, is_max: np.ndarray):
    """One ReLU layer of the tree over wires ``A z + beta``.

    Wires are grouped consecutively by ``sizes``; group g reduces by max
    where ``is_max[g]``, else by min.  Each pair (a, b) takes the rows a-b
    (min) or b-a (max), a and 0-a; an odd last wire a takes a and 0-a.
    min(a, b) = a - relu(a-b), max(a, b) = a + relu(b-a), and
    a = relu(a) - relu(0-a) give the next wires over the layer output.
    Writing -a as 0 - a keeps zero entries +0.  Returns the layer (W, c)
    and the next wires (A, beta).
    """
    units = (sizes + 1) // 2
    local = np.arange(units.sum()) - np.repeat(np.cumsum(units) - units, units)
    a = np.repeat(np.cumsum(sizes) - sizes, units) + 2 * local
    pair = local < np.repeat(sizes // 2, units)
    up = np.repeat(is_max, units)[pair]
    end = np.cumsum(2 + pair)
    p, q, r = end - 2, end - 1, end[pair] - 3
    lo, hi = a[pair] + up, a[pair] + 1 - up
    W = np.empty((int(end[-1]), A.shape[1]))
    c = np.empty(int(end[-1]))
    W[p], W[q], W[r] = A[a], 0.0 - A[a], A[lo] - A[hi]
    c[p], c[q], c[r] = beta[a], 0.0 - beta[a], beta[lo] - beta[hi]
    k = np.arange(a.size)
    nxt = np.zeros((a.size, W.shape[0]))
    nxt[k, p], nxt[k, q] = 1.0, -1.0
    nxt[k[pair], r] = np.where(up, 1.0, -1.0)
    return (W, c), nxt, np.zeros(a.size)


def expand_relu_layers(net: TllNetwork) -> ReluNetwork:
    """Materialize dense ReLU layers for the whole network.

    Each layer is one level of every output's tree plan at once, over the
    wires of all outputs stacked output after output, each output's set
    members gathered in its plan's set order; an output whose tree is
    finished carries its wire as one max group of size 1.  So the first
    layer reads the shared input, and later layers and the readout come
    out block-diagonal (the parallel composition of the scalar
    realizations).  Intended for inspection and export of small networks;
    sizes grow with sum of selector set sizes.
    """
    trees = [_tree_plan([len(s) for s in lat.selectors]) for lat in net.outputs]
    rows = [_members([lat.selectors[t] for t in order])
            for lat, (order, _) in zip(net.outputs, trees)]
    plans = [plan for _, plan in trees]
    A = np.concatenate([lat.W[i].astype(float) for lat, i in zip(net.outputs, rows)])
    beta = np.concatenate([lat.b[i].astype(float) for lat, i in zip(net.outputs, rows)])
    carry = (np.ones(1, dtype=np.int64), np.ones(1, dtype=bool))
    layers = []
    for k in range(max(map(len, plans))):
        level = [plan[k] if k < len(plan) else carry for plan in plans]
        sizes = np.concatenate([g for g, _ in level])
        is_max = np.concatenate([mx for _, mx in level])
        layer, A, beta = _tree_level(A, beta, sizes, is_max)
        layers.append(layer)
    return ReluNetwork(layers, A, beta)


# -- serialization -----------------------------------------------------------


def export_network(net: TllNetwork) -> dict:
    """JSON-ready form with hex floats; round-trips bitwise."""
    prov = net.provenance
    out = {
        "n": net.n,
        "m": net.m,
        "outputs": [
            {
                "bank": [{"w": w, "b": b}
                         for w, b in zip(rows_to_hex(lat.W), vec_to_hex(lat.b))],
                "selectors": [list(map(int, s)) for s in lat.selectors],
            }
            for lat in net.outputs
        ],
        "provenance": {
            "eta": hex_or_none(prov.get("eta")),
            "K_cont": hex_or_none(prov.get("k_cont")),
            "bound_N": prov.get("bound_n"),
        },
    }
    return out


def import_network(obj: dict) -> TllNetwork:
    """Parse and revalidate an exported network.

    Schema violations raise ``SchemaError``; well-formed JSON that breaks
    internal invariants (indices out of range, empty banks or sets) raises
    through the constructor (``InvariantViolation`` / ``EmptySelector``).
    """
    require_keys(obj, ("n", "m", "outputs", "provenance"), "network")
    n = obj["n"]
    if not is_int(n) or n < 1:
        raise SchemaError("n must be a positive integer")
    if not is_int(obj["m"]):
        raise SchemaError("m must be an integer")
    if not isinstance(obj["outputs"], list) or len(obj["outputs"]) != obj["m"]:
        raise SchemaError("outputs must be a list of length m")
    outputs = []
    for block in obj["outputs"]:
        require_keys(block, ("bank", "selectors"), "network output")
        bank = block["bank"]
        if not isinstance(bank, list) or not bank:
            raise SchemaError("bank must be a nonempty list")
        Ws, bs = [], []
        for entry in bank:
            require_keys(entry, ("w", "b"), "bank entry")
            w = hex_to_vec(entry["w"])
            if w.shape != (n,):
                raise SchemaError(f"bank weight length {w.shape[0]} != n={n}")
            Ws.append(w)
            bs.append(hex_to_float(entry["b"]))
        sels = block["selectors"]
        if not isinstance(sels, list) or any(not isinstance(s, list) for s in sels):
            raise SchemaError("selectors must be a list of index lists")
        if not set(map(type, itertools.chain.from_iterable(sels))) <= {int}:
            raise SchemaError("selector indices must be integers")
        outputs.append(ScalarLattice(np.array(Ws), np.array(bs), [list(s) for s in sels]))
    prov_raw = obj["provenance"]
    require_keys(prov_raw, ("eta", "K_cont", "bound_N"), "provenance")
    bound_n = prov_raw["bound_N"]
    if bound_n is not None and not (is_int(bound_n) and bound_n >= 1):
        raise SchemaError(f"provenance bound_N must be an integer >= 1 or null, got {bound_n!r}")
    eta, k_cont = float_or_none(prov_raw["eta"]), float_or_none(prov_raw["K_cont"])
    if eta is not None and not 0.0 < eta < math.inf:
        raise SchemaError(f"provenance eta must be finite and > 0 or null, got {eta!r}")
    if k_cont is not None and not 0.0 <= k_cont < math.inf:
        raise SchemaError(f"provenance K_cont must be finite and >= 0 or null, got {k_cont!r}")
    return TllNetwork(n, outputs, {"eta": eta, "k_cont": k_cont, "bound_n": bound_n})
