"""Two-level max-min lattice networks compiled from piecewise-affine data.

A scalar network is a bank of N affine functions plus selector sets; its
value is the max over sets of the min over each set's bank members.  The
bank is the deduplicated piece list of the interpolant; each distinct active
piece contributes one selector set holding every bank function that
dominates it on the closure of its active region (checked at simplex
vertices, which settles dominance exactly by linearity).  Multi-output
networks stack scalar lattices side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpwa import CpwaInterpolant, piece_bank
from .errors import (
    BoundViolated,
    DimensionMismatch,
    EmptySelector,
    InvariantViolation,
    SchemaError,
)
from .geometry import simplex_vertices
from .serialize import float_to_hex, hex_to_float, hex_to_vec, require_keys
from .sizing import controller_size

_DOMINANCE_TOL = 1e-9


@dataclass
class ScalarLattice:
    """Bank plus selector sets for one output."""

    W: np.ndarray                 # (N, n)
    b: np.ndarray                 # (N,)
    selectors: list[list[int]]

    @property
    def size(self) -> int:
        return int(self.b.shape[0])


class TllNetwork:
    """Max-of-mins network over affine banks, one lattice per output.

    Evaluation is total on R^n (affine functions are global); equality with
    the source interpolant is only claimed on the interpolant's hypercube
    union.  ``provenance`` carries the grid spacing, the declared controller
    Lipschitz constant, and the constructive size bound the bank must obey.
    """

    def __init__(self, n: int, outputs: list[ScalarLattice], provenance: dict | None = None):
        if n < 1 or not outputs:
            raise InvariantViolation("network needs n >= 1 and at least one output")
        for out in outputs:
            if out.W.shape != (out.b.shape[0], n) or out.b.ndim != 1:
                raise InvariantViolation("bank shapes are inconsistent")
            if out.size < 1 or not out.selectors:
                raise InvariantViolation("bank and selector list must be nonempty")
            for sel in out.selectors:
                if len(sel) == 0:
                    raise EmptySelector("selector set is empty")
                if any(not (0 <= i < out.size) for i in sel):
                    raise InvariantViolation("selector index out of bank range")
        self.n = n
        self.outputs = outputs
        self.provenance = dict(provenance or {})
        # identical selector sets produce identical terms; evaluate each once
        self._unique_sets = [
            sorted({tuple(sorted(set(sel))) for sel in out.selectors})
            for out in outputs
        ]

    @property
    def m(self) -> int:
        return len(self.outputs)

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        res = np.empty((X.shape[0], self.m))
        for j, lat in enumerate(self.outputs):
            vals = X @ lat.W.T + lat.b
            terms = np.stack(
                [vals[:, list(sel)].min(axis=1) for sel in self._unique_sets[j]], axis=1
            )
            res[:, j] = terms.max(axis=1)
        return res

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.eval_batch(x[None])[0] if x.ndim == 1 else self.eval_batch(x)

    def max_dual_norm(self) -> float:
        """Largest bank gradient dual norm: a global Lipschitz constant of
        the network under the infinity norm."""
        return max(float(np.abs(lat.W).sum(axis=1).max()) for lat in self.outputs)


def compile_scalar_tll(interp: CpwaInterpolant, output: int = 0,
                       bound_n: int | None = None) -> TllNetwork:
    """Compile one interpolant output into a scalar max-min lattice.

    Bank: distinct pieces (``piece_bank``).  Selector sets: one per simplex,
    holding every bank function that is >= the simplex's active piece at its
    n+1 vertices, with a 1e-9 slack absorbing solve noise (inclusion errs
    toward the max, which is sound).  The active piece always belongs to its
    own set, so sets are nonempty; duplicate sets are stored once.
    """
    if not (0 <= output < interp.m):
        raise InvariantViolation(f"output {output} out of range for m={interp.m}")
    grid = interp.grid
    n = grid.dimension
    C, F = interp.W.shape[0], interp.W.shape[1]
    W, b, act = piece_bank(interp, output)
    act = act.reshape(C, F)
    if not np.isfinite(W).all() or not np.isfinite(b).all():
        raise EmptySelector("bank holds non-finite coefficients")
    N = W.shape[0]

    # one selector set per simplex: bank functions dominating the simplex's
    # active piece at its n+1 vertices (exact for affine functions on the
    # simplex).  Simplexes are convex, which is what makes the max-of-mins
    # representation exact; identical sets collapse to a single entry.
    unit = [simplex_vertices(s) for s in interp.perms]
    selectors: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()
    for c in range(C):
        cell = interp.cells[c]
        for f in range(F):
            verts = grid.anchor + grid.eta * (cell + unit[f]).astype(float)
            vals = W @ verts.T + b[:, None]       # (N, n+1)
            i = act[c, f]
            dominated = (vals >= vals[i] - _DOMINANCE_TOL).all(axis=1)
            dominated[i] = True
            sel = tuple(int(k) for k in np.flatnonzero(dominated))
            if not sel:
                raise EmptySelector(
                    f"simplex at cell {tuple(int(v) for v in cell)} produced an empty selector set"
                )
            if sel not in seen:
                seen.add(sel)
                selectors.append(list(sel))

    if bound_n is None:
        bound_n = controller_size(n, grid.domain.extent(), grid.eta)
    provenance = {
        "eta": grid.eta,
        "k_cont": interp.k_cont,
        "bound_n": int(bound_n),
    }
    return TllNetwork(n, [ScalarLattice(W, b, selectors)], provenance)


def compile_tll(interp: CpwaInterpolant, bound_n: int | None = None) -> TllNetwork:
    """Compile every output and stack them side by side."""
    nets = [compile_scalar_tll(interp, j, bound_n) for j in range(interp.m)]
    return parallel_compose(nets)


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


@dataclass
class ArchDescriptor:
    """Sizes and ReLU layer shapes of a compiled network.

    Layer shapes follow this package's pairwise min/max tree expansion
    (``shape_convention = "pairwise-tree-v1"``: 3 neurons per binary gadget,
    2 per carried wire) and are implementation defined, not canonical.
    """

    per_output: list[dict]
    bound_n: int
    shape_convention: str = "pairwise-tree-v1"
    implementation_defined: bool = True

    def to_json(self) -> dict:
        return {
            "per_output": self.per_output,
            "bound_n": self.bound_n,
            "shape_convention": self.shape_convention,
            "implementation_defined": self.implementation_defined,
        }


def _schedule_widths(set_sizes: list[int]) -> list[int]:
    """ReLU layer widths of the pairwise tree for one output.

    Min stage: every selector set reduces pairwise (3 neurons per pair, 2
    per carried wire) until each holds one wire; max stage reduces the
    per-set wires the same way.  Returns the width list, possibly empty.
    """
    widths = []
    sizes = list(set_sizes)
    while any(s > 1 for s in sizes):
        width = 0
        nxt = []
        for s in sizes:
            if s == 1:
                width += 2
                nxt.append(1)
            else:
                pairs, odd = divmod(s, 2)
                width += 3 * pairs + 2 * odd
                nxt.append(pairs + odd)
        widths.append(width)
        sizes = nxt
    m = len(sizes)
    while m > 1:
        pairs, odd = divmod(m, 2)
        widths.append(3 * pairs + 2 * odd)
        m = pairs + odd
    return widths


def arch_descriptor(net: TllNetwork, bound_n: int | None = None) -> ArchDescriptor:
    """Report N, M, and layer shapes per output; enforce the size bound."""
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
        widths = _schedule_widths([len(s) for s in lat.selectors])
        dims = [net.n] + widths + [1]
        layers = [[dims[i], dims[i + 1]] for i in range(len(dims) - 1)]
        per_output.append({
            "N": lat.size,
            "M": len(lat.selectors),
            "layers": layers,
            "neurons": int(sum(widths)),
        })
    return ArchDescriptor(per_output, int(bound_n))


# -- explicit ReLU expansion -------------------------------------------------


@dataclass
class ReluNetwork:
    """Dense ReLU layers realizing a lattice network exactly.

    ``layers`` maps z -> relu(W z + c) in order, then the affine readout
    produces the outputs.  Produced by ``expand_relu_layers``; evaluation
    matches the lattice evaluation to float roundoff.
    """

    layers: list[tuple[np.ndarray, np.ndarray]]
    out_w: np.ndarray
    out_b: np.ndarray

    def eval(self, x) -> np.ndarray:
        z = np.asarray(x, dtype=float)
        for W, c in self.layers:
            z = np.maximum(z @ W.T + c, 0.0)
        return z @ self.out_w.T + self.out_b

    def __call__(self, x):
        return self.eval(x)

    def shapes(self) -> list[list[int]]:
        dims = [self.layers[0][0].shape[1]] if self.layers else [self.out_w.shape[1]]
        for W, _ in self.layers:
            dims.append(W.shape[0])
        dims.append(self.out_w.shape[0])
        return [[dims[i], dims[i + 1]] for i in range(len(dims) - 1)]


class _WireBuilder:
    """Tracks wires as affine functionals of the current layer output."""

    def __init__(self, width: int):
        self.width = width          # current layer output size
        self.rows: list[np.ndarray] = []
        self.biases: list[float] = []

    def neuron(self, vec: np.ndarray, bias: float) -> int:
        self.rows.append(vec)
        self.biases.append(bias)
        return len(self.rows) - 1

    def layer(self) -> tuple[np.ndarray, np.ndarray]:
        W = np.array(self.rows)
        c = np.array(self.biases)
        return W, c


def _expand_scalar(lat: ScalarLattice, n: int, pad_to: int | None = None):
    """Layers plus readout functional for one output; optionally pad depth."""
    # wires: (vec over current z, bias); start over z = x
    groups: list[list[tuple[np.ndarray, float]]] = [
        [(lat.W[i].astype(float), float(lat.b[i])) for i in sel] for sel in lat.selectors
    ]
    layers: list[tuple[np.ndarray, np.ndarray]] = []
    width = n

    def reduce_level(groups, mode):
        # min(a,b) = a - relu(a-b); max(a,b) = a + relu(b-a)
        nonlocal width
        builder = _WireBuilder(width)
        new_groups = []
        for g in groups:
            new_g = []
            k = 0
            while k + 1 < len(g):
                (wa, ba), (wb, bb) = g[k], g[k + 1]
                if mode == "min":
                    r = builder.neuron(wa - wb, ba - bb)
                else:
                    r = builder.neuron(wb - wa, bb - ba)
                p = builder.neuron(wa, ba)
                q = builder.neuron(-wa, -ba)
                new_g.append(("pair", p, q, r))
                k += 2
            if k < len(g):
                wa, ba = g[k]
                p = builder.neuron(wa, ba)
                q = builder.neuron(-wa, -ba)
                new_g.append(("carry", p, q, None))
            new_groups.append(new_g)
        W, c = builder.layer()
        layers.append((W, c))
        width = W.shape[0]
        resolved = []
        for g in new_groups:
            rg = []
            for kind, p, q, r in g:
                vec = np.zeros(width)
                vec[p] = 1.0
                vec[q] = -1.0
                if kind == "pair":
                    vec[r] = -1.0 if mode == "min" else 1.0
                rg.append((vec, 0.0))
            resolved.append(rg)
        return resolved

    while any(len(g) > 1 for g in groups):
        groups = reduce_level(groups, "min")
    wires = [g[0] for g in groups]
    while len(wires) > 1:
        groups = reduce_level([wires], "max")
        wires = groups[0]
    out_vec, out_bias = wires[0]
    depth = len(layers)
    if pad_to is not None:
        while depth < pad_to:
            builder = _WireBuilder(width)
            p = builder.neuron(out_vec, out_bias)
            q = builder.neuron(-out_vec, -out_bias)
            W, c = builder.layer()
            layers.append((W, c))
            width = W.shape[0]
            out_vec = np.zeros(width)
            out_vec[p], out_vec[q] = 1.0, -1.0
            out_bias = 0.0
            depth += 1
    return layers, out_vec, out_bias


def expand_relu_layers(net: TllNetwork) -> ReluNetwork:
    """Materialize dense ReLU layers for the whole network.

    Scalar outputs are expanded independently, padded to a common depth with
    identity-carry layers, and stacked block-diagonally (the parallel
    composition of the scalar realizations).  Intended for inspection and
    export of small networks; sizes grow with sum of selector set sizes.
    """
    per_out = []
    for lat in net.outputs:
        sizes = [len(s) for s in lat.selectors]
        depth = len(_schedule_widths(sizes))
        per_out.append(depth)
    depth = max(per_out)
    expanded = [_expand_scalar(lat, net.n, pad_to=depth) for lat in net.outputs]
    if depth == 0:
        out_w = np.array([vec for _, vec, _ in expanded])
        out_b = np.array([bias for _, _, bias in expanded])
        return ReluNetwork([], out_w, out_b)
    layers: list[tuple[np.ndarray, np.ndarray]] = []
    for level in range(depth):
        blocks = [exp[0][level] for exp in expanded]
        in_dims = [W.shape[1] for W, _ in blocks]
        out_dims = [W.shape[0] for W, _ in blocks]
        if level == 0:
            W = np.concatenate([Wb for Wb, _ in blocks], axis=0)
        else:
            W = np.zeros((sum(out_dims), sum(in_dims)))
            r0, c0 = 0, 0
            for (Wb, _), ro, co in zip(blocks, out_dims, in_dims):
                W[r0:r0 + ro, c0:c0 + co] = Wb
                r0 += ro
                c0 += co
        c = np.concatenate([cb for _, cb in blocks])
        layers.append((W, c))
    last_dims = [exp[0][-1][0].shape[0] for exp in expanded]
    total = sum(last_dims)
    out_w = np.zeros((net.m, total))
    out_b = np.empty(net.m)
    col = 0
    for j, (lyrs, vec, bias) in enumerate(expanded):
        out_w[j, col:col + last_dims[j]] = vec
        out_b[j] = bias
        col += last_dims[j]
    return ReluNetwork(layers, out_w, out_b)


# -- serialization -----------------------------------------------------------


def export_network(net: TllNetwork) -> dict:
    """JSON-ready form with hex floats; round-trips bitwise."""
    prov = net.provenance
    out = {
        "n": net.n,
        "m": net.m,
        "outputs": [
            {
                "bank": [
                    {"w": [float_to_hex(v) for v in lat.W[i]], "b": float_to_hex(lat.b[i])}
                    for i in range(lat.size)
                ],
                "selectors": [list(map(int, s)) for s in lat.selectors],
            }
            for lat in net.outputs
        ],
        "provenance": {
            "eta": _hex_or_none(prov.get("eta")),
            "K_cont": _hex_or_none(prov.get("k_cont")),
            "bound_N": prov.get("bound_n"),
        },
    }
    return out


def _hex_or_none(v):
    return None if v is None else float_to_hex(v)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def import_network(obj: dict) -> TllNetwork:
    """Parse and revalidate an exported network.

    Schema violations raise ``SchemaError``; well-formed JSON that breaks
    internal invariants (indices out of range, empty banks or sets) raises
    through the constructor (``InvariantViolation`` / ``EmptySelector``).
    """
    require_keys(obj, ("n", "m", "outputs", "provenance"), "network")
    n = obj["n"]
    if not _is_int(n) or n < 1:
        raise SchemaError("n must be a positive integer")
    if not _is_int(obj["m"]):
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
        for s in sels:
            if any(not isinstance(i, int) for i in s):
                raise SchemaError("selector indices must be integers")
        outputs.append(ScalarLattice(np.array(Ws), np.array(bs), [list(s) for s in sels]))
    prov_raw = obj["provenance"]
    require_keys(prov_raw, ("eta", "K_cont", "bound_N"), "provenance")
    if prov_raw["bound_N"] is not None and not _is_int(prov_raw["bound_N"]):
        raise SchemaError("provenance bound_N must be an integer or null")
    prov = {
        "eta": None if prov_raw["eta"] is None else hex_to_float(prov_raw["eta"]),
        "k_cont": None if prov_raw["K_cont"] is None else hex_to_float(prov_raw["K_cont"]),
        "bound_n": prov_raw["bound_N"],
    }
    return TllNetwork(n, outputs, prov)
