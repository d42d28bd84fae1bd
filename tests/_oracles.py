"""Independently coded reference computations used by the test suite.

Everything here is deliberately written against the *definitions* rather
than the library's algorithms: simulation relations are found by checking
every subset of candidate pairs, sizes are recomputed with exact rational
arithmetic, and synthetic Lipschitz functions are built as explicit
max-of-min combinations of affine pieces whose gradients are controlled
by construction.  The linear-scan embedding interns states one list entry
at a time, the set-based perturbation widens one transition at a time, the
pair-loop fixpoint refines one pair at a time, and the pairwise tree
expansion below builds ReLU layers one neuron at a time, as the library
once did; they are the references for the library's array-based
interning, perturbation, simulation checks and array-built layers.  The
per-simplex LU solve is the reference for the closed-form interpolation
pieces to a tolerance, and that closed form over whole-table arrays is
their bitwise reference and the continuity and Lipschitz audits'.  The
per-simplex dominating sets and a set-based covering walk with pruning
are the references for the compiled selector sets, a
rescan-every-round greedy with a set-based reverse pass is the reference
for the cover that keeps only the attaining sets, and the lattice is
evaluated one selector set at a time as the reference for the
size-bucketed evaluation.  Two helpers compile one output alone and bound
the network's Lipschitz constant, and a few small ones list a grid's
offsets, locate a simplex's vertices, sweep the sampling period and list
a transition system's successors.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# exact-arithmetic sizing
# ---------------------------------------------------------------------------

def exact_controller_size(n: int, ext: float, eta: float) -> int:
    """n! * ceil(ext/eta + 2)^n with the ceiling taken in exact rationals.

    Both ext and eta are converted to their exact binary values, so the
    result matches IEEE evaluation whenever the float quotient rounds the
    same way the rational one does.
    """
    ratio = Fraction(ext) / Fraction(eta) + 2
    per_axis = -((-ratio.numerator) // ratio.denominator)  # ceil
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    return fact * per_axis ** n


def exact_sysid_size(n: int, m: int, ext_xu: float, eta: float) -> int:
    return exact_controller_size(n + m, ext_xu, eta)


def expected_mu(delta, k_x, k_u, k_cont, tau, c) -> float:
    return delta / (k_u * tau * math.exp((k_x + c * k_u * k_cont) * tau))


def sweep_tau(budget, taus):
    """``mu_max`` across sampling periods: (best_tau, best_mu, table) with
    table the (tau, mu) pairs in the given order."""
    from tllsynth import SpecBudget, mu_max

    table = [(float(tau), mu_max(SpecBudget(budget.k_x, budget.k_u, budget.k_cont,
                                            float(tau), budget.delta,
                                            budget.exponent_multiplier)))
             for tau in taus]
    best_tau, best_mu = max(table, key=lambda p: p[1])
    return best_tau, best_mu, table


# ---------------------------------------------------------------------------
# located simplexes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplexId:
    """A braid simplex inside one hypercube: ``cell`` is the hypercube's
    minimal corner offset and ``sigma`` the ascending sorting permutation,
    the simplex {t in [0,1]^n : t[sigma[0]] <= ... <= t[sigma[n-1]]}."""

    cell: tuple
    sigma: tuple


def simplex_world_vertices(simplex, grid):
    """Real-coordinate vertices of a located simplex, shape (n+1, n)."""
    from tllsynth import simplex_vertices

    cell = np.asarray(simplex.cell, dtype=float)
    return grid.anchor + grid.eta * (cell + simplex_vertices(simplex.sigma))


# ---------------------------------------------------------------------------
# brute-force greatest simulation (every subset of candidate pairs)
# ---------------------------------------------------------------------------

def brute_force_greatest(num_a, trans_a, num_b, trans_b, seed_pairs,
                         label_free=False):
    """Union of all transfer-closed subsets of ``seed_pairs``.

    trans_a / trans_b are iterables of (src, label, dst).  A subset R is
    closed when for every (x, y) in R and every move (x, u, x') of the left
    system there is a response (y, v, y') with (x', y') in R, where v == u
    unless label_free.  The union of closed subsets is itself closed and is
    therefore the greatest simulation inside the seed set.  Checks all
    2^len(seed_pairs) subsets with vectorized bit tests; intended for tiny
    systems only.
    """
    pairs = sorted(seed_pairs)
    K = len(pairs)
    if K == 0:
        return set()
    if K > 20:
        raise ValueError("brute force limited to 20 candidate pairs")
    index = {p: i for i, p in enumerate(pairs)}

    moves_a = {}
    for (src, lab, dst) in trans_a:
        moves_a.setdefault(src, []).append((lab, dst))
    succ_b = {}
    for (src, lab, dst) in trans_b:
        succ_b.setdefault(src, []).append((lab, dst))

    # requirement masks: for pair i and each left move, the set of pairs
    # (as a bitmask) that would discharge it.
    requirements = []
    for (x, y) in pairs:
        reqs = []
        for (u, x2) in moves_a.get(x, []):
            mask = 0
            for (v, y2) in succ_b.get(y, []):
                if not label_free and v != u:
                    continue
                j = index.get((x2, y2))
                if j is not None:
                    mask |= 1 << j
            reqs.append(mask)
        requirements.append(reqs)

    masks = np.arange(1 << K, dtype=np.uint64)
    bad = np.zeros(1 << K, dtype=bool)
    one = np.uint64(1)
    for i, reqs in enumerate(requirements):
        sel = ((masks >> np.uint64(i)) & one) == one
        for r in reqs:
            bad |= sel & ((masks & np.uint64(r)) == 0)
    closed = masks[~bad]
    union = int(np.bitwise_or.reduce(closed)) if closed.size else 0
    return {pairs[i] for i in range(K) if (union >> i) & 1}


def successors(ts, state, label=None):
    """Sorted (label, target) pairs of the transitions leaving ``state``,
    only those with ``label`` when it is given."""
    return sorted((u, t) for (s, u, t) in ts.transitions
                  if s == state and (label is None or u == label))


def brute_force_simulation(ts_a, ts_b, max_pair_distance=None):
    """Greatest label-matched simulation between two FiniteTransitionSystems."""
    seeds = set()
    for x in range(ts_a.num_states):
        for y in range(ts_b.num_states):
            if max_pair_distance is not None:
                d = np.max(np.abs(ts_a.coords[x] - ts_b.coords[y]))
                if d > max_pair_distance:
                    continue
            seeds.add((x, y))
    rel = brute_force_greatest(ts_a.num_states, ts_a.transitions,
                               ts_b.num_states, ts_b.transitions, seeds)
    total = all(any(p[0] == x for p in rel) for x in range(ts_a.num_states))
    return rel, total


def brute_force_ads(ts_a, ts_b, delta, perturbed_a):
    """Greatest delta-approximate relation, left system already perturbed."""
    seeds = set()
    for x in range(ts_a.num_states):
        for y in range(ts_b.num_states):
            d = np.max(np.abs(ts_a.coords[x] - ts_b.coords[y]))
            if d <= delta:
                seeds.add((x, y))
    rel = brute_force_greatest(perturbed_a.num_states, perturbed_a.transitions,
                               ts_b.num_states, ts_b.transitions, seeds,
                               label_free=True)
    total = all(any(p[0] == x for p in rel) for x in range(ts_a.num_states))
    return rel, total


def linear_scan_embed(model, controller, samples, tau, step=None, snap_tol=1e-9,
                      extra_states=None):
    """tau-sampled embedding that interns states by scanning a Python list
    one state at a time, as the library once did; the reference for the
    library's array-based interning."""
    from tllsynth import FiniteTransitionSystem
    from tllsynth.dynamics.integrate import rk4_closed_loop
    from tllsynth.dynamics.transition import _segment_label

    if step is None:
        step = tau / 100.0
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    state_list = []

    def intern(x):
        for i, s in enumerate(state_list):
            if np.abs(s - x).max() <= snap_tol:
                return i
        state_list.append(np.asarray(x, dtype=float).copy())
        return len(state_list) - 1

    sources = [intern(x) for x in samples]
    if extra_states is not None:
        for x in np.atleast_2d(np.asarray(extra_states, dtype=float)):
            intern(x)
    origins = np.array([state_list[i] for i in sources])
    _, states, controls = rk4_closed_loop(model, controller, origins, tau, step)
    # the controls at the endpoints, asked in one batch, close every segment
    controls = np.concatenate([controls, np.asarray(controller(states[-1]), dtype=float)[None]])
    transitions = set()
    for col, src in enumerate(sources):
        label = _segment_label(controls[:, col, :])
        transitions.add((src, label, intern(states[-1, col])))
    return FiniteTransitionSystem(np.array(state_list), transitions)


def random_transition_system(rng, max_states=4, max_labels=3, dim=2, span=3.0,
                             min_states=1, density=0.3):
    """Random system with coordinates, for fixpoint cross-checks: each
    (src, label, dst) is a transition with probability ``density``."""
    from tllsynth import FiniteTransitionSystem

    k = int(rng.integers(min_states, max_states + 1))
    labels = ["a", "b", "c"][: int(rng.integers(1, max_labels + 1))]
    coords = rng.uniform(0.0, span, size=(k, dim))
    transitions = set()
    for src in range(k):
        for lab in labels:
            for dst in range(k):
                if rng.random() < density:
                    transitions.add((src, lab, dst))
    return FiniteTransitionSystem(coords=coords, transitions=transitions)


def _near(coords, x, tol):
    """Indices of the rows of ``coords`` within ``tol`` of ``x`` (infinity
    norm), in row order."""
    return np.flatnonzero(np.abs(coords - x).max(axis=1) <= tol)


def set_seed_pairs(ts_a, ts_b, tol):
    """Left-right state pairs within ``tol`` of each other (infinity norm)."""
    return {
        (x, y)
        for x in range(ts_a.num_states)
        for y in _near(ts_b.coords, ts_a.coords[x], tol).tolist()
    }


def near_scan_perturb(ts, delta):
    """Delta-perturbed system built one transition at a time, as the library
    once did; the reference for its chunked ball rows."""
    from tllsynth import FiniteTransitionSystem

    new = set(ts.transitions)
    for (s, u, t) in ts.transitions:
        new.update((s, u, t2) for t2 in _near(ts.coords, ts.coords[t], delta).tolist())
    return FiniteTransitionSystem(ts.coords.copy(), new)


def pair_loop_greatest(trans_a, num_a, trans_b, num_b, seed_pairs, label_free):
    """Greatest fixpoint of the transfer condition inside ``seed_pairs``:
    (x, y) survives while every left move from x has a right response from y
    (same label unless ``label_free``) into a surviving pair.  One Python
    pass over the pairs per round, as the library once did; the reference
    for its array rounds at sizes the subset enumeration cannot reach."""
    succ_a = {i: [] for i in range(num_a)}
    for (s, u, t) in trans_a:
        succ_a[s].append((u, t))
    succ_b = {}
    if label_free:
        for (s, _, t) in trans_b:
            succ_b.setdefault(s, set()).add(t)
    else:
        for (s, u, t) in trans_b:
            succ_b.setdefault((s, u), set()).add(t)
    rel = set(seed_pairs)
    changed = True
    while changed:
        changed = False
        for (x, y) in list(rel):
            ok = True
            for (u, x2) in succ_a[x]:
                resp = succ_b.get(y if label_free else (y, u), ())
                if not any((x2, y2) in rel for y2 in resp):
                    ok = False
                    break
            if not ok:
                rel.discard((x, y))
                changed = True
    return rel


# ---------------------------------------------------------------------------
# synthetic Lipschitz controllers (max of mins of affine functions)
# ---------------------------------------------------------------------------

class MaxMinAffine:
    """max over groups of min over affine functions, per output.

    Every affine gradient has 1-norm at most ``k_cont``, so each output is
    globally Lipschitz with constant k_cont in the infinity norm.  Evaluates
    vectorized over leading axes.
    """

    def __init__(self, rng, n, m, k_cont, groups=(1, 3), members=(1, 3),
                 bias_scale=1.0):
        self.n = n
        self.m = m
        self.k_cont = k_cont
        self.outputs = []
        for _ in range(m):
            grps = []
            for _ in range(int(rng.integers(groups[0], groups[1] + 1))):
                pieces = []
                for _ in range(int(rng.integers(members[0], members[1] + 1))):
                    w = rng.uniform(-1.0, 1.0, size=n)
                    norm1 = np.sum(np.abs(w))
                    if norm1 > 0:
                        w *= rng.uniform(0.2, 1.0) * k_cont / norm1
                    b = rng.uniform(-bias_scale, bias_scale)
                    pieces.append((w, float(b)))
                grps.append(pieces)
            self.outputs.append(grps)

    def __call__(self, X):
        X = np.asarray(X, dtype=float)
        squeeze = X.ndim == 1
        pts = np.atleast_2d(X)
        cols = []
        for grps in self.outputs:
            group_vals = []
            for pieces in grps:
                vals = np.stack([pts @ w + b for (w, b) in pieces], axis=0)
                group_vals.append(vals.min(axis=0))
            cols.append(np.stack(group_vals, axis=0).max(axis=0))
        out = np.stack(cols, axis=-1)
        return out[0] if squeeze else out


# ---------------------------------------------------------------------------
# per-corner min rule and dict-keyed piece dedup
# ---------------------------------------------------------------------------

def grid_offsets(grid):
    """Integer offset vectors of the grid points, 0 .. count-1 per axis in
    lexicographic order, shape (num_points, n)."""
    return np.array(list(itertools.product(*map(range, grid.axis_counts))))


def brute_force_extra_values(omega, grid):
    """Min-rule values at the non-grid corners, one corner at a time.

    Corners run over offsets -1 .. count per axis in lexicographic order.
    A corner's neighbors are the grid points whose offsets differ from it
    by at most one per coordinate (its closed eta-ball); its value is the
    per-output minimum over them, taken in grid order.
    """
    offsets = grid_offsets(grid)
    counts = np.asarray(grid.axis_counts)
    out = {}
    for corner in itertools.product(*(range(-1, c + 1) for c in grid.axis_counts)):
        c = np.asarray(corner)
        if ((c >= 0) & (c < counts)).all():
            continue
        near = np.flatnonzero((np.abs(offsets - c) <= 1).all(axis=1))
        out[corner] = omega[:, near].min(axis=1)
    return out


def nearest_power_of_two(x):
    """The power of two nearest to ``x`` >= 0, found by doubling and halving
    (a tie at 1.5 * 2^k goes up); 1.0 for zero."""
    if x == 0.0:
        return 1.0
    s = 1.0
    while 2.0 * s <= x:
        s *= 2.0
    while s > x:
        s /= 2.0
    return 2.0 * s if x - s >= 2.0 * s - x else s


def dict_piece_bank(interp, output, pieces=None):
    """Bank dedup with a dict keyed on rounded, scale-relative coefficients.

    With s the power of two nearest to max|omega| of the output, the key is
    ``np.round(k / s, 12)`` with -0 folded to +0, for k a piece's gradient w
    followed by its value at the grid anchor: the sample v at its cell's
    minimal corner (offset = cell) plus w_i * (-eta * cell_i), added axis by
    axis.  Samples are looked up by corner offset in omega and extra_values.
    Simplexes are visited cell by cell, permutation by permutation, and each
    new key appends its first piece to the bank.  The pieces (W, B) are
    ``closed_form_pieces``' unless given.
    """
    from tllsynth.geometry import extra_corners

    grid = interp.grid
    s = nearest_power_of_two(float(np.abs(interp.omega[output]).max()))
    sample = dict(zip(map(tuple, grid_offsets(grid).tolist()), interp.omega[output]))
    sample.update(zip(map(tuple, extra_corners(grid).tolist()), interp.extra_values[output]))

    def key(w, cell):
        at_anchor = sample[tuple(cell)]
        for wi, ci in zip(w, cell):
            at_anchor += wi * (-grid.eta * ci)
        k = np.round(np.append(w, at_anchor) / s, 12)
        k += 0.0
        return tuple(k.tolist())

    W, B = closed_form_pieces(interp)[:2] if pieces is None else pieces
    index, bank_w, bank_b, active = {}, [], [], []
    C, F = W.shape[:2]
    for c in range(C):
        for f in range(F):
            k = key(W[c, f, output], interp.cells[c].tolist())
            if k not in index:
                index[k] = len(bank_w)
                bank_w.append(W[c, f, output].copy())
                bank_b.append(float(B[c, f, output]))
            active.append(index[k])
    return np.array(bank_w), np.array(bank_b), np.array(active, dtype=np.int64)


# ---------------------------------------------------------------------------
# all-dominating selector sets and the below-on-simplex relation
# ---------------------------------------------------------------------------

def simplex_relations(interp, output):
    """Per-simplex dominance and below sets of one output, one simplex at a time.

    The bank is ``piece_bank``'s.  For each simplex, in (cell, permutation)
    order, every bank function is evaluated at the simplex's n+1 vertices;
    it dominates when it is >= the active piece less REL_TOL * value scale
    at every vertex, and lies below when it is <= the active piece plus the
    same slack at every vertex.  Returns the bank (W, b), each simplex's
    active bank index, its dominating set and its below set, the sets as
    sorted tuples.  The dominating sets are the selector sets the library
    once compiled (before deduplication).
    """
    from tllsynth.cpwa import REL_TOL, piece_bank, value_scale

    grid = interp.grid
    C, F = len(interp.cells), len(interp.perms)
    W, b, act = piece_bank(interp, output)
    slack = REL_TOL * value_scale(interp, output)
    dominating, below = [], []
    for c in range(C):
        for f in range(F):
            verts = grid.anchor + grid.eta * (interp.cells[c] + interp.unit[f]).astype(float)
            vals = W @ verts.T + b[:, None]       # (N, n+1)
            i = act[c * F + f]
            dom = (vals >= vals[i] - slack).all(axis=1)
            dom[i] = True
            dominating.append(tuple(np.flatnonzero(dom).tolist()))
            below.append(tuple(np.flatnonzero((vals <= vals[i] + slack).all(axis=1)).tolist()))
    return W, b, act, dominating, below


def all_dominating_selectors(interp, output):
    """The all-dominating selector list: each simplex's dominating set, the
    first occurrence of each distinct set kept, in simplex order."""
    _, _, _, dominating, _ = simplex_relations(interp, output)
    return [list(s) for s in dict.fromkeys(dominating)]


def irredundant_selectors(interp, output):
    """The compiled selector list, rebuilt one simplex at a time with sets.

    Bank functions are ranked by how many simplexes they are below on, most
    first, ties by index.  Each simplex walks its active piece (its pin) and
    then its other dominating functions in rank order, keeping a function
    when it is below on a simplex no earlier one covers.  A walk that cannot
    cover every simplex keeps its whole dominating set.  A covering walk is
    pruned from its last kept function back: one goes when the cover before
    it, with the later functions still kept, covers every simplex; the pin
    stays.  Equal sets are kept once, in simplex order, each with the pins
    of every simplex that produced it.  Last, smallest first, a covering set
    goes when a kept covering set that is a proper subset of it holds all
    of its pins.  Returns the kept sets, as sorted tuples in simplex order,
    each mapped to its pins and whether it covers.
    """
    _, b, act, dominating, below = simplex_relations(interp, output)
    below_on = [set() for _ in range(b.size)]
    for k, functions in enumerate(below):
        for i in functions:
            below_on[i].add(k)
    rank = {i: r for r, i in enumerate(sorted(range(b.size), key=lambda i: -len(below_on[i])))}
    everything = set(range(len(act)))
    covers, pins = {}, {}
    for s, a in enumerate(act.tolist()):
        walk = [a] + sorted((i for i in dominating[s] if i != a), key=rank.get)
        kept, befores, cover = [a], [], set(below_on[a])
        for i in walk[1:]:
            if not below_on[i] <= cover:
                kept.append(i)
                befores.append(set(cover))
                cover |= below_on[i]
        if cover != everything:
            sel = tuple(sorted(walk))
        else:
            later, sel = set(), {a}
            for i, before in zip(reversed(kept[1:]), reversed(befores)):
                if before | later != everything:
                    sel.add(i)
                    later |= below_on[i]
            sel = tuple(sorted(sel))
        covers.setdefault(sel, cover == everything)
        pins.setdefault(sel, set()).add(a)
    kept = []
    for T in sorted(covers, key=len):
        if not (covers[T] and any(covers[S] and set(S) < set(T) and pins[T] <= set(S)
                                  for S in kept)):
            kept.append(T)
    return {T: (pins[T], covers[T]) for T in covers if T in kept}


def attaining_simplexes(interp, output, sets):
    """For each set, the simplexes it attains on: those whose active piece
    it holds and whose dominating set holds all of it."""
    _, _, act, dominating, _ = simplex_relations(interp, output)
    return [{k for k, a in enumerate(act.tolist()) if a in T and set(T) <= set(dominating[k])}
            for T in sets]


def covered_selectors(interp, output):
    """The compiled selector list: a greedy cover of the simplexes by the
    sets of ``irredundant_selectors``, rescanning every set each round.

    Each round picks the set that attains on the most simplexes no pick
    attains yet, per member, comparing gain_t * |T_u| with gain_u * |T_t|
    over integers; the earliest set wins a tie.  Rounds go on until every
    simplex is attained.  Then the picks are visited from the last one back,
    and a pick is dropped when every simplex it attains on is attained by
    another pick still kept.  Returns the kept sets as lists, in the order
    of ``irredundant_selectors``.
    """
    sets = list(irredundant_selectors(interp, output))
    attains = attaining_simplexes(interp, output, sets)
    left = set(range(interp.num_simplexes))
    picked = []
    while left:
        best, best_gain = 0, len(attains[0] & left)
        for t, T in enumerate(sets):
            gain = len(attains[t] & left)
            if gain * len(sets[best]) > best_gain * len(T):
                best, best_gain = t, gain
        if best_gain == 0:
            raise ValueError(f"no set attains on simplexes {sorted(left)}")
        picked.append(best)
        left -= attains[best]
    for t in reversed(picked[:]):
        others = [attains[u] for u in picked if u != t]
        if attains[t] <= set().union(*others):
            picked.remove(t)
    return [list(sets[t]) for t in sorted(picked)]


def compile_scalar_tll(interp, output=0):
    """One interpolant output compiled alone: ``compile_tll``'s lattice for
    that output, with the network's provenance."""
    from tllsynth import InvariantViolation, TllNetwork, compile_tll

    if not 0 <= output < interp.m:
        raise InvariantViolation(f"output {output} out of range for m={interp.m}")
    net = compile_tll(interp)
    return TllNetwork(net.n, [net.outputs[output]], net.provenance)


def max_dual_norm(net):
    """Largest bank gradient dual norm: a global Lipschitz constant of the
    network under the infinity norm."""
    return max(float(np.abs(lat.W).sum(axis=1).max()) for lat in net.outputs)


# ---------------------------------------------------------------------------
# permutation ranks and the linear-solve interpolation pieces
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _perm_table(n):
    return {p: i for i, p in enumerate(itertools.permutations(range(n)))}


def permutation_rank(sigma):
    """Lexicographic rank of a permutation among all of its length."""
    return _perm_table(len(sigma))[tuple(sigma)]


def lu_pieces(interp):
    """Interpolation pieces by one LU solve per simplex, as the library once
    built them: rows [x_t, 1] @ [w; b] = v_t over the n+1 vertices.

    Cells run over offsets -1 .. count-1 per axis in lexicographic order,
    permutations in lexicographic order; vertex t of permutation sigma sets
    coordinates sigma[n-t:] of the cell's unit cube to one.  Corner values
    come from ``interp.omega`` and ``interp.extra_values``, whose columns
    are the non-grid corners (offsets -1 .. count per axis) in lexicographic
    order.  Returns W (C, n!, m, n) and B (C, n!, m).
    """
    grid = interp.grid
    n = grid.dimension
    value = {tuple(o): interp.omega[:, i] for i, o in enumerate(grid_offsets(grid).tolist())}
    corners = itertools.product(*(range(-1, c + 1) for c in grid.axis_counts))
    value.update(zip([c for c in corners if c not in value], interp.extra_values.T))
    A, rhs = [], []
    for cell in itertools.product(*(range(-1, c) for c in grid.axis_counts)):
        for sigma in itertools.permutations(range(n)):
            corner = list(cell)
            verts = [tuple(corner)]
            for t in range(1, n + 1):
                corner[sigma[n - t]] += 1
                verts.append(tuple(corner))
            x = grid.anchor + grid.eta * np.array(verts, dtype=float)
            A.append(np.concatenate([x, np.ones((n + 1, 1))], axis=1))
            rhs.append([value[v] for v in verts])
    sol = np.linalg.solve(np.array(A), np.array(rhs))        # (C * n!, n+1, m)
    shape = (-1, math.factorial(n)) + sol.shape[1:]
    sol = sol.reshape(shape)
    return np.swapaxes(sol[:, :, :n, :], 2, 3), sol[:, :, n, :]


def closed_form_pieces(interp):
    """Kuhn-simplex pieces from whole-table arrays, as the library once built
    them: every simplex's (n+1) corner values gathered at once, slopes
    ``np.diff / eta`` put on their axes by ``take_along_axis``, and
    ``b = v_0 - einsum(W, x_0)``.  The bitwise reference for the library's
    chunked build.  Returns W (C, n!, m, n), B (C, n!, m) and the vertex
    values (C, n!, n+1, m)."""
    grid = interp.grid
    dims = tuple(c + 2 for c in grid.axis_counts)
    lin = (np.ravel_multi_index((interp.cells + 1).T, dims)[:, None, None]
           + np.ravel_multi_index(tuple(np.moveaxis(interp.unit, -1, 0)), dims))
    values = interp.corners[lin]                                    # (C, n!, n+1, m)
    step = np.argmax(np.diff(interp.unit, axis=1), axis=1)          # (n!, n)
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = np.diff(values, axis=2) / grid.eta
        W = np.take_along_axis(slopes, step[None, :, :, None], axis=2)
        W = np.ascontiguousarray(np.swapaxes(W, 2, 3))
        x0 = grid.anchor + grid.eta * interp.cells
        B = values[:, :, 0, :] - np.einsum("cfmn,cn->cfm", W, x0)
    return W, B, values


def whole_table_continuity(interp, pieces=None):
    """Twice the largest vertex residual over the whole piece table at once,
    with the first worst (cell index, permutation index, output), as the
    library once computed it; the bitwise reference for the chunked audit.
    The pieces (W, B) are ``closed_form_pieces``' unless given."""
    from tllsynth.cpwa import value_scale

    grid = interp.grid
    W, B, values = closed_form_pieces(interp)
    if pieces is not None:
        W, B = pieces
    world = grid.anchor + grid.eta * (interp.cells[:, None, None, :] + interp.unit)
    fitted = np.einsum("cfmn,cftn->cftm", W, world) + B[:, :, None, :]
    scale = [value_scale(interp, j) for j in range(interp.m)]
    resid = np.abs(fitted - values) / scale
    c, f, _, j = np.unravel_index(np.argmax(resid), resid.shape)
    return 2.0 * float(resid.max()), (int(c), int(f), int(j))


# ---------------------------------------------------------------------------
# neuron-by-neuron pairwise tree expansion of a lattice
# ---------------------------------------------------------------------------

def _gadget_width(wires):
    """Neurons of one group's level: 3 per pair, 2 per odd wire."""
    pairs, odd = divmod(wires, 2)
    return 3 * pairs + 2 * odd


def schedule_widths_v1(set_sizes):
    """ReLU layer widths of the first pairwise tree, min stage then max
    stage: every selector set reduces pairwise, a finished set carrying its
    wire at 2 neurons per level, until each holds one wire; only then does
    the max stage reduce the per-set wires.  Kept as the bound the
    early-merge tree must meet level by level."""
    widths = []
    sizes = list(set_sizes)
    while any(s > 1 for s in sizes):
        widths.append(sum(_gadget_width(s) for s in sizes))
        sizes = [(s + 1) // 2 for s in sizes]
    m = len(sizes)
    while m > 1:
        widths.append(_gadget_width(m))
        m = (m + 1) // 2
    return widths


def tree_order(set_sizes):
    """Set indices, deepest min tree first (ceil(log2 s) halvings for a
    set of s), ties in index order."""
    return sorted(range(len(set_sizes)), key=lambda t: -(set_sizes[t] - 1).bit_length())


def schedule_widths(set_sizes):
    """ReLU layer widths of the early-merge pairwise tree, level by level.

    Each level reduces every set of more than one wire by min, and one max
    pool: the sets finished so far (one wire each, singletons from the
    start) and the partial maxes.  The tree ends when no set reduces and
    the pool holds one wire.
    """
    widths = []
    sizes = [set_sizes[t] for t in tree_order(set_sizes)]
    pool = 0
    while True:
        pool += sum(1 for s in sizes if s == 1)
        sizes = [s for s in sizes if s > 1]
        if not sizes and pool == 1:
            return widths
        widths.append(sum(_gadget_width(s) for s in sizes) + _gadget_width(pool))
        sizes = [(s + 1) // 2 for s in sizes]
        pool = (pool + 1) // 2


class _WireBuilder:
    """Collects one layer's neurons as rows over the previous layer."""

    def __init__(self):
        self.rows, self.biases = [], []

    def neuron(self, vec, bias):
        self.rows.append(vec)
        self.biases.append(bias)
        return len(self.rows) - 1

    def layer(self):
        return np.array(self.rows), np.array(self.biases)


def expand_scalar(W, b, selectors, n, pad_to=None):
    """Layers plus readout (vector, bias) for one output, one neuron at a time.

    Wires are (vector over the current layer, bias) pairs; min(a, b) is
    a - relu(a - b) and max(a, b) is a + relu(b - a), with a carried through
    as relu(a) - relu(-a).  Sets go in ``tree_order``.  Each level first
    moves every set left with one wire, in set order, to the front of the
    max pool, then reduces the other sets by min, one after another, and
    the pool by max, in one layer.  Depth padding carries the output wire.
    """
    groups = [[(W[i].astype(float), float(b[i])) for i in selectors[t]]
              for t in tree_order([len(s) for s in selectors])]
    layers = []

    def reduce_level(groups, modes):
        builder = _WireBuilder()
        new_groups = []
        for g, mode in zip(groups, modes):
            new_g = []
            k = 0
            while k + 1 < len(g):
                (wa, ba), (wb, bb) = g[k], g[k + 1]
                if mode == "min":
                    r = builder.neuron(wa - wb, ba - bb)
                else:
                    r = builder.neuron(wb - wa, bb - ba)
                p = builder.neuron(wa, ba)
                q = builder.neuron(0.0 - wa, 0.0 - ba)
                new_g.append(("pair", p, q, r, mode))
                k += 2
            if k < len(g):
                wa, ba = g[k]
                p = builder.neuron(wa, ba)
                q = builder.neuron(0.0 - wa, 0.0 - ba)
                new_g.append(("carry", p, q, None, mode))
            new_groups.append(new_g)
        Wl, cl = builder.layer()
        layers.append((Wl, cl))
        width = Wl.shape[0]
        resolved = []
        for g in new_groups:
            rg = []
            for kind, p, q, r, mode in g:
                vec = np.zeros(width)
                vec[p] = 1.0
                vec[q] = -1.0
                if kind == "pair":
                    vec[r] = -1.0 if mode == "min" else 1.0
                rg.append((vec, 0.0))
            resolved.append(rg)
        return resolved

    pool = []
    while True:
        pool = [g[0] for g in groups if len(g) == 1] + pool
        groups = [g for g in groups if len(g) > 1]
        if not groups and len(pool) == 1:
            break
        resolved = reduce_level(groups + [pool], ["min"] * len(groups) + ["max"])
        groups, pool = resolved[:-1], resolved[-1]
    out_vec, out_bias = pool[0]
    while pad_to is not None and len(layers) < pad_to:
        builder = _WireBuilder()
        p = builder.neuron(out_vec, out_bias)
        q = builder.neuron(0.0 - out_vec, 0.0 - out_bias)
        Wl, cl = builder.layer()
        layers.append((Wl, cl))
        out_vec = np.zeros(Wl.shape[0])
        out_vec[p], out_vec[q] = 1.0, -1.0
        out_bias = 0.0
    return layers, out_vec, out_bias


def lattice_values(lattices, X):
    """Max over selector sets of the min over each set's bank values, one
    ``min`` per set, for (W, b, selectors) lattices; shape (P, len(lattices)).

    Bank values are summed in one fixed order, each step rounded on its
    own: ``x_0 w_0``, ``+ x_j w_j`` for j = 1 .. n-1, ``+ b``, then
    ``+ 0.0``, which makes every zero +0."""
    X = np.asarray(X, dtype=float)
    res = np.empty((X.shape[0], len(lattices)))
    for j, (W, b, selectors) in enumerate(lattices):
        W = np.asarray(W, dtype=float)
        vals = X[:, 0, None] * W[None, :, 0]
        for k in range(1, W.shape[1]):
            vals = vals + X[:, k, None] * W[None, :, k]
        vals = vals + b + 0.0
        res[:, j] = np.stack([vals[:, sel].min(axis=1) for sel in selectors], axis=1).max(axis=1)
    return res


def expand_network(n, lattices):
    """Dense layers and readout for (W, b, selectors) lattices on one input.

    Each output is expanded on its own and padded to the common depth; the
    first layer stacks their rows over the shared input and later layers
    (and the readout) are block-diagonal.  Returns (layers, out_w, out_b).
    """
    depth = max(len(schedule_widths([len(s) for s in sels])) for _, _, sels in lattices)
    expanded = [expand_scalar(W, b, sels, n, pad_to=depth) for W, b, sels in lattices]
    if depth == 0:
        return ([], np.array([vec for _, vec, _ in expanded]),
                np.array([bias for _, _, bias in expanded]))
    layers = []
    for level in range(depth):
        blocks = [exp[0][level] for exp in expanded]
        if level == 0:
            Wl = np.concatenate([Wb for Wb, _ in blocks], axis=0)
        else:
            Wl = np.zeros((sum(Wb.shape[0] for Wb, _ in blocks),
                           sum(Wb.shape[1] for Wb, _ in blocks)))
            r0 = c0 = 0
            for Wb, _ in blocks:
                Wl[r0:r0 + Wb.shape[0], c0:c0 + Wb.shape[1]] = Wb
                r0 += Wb.shape[0]
                c0 += Wb.shape[1]
        layers.append((Wl, np.concatenate([cb for _, cb in blocks])))
    last = [exp[0][-1][0].shape[0] for exp in expanded]
    out_w = np.zeros((len(expanded), sum(last)))
    out_b = np.empty(len(expanded))
    col = 0
    for j, (_, vec, bias) in enumerate(expanded):
        out_w[j, col:col + last[j]] = vec
        out_b[j] = bias
        col += last[j]
    return layers, out_w, out_b
