"""Finite labeled transition systems over metric state coordinates.

Closed loops are embedded by sampling initial states, integrating one
period, and snapping endpoints onto listed states; labels identify the
applied control segment.  Perturbation widens every transition's target to
all listed states within delta.  Simulation relations (ordinary and
approximate) are computed by greatest-fixpoint refinement.

Transitions are held as index arrays.  Perturbation, the candidate pairs
and the fixpoint work on them in row chunks of about ``_CHUNK_VALUES``
values and build no Python object per transition or per candidate pair;
only the returned relation is a set of pairs.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from ..cpwa import REL_TOL, check_oracle_reply, power_of_two_scale
from ..errors import DimensionMismatch, SchemaError
from ..serialize import hex_or_none, hex_to_vec, is_int, require_keys, rows_to_hex
from ..tll import _bit_rows
from .integrate import rk4_closed_loop
from .models import ControlSystemModel

_CHUNK_VALUES = 1 << 16     # values in one chunk's scratch arrays


def _tolerance(name: str, value: float) -> float:
    """``value`` if it is a nonnegative number; NaN and negatives raise."""
    if not value >= 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return value


def _sorted_unique(src: np.ndarray, lab: np.ndarray, dst: np.ndarray):
    """The triples sorted by (src, lab, dst), each once."""
    order = np.lexsort((dst, lab, src))
    src, lab, dst = src[order], lab[order], dst[order]
    keep = np.ones(len(src), dtype=bool)
    keep[1:] = (src[1:] != src[:-1]) | (lab[1:] != lab[:-1]) | (dst[1:] != dst[:-1])
    return src[keep], lab[keep], dst[keep]


def _unknown_states(count: int, k: int, smallest: tuple) -> str:
    return (f"{count} transitions reference unknown states (there are {k}), "
            f"the smallest {smallest}")


class FiniteTransitionSystem:
    """States are indices into a coordinate array; transitions are labeled.

    ``coords`` has shape (K, d); the metric is the infinity norm on rows.
    Transitions may be nondeterministic.  They are held as int32 arrays
    ``src``, ``lab`` and ``dst``, sorted by (src, label, dst), where ``lab``
    indexes the sorted tuple ``label_names``.  ``transitions`` is the same
    set of (src, label, dst) triples, built on first use.
    """

    def __init__(self, coords, transitions=()):
        triples = set(transitions)
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        names = tuple(sorted({u for (_, u, _) in triples}))
        ids = {u: i for i, u in enumerate(names)}
        n = len(triples)
        try:
            src = np.fromiter((s for (s, _, _) in triples), dtype=np.int64, count=n)
            dst = np.fromiter((t for (_, _, t) in triples), dtype=np.int64, count=n)
        except OverflowError:   # such endpoints are unknown states
            k = coords.shape[0]
            bad = [tr for tr in triples if not (0 <= tr[0] < k and 0 <= tr[2] < k)]
            raise ValueError(_unknown_states(len(bad), k, min(bad))) from None
        lab = np.fromiter((ids[u] for (_, u, _) in triples), dtype=np.int64, count=n)
        self._set(coords, *_sorted_unique(src, lab, dst), names)

    @classmethod
    def _of_arrays(cls, coords: np.ndarray, src: np.ndarray, lab: np.ndarray,
                   dst: np.ndarray, names: tuple[str, ...]) -> "FiniteTransitionSystem":
        """System from triples already sorted and unique, every name used."""
        ts = cls.__new__(cls)
        ts._set(coords, src, lab, dst, names)
        return ts

    def _set(self, coords, src, lab, dst, names) -> None:
        self.coords = np.atleast_2d(np.asarray(coords, dtype=float))
        k = self.num_states
        bad = (src < 0) | (src >= k) | (dst < 0) | (dst >= k)
        if bad.any():   # the first in sorted order is the smallest triple
            i = int(np.argmax(bad))
            raise ValueError(_unknown_states(int(bad.sum()), k,
                                             (int(src[i]), names[lab[i]], int(dst[i]))))
        self.src, self.lab, self.dst = (np.asarray(a, dtype=np.int32) for a in (src, lab, dst))
        for a in (self.src, self.lab, self.dst):
            a.flags.writeable = False
        self.label_names = names

    @property
    def num_states(self) -> int:
        return self.coords.shape[0]

    @property
    def labels(self) -> set[str]:
        return set(self.label_names)

    @functools.cached_property
    def transitions(self) -> set[tuple[int, str, int]]:
        names = [self.label_names[u] for u in self.lab.tolist()]
        return set(zip(self.src.tolist(), names, self.dst.tolist()))

    def distance(self, i: int, j: int) -> float:
        return float(np.abs(self.coords[i] - self.coords[j]).max())

    def relabeled(self, label: str = "*") -> "FiniteTransitionSystem":
        """Copy with all labels unified (erases control information)."""
        src, lab, dst = _sorted_unique(self.src, np.zeros_like(self.lab), self.dst)
        return FiniteTransitionSystem._of_arrays(self.coords.copy(), src, lab, dst,
                                                 (label,) if len(src) else ())

    def to_json(self) -> dict:
        names = self.label_names
        return {
            "states": [
                {"id": i, "coords": coords} for i, coords in enumerate(rows_to_hex(self.coords))
            ],
            "transitions": [
                {"src": s, "label": names[u], "dst": t}
                for (s, u, t) in zip(self.src.tolist(), self.lab.tolist(), self.dst.tolist())
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "FiniteTransitionSystem":
        require_keys(obj, ("states", "transitions"), "transition system")
        states = obj["states"]
        if not isinstance(states, list) or not states:
            raise SchemaError("states must be a nonempty list")
        rows = []
        for k, st in enumerate(states):
            require_keys(st, ("id", "coords"), "state")
            if not is_int(st["id"]) or st["id"] != k:
                raise SchemaError("state ids must be 0..K-1 in order")
            rows.append(hex_to_vec(st["coords"]))
        if len({r.shape for r in rows}) != 1:
            raise SchemaError("state coords must all have one length")
        if not isinstance(obj["transitions"], list):
            raise SchemaError("transitions must be a list")
        trans = []
        for tr in obj["transitions"]:
            require_keys(tr, ("src", "label", "dst"), "transition")
            if not (is_int(tr["src"]) and is_int(tr["dst"])):
                raise SchemaError("transition endpoints must be integers")
            if not isinstance(tr["label"], str):
                raise SchemaError("transition labels must be strings")
            trans.append((tr["src"], tr["label"], tr["dst"]))
        return FiniteTransitionSystem(np.array(rows), trans)


def _within(rows: np.ndarray, coords: np.ndarray, tol: float) -> np.ndarray:
    """Boolean (len(rows), K): which rows of ``coords`` lie within ``tol`` of
    each of ``rows`` (infinity norm), built one coordinate at a time."""
    gap = np.zeros((len(rows), len(coords)))
    diff = np.empty_like(gap)
    for j in range(coords.shape[1]):
        np.subtract(rows[:, j, None], coords[:, j], out=diff)
        np.maximum(gap, np.abs(diff, out=diff), out=gap)
    return gap <= tol


def _seed(ts_a: FiniteTransitionSystem, ts_b: FiniteTransitionSystem,
          tol: float) -> np.ndarray:
    """Boolean (K_a, K_b): the left-right state pairs within ``tol``."""
    if ts_a.coords.shape[1] != ts_b.coords.shape[1]:
        raise DimensionMismatch("pair distances need matching coordinate dimensions")
    seed = np.empty((ts_a.num_states, ts_b.num_states), dtype=bool)
    step = max(1, _CHUNK_VALUES // max(1, 2 * ts_b.num_states))
    for lo in range(0, ts_a.num_states, step):
        seed[lo:lo + step] = _within(ts_a.coords[lo:lo + step], ts_b.coords, tol)
    return seed


def _group_starts(src: np.ndarray, lab: np.ndarray) -> np.ndarray:
    """Where each run of equal (src, lab) begins in sorted triples."""
    change = np.ones(len(src), dtype=bool)
    change[1:] = (src[1:] != src[:-1]) | (lab[1:] != lab[:-1])
    return np.flatnonzero(change)


def _chunks(first: np.ndarray, ends: np.ndarray, width: int):
    """Runs [i, j) of groups, each group's rows from ``first`` to ``ends``,
    that hold about ``_CHUNK_VALUES`` values of ``width`` per row; one group
    at least."""
    i = 0
    while i < len(first):
        limit = first[i] + _CHUNK_VALUES // max(1, width)
        j = max(i + 1, int(np.searchsorted(ends, limit, "right")))
        yield i, j
        i = j


def _segment_label(controls: np.ndarray) -> str:
    """Identifier of a control segment: hash of the node samples rounded to
    1e-9 of their ``power_of_two_scale`` s and multiplied back by s, exactly.
    So float dust merges at any scale, and segments u and 2u stay distinct."""
    scale = power_of_two_scale(controls)
    sig = np.round(controls / scale, 9) * scale + 0.0
    digest = hashlib.sha256(sig.tobytes()).hexdigest()[:16]
    return f"u#{digest}"


def embed_tau_sampled(model: ControlSystemModel, controller, samples: np.ndarray,
                      tau: float, step: float | None = None,
                      snap_tol: float | None = None,
                      extra_states: np.ndarray | None = None) -> FiniteTransitionSystem:
    """Embed one closed loop as a tau-period transition system.

    Every sample becomes a state; each is integrated for one period and the
    endpoint is snapped to the first listed state within ``snap_tol``
    (infinity norm) or appended as a new state.  The default ``snap_tol`` is
    ``REL_TOL`` times the ``power_of_two_scale`` of the samples and extra
    states, so samples scaled by 2^k embed alike; a given one must be
    nonnegative.  The transition label hashes the control segment at the
    integration nodes, the endpoint included.  ``extra_states`` are listed
    (and deduplicated) but not integrated, so a companion system can share
    another embedding's target states.
    """
    if step is None:
        step = tau / 100.0
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    extras = (np.empty((0, samples.shape[1])) if extra_states is None
              else np.atleast_2d(np.asarray(extra_states, dtype=float)))
    if extras.shape[1] != samples.shape[1]:
        raise DimensionMismatch("extra states need the samples' coordinate dimension")
    if snap_tol is None:
        snap_tol = REL_TOL * power_of_two_scale(np.vstack([samples, extras]))
    _tolerance("snap_tol", snap_tol)
    # every sample, extra state and endpoint fits: at most 2P + E states
    states = np.empty((2 * len(samples) + len(extras), samples.shape[1]))
    count = 0

    def intern(x) -> int:
        nonlocal count
        hit = np.flatnonzero(_within(x[None], states[:count], snap_tol)[0])
        if hit.size:
            return int(hit[0])
        states[count] = x
        count += 1
        return count - 1

    sources = [intern(x) for x in samples]
    for x in extras:
        intern(x)
    _, traj, controls = rk4_closed_loop(model, controller, states[sources], tau, step)
    # the integrator asks for no control at the endpoints: one batch closes every segment
    ends = check_oracle_reply(controller(traj[-1]), traj[-1], model.m)
    controls = np.concatenate([controls, ends[None]])
    labels = [_segment_label(controls[:, col, :]) for col in range(len(sources))]
    targets = [intern(traj[-1, col]) for col in range(len(sources))]
    return FiniteTransitionSystem(states[:count].copy(), zip(sources, labels, targets))


def perturb(ts: FiniteTransitionSystem, delta: float) -> FiniteTransitionSystem:
    """Delta-perturbed system: for every transition, add same-label copies
    to every listed state within delta of the original target.  Originals
    are retained (distance zero); delta = 0 is the identity.

    Each (src, label) group ORs the delta-ball rows of its targets, in
    chunks of groups, and the union's entries become the new triples.
    """
    _tolerance("delta", delta)
    first = _group_starts(ts.src, ts.lab)
    ends = np.append(first[1:], len(ts.dst))
    parts = [(ts.src[:0], ts.lab[:0], ts.dst[:0])]
    for i, j in _chunks(first, ends, 2 * ts.num_states):
        lo, hi = first[i], ends[j - 1]
        targets = ts.dst[lo:hi]
        ball = _within(ts.coords[targets], ts.coords, delta)
        ball[np.arange(hi - lo), targets] = True    # kept at any coordinates
        group, dst = np.nonzero(np.logical_or.reduceat(ball, first[i:j] - lo, axis=0))
        heads = first[i:j][group]
        parts.append((ts.src[heads], ts.lab[heads], dst.astype(np.int32)))
    src, lab, dst = (np.concatenate(cols) for cols in zip(*parts))
    return FiniteTransitionSystem._of_arrays(ts.coords.copy(), src, lab, dst, ts.label_names)


@dataclass(frozen=True)
class SimulationRelation:
    """Witness relation between two systems' state indices."""

    pairs: frozenset[tuple[int, int]]
    mode: str                   # "ordinary" or "approximate"
    delta: float | None = None


@dataclass
class SimulationVerdict:
    """Outcome of a simulation check: the maximal relation found, whether it
    is total on the left system, and a counterexample state if not."""

    holds: bool
    relation: SimulationRelation
    counterexample: int | None

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "mode": self.relation.mode,
            "delta": hex_or_none(self.relation.delta),
            "pairs": sorted(map(list, self.relation.pairs)),
            "counterexample": self.counterexample,
        }


def _greatest_relation(left: tuple, right: tuple, seed: np.ndarray) -> np.ndarray:
    """Greatest fixpoint of the transfer condition inside ``seed``.

    ``left`` and ``right`` are (src, lab, dst) arrays sorted by (src, lab),
    their labels in one id space; ``seed`` is a boolean (K_a, K_b) matrix.
    (x, y) survives while every left move x -u-> x2 has a right response
    y -u-> y2 with (x2, y2) surviving.  Each round packs, for every right
    (state, label) group, the left states paired with one of its targets
    into a bit row, then drops each pair with a left move outside the
    matching row.  Rounds stop when one drops nothing.
    """
    rel = seed.copy()
    num_a = rel.shape[0]
    a_src, a_lab, a_dst = left
    b_src, b_lab, b_dst = right
    # each left (state, label) group's targets as a bit row over the left states
    a_first = _group_starts(a_src, a_lab)
    a_ends = np.append(a_first[1:], len(a_dst))
    words = -(-num_a // 64)
    post = np.empty((len(a_first), words), dtype=np.uint64)
    for i, j in _chunks(a_first, a_ends, num_a):
        lo, hi = a_first[i], a_ends[j - 1]
        moves = np.zeros((j - i, num_a), dtype=bool)
        moves[np.repeat(np.arange(j - i), a_ends[i:j] - a_first[i:j]), a_dst[lo:hi]] = True
        post[i:j] = _bit_rows(moves)
    a_state, a_label = a_src[a_first], a_lab[a_first].astype(np.int64)
    group_lo = np.searchsorted(a_state, np.arange(num_a))
    group_n = np.bincount(a_state, minlength=num_a)
    b_first = _group_starts(b_src, b_lab)
    b_ends = np.append(b_first[1:], len(b_dst))
    num_labels = 1 + max(a_lab.max(initial=0), b_lab.max(initial=0))
    b_key = b_src[b_first].astype(np.int64) * num_labels + b_lab[b_first]
    step = max(1, _CHUNK_VALUES // (max(1, words) * max(1, group_n.max(initial=0))))
    while True:
        paired = _bit_rows(rel.T)           # row y2: the x2 paired with y2
        resp = np.empty((len(b_first), words), dtype=np.uint64)
        for i, j in _chunks(b_first, b_ends, words):
            lo, hi = b_first[i], b_ends[j - 1]
            resp[i:j] = np.bitwise_or.reduceat(paired[b_dst[lo:hi]], b_first[i:j] - lo)
        xs, ys = np.nonzero(rel)
        dropped = 0
        for lo in range(0, len(xs), step):
            x, y = xs[lo:lo + step], ys[lo:lo + step]
            counts = group_n[x]
            pair = np.repeat(np.arange(len(x)), counts)
            group = np.arange(len(pair)) + np.repeat(group_lo[x] - (np.cumsum(counts) - counts),
                                                     counts)
            key = y[pair] * num_labels + a_label[group]
            at = np.searchsorted(b_key, key)
            ok = at < len(b_key)
            ok[ok] = b_key[at[ok]] == key[ok]
            ok[ok] = ~(post[group[ok]] & ~resp[at[ok]]).any(axis=1)
            dead = np.zeros(len(x), dtype=bool)
            dead[pair[~ok]] = True
            rel[x[dead], y[dead]] = False
            dropped += int(dead.sum())
        if not dropped:
            return rel


def _verdict(rel: np.ndarray, mode: str, delta: float | None) -> SimulationVerdict:
    xs, ys = np.nonzero(rel)
    missing = np.flatnonzero(~rel.any(axis=1))
    return SimulationVerdict(
        holds=not missing.size,
        relation=SimulationRelation(frozenset(zip(xs.tolist(), ys.tolist())), mode, delta),
        counterexample=int(missing[0]) if missing.size else None,
    )


def check_simulation(ts_a: FiniteTransitionSystem, ts_b: FiniteTransitionSystem,
                     max_pair_distance: float | None = None) -> SimulationVerdict:
    """Greatest label-matched simulation of ``ts_a`` by ``ts_b``.

    Starts from all pairs (optionally distance-gated when both systems share
    a coordinate dimension; the gate must be nonnegative) and refines to the
    greatest fixpoint.  The verdict holds when every left state has a
    partner; otherwise the smallest uncovered left state index is the
    counterexample.
    """
    if max_pair_distance is None:
        seed = np.ones((ts_a.num_states, ts_b.num_states), dtype=bool)
    else:
        seed = _seed(ts_a, ts_b, _tolerance("max_pair_distance", max_pair_distance))
    names = sorted(set(ts_a.label_names) | set(ts_b.label_names))
    index = {u: i for i, u in enumerate(names)}

    def shared(ts):
        ids = np.array([index[u] for u in ts.label_names], dtype=np.int32)
        return ts.src, ids[ts.lab], ts.dst

    rel = _greatest_relation(shared(ts_a), shared(ts_b), seed)
    return _verdict(rel, "ordinary", max_pair_distance)


def check_ads(ts_a: FiniteTransitionSystem, ts_b: FiniteTransitionSystem,
              delta: float) -> SimulationVerdict:
    """Approximate delta-simulation of ``ts_a`` by ``ts_b``.

    Candidate pairs are those within delta (infinity norm).  Left moves are
    taken in the delta-perturbed left system; the right system may respond
    with any label.  The relation must be total on the left states.  With
    delta = 0 and unified labels this coincides with ordinary simulation
    gated to coincident states.
    """
    seed = _seed(ts_a, ts_b, _tolerance("delta", delta))
    left = perturb(ts_a, delta)
    rel = _greatest_relation((left.src, np.zeros_like(left.lab), left.dst),
                             (ts_b.src, np.zeros_like(ts_b.lab), ts_b.dst), seed)
    return _verdict(rel, "approximate", delta)
