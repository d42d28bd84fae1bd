"""Finite labeled transition systems over metric state coordinates.

Closed loops are embedded by sampling initial states, integrating one
period, and snapping endpoints onto listed states; labels identify the
applied control segment.  Perturbation widens every transition's target to
all listed states within delta.  Simulation relations (ordinary and
approximate) are computed by greatest-fixpoint refinement.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from ..cpwa import REL_TOL, check_oracle_reply, power_of_two_scale
from ..errors import DimensionMismatch, SchemaError
from ..serialize import hex_or_none, hex_to_vec, is_int, require_keys, rows_to_hex
from .integrate import rk4_closed_loop
from .models import ControlSystemModel


@dataclass
class FiniteTransitionSystem:
    """States are indices into a coordinate array; transitions are labeled.

    ``coords`` has shape (K, d); the metric is the infinity norm on rows.
    Transitions are a set of (src, label, dst) triples and may be
    nondeterministic.
    """

    coords: np.ndarray
    transitions: set[tuple[int, str, int]] = field(default_factory=set)

    def __post_init__(self):
        self.coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        k = self.num_states
        bad = [tr for tr in self.transitions if not (0 <= tr[0] < k and 0 <= tr[2] < k)]
        if bad:   # the smallest, so the message does not follow set order
            raise ValueError(f"{len(bad)} transitions reference unknown states (there are "
                             f"{k}), the smallest {min(bad)}")

    @property
    def num_states(self) -> int:
        return self.coords.shape[0]

    @property
    def labels(self) -> set[str]:
        return {u for (_, u, _) in self.transitions}

    def distance(self, i: int, j: int) -> float:
        return float(np.abs(self.coords[i] - self.coords[j]).max())

    def relabeled(self, label: str = "*") -> "FiniteTransitionSystem":
        """Copy with all labels unified (erases control information)."""
        return FiniteTransitionSystem(
            self.coords.copy(), {(s, label, t) for (s, _, t) in self.transitions}
        )

    def to_json(self) -> dict:
        return {
            "states": [
                {"id": i, "coords": coords} for i, coords in enumerate(rows_to_hex(self.coords))
            ],
            "transitions": [
                {"src": s, "label": u, "dst": t}
                for (s, u, t) in sorted(self.transitions)
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
        trans = set()
        for tr in obj["transitions"]:
            require_keys(tr, ("src", "label", "dst"), "transition")
            if not (is_int(tr["src"]) and is_int(tr["dst"])):
                raise SchemaError("transition endpoints must be integers")
            if not isinstance(tr["label"], str):
                raise SchemaError("transition labels must be strings")
            trans.add((tr["src"], tr["label"], tr["dst"]))
        return FiniteTransitionSystem(np.array(rows), trans)


def _near(coords: np.ndarray, x: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the rows of ``coords`` within ``tol`` of ``x`` (infinity
    norm), in row order."""
    return np.flatnonzero(np.abs(coords - x).max(axis=1) <= tol)


def _seed_pairs(ts_a: FiniteTransitionSystem, ts_b: FiniteTransitionSystem,
                tol: float) -> set[tuple[int, int]]:
    """Left-right state pairs within ``tol`` of each other (infinity norm)."""
    if ts_a.coords.shape[1] != ts_b.coords.shape[1]:
        raise DimensionMismatch("pair distances need matching coordinate dimensions")
    return {
        (x, y)
        for x in range(ts_a.num_states)
        for y in _near(ts_b.coords, ts_a.coords[x], tol).tolist()
    }


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
    states, so samples scaled by 2^k embed alike.  The transition label
    hashes the control segment at the integration nodes, the endpoint
    included.  ``extra_states`` are listed (and deduplicated) but not
    integrated, so a companion system can share another embedding's target
    states.
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
    # every sample, extra state and endpoint fits: at most 2P + E states
    states = np.empty((2 * len(samples) + len(extras), samples.shape[1]))
    count = 0

    def intern(x) -> int:
        nonlocal count
        hit = _near(states[:count], x, snap_tol)
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
    transitions = set()
    for col, src in enumerate(sources):
        label = _segment_label(controls[:, col, :])
        transitions.add((src, label, intern(traj[-1, col])))
    return FiniteTransitionSystem(states[:count].copy(), transitions)


def perturb(ts: FiniteTransitionSystem, delta: float) -> FiniteTransitionSystem:
    """Delta-perturbed system: for every transition, add same-label copies
    to every listed state within delta of the original target.  Originals
    are retained (distance zero); delta = 0 is the identity."""
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    new = set(ts.transitions)
    for (s, u, t) in ts.transitions:
        new.update((s, u, t2) for t2 in _near(ts.coords, ts.coords[t], delta).tolist())
    return FiniteTransitionSystem(ts.coords.copy(), new)


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


def _greatest_relation(trans_a: set, num_a: int, trans_b: set, num_b: int,
                       seed_pairs: set[tuple[int, int]], label_free: bool) -> set:
    """Greatest fixpoint of the transfer condition inside ``seed_pairs``:
    (x, y) survives while every left move from x has a right response from y
    (same label unless ``label_free``) into a surviving pair."""
    succ_a: dict[int, list[tuple[str, int]]] = {i: [] for i in range(num_a)}
    for (s, u, t) in trans_a:
        succ_a[s].append((u, t))
    succ_b: dict[tuple[int, str] | int, set[int]] = {}
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


def _verdict(rel: set, num_a: int, mode: str, delta: float | None) -> SimulationVerdict:
    covered = {x for (x, _) in rel}
    missing = sorted(set(range(num_a)) - covered)
    return SimulationVerdict(
        holds=not missing,
        relation=SimulationRelation(frozenset(rel), mode, delta),
        counterexample=missing[0] if missing else None,
    )


def check_simulation(ts_a: FiniteTransitionSystem, ts_b: FiniteTransitionSystem,
                     max_pair_distance: float | None = None) -> SimulationVerdict:
    """Greatest label-matched simulation of ``ts_a`` by ``ts_b``.

    Starts from all pairs (optionally distance-gated when both systems share
    a coordinate dimension) and refines to the greatest fixpoint.  The
    verdict holds when every left state has a partner; otherwise the
    smallest uncovered left state index is the counterexample.
    """
    if max_pair_distance is None:
        seed = set(itertools.product(range(ts_a.num_states), range(ts_b.num_states)))
    else:
        seed = _seed_pairs(ts_a, ts_b, max_pair_distance)
    rel = _greatest_relation(ts_a.transitions, ts_a.num_states,
                             ts_b.transitions, ts_b.num_states, seed, label_free=False)
    return _verdict(rel, ts_a.num_states, "ordinary", max_pair_distance)


def check_ads(ts_a: FiniteTransitionSystem, ts_b: FiniteTransitionSystem,
              delta: float) -> SimulationVerdict:
    """Approximate delta-simulation of ``ts_a`` by ``ts_b``.

    Candidate pairs are those within delta (infinity norm).  Left moves are
    taken in the delta-perturbed left system; the right system may respond
    with any label.  The relation must be total on the left states.  With
    delta = 0 and unified labels this coincides with ordinary simulation
    gated to coincident states.
    """
    seed = _seed_pairs(ts_a, ts_b, delta)
    perturbed = perturb(ts_a, delta)
    rel = _greatest_relation(perturbed.transitions, perturbed.num_states,
                             ts_b.transitions, ts_b.num_states, seed, label_free=True)
    return _verdict(rel, ts_a.num_states, "approximate", delta)
