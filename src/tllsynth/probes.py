"""Deterministic probe sets for sampling-based audits.

Audits evaluate claims on finite point sets.  The base set is a uniform
product lattice over a box (faces included) so runs are reproducible with
no seed at all; an optional pseudo-random augmentation draws extra points
from a seeded generator, and the seed is carried in the probe description
so reports can record it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import Box


@dataclass(frozen=True)
class ProbeSet:
    """Probe points plus the metadata reports should record."""

    points: np.ndarray          # (P, n)
    spec: str                   # human-readable construction recipe
    seed: int | None = None     # present only when random points were added


def lattice_probes(box: Box, per_axis: int) -> np.ndarray:
    """Uniform product lattice over the box, endpoints included.

    ``per_axis`` = 1 yields the center point.
    """
    if per_axis < 1:
        raise ConfigError(f"per_axis must be at least 1, got {per_axis}")
    if per_axis == 1:
        axes = [np.array([0.5 * (lo + hi)]) for lo, hi in zip(box.lower, box.upper)]
    else:
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(box.lower, box.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def random_probes(box: Box, count: int, seed: int) -> np.ndarray:
    """Uniform i.i.d. points in the box from a seeded generator."""
    if count < 0:
        raise ConfigError(f"count must be nonnegative, got {count}")
    rng = np.random.default_rng(seed)
    return box.lower + rng.random((count, box.dimension)) * box.widths


def build_probes(box: Box, per_axis: int, random_count: int = 0,
                 seed: int = 0) -> ProbeSet:
    """Lattice probes, optionally augmented with seeded random points."""
    pts = lattice_probes(box, per_axis)
    spec = f"lattice[{per_axis}^{box.dimension}]"
    if random_count > 0:
        pts = np.vstack([pts, random_probes(box, random_count, seed)])
        spec += f"+random[{random_count},seed={seed}]"
        return ProbeSet(pts, spec, seed)
    return ProbeSet(pts, spec, None)
