"""Seeded controllers for the benchmark workloads.

A controller is a plain JSON spec, so the benchmark and its oracle child
(``oracle.py``) evaluate the same function.  Every spec carries ``k_cont``,
a true Lipschitz bound under the infinity norm on inputs: ``build`` reads
the bound from ``budget.k_cont``, and ``verify lipschitz`` / ``verify
approx`` check the interpolant against 3 * k_cont and 3 * k_cont * eta, so
an understated bound would make correct code fail.
"""

from __future__ import annotations

import math

import numpy as np

RIPPLES = 16        # seeded sinusoid terms on top of the fixed bump
RIPPLE_AMP = 0.1    # their summed amplitude


def sinusoid_spec(seed: int, n: int) -> dict:
    """Fixed concave bump plus seeded ripples on the unit n-cube.

    u(x) = sum_k a_k sin(2 pi f_k . x + phi_k).  The first n terms are
    0.5 sin(pi x_i), a bump fixed for every seed; the RIPPLES seeded terms
    share RIPPLE_AMP.  The bump keeps the selector mass within a few
    percent across seeds (3% between quartiles on synth-2d; with all terms
    seeded it spread by 10-16%), so the
    cost of a run depends on the code, not on the seed.
    """
    rng = np.random.default_rng(seed)
    freqs = np.vstack([0.5 * np.eye(n), rng.uniform(0.5, 2.5, (RIPPLES, n))])
    amps = np.concatenate([np.full(n, 0.5), np.full(RIPPLES, RIPPLE_AMP / RIPPLES)])
    phases = np.concatenate([np.zeros(n), rng.uniform(0.0, 2.0 * math.pi, RIPPLES)])
    k_cont = float(np.sum(amps * 2.0 * math.pi * np.abs(freqs).sum(axis=1)))
    return {"kind": "sinusoid", "n": n, "a": amps.tolist(), "f": freqs.tolist(),
            "phi": phases.tolist(), "k_cont": k_cont}


def saturating_spec(seed: int) -> dict:
    """Pendulum feedback u = clip(-a . x, -s, s) with |a_1| + |a_2| = 1.

    Clipping is 1-Lipschitz, so k_cont = |a|_1 = 1 exactly.  The seed tilts
    the gain split within 0.45..0.55; a wider split or a seeded saturation
    level moved the expanded network between 1.3k and 3.6k neurons, and the
    export size with the square of that.
    """
    rng = np.random.default_rng(seed)
    a1 = float(rng.uniform(0.45, 0.55))
    return {"kind": "saturating", "n": 2, "a": [a1, 1.0 - a1], "s": 0.6, "k_cont": 1.0}


def evaluate(spec: dict, X) -> np.ndarray:
    """Controller values at the rows of ``X``, shape (P, 1)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if spec["kind"] == "sinusoid":
        arg = 2.0 * math.pi * (X @ np.asarray(spec["f"]).T) + np.asarray(spec["phi"])
        return (np.asarray(spec["a"]) * np.sin(arg)).sum(axis=1, keepdims=True)
    if spec["kind"] == "saturating":
        s = spec["s"]
        return np.clip(-(X @ np.asarray(spec["a"])), -s, s)[:, None]
    raise ValueError(f"unknown controller kind {spec['kind']!r}")
