"""Spans and counts around the program's public functions.

The traced run replaces each function below, in the namespace its caller
looks it up in, by a wrapper that records a span (name, start, end, parent
span, op id) and the counts read off the returned object.  Spans stay in
memory and are written out when the run ends.  The timed run installs none
of this; it only opens the no-op ``NullTracer.span``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from statistics import median

import numpy as np


def _net_counts(args, kwargs, net):
    return {"tll.bank_n": sum(lat.size for lat in net.outputs),
            "tll.selectors_m": sum(len(lat.selectors) for lat in net.outputs),
            "tll.selector_mass": sum(len(s) for lat in net.outputs for s in lat.selectors)}


def _artifact_bytes(args, kwargs, result):
    # reports are left out: their timing block makes the count vary by a few bytes
    path = args[1]
    return {"serialize.bytes_written":
            0 if path.endswith("_report.json") else os.path.getsize(path)}


def _seed_pairs(coords_a, coords_b, delta) -> int:
    gap = np.abs(coords_a[:, None, :] - coords_b[None, :, :]).max(axis=2)
    return int((gap <= delta).sum())


def _ads_counts(args, kwargs, verdict):
    # check_ads does not return its candidate pairs; they are counted from
    # the coordinates after the run, outside the op's timing
    ts_a, ts_b, delta = args[:3]
    return {"dynamics.transition.seed_pairs":
            functools.partial(_seed_pairs, ts_a.coords, ts_b.coords, delta),
            "dynamics.transition.relation_pairs": len(verdict.relation.pairs)}


# span name -> (places it is looked up, counts from (args, kwargs, result))
SPANS = {
    "tll.compile": (["tllsynth.cli:compile_tll"], _net_counts),
    "tll.arch_descriptor": (["tllsynth.cli:arch_descriptor"], None),
    "tll.eval_batch": (["tllsynth.tll:TllNetwork.eval_batch"],
                       lambda a, k, r: {"tll.eval_calls": 1, "tll.eval_points": len(a[1])}),
    "tll.expand": (["tllsynth.cli:expand_relu_layers"], None),
    "tll.export": (["tllsynth.cli:export_network"], None),
    "tll.import": (["tllsynth.cli:import_network", "tllsynth.tll:import_network"], None),
    "cpwa.sample_controller": (["tllsynth.cli:sample_controller"], None),
    "cpwa.build_interpolant": (["tllsynth.cli:build_interpolant"],
                               lambda a, k, r: {"cpwa.simplexes": r.num_simplexes}),
    "cpwa.from_json": (["tllsynth.cpwa:CpwaInterpolant.from_json"], None),
    "cpwa.region_count": (["tllsynth.cli:region_count"], None),
    "cpwa.lipschitz_audit": (["tllsynth.cli:lipschitz_audit"], None),
    "cpwa.continuity_audit": (["tllsynth.cli:continuity_audit"], None),
    "cpwa.eval_batch": (["tllsynth.cpwa:CpwaInterpolant.eval_batch"], None),
    "geometry.build_eta_grid": (["tllsynth.cli:build_eta_grid"],
                                lambda a, k, r: {"geometry.grid_points": r.num_points}),
    "geometry.extra_corners": (["tllsynth.cli:extra_corners", "tllsynth.cpwa:extra_corners"],
                               lambda a, k, r: {"geometry.extra_corner_count": len(r)}),
    "geometry.interpolation_hypercubes": (["tllsynth.cli:interpolation_hypercubes"], None),
    "serialize.dump_json": (["tllsynth.cli:dump_json"], _artifact_bytes),
    "serialize.load_json": (["tllsynth.cli:load_json", "tllsynth.serialize:load_json"], None),
    "dynamics.integrate.rk4": (["tllsynth.dynamics.audits:rk4_closed_loop",
                                "tllsynth.dynamics.transition:rk4_closed_loop"], None),
    "dynamics.audits.deviation": (["tllsynth.cli:deviation_audit"], None),
    "dynamics.audits.sysid_deviation": (["tllsynth.cli:sysid_deviation_audit"], None),
    "dynamics.audits.invariance": (["tllsynth.cli:check_delta_tau_invariance"], None),
    "dynamics.transition.embed": (
        ["tllsynth.dynamics.transition:embed_tau_sampled"],
        lambda a, k, r: {"dynamics.transition.states": r.num_states,
                         "dynamics.transition.transitions": len(r.transitions)}),
    "dynamics.transition.perturb": (["tllsynth.dynamics.transition:perturb"], None),
    "dynamics.transition.check_ads": (["tllsynth.dynamics.transition:check_ads"],
                                      _ads_counts),
}

# subcommands any workload runs; each gets a cli.<name>_s metric
CLI_COMMANDS = ["size", "grid", "build", "compile", "verify", "audit", "sysid", "export"]
# spans whose self time (duration minus direct children) is reported
SELF_TIMES = ["dynamics.integrate.rk4", "dynamics.transition.embed"]
# counts read off returned objects, in the order they are reported
COUNTS = ["tll.bank_n", "tll.selectors_m", "tll.selector_mass", "tll.eval_calls",
          "tll.eval_points", "cpwa.simplexes", "geometry.grid_points",
          "geometry.extra_corner_count", "serialize.bytes_written",
          "dynamics.transition.states", "dynamics.transition.transitions",
          "dynamics.transition.seed_pairs", "dynamics.transition.relation_pairs"]
# counts the oracle child writes when it exits
ORACLE_COUNTS = ["cpwa.oracle_batches", "cpwa.oracle_points", "cpwa.points_per_batch"]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    names = [(f"{s}_s", "s") for s in SPANS]
    names += [(f"{s}_self_s", "s") for s in SELF_TIMES]
    names += [(f"cli.{c}_s", "s") for c in CLI_COMMANDS] + [("cli.self_s", "s")]
    names += [(c, "bytes" if c == "serialize.bytes_written" else "count") for c in COUNTS]
    names += [(c, "count") for c in ORACLE_COUNTS]
    names += [("tll.relu_neurons", "count"), ("trace.chain_s", "s"),
              ("trace.overhead_s", "s")]
    return names


class NullTracer:
    """What the timed run uses: a span is a no-op context manager."""

    op = None

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name: str, value) -> None:
        pass


class Tracer:
    """Records spans and counts; ``install`` patches the SPANS targets."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.counts: list[tuple] = []    # (op, name, value)
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name) -> list:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        rec = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(rec)
        return rec

    def _close(self, rec) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    class _Span:
        def __init__(self, tracer, name):
            self.tracer, self.name = tracer, name

        def __enter__(self):
            self.rec = self.tracer._open(self.name)
            return self

        def __exit__(self, *exc):
            self.tracer._close(self.rec)
            return False

    def span(self, name):
        return self._Span(self, name)

    def count(self, name: str, value) -> None:
        """Record a count; a callable value is evaluated in the reduction."""
        self.counts.append((self.op, name, value))

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.count(key, value)
            return result
        return wrapper

    def install(self) -> None:
        for name, (targets, counter) in SPANS.items():
            for target in targets:
                module, _, attr = target.partition(":")
                owner = importlib.import_module(module)
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                orig = owner.__dict__[attr]
                if isinstance(orig, staticmethod):
                    new = staticmethod(self._wrap(name, orig.__func__, counter))
                else:
                    new = self._wrap(name, orig, counter)
                setattr(owner, attr, new)
                self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- reduction ------------------------------------------------------------

    def _resolve_counts(self) -> None:
        self.counts = [(op, name, value() if callable(value) else value)
                       for op, name, value in self.counts]

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per op: summed span seconds, self seconds, and summed counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        ops: dict[int, dict[str, float]] = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            row = ops.setdefault(op, {})
            row[f"{name}_s"] = row.get(f"{name}_s", 0.0) + (end - start)
            if name in SELF_TIMES or name.startswith("cli."):
                key = "cli.self_s" if name.startswith("cli.") else f"{name}_self_s"
                row[key] = row.get(key, 0.0) + (end - start - child_time[i])
        self._resolve_counts()
        for op, name, value in self.counts:
            row = ops.setdefault(op, {})
            row[name] = row.get(name, 0) + value
        return ops

    def metrics(self) -> dict[str, float]:
        """Median over traced ops of every per-op value; absent means 0."""
        ops = list(self.per_op().values())
        return {name: median(row.get(name, 0) for row in ops) for name, _ in per_layer_names()}

    def dump(self, path) -> None:
        self._resolve_counts()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": self.counts}, fh)
