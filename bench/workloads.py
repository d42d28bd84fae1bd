"""The three benchmark workloads: seeded inputs, the op chain, output checks.

An op is one workload's whole chain.  CLI steps go through
``tllsynth.cli.main`` in-process, the path users run; the closed-loop
embedding has no subcommand and goes through the package API.  Checks run
after the op, outside its timing, and compare every output with an answer
known without the program: exit codes, passing verdicts, counts from the
closed-form grid sizes, and an independent numpy evaluation of the exported
ReLU layers against the exported lattice.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

import controllers

ORACLE = Path(__file__).resolve().parent / "oracle.py"


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _report(out: Path, stem: str) -> dict:
    return json.loads((out / f"{stem}.json").read_text(encoding="utf-8"))


def _axis_count(width: float, eta: float) -> int:
    """Grid points per axis for a box of this width (the covering rule)."""
    return max(1, math.ceil(width / eta - 0.5))


def _hex_array(rows) -> np.ndarray:
    return np.array([[float.fromhex(v) for v in row] for row in rows])


def eval_relu_json(obj: dict, X: np.ndarray) -> np.ndarray:
    """Forward pass of an exported ``relu.json``, read independently."""
    z = X
    for layer in obj["layers"]:
        W = _hex_array(layer["W"])
        c = np.array([float.fromhex(v) for v in layer["c"]])
        z = np.maximum(z @ W.T + c, 0.0)
    out_w = _hex_array(obj["out_w"])
    return z @ out_w.T + np.array([float.fromhex(v) for v in obj["out_b"]])


def eval_lattice_json(obj: dict, X: np.ndarray) -> np.ndarray:
    """max over selectors of min over members, from an exported network."""
    cols = []
    for block in obj["outputs"]:
        W = _hex_array([e["w"] for e in block["bank"]])
        b = np.array([float.fromhex(e["b"]) for e in block["bank"]])
        vals = X @ W.T + b
        cols.append(np.max([vals[:, s].min(axis=1) for s in block["selectors"]], axis=0))
    return np.stack(cols, axis=1)


class Workload:
    """Base class: subclasses set ``name`` and ``steps`` and add checks."""

    name = ""

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.inp: Path | None = None   # the inputs the ops read; the runner sets it

    # -- inputs -------------------------------------------------------------

    def oracle_spec(self) -> dict:
        raise NotImplementedError

    def configs(self, oracle: dict, spec: dict) -> dict[str, dict]:
        raise NotImplementedError

    def write_inputs(self, inp: Path) -> None:
        """Generate the seeded controller and every config into ``inp``."""
        inp.mkdir(parents=True, exist_ok=True)
        spec = self.oracle_spec()
        _dump(inp / "controller.json", spec)
        oracle = {"kind": "subprocess",
                  "argv": [sys.executable, str(ORACLE), str(inp / "controller.json"),
                           str(inp / "oracle_counts.jsonl")]}
        for name, cfg in self.configs(oracle, spec).items():
            _dump(inp / f"{name}.json", cfg)
        self.spec = spec

    # -- the op ---------------------------------------------------------------

    def steps(self, inp: Path, out: Path) -> list[tuple[str, list[str], tuple[int, ...]]]:
        """CLI steps as (label, argv, accepted exit codes)."""
        raise NotImplementedError

    def api(self, out: Path, rec: dict) -> None:
        """Steps that have no subcommand; none by default."""

    def op(self, cli, out: Path, tracer) -> dict:
        """Run the chain once into ``out``; returns what the checks need."""
        rec: dict = {"exit": {}, "failures": []}
        for label, argv, accepted in self.steps(self.inp, out):
            sink = io.StringIO()
            with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(sink):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            rec["exit"][label] = code
            if code not in accepted:
                rec["failures"].append(f"{label}: exit {code}, expected {accepted}")
                return rec
        self.api(out, rec)
        return rec

    # -- checks ---------------------------------------------------------------

    def check(self, out: Path, rec: dict) -> list[str]:
        """Failed output checks of one op, as messages."""
        raise NotImplementedError

    @staticmethod
    def must_pass(out: Path, stems: list[str]) -> list[str]:
        return [f"{s}: report does not pass" for s in stems if not _report(out, s)["pass"]]

    def neurons(self, out: Path) -> int:
        """ReLU neurons of the produced networks, from their descriptors."""
        total = 0
        for stem in ("compile_report", "sysid_report"):
            if (out / f"{stem}.json").exists():
                desc = _report(out, stem)["results"]["descriptor"]
                total += sum(o["neurons"] for o in desc["per_output"])
        return total


class Synth2d(Workload):
    """Compile and lattice eval on a 2-D grid; no dynamics."""

    name = "synth-2d"

    @property
    def eta(self) -> float:
        return 0.25 if self.tiny else 0.05

    def oracle_spec(self) -> dict:
        return controllers.sinusoid_spec(self.seed, 2)

    def configs(self, oracle, spec):
        base = {
            "budget": {"k_x": 1.0, "k_u": 1.0, "k_cont": spec["k_cont"], "tau": 0.1,
                       "delta": 0.05, "exponent_multiplier": 3},
            "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            "eta": self.eta, "m": 1, "oracle": oracle,
            "probes": {"per_axis": _axis_count(1.0, self.eta)},
        }
        return {"config": base, "continuity": {"probes": {"per_axis": 3}}}

    def steps(self, inp, out):
        cfg, it, net, o = str(inp / "config.json"), str(out / "interpolant.json"), \
            str(out / "network.json"), str(out)
        return [
            ("size", ["size", "--config", cfg, "--out", o], (0,)),
            ("build", ["build", "--config", cfg, "--out", o], (0,)),
            ("compile", ["compile", it, "--out", o], (0,)),
            ("tll-equiv", ["verify", it, "--which", "tll-equiv", "--network", net,
                           "--config", cfg, "--out", o], (0,)),
            ("regions", ["verify", it, "--which", "regions", "--network", net,
                         "--out", o], (0,)),
            ("continuity", ["verify", it, "--which", "continuity",
                            "--config", str(inp / "continuity.json"), "--out", o], (0,)),
        ]

    def check(self, out, rec):
        bad = self.must_pass(out, ["verify_tll_equiv_report", "verify_regions_report",
                                   "verify_continuity_report"])
        c = _axis_count(1.0, self.eta)
        build = _report(out, "build_report")["results"]
        if (build["num_grid_points"], build["num_simplexes"]) != (c * c, 2 * (c + 1) ** 2):
            bad.append(f"build: grid sizes {build['num_grid_points']}, "
                       f"{build['num_simplexes']} do not match the covering rule")
        desc = _report(out, "compile_report")["results"]["descriptor"]
        if any(o["N"] > desc["bound_n"] for o in desc["per_output"]):
            bad.append("compile: bank size exceeds the size bound")
        return bad


class Interp4d(Workload):
    """Grid, interpolation and audits on a 4-D grid; no lattice."""

    name = "interp-4d"

    @property
    def eta(self) -> float:
        return 0.5 if self.tiny else 0.125

    def oracle_spec(self) -> dict:
        return controllers.sinusoid_spec(self.seed, 4)

    def configs(self, oracle, spec):
        return {"config": {
            "budget": {"k_x": 1.0, "k_u": 1.0, "k_cont": spec["k_cont"], "tau": 0.1,
                       "delta": 0.05, "exponent_multiplier": 3},
            "domain": {"lower": [0.0] * 4, "upper": [1.0] * 4},
            "eta": self.eta, "m": 1, "oracle": oracle,
            # the guarantee the interpolant carries: sup error <= 3 K eta
            "mu": 3.0 * spec["k_cont"] * self.eta,
            "probes": {"per_axis": _axis_count(1.0, self.eta)},
        }}

    def steps(self, inp, out):
        cfg, it, o = str(inp / "config.json"), str(out / "interpolant.json"), str(out)
        return [
            ("grid", ["grid", "--config", cfg, "--out", o], (0,)),
            ("build", ["build", "--config", cfg, "--out", o], (0,)),
            ("lipschitz", ["verify", it, "--which", "lipschitz", "--config", cfg,
                           "--out", o], (0,)),
            ("approx", ["verify", it, "--which", "approx", "--config", cfg, "--out", o], (0,)),
        ]

    def check(self, out, rec):
        bad = self.must_pass(out, ["verify_lipschitz_report", "verify_approx_report"])
        c = _axis_count(1.0, self.eta)
        grid = _report(out, "grid_report")["results"]
        if (grid["num_points"], grid["num_hypercubes"]) != (c ** 4, (c + 1) ** 4):
            bad.append("grid: sizes do not match the covering rule")
        build = _report(out, "build_report")["results"]
        if build["num_simplexes"] != 24 * (c + 1) ** 4:
            bad.append("build: simplex count is not 4! per hypercube")
        return bad


class ClosedLoop(Workload):
    """Pendulum loop: audits, identification, and the sampled embedding."""

    name = "closed-loop"
    # budget of acceptance criterion 6: eta = 0.346 on the pendulum box
    BUDGET = {"k_x": 1.5, "k_u": 1.0, "k_cont": 1.0, "tau": 0.25, "delta": 0.8,
              "exponent_multiplier": 3}

    def oracle_spec(self) -> dict:
        return controllers.saturating_spec(self.seed)

    def configs(self, oracle, spec):
        per_axis = 3 if self.tiny else 7
        return {
            "config": {"budget": self.BUDGET, "m": 1, "oracle": oracle,
                       "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}},
            "audit": {"model": "pendulum", "budget": self.BUDGET, "oracle": oracle,
                      "probes": {"per_axis": per_axis}},
            # eta of acceptance criterion 9
            "sysid": {"model": "pendulum", "budget": self.BUDGET, "eta": 0.6875},
        }

    def steps(self, inp, out):
        cfg, aud, o = str(inp / "config.json"), str(inp / "audit.json"), str(out)
        net = str(out / "network.json")
        return [
            ("size", ["size", "--config", cfg, "--out", o], (0,)),
            ("build", ["build", "--config", cfg, "--out", o], (0,)),
            ("compile", ["compile", str(out / "interpolant.json"), "--out", o], (0,)),
            ("export", ["export", net, "--expanded", "--out", o], (0,)),
            ("gronwall", ["audit", "--which", "gronwall", "--network", net,
                          "--config", aud, "--out", o], (0,)),
            # no independent answer: the verdict is recorded, not checked
            ("invariance", ["audit", "--which", "invariance", "--network", net,
                            "--config", aud, "--out", o], (0, 1)),
            ("sysid", ["sysid", "--config", str(inp / "sysid.json"), "--out", o], (0,)),
            ("audit-sysid", ["audit", "--which", "sysid", "--network",
                             str(out / "sysid_network.json"), "--config", aud,
                             "--out", o], (0,)),
        ]

    def api(self, out, rec):
        """tau-sampled embeddings of the network and controller loops, then
        ADS, set up as in the package's sampled-loop simulation test."""
        from tllsynth import dynamics, serialize, tll
        from tllsynth.dynamics import transition

        budget = self.BUDGET
        eta = float.fromhex(_report(out, "build_report")["results"]["eta"])
        model = dynamics.builtin_models()["pendulum"]
        net = tll.import_network(serialize.load_json(str(out / "network.json")))
        spec = self.spec
        per_axis = 3 if self.tiny else 15
        axis = np.linspace(-0.7, 0.7, per_axis)
        samples = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        tau = budget["tau"]
        ts_up = transition.embed_tau_sampled(
            model, lambda x: net.eval_batch(np.atleast_2d(x)), samples, tau=tau,
            step=tau / 100.0, snap_tol=eta / 10)
        ts_psi = transition.embed_tau_sampled(
            model, lambda x: controllers.evaluate(spec, x), samples, tau=tau,
            step=tau / 100.0, snap_tol=eta / 10, extra_states=ts_up.coords)
        verdict = transition.check_ads(ts_up, transition.perturb(ts_psi, budget["delta"]), 0.0)
        rec["ads_holds"] = verdict.holds
        rec["invariance_holds"] = rec["exit"].get("invariance") == 0

    def check(self, out, rec):
        bad = self.must_pass(out, ["audit_gronwall_report", "audit_sysid_report"])
        if not rec.get("ads_holds"):
            bad.append("check_ads: sampled loop is not delta-simulated by the reference")
        relu = json.loads((out / "relu.json").read_text(encoding="utf-8"))
        lattice = json.loads((out / "network.json").read_text(encoding="utf-8"))
        rng = np.random.default_rng(self.seed)
        axis = np.linspace(-1.0, 1.0, 9)
        X = np.vstack([np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2),
                       rng.uniform(-1.0, 1.0, (200, 2))])
        want = eval_lattice_json(lattice, X)
        gap = float(np.abs(eval_relu_json(relu, X) - want).max())
        if not gap <= 1e-9 * max(1.0, float(np.abs(want).max())):
            bad.append(f"export --expanded: ReLU layers differ from the lattice by {gap:.3e}")
        return bad


WORKLOADS = {w.name: w for w in (Synth2d, Interp4d, ClosedLoop)}


def read_oracle_counts(inp: Path) -> tuple[int, int]:
    """Batches and points the oracle children served since the last read."""
    path = inp / "oracle_counts.jsonl"
    if not path.exists():
        return 0, 0
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    os.remove(path)
    return sum(r["batches"] for r in rows), sum(r["points"] for r in rows)
