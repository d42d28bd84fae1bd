"""Command-line orchestration over JSON configuration and report files.

Subcommands chain the library end to end: ``size`` (budget formulas),
``grid`` (eta grid construction), ``build`` (sample an oracle into an
interpolant), ``compile`` (interpolant to lattice network), ``verify``
(artifact audits), ``audit`` (closed-loop audits), ``ads-check``
(approximate simulation between transition-system files), ``sysid``
(field-surrogate pipeline), and ``export`` (network re-emission or
explicit ReLU layers).

Exit codes: 0 pass, 1 audit failure, 2 configuration error, 3 numerical
error or exhausted memory.  Reports are deterministic for a fixed config
and seed except for the ``timing`` block.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import select
import subprocess
import sys
import time

import numpy as np

from . import __version__
from .cpwa import (
    REL_TOL,
    BatchOracle,
    CpwaInterpolant,
    build_interpolant,
    check_oracle_reply,
    continuity_audit,
    lipschitz_audit,
    power_of_two_scale,
    region_count,
    sample_controller,
    value_scale,
)
from .dynamics import (
    ControlSystemModel,
    FiniteTransitionSystem,
    builtin_models,
    check_ads,
    check_delta_tau_invariance,
    deviation_audit,
    sysid_deviation_audit,
)
from .errors import (
    BoundViolated,
    BudgetExceeded,
    ConfigError,
    DimensionMismatch,
    DiscontinuityDetected,
    EmptySelector,
    InvariantViolation,
    NonFiniteState,
    OracleFailure,
    OutsideDomain,
)
from .geometry import Box, build_eta_grid, extra_corners, interpolation_hypercubes
from .probes import build_probes
from .serialize import dump_json, float_to_hex, hex_or_none, load_json, rows_to_hex, vec_to_hex
from .sizing import (
    SpecBudget,
    compute_sizing,
    controller_size,
    hypercube_count_bound,
    mu_max,
)
from .tll import (
    SHAPE_CONVENTION,
    arch_descriptor,
    compile_tll,
    expand_relu_layers,
    export_network,
    import_network,
)

EXIT_PASS = 0
EXIT_AUDIT_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

# a guarantee that does not hold: the command's report fails with the message
_AUDIT_ERRORS = (BudgetExceeded, DiscontinuityDetected, BoundViolated)

# what else ends a command early, as (exceptions, exit code, stderr prefix);
# the first match wins, so the numerical row must precede ValueError, which
# OutsideDomain is
_EXIT_TABLE = (
    ((NonFiniteState, OracleFailure, OutsideDomain, FloatingPointError),
     EXIT_NUMERICAL_ERROR, "numerical error"),
    ((ValueError, OSError, EmptySelector, InvariantViolation), EXIT_CONFIG_ERROR, "config error"),
    (MemoryError, EXIT_NUMERICAL_ERROR, "out of memory"),
)


# -- configuration ------------------------------------------------------------


# subcommands that cannot run without --config
_NEEDS_CONFIG = frozenset({"size", "grid", "build", "audit", "sysid"})

# config keys no longer read, each with the derived value that replaced it; a
# config naming one exits 2, so no check runs other than the file asks
_RETIRED_KEYS = {
    "tolerances": f"each verify bound is {REL_TOL:g} times the output's value scale",
    "bound_n": "compile and verify regions use N of the interpolant's grid",
    "lipschitz_bound": "verify lipschitz checks 3 * K_cont of the interpolant",
    "k_upsilon": "the gronwall audit uses 3 * the budget's k_cont",
    "k_psi": "the sysid audit uses the budget's k_cont",
    "k_field": "sysid uses the model's k_x + k_u",
}


def _load_config(args) -> dict | None:
    """The ``--config`` object; None when the command was run without one."""
    path = getattr(args, "config", None)
    if not path:
        if args.command in _NEEDS_CONFIG:
            raise ConfigError("this command needs --config <file.json>")
        return None
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    for key, replacement in _RETIRED_KEYS.items():
        if key in obj:
            raise ConfigError(f"'{key}' is no longer read: {replacement}")
    return obj


def _number(obj: dict, key: str, default=None, kind=float):
    """``obj[key]`` as a ``kind``; ``default`` when the key is absent or null.
    Only a JSON integer is an int, and only an integer or a finite real is a
    float (booleans, strings, NaN and infinities are neither); anything else
    raises ``ConfigError``."""
    val = obj.get(key)
    if val is None:
        return default
    if isinstance(val, bool) or not isinstance(val, int if kind is int else (int, float)):
        raise ConfigError(f"'{key}' must be {'an integer' if kind is int else 'a number'}, "
                          f"got {val!r}")
    try:
        val = kind(val)
    except OverflowError as exc:
        raise ConfigError(f"'{key}' is out of range: {val!r}") from exc
    if kind is float and not math.isfinite(val):
        raise ConfigError(f"'{key}' must be finite, got {val!r}")
    return val


def _budget_from(cfg: dict) -> SpecBudget:
    b = cfg.get("budget")
    if not isinstance(b, dict):
        raise ConfigError("config needs a 'budget' object")
    vals = {key: _number(b, key) for key in ("k_x", "k_u", "k_cont", "tau", "delta")}
    for key, val in vals.items():
        if val is None:
            raise ConfigError(f"budget is missing '{key}'")
    return SpecBudget(**vals, exponent_multiplier=_number(b, "exponent_multiplier", 3, int))


def _box_from(cfg: dict, key: str) -> Box:
    d = cfg.get(key)
    if not isinstance(d, dict) or "lower" not in d or "upper" not in d:
        raise ConfigError(f"config needs a '{key}' box with 'lower' and 'upper'")
    return Box(d["lower"], d["upper"])


def _optional_box(cfg: dict, key: str, default: Box | None) -> Box | None:
    """The ``key`` box when the config has that key at all, else ``default``."""
    return _box_from(cfg, key) if key in cfg else default


def _model_from(cfg: dict) -> ControlSystemModel:
    name = cfg.get("model")
    if not isinstance(name, str):
        raise ConfigError("config needs a 'model' name")
    catalog = builtin_models()
    if name not in catalog:
        raise ConfigError(f"unknown model '{name}'; available: {sorted(catalog)}")
    return catalog[name]


def _bound(cfg: dict, key: str) -> float | None:
    """``_number(cfg, key)`` as a bound some result can meet: not negative."""
    val = _number(cfg, key)
    if val is not None and val < 0:
        raise ConfigError(f"'{key}' must be >= 0, got {val!r}")
    return val


def _resolve_eta(cfg: dict, domain: Box) -> float:
    """Explicit 'eta' wins; otherwise derive it from the budget chain."""
    eta = _number(cfg, "eta")
    if eta is not None:
        if not (eta > 0):
            raise ConfigError(f"eta must be strictly positive, got {eta}")
        return eta
    if "budget" not in cfg:
        raise ConfigError("config needs either 'eta' or a 'budget' to derive it")
    return compute_sizing(_budget_from(cfg), domain).eta


def _probe_settings(cfg: dict, args) -> tuple[int, int, int]:
    p = cfg.get("probes", {})
    if not isinstance(p, dict):
        raise ConfigError("'probes' must be an object")
    per_axis = _number(p, "per_axis", 5, int)
    random_count = _number(p, "random", 0, int)
    seed = args.seed if args.seed is not None else _number(p, "seed", 0, int)
    if per_axis < 1 or random_count < 0:
        raise ConfigError("probes need per_axis >= 1 and random >= 0")
    return per_axis, random_count, seed


# -- controller oracles --------------------------------------------------------


class _CsvOracle:
    """Lookup table from a CSV of rows x_1..x_n,u_1..u_m.

    A point's key is its coordinates rounded to 1e-12 of the table's
    ``power_of_two_scale`` s and multiplied back by s, so rows match their
    points at any scale; two rows with one key are a config error.
    """

    def __init__(self, path: str, n: int, m: int):
        self.n, self.m = n, m
        lines, rows = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or row[0].lstrip().startswith("#"):
                    continue
                if len(row) != n + m:
                    raise ConfigError(f"CSV oracle rows need {n + m} columns, got {len(row)}")
                lines.append(reader.line_num)
                rows.append([float(v) for v in row])
        if not rows:
            raise ConfigError(f"CSV oracle '{path}' holds no data rows")
        coords, controls = np.hsplit(np.array(rows), [n])
        if not np.isfinite(coords).all():
            raise ConfigError(f"CSV oracle '{path}' holds a non-finite coordinate")
        self.scale = power_of_two_scale(coords)
        self.table: dict[tuple, np.ndarray] = {}
        first: dict[tuple, int] = {}
        for line, key, u in zip(lines, self._keys(coords), controls):
            if key in first:
                raise ConfigError(f"CSV oracle '{path}' lines {first[key]} and {line} hold "
                                  f"the same point {list(key)}")
            first[key] = line
            self.table[key] = u

    def _keys(self, points: np.ndarray) -> list[tuple]:
        """The table keys of ``points`` (P, n)."""
        snapped = np.round(points / self.scale, 12) * self.scale + 0.0
        return list(map(tuple, snapped.tolist()))

    def __call__(self, points):
        """Controls at ``points`` (P, n), shape (P, m)."""
        points = np.asarray(points, dtype=float)
        rows = []
        for x, key in zip(points, self._keys(points)):
            hit = self.table.get(key)
            if hit is None:
                raise OracleFailure(f"CSV oracle has no row for point {x.tolist()}")
            rows.append(hit)
        return np.array(rows)


# seconds a subprocess oracle gets to answer one request, and to exit after
# its input closes; the most points one request line carries
_ORACLE_REPLY_WAIT_S = 60.0
_ORACLE_EXIT_WAIT_S = 10.0
_ORACLE_CHUNK_POINTS = 4096


class _SubprocessOracle:
    """Child process evaluated per batch over line-delimited JSON.

    Request: one line ``{"points": [[...], ...]}`` of at most
    ``_ORACLE_CHUNK_POINTS`` rows; a larger batch is sent as several
    requests in order.  Response: one line ``{"controls": [[...], ...]}``
    with its own request's row count, within ``_ORACLE_REPLY_WAIT_S`` of
    that request; a child that misses it is killed.  The child starts on
    the first request and serves every later one: once it has exited, each
    call is an ``OracleFailure``.
    """

    def __init__(self, argv: list[str], m: int):
        if not argv:
            raise ConfigError("subprocess oracle needs a nonempty argv list")
        self.argv, self.m = list(argv), m
        self.proc: subprocess.Popen | None = None
        self.pending = b""          # bytes read past the last reply line

    def _ensure(self) -> subprocess.Popen:
        """The child, started on first use; one that has exited is an error."""
        if self.proc is None:
            self.proc = subprocess.Popen(self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            os.set_blocking(self.proc.stdin.fileno(), False)    # writes wait in select
        elif self.proc.poll() is not None:
            raise OracleFailure(f"subprocess oracle exited with code {self.proc.returncode}")
        return self.proc

    def _exchange(self, proc: subprocess.Popen, request: bytes) -> bytes:
        """Write one request and read one reply line (empty at EOF) within
        the deadline; past it the child is killed and reaped."""
        deadline = time.monotonic() + _ORACLE_REPLY_WAIT_S
        out, inp = proc.stdout.fileno(), proc.stdin.fileno()
        while b"\n" not in self.pending:
            if request:
                try:
                    request = request[os.write(inp, request):]   # as much as the pipe takes
                except BlockingIOError:
                    pass
            left = deadline - time.monotonic()
            readable, writable, _ = select.select([out], [inp] if request else [], [],
                                                  max(left, 0.0))
            if not (readable or writable):
                proc.kill()
                proc.wait()
                raise OracleFailure(
                    f"subprocess oracle gave no reply within {_ORACLE_REPLY_WAIT_S:g} s")
            if readable:
                chunk = os.read(out, 1 << 16)
                if not chunk:
                    break
                self.pending += chunk
        line, _, self.pending = self.pending.partition(b"\n")
        return line

    def _request(self, proc: subprocess.Popen, points: np.ndarray) -> np.ndarray:
        """One request line for ``points`` and its checked (len(points), m) reply."""
        request = json.dumps({"points": points.tolist()}).encode() + b"\n"
        try:
            line = self._exchange(proc, request)
        except OSError as exc:
            raise OracleFailure(f"subprocess oracle pipe failed: {exc}") from exc
        if not line:
            raise OracleFailure("subprocess oracle closed its output stream")
        try:
            controls = json.loads(line)["controls"]
        except (KeyError, TypeError, ValueError) as exc:
            raise OracleFailure(f"subprocess oracle reply malformed: {exc}") from exc
        return check_oracle_reply(controls, points, self.m)

    def __call__(self, points):
        """Controls at ``points`` (P, n), shape (P, m)."""
        points = np.asarray(points, dtype=float)
        proc = self._ensure()
        return np.concatenate([self._request(proc, points[i:i + _ORACLE_CHUNK_POINTS])
                               for i in range(0, len(points), _ORACLE_CHUNK_POINTS)])

    def close(self) -> None:
        """End the child and its pipes; one that outstays the wait after EOF
        is killed."""
        if self.proc is None:
            return
        with contextlib.suppress(BrokenPipeError):  # a child that died unread
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=_ORACLE_EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _builtin_oracle(name: str, params: dict, n: int, m: int):
    if name == "zero":
        return lambda x: np.zeros(np.shape(x)[:-1] + (m,))
    if name == "affine":
        W = np.asarray(params.get("W"), dtype=float)
        b = np.asarray(params.get("b", np.zeros(W.shape[0] if W.ndim == 2 else 1)),
                       dtype=float)
        if W.ndim != 2 or W.shape != (m, n) or b.shape != (m,):
            raise ConfigError(f"affine oracle needs W of shape ({m}, {n}) and b of shape ({m},)")
        return lambda x: np.asarray(x, dtype=float) @ W.T + b
    raise ConfigError(f"unknown builtin oracle '{name}'")


@contextlib.contextmanager
def _closing(oracle):
    """Yield a resolved controller; a subprocess oracle is closed on exit."""
    try:
        yield oracle
    finally:
        if isinstance(oracle, _SubprocessOracle):
            oracle.close()


def _resolve_oracle(cfg: dict, n: int, m: int):
    spec = cfg.get("oracle")
    if spec is None:
        raise ConfigError("config needs an 'oracle' (builtin | csv | subprocess)")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("'oracle' must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "builtin":
        return _builtin_oracle(spec.get("name", ""), spec, n, m)
    if kind == "csv":
        if "path" not in spec:
            raise ConfigError("csv oracle needs a 'path'")
        return _CsvOracle(spec["path"], n, m)
    if kind == "subprocess":
        return _SubprocessOracle(spec.get("argv", []), m)
    raise ConfigError(f"unknown oracle kind '{kind}'")


# -- report plumbing -----------------------------------------------------------


def _emit(args, results: dict, passed: bool, config_echo: dict | None,
          started: float) -> int:
    """Write the command's report into ``--out``; its exit code.  The file
    is named by the command and, for ``verify`` and ``audit``, the check,
    which the results then carry as ``which``."""
    stem = args.command
    if hasattr(args, "which"):
        stem = f"{stem}_{args.which}"
        results = {"which": args.which, **results}
    report = {
        "command": args.command,
        "version": __version__,
        "pass": bool(passed),
        "seed": getattr(args, "seed", None),
        "config": config_echo,
        "results": results,
        "timing": {"seconds": round(time.monotonic() - started, 6)},
    }
    name = _write_artifact(args, f"{stem.replace('-', '_')}_report.json", report)
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {args.command}: report written to {os.path.join(args.out, name)}")
    return EXIT_PASS if passed else EXIT_AUDIT_FAILURE


def _write_artifact(args, name: str, obj: dict) -> str:
    """Write ``obj`` as ``name`` into ``--out``; ``name``, which reports
    carry so that they do not depend on where ``--out`` is."""
    os.makedirs(args.out, exist_ok=True)
    dump_json(obj, os.path.join(args.out, name))
    return name


def _load_interpolant(path: str) -> CpwaInterpolant:
    return CpwaInterpolant.from_json(load_json(path))


def _load_network(path: str, n: int, m: int, what: str):
    """A network file that must map R^n to R^m, as ``what`` needs."""
    net = import_network(load_json(path))
    if (net.n, net.m) != (n, m):
        raise DimensionMismatch(f"network maps R^{net.n} to R^{net.m}; {what} needs "
                                f"R^{n} to R^{m}")
    return net


# -- subcommands ----------------------------------------------------------------


def cmd_size(args, cfg: dict) -> tuple[dict, bool]:
    budget = _budget_from(cfg)
    domain = _box_from(cfg, "domain")
    sizing = compute_sizing(budget, domain, _optional_box(cfg, "input_box", None),
                            _number(cfg, "eta"))
    results = sizing.to_json()
    holds = all(entry.get("holds", True) for entry in sizing.audit)
    return results, holds


def cmd_grid(args, cfg: dict) -> tuple[dict, bool]:
    domain = _box_from(cfg, "domain")
    eta = _resolve_eta(cfg, domain)
    grid = build_eta_grid(domain, eta)
    cubes = interpolation_hypercubes(grid)
    extras = extra_corners(grid)
    bound = hypercube_count_bound(grid.dimension, domain.extent(), eta)
    results = {
        "eta": float_to_hex(eta),
        "axis_counts": list(grid.axis_counts),
        "num_points": grid.num_points,
        "num_hypercubes": len(cubes),
        "hypercube_count_bound": bound,
        "num_extra_corners": len(extras),
        "grid_file": _write_artifact(args, "grid.json", grid.to_json()),
    }
    return results, len(cubes) <= bound


def cmd_build(args, cfg: dict) -> tuple[dict, bool]:
    domain = _box_from(cfg, "domain")
    eta = _resolve_eta(cfg, domain)
    m = _number(cfg, "m", 1, int)
    if m < 1:
        raise ConfigError(f"m must be a positive output count, got {m}")
    if "budget" in cfg:
        budget = cfg["budget"]
        if not isinstance(budget, dict) or budget.get("k_cont") is None:
            raise ConfigError("config 'budget' must be an object with a 'k_cont'")
        k_cont = _bound(budget, "k_cont")
    else:
        k_cont = _bound(cfg, "k_cont")
    grid = build_eta_grid(domain, eta)
    with _closing(_resolve_oracle(cfg, grid.dimension, m)) as oracle:
        omega = sample_controller(BatchOracle(oracle), grid, m)
    interp = build_interpolant(grid, omega, k_cont)
    results = {
        "eta": float_to_hex(eta),
        "num_grid_points": grid.num_points,
        "num_simplexes": interp.num_simplexes,
        "outputs": m,
        "k_cont": hex_or_none(k_cont),
        "interpolant_file": _write_artifact(args, "interpolant.json", interp.to_json()),
    }
    return results, True


def cmd_compile(args, cfg: dict) -> tuple[dict, bool]:
    interp = _load_interpolant(args.artifact)
    net = compile_tll(interp)
    results = {
        "descriptor": arch_descriptor(net),
        "network_file": _write_artifact(args, "network.json", export_network(net)),
        "provenance": {
            "eta": hex_or_none(net.provenance.get("eta")),
            "k_cont": hex_or_none(net.provenance.get("k_cont")),
            "bound_n": net.provenance.get("bound_n"),
        },
    }
    return results, True


def _verify_approx(args, cfg, interp) -> tuple[dict, bool]:
    mu = _bound(cfg, "mu")
    if mu is None:
        if "budget" not in cfg:
            raise ConfigError("approx verification needs 'mu' or a 'budget'")
        mu = mu_max(_budget_from(cfg))
    oracle = _resolve_oracle(cfg, interp.n, interp.m)
    per_axis, random_count, seed = _probe_settings(cfg, args)
    probes = build_probes(interp.grid.domain, per_axis, random_count, seed)
    with _closing(oracle):
        want = check_oracle_reply(oracle(probes.points), probes.points, interp.m)
    got = interp.eval_batch(probes.points)
    value = float(np.abs(got - want).max())
    passed = value <= mu
    return {
        "metric": "sup-norm approximation error",
        "value": float_to_hex(value),
        "bound": float_to_hex(mu),   # +inf at k_u = 0, which JSON cannot hold
        "pass": passed,
        "probe_spec": probes.spec,
        "seed": probes.seed,
    }, passed


def cmd_verify(args, cfg: dict) -> tuple[dict, bool]:
    interp = _load_interpolant(args.artifact)
    which = args.which
    if which == "approx":
        results, passed = _verify_approx(args, cfg, interp)
    elif which == "lipschitz":
        rep = lipschitz_audit(interp)
        results = {"metric": "max piece gradient dual norm",
                   "value": rep.value, "bound": rep.bound, "pass": True}
        passed = True
    elif which == "continuity":
        results = {"metric": "face jump bound (2 x max vertex residual) / value scale",
                   "value": continuity_audit(interp), "bound": REL_TOL, "pass": True}
        passed = True
    elif which == "tll-equiv":
        if not args.network:
            raise ConfigError("tll-equiv verification needs --network <file>")
        net = _load_network(args.network, interp.n, interp.m, "the interpolant")
        per_axis, random_count, seed = _probe_settings(cfg, args)
        probes = build_probes(interp.grid.domain, per_axis, random_count, seed)
        gaps = np.abs(net.eval_batch(probes.points) - interp.eval_batch(probes.points))
        scale = [value_scale(interp, j) for j in range(interp.m)]
        gap = float((gaps.max(axis=0) / scale).max())
        passed = gap <= REL_TOL
        results = {"metric": "max lattice-vs-interpolant gap / value scale", "value": gap,
                   "bound": REL_TOL, "pass": passed, "probe_spec": probes.spec,
                   "seed": probes.seed}
    else:  # regions
        counts = region_count(interp)
        bound = controller_size(interp.n, interp.grid.domain.extent(), interp.grid.eta)
        bank_sizes = None
        if args.network:
            net = _load_network(args.network, interp.n, interp.m, "the interpolant")
            bank_sizes = [lat.size for lat in net.outputs]
        passed = all(c <= bound for c in counts + (bank_sizes or []))
        results = {"metric": "distinct affine regions per output",
                   "value": counts, "bank_sizes": bank_sizes,
                   "bound": bound, "pass": passed}
    return results, passed


def _controller_from_args(args, cfg, model):
    """Controller for closed-loop audits: compiled network file if given,
    which must map the model's states to its controls, else the configured
    oracle."""
    if args.network:
        return _load_network(args.network, model.n, model.m, f"the model {model.name}")
    if cfg.get("oracle") is not None:
        return _resolve_oracle(cfg, model.n, model.m)
    raise ConfigError("audit needs --network or an 'oracle' in the config")


def cmd_audit(args, cfg: dict) -> tuple[dict, bool]:
    model = _model_from(cfg)
    budget = _budget_from(cfg)
    per_axis, random_count, seed = _probe_settings(cfg, args)
    step = _number(cfg, "step")
    if args.which == "invariance":
        with _closing(_controller_from_args(args, cfg, model)) as controller:
            report = check_delta_tau_invariance(
                model, controller, budget.delta, budget.tau, per_axis, step
            )
    else:
        if not args.network:
            raise ConfigError(f"{args.which} audit needs --network (the compiled "
                              "controller for gronwall, the field surrogate for sysid)")
        if args.which == "sysid":
            net = _load_network(args.network, model.n + model.m, model.n,
                                f"a field surrogate of {model.name}")
            surrogate = dataclasses.replace(
                model, name=model.name + "+surrogate",
                f=lambda x, u: net.eval_batch(np.concatenate([x, u], axis=-1)))
        else:
            net = _controller_from_args(args, cfg, model)
        probes = build_probes(_optional_box(cfg, "domain", model.x_box), per_axis,
                              random_count, seed)
        with _closing(_resolve_oracle(cfg, model.n, model.m)) as psi:
            if args.which == "gronwall":
                report = deviation_audit(
                    model, psi, net, budget.tau, step, probes.points,
                    k_upsilon=3.0 * budget.k_cont,
                    delta=budget.delta, probe_spec=probes.spec,
                )
            else:
                mu_pts = build_probes(model.x_box.product(model.u_box), per_axis,
                                      random_count, seed)
                report = sysid_deviation_audit(
                    model, surrogate, psi, budget.tau, step, probes.points,
                    k_psi=budget.k_cont, mu_probes=mu_pts.points,
                    delta=budget.delta, probe_spec=probes.spec,
                )
    return report.to_json(), report.holds


def cmd_ads_check(args, cfg: dict) -> tuple[dict, bool]:
    ts_a = FiniteTransitionSystem.from_json(load_json(args.ts_a))
    ts_b = FiniteTransitionSystem.from_json(load_json(args.ts_b))
    if not (math.isfinite(args.delta) and args.delta >= 0):
        raise ConfigError(f"ads-check needs a finite --delta >= 0, got {args.delta!r}")
    verdict = check_ads(ts_a, ts_b, args.delta)
    results = verdict.to_json()
    results["num_states"] = [ts_a.num_states, ts_b.num_states]
    return results, verdict.holds


def cmd_sysid(args, cfg: dict) -> tuple[dict, bool]:
    model = _model_from(cfg)
    x_box = _optional_box(cfg, "domain", model.x_box)
    u_box = _optional_box(cfg, "input_box", model.u_box)
    xu = x_box.product(u_box)
    eta = _resolve_eta(cfg, xu)
    grid = build_eta_grid(xu, eta)
    n = model.n

    def field_oracle(z):
        return model.field(z[..., :n], z[..., n:])

    omega = sample_controller(BatchOracle(field_oracle), grid, n)
    interp = build_interpolant(grid, omega, model.k_x + model.k_u)
    net = compile_tll(interp)
    sizing = compute_sizing(_budget_from(cfg), x_box, u_box, eta) if "budget" in cfg else None
    results = {
        "model": model.name,
        "eta": float_to_hex(eta),
        "grid_points": grid.num_points,
        "size_bound": net.provenance["bound_n"],
        "bank_sizes": [lat.size for lat in net.outputs],
        "descriptor": arch_descriptor(net),
        "interpolant_file": _write_artifact(args, "sysid_interpolant.json", interp.to_json()),
        "network_file": _write_artifact(args, "sysid_network.json", export_network(net)),
    }
    if sizing is not None:
        results["deviation_budget"] = sizing.sysid["deviation_bound"]
    return results, True


def cmd_export(args, cfg: dict) -> tuple[dict, bool]:
    net = import_network(load_json(args.artifact))
    if args.expanded:
        relu = expand_relu_layers(net)
        obj = {
            "kind": "relu-layers",
            "shape_convention": SHAPE_CONVENTION,
            "layers": [
                {"W": rows_to_hex(W), "c": vec_to_hex(c)}
                for W, c in relu.layers
            ],
            "out_w": rows_to_hex(relu.out_w),
            "out_b": vec_to_hex(relu.out_b),
        }
        results = {
            "expanded": True,
            "shapes": relu.shapes(),
            "neurons": int(sum(W.shape[0] for W, _ in relu.layers)),
            "file": _write_artifact(args, "relu.json", obj),
        }
    else:
        results = {
            "expanded": False,
            "outputs": net.m,
            "bank_sizes": [lat.size for lat in net.outputs],
            "file": _write_artifact(args, "network_canonical.json", export_network(net)),
        }
    return results, True


# -- entry point ----------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, config: bool = True, seed: bool = False) -> None:
    """``--out``, plus ``--config`` and ``--seed`` for a subcommand that reads them."""
    if config:
        sub.add_argument("--config", help="JSON configuration file")
    if seed:
        sub.add_argument("--seed", type=int, default=None,
                         help="override the probe seed from the config")
    sub.add_argument("--out", default=".", help="output directory for artifacts/reports")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tllsynth",
        description="Provably sized lattice network synthesis and audits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("size", help="evaluate the budget and size formulas")
    _add_common(p)
    p.set_defaults(func=cmd_size)

    p = subs.add_parser("grid", help="construct the eta grid for a domain")
    _add_common(p)
    p.set_defaults(func=cmd_grid)

    p = subs.add_parser("build", help="sample an oracle into an interpolant")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("compile", help="compile an interpolant into a lattice network")
    p.add_argument("artifact", help="interpolant JSON file")
    _add_common(p, config=False)
    p.set_defaults(func=cmd_compile)

    p = subs.add_parser("verify", help="audit a built artifact")
    p.add_argument("artifact", help="interpolant JSON file")
    p.add_argument("--which", required=True,
                   choices=["approx", "lipschitz", "continuity", "tll-equiv", "regions"])
    p.add_argument("--network", help="network JSON file (tll-equiv, regions)")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("audit", help="closed-loop audits on a model")
    p.add_argument("--which", required=True, choices=["invariance", "gronwall", "sysid"])
    p.add_argument("--network", help="compiled network JSON file")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_audit)

    p = subs.add_parser("ads-check", help="approximate simulation between two systems")
    p.add_argument("ts_a", help="left transition-system JSON file")
    p.add_argument("ts_b", help="right transition-system JSON file")
    p.add_argument("--delta", type=float, required=True, help="disturbance bound")
    _add_common(p, config=False)
    p.set_defaults(func=cmd_ads_check)

    p = subs.add_parser("sysid", help="build a field surrogate over the state-input box")
    _add_common(p)
    p.set_defaults(func=cmd_sysid)

    p = subs.add_parser("export", help="re-emit a network, optionally as ReLU layers")
    p.add_argument("artifact", help="network JSON file")
    p.add_argument("--expanded", action="store_true",
                   help="materialize explicit ReLU layers")
    _add_common(p, config=False)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    """Run one subcommand on its ``--config``: its report and exit code, a
    failing report with the ``error`` for an ``_AUDIT_ERRORS`` guarantee
    that does not hold, or the ``_EXIT_TABLE`` code and a one-line message
    for what else ended it early."""
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        cfg = _load_config(args)
        try:
            results, passed = args.func(args, cfg or {})
        except _AUDIT_ERRORS as exc:
            results, passed = {"error": str(exc)}, False
        return _emit(args, results, passed, cfg, started)
    except Exception as exc:
        for kinds, code, prefix in _EXIT_TABLE:
            if isinstance(exc, kinds):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
