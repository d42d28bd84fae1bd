"""The traced benchmark run patches package functions by the names listed
in ``bench/spans.py``; every one of them must still resolve, and the counts
it reads off their results must still read."""

import hashlib
import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from tllsynth import (
    Box,
    builtin_models,
    check_ads,
    embed_tau_sampled,
    import_network,
    linear_1d,
    perturb,
)
from tllsynth import cli
from tllsynth.cli import main
from tllsynth.serialize import load_json

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
# sha256 of every output of each workload's seed-7 --tiny op (_digests)
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def _load_bench(stem):
    # workloads.py imports its sibling controllers.py as a top-level module
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec = importlib.util.spec_from_file_location(f"bench_{stem}", BENCH_DIR / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module


def _load_spans():
    return _load_bench("spans")


def test_span_targets_resolve():
    spans = _load_spans()
    assert spans.SPANS
    for name, (targets, _) in spans.SPANS.items():
        for target in targets:
            module, _, attr = target.partition(":")
            owner = importlib.import_module(module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            # the tracer reads the attribute from the owner's own namespace
            assert attr in vars(owner), f"span {name}: {target} does not resolve"


def test_dynamics_counters_read_real_results():
    spans = _load_spans()
    model = linear_1d(a=-1.0, b=0.0)
    controller = lambda x: np.zeros_like(x)
    samples = np.linspace(-1.0, 1.0, 5)[:, None]
    ts = embed_tau_sampled(model, controller, samples, tau=0.5, step=0.05)
    _, embed_counts = spans.SPANS["dynamics.transition.embed"]
    assert embed_counts((model, controller, samples), {"tau": 0.5, "step": 0.05}, ts) == {
        "dynamics.transition.states": ts.num_states,
        "dynamics.transition.transitions": len(ts.transitions),
    }

    # called as the closed-loop workload calls it: left, perturbed right, 0.0
    args = (ts, perturb(ts, 0.3), 0.0)
    verdict = check_ads(*args)
    _, ads_counts = spans.SPANS["dynamics.transition.check_ads"]
    counts = ads_counts(args, {}, verdict)
    assert verdict.holds
    assert counts["dynamics.transition.relation_pairs"] == len(verdict.relation.pairs)
    # only coincident states pair up at delta 0, and every state is distinct
    assert counts["dynamics.transition.seed_pairs"]() == ts.num_states


def _negative_zeros(relu):
    """The -0.0 entries of every ``W``, ``c``, ``out_w`` and ``out_b``."""
    arrays = [a for layer in relu["layers"] for a in (layer["W"], layer["c"])]
    values = [float.fromhex(v) for a in arrays + [relu["out_w"], relu["out_b"]]
              for v in np.ravel(a).tolist()]
    return [v for v in values if v == 0 and math.copysign(1.0, v) < 0]


def test_bench_readers_agree_with_the_lattice(tmp_path):
    # the benchmark checks its outputs with its own readers of network.json
    # and relu.json; run them on the README example's files and on the
    # 2-output pendulum surrogate of sysid, whose later layers are block-diagonal
    workloads = _load_bench("workloads")
    readme = {
        "budget": {"k_x": 1.0, "k_u": 1.0, "k_cont": 1.0, "tau": 0.1,
                   "delta": 0.05, "exponent_multiplier": 2},
        "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "m": 1,
        "oracle": {"kind": "builtin", "name": "affine", "W": [[0.5, -0.25]], "b": [0.1]},
    }
    cfg, sid, out = tmp_path / "config.json", tmp_path / "sysid.json", str(tmp_path / "run")
    cfg.write_text(json.dumps(readme), encoding="utf-8")
    sid.write_text(json.dumps({"model": "pendulum", "eta": 0.6875}), encoding="utf-8")
    assert main(["build", "--config", str(cfg), "--out", out]) == 0
    assert main(["compile", f"{out}/interpolant.json", "--out", out]) == 0
    assert main(["sysid", "--config", str(sid), "--out", out]) == 0
    pend = builtin_models()["pendulum"]
    rng = np.random.default_rng(5)
    for name, box, m in (("network", Box([0.0, 0.0], [1.0, 1.0]), 1),
                         ("sysid_network", pend.x_box.product(pend.u_box), 2)):
        exported = tmp_path / name
        assert main(["export", f"{out}/{name}.json", "--expanded", "--out", str(exported)]) == 0
        relu = (exported / "relu.json").read_text(encoding="utf-8")
        assert not _negative_zeros(json.loads(relu))
        network = load_json(f"{out}/{name}.json")
        axes = [np.linspace(lo, hi, 9) for lo, hi in zip(box.lower, box.upper)]
        X = np.vstack([np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, box.dimension),
                       rng.uniform(box.lower, box.upper, (200, box.dimension))])
        want = import_network(network).eval_batch(X)
        assert want.shape == (X.shape[0], m)
        for got in (workloads.eval_lattice_json(network, X),
                    workloads.eval_relu_json(json.loads(relu), X)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-9 * max(1.0, float(np.abs(want).max()))
    # the surrogate's expansion: both outputs' trees, one level per layer
    shapes = load_json(str(tmp_path / "sysid_network" / "export_report.json"))["results"]["shapes"]
    assert len(shapes) == 10 and sum(w for _, w in shapes[:-1]) == 778


def _content(obj):
    """``obj`` without its ``timing`` and ``config`` keys, at every depth:
    the run's clock and the echoed inputs, whose oracle ``argv`` holds the
    run's absolute paths."""
    if isinstance(obj, dict):
        return {k: _content(v) for k, v in obj.items() if k not in ("timing", "config")}
    if isinstance(obj, list):
        return [_content(v) for v in obj]
    return obj


def _digests(out):
    """sha256 of each output file's canonical JSON content, by file name."""
    digests = {}
    for path in sorted(out.glob("*.json")):
        text = json.dumps(_content(load_json(str(path))), sort_keys=True, separators=(",", ":"))
        digests[path.name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def _tiny_op(tmp_path, monkeypatch, name):
    """One seed-7 --tiny op of the workload ``name``, in-process, into
    ``tmp_path / "op"``: the workload, the output directory and the op's
    record."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")      # as bench/run.py sets it for the oracle child
    workloads, spans = _load_bench("workloads"), _load_spans()
    wl = workloads.WORKLOADS[name](7, True)
    wl.inp = tmp_path / "inputs"
    wl.write_inputs(wl.inp)
    out = tmp_path / "op"
    return wl, out, wl.op(cli, out, spans.NullTracer())


@pytest.mark.parametrize("name", ["synth-2d", "interp-4d", "closed-loop"])
def test_tiny_workload_op_passes_its_own_checks(tmp_path, monkeypatch, name):
    # one --tiny op of each workload, in-process, checked as the benchmark
    # checks it: a change that breaks the benchmark's chain fails here.  Its
    # outputs must also have the content recorded in digests.json; a change
    # that alters them on purpose records the new digests there
    wl, out, rec = _tiny_op(tmp_path, monkeypatch, name)
    assert rec["failures"] == []
    assert wl.check(out, rec) == []
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    got = _digests(out)
    assert got == want, f"{name} outputs changed: {json.dumps(got, indent=1)}"


@pytest.mark.parametrize("name", ["synth-2d", "interp-4d", "closed-loop"])
def test_tiny_workload_files_are_the_canonical_encoding(tmp_path, monkeypatch, name):
    # _digests hashes parsed content, so it cannot see the writer's bytes:
    # every file the op writes must be its own content's canonical encoding
    _, out, rec = _tiny_op(tmp_path, monkeypatch, name)
    assert rec["failures"] == []
    paths = sorted(out.iterdir())
    assert [path.suffix for path in paths] == [".json"] * len(paths) and len(paths) > 5
    for path in paths:
        text = path.read_bytes()
        canonical = json.dumps(json.loads(text), separators=(",", ":"), sort_keys=True) + "\n"
        assert text == canonical.encode("utf-8"), path.name
