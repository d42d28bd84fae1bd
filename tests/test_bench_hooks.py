"""The traced benchmark run patches package functions by the names listed
in ``bench/spans.py``; every one of them must still resolve, and the counts
it reads off their results must still read."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from tllsynth import check_ads, embed_tau_sampled, linear_1d, perturb

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
