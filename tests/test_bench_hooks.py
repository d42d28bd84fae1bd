"""The traced benchmark run patches package functions by the names listed
in ``bench/spans.py``; every one of them must still resolve."""

import importlib
import importlib.util
from pathlib import Path

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
