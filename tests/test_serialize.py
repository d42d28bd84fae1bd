"""The one JSON writer and the hex-float array path."""

import json
import math
import re
import struct

import numpy as np
import pytest

from test_tll import sinusoid_interpolant
from tllsynth import (
    CpwaInterpolant,
    FiniteTransitionSystem,
    compile_tll,
    export_network,
    import_network,
    serialize,
)
from tllsynth.geometry import EtaGrid
from tllsynth.serialize import dump_json, load_json, rows_to_hex, to_json_text, vec_to_hex

# signed zeros, the subnormal range, the float range's ends and non-finites
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
           1e308, -1e308, 1.7976931348623157e308, 0.1, -1.0 / 3.0,
           float("inf"), float("-inf"), float("nan")]


def _shortest(x: float) -> str:
    """The spelling rule: ``float.hex()`` without the fraction's trailing
    zeros, and without the point when no digit is left."""
    return re.sub(r"\.?0+p", "p", x.hex())


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_hex_is_the_shortest_exact_literal():
    rng = np.random.default_rng(15)
    finite = rng.integers(0, 2 ** 64, 10_000, dtype=np.uint64, endpoint=False).view(float)
    dyadic = rng.integers(-2 ** 20, 2 ** 20, 1_000) / 2.0 ** rng.integers(-40, 40, 1_000)
    x = np.concatenate([[0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1.7976931348623157e308],
                        SPECIAL, finite[np.isfinite(finite)], dyadic])
    want = [_shortest(v) for v in x.tolist()]
    assert want[:7] == ["0x0p+0", "-0x0p+0", "0x1p+0", "-0x1p+0", "0x1p-1",
                        "0x0.0000000000001p-1022", "0x1.fffffffffffffp+1023"]
    assert [_shortest(v) for v in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]
    assert [serialize.float_to_hex(v) for v in x] == want
    assert vec_to_hex(x) == want
    rows = x[:len(x) // 8 * 8].reshape(-1, 8)
    assert vec_to_hex(rows) == want[:rows.size]            # flattened
    assert rows_to_hex(rows) == [want[i:i + 8] for i in range(0, rows.size, 8)]
    for v, s in zip(x.tolist(), want):
        assert _bits(float.fromhex(s)) == _bits(v)
    assert vec_to_hex([1, -2]) == ["0x1p+0", "-0x1p+1"]
    assert rows_to_hex(np.empty((2, 0))) == [[], []]


def test_negative_zero_keeps_its_sign_among_zeros():
    x = np.zeros(64)
    x[[0, 37]] = -0.0    # before any 0.0, and after many
    want = ["-0x0p+0" if i in (0, 37) else "0x0p+0" for i in range(64)]
    assert vec_to_hex(x) == want
    assert rows_to_hex(x.reshape(8, 8)) == [want[i:i + 8] for i in range(0, 64, 8)]
    assert [serialize.float_to_hex(v) for v in x] == want


def test_writer_is_one_sorted_compact_line():
    obj = {"b": [1, {"d": "0x1.8000000000000p+0", "c": None}], "a": True}
    assert to_json_text(obj) == '{"a":true,"b":[1,{"c":null,"d":"0x1.8000000000000p+0"}]}\n'


def test_failed_encode_leaves_the_existing_file(tmp_path, monkeypatch):
    path = tmp_path / "network.json"
    dump_json({"old": [1, 2]}, str(path))
    before = path.read_bytes()

    def out_of_memory(obj):
        raise MemoryError("encoder")

    monkeypatch.setattr(serialize, "to_json_text", out_of_memory)
    with pytest.raises(MemoryError):
        dump_json({"new": 3}, str(path))
    assert path.read_bytes() == before


@pytest.fixture(scope="module")
def artifacts():
    """Each artifact kind's JSON form, loader and writer, by name."""
    interp = sinusoid_interpolant(1.0, k_cont=2.5)
    coords = np.array([[0.0, -0.0], [5e-324, 1e308], [-1.0 / 3.0, 0.1]])
    ts = FiniteTransitionSystem(coords, {(0, "u#a", 1), (1, "u#b", 2), (2, "u#a", 2)})
    return {
        "grid": (interp.grid.to_json(), EtaGrid.from_json, EtaGrid.to_json),
        "interpolant": (interp.to_json(), CpwaInterpolant.from_json, CpwaInterpolant.to_json),
        "network": (export_network(compile_tll(interp)), import_network, export_network),
        "transition-system": (ts.to_json(), FiniteTransitionSystem.from_json,
                              FiniteTransitionSystem.to_json),
    }


@pytest.mark.parametrize("name", ["grid", "interpolant", "network", "transition-system"])
def test_indented_files_of_the_older_layout_load_bitwise(tmp_path, artifacts, name):
    # the older writer indented every list element; readers ignore whitespace
    obj, load, write = artifacts[name]
    compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
    dump_json(obj, str(compact))
    indented.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert compact.read_text(encoding="utf-8").count("\n") == 1
    assert compact.stat().st_size < indented.stat().st_size
    again = [to_json_text(write(load(load_json(str(path))))) for path in (compact, indented)]
    assert again == [to_json_text(obj)] * 2


def _respell(obj, spell):
    """``obj`` with ``spell(v)`` for every hex string ``v``."""
    if isinstance(obj, dict):
        return {k: _respell(v, spell) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_respell(v, spell) for v in obj]
    if isinstance(obj, str) and (obj.lstrip("-").startswith("0x") or obj in ("inf", "nan")):
        return spell(float.fromhex(obj))
    return obj


# the arrays each artifact kind decodes to
_ARRAYS = {
    "grid": lambda g: [g.anchor, g.domain.lower, g.domain.upper, np.array([g.eta])],
    "interpolant": lambda i: [i.omega, i.grid.anchor, np.array([i.k_cont])],
    "network": lambda n: [a for lat in n.outputs for a in (lat.W, lat.b)],
    "transition-system": lambda t: [t.coords],
}


@pytest.mark.parametrize("name", ["grid", "interpolant", "network", "transition-system"])
def test_long_form_hex_files_load_bitwise(tmp_path, artifacts, name):
    # files written as float.hex() spells them, before the shortest form
    obj, load, write = artifacts[name]
    short, long = tmp_path / "short.json", tmp_path / "long.json"
    dump_json(obj, str(short))
    dump_json(_respell(obj, float.hex), str(long))
    assert long.stat().st_size > short.stat().st_size
    loaded = [load(load_json(str(path))) for path in (short, long)]
    pairs = zip(*(_ARRAYS[name](art) for art in loaded))
    assert all(a.tobytes() == b.tobytes() for a, b in pairs)
    assert to_json_text(write(loaded[1])) == to_json_text(obj) == short.read_text("utf-8")
