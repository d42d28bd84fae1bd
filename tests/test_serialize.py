"""The one JSON writer and the hex-float array path."""

import json

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


def test_vec_to_hex_is_float_hex_element_by_element():
    rng = np.random.default_rng(15)
    x = np.concatenate([SPECIAL, rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, 50)])
    want = [float(v).hex() for v in x]
    assert vec_to_hex(x) == want
    assert vec_to_hex(x.reshape(8, 8)) == want          # flattened
    assert rows_to_hex(x.reshape(8, 8)) == [want[i:i + 8] for i in range(0, 64, 8)]
    assert vec_to_hex([1, -2]) == [float.hex(1.0), float.hex(-2.0)]
    assert rows_to_hex(np.empty((2, 0))) == [[], []]
    assert vec_to_hex(np.array([-0.0]))[0].startswith("-")


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
