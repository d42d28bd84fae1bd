"""End-to-end command-line tests: config plumbing, artifact chaining,
report determinism, and exit codes."""

import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from _oracles import brute_force_extra_values
from test_tll import sinusoid_interpolant
from tllsynth import (
    Box,
    CpwaInterpolant,
    ScalarLattice,
    TllNetwork,
    build_eta_grid,
    build_interpolant,
    builtin_models,
    cli,
    compile_tll,
    export_network,
    lipschitz_audit,
    sample_controller,
    sysid_size,
    tll,
)
from tllsynth.cli import main
from tllsynth.dynamics import FiniteTransitionSystem
from tllsynth.errors import DiscontinuityDetected, OracleFailure
from tllsynth.geometry import EtaGrid
from tllsynth.serialize import dump_json, load_json, rows_to_hex

AFFINE_W = [[0.5, -0.25]]
AFFINE_B = [0.1]


def _write_cfg(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def _report(out_dir, name):
    with open(out_dir / name) as fh:
        return json.load(fh)


def _size_cfg(**extra):
    cfg = {
        "budget": {"k_x": 1.0, "k_u": 1.0, "k_cont": 1.0, "tau": 0.1,
                   "delta": 0.05, "exponent_multiplier": 2},
        "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    }
    cfg.update(extra)
    return cfg


def _affine_build_cfg(oracle):
    return {
        "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "eta": 0.5,
        "m": 1,
        "k_cont": 2.0,
        "oracle": oracle,
    }


# -- size ----------------------------------------------------------------------


def test_size_reference_chain(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json", _size_cfg(
        input_box={"lower": [0.0], "upper": [1.0]}))
    assert main(["size", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = _report(tmp_path, "size_report.json")
    assert rep["command"] == "size"
    assert rep["pass"] is True
    assert set(rep) == {"command", "version", "pass", "seed",
                        "config", "results", "timing"}
    assert "seconds" in rep["timing"]
    res = rep["results"]
    assert res["controller_size"] == 242
    assert res["dimension"] == 2
    assert abs(float.fromhex(res["mu_max"]) - 0.37040911034085894) < 1e-12
    assert abs(float.fromhex(res["eta_max"]) - 0.12346970344695298) < 1e-12
    # joint box [0,1]^3 at the budgeted eta: 3! * ceil(1/eta + 2)^3
    assert res["sysid"]["size"] == 7986
    # every audit entry carries its formula alongside the value
    assert all("formula" in entry for entry in res["audit"])
    assert any(entry.get("quantity") == "defining_inequality"
               and entry["holds"] for entry in res["audit"])


def test_size_eta_override_small_instance(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "budget": {"k_x": 1.0, "k_u": 1.0, "k_cont": 1.0, "tau": 0.1,
                   "delta": 0.05, "exponent_multiplier": 2},
        "domain": {"lower": [0.0], "upper": [1.0]},
        "eta": 0.5,
    })
    assert main(["size", "--config", cfg, "--out", str(tmp_path)]) == 0
    res = _report(tmp_path, "size_report.json")["results"]
    assert res["controller_size"] == 4
    assert float.fromhex(res["eta_max"]) == 0.5


def test_size_nonpositive_delta_is_config_error(tmp_path):
    bad = _size_cfg()
    bad["budget"]["delta"] = 0.0
    cfg = _write_cfg(tmp_path / "cfg.json", bad)
    assert main(["size", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "size_report.json").exists()


def test_missing_and_malformed_config(tmp_path, capsys):
    for argv in (["size"], ["grid"], ["build"], ["audit", "--which", "invariance"], ["sysid"]):
        assert main(argv + ["--out", str(tmp_path)]) == 2, argv[0]
        assert "needs --config" in capsys.readouterr().err
    assert main(["size", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["size", "--config", str(broken), "--out", str(tmp_path)]) == 2


_NULL_K_X = {"k_x": None, "k_u": 1.0, "k_cont": 1.0, "tau": 0.1, "delta": 0.05}


_UNIT_DOMAIN = {"domain": {"lower": [0.0], "upper": [1.0]}}
_ZERO_APPROX = {"mu": 1e-9, "oracle": {"kind": "builtin", "name": "zero"}}


@pytest.mark.parametrize("command, cfg_obj", [
    ("size", _size_cfg(budget=_NULL_K_X)),
    ("size", _size_cfg(eta=[0.25])),
    ("grid", dict(_UNIT_DOMAIN, eta=[0.25])),
    ("grid", dict(_UNIT_DOMAIN, eta="0.25")),
    ("grid", dict(_UNIT_DOMAIN, eta=True)),
    ("grid", dict(_UNIT_DOMAIN, eta=10 ** 400)),   # an integer no float holds
    ("verify", {"tolerances": 5}),
    ("verify", {"tolerances": {"continuity": [1e-9]}}),
    ("verify", dict(_ZERO_APPROX, probes={"per_axis": [3]})),
    ("verify", dict(_ZERO_APPROX, mu=float("inf"))),   # JSON Infinity
    ("verify", dict(_ZERO_APPROX, mu=float("nan"))),   # JSON NaN
    ("verify", dict(_ZERO_APPROX, mu=-1)),             # a bound nothing meets
], ids=["size-null-k_x", "size-list-eta", "grid-list-eta", "grid-string-eta", "grid-bool-eta",
        "grid-huge-int-eta", "verify-scalar-tolerances", "verify-list-tolerance",
        "verify-list-per_axis", "verify-infinite-mu", "verify-nan-mu", "verify-negative-mu"])
def test_wrong_config_value_types_are_config_errors(tmp_path, command, cfg_obj):
    cfg = _write_cfg(tmp_path / "cfg.json", cfg_obj)
    argv = [command, "--config", cfg, "--out", str(tmp_path)]
    if command == "verify":
        out = _run_affine_chain(tmp_path, {"kind": "builtin", "name": "zero"})
        # only approx of these checks reads probes, and it needs mu and an oracle
        argv[1:1] = [str(out / "interpolant.json"), "--which",
                     "approx" if "mu" in cfg_obj else "continuity"]
    assert main(argv) == 2
    assert not list(tmp_path.glob("*_report.json"))


# -- grid ----------------------------------------------------------------------


def test_grid_writes_loadable_artifact(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "domain": {"lower": [0.0], "upper": [1.0]}, "eta": 0.25})
    assert main(["grid", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = _report(tmp_path, "grid_report.json")
    assert rep["results"]["num_points"] == 4
    assert rep["results"]["num_hypercubes"] == 5
    assert rep["results"]["num_hypercubes"] <= rep["results"]["hypercube_count_bound"]
    grid = EtaGrid.from_json(load_json(str(tmp_path / "grid.json")))
    grid.validate()
    assert grid.num_points == 4


# -- build / compile / verify chain ---------------------------------------------


def _run_affine_chain(tmp_path, oracle):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path / "build.json", _affine_build_cfg(oracle))
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0
    assert main(["compile", str(out / "interpolant.json"), "--out", str(out)]) == 0
    return out


def test_constant_oracle_gives_one_region(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json",
                     _affine_build_cfg({"kind": "builtin", "name": "zero"}))
    assert main(["build", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert _report(tmp_path, "build_report.json")["results"]["num_grid_points"] == 4
    assert main(["verify", str(tmp_path / "interpolant.json"), "--which", "regions",
                 "--out", str(tmp_path)]) == 0
    assert _report(tmp_path, "verify_regions_report.json")["results"]["value"] == [1]


def test_build_without_oracle_is_config_error(tmp_path):
    cfg_obj = _affine_build_cfg({"kind": "builtin", "name": "zero"})
    del cfg_obj["oracle"]
    cfg = _write_cfg(tmp_path / "cfg.json", cfg_obj)
    assert main(["build", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_build_budget_without_k_cont_is_config_error(tmp_path):
    for budget in ({"k_x": 1.0}, [1.0], {"k_cont": None}):
        cfg_obj = _affine_build_cfg({"kind": "builtin", "name": "zero"})
        cfg_obj["budget"] = budget
        cfg = _write_cfg(tmp_path / "cfg.json", cfg_obj)
        assert main(["build", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "build_report.json").exists()


@pytest.mark.parametrize("where", ["config", "budget"])
def test_build_negative_k_cont_is_config_error(tmp_path, capsys, where):
    cfg_obj = _affine_build_cfg({"kind": "builtin", "name": "zero"})
    if where == "budget":
        cfg_obj["budget"] = {"k_cont": cfg_obj.pop("k_cont")}
    (cfg_obj["budget"] if where == "budget" else cfg_obj)["k_cont"] = -1.0
    cfg = _write_cfg(tmp_path / "cfg.json", cfg_obj)
    assert main(["build", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "'k_cont' must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "interpolant.json").exists()
    assert not (tmp_path / "build_report.json").exists()


def test_build_nonpositive_m_is_config_error(tmp_path):
    for m in (0, -1):
        cfg_obj = _affine_build_cfg({"kind": "builtin", "name": "zero"})
        cfg_obj["m"] = m
        cfg = _write_cfg(tmp_path / "cfg.json", cfg_obj)
        assert main(["build", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "build_report.json").exists()


def _edited_interpolant_exit(tmp_path, edit):
    """Exit code of ``verify --which lipschitz`` on an edited zero interpolant."""
    out = _run_affine_chain(tmp_path, {"kind": "builtin", "name": "zero"})
    obj = load_json(str(out / "interpolant.json"))
    edit(obj)
    bad = tmp_path / "edited.json"
    dump_json(obj, str(bad))
    return main(["verify", str(bad), "--which", "lipschitz", "--out", str(tmp_path)])


def _caller_supplied(edit):
    """``edit`` applied to the file turned caller-supplied: min_rule_extras
    false and the loaded min-rule values stored as extra_values."""
    def apply(obj):
        obj["extra_values"] = rows_to_hex(CpwaInterpolant.from_json(obj).extra_values)
        obj["min_rule_extras"] = False
        edit(obj)
    return apply


def test_interpolant_extra_corners_must_be_the_non_grid_corners(tmp_path):
    # the test grid has 2 x 2 points, so extra_values is one row of 16 - 4 = 12;
    # only a caller-supplied file stores them
    five = float.hex(5.0)

    def old_records(obj):   # the older format: one offset/values record per corner
        obj["extra_corners"] = [{"offset": [-1, -1], "values": [v]}
                                for v in obj.pop("extra_values")[0]]

    def old_grid(obj):      # the older grid: every offset and the dimension
        obj["grid"].update(offsets=[[0, 0], [0, 1], [1, 0], [1, 1]], dimension=2)
        del obj["grid"]["axis_counts"]

    for edit in (
        lambda obj: obj["extra_values"][0].append(five),          # a 13th corner
        lambda obj: obj["extra_values"][0].pop(3),                # a corner missing
        lambda obj: obj["extra_values"].append(obj["extra_values"][0]),  # a second row
        lambda obj: obj["extra_values"][0].__setitem__(1, False),
        lambda obj: obj.update(min_rule_extras="false"),
        lambda obj: obj["grid"].update(axis_counts=[2, 3]),
        lambda obj: obj["grid"].update(axis_counts=[2, 2.0]),
        old_records,
        old_grid,
    ):
        assert _edited_interpolant_exit(tmp_path, _caller_supplied(edit)) == 2
        assert not (tmp_path / "verify_lipschitz_report.json").exists()


def test_interpolant_min_rule_flag_must_match_stored_extra_values(tmp_path, capsys):
    def stored_min_rule_values(obj):   # the older min-rule format
        obj["extra_values"] = rows_to_hex(CpwaInterpolant.from_json(obj).extra_values)

    def caller_supplied_without_values(obj):
        obj["min_rule_extras"] = False

    for edit in (stored_min_rule_values, caller_supplied_without_values):
        assert _edited_interpolant_exit(tmp_path, edit) == 2
        assert "extra_values" in capsys.readouterr().err
        assert not (tmp_path / "verify_lipschitz_report.json").exists()


def test_ragged_interpolant_rows_are_schema_errors(tmp_path, capsys):
    # the zero interpolant's grid has 4 points and 12 extra corners
    def ragged_omega(obj):
        obj["omega"].append(obj["omega"][0][:3])

    @_caller_supplied
    def ragged_extra_values(obj):
        obj["extra_values"].insert(0, obj["extra_values"][0][:7])

    for edit, field, lengths in ((ragged_omega, "omega", [4, 3]),
                                 (ragged_extra_values, "extra_values", [7, 12])):
        assert _edited_interpolant_exit(tmp_path, edit) == 2
        assert capsys.readouterr().err == (f"config error: interpolant {field} rows must be "
                                           f"equally long, got lengths {lengths}\n")
        assert not (tmp_path / "verify_lipschitz_report.json").exists()


def test_min_rule_values_follow_the_edited_omega(tmp_path):
    # min-rule corner values cannot be forged: they are recomputed from omega
    out = _run_affine_chain(tmp_path, {"kind": "builtin", "name": "zero"})
    obj = load_json(str(out / "interpolant.json"))
    assert obj["min_rule_extras"] is True and "extra_values" not in obj
    obj["omega"][0][2] = float.hex(-3.0)
    interp = CpwaInterpolant.from_json(obj)
    want = brute_force_extra_values(interp.omega, interp.grid)
    assert interp.extra_values.tobytes() == np.array(list(want.values())).T.tobytes()
    assert (interp.extra_values == -3.0).sum() == 5   # the corners next to grid point (1, 0)


def test_nonfinite_or_overflowing_pieces_are_numerical_errors(tmp_path):
    @_caller_supplied
    def inf_corner(obj):
        obj["extra_values"][0][0] = float.hex(float("inf"))

    def neighbours_overflow(obj):   # grid offsets (0, 0) and (0, 1)
        obj["omega"][0][:2] = [float.hex(1.7e308), float.hex(-1.7e308)]

    for edit in (inf_corner, neighbours_overflow):
        assert _edited_interpolant_exit(tmp_path, edit) == 3
        assert not (tmp_path / "verify_lipschitz_report.json").exists()


def test_interpolant_with_negative_k_cont_is_config_error(tmp_path, capsys):
    # an infinite K_cont made the lipschitz bound infinite, and any slope passed
    for value in (float.hex(-1.0), "inf"):
        assert _edited_interpolant_exit(tmp_path, lambda obj: obj.update(K_cont=value)) == 2
        assert "k_cont must be a Lipschitz constant >= 0" in capsys.readouterr().err
        assert not (tmp_path / "verify_lipschitz_report.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", ["w", "b"])
def test_nonfinite_bank_coefficient_is_numerical_error(tmp_path, capsys, entry, value):
    out = _run_affine_chain(
        tmp_path, {"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B})
    obj = load_json(str(out / "network.json"))
    bank = obj["outputs"][0]["bank"]
    if entry == "w":
        bank[-1]["w"][1] = value
    else:
        bank[-1]["b"] = value
    bad = tmp_path / "bad_network.json"
    dump_json(obj, str(bad))
    verify = ["verify", str(out / "interpolant.json"), "--which", "tll-equiv",
              "--network", str(bad), "--out", str(tmp_path)]
    assert main(verify) == 3
    assert main(["export", str(bad), "--expanded", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.count(f"output 0: bank row {len(bank) - 1} holds a non-finite") == 2
    assert not (tmp_path / "relu.json").exists()
    assert not (tmp_path / "verify_tll_equiv_report.json").exists()


def test_verify_regions_rejects_malformed_bound(tmp_path):
    out = _run_affine_chain(tmp_path, {"kind": "builtin", "name": "zero"})
    net = load_json(str(out / "network.json"))
    net["provenance"]["bound_N"] = "x"
    bad = tmp_path / "bad_network.json"
    dump_json(net, str(bad))
    assert main(["verify", str(out / "interpolant.json"), "--which", "regions",
                 "--network", str(bad), "--out", str(out)]) == 2


@pytest.mark.parametrize("key, value", [
    ("bound_N", -5), ("bound_N", 0), ("K_cont", float.hex(-1.0)),
    ("K_cont", "inf"), ("eta", float.hex(0.0)), ("eta", float.hex(-1.0)), ("eta", "nan"),
], ids=["bound_N=-5", "bound_N=0", "K_cont=-1", "K_cont=inf", "eta=0", "eta=-1", "eta=nan"])
def test_network_provenance_out_of_range_is_config_error(tmp_path, capsys, key, value):
    out = _run_affine_chain(tmp_path, {"kind": "builtin", "name": "zero"})
    net = load_json(str(out / "network.json"))
    net["provenance"][key] = value
    bad = tmp_path / "bad_network.json"
    dump_json(net, str(bad))
    assert main(["export", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["verify", str(out / "interpolant.json"), "--which", "regions",
                 "--network", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.count(f"provenance {key} must be") == 2
    assert not (tmp_path / "export_report.json").exists()
    assert not (tmp_path / "verify_regions_report.json").exists()


def _selector_masses(report, network) -> tuple[list[int], list[int]]:
    """Per-output selector mass as the report's descriptor gives it, and
    as counted in the network file the command wrote."""
    reported = [o["selector_mass"] for o in report["results"]["descriptor"]["per_output"]]
    written = [sum(map(len, o["selectors"])) for o in load_json(str(network))["outputs"]]
    return reported, written


def test_affine_chain_and_verifications(tmp_path):
    out = _run_affine_chain(
        tmp_path, {"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B})
    comp = _report(out, "compile_report.json")
    assert comp["pass"] is True
    assert (out / "network.json").exists()
    reported, written = _selector_masses(comp, out / "network.json")
    assert reported == written

    vcfg = _write_cfg(tmp_path / "verify.json", {
        "probes": {"per_axis": 7, "random": 50, "seed": 3},
    })
    interp = str(out / "interpolant.json")
    net = str(out / "network.json")

    assert main(["verify", interp, "--which", "tll-equiv", "--network", net,
                 "--config", vcfg, "--out", str(out)]) == 0
    equiv = _report(out, "verify_tll_equiv_report.json")
    assert equiv["pass"] is True
    assert equiv["results"]["value"] <= 1e-9

    # without an explicit bound the audit certifies 3x the declared constant
    assert main(["verify", interp, "--which", "lipschitz",
                 "--config", vcfg, "--out", str(out)]) == 0
    lips = _report(out, "verify_lipschitz_report.json")
    assert 0.75 - 1e-12 <= lips["results"]["value"] <= 6.0

    assert main(["verify", interp, "--which", "continuity",
                 "--config", vcfg, "--out", str(out)]) == 0
    cont = _report(out, "verify_continuity_report.json")["results"]
    # an exact vertex certificate: no probe spec and no seed
    assert set(cont) == {"which", "metric", "value", "bound", "pass"}
    assert 0.0 <= cont["value"] <= cont["bound"] == 1e-9

    assert main(["verify", interp, "--which", "regions",
                 "--config", vcfg, "--out", str(out)]) == 0
    reg = _report(out, "verify_regions_report.json")
    # boundary corners take the min over neighboring grid values, which sits
    # below a non-constant plane, so edge cells split off their own regions
    assert reg["results"]["value"] == [12]
    assert reg["results"]["bound"] == 32  # 2! * ceil(1/0.5 + 2)^2


def test_constant_chain_approximates_exactly(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json",
                     _affine_build_cfg({"kind": "builtin", "name": "zero"}))
    assert main(["build", "--config", cfg, "--out", str(tmp_path)]) == 0
    vcfg = _write_cfg(tmp_path / "verify.json", {
        "mu": 1e-9,
        "oracle": {"kind": "builtin", "name": "zero"},
        "probes": {"per_axis": 6, "random": 40, "seed": 5},
    })
    assert main(["verify", str(tmp_path / "interpolant.json"), "--which",
                 "approx", "--config", vcfg, "--out", str(tmp_path)]) == 0
    rep = _report(tmp_path, "verify_approx_report.json")
    assert rep["pass"] is True
    assert float.fromhex(rep["results"]["value"]) <= 1e-9


def _assert_audit_error_report(out, name, capsys, which=None):
    """The report a guarantee that does not hold leaves: failing, with the
    error (and the check), and nothing on stderr."""
    rep = _report(out, name)
    assert rep["pass"] is False
    assert set(rep["results"]) == ({"error"} if which is None else {"error", "which"})
    assert rep["results"].get("which") == which
    assert rep["results"]["error"]
    assert capsys.readouterr().err == ""


def test_verify_failures_exit_one(tmp_path, capsys):
    out = _run_affine_chain(
        tmp_path, {"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B})
    interp = str(out / "interpolant.json")
    # approximation gap against a different controller exceeds the budget
    mism = _write_cfg(tmp_path / "mismatch.json", {
        "mu": 1e-3,
        "oracle": {"kind": "builtin", "name": "affine",
                   "W": [[-1.0, 1.0]], "b": [0.0]},
    })
    assert main(["verify", interp, "--which", "approx",
                 "--config", mism, "--out", str(out)]) == 1
    rep = _report(out, "verify_approx_report.json")
    assert rep["pass"] is False and float.fromhex(rep["results"]["value"]) > 1e-3
    # gradient dual norm 0.75 exceeds 3 K_cont = 0.5
    tight = _write_cfg(tmp_path / "tight.json", dict(
        _affine_build_cfg({"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B}),
        k_cont=0.5 / 3.0))
    tout = tmp_path / "tight"
    assert main(["build", "--config", tight, "--out", str(tout)]) == 0
    capsys.readouterr()
    assert main(["verify", str(tout / "interpolant.json"), "--which", "lipschitz",
                 "--out", str(out)]) == 1
    _assert_audit_error_report(out, "verify_lipschitz_report.json", capsys, "lipschitz")
    # tll-equiv without a network file is a config error
    assert main(["verify", interp, "--which", "tll-equiv",
                 "--out", str(out)]) == 2


def test_verify_approx_checks_the_oracle_reply_like_build(tmp_path):
    out = _run_affine_chain(
        tmp_path, {"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B})
    nan_oracle = {"kind": "builtin", "name": "affine", "W": [[float("nan"), -0.25]],
                  "b": AFFINE_B}
    cfg = _write_cfg(tmp_path / "nan_build.json", _affine_build_cfg(nan_oracle))
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "nan")]) == 3
    vcfg = _write_cfg(tmp_path / "nan_verify.json", {"mu": 1.0, "oracle": nan_oracle})
    assert main(["verify", str(out / "interpolant.json"), "--which", "approx",
                 "--config", vcfg, "--out", str(out)]) == 3
    assert not (out / "verify_approx_report.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_grid_anchor_is_config_error(tmp_path, capsys, value):
    # no comparison in the covering check fails on NaN, so the grid checks it first
    out = _run_affine_chain(tmp_path, {"kind": "builtin", "name": "zero"})
    interp = str(out / "interpolant.json")
    obj = load_json(interp)
    obj["grid"]["anchor"][0] = value
    dump_json(obj, interp)
    capsys.readouterr()
    for cmd in (["compile", interp], ["verify", interp, "--which", "regions"]):
        for report in out.glob("*_report.json"):
            report.unlink()
        assert main(cmd + ["--out", str(out)]) == 2
        assert "grid anchor must be finite" in capsys.readouterr().err
        assert not list(out.glob("*_report.json"))


def test_verify_approx_with_k_u_zero_admits_any_error(tmp_path):
    # the field ignores the input, so mu_max is +inf and needs no eta
    out = _run_affine_chain(
        tmp_path, {"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B})
    budget = {"k_x": 1.0, "k_u": 0.0, "k_cont": 1.0, "tau": 0.1, "delta": 0.05}
    vcfg = _write_cfg(tmp_path / "verify.json", {
        "budget": budget, "oracle": {"kind": "builtin", "name": "zero"}})
    with pytest.warns(UserWarning, match="k_u = 0"):
        assert main(["verify", str(out / "interpolant.json"), "--which", "approx",
                     "--config", vcfg, "--out", str(out)]) == 0

    def refuse(name):
        raise AssertionError(f"report holds {name}, which is not JSON")

    text = (out / "verify_approx_report.json").read_text(encoding="utf-8")
    rep = json.loads(text, parse_constant=refuse)["results"]
    assert float.fromhex(rep["bound"]) == math.inf and 0.0 < float.fromhex(rep["value"])


@pytest.mark.parametrize("where", ["K_cont", "eta"])
def test_integer_beyond_float_range_in_interpolant_is_schema_error(tmp_path, capsys, where):
    out = _run_affine_chain(
        tmp_path, {"kind": "builtin", "name": "affine", "W": [[100.0, 100.0]], "b": [0.0]})
    interp = str(out / "interpolant.json")
    obj = load_json(interp)
    (obj if where == "K_cont" else obj["grid"])[where] = 10 ** 400
    dump_json(obj, interp)
    assert main(["verify", interp, "--which", "lipschitz", "--out", str(out)]) == 2
    assert "too large for a float" in capsys.readouterr().err


@pytest.mark.parametrize("where, text", [("K_cont", "0.5"), ("bank", "10"), ("eta", "1e3")])
def test_decimal_string_in_an_artifact_is_schema_error(tmp_path, capsys, where, text):
    # float.fromhex would read each as hex (0x0.5 = 0.3125, 0x10 = 16, 0x1e3 = 483)
    out = _run_affine_chain(
        tmp_path, {"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B})
    name = "network.json" if where == "bank" else "interpolant.json"
    obj = load_json(str(out / name))
    if where == "bank":
        obj["outputs"][0]["bank"][0]["w"][0] = text
    else:
        (obj if where == "K_cont" else obj["grid"])[where] = text
    dump_json(obj, str(out / name))
    bad = tmp_path / "bad"
    argv = (["export", str(out / name)] if where == "bank" else
            ["verify", str(out / name), "--which", "lipschitz"])
    assert main(argv + ["--out", str(bad)]) == 2
    assert repr(text) in capsys.readouterr().err
    assert not list(bad.glob("*_report.json"))


def _sinusoid_artifacts(tmp_path, scale, k_cont=None):
    """A sin(3x) cos(2y) interpolant times ``scale`` and its compiled network."""
    interp = sinusoid_interpolant(scale, k_cont)
    path = tmp_path / "interpolant.json"
    dump_json(interp.to_json(), str(path))
    assert main(["compile", str(path), "--out", str(tmp_path)]) == 0
    return interp, str(path), str(tmp_path / "network.json")


def test_verify_tll_equiv_gap_follows_the_value_scale(tmp_path):
    _, it, net = _sinusoid_artifacts(tmp_path, 1e-12)
    vcfg = _write_cfg(tmp_path / "verify.json", {"probes": {"per_axis": 7, "random": 50}})
    equiv = ["verify", it, "--which", "tll-equiv", "--config", vcfg, "--out", str(tmp_path)]
    assert main(equiv + ["--network", net]) == 0
    assert main(["verify", it, "--which", "continuity", "--out", str(tmp_path)]) == 0
    # one bank bias off by a thousandth of the data: an absolute gap near 1e-15
    obj = load_json(net)
    b = float.fromhex(obj["outputs"][0]["bank"][0]["b"])
    obj["outputs"][0]["bank"][0]["b"] = float.hex(b - 1e-3 * 1e-12)
    bad = tmp_path / "corrupt_network.json"
    dump_json(obj, str(bad))
    assert main(equiv + ["--network", str(bad)]) == 1
    rep = _report(tmp_path, "verify_tll_equiv_report.json")["results"]
    assert rep["bound"] == 1e-9 < rep["value"]


def test_verify_network_must_match_the_interpolant_dimensions(tmp_path):
    # a 1-output network against a 2-output interpolant with equal outputs,
    # and a 1-input network against a 2-input interpolant
    one, _, net = _sinusoid_artifacts(tmp_path, 1.0)
    two = build_interpolant(one.grid, np.vstack([one.omega, one.omega]))
    it = tmp_path / "two_outputs.json"
    dump_json(two.to_json(), str(it))
    grid = build_eta_grid(Box([0.0], [1.0]), 0.5)
    line = build_interpolant(grid, np.ones((1, grid.num_points)))
    dump_json(export_network(compile_tll(line)), str(tmp_path / "line_network.json"))
    for interp, network in ((it, net), (tmp_path / "interpolant.json",
                                        tmp_path / "line_network.json")):
        for which in ("tll-equiv", "regions"):
            assert main(["verify", str(interp), "--which", which, "--network",
                         str(network), "--out", str(tmp_path)]) == 2


def test_verify_lipschitz_slack_follows_the_bound(tmp_path):
    # a gradient 100x over 3 K_cont, far below 1e-9 in absolute terms
    interp, _, _ = _sinusoid_artifacts(tmp_path, 1e-12)
    value = lipschitz_audit(interp, bound=math.inf).value
    _, it, _ = _sinusoid_artifacts(tmp_path, 1e-12, k_cont=value / 300.0)
    assert main(["verify", it, "--which", "lipschitz", "--out", str(tmp_path)]) == 1
    assert _report(tmp_path, "verify_lipschitz_report.json")["pass"] is False


def test_verify_lipschitz_needs_k_cont(tmp_path, capsys):
    # with no K_cont there is no bound to check the slopes against
    _, it, _ = _sinusoid_artifacts(tmp_path, 1.0)
    assert main(["verify", it, "--which", "lipschitz", "--out", str(tmp_path)]) == 2
    assert "needs an interpolant with K_cont" in capsys.readouterr().err
    assert not (tmp_path / "verify_lipschitz_report.json").exists()


def test_verify_regions_checks_the_network_banks_against_n(tmp_path):
    out = _run_affine_chain(
        tmp_path, {"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B})
    regions = ["verify", str(out / "interpolant.json"), "--which", "regions",
               "--out", str(out)]
    assert main(regions + ["--network", str(out / "network.json")]) == 0
    rep = _report(out, "verify_regions_report.json")["results"]
    assert rep["value"] == rep["bank_sizes"] == [12] and rep["bound"] == 32
    # a network compiled on a finer grid holds more pieces than this grid's N,
    # whatever bound_N its own provenance names
    (tmp_path / "fine").mkdir()
    _, _, fine = _sinusoid_artifacts(tmp_path / "fine", 1.0)
    assert load_json(fine)["provenance"]["bound_N"] > 32
    assert main(regions + ["--network", fine]) == 1
    rep = _report(out, "verify_regions_report.json")["results"]
    assert rep["value"] == [12] and rep["bound"] == 32 < rep["bank_sizes"][0]
    assert rep["pass"] is False


def test_verify_rejects_the_tolerances_section(tmp_path, capsys):
    out = _run_affine_chain(tmp_path, {"kind": "builtin", "name": "zero"})
    cfg = _write_cfg(tmp_path / "cfg.json", {"tolerances": {"eval": 1e-6}})
    assert main(["verify", str(out / "interpolant.json"), "--which", "continuity",
                 "--config", cfg, "--out", str(out)]) == 2
    assert "value scale" in capsys.readouterr().err


def test_verify_continuity_failure_writes_a_failing_report(tmp_path, capsys, monkeypatch):
    # no interpolant the library builds is discontinuous, so the check is made to fail
    out = _run_affine_chain(tmp_path, {"kind": "builtin", "name": "zero"})

    def discontinuous(interp):
        raise DiscontinuityDetected("cell (0, 0), sigma (0, 1), output 0: jump 1")

    monkeypatch.setattr(cli, "continuity_audit", discontinuous)
    capsys.readouterr()
    assert main(["verify", str(out / "interpolant.json"), "--which", "continuity",
                 "--out", str(out)]) == 1
    _assert_audit_error_report(out, "verify_continuity_report.json", capsys, "continuity")


def test_compile_bound_gate(tmp_path, capsys, monkeypatch):
    out = _run_affine_chain(
        tmp_path, {"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B})
    interp = str(out / "interpolant.json")
    # N of the interpolant's grid: 2! * ceil(1/0.5 + 2)^2
    assert _report(out, "compile_report.json")["results"]["provenance"]["bound_n"] == 32
    # no compiled bank fits in N, so N is made too small
    monkeypatch.setattr(tll, "controller_size", lambda n, ext, eta: 0)
    (out / "network.json").unlink()
    capsys.readouterr()
    assert main(["compile", interp, "--out", str(out)]) == 1
    _assert_audit_error_report(out, "compile_report.json", capsys)
    assert not (out / "network.json").exists()


# -- external oracles ------------------------------------------------------------


def _grid_points(tmp_path):
    cfg = _write_cfg(tmp_path / "grid.json", {
        "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}, "eta": 0.5})
    gout = tmp_path / "gout"
    assert main(["grid", "--config", cfg, "--out", str(gout)]) == 0
    grid = EtaGrid.from_json(load_json(str(gout / "grid.json")))
    return grid.points


def test_csv_oracle_matches_builtin(tmp_path):
    ref = _run_affine_chain(
        tmp_path, {"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B})
    W, b = np.array(AFFINE_W), np.array(AFFINE_B)
    pts = _grid_points(tmp_path)
    csv_path = tmp_path / "table.csv"
    rows = ["# x1,x2,u"]
    for p in pts:
        u = p @ W.T + b
        rows.append(f"{float(p[0])!r},{float(p[1])!r},{float(u[0])!r}")
    csv_path.write_text("\n".join(rows) + "\n")

    out = tmp_path / "csv_out"
    cfg = _write_cfg(tmp_path / "csv_cfg.json",
                     _affine_build_cfg({"kind": "csv", "path": str(csv_path)}))
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "interpolant.json").read_bytes() == \
        (ref / "interpolant.json").read_bytes()


def test_csv_oracle_missing_row_is_numerical_error(tmp_path):
    pts = _grid_points(tmp_path)
    csv_path = tmp_path / "partial.csv"
    rows = [f"{float(p[0])!r},{float(p[1])!r},0.0" for p in pts[:-1]]
    csv_path.write_text("\n".join(rows) + "\n")
    cfg = _write_cfg(tmp_path / "cfg.json",
                     _affine_build_cfg({"kind": "csv", "path": str(csv_path)}))
    assert main(["build", "--config", cfg, "--out", str(tmp_path)]) == 3


def _tiny_csv_build(tmp_path, points):
    """Exit code of ``build`` over [0, 1e-12] at eta 2.5e-13 (four grid
    points) from a CSV whose i-th row puts the value i at ``points[i]``."""
    csv_path = tmp_path / "tiny.csv"
    csv_path.write_text("".join(f"{p!r},{float(i)!r}\n" for i, p in enumerate(points)))
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "domain": {"lower": [0.0], "upper": [1e-12]}, "eta": 2.5e-13,
        "oracle": {"kind": "csv", "path": str(csv_path)}})
    return main(["build", "--config", cfg, "--out", str(tmp_path)])


def test_csv_oracle_keys_rows_relative_to_the_table_scale(tmp_path):
    # the points 1.25e-13 ... 8.75e-13 share keys when rounded to 12 absolute decimals
    points = build_eta_grid(Box([0.0], [1e-12]), 2.5e-13).points[:, 0].tolist()
    assert len(points) == 4
    assert _tiny_csv_build(tmp_path, points) == 0
    omega = load_json(str(tmp_path / "interpolant.json"))["omega"]
    assert [float.fromhex(v) for v in omega[0]] == [0.0, 1.0, 2.0, 3.0]


def test_csv_oracle_repeated_point_is_config_error(tmp_path, capsys):
    points = build_eta_grid(Box([0.0], [1e-12]), 2.5e-13).points[:, 0].tolist()
    assert _tiny_csv_build(tmp_path, points + [points[2]]) == 2
    assert "lines 3 and 5" in capsys.readouterr().err
    assert not (tmp_path / "build_report.json").exists()


def test_subprocess_oracle_that_has_exited_is_not_restarted(tmp_path):
    script = tmp_path / "once.py"   # answers one request, then exits
    script.write_text(
        "import sys, json\n"
        "pts = json.loads(sys.stdin.readline())['points']\n"
        "print(json.dumps({'controls': [[0.0]] * len(pts)}), flush=True)\n"
    )
    child = cli._SubprocessOracle([sys.executable, str(script)], 1)
    try:
        assert child(np.zeros((2, 1))).tolist() == [[0.0], [0.0]]
        child.proc.wait(timeout=60)
        with pytest.raises(OracleFailure, match="exited with code 0"):
            child(np.zeros((2, 1)))
    finally:
        child.close()


def test_subprocess_oracle_empty_batch_starts_no_child(tmp_path):
    child = cli._SubprocessOracle([sys.executable, "-c", "raise SystemExit(5)"], 3)
    try:
        for points in (np.empty((0, 2)), []):
            reply = child(points)
            assert reply.shape == (0, 3) and reply.dtype == float
        assert child.proc is None
    finally:
        child.close()


def test_subprocess_oracle_request_line_is_the_one_call_encoding(tmp_path):
    # the child logs each raw line it reads; the writer builds the line from
    # blocks of rows, byte for byte what one json.dumps call gives
    log = tmp_path / "lines.log"
    script = tmp_path / "logger.py"
    script.write_text(
        "import sys, json\n"
        "for line in sys.stdin:\n"
        f"    open({str(log)!r}, 'a').write(line)\n"
        "    pts = json.loads(line)['points']\n"
        "    sys.stdout.write(json.dumps({'controls': [[p[0]] for p in pts]}) + '\\n')\n"
        "    sys.stdout.flush()\n"
    )
    rng = np.random.default_rng(32)
    counts = [1, 255, 256, 257, cli._ORACLE_CHUNK_POINTS]
    batches = [rng.normal(size=(k, 3)) * 10.0 ** rng.integers(-300, 300, size=(k, 3))
               for k in counts]
    batches[0][0] = [-0.0, 5e-324, 1.7976931348623157e308]
    child = cli._SubprocessOracle([sys.executable, str(script)], 1)
    try:
        for points in batches:
            assert child(points).tobytes() == points[:, :1].tobytes()
    finally:
        child.close()
    want = "".join(json.dumps({"points": points.tolist()}) + "\n" for points in batches)
    assert log.read_text() == want


def test_subprocess_oracle_matches_builtin(tmp_path):
    ref = _run_affine_chain(
        tmp_path, {"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B})
    script = tmp_path / "oracle.py"
    script.write_text(
        "import sys, json\n"
        "import numpy as np\n"
        f"W = np.array({AFFINE_W!r}); b = np.array({AFFINE_B!r})\n"
        "for line in sys.stdin:\n"
        "    pts = np.asarray(json.loads(line)['points'], dtype=float)\n"
        "    out = pts @ W.T + b\n"
        "    sys.stdout.write(json.dumps({'controls': out.tolist()}) + '\\n')\n"
        "    sys.stdout.flush()\n"
    )
    out = tmp_path / "sub_out"
    cfg = _write_cfg(tmp_path / "sub_cfg.json", _affine_build_cfg(
        {"kind": "subprocess", "argv": [sys.executable, str(script)]}))
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "interpolant.json").read_bytes() == \
        (ref / "interpolant.json").read_bytes()


def test_subprocess_oracle_lingering_after_eof_is_killed(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_ORACLE_EXIT_WAIT_S", 0.2)
    ref = _run_affine_chain(
        tmp_path, {"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B})
    pid_file = tmp_path / "oracle.pid"
    script = tmp_path / "oracle.py"
    script.write_text(
        "import os, sys, json, time\n"
        "import numpy as np\n"
        f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        f"W = np.array({AFFINE_W!r}); b = np.array({AFFINE_B!r})\n"
        "for line in sys.stdin:\n"
        "    pts = np.asarray(json.loads(line)['points'], dtype=float)\n"
        "    sys.stdout.write(json.dumps({'controls': (pts @ W.T + b).tolist()}) + '\\n')\n"
        "    sys.stdout.flush()\n"
        "time.sleep(60)\n"
    )
    out = tmp_path / "sub_out"
    cfg = _write_cfg(tmp_path / "sub_cfg.json", _affine_build_cfg(
        {"kind": "subprocess", "argv": [sys.executable, str(script)]}))
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "interpolant.json").read_bytes() == \
        (ref / "interpolant.json").read_bytes()
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(int(pid_file.read_text()), 0)


@pytest.mark.parametrize("command", ["build", "approx"])
def test_subprocess_oracle_that_never_answers_is_killed(tmp_path, monkeypatch, command):
    monkeypatch.setattr(cli, "_ORACLE_REPLY_WAIT_S", 0.5)
    pids, ensure = [], cli._SubprocessOracle._ensure

    def spawn(self):
        proc = ensure(self)
        pids.append(proc.pid)
        return proc

    monkeypatch.setattr(cli._SubprocessOracle, "_ensure", spawn)
    # never reads its input either, so a request larger than the pipe stalls too
    oracle = {"kind": "subprocess", "argv": [sys.executable, "-c", "import time; time.sleep(600)"]}
    if command == "build":
        cfg = _write_cfg(tmp_path / "cfg.json", _affine_build_cfg(oracle))
        argv = ["build", "--config", cfg, "--out", str(tmp_path)]
    else:
        out = _run_affine_chain(tmp_path, {"kind": "builtin", "name": "zero"})
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "mu": 1.0, "oracle": oracle, "probes": {"per_axis": 100}})  # ~400 kB request
        argv = ["verify", str(out / "interpolant.json"), "--which", "approx",
                "--config", cfg, "--out", str(tmp_path)]
    assert main(argv) == 3
    assert not list(tmp_path.glob("*_report.json"))
    assert len(pids) == 1
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(pids[0], 0)


def _oracle_script(tmp_path, body):
    """A subprocess oracle: ``body`` turns each request's ``pts`` list into
    the ``out`` rows it answers."""
    script = tmp_path / "oracle.py"
    script.write_text(
        "import sys, json\n"
        "import numpy as np\n"
        f"W = np.array({AFFINE_W!r}); b = np.array({AFFINE_B!r})\n"
        "for line in sys.stdin:\n"
        "    pts = json.loads(line)['points']\n"
        + "".join(f"    {stmt}\n" for stmt in body) +
        "    sys.stdout.write(json.dumps({'controls': out}) + '\\n')\n"
        "    sys.stdout.flush()\n"
    )
    return {"kind": "subprocess", "argv": [sys.executable, str(script)]}


def test_oracle_requests_carry_whole_bounded_batches(tmp_path, monkeypatch):
    log = tmp_path / "requests.log"
    oracle = _oracle_script(tmp_path, [
        f"open({str(log)!r}, 'a').write(f'{{len(pts)}}\\n')",
        "out = (np.asarray(pts, dtype=float) @ W.T + b).tolist()",
    ])

    def requests():
        rows = [int(v) for v in log.read_text().split()]
        log.unlink()
        return rows

    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path / "cfg.json", _affine_build_cfg(oracle))
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0
    assert requests() == [4]                    # the whole 4-point grid at once
    vcfg = _write_cfg(tmp_path / "verify.json", {
        "mu": 1.0, "oracle": oracle, "probes": {"per_axis": 100}})
    assert main(["verify", str(out / "interpolant.json"), "--which", "approx",
                 "--config", vcfg, "--out", str(out)]) == 0
    assert requests() == [4096, 4096, 10_000 - 2 * 4096]
    # a grid larger than one line goes out in order, one bounded line at a time
    monkeypatch.setattr(cli, "_ORACLE_CHUNK_POINTS", 3)
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "split")]) == 0
    assert requests() == [3, 1]
    assert (tmp_path / "split" / "interpolant.json").read_bytes() == \
        (out / "interpolant.json").read_bytes()


def test_each_oracle_reply_must_match_its_own_request(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_ORACLE_CHUNK_POINTS", 3)
    # 2 rows for the first request of 3, then 2 for the second of 1: the
    # total is right, each reply is not
    oracle = _oracle_script(tmp_path, [
        "out = [[0.0]] * (2 if len(pts) == 3 else len(pts) + 1)",
    ])
    cfg = _write_cfg(tmp_path / "cfg.json", _affine_build_cfg(oracle))
    assert main(["build", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "expected (3, 1)" in capsys.readouterr().err
    assert not (tmp_path / "interpolant.json").exists()


def test_subprocess_nan_names_its_grid_point(tmp_path, capsys):
    oracle = _oracle_script(tmp_path, [
        "out = [[float('nan') if p == [0.375, 0.625] else 0.0] for p in pts]",
    ])
    cfg = _write_cfg(tmp_path / "cfg.json", {**_affine_build_cfg(oracle), "eta": 0.25})
    assert main(["build", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "non-finite values at [0.375, 0.625]" in capsys.readouterr().err
    assert not (tmp_path / "interpolant.json").exists()


def test_batched_build_and_sysid_match_per_point_sampling(tmp_path):
    # the README example: its oracle answers a point alone as in a batch
    readme = {**_size_cfg(), "m": 1, "oracle": {
        "kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B}}
    sysid = {"model": "pendulum", "eta": 0.6875}
    out = tmp_path / "out"
    assert main(["build", "--config", _write_cfg(tmp_path / "readme.json", readme),
                 "--out", str(out)]) == 0
    assert main(["sysid", "--config", _write_cfg(tmp_path / "sysid.json", sysid),
                 "--out", str(out)]) == 0

    eta = float.fromhex(_report(out, "build_report.json")["results"]["eta"])
    grid = build_eta_grid(Box([0.0, 0.0], [1.0, 1.0]), eta)
    W, b = np.array(AFFINE_W), np.array(AFFINE_B)
    interp = build_interpolant(grid, sample_controller(lambda x: x @ W.T + b, grid, 1), 1.0)
    pend = builtin_models()["pendulum"]
    xu = pend.x_box.product(pend.u_box)
    sid_grid = build_eta_grid(xu, 0.6875)
    sid_interp = build_interpolant(
        sid_grid, sample_controller(lambda z: pend.field(z[:2], z[2:]), sid_grid, 2),
        pend.k_x + pend.k_u)
    sid_net = compile_tll(sid_interp, sysid_size(2, 1, xu.extent(), 0.6875))
    ref = tmp_path / "ref"
    ref.mkdir()
    for name, obj in (("interpolant.json", interp.to_json()),
                      ("sysid_interpolant.json", sid_interp.to_json()),
                      ("sysid_network.json", export_network(sid_net))):
        dump_json(obj, str(ref / name))
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


# -- report envelope ----------------------------------------------------------------


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """Input files for one passing run of every subcommand, by placeholder."""
    tmp = tmp_path_factory.mktemp("inputs")
    affine = {"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B}
    out = _run_affine_chain(tmp, affine)
    sysid = _write_cfg(tmp / "sysid.json", {"model": "linear_1d", "eta": 0.5})
    assert main(["sysid", "--config", sysid, "--out", str(tmp)]) == 0
    return {
        "size": _write_cfg(tmp / "size.json", _size_cfg()),
        "build": str(tmp / "build.json"),
        "interp": str(out / "interpolant.json"),
        "network": str(out / "network.json"),
        "verify": _write_cfg(tmp / "verify.json", {"mu": 1.0, "oracle": affine}),
        "ctrl": str(_linear_controller_chain(tmp)),
        "surrogate": str(tmp / "sysid_network.json"),
        "audit": _write_cfg(tmp / "audit.json", {
            "model": "linear_1d",
            "budget": {"k_x": 1.0, "k_u": 1.0, "k_cont": 0.5, "tau": 0.5, "delta": 0.5},
            "oracle": {"kind": "builtin", "name": "affine", "W": [[-0.5]], "b": [0.0]},
            "probes": {"per_axis": 3}}),
        "ts": _ts_file(tmp / "ts.json", [[0.0]], {(0, "go", 0)}),
        "sysid": sysid,
    }


_VERIFY_CHECKS = ("approx", "lipschitz", "continuity", "tll-equiv", "regions")
_AUDIT_CHECKS = ("invariance", "gronwall", "sysid")
# every subcommand and check, with the one report it writes
_EVERY_COMMAND = [
    (["size", "--config", "{size}"], "size_report.json"),
    (["grid", "--config", "{build}"], "grid_report.json"),
    (["build", "--config", "{build}"], "build_report.json"),
    (["compile", "{interp}"], "compile_report.json"),
    *[(["verify", "{interp}", "--which", which, "--network", "{network}",
        "--config", "{verify}"], f"verify_{which.replace('-', '_')}_report.json")
      for which in _VERIFY_CHECKS],
    *[(["audit", "--which", which, "--network", "{surrogate}" if which == "sysid" else "{ctrl}",
        "--config", "{audit}"], f"audit_{which}_report.json") for which in _AUDIT_CHECKS],
    (["ads-check", "{ts}", "{ts}", "--delta", "0.0"], "ads_check_report.json"),
    (["sysid", "--config", "{sysid}"], "sysid_report.json"),
    (["export", "{network}"], "export_report.json"),
]


@pytest.mark.parametrize("argv, report", _EVERY_COMMAND,
                         ids=[report[:-len("_report.json")] for _, report in _EVERY_COMMAND])
def test_every_command_writes_its_named_report(tmp_path, command_inputs, argv, report):
    out = tmp_path / "out"
    assert main([arg.format(**command_inputs) for arg in argv] + ["--out", str(out)]) == 0
    assert [path.name for path in out.glob("*_report.json")] == [report]
    assert _report(out, report)["command"] == argv[0]


# a flag each subcommand does not read, after the arguments it needs
_UNREAD_FLAGS = [
    ["size", "--seed", "1"],
    ["grid", "--seed", "1"],
    ["build", "--seed", "1"],
    ["compile", "interpolant.json", "--config", "x.json"],
    ["compile", "interpolant.json", "--seed", "1"],
    ["sysid", "--seed", "1"],
    ["ads-check", "a.json", "b.json", "--delta", "0", "--config", "x.json"],
    ["ads-check", "a.json", "b.json", "--delta", "0", "--seed", "1"],
    ["export", "network.json", "--config", "x.json"],
    ["export", "network.json", "--seed", "1"],
]


@pytest.mark.parametrize("argv", _UNREAD_FLAGS,
                         ids=[f"{argv[0]}{argv[-2]}" for argv in _UNREAD_FLAGS])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err
    assert not out.exists()


# each retired config key, with a command that read it and the fixture
# config that command passes with
_RETIRED = [
    ("tolerances", ["verify", "{interp}", "--which", "continuity"], "verify"),
    ("bound_n", ["verify", "{interp}", "--which", "regions"], "verify"),
    ("lipschitz_bound", ["verify", "{interp}", "--which", "lipschitz"], "verify"),
    ("k_upsilon", ["audit", "--which", "gronwall", "--network", "{ctrl}"], "audit"),
    ("k_psi", ["audit", "--which", "sysid", "--network", "{surrogate}"], "audit"),
    ("k_field", ["sysid"], "sysid"),
]


def test_every_retired_key_has_a_case():
    assert [key for key, _, _ in _RETIRED] == list(cli._RETIRED_KEYS)


@pytest.mark.parametrize("key, argv, base", _RETIRED, ids=[key for key, _, _ in _RETIRED])
def test_a_retired_config_key_is_config_error(tmp_path, capsys, command_inputs, key, argv,
                                              base):
    # the derived value that replaced the key is named, and nothing is written
    cfg = _write_cfg(tmp_path / "cfg.json", {**load_json(command_inputs[base]), key: 1.0})
    out = tmp_path / "out"
    argv = [arg.format(**command_inputs) for arg in argv]
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"'{key}' is no longer read: {cli._RETIRED_KEYS[key]}" in err
    assert not out.exists()


def test_readme_names_every_config_key_cli_reads():
    # the top-level keys cli.py reads, collected from its source
    source = Path(cli.__file__).read_text()
    keys = set(re.findall(r'(?:_number|_bound|_box_from|_optional_box)\(cfg, "(\w+)"', source))
    keys |= set(re.findall(r'cfg\.get\("(\w+)"', source))
    keys |= set(re.findall(r'"(\w+)" in cfg\b', source))
    assert {"budget", "domain", "input_box", "eta", "mu", "step", "oracle", "probes"} <= keys
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for key in keys:
        assert f"`{key}`" in readme or f'`"{key}"`' in readme, key
        assert key not in cli._RETIRED_KEYS, key


def test_readme_command_lines_parse():
    # every `tllsynth ...` line of README's sh blocks, continuations joined
    # and comments stripped, is a command line the parser accepts
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [line.split("#", 1)[0].split()
             for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["tllsynth"]]
    assert len(commands) >= 10
    parser = cli._build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command line does not parse: tllsynth {shlex.join(argv)}")


def test_out_under_a_regular_file_is_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "cfg.json", _size_cfg())
    assert main(["size", "--config", cfg, "--out", str(tmp_path / "cfg.json" / "run")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


# -- determinism -------------------------------------------------------------------


def test_reports_and_artifacts_deterministic(tmp_path):
    oracle = {"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B}
    out = tmp_path / "out"
    stash = tmp_path / "stash"
    stash.mkdir()
    cfg = _write_cfg(tmp_path / "cfg.json", _affine_build_cfg(oracle))
    names = ("interpolant.json", "network.json", "build_report.json",
             "compile_report.json", "verify_tll_equiv_report.json")
    for round_two in (False, True):
        assert main(["build", "--config", cfg, "--out", str(out)]) == 0
        assert main(["compile", str(out / "interpolant.json"), "--out", str(out)]) == 0
        assert main(["verify", str(out / "interpolant.json"), "--which",
                     "tll-equiv", "--network", str(out / "network.json"),
                     "--seed", "11", "--out", str(out)]) == 0
        if not round_two:
            for name in names:
                shutil.copy(out / name, stash / name)
    for artifact in ("interpolant.json", "network.json"):
        assert (out / artifact).read_bytes() == (stash / artifact).read_bytes()
    for name in ("build_report.json", "compile_report.json",
                 "verify_tll_equiv_report.json"):
        ra, rb = _report(out, name), _report(stash, name)
        ra.pop("timing"), rb.pop("timing")
        assert ra == rb
        # only verify and audit read --seed; the other reports carry null
        assert ra["seed"] == (11 if name.startswith("verify") else None)


def test_reports_do_not_depend_on_the_out_path(tmp_path):
    # the same chain into two --out directories whose paths differ in length
    cfg = _write_cfg(tmp_path / "cfg.json", _affine_build_cfg(
        {"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B}))
    sysid = _write_cfg(tmp_path / "sysid.json", {"model": "linear_1d", "eta": 0.5})
    runs = []
    for out in (tmp_path / "a", tmp_path / "a_longer_output_directory" / "b"):
        interp, net = str(out / "interpolant.json"), str(out / "network.json")
        for argv in (["grid", "--config", cfg], ["build", "--config", cfg],
                     ["compile", interp],
                     ["verify", interp, "--which", "tll-equiv", "--network", net],
                     ["sysid", "--config", sysid], ["export", net, "--expanded"]):
            assert main(argv + ["--out", str(out)]) == 0, argv[0]
        reports = {path.name: _report(out, path.name) for path in out.glob("*_report.json")}
        for rep in reports.values():
            rep.pop("timing")
        runs.append(reports)
    assert len(runs[0]) == 6
    assert runs[0] == runs[1]
    assert runs[0]["build_report.json"]["results"]["interpolant_file"] == "interpolant.json"
    assert runs[0]["export_report.json"]["results"]["file"] == "relu.json"


def test_every_written_file_is_one_sorted_compact_line(tmp_path):
    # the README chain, then a pendulum controller through audit, sysid and
    # ads-check: every file the commands write is the writer's one line
    out = tmp_path / "out"
    readme = _write_cfg(tmp_path / "readme.json", {**_size_cfg(), "m": 1, "oracle": {
        "kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B}})
    pend = _write_cfg(tmp_path / "pend.json", {
        "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}, "eta": 0.5, "m": 1,
        "k_cont": 0.5, "oracle": {"kind": "builtin", "name": "affine",
                                  "W": [[-0.25, -0.25]], "b": [0.0]}})
    audit = _write_cfg(tmp_path / "audit.json", {
        "model": "pendulum", "probes": {"per_axis": 3},
        "budget": {"k_x": 1.5, "k_u": 1.0, "k_cont": 0.5, "tau": 0.25, "delta": 0.8},
        "oracle": {"kind": "builtin", "name": "affine", "W": [[-0.25, -0.25]], "b": [0.0]}})
    sysid = _write_cfg(tmp_path / "sysid.json", {"model": "pendulum", "eta": 0.6875})
    ts = _ts_file(tmp_path / "ts.json", [[0.0, -0.5], [0.25, 1e-300]],
                  {(0, "go", 1), (1, "go", 1)})
    net, pout = str(out / "network.json"), tmp_path / "pend"
    for argv in (
        ["size", "--config", readme], ["build", "--config", readme],
        ["compile", str(out / "interpolant.json")],
        ["verify", str(out / "interpolant.json"), "--which", "tll-equiv", "--network", net],
        ["export", net, "--expanded"],
    ):
        assert main(argv + ["--out", str(out)]) == 0, argv[0]
    pnet = str(pout / "network.json")
    for argv in (
        ["build", "--config", pend], ["compile", str(pout / "interpolant.json")],
        ["audit", "--which", "gronwall", "--network", pnet, "--config", audit],
        ["audit", "--which", "invariance", "--network", pnet, "--config", audit],
        ["sysid", "--config", sysid],
        ["audit", "--which", "sysid", "--network", str(pout / "sysid_network.json"),
         "--config", audit],
        ["ads-check", ts, ts, "--delta", "0.0"],
    ):
        assert main(argv + ["--out", str(pout)]) in (0, 1), argv[:3]
    written = sorted(out.iterdir()) + sorted(pout.iterdir()) + [tmp_path / "ts.json"]
    assert len(written) == 20
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), separators=(",", ":"),
                                  sort_keys=True) + "\n", path.name


# -- export -----------------------------------------------------------------------


def test_export_canonical_and_expanded(tmp_path):
    out = _run_affine_chain(
        tmp_path, {"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B})
    net = str(out / "network.json")
    assert main(["export", net, "--out", str(out)]) == 0
    assert (out / "network_canonical.json").read_bytes() == \
        (out / "network.json").read_bytes()
    assert main(["export", net, "--expanded", "--out", str(out)]) == 0
    rep = _report(out, "export_report.json")
    assert rep["results"]["expanded"] is True
    assert rep["results"]["neurons"] >= 1
    relu = load_json(str(out / "relu.json"))
    assert relu["kind"] == "relu-layers"
    assert relu["shape_convention"] == "pairwise-tree-v2"
    assert len(relu["layers"]) >= 1


def test_out_of_memory_is_a_one_line_numerical_error(tmp_path, monkeypatch, capsys):
    out = _run_affine_chain(
        tmp_path, {"kind": "builtin", "name": "affine", "W": AFFINE_W, "b": AFFINE_B})

    def exhausted(net):
        raise MemoryError("Unable to allocate 10.8 TiB for an array with shape (2, 3)")

    monkeypatch.setattr(cli, "expand_relu_layers", exhausted)
    capsys.readouterr()
    assert main(["export", str(out / "network.json"), "--expanded", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "10.8 TiB" in err


# -- audits -------------------------------------------------------------------------


def test_audit_invariance_pass_and_fail(tmp_path):
    base = {
        "model": "linear_1d",
        "budget": {"k_x": 1.0, "k_u": 1.0, "k_cont": 1.0, "tau": 1.0, "delta": 0.1},
        "probes": {"per_axis": 5},
    }
    good = dict(base, oracle={"kind": "builtin", "name": "zero"})
    cfg = _write_cfg(tmp_path / "good.json", good)
    assert main(["audit", "--which", "invariance", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    rep = _report(tmp_path, "audit_invariance_report.json")
    assert rep["pass"] is True
    assert any("not a proof" in note for note in rep["results"]["notes"])

    bad = dict(base, oracle={"kind": "builtin", "name": "affine",
                             "W": [[2.0]], "b": [0.0]})
    cfg = _write_cfg(tmp_path / "bad.json", bad)
    assert main(["audit", "--which", "invariance", "--config", cfg,
                 "--out", str(tmp_path)]) == 1
    rep = _report(tmp_path, "audit_invariance_report.json")
    assert rep["pass"] is False
    assert rep["results"]["violations"]


def _linear_controller_chain(tmp_path):
    """Build + compile u = -0.5 x over the scalar plant's state box."""
    out = tmp_path / "ctrl"
    cfg = _write_cfg(tmp_path / "ctrl.json", {
        "domain": {"lower": [-1.0], "upper": [1.0]},
        "eta": 0.25,
        "m": 1,
        "k_cont": 0.5,
        "oracle": {"kind": "builtin", "name": "affine", "W": [[-0.5]], "b": [0.0]},
    })
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0
    assert main(["compile", str(out / "interpolant.json"), "--out", str(out)]) == 0
    return out / "network.json"


def test_audit_gronwall_exact_reproduction(tmp_path):
    net = _linear_controller_chain(tmp_path)
    cfg = _write_cfg(tmp_path / "aud.json", {
        "model": "linear_1d",
        "budget": {"k_x": 1.0, "k_u": 1.0, "k_cont": 0.5, "tau": 0.5, "delta": 0.5},
        "oracle": {"kind": "builtin", "name": "affine", "W": [[-0.5]], "b": [0.0]},
        "probes": {"per_axis": 9},
    })
    assert main(["audit", "--which", "gronwall", "--network", str(net),
                 "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = _report(tmp_path, "audit_gronwall_report.json")
    assert rep["pass"] is True
    res = rep["results"]
    # the compiled feedback droops near the box edges, so the gap is small
    # but nonzero; the measured controller gap must still dominate it
    assert res["mu_source"] == "measured"
    assert res["bound_pass"] is True and res["delta_pass"] is True
    assert res["max_deviation"] <= res["bound"] + 1e-7
    assert res["max_deviation"] <= 0.01


@pytest.mark.parametrize("step, steps", [(None, 16), (0.05, 10)], ids=["automatic", "configured"])
def test_audit_gronwall_reports_its_step_and_residual(tmp_path, step, steps):
    # with no step the audit stops at tau/16 on this smooth loop; a
    # configured step is used as it is
    net = _linear_controller_chain(tmp_path)
    cfg = _write_cfg(tmp_path / "aud.json", {
        "model": "linear_1d",
        "budget": {"k_x": 1.0, "k_u": 1.0, "k_cont": 0.5, "tau": 0.5, "delta": 0.5},
        "oracle": {"kind": "builtin", "name": "affine", "W": [[-0.5]], "b": [0.0]},
        "probes": {"per_axis": 9},
        "step": step,
    })
    assert main(["audit", "--which", "gronwall", "--network", str(net),
                 "--config", cfg, "--out", str(tmp_path)]) == 0
    res = _report(tmp_path, "audit_gronwall_report.json")["results"]
    assert res["step"] == 0.5 / steps
    margin = min(res["bound"], res["delta"]) - res["max_deviation"]
    assert 0.0 < res["integration_residual"] < 0.01 * margin


@pytest.mark.parametrize("which", ["gronwall", "invariance"])
def test_audit_step_with_no_finite_step_count_is_config_error(tmp_path, capsys, which):
    # tau / 5e-324 overflows to inf: the step is rejected before any integration
    net = _linear_controller_chain(tmp_path)
    cfg = _write_cfg(tmp_path / "aud.json", {
        "model": "linear_1d",
        "budget": {"k_x": 1.0, "k_u": 1.0, "k_cont": 0.5, "tau": 0.5, "delta": 0.1},
        "oracle": {"kind": "builtin", "name": "zero"},
        "step": 5e-324,
    })
    capsys.readouterr()
    assert main(["audit", "--which", which, "--network", str(net),
                 "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no finite step count" in err
    assert not (tmp_path / f"audit_{which}_report.json").exists()


def test_audit_gronwall_requires_network(tmp_path):
    cfg = _write_cfg(tmp_path / "aud.json", {
        "model": "linear_1d",
        "budget": {"k_x": 1.0, "k_u": 1.0, "k_cont": 0.5, "tau": 0.5, "delta": 0.5},
        "oracle": {"kind": "builtin", "name": "zero"},
    })
    assert main(["audit", "--which", "gronwall", "--config", cfg,
                 "--out", str(tmp_path)]) == 2


def test_sysid_build_and_audit(tmp_path):
    sid = tmp_path / "sid"
    cfg = _write_cfg(tmp_path / "sid.json", {
        "model": "linear_1d",
        "eta": 0.5,
        "budget": {"k_x": 1.0, "k_u": 1.0, "k_cont": 0.5, "tau": 0.5, "delta": 0.5},
    })
    assert main(["sysid", "--config", cfg, "--out", str(sid)]) == 0
    rep = _report(sid, "sysid_report.json")
    assert rep["pass"] is True
    res = rep["results"]
    assert float.fromhex(res["eta"]) == 0.5
    assert res["grid_points"] == 16  # 4 per axis over [-1,1] x [-1,1]
    assert res["size_bound"] == 72   # 2! * ceil(2/0.5 + 2)^2
    assert all(size <= res["size_bound"] for size in res["bank_sizes"])
    assert "deviation_budget" in res
    assert (sid / "sysid_network.json").exists()
    reported, written = _selector_masses(rep, sid / "sysid_network.json")
    assert reported == written

    aud = _write_cfg(tmp_path / "aud.json", {
        "model": "linear_1d",
        "budget": {"k_x": 1.0, "k_u": 1.0, "k_cont": 0.5, "tau": 0.5, "delta": 0.5},
        "oracle": {"kind": "builtin", "name": "affine", "W": [[-0.5]], "b": [0.0]},
        "probes": {"per_axis": 5},
    })
    assert main(["audit", "--which", "sysid",
                 "--network", str(sid / "sysid_network.json"),
                 "--config", aud, "--out", str(tmp_path)]) == 0
    rep = _report(tmp_path, "audit_sysid_report.json")
    assert rep["pass"] is True


@pytest.mark.parametrize("k_u", [0.0, 1.0])
def test_sysid_deviation_budget_is_the_one_size_reports(tmp_path, k_u):
    # at k_u = 0 mu_max is +inf, needs no eta, and the bound k_u * mu * ... is 0
    budget = {"k_x": 1.0, "k_u": k_u, "k_cont": 0.5, "tau": 0.5, "delta": 0.5}
    box = {"lower": [-1.0], "upper": [1.0]}     # the linear_1d state and input boxes
    sysid = _write_cfg(tmp_path / "sid.json", {"model": "linear_1d", "eta": 0.5,
                                               "budget": budget})
    size = _write_cfg(tmp_path / "size.json", {"budget": budget, "eta": 0.5,
                                               "domain": box, "input_box": box})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")         # mu_max warns at k_u = 0
        assert main(["sysid", "--config", sysid, "--out", str(tmp_path)]) == 0
        assert main(["size", "--config", size, "--out", str(tmp_path)]) == 0
    got = _report(tmp_path, "sysid_report.json")["results"]["deviation_budget"]
    assert got == _report(tmp_path, "size_report.json")["results"]["sysid"]["deviation_bound"]
    assert (float.fromhex(got) == 0.0) == (k_u == 0.0)


def test_sysid_bound_violation_writes_a_failing_report(tmp_path, capsys, monkeypatch):
    # the sysid bank never outgrows its size bound, so the bound is made too small
    monkeypatch.setattr(tll, "controller_size", lambda n, ext, eta: 0)
    cfg = _write_cfg(tmp_path / "sid.json", {"model": "linear_1d", "eta": 0.5})
    capsys.readouterr()
    assert main(["sysid", "--config", cfg, "--out", str(tmp_path)]) == 1
    _assert_audit_error_report(tmp_path, "sysid_report.json", capsys)
    assert not list(tmp_path.glob("sysid_*network.json"))


@pytest.mark.parametrize("domain", [{}, None], ids=["empty", "null"])
def test_sysid_malformed_domain_is_config_error(tmp_path, domain):
    # the same rule as audit: a 'domain' key must hold a box
    cfg = _write_cfg(tmp_path / "sid.json",
                     {"model": "linear_1d", "eta": 0.5, "domain": domain})
    assert main(["sysid", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "sysid_report.json").exists()


def test_audit_sysid_shape_mismatch_is_config_error(tmp_path):
    # a controller network maps 1 -> 1; the surrogate must map 2 -> 1
    net = _linear_controller_chain(tmp_path)
    cfg = _write_cfg(tmp_path / "aud.json", {
        "model": "linear_1d",
        "budget": {"k_x": 1.0, "k_u": 1.0, "k_cont": 0.5, "tau": 0.5, "delta": 0.5},
        "oracle": {"kind": "builtin", "name": "zero"},
    })
    assert main(["audit", "--which", "sysid", "--network", str(net),
                 "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("which", ["gronwall", "invariance"])
@pytest.mark.parametrize("model, net_shape, model_shape", [
    ("linear_1d", (2, 1), (1, 1)),
    ("pendulum", (2, 2), (2, 1)),
], ids=["two-inputs-on-linear_1d", "two-outputs-on-pendulum"])
def test_audit_controller_network_must_fit_the_model(tmp_path, capsys, which, model,
                                                     net_shape, model_shape):
    n, m = net_shape
    lattice = ScalarLattice(np.zeros((1, n)), np.zeros(1), [[0]])
    net = tmp_path / "network.json"
    dump_json(export_network(TllNetwork(n, [lattice] * m)), str(net))
    cfg = _write_cfg(tmp_path / "aud.json", {
        "model": model,
        "budget": {"k_x": 1.5, "k_u": 1.0, "k_cont": 0.5, "tau": 0.5, "delta": 0.5},
        "oracle": {"kind": "builtin", "name": "zero"},
        "probes": {"per_axis": 3},
    })
    assert main(["audit", "--which", which, "--network", str(net),
                 "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "R^%d to R^%d" % net_shape in err and "R^%d to R^%d" % model_shape in err
    assert not (tmp_path / f"audit_{which}_report.json").exists()


# -- ads-check ------------------------------------------------------------------------


def _ts_file(path, coords, transitions):
    ts = FiniteTransitionSystem(np.array(coords, dtype=float), set(transitions))
    dump_json(ts.to_json(), str(path))
    return str(path)


def test_ads_check_pass_fail_and_validation(tmp_path):
    a = _ts_file(tmp_path / "a.json", [[0.0], [1.0]],
                 {(0, "go", 1), (1, "go", 1)})
    chain = _ts_file(tmp_path / "chain.json", [[0.0], [1.0], [2.0]],
                     {(0, "go", 1), (1, "go", 2)})
    sparse = _ts_file(tmp_path / "sparse.json", [[5.0]], {(0, "go", 0)})

    assert main(["ads-check", a, a, "--delta", "0.0", "--out", str(tmp_path)]) == 0
    rep = _report(tmp_path, "ads_check_report.json")
    assert rep["pass"] is True
    assert rep["results"]["num_states"] == [2, 2]

    assert main(["ads-check", chain, sparse, "--delta", "0.1",
                 "--out", str(tmp_path)]) == 1
    rep = _report(tmp_path, "ads_check_report.json")
    assert rep["pass"] is False
    assert rep["results"]["counterexample"] is not None

    assert main(["ads-check", a, a, "--delta", "-1.0", "--out", str(tmp_path)]) == 2
    assert main(["ads-check", a, str(tmp_path / "missing.json"),
                 "--delta", "0.0", "--out", str(tmp_path)]) == 2
    malformed = tmp_path / "malformed.json"
    dump_json({"states": [{"id": 0}], "transitions": []}, str(malformed))
    assert main(["ads-check", a, str(malformed), "--delta", "0.0",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_ads_check_nonfinite_delta_is_config_error(tmp_path, delta):
    a = _ts_file(tmp_path / "a.json", [[0.0], [1.0]], {(0, "go", 1), (1, "go", 1)})
    assert main(["ads-check", a, a, "--delta", delta, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "ads_check_report.json").exists()


# -- process-level entry points ---------------------------------------------------------


def test_the_chain_imports_no_module_after_the_cli(tmp_path):
    # numpy's lazy modules (numpy.ma, which np.unique loads on numpy 2.4;
    # numpy.random) cost resident memory; a chain run after importing the
    # CLI must load none of them.  Compared before and after, not by name:
    # numpy 1.x loads numpy.ma with numpy itself
    ctrl = _write_cfg(tmp_path / "ctrl.json", {
        "domain": {"lower": [-1.0], "upper": [1.0]}, "eta": 0.25, "m": 1, "k_cont": 0.5,
        "oracle": {"kind": "builtin", "name": "affine", "W": [[-0.5]], "b": [0.0]}})
    audit = _write_cfg(tmp_path / "audit.json", {
        "model": "linear_1d",
        "budget": {"k_x": 1.0, "k_u": 1.0, "k_cont": 0.5, "tau": 0.5, "delta": 0.5},
        "oracle": {"kind": "builtin", "name": "affine", "W": [[-0.5]], "b": [0.0]},
        "probes": {"per_axis": 3}})
    out = str(tmp_path / "out")
    net = f"{out}/network.json"
    chain = [["build", "--config", ctrl], ["compile", f"{out}/interpolant.json"],
             ["export", net, "--expanded"],
             ["audit", "--which", "invariance", "--network", net, "--config", audit]]
    script = ("import json, sys\n"
              "from tllsynth import cli\n"
              "before = set(sys.modules)\n"
              "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, sorted(set(sys.modules) - before)]))\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps([argv + ["--out", out] for argv in chain])],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    codes, added = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert added == [], f"the chain imported {', '.join(added)}"


def test_module_and_console_entry_points(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json", _size_cfg())
    proc = subprocess.run([sys.executable, "-m", "tllsynth", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("tllsynth ")
    proc = subprocess.run(
        [sys.executable, "-m", "tllsynth", "size", "--config", cfg,
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "[PASS] size" in proc.stdout
    exe = shutil.which("tllsynth")
    assert exe is not None
    proc = subprocess.run([exe, "size", "--config", cfg, "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
