"""Smoke test of the benchmark at tiny sizes.

    python3 bench/smoke.py

Runs every workload once untraced and once traced with ``--tiny`` and
checks that each run passes all its output checks, that the JSON result
holds exactly the metrics BENCHMARK.json declares, with their units, and
that the table above it prints each of them with a unit and sample count.
Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, traced: int, declared: dict[str, str]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(traced), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} trace={traced}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    bad = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        bad.append(f"{where}: output checks failed\n{proc.stderr[-2000:]}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        bad.append(f"{where}: metrics {got} differ from BENCHMARK.json {declared}")
    rows = {line.split()[0]: line.split()[2:] for line in lines[:-1]}
    for name, unit in declared.items():
        if rows.get(name, [None])[0] != unit or not rows[name][1].startswith("n="):
            bad.append(f"{where}: table row for {name} lacks its unit or sample count")
    return bad


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kinds = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for wl in spec["workloads"]:
        for traced, declared in kinds.items():
            bad = run(wl["name"], traced, declared)
            for msg in bad:
                print("FAIL", msg)
            if bad:
                return 1
            print(f"ok   {wl['name']} trace={traced}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
