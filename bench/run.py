"""tllsynth benchmark: one workload, seeded, timed or traced.

    python3 bench/run.py --workload synth-2d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One set-up (imports in a fresh interpreter, seeded inputs,
starting the oracle child) comes first.  Ops then run back to back, each
followed by its output checks and one more set-up, until ``--seconds`` of
op time have passed; set-ups are topped up to SETUP_REPS and their median
reported.  Spreading them over the run lets them sample the same host
speed as the ops.  The last stdout line is the JSON result; the
lines before it are a human-readable table with units and sample counts.

``--trace 1`` runs half the time untraced and half with spans installed,
and prints the per-layer metrics and the tracing overhead instead.
``--tiny`` shrinks every workload to seconds-long smoke sizes.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: the host has two cores and the
# oracle child runs beside the benchmark process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import mean, median  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 9
MIN_OPS = 3

# chain_cpu_s is gated in place of the wall-clock chain_s: on a shared
# host the speed drifts, and CPU seconds spread about as much as wall
# seconds or less (see README.md)
END_TO_END = [("chain_cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("artifact_bytes", "bytes"), ("ok_ratio", "ratio")]


def setup_once(wl, inp: Path) -> float:
    """Seconds for one set-up: fresh-interpreter import, inputs, oracle start."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tllsynth.cli"], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
    wl.write_inputs(inp)
    cfg = json.loads((inp / "config.json").read_text(encoding="utf-8"))
    with subprocess.Popen(cfg["oracle"]["argv"], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True) as child:
        child.stdin.write(json.dumps({"points": [[0.0] * wl.spec["n"]]}) + "\n")
        child.stdin.flush()
        reply = json.loads(child.stdout.readline())
        child.stdin.close()
        child.wait(timeout=60)
    if len(reply["controls"]) != 1:
        raise RuntimeError("oracle child answered a one-point batch wrongly")
    (inp / "oracle_counts.jsonl").unlink()
    return time.perf_counter() - t0


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and its reaped children."""
    own, kids = (resource.getrusage(who) for who in
                 (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


_CALIB_M = np.random.default_rng(0).random((64, 64))


def host_calib_ms() -> float:
    """Milliseconds of a fixed pure-Python plus BLAS loop, median of 3.

    Printed beside ``chain_s`` and ``chain_cpu_s``, and not gated.  A
    shared host's speed drifts by tens of percent over minutes, wall and
    CPU time alike, and this figure shows whether a run fell in a slow
    phase.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc: dict[int, int] = {}
        for j in range(100_000):
            acc[j & 1023] = acc.get(j & 1023, 0) + j * j
        for _ in range(100):
            _CALIB_M @ _CALIB_M
        times.append(time.perf_counter() - t0)
    return 1000.0 * median(times)


def in_child(fn, *args):
    """``fn(*args)`` in a forked child.  The output checks run this way, so
    the memory they take stays out of this process's ``ru_maxrss``, which is
    meant to show the program's peak."""
    with multiprocessing.get_context("fork").Pool(1) as pool:
        return pool.apply(fn, args)


def run_ops(wl, cli, work: Path, seconds: float, min_ops: int, tracer,
            first_op: int, after_op) -> list[dict]:
    """Ops back to back, at least ``min_ops``; the last one is the op whose
    end falls nearest to ``seconds`` of summed op time.  ``after_op()``
    runs after each op's checks, outside its timing."""
    results = []
    spent = 0.0
    while len(results) < min_ops or spent + results[-1]["chain_s"] / 2 < seconds:
        op_id = first_op + len(results)
        out = work / f"op{op_id}"
        tracer.op = op_id
        gc.collect()
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            rec = wl.op(cli, out, tracer)
        except Exception:  # an op that raises counts as failed; keep measuring
            rec = {"failures": ["exception: " + traceback.format_exc()]}
        elapsed, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        if not rec["failures"]:
            try:
                rec["failures"] = in_child(wl.check, out, rec)
            except Exception:
                rec["failures"] = ["check raised: " + traceback.format_exc()]
        rec["chain_s"] = elapsed
        rec["cpu_s"] = cpu
        spent += elapsed
        rec["artifact_bytes"] = sum(p.stat().st_size for p in out.glob("*.json"))
        rec["relu_neurons"] = wl.neurons(out) if not rec["failures"] else 0
        batches, points = workloads.read_oracle_counts(wl.inp)
        tracer.count("cpwa.oracle_batches", batches)
        tracer.count("cpwa.oracle_points", points)
        tracer.count("cpwa.points_per_batch", points / batches if batches else 0.0)
        tracer.count("tll.relu_neurons", rec["relu_neurons"])
        print(f"op {op_id}: {elapsed:.3f} s wall, {cpu:.3f} s cpu, "
              f"{'FAILED' if rec['failures'] else 'ok'}",
              file=sys.stderr)
        for msg in rec["failures"]:
            print(f"  {msg}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        rec["calib_ms"] = host_calib_ms()
        results.append(rec)
        after_op()
    return results


def table(rows: list[tuple[str, float, str, int]]) -> None:
    for name, value, unit, samples in rows:
        print(f"{name:40s} {value:>16.6g} {unit:8s} n={samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "tllsynth" / "__init__.py").is_file():
        print(f"no tllsynth sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tllsynth.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"tllsynth was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    work = BENCH / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    setups: list[float] = []

    def set_up() -> None:
        if len(setups) < SETUP_REPS:
            setups.append(setup_once(wl, work / f"inputs{len(setups)}"))

    set_up()
    wl.inp = work / "inputs0"  # the ops read the first set-up's inputs

    if args.trace:
        half = args.seconds / 2
        plain = run_ops(wl, cli, work, half, 1, spans.NullTracer(), 0, set_up)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_ops(wl, cli, work, half, 1, tracer, len(plain), set_up)
        finally:
            tracer.uninstall()
        ops = plain + traced
        tracer.dump(BENCH / "work" / f"trace-{args.workload}-{args.seed}.json")
        layer = tracer.metrics()
        layer["trace.chain_s"] = median(r["chain_s"] for r in traced)
        layer["trace.overhead_s"] = layer["trace.chain_s"] - median(r["chain_s"] for r in plain)
        units = dict(spans.per_layer_names())
        table([(k, layer[k], units[k], len(traced)) for k, _ in spans.per_layer_names()])
        metrics = {k: {"value": layer[k], "unit": u} for k, u in spans.per_layer_names()}
    else:
        ops = run_ops(wl, cli, work, args.seconds, MIN_OPS, spans.NullTracer(), 0, set_up)
        while len(setups) < SETUP_REPS:
            set_up()
        n_ok = sum(not r["failures"] for r in ops)
        values = {
            "chain_cpu_s": median(r["cpu_s"] for r in ops),
            "setup_s": median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "artifact_bytes": mean(r["artifact_bytes"] for r in ops),
            "ok_ratio": n_ok / len(ops),
        }
        samples = {"setup_s": len(setups), "peak_rss_mb": 1}
        rows = [(k, values[k], u, samples.get(k, len(ops))) for k, u in END_TO_END]
        # shown for people, not gated: fail_ratio can be 0, interp-4d
        # produces no network to count neurons in, wall seconds spread more
        # than CPU seconds, and the calibration loop measures the host
        rows.append(("fail_ratio", 1.0 - values["ok_ratio"], "ratio", len(ops)))
        rows.append(("chain_s", median(r["chain_s"] for r in ops), "s", len(ops)))
        rows.append(("host_calib_ms", median(r["calib_ms"] for r in ops), "ms", len(ops)))
        if args.workload != "interp-4d":
            rows.append(("relu_neurons", mean(r["relu_neurons"] for r in ops), "count",
                         len(ops)))
        if args.workload == "closed-loop":  # recorded, not checked: no known answer
            rows.append(("invariance_holds", mean(r.get("invariance_holds", 0) for r in ops),
                         "ratio", len(ops)))
        table(rows)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    shutil.rmtree(work, ignore_errors=True)
    failed = sum(bool(r["failures"]) for r in ops)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
