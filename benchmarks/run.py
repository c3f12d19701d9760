"""Benchmark of the edgespectra command line, driven the way users drive it.

    python3 benchmarks/run.py --workload query-mix --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1        # every workload
    python3 benchmarks/run.py --workload graph-truth --smoke --trace 1

Each pass runs in a fresh interpreter (worker.py), so the package's caches
start cold, as they do for a user's first CLI call.  A
pass imports the package, then one caller calls `edgespectra.cli.main`
on the workload's ops one after another (a closed loop), and checks every
op against its seed pin and an independent re-check.

--trace 0 measures the end-to-end metrics.  A few import-only processes
time set-up, then fresh passes run the op list until --seconds have
passed, at least MIN_PASSES of them.  Each op is timed once per pass, cold
where the pass has not filled its caches yet.  This machine's speed
drifts by a fifth or more within minutes, so each process also times a
fixed reference probe, right after the import and every tenth of a
second while the ops run, and scales the times it measures to the
reference speed (worker.py).  A
pass gives norm_wall_s (the sum of its ops' scaled times),
norm_op_p50_ms and norm_op_p90_ms (percentiles over its ops' scaled
times) and peak_rss_mb; the run reports the median of each over its
passes, and setup_s as the median scaled import time of all its
processes.  The times as measured, before scaling, are printed on a line
of their own.  --trace 1 runs one pass untraced and one traced
(spans.py), and reports the per-layer metrics, as measured, with the
tracing overhead as traced minus untraced wall time.  Spans of the
traced pass are written to .bench_out/.  Metric names and units come
from BENCHMARK.json.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Exit status: 0 when every op passed, 1 when an op
failed (the JSON is still printed), 2 when the benchmark itself could not
run (nothing is printed as a result).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROCESSES = 5
MIN_PASSES = 3
RUN_LIMIT_S = 170  # every run must end within 180 s


class HarnessError(Exception):
    """The benchmark could not produce a result."""


def _child(request: dict, deadline: float) -> dict:
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(request), capture_output=True,
                              text=True, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"a pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            spec: dict) -> tuple[dict, list[dict], list[str]]:
    """(metrics, passes, notes) for one run of one workload."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    ops = workloads.generate(workload, seed, workloads.load_pins(), smoke=smoke)
    notes = [f"{workload}: {len(ops)} ops, argv digest {workloads.argv_digest(ops)}"]
    request = {"ops": ops, "trace": False}

    if trace:
        plain = _child(request, deadline)
        OUT_DIR.mkdir(exist_ok=True)
        spans_out = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        traced = _child(dict(request, trace=True, spans_out=str(spans_out)), deadline)
        passes = [plain, traced]
        layers = traced["layers"]
        missing = [m for m in workloads.WORKLOADS[workload].expect if not layers.get(m)]
        if missing:
            raise HarnessError(f"traced pass recorded nothing for {missing}: "
                               "a wrapper binding was missed")
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics = {m["name"]: layers.get(m["name"], 0) for m in spec["per_layer"]}
        notes.append(f"{workload}: spans written to {spans_out.relative_to(ROOT)}")
    else:
        setups = [_child({"setup_only": True}, deadline)
                  for _ in range(1 if smoke else SETUP_PROCESSES)]
        passes = []
        while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
            passes.append(_child(dict(request, scale=True), deadline))
            if smoke:
                break
        per_pass = {
            "norm_wall_s": [p["norm_wall_s"] for p in passes],
            "norm_op_p50_ms": [statistics.median(p["norm_latencies_ms"]) for p in passes],
            "norm_op_p90_ms": [_quantile(p["norm_latencies_ms"], 90) for p in passes],
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        }
        metrics = {"setup_s": statistics.median(p["norm_setup_s"] for p in setups + passes)}
        metrics.update((k, statistics.median(v)) for k, v in per_pass.items())
        raw = {
            "setup_s": statistics.median(p["setup_s"] for p in setups + passes),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "op_p50_ms": statistics.median(statistics.median(p["latencies_ms"]) for p in passes),
            "op_p90_ms": statistics.median(_quantile(p["latencies_ms"], 90) for p in passes),
            "probe_ms": statistics.median(p["probe_ms"] for p in passes),
        }
        p99 = statistics.median(_quantile(p["norm_latencies_ms"], 99) for p in passes)
        notes.append(f"{workload}: medians over {len(passes)} passes of {len(ops)} ops each; "
                     f"norm p99 {p99:.3f} ms")
        notes.append(f"{workload}: as measured, before scaling to the reference speed: "
                     + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        notes.append(f"{workload}: norm_wall_s per pass: "
                     + " ".join(f"{v:.4g}" for v in per_pass["norm_wall_s"]))
    return metrics, passes, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed op lists, to test the harness in seconds")
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "edgespectra" / "__init__.py").is_file():
            raise HarnessError(f"no package source under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name] = measure(name, args.seed, seconds, bool(args.trace), args.smoke, spec)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    attempted, failed, out = 0, 0, {}
    for name, (metrics, passes, notes) in results.items():
        for line in notes:
            print(line)
        for p in passes:
            attempted += p["attempted"]
            failed += p["failed"]
            for line in p["failures"]:
                print(f"{name}: FAILED {line}")
        for line in sorted({d for p in passes for d in p["known_defects"]}):
            print(f"{name}: known defect, pinned at the seed: {line}")
        for key, value in metrics.items():
            print(f"{name}: {key} = {value:.6g} {units[key]}")
            out[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": units[key]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
