"""Tests of the benchmark harness itself, on tiny inputs:

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import pin
import spans
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert [m["name"] for m in section] == list(result["metrics"])
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_workloads_in_the_spec_are_the_ones_defined():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_wrapper_binding_is_installed_and_a_miss_is_seen():
    import edgespectra.graphs as graphs

    tracer = spans.Tracer()
    originals = spans.install(tracer)
    assert spans.unwrapped_bindings(originals) == []
    names = {name for name, _ in originals.values()}
    assert {"cli.main", "cli.build_parser", "cliquespec.members",
            "graphs.canonical_reps"} <= names
    original = next(obj for name, obj in originals.values() if name == "cliquespec.spectrum")
    traced = graphs.spectrum
    assert traced is not original  # the from-import copy was rebound too
    graphs.spectrum = original
    try:
        assert spans.unwrapped_bindings(originals) == ["edgespectra.graphs.spectrum"]
    finally:
        graphs.spectrum = traced


def test_self_times_account_for_the_traced_wall():
    # root op 0..10 with a child 1..4, and two overlapping thread children 5..9
    recs = [[0, "cli.main", 0.0, 10.0, None, 0, None, None],
            [1, "certify.min_r", 1.0, 4.0, 0, 0, None, None],
            [2, "squares.witness7", 5.0, 8.0, 0, 0, None, None],
            [3, "squares.witness7", 6.0, 9.0, 0, 0, None, None]]
    m = spans.layer_metrics(recs, wall_s=10.5)
    assert m["cli.main.self_s"] == pytest.approx(3.0)
    assert m["harness.self_s"] == pytest.approx(0.5)
    # the two witness7 spans overlap by 2 s, which is what stays unaccounted
    assert m["trace.unaccounted_s"] == pytest.approx(-2.0)


def test_ops_are_scaled_by_the_probes_nearest_them():
    # the machine runs at the reference speed until t = 10, then at half of it
    nominal = worker.REF_NOMINAL_S
    probes = [(float(t), nominal * (1 if t < 10 else 2)) for t in range(20)]
    assert worker.reference_scale(probes, 2.0, 2.5, 1.0) == pytest.approx(1.0)
    assert worker.reference_scale(probes, 15.0, 15.5, 1.0) == pytest.approx(0.5)
    assert worker.reference_scale(probes, 15.0, 15.5, 0.5) == pytest.approx(0.5 ** 0.5)
    # an op is scaled by the probes around it, not by far ones
    assert worker.reference_scale(probes[:2] + probes[-2:], 1.5, 18.5, 1.0) == pytest.approx(2 / 3)
    # and by all probes taken during it, however many
    assert worker.reference_scale(probes, 0.0, 18.0, 1.0) == pytest.approx(1.0)
    assert worker.reference_scale(probes, 1.0, 19.0, 1.0) == pytest.approx(0.5)


def test_generation_is_seeded_and_varies_with_the_seed():
    pins = workloads.load_pins()
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 1, pins)
        assert workloads.argv_digest(a) == workloads.argv_digest(workloads.generate(name, 1, pins))
        assert workloads.argv_digest(a) != workloads.argv_digest(workloads.generate(name, 2, pins))


def test_rechecks_reject_wrong_outputs():
    assert checks.recheck("witness", "witness --n 5 --r 2 --m 4".split(),
                          '{"member": true, "parts": [3, 2]}') is None
    assert checks.recheck("witness", "witness --n 5 --r 2 --m 4".split(),
                          '{"member": true, "parts": [4, 1]}')
    assert checks.recheck("family", ["classify"], '{"exact_frac": "1/3"}')
    assert checks.recheck("scale", "density --n 500 --r 5".split(),
                          '{"count": 83296, "bounds_ok": true}')
    assert checks.recheck("three_squares", "three-squares --v 7".split(),
                          '{"in_gauss_set": true, "decomp": [2, 1, 1]}')
    assert checks.recheck("arrow", "arrow --n 4 --e 1 --m 2 --f 1".split(),
                          '{"holds": false, "counterexample": [[0, 1]]}')


_K4 = "classify --m 18270687362 --f 60087242994716684736"


def _probe(code="OverflowError", digest=worker.digest("")):
    return {"argv": _K4, "check": "family", "probe": True, "code": code, "digest": digest}


def test_a_probe_is_judged_by_its_recheck_not_by_its_pin():
    fixed = '{"exact_frac": "1/2", "lower_frac": "1/2", "upper_frac": "1/2"}\n'
    # the defect fixed: a right answer with a digest the seed never produced
    assert worker._judge(_probe(), _K4.split(), 0, None, fixed, "") == (None, None)
    # the defect as pinned at the seed: reported, not failed
    problem, defect = worker._judge(_probe(), _K4.split(), None, "OverflowError", "", "")
    assert problem is None and "OverflowError" in defect
    # a wrong answer, or another crash, fails
    wrong = fixed.replace('"exact_frac": "1/2"', '"exact_frac": "1/3"')
    assert worker._judge(_probe(), _K4.split(), 0, None, wrong, "")[0]
    assert worker._judge(_probe(), _K4.split(), None, "ZeroDivisionError", "", "")[0]


def test_an_op_that_is_not_a_probe_must_match_its_pin():
    op = {"argv": "dm --m 40 --f 300 --check", "check": "dm", "probe": False,
          "code": 0, "digest": worker.digest("{}")}
    out = '{"witness": null}\n'
    assert "pinned" in worker._judge(op, op["argv"].split(), 0, None, out, "")[0]
    assert worker._judge(dict(op, digest=worker.digest(out)), op["argv"].split(),
                         0, None, out, "") == (None, None)


def test_only_invalid_input_stays_out_of_the_pools():
    usage = "usage: edgespectra [-h]\nedgespectra: error: argument --m: invalid int value: 'x'"
    assert "invalid int" in pin._rejection(2, usage)
    assert pin._rejection(1, "error: ScaleRejected: n=13 outside supported range")
    assert pin._rejection(1, "error: PreconditionViolated: m=1 outside [2, 3] for n=9")
    # the program's own defects are pinned, not rejected
    assert pin._rejection(1, "check failed: witness does not re-validate") is None
    assert pin._rejection(1, "error: WindowExhausted: no admissible pivot") is None
    assert pin._rejection(0, "") is None


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "query-mix", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
