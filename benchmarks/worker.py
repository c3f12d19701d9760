"""One benchmark pass, run by run.py in a fresh interpreter.

Reads a request from standard input: {"ops": [...], "trace": bool,
"scale": bool, "spans_out": path or null, "setup_only": bool}.  Times the
import of the package, then calls `edgespectra.cli.main(argv)` once per
op, in order, from this one thread (a closed loop with a single caller),
and checks each op against its pin and its re-check.  Prints one JSON
object with the pass's figures as its last line.

Only the calls to main are timed; pin comparison and re-checks run
outside the timed region, so the pass's wall time is the sum of its ops'
times.

The speed of the machine this runs on drifts by a fifth or more within
minutes, much the same way for all pure-Python, big-int and numpy code
(other tenants share its cores).  So the process times a fixed reference
probe that is not part of the package: SETUP_PROBES times right after
the import, then every PROBE_EVERY_S from a timer signal while the ops
run, inside long ops as well as between them.  The time spent in the
signal handler is taken off the op it interrupted.  The import and each
op get their time at the reference speed as well: the measured time
times (REF_NOMINAL_S / p) ** k, where p is the median probe time around
it and k how strongly such times follow the probe's.  A change to the
package moves the scaled times as it moves the measured ones; a drift
of the machine's speed moves the scaled ones much less.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
PROBE_EVERY_S = 0.1
PROBE_NEAREST = 9  # probes nearest an op that set its reference speed
SETUP_PROBES = 5  # probes right after the import, which set its reference speed
REF_NOMINAL_S = 0.005  # the probe's usual time on a 2.1 GHz Xeon core
# k above is 1 for ops.  For the import, which runs in a fresh process
# before any probe, it is the slope of log(import time) on log(probe time)
# over 5-6 minutes of drift on that machine.  A probe process on the other
# core did not follow this one's speed (r = 0.4), hence the signal.
SETUP_SENSITIVITY = 0.5
_BIG = (1 << 400_000) - 987_654_321


def _parser_round() -> None:
    import argparse  # after the timed import of the package, which needs it too

    parser = argparse.ArgumentParser(prog="probe")
    sub = parser.add_subparsers(dest="cmd")
    for j in range(12):
        cmd = sub.add_parser(f"c{j}", help="a subcommand")
        cmd.add_argument("--n", type=int, required=True, help="an integer")
        cmd.add_argument("--flag", action="store_true")
    parser.parse_args(["c3", "--n", "5", "--flag"])


def reference_probe() -> float:
    """Seconds a fixed mix of interpreter, argparse and big-int work takes now.

    The three parts take about the same time.  Of the mixes tried on the
    machine above, this one's speed followed that of the package's CLI
    calls, its big-int DP and its numpy tables most closely.
    """
    t0 = time.perf_counter()
    s, d = 0, {}
    for i in range(10_000):
        s += (i * 7) % 13
        d[i & 1023] = s
    _parser_round()
    acc = 0
    for k in range(1, 80):
        acc |= _BIG << k
    return time.perf_counter() - t0


def reference_scale(probes: list[tuple[float, float]], t0: float, t1: float,
                    sensitivity: float = 1.0) -> float:
    """(REF_NOMINAL_S / p) ** sensitivity, p the median time of the probes
    taken within [t0, t1], or of the PROBE_NEAREST probes nearest it if
    fewer were; probes are (time, seconds) pairs."""
    def distance(p):
        return max(t0 - p[0], p[0] - t1, 0.0)
    near = sorted(probes, key=distance)
    k = max(PROBE_NEAREST, sum(1 for p in near if distance(p) == 0.0))
    return (REF_NOMINAL_S / statistics.median(p[1] for p in near[:k])) ** sensitivity


class Sampler:
    """Times reference_probe() on entry, on exit and every PROBE_EVERY_S of
    wall time in between, from a SIGALRM handler, which runs between
    bytecodes of whatever op is running.  `probes` holds (time, seconds)
    pairs and `stolen` the handler's total time."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self.stolen = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a tick that came due during the last one
            return
        self._busy = True
        t0 = time.perf_counter()
        seconds = reference_probe()
        self.probes.append((t0 + seconds / 2, seconds))
        self.stolen += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import edgespectra  # noqa: F401
    import edgespectra.cli
    setup_s = time.perf_counter() - t0
    src = Path(edgespectra.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"edgespectra imported from {src}, not from {ROOT / 'src'}")
    return edgespectra.cli, setup_s


def execute(cli, argv: list[str], sampler: Sampler | None = None):
    """(exit code, exception name, stdout, stderr, seconds) of one main call;
    the seconds leave out the time the sampler's probes took meanwhile."""
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, None
    stolen = sampler.stolen if sampler else 0.0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejecting the argv: the CLI's exit code
        code = exc.code
    except Exception as exc:  # a crashing op is a failed op, not a failed pass
        raised = type(exc).__name__
    seconds = time.perf_counter() - t0
    if sampler:
        seconds -= sampler.stolen - stolen
    return code, raised, out.getvalue(), err.getvalue(), seconds


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def _judge(op: dict, argv: list[str], code, raised, stdout: str, stderr: str):
    """(failure reason or None, known-defect note or None) for one op.

    A probe op reproduces a defect of the seed, so its pin holds the
    defect, not the answer: it is judged by its re-check alone.  While it
    still fails the seed's way (an OverflowError) it is a known defect.
    """
    got = digest(stdout)
    problem = f"main raised {raised}" if raised else None
    if problem is None and not op["probe"] and (op["code"], op["digest"]) != (code, got):
        problem = f"exit {code}, digest {got}; pinned {op['code']}, {op['digest']}"
    if problem is None:
        problem = checks.recheck(op["check"], argv, stdout)
    if problem is not None and op["probe"]:
        if raised == "OverflowError" or (code and "OverflowError" in stderr):
            return None, f"{op['argv']}: {problem}"
    return problem, None


def run_pass(cli, ops: list[dict], tracer=None, sampler: Sampler | None = None) -> dict:
    latencies: list[float] = []
    intervals: list[tuple[float, float]] = []
    failures: list[str] = []
    defects: list[str] = []
    stdout_bytes = 0
    for i, op in enumerate(ops):
        argv = op["argv"].split()
        if tracer is not None:
            tracer.begin_op(i)
        start = time.perf_counter()
        code, raised, stdout, stderr, seconds = execute(cli, argv, sampler)
        if tracer is not None:
            tracer.end_op()
        intervals.append((start, time.perf_counter()))
        latencies.append(seconds * 1e3)
        stdout_bytes += len(stdout.encode())
        problem, defect = _judge(op, argv, code, raised, stdout, stderr)
        if problem is None and op["check"] == "catalogue":
            problem = _catalogue_classes(cli)
        if problem is not None:
            failures.append(f"{op['argv']}: {problem}")
        if defect is not None:
            defects.append(defect)
    result = {
        "wall_s": sum(latencies) / 1e3,
        "latencies_ms": latencies,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        "known_defects": sorted(set(defects)),
        "stdout_bytes": stdout_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if sampler:
        probes = sampler.probes
        scaled = [ms * reference_scale(probes, t0, t1)
                  for ms, (t0, t1) in zip(latencies, intervals)]
        result.update(norm_wall_s=sum(scaled) / 1e3, norm_latencies_ms=scaled,
                      probe_ms=statistics.median(p[1] for p in probes) * 1e3)
    return result


def _catalogue_classes(cli):
    got = {n: len(cli.graphs.canonical_reps(n)) for n in checks.CATALOGUE_CLASSES}
    if got != checks.CATALOGUE_CLASSES:
        return f"catalogue classes {got}, expected {checks.CATALOGUE_CLASSES}"
    return None


def main() -> int:
    req = json.load(sys.stdin)
    cli, setup_s = import_package()
    reference_probe()  # the first probe of a process runs slow; not kept
    probes = [(0.0, reference_probe()) for _ in range(SETUP_PROBES)]
    setup = {"setup_s": setup_s,
             "norm_setup_s": setup_s * reference_scale(probes, 0.0, 0.0, SETUP_SENSITIVITY)}
    if req.get("setup_only"):
        print(json.dumps(setup))
        return 0
    tracer = None
    if req["trace"]:
        import spans

        tracer = spans.Tracer()
        originals = spans.install(tracer)
        missed = spans.unwrapped_bindings(originals)
        if missed:
            print(f"wrapper not installed on: {', '.join(missed)}", file=sys.stderr)
            return 3
    if req.get("scale"):  # never when tracing: probes would count in the spans
        with Sampler() as sampler:
            result = run_pass(cli, req["ops"], sampler=sampler)
    else:
        result = run_pass(cli, req["ops"], tracer)
    result.update(setup)
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans, result["wall_s"])
        result["layers"]["cli.stdout_bytes"] = result["stdout_bytes"]
        if req.get("spans_out"):
            with open(req["spans_out"], "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(dict(zip(
                        ("id", "name", "start", "end", "parent", "op", "error", "counts"), s))) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
