"""Build the op pools and record each op's pin.  Run once, at the seed commit:

    python3 benchmarks/pin.py

For every workload kind it draws distinct candidates from a generator
seeded with workloads.POOL_SEED, runs each through `edgespectra.cli.main`
in this process and writes benchmarks/pins.json: per op its argv, exit
code, output digest (the first 16 hex digits of the sha256 of standard
output, as in the CLI manifest) and cost bucket.

A candidate stays out of the pool only when the CLI rejects it as
invalid input: argparse refuses the argv, or a documented precondition
(REJECTIONS) fails.  These are recorded, argv and reason, under
"rejected" in pins.json.  Any other nonzero exit (a failed --check, an
exhausted search window) is the program's defect: the candidate is pinned
at its exit code like any other, so the benchmark shows it.  A crash or a
failed re-check stops the script, except on a probe op, which is pinned
with the exception it raises.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys

import checks
import workloads
import worker


# The precondition errors the CLI reports for input outside a command's
# documented range (squares.PreconditionViolated, graphs.ScaleRejected).
REJECTIONS = ("error: PreconditionViolated:", "error: ScaleRejected:")


def _rejection(code, stderr: str) -> str | None:
    """Why the CLI refused the argv as invalid input, or None."""
    lines = stderr.splitlines()
    if code == 2 and any(ln.startswith("usage:") for ln in lines):
        return next((ln for ln in lines if ": error: " in ln), "argparse error")
    return next((ln for ln in lines if ln.startswith(REJECTIONS)), None) if code else None


def _pin(cli, argv: str, check: str, probe: bool = False):
    """([argv, code, digest, bucket], None), or (None, reason) for invalid input."""
    code, raised, stdout, stderr, seconds = worker.execute(cli, argv.split())
    if raised and not probe:
        raise SystemExit(f"{argv}: main raised {raised}")
    reason = _rejection(code, stderr)
    if reason:
        return None, reason
    problem = None if raised or code else checks.recheck(check, argv.split(), stdout)
    if problem and not probe:
        raise SystemExit(f"{argv}: {problem}")
    if code:
        print(f"{argv}: pinned at exit {code}: {stderr.splitlines()[0]}", file=sys.stderr)
    bucket = max(0, math.floor(math.log2(max(seconds * 1e3, 1.0))))
    return [argv, raised or code, worker.digest(stdout), bucket], None


def build_kind(cli, workload: str, kind: workloads.Kind, rejected: list) -> list:
    if kind.fixed:
        rows = [_pin(cli, argv, kind.check, kind.probe) for argv in kind.fixed]
        if any(reason for _, reason in rows):
            raise SystemExit(f"{workload}/{kind.name}: a fixed op is invalid input: {rows}")
        return [row for row, _ in rows]
    rng = random.Random(f"{workloads.POOL_SEED}:{workload}:{kind.name}")
    seen, rows = set(), []
    for _ in range(50 * kind.pool):
        if len(rows) == kind.pool:
            break
        argv = kind.gen(rng)
        if argv in seen:
            continue
        seen.add(argv)
        row, reason = _pin(cli, argv, kind.check)
        if reason:
            rejected.append([argv, reason])
        else:
            rows.append(row)
    print(f"{workload}/{kind.name}: {len(rows)} ops pinned", file=sys.stderr)
    return rows


def main() -> int:
    cli, _ = worker.import_package()
    pins = {"pool_seed": workloads.POOL_SEED, "workloads": {}, "smoke": {}, "rejected": []}
    for name, spec in workloads.WORKLOADS.items():
        smoke = [_pin(cli, argv, check) for argv, check in spec.smoke]
        if any(reason for _, reason in smoke):
            raise SystemExit(f"{name}: a smoke op is invalid input: {smoke}")
        pins["smoke"][name] = [row for row, _ in smoke]
        pins["workloads"][name] = {kind.name: build_kind(cli, name, kind, pins["rejected"])
                                   for phase in spec.phases for kind in phase.kinds}
    print(f"{len(pins['rejected'])} candidates rejected as invalid input", file=sys.stderr)
    with open(workloads.PINS_PATH, "w") as fh:
        fh.write(_dump(pins) + "\n")
    return 0


def _dump(pins: dict) -> str:
    """Indented JSON with each pinned op on one line, so a re-pin diffs by op."""
    text = json.dumps(pins, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]", text)


if __name__ == "__main__":
    sys.exit(main())
