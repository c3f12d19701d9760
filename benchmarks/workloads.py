"""Workload definitions: candidate pools, seeded op lists and smoke lists.

A workload is a list of phases, run in order.  A phase holds op kinds; the
ops drawn for the kinds of one phase are shuffled together by the workload
seed, unless the phase is ordered.  Every op a run can draw comes from a
pool that `pin.py` built once, at the seed commit, from a fixed pool seed:
that is what lets every op carry a pin (its exit code and output digest at
the seed) whatever `--seed` the benchmark is given.

Each pool entry also carries a cost bucket, floor(log2(ms)) of the op's
latency when it was pinned.  A run draws the same share of every bucket,
so two seeds give different ops with the same cost profile, and the
end-to-end times compare across seeds.

A pass runs its op list once, in order, each op timed once (worker.py).
Caches filled by an op stay filled for the ops after it in the same pass,
as they would for one user calling `main` again and again in one process.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
POOL_SEED = 210103898


def tri(k: int) -> int:
    return k * (k - 1) // 2


@dataclass(frozen=True)
class Kind:
    """One kind of op: a candidate generator, its pool size and draw count.

    `check` names the re-check in checks.py applied to the op's output.
    A `probe` op reproduces a defect known at the seed.  It is judged by its
    re-check alone, not by its pin, and while it fails the seed's way it is
    reported but not counted as failed (see worker.py).
    """

    name: str
    check: str
    gen: Callable[[random.Random], str] | None = None
    pool: int = 0
    draw: int = 0
    fixed: tuple[str, ...] = ()
    probe: bool = False


@dataclass(frozen=True)
class Phase:
    kinds: tuple[Kind, ...]
    ordered: bool = False


@dataclass(frozen=True)
class Workload:
    phases: tuple[Phase, ...]
    smoke: tuple[tuple[str, str], ...] = ()  # (argv, check)
    # traced metrics that must be nonzero, or a wrapper binding was missed
    expect: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Candidate generators (used by pin.py only)
# ---------------------------------------------------------------------------

def _pair(rng: random.Random) -> tuple[int, int]:
    m = rng.randint(3, 3000)
    return m, rng.randint(0, tri(m))


def _witness7(rng: random.Random) -> str:
    from edgespectra.squares import r7_interval

    n = rng.randint(30000, 300000)
    lo, hi = r7_interval(n)
    return f"witness7 --n {n} --m {rng.randint(lo, hi)}"


def _small_witness(rng: random.Random) -> str:
    n = rng.randint(10, 150)
    return f"witness --n {n} --r {rng.randint(2, 6)} --m {rng.randint(0, tri(n))} --check"


def _arrow(n_lo: int, n_hi: int, ms: tuple[int, ...], extra: str):
    def gen(rng: random.Random) -> str:
        n = rng.randint(n_lo, n_hi)
        m = rng.choice([m for m in ms if m <= n])
        return (f"arrow --n {n} --e {rng.randint(0, tri(n))} --m {m} "
                f"--f {rng.randint(0, tri(m))}{extra}")
    return gen


def _snm(n: int, ms: tuple[int, ...], cmd: str, extra: str):
    def gen(rng: random.Random) -> str:
        m = rng.choice(ms)
        return f"{cmd} --n {n} --m {m} --f {rng.randint(0, tri(m))}{extra}"
    return gen


# classify on pell.family_pair(k) for k = 1..4; the certified verdict is 1/2
_FAMILY = ("classify --m 1112 --f 222111",
           "classify --m 283202 --f 14436488160",
           "classify --m 71932952 --f 931382894806335",
           "classify --m 18270687362 --f 60087242994716684736")


# ---------------------------------------------------------------------------
# Workloads (why each exists is recorded in BENCHMARK.json)
# ---------------------------------------------------------------------------

# Labeled n = 7 queries keep m in {3, 4, 5}: graphs caches at most four
# labeled achieved-tables, and a wider m range would make the run time
# depend on the order the seed shuffles the ops into.
_LABELED_MS = (3, 4, 5)

WORKLOADS = {
    "spectrum-scale": Workload(
        # n stays at most 1000, so that a pass is short enough to run several
        # times in one run (run.py): at the seed the n = 2000 DP and the
        # n = 1000 member list take 14 s each.
        phases=(
            Phase(ordered=True, kinds=(Kind(
                "scale", check="scale",
                fixed=("density --n 1000 --r 5 --check", "spectrum --n 500 --r 5")),)),
            # the first witness query builds the tables, the rest reuse them
            Phase(kinds=(Kind(
                "witness", check="witness", pool=600, draw=100,
                gen=lambda rng: f"witness --n 700 --r 5 --m {rng.randint(0, tri(700))} --check"),)),
        ),
        smoke=(("density --n 60 --r 5 --check", "scale"),
               ("spectrum --n 40 --r 5", "scale"),
               ("witness --n 40 --r 5 --m 300 --check", "witness"),
               ("witness --n 40 --r 5 --m 421 --check", "witness")),
        expect=("cli.main.calls", "cli.build_parser.s", "cliquespec.spectrum.calls",
                "cliquespec.members.calls", "cliquespec.member_witness.calls"),
    ),
    "query-mix": Workload(
        phases=(Phase(kinds=(
            Kind("classify", check="classify", pool=600, draw=60,
                 gen=lambda rng: "classify --m {} --f {} --check".format(*_pair(rng))),
            Kind("minr", check="none", pool=600, draw=60,
                 gen=lambda rng: "minr --m {} --f {} --check".format(*_pair(rng))),
            Kind("dm", check="dm", pool=600, draw=60,
                 gen=lambda rng: "dm --m {} --f {} --check".format(*_pair(rng))),
            Kind("three-squares", check="three_squares", pool=500, draw=50,
                 gen=lambda rng: f"three-squares --v {rng.randint(0, 10 ** 9)} --check"),
            Kind("witness7", check="witness7", pool=500, draw=50, gen=_witness7),
            Kind("witness7-campaign", check="witness7", pool=8, draw=1,
                 gen=lambda rng: f"witness7 --n 30000 --samples 2000 --seed {rng.randint(0, 10 ** 6)} --threads 2"),
            Kind("spectrum", check="spectrum", pool=200, draw=25,
                 gen=lambda rng: f"spectrum --n {rng.randint(10, 150)} --r {rng.randint(2, 6)} --check"),
            Kind("witness", check="witness", pool=300, draw=30,
                 gen=_small_witness),
            Kind("arrow", check="arrow", pool=300, draw=30, gen=_arrow(3, 6, (2, 3, 4), " --check")),
            Kind("bennett", check="bennett", pool=40, draw=8,
                 gen=lambda rng: f"bennett --y-limit {rng.randint(10, 3000)} --check"),
            Kind("pell", check="pell", pool=12, draw=4,
                 gen=lambda rng: f"pell --k {rng.randint(1, 12)} --check"),
            Kind("abc", check="abc", fixed=("abc --k-max 2",)),
            Kind("repcount", check="repcount", pool=8, draw=1,
                 gen=lambda rng: (lambda n: f"repcount --n {n} --N {n // 3} --check")(rng.randint(40, 80))),
            Kind("family", check="family", fixed=_FAMILY[:3]),
            Kind("family-k4", check="family", fixed=_FAMILY[3:], probe=True),
        )),),
        smoke=(("classify --m 7 --f 12 --check", "classify"),
               ("minr --m 1112 --f 222111 --check", "none"),
               ("dm --m 40 --f 300 --check", "dm"),
               ("three-squares --v 1000003 --check", "three_squares"),
               ("witness7 --n 30000 --m 100000000", "witness7"),
               ("spectrum --n 12 --r 3 --check", "spectrum"),
               ("witness --n 12 --r 3 --m 30 --check", "witness"),
               ("arrow --n 5 --e 6 --m 3 --f 3 --check", "arrow"),
               ("bennett --y-limit 50 --check", "bennett"),
               ("pell --k 1 --check", "pell"),
               ("abc --k-max 1", "abc"),
               ("repcount --n 30 --N 8 --check", "repcount"),
               (_FAMILY[0], "family")),
        expect=("cli.main.calls", "cli.build_parser.s", "certify.classify_pair.calls",
                "certify.min_r.calls", "certify.three_part_witness.calls",
                "certify.dm_witness.calls", "squares.witness7.calls",
                "squares.three_square_decomp.calls", "pell.family_pair.s",
                "pell.verify_ABC.s", "repcount.rep_histogram.calls",
                "cliquespec.spectrum.calls", "graphs.arrow.labeled_s"),
    ),
    "graph-truth": Workload(
        phases=(
            Phase(ordered=True, kinds=(Kind("turan", check="turan", fixed=("turan --n 7 --m 4",)),)),
            Phase(kinds=(
                # pools hold every (e, m, f) these generators can give
                Kind("snm", check="snm", pool=22, draw=10,
                     gen=_snm(7, _LABELED_MS, "snm", " --check")),
                Kind("runs", check="runs", pool=22, draw=10,
                     gen=_snm(7, _LABELED_MS, "runs", "")),
                Kind("arrow", check="arrow", pool=484, draw=150,
                     gen=_arrow(7, 7, _LABELED_MS, " --check")),
            )),
            # builds the cold n = 8 catalogue; one fixed op, because the warm
            # part of an n = 8 snm ranges from 0.05 to 2.4 s with m and f
            Phase(kinds=(Kind("catalogue", check="catalogue",
                              fixed=("snm --n 8 --m 4 --f 2 --dedup --check",)),)),
            Phase(kinds=(Kind("arrow-dedup", check="arrow", pool=80, draw=12,
                              gen=_arrow(8, 8, (3, 4, 5), " --dedup --check")),)),
            Phase(kinds=(
                Kind("concentration", check="concentration", pool=16, draw=4,
                     gen=lambda rng: (f"concentration --N 12 --E {rng.randint(10, 56)} --n 5 "
                                      f"--trials 200 --seed {rng.randint(0, 10 ** 6)}")),
                Kind("closure", check="ok", fixed=("closure --n 10 --r 3 --m 5",)),
            )),
        ),
        smoke=(("snm --n 6 --m 3 --f 1 --dedup --check", "snm"),
               ("arrow --n 6 --e 7 --m 3 --f 1 --dedup --check", "arrow"),
               ("turan --n 5 --m 3", "turan"),
               ("runs --n 5 --m 3 --f 2", "runs"),
               ("arrow --n 5 --e 4 --m 3 --f 0 --check", "arrow"),
               ("concentration --N 8 --E 10 --n 4 --trials 50 --seed 1", "concentration"),
               ("closure --n 6 --r 2 --m 3", "ok")),
        expect=("cli.main.calls", "graphs.canonical_reps.n6.classes",
                "graphs.arrow.dedup_s", "graphs.compute_Snm.dedup_s",
                "graphs.compute_Snm.labeled_s", "graphs.arrow.labeled_s",
                "graphs.concentration_experiment.s", "cliquespec.spectrum.calls"),
    ),
}


# ---------------------------------------------------------------------------
# Op lists
# ---------------------------------------------------------------------------

def load_pins(path: Path = PINS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _entry(row: list) -> dict:
    argv, code, digest, bucket = row
    return {"argv": argv, "code": code, "digest": digest, "bucket": bucket}


def _stratified(entries: list[dict], draw: int, rng: random.Random) -> list[dict]:
    """The same share of every cost bucket, the members drawn by rng with
    replacement (a user may ask the same question twice).  A draw smaller
    than the number of buckets is drawn from the whole pool."""
    buckets: dict[int, list] = {}
    for e in entries:
        buckets.setdefault(e["bucket"], []).append(e)
    if draw < len(buckets):
        return rng.choices(entries, k=draw)
    share = draw / len(entries)
    out = []
    for b in sorted(buckets):
        group = buckets[b]
        out.extend(rng.choices(group, k=max(1, round(len(group) * share))))
    return out


def generate(workload: str, seed: int, pins: dict, smoke: bool = False) -> list[dict]:
    """The op list of one run: dicts with argv, check, probe and the pin."""
    spec = WORKLOADS[workload]
    if smoke:
        table = {row[0]: _entry(row) for row in pins["smoke"][workload]}
        return [dict(table[argv], check=check, probe=False)
                for argv, check in spec.smoke]
    rng = random.Random(f"{workload}:{seed}")
    table = pins["workloads"][workload]
    ops: list[dict] = []
    for phase in spec.phases:
        drawn = []
        for kind in phase.kinds:
            entries = [_entry(row) for row in table[kind.name]]
            picked = entries if kind.fixed else _stratified(entries, kind.draw, rng)
            drawn.extend(dict(e, check=kind.check, probe=kind.probe) for e in picked)
        if not phase.ordered:
            rng.shuffle(drawn)
        ops.extend(drawn)
    return ops


def argv_digest(ops: list[dict]) -> str:
    blob = "\n".join(op["argv"] for op in ops).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
