"""Command-line entry point: one subcommand per package operation.

Results go to standard output as JSON (JSON lines for sampling campaigns);
diagnostics and a reproducibility manifest go to standard error, on every
call.  Exit status: 0 on success; 1 on a verification failure (an interval
gap, "check failed: ..." from a re-validation) or a named package failure
(PreconditionViolated, WindowExhausted, DescentBudgetExceeded, ScaleRejected,
SpectrumMemoryError, TupleBudgetExceeded, RankBudgetExceeded, OverflowError,
RecursionError); 2 on a usage error (argparse, or a ValueError for a bad
value, such as an --export or --csv path that cannot be written).  Failures
print "error: <ExceptionName>: <message>".

--check, offered where it re-validates the result by an independent
substitution, is accepted by spectrum, witness, density, classify, minr, dm,
pell, three-squares, bennett, arrow, snm and repcount; witness7 always
re-validates.  EDGESPECTRA_MAX_TABLE_BITS overrides the spectrum memory cap.

Clique spectra (spectrum, density, interval) at r = 5 and n from 288 up
are built from the three-square cover and a top band of small DP layers,
and otherwise by the whole DP, every layer in the calling process.  The
output does not depend on the route.  spectrum --export writes its lines
as it reads them off the spectrum, holding no member list.
Witnesses (witness, the probes of spectrum --check) come from a
recursion, not from the spectrum.
A witness7 campaign runs its samples in the calling thread, in sorted
order; its --threads option is accepted and ignored.

One process builds the argument parser once, on its first main call, and
reuses it for every later call: building it takes about 4 ms, and a whole
small call such as `dm --m 8 --f 17` about 0.08 ms after that (2-core
x86-64 VM).  A call that names a subcommand first is parsed by that
subcommand's parser alone, at less than half the cost of the top parser.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import random
import re
import sys
import time
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from . import __version__, certify, cliquespec, graphs, pell, repcount, squares
from .triangles import tri


def _frac(x: Fraction | None):
    if x is None:
        return None
    return int(x) if x.denominator == 1 else float(x)


class CheckFailure(Exception):
    pass


def _require(ok: bool, failure: str) -> None:
    if not ok:
        raise CheckFailure(failure)


def _write(path: str, lines: Iterable[str]) -> None:
    """Write an output file; a path that cannot be written is a bad value."""
    try:
        with open(path, "w") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ValueError(f"{type(exc).__name__}: {exc}") from exc


# Peak memory per member of a spectrum call's payload, charged to the same
# cap as the tables.  Measured above the spectrum's own peak RSS at
# n = 2000 and 4000, r = 5: the payload's list and its JSON take 58.5
# bytes a member.  An export is written as it is read off the mask, so it
# holds no list and is not charged.
_PAYLOAD_MEMBER_BYTES = 64


# The run functions of the COMMANDS rows below.

def _cmd_spectrum(args) -> dict:
    spec = cliquespec.spectrum(args.n, args.r)
    if not args.export:
        cliquespec._check_cap(8 * _PAYLOAD_MEMBER_BYTES * spec.count, "listed members")
    if args.check:  # the probes' witnesses come from a recursion, not from the DP
        for probe in (spec.min_element, spec.max_element):
            w = cliquespec.member_witness(args.n, args.r, probe)
            _require(w is not None and w.realizes(args.n, args.r, probe),
                     f"witness recovery failed at {probe}")
    payload = {"n": args.n, "r": args.r, "count": spec.count,
               "min": spec.min_element, "max": spec.max_element}
    if not args.export:
        return {**payload, "members": spec.members()}
    _write(args.export, spec.export_lines())
    return {**payload, "exported_to": args.export}

def _cmd_witness(args) -> dict:
    w = cliquespec.member_witness(args.n, args.r, args.m)
    if args.check and w is not None:
        _require(w.realizes(args.n, args.r, args.m), "witness does not re-validate")
    return {"n": args.n, "r": args.r, "m": args.m, "member": w is not None,
            "parts": list(w.parts) if w else None}

def _cmd_density(args) -> dict:
    rep = cliquespec.density_and_bounds(args.n, args.r)
    if args.check:
        _require(rep.bounds_ok, "density bounds violated")
    return rep.__dict__.copy()

def _cmd_interval(args) -> tuple[dict, int]:
    rep = cliquespec.verify_interval(args.n, args.r, args.c_low, args.c_high, clip=args.clip)
    payload = {"n": args.n, "r": args.r, "ok": rep.ok, "vacuous": rep.vacuous,
               "lo": rep.lo, "hi": rep.hi, "first_gap": rep.first_gap}
    return payload, 0 if rep.ok else 1

def _cmd_classify(args) -> dict:
    v = certify.classify_pair(args.m, args.f)
    if args.check:
        v.validate(args.m, args.f)
    bounds = {"exact": v.exact, "upper": v.upper, "lower": v.lower}
    return {"m": args.m, "f": args.f, **{k: _frac(x) for k, x in bounds.items()},
            **{f"{k}_frac": None if x is None else str(x) for k, x in bounds.items()},
            "rule_upper": _frac(v.rule_upper()), "trace": [t.as_dict() for t in v.trace]}

def _cmd_minr(args) -> dict:
    parts = certify.min_r_witness(args.m, args.f)
    if args.check and parts is not None:
        _require(min(parts) >= 1 and sum(parts) == args.m and sum(tri(p) for p in parts) == args.f,
                 "minimal-rank witness does not re-validate")
    return {"m": args.m, "f": args.f, "r": None if parts is None else len(parts) - 1}

def _cmd_dm(args) -> dict:
    w = certify.dm_witness(args.f, args.m)
    if args.check and w is not None:
        x, y, z = w
        _require(x * y + z == args.f and x + y <= args.m and (z == 0 or x + y + z <= args.m - 1),
                 "D(m) witness does not re-validate")
    return {"m": args.m, "f": args.f, "witness": list(w) if w else None}

def _cmd_pell(args) -> dict:
    fp = pell.family_pair(args.k)
    w = fp.triple_witness()
    if args.check:  # by substitution into what is printed
        m, f = fp.m, fp.f
        _require(sum(w) == m and min(w) >= 1 and sum(tri(q) for q in w) == f,
                 "triple witness does not re-validate")
        _require(f == tri(fp.a) == tri(m) - tri(fp.b) == fp.c * (m - fp.c),
                 "triple identity fails")
    return {**vars(fp), "triple_witness": list(w)}

def _cmd_abc(args) -> tuple[list, int]:
    if args.k_max < 1:  # an empty table would certify nothing
        raise ValueError(f"need k-max >= 1, got {args.k_max}")
    rows, ok = [], True
    for k in range(1, args.k_max + 1):
        rep = pell.verify_ABC(pell.family_pair(k))
        abc = {"A": rep.a_ok, "B": rep.b_ok, "C": rep.c_ok,
               "b_witness": list(rep.b_witness), "c_scanned": rep.c_scanned}
        ok = ok and rep.all_ok
        rows.append({**vars(rep.pair), "ABC": abc})
    return rows, 0 if ok else 1

def _cmd_three_squares(args) -> dict:
    member = squares.is_three_square(args.v)
    dec = squares.three_square_decomp(args.v)
    if args.check:
        _require(member == (dec is not None), "formula and constructive route disagree")
    return {"v": args.v, "in_gauss_set": member,
            "decomp": [dec.x, dec.y, dec.z] if dec else None}

def _cmd_bennett(args) -> dict:
    sols = squares.bennett_search(args.y_limit)
    if args.check:
        for x, y in sols:
            _require(2 * tri(x) == tri(y * y), f"({x},{y}) does not satisfy the equation")
    return {"y_limit": args.y_limit, "solutions": [list(s) for s in sols]}

def _witness7_row(n: int, m: int) -> dict:
    w = squares.witness7(n, m)
    w.validate()
    return {"n": n, "m": m, "t": w.t, "s": [w.s1, w.s2, w.s3],
            "parts": list(w.parts), "window_index": w.window_index, "verified": True}

def _cmd_witness7(args) -> dict | str:
    if args.m is not None:
        return _witness7_row(args.n, args.m)
    if args.samples < 1:
        raise ValueError(f"need samples >= 1, got {args.samples}")
    lo, hi = squares.r7_interval(args.n)
    rng = random.Random(args.seed)
    ms = sorted(rng.randint(lo, hi) for _ in range(args.samples))
    return "".join(json.dumps(_witness7_row(args.n, m)) + "\n" for m in ms)

def _cmd_arrow(args) -> dict:
    res = graphs.arrow(args.n, args.e, args.m, args.f, dedup=args.dedup)
    if args.check:
        res.validate(args.e, args.m, args.f)
    return {"n": args.n, "e": args.e, "m": args.m, "f": args.f,
            "holds": res.holds,
            "counterexample": res.counterexample.edge_list() if res.counterexample else None}

def _cmd_snm(args) -> dict:
    s = graphs.compute_Snm(args.n, args.m, args.f, dedup=args.dedup)
    if args.check:
        for e in s.members()[:1] + s.members()[-1:]:
            _require(graphs.arrow(args.n, e, args.m, args.f, dedup=args.dedup).holds,
                     f"member e={e} fails arrow")
    return {"n": args.n, "m": args.m, "f": args.f, "members": s.members()}

def _cmd_turan(args) -> tuple[dict, int]:
    ok = graphs.turan_check(args.n, args.m)
    threshold = graphs.turan_number(args.n, args.m - 1)
    return {"n": args.n, "m": args.m, "ok": ok, "threshold": threshold}, 0 if ok else 1

def _cmd_runs(args) -> dict:
    rep = graphs.interval_runs(args.n, args.m, args.f)
    return {"n": args.n, "m": args.m, "f": args.f, **vars(rep)}

def _cmd_closure(args) -> tuple[dict, int]:
    ok = graphs.induced_closure_check(args.n, args.r, args.m, trials=args.trials, seed=args.seed)
    mode = "exhaustive" if args.trials is None else f"random({args.trials})"
    return {"n": args.n, "r": args.r, "m": args.m, "ok": ok, "mode": mode}, 0 if ok else 1

def _cmd_concentration(args) -> tuple[dict, int]:
    rep = graphs.concentration_experiment(args.N, args.E, args.n,
                                          trials=args.trials, seed=args.seed)
    payload = {k: v for k, v in vars(rep).items() if k != "tails"}
    payload["enum_mean"] = None if rep.enum_mean is None else float(rep.enum_mean)
    payload["tails"] = [{**vars(t), "ok": t.ok} for t in rep.tails]
    bad = rep.expectation_identity_ok is False or not rep.tails_ok
    return payload, 1 if bad else 0

def _cmd_repcount(args) -> dict:
    hist = repcount.rep_histogram(args.n, args.N, args.sum_cap)
    payload = hist.summary()
    if args.check:
        support = hist.support()
        spec = cliquespec.spectrum(args.n, 5)
        missing = [int(m) for m in support if int(m) not in spec]
        _require(not missing, f"support escapes the 5-clique spectrum: {missing[:3]}")
    if args.csv:
        _write(args.csv, ["m,R\n"] + [f"{m},{c}\n" for m, c in hist.csv_rows()])
        payload["csv"] = args.csv
    return payload

def _cmd_exceptional(args) -> dict:
    return repcount.exceptional_count(args.n, args.N, args.lo_margin, args.hi_margin,
                                      args.sum_cap, asymptotic=args.asymptotic).as_dict()


def finite_float(text: str) -> float:
    """The argparse type of every float option: inf and nan are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


class Command(NamedTuple):
    """One subcommand.  `args` maps option names to a spec: `int` or
    `finite_float` for a required value, or add_argument keywords (FLAG,
    CHECK, ...).  A key of several names ("n r") gives each the spec; names
    joined by " | " are a required choice of one.  Rows offer --check
    (CHECK) only where `run` re-validates its result.  `run` returns a
    payload, a (payload, exit code) pair, or ready-made JSON-lines text."""

    help: str
    run: Callable
    args: dict


#: The values a subparser reads as a negative number, not an option name:
#: argparse's own pattern takes -12 and -.5 but not -1e20 or -1.5E-3.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

FLAG = {"action": "store_true"}
CHECK = {"action": "store_true", "help": "re-validate the result by substitution before printing"}
OPT_INT = {"type": int}
SEED = {"type": int, "default": 0}

COMMANDS = {
    "spectrum": Command("edge spectrum of <= r cliques on n vertices", _cmd_spectrum, {
        "n r": int, "export": {"help": "write line-format export to this path"}, "check": CHECK}),
    "witness": Command("clique partition realizing an edge count", _cmd_witness,
                       {"n r m": int, "check": CHECK}),
    "density": Command("cardinality/density/bounds of a spectrum", _cmd_density,
                       {"n r": int, "check": CHECK}),
    "interval": Command("check an interval is fully inside a spectrum", _cmd_interval,
                        {"n r": int, "c-low c-high": finite_float, "clip": FLAG}),
    "classify": Command("certified density verdict for a pair", _cmd_classify,
                        {"m f": int, "check": CHECK}),
    "minr": Command("minimal clique rank of a pair", _cmd_minr, {"m f": int, "check": CHECK}),
    "dm": Command("product-plus-remainder witness", _cmd_dm, {"m f": int, "check": CHECK}),
    "pell": Command("k-th derived pair of the Pell family", _cmd_pell, {"k": int, "check": CHECK}),
    "abc": Command("family table with property verification", _cmd_abc, {"k-max": int}),
    "three-squares": Command("three-square membership and decomposition", _cmd_three_squares,
                             {"v": int, "check": CHECK}),
    "bennett": Command("search 2*tri(x) = tri(y^2)", _cmd_bennett,
                       {"y-limit": int, "check": CHECK}),
    "witness7": Command("constructive 7-clique witness; every witness is re-validated",
                        _cmd_witness7, {"n": int, "m | samples": int, "seed": SEED, "threads": {
                            "type": int, "default": 0,
                            "help": "ignored: campaigns run in one thread"}}),
    "arrow": Command("does every n-vertex e-edge graph hit (m, f)?", _cmd_arrow,
                     {"n e m f": int, "dedup": FLAG, "check": CHECK}),
    "snm": Command("all e for which the arrow relation holds", _cmd_snm,
                   {"n m f": int, "dedup": FLAG, "check": CHECK}),
    "turan": Command("arrow set of a complete target equals the classical threshold",
                     _cmd_turan, {"n m": int}),
    "runs": Command("interval-run structure of an arrow set", _cmd_runs, {"n m f": int}),
    "closure": Command("induced closure of clique unions", _cmd_closure,
                       {"n r m": int, "trials": OPT_INT, "seed": SEED}),
    "concentration": Command("random-subset concentration experiment", _cmd_concentration,
                             {"N E n trials": int, "seed": SEED}),
    "repcount": Command("representation histogram", _cmd_repcount, {
        "n N": int, "sum-cap": OPT_INT, "csv": {"help": "write m,R rows to this path"},
        "check": CHECK}),
    "exceptional": Command("zero-count scan of the representation histogram", _cmd_exceptional, {
        "n": int, "N": OPT_INT, "lo-margin hi-margin": {"type": finite_float, "default": 0.0},
        "sum-cap": OPT_INT, "asymptotic": FLAG}),
}

# Named failures of the package; a ValueError (a bad value) exits 2 instead.
_FAILURES = (squares.PreconditionViolated, squares.WindowExhausted,
             squares.DescentBudgetExceeded, graphs.ScaleRejected, cliquespec.SpectrumMemoryError,
             repcount.TupleBudgetExceeded, certify.RankBudgetExceeded, OverflowError,
             RecursionError)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="edgespectra", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="cmd", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for key, spec in cmd.args.items():
            one_of = " | " in key
            group = p.add_mutually_exclusive_group(required=True) if one_of else p
            kwargs = spec if isinstance(spec, dict) else {"type": spec, "required": not one_of}
            for opt in key.replace(" | ", " ").split():
                group.add_argument(f"--{opt}", **kwargs)
    top.subparsers = sub.choices  # name -> subparser, for _parse
    return top


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """parser.parse_args(argv), with a subcommand's options parsed by its
    own subparser: the namespace, the exit status and the usage line of an
    error are the same, at half the cost.  Anything else (no argv,
    --version, --help, an unknown name) goes through the top parser."""
    if not argv or argv[0] not in COMMANDS:
        return parser.parse_args(argv)
    args, rest = parser.subparsers[argv[0]].parse_known_args(argv[1:])
    if rest:  # as the top parser reports them
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    args.cmd = argv[0]
    return args


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # built on the first main call, then reused: parse_args keeps no state
    # in the parser, and building it costs more than most calls' work
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    start = time.perf_counter()
    args, output = None, ""
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else argv)
        result = COMMANDS[args.cmd].run(args)
        payload, code = result if isinstance(result, tuple) else (result, 0)
        output = payload if isinstance(payload, str) else json.dumps(payload) + "\n"
    except (CheckFailure, AssertionError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        code = 1
    except (*_FAILURES, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 2 if isinstance(exc, ValueError) else 1
    finally:  # also when argparse exits: every call writes its manifest
        sys.stdout.write(output)
        params = {"argv": sys.argv[1:] if argv is None else argv} if args is None else vars(args)
        manifest = {"subcommand": getattr(args, "cmd", None),
                    "parameters": {k: v for k, v in sorted(params.items()) if k != "cmd"},
                    "seed": getattr(args, "seed", None), "version": __version__,
                    "wall_time_s": round(time.perf_counter() - start, 6),
                    "output_digest": hashlib.sha256(output.encode()).hexdigest()}
        print(json.dumps(manifest), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
