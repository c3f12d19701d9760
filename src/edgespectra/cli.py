"""Command-line entry point: one subcommand per package operation.

Results go to standard output as JSON (JSON lines for sampling campaigns),
their ints printed exactly at any size: the int-to-str digit limit of
Python 3.11+ is lifted while a payload is serialised, then restored.
Diagnostics and a reproducibility manifest go to standard error, on every
call.  Exit status: 0 on success; 1 on a verification failure (an interval
gap, "check failed: ..." from a re-validation) or a named failure (an
EdgespectraError, the base of every package failure, or an OverflowError
or RecursionError); 2 on a usage error (argparse, or a ValueError for a bad
value, such as an --export or --csv path that cannot be written).  Failures
print "error: <ExceptionName>: <message>".

--check, offered where it re-validates the result by an independent
substitution, is accepted by spectrum, witness, density, classify, minr, dm,
pell, three-squares, bennett, arrow, snm and repcount; witness7 always
re-validates, once, inside squares.witness7.  EDGESPECTRA_MAX_TABLE_BITS
overrides the package's one memory cap, triangles.check_cap, which the
spectrum tables, a spectrum's member list and a witness7 campaign's rows
are charged to, as are the rank search's partitions and the histogram and
concentration arrays.  A payload built from a result record lists its
fields in their declared order (_asdict).

Clique spectra (spectrum, density, interval) at r = 5 and n from 288 up
are built from the three-square cover and a top band of small DP layers,
and otherwise by the whole DP, every layer in the calling process.  The
output does not depend on the route.  spectrum --export writes its lines
as it reads them off the spectrum, holding no member list.  A printed
member list is the text json.dumps gives, each whole block of 1000
members [1000q, 1000q + 999] (q >= 1) written as one join of its prefix
over the 1000 three-digit suffixes.
Witnesses (witness, the probes of spectrum and density --check) come from a
recursion, not from the spectrum; density --check also checks min is exact.
snm --check re-counts a counterexample of every non-member over its m-subsets.
A witness7 campaign runs its samples in the calling thread, in sorted
order; its --threads option is accepted and ignored.

One process builds the argument parser once, on its first main call, and
reuses it for every later call: building it takes about 4 ms.  With it,
each subparser's option table is read off its own actions.  A call that
names a subcommand first and gives each of its options once, as an exact
option string with a value that does not start with "-", is read in one
pass over that table: 4-8 us a call, a sixth of what the subcommand's own
argparse parser takes (2-core x86-64 VM).  Any other call is parsed by
argparse, so the namespace and every usage error are argparse's own.
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
from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from . import __version__, certify, cliquespec, graphs, pell, repcount, squares
from .triangles import EdgespectraError, check_cap, min_clique_edges, realizes, tri


def _frac(x: Fraction | None):
    if x is None:
        return None
    return int(x) if x.denominator == 1 else float(x)


def _require(ok: bool, failure: str) -> None:
    if not ok:  # main prints it as "check failed: <failure>"
        raise AssertionError(failure)


def _write(path: str, lines: Iterable[str]) -> None:
    """Write an output file; a path that cannot be written is a bad value."""
    try:
        with open(path, "w") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ValueError(f"{type(exc).__name__}: {exc}") from exc


# Peak memory per member of a spectrum call's payload, charged to the same
# cap as the tables.  Measured above the spectrum's own peak RSS at
# n = 2000 and 4000, r = 5: the payload's list, its pieces of text, the
# joined text and its encoded copy take 50.9 and 49.5 bytes a member (58.5
# and 58.8 when the whole payload went through json.dumps).  An export is
# written as it is read off the mask, so it holds no list and is not
# charged.
_PAYLOAD_MEMBER_BYTES = 64
# Peak memory per row of a witness7 campaign (its sampled m, the row's JSON
# line and the joined output), charged to that cap before the samples are
# drawn.  Measured as peak RSS above the import at n = 30000 for 1000 to
# 40000 samples: 393-413 bytes a row, whose line prints at 144-151 bytes.
_CAMPAIGN_ROW_BYTES = 512
# The 1000 decimal suffixes of a whole block of a printed member list.
_SUFFIXES = tuple(f"{i:03d}" for i in range(1000))


# The run functions of the COMMANDS rows below.

def _check_probes(n: int, r: int, *probes: int) -> None:
    for probe in probes:  # the witnesses come from a recursion, not from the DP
        w = cliquespec.member_witness(n, r, probe)
        _require(w is not None and w.realizes(n, r, probe), f"witness recovery failed at {probe}")

def _int_list_pieces(values: list[int]) -> list[str]:
    """Pieces whose concatenation is json.dumps(values), for a sorted list
    of distinct ints >= 0.  Each whole aligned block [1000q, 1000q + 999],
    q >= 1, is one C-level join of its prefix str(q) over _SUFFIXES; the
    rest, all of q = 0 included, goes through json.dumps of its slice."""
    pieces, done, n = ["["], 0, len(values)
    i = bisect_left(values, 1000)
    while i + 999 < n:
        v = values[i]
        if v % 1000 or values[i + 999] != v + 999:  # not a whole block: try the next
            i = bisect_left(values, v - v % 1000 + 1000, i + 1)
            continue
        if done < i:
            pieces += json.dumps(values[done:i])[1:-1], ", "
        p = str(v // 1000)
        pieces += p + (", " + p).join(_SUFFIXES), ", "
        done = i = i + 1000
    if done == 0:
        return [json.dumps(values)]
    if done < n:
        pieces += json.dumps(values[done:])[1:-1], ", "
    pieces[-1] = "]"
    return pieces

def _cmd_spectrum(args) -> dict | str:
    spec = cliquespec.spectrum(args.n, args.r)
    if not args.export:
        check_cap(8 * _PAYLOAD_MEMBER_BYTES * spec.count, "listed members")
    if args.check:
        _check_probes(args.n, args.r, spec.min_element, spec.max_element)
    payload = {"n": args.n, "r": args.r, "count": spec.count,
               "min": spec.min_element, "max": spec.max_element}
    if args.export:
        _write(args.export, spec.export_lines())
        return {**payload, "exported_to": args.export}
    # the member list dies with the call that encodes it, so its text is
    # joined once, after the list is gone
    return "".join([json.dumps(payload)[:-1], ', "members": ',
                    *_int_list_pieces(spec.members()), "}\n"])

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
        _require(rep.min_element == min_clique_edges(args.n, max(1, min(args.r, args.n))),
                 f"min {rep.min_element} is not the fewest edges")
        _check_probes(args.n, args.r, rep.min_element, rep.max_element)
    return rep._asdict()

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
    parts = certify.min_rank_parts(args.m, args.f)  # the witness less its singletons
    if parts is None:
        return {"m": args.m, "f": args.f, "r": None}
    singletons = args.m - sum(parts)
    if args.check:
        _require(all(p >= 1 for p in parts) and singletons >= 0
                 and realizes(parts, args.m - singletons, args.f),
                 "minimal-rank witness does not re-validate")
    return {"m": args.m, "f": args.f, "r": len(parts) + singletons - 1}

def _cmd_dm(args) -> dict:
    w = certify.dm_witness(args.f, args.m)
    if args.check and w is not None:
        x, y, z = w
        _require(min(w) >= 0 and x * y + z == args.f and x + y <= args.m
                 and (z == 0 or x + y + z <= args.m - 1), "D(m) witness does not re-validate")
    return {"m": args.m, "f": args.f, "witness": list(w) if w else None}

def _cmd_pell(args) -> dict:
    fp = pell.family_pair(args.k)
    if args.check:  # by substitution into what is printed
        rep = pell.verify_ABC(fp)
        _require(rep.b_ok, "triple witness does not re-validate")
        _require(rep.a_ok, "triple identity fails")
    return {**fp._asdict(), "triple_witness": list(fp.triple_witness())}

def _cmd_abc(args) -> tuple[list, int]:
    if args.k_max < 1:  # an empty table would certify nothing
        raise ValueError(f"need k-max >= 1, got {args.k_max}")
    rows, ok = [], True
    for k in range(1, args.k_max + 1):
        rep = pell.verify_ABC(pell.family_pair(k))
        abc = {"A": rep.a_ok, "B": rep.b_ok, "C": rep.c_ok,
               "b_witness": list(rep.b_witness), "c_scanned": rep.c_scanned}
        ok = ok and rep.all_ok
        rows.append({**rep.pair._asdict(), "ABC": abc})
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
        low = 1  # each y must exceed the last
        for x, y in sols:
            _require(2 * tri(x) == tri(y * y), f"({x},{y}) does not satisfy the equation")
            _require(x >= 1 and low < y <= args.y_limit, f"({x},{y}) is out of range or order")
            low = y
    return {"y_limit": args.y_limit, "solutions": [list(s) for s in sols]}

def _witness7_row(n: int, m: int) -> dict:
    w = squares.witness7(n, m)  # validated by witness7 before it returns
    return {"n": n, "m": m, "t": w.t, "s": [w.s1, w.s2, w.s3],
            "parts": list(w.parts), "window_index": w.window_index, "verified": True}

def _cmd_witness7(args) -> dict | str:
    if args.m is not None:
        return _witness7_row(args.n, args.m)
    if args.samples < 1:
        raise ValueError(f"need samples >= 1, got {args.samples}")
    check_cap(8 * _CAMPAIGN_ROW_BYTES * args.samples, "campaign rows")
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
    members = graphs.compute_Snm(args.n, args.m, args.f, dedup=args.dedup).members()
    if args.check:  # a counterexample for every non-member, its induced edges counted afresh
        found = graphs.counterexamples(args.n, args.m, args.f, dedup=args.dedup)
        outside = sorted(set(range(tri(args.n) + 1)).difference(members))
        for e in outside:
            _require(e in found, f"non-member e={e} has no counterexample")
        graphs.validate_counterexamples(args.n, args.m, args.f, {e: found[e] for e in outside})
    return {"n": args.n, "m": args.m, "f": args.f, "members": members}

def _cmd_turan(args) -> tuple[dict, int]:
    ok = graphs.turan_check(args.n, args.m)
    threshold = graphs.turan_number(args.n, args.m - 1)
    return {"n": args.n, "m": args.m, "ok": ok, "threshold": threshold}, 0 if ok else 1

def _cmd_runs(args) -> dict:
    rep = graphs.interval_runs(args.n, args.m, args.f)
    return {"n": args.n, "m": args.m, "f": args.f, **rep._asdict()}

def _cmd_closure(args) -> tuple[dict, int]:
    ok = graphs.induced_closure_check(args.n, args.r, args.m, trials=args.trials, seed=args.seed)
    mode = "exhaustive" if args.trials is None else f"random({args.trials})"
    return {"n": args.n, "r": args.r, "m": args.m, "ok": ok, "mode": mode}, 0 if ok else 1

def _cmd_concentration(args) -> tuple[dict, int]:
    rep = graphs.concentration_experiment(args.N, args.E, args.n,
                                          trials=args.trials, seed=args.seed)
    payload = {k: v for k, v in rep._asdict().items() if k != "tails"}
    payload["enum_mean"] = None if rep.enum_mean is None else float(rep.enum_mean)
    payload["tails"] = [{**t._asdict(), "ok": t.ok} for t in rep.tails]
    bad = rep.expectation_identity_ok is False or not rep.tails_ok
    return payload, 1 if bad else 0

def _cmd_repcount(args) -> dict:
    hist = repcount.rep_histogram(args.n, args.N, args.sum_cap)
    payload = hist.summary()
    if args.check:
        spec = cliquespec.spectrum(args.n, 5)
        missing = [m for m, _ in hist.csv_rows() if m not in spec]
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

# Named failures: the package's own and two of Python's; a ValueError (a
# bad value) exits 2 instead.
_FAILURES = (EdgespectraError, OverflowError, RecursionError)


class _OptionTable(NamedTuple):
    """One subparser's options, read off its own actions: each option string
    of a store or store-const action (one value or none, no choices) with
    the action and the type function argparse would call on its value; the
    attributes a fresh namespace starts with; the required actions; and
    the mutually exclusive groups as (required, actions) pairs."""

    takes: dict
    defaults: dict
    required: tuple
    groups: tuple

    @classmethod
    def of(cls, p: argparse.ArgumentParser) -> "_OptionTable":
        takes = {}
        for a in p._actions:
            if isinstance(a, argparse._StoreConstAction) or (
                    type(a) is argparse._StoreAction and a.nargs is None and a.choices is None):
                convert = p._registry_get("type", a.type, a.type)
                takes.update(dict.fromkeys(a.option_strings, (a, convert)))
        defaults = {a.dest: a.default for a in p._actions
                    if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS}
        return cls(takes, defaults,
                   tuple(a for a in p._actions if a.required),
                   tuple((g.required, tuple(g._group_actions))
                         for g in p._mutually_exclusive_groups))

    def read(self, name: str, tokens: list[str]) -> argparse.Namespace | None:
        """The namespace of `name` with `tokens`, when every token is an
        exact option string of this table, seen once; a flag takes its
        const, a valued option the next token, which must exist, must not
        start with "-", and is converted by the action's own type.  Every
        required action and one member of each required group must be
        seen.  Anything else is None."""
        values, seen, rest = {}, set(), iter(tokens)
        for token in rest:
            action, convert = self.takes.get(token, (None, None))
            if action is None or action in seen:
                return None
            seen.add(action)
            if action.nargs == 0:
                values[action.dest] = action.const
                continue
            text = next(rest, "-")
            if text.startswith("-"):
                return None
            try:
                values[action.dest] = convert(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if not seen.issuperset(self.required):
            return None
        for required, group in self.groups:
            hit = [a for a in group if a in seen]
            # argparse counts a member given its default value as absent
            if len(hit) > 1 or required and (not hit or values[hit[0].dest] is hit[0].default):
                return None
        return argparse.Namespace(cmd=name, **{**self.defaults, **values})


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
    top.tables = {name: _OptionTable.of(p) for name, p in sub.choices.items()}  # for _parse
    return top


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """parser.parse_args(argv), read in one pass over the option table of
    the subcommand that argv names first.  An argv the table cannot take
    token for token (no argv, --help, an unknown name, an abbreviation,
    --n=5, a negative or bad value, a repeated option) goes to
    parser.parse_args, so every namespace is the one argparse gives and
    every usage error is argparse's own."""
    table = parser.tables.get(argv[0]) if argv else None
    args = None if table is None else table.read(argv[0], argv[1:])
    return parser.parse_args(argv) if args is None else args


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # built on the first main call, then reused: parse_args keeps no state
    # in the parser, and building it costs more than most calls' work
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    start = time.perf_counter()
    args, output = None, ""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: none, as on Python 3.10
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else argv)
        result = COMMANDS[args.cmd].run(args)
        payload, code = result if isinstance(result, tuple) else (result, 0)
        if limit:  # exact ints print at any size: the limit is lifted while they print
            sys.set_int_max_str_digits(0)
        output = payload if isinstance(payload, str) else json.dumps(payload) + "\n"
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        code = 1
    except (*_FAILURES, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 2 if isinstance(exc, ValueError) else 1
    finally:  # also when argparse exits: every call writes its manifest
        if limit:
            sys.set_int_max_str_digits(limit)
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
