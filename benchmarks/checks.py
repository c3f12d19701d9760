"""Independent re-checks of CLI outputs, on top of the seed pins.

Each check takes the op's argv (as a dict of flag values) and its parsed
JSON output and returns None when the output holds, else a reason.  The
checks use only integer arithmetic written here, never the package, so a
wrong answer cannot re-check itself.  The one exception is the catalogue
class count, read back from the package's own cache after the op.
"""

from __future__ import annotations

from itertools import combinations

# Exact counts |C(n, 5)| that the spectrum-scale ops must reproduce.
SPECTRUM_COUNTS = {(500, 5): 83295, (1000, 5): 352061, (2000, 5): 1464440}
CATALOGUE_CLASSES = {8: 12346}


def tri(k: int) -> int:
    return k * (k - 1) // 2


def flags(argv: list[str]) -> dict:
    """--name value pairs as ints where possible; bare flags map to True."""
    out: dict = {"cmd": argv[0]}
    i = 1
    while i < len(argv):
        key = argv[i][2:].replace("-", "_")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            val = argv[i + 1]
            out[key] = int(val) if val.lstrip("-").isdigit() else val
            i += 2
        else:
            out[key] = True
            i += 1
    return out


def _partition(parts, n: int, m: int, max_parts: int | None = None):
    if any(p < 0 for p in parts):
        return f"negative part in {parts}"
    if sum(parts) != n:
        return f"parts {parts} do not sum to n={n}"
    if sum(tri(p) for p in parts) != m:
        return f"parts {parts} do not give {m} edges"
    if max_parts is not None and sum(1 for p in parts if p) > max_parts:
        return f"{parts} uses more than {max_parts} cliques"
    return None


def _scale(a: dict, out: dict):
    want = SPECTRUM_COUNTS.get((a["n"], a["r"]))
    if want is not None and out["count"] != want:
        return f"|C({a['n']}, {a['r']})| = {out['count']}, expected {want}"
    if a["cmd"] == "density" and not out["bounds_ok"]:
        return "density bounds violated"
    if a["cmd"] == "spectrum":
        return _spectrum(a, out)
    return None


def _spectrum(a: dict, out: dict):
    mem = out["members"]
    if len(mem) != out["count"] or mem != sorted(set(mem)):
        return "members are not a sorted list of count distinct values"
    if mem and (mem[0] != out["min"] or mem[-1] != out["max"]):
        return "min/max disagree with members"
    if mem and not (0 <= mem[0] and mem[-1] <= tri(a["n"])):
        return "member outside [0, tri(n)]"
    return None


def _witness(a: dict, out: dict):
    if out["member"] != (out["parts"] is not None):
        return "member flag disagrees with parts"
    if out["parts"] is None:
        return None
    return _partition(out["parts"], a["n"], a["m"], a["r"])


def _classify(a: dict, out: dict):
    lo, ex, up = out["lower_frac"], out["exact_frac"], out["upper_frac"]
    if ex is not None and not (lo == ex == up):
        return "exact verdict with different bounds"
    return None


def _family(a: dict, out: dict):
    if out["exact_frac"] != "1/2":
        return f"Pell family pair verdict {out['exact_frac']}, expected 1/2"
    return None


def _dm(a: dict, out: dict):
    w = out["witness"]
    if w is None:
        return None
    x, y, z = w
    f, m = a["f"], a["m"]
    if x * y + z != f or x + y > m or (z and x + y + z > m - 1):
        return f"D(m) witness {w} does not re-validate"
    return None


def _three_squares(a: dict, out: dict):
    v = a["v"]
    u = v
    while u and u % 4 == 0:
        u //= 4
    expected = u % 8 != 7
    if out["in_gauss_set"] != expected:
        return "three-square membership disagrees with Legendre's criterion"
    d = out["decomp"]
    if (d is None) == expected or (d and sum(x * x for x in d) != v):
        return f"decomposition {d} does not give {v}"
    return None


def _witness7(a: dict, out):
    rows = out if isinstance(out, list) else [out]
    if a.get("samples") and len(rows) != a["samples"]:
        return f"{len(rows)} campaign rows, expected {a['samples']}"
    for row in rows:
        if len(row["parts"]) != 7:
            return "witness does not have seven parts"
        bad = _partition(row["parts"], row["n"], row["m"])
        if bad:
            return bad
    return None


def _induced_counts(n: int, edges, m: int) -> set[int]:
    es = {tuple(e) for e in edges}
    return {sum(1 for u, v in combinations(s, 2) if (u, v) in es)
            for s in combinations(range(n), m)}


def _arrow(a: dict, out: dict):
    cx = out["counterexample"]
    if out["holds"] != (cx is None):
        return "holds flag disagrees with counterexample"
    if cx is None:
        return None
    if len(cx) != a["e"] or len({tuple(e) for e in cx}) != a["e"]:
        return "counterexample has the wrong edge count"
    if a["f"] in _induced_counts(a["n"], cx, a["m"]):
        return "counterexample induces f after all"
    return None


def _snm(a: dict, out: dict):
    mem = out["members"]
    if mem != sorted(set(mem)) or (mem and not 0 <= mem[0] <= mem[-1] <= tri(a["n"])):
        return "arrow set is not a sorted subset of [0, tri(n)]"
    # the complete and the empty graph induce only tri(m) and 0 edges
    if (tri(a["n"]) in mem) != (a["f"] == tri(a["m"])) or (0 in mem) != (a["f"] == 0):
        return "arrow set disagrees at e = 0 or e = tri(n)"
    return None


def _turan(a: dict, out: dict):
    n, p = a["n"], a["m"] - 1
    q, rem = divmod(n, p)
    want = tri(n) - rem * tri(q + 1) - (p - rem) * tri(q)
    if out["threshold"] != want or out["ok"] is not True:
        return f"threshold {out['threshold']} (expected {want}), ok={out['ok']}"
    return None


def _runs(a: dict, out: dict):
    runs = out["runs"]
    if len(runs) != out["count"]:
        return "run count disagrees with runs"
    for (lo, hi), (nlo, _) in zip(runs, runs[1:]):
        if not lo <= hi < nlo - 1:
            return "runs are not maximal and increasing"
    covered = sum(hi - lo + 1 for lo, hi in runs)
    if tri(a["n"]) and abs(covered / tri(a["n"]) - out["covered_fraction"]) > 1e-12:
        return "covered fraction disagrees with runs"
    return None


def _pell(a: dict, out: dict):
    t, m, f = out["t"], out["m"], out["f"]
    if m != 5 * t + 2 or f != tri(3 * t + 1):
        return "pair does not match its parameter t"
    w = out["triple_witness"]
    if sum(w) != m or sum(tri(p) for p in w) != f:
        return f"triple witness {w} does not re-validate"
    return None


def _bennett(a: dict, out: dict):
    for x, y in out["solutions"]:
        if 2 * tri(x) != tri(y * y):
            return f"({x}, {y}) does not solve 2 tri(x) = tri(y^2)"
    return None


def _abc(a: dict, out: list):
    for row in out:
        abc = row["ABC"]
        if not (abc.get("A") and abc.get("B") and abc.get("C")):
            return f"property check failed for k={row['k']}"
    return None


def _repcount(a: dict, out: dict):
    if out["total_tuples"] <= 0 or out["support_size"] <= 0:
        return "empty representation histogram"
    return None


def _concentration(a: dict, out: dict):
    if out["expectation_identity_ok"] is False:
        return "expectation identity fails"
    if not all(t["ok"] for t in out["tails"]):
        return "tail bound exceeded"
    return None


def _ok(a: dict, out: dict):
    return None if out["ok"] is True else "ok is not true"


CHECKS = {
    "none": lambda a, out: None,
    "scale": _scale,
    "spectrum": _spectrum,
    "witness": _witness,
    "classify": _classify,
    "family": _family,
    "dm": _dm,
    "three_squares": _three_squares,
    "witness7": _witness7,
    "arrow": _arrow,
    "snm": _snm,
    "catalogue": _snm,
    "turan": _turan,
    "runs": _runs,
    "pell": _pell,
    "bennett": _bennett,
    "abc": _abc,
    "repcount": _repcount,
    "concentration": _concentration,
    "ok": _ok,
}


def parse_output(text: str):
    """The op's JSON output: one object, or a list for JSON-lines campaigns."""
    import json

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) == 1:
        return json.loads(lines[0])
    return [json.loads(ln) for ln in lines]


def recheck(name: str, argv: list[str], stdout: str):
    """None when the op's output passes check `name`, else the reason."""
    try:
        return CHECKS[name](flags(argv), parse_output(stdout))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"output does not parse for check {name!r}: {type(exc).__name__}: {exc}"
