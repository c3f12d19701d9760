"""Certified density bounds for a target pair (m, f).

classify_pair applies a small battery of mechanical rules to a pair
(vertex count m, edge count f) and to its complement (m, tri(m) - f), and
combines them with two literature-grade facts (a universal 2/3 bound off a
finite special set, exactness of 1/r for qualifying minimal clique ranks).
The result is a Verdict: a certified interval for the asymptotic density
of good edge counts, never a computed limit, together with a trace of
every rule that fired.

The special set SPECIAL_PAIRS is closed under complement, so membership
can be tested on the pair as given.

Verdict.validate re-checks a verdict by substitution into the rules that
fired.

The minimal clique rank comes from one search, min_r_witness, built on
triangles.clique_parts, the recursion over the largest part a, which the
deficit d = tri(m) - f confines to a >= m - 2d/m.  One and two parts
are answered first, by f = tri(m) and by the roots of a quadratic.  Next
the search decides whether f is the edge sum of any partition of m; a
pair with no representation is answered there.  Then it runs at part
counts j = 3, 4, ... with three_part_witness (a loop over the smallest
part within a closed-form window) as its three-part step, and the first
j that admits a partition gives the witness.  The three-part windows of
one search share a budget of z-steps, charged per window in closed form, so a
search that cannot decide in time raises RankBudgetExceeded instead of
running on.  min_r is the witness's part count less one, so the rank and
its certificate never disagree.  Every step is exact integer arithmetic:
the quadratics are solved with triangles.int_roots, and nothing here is
fixed-width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Optional

from .triangles import (clique_parts, decompose_lower, decompose_upper, int_roots, tri,
                        tri_root, two_part_witness)

#: The five pairs whose density is exactly 1.
SPECIAL_PAIRS = frozenset({(2, 0), (2, 1), (4, 3), (5, 4), (5, 6)})


@dataclass(frozen=True)
class PairMF:
    """A target pair: induced subgraph order m and edge count f."""

    m: int
    f: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if not 0 <= self.f <= tri(self.m):
            raise ValueError(f"f={self.f} outside [0, {tri(self.m)}] for m={self.m}")

    @property
    def complement_f(self) -> int:
        return tri(self.m) - self.f


@dataclass(frozen=True)
class TraceEntry:
    rule: str                      # "A", "i".."v", or "thm-*" for cited facts
    side: str                      # "f", "complement" or "pair"
    params: tuple = ()             # (name, value) pairs, hashable

    def as_dict(self) -> dict:
        return {"rule": self.rule, "side": self.side, "params": dict(self.params)}


@dataclass(frozen=True)
class Verdict:
    """Certified interval for the density of a pair.

    upper always carries the tightest certified upper bound; rule-only and
    literature-only views are recoverable from the trace (entries whose
    rule id starts with "thm-" are cited facts, the rest are mechanical).
    """

    exact: Optional[Fraction]
    upper: Fraction
    lower: Optional[Fraction]
    trace: tuple[TraceEntry, ...] = field(repr=False)

    def __post_init__(self):
        if not self.trace:
            raise ValueError("verdict trace must be non-empty")
        if self.lower is not None and self.lower > self.upper:
            raise ValueError(f"lower {self.lower} > upper {self.upper}")
        if self.exact is not None and not (self.exact == self.lower == self.upper):
            raise ValueError("exact verdict must collapse the interval")

    def rule_upper(self) -> Fraction:
        """Upper bound certified by the mechanical rules alone."""
        best = Fraction(1)
        for t in self.trace:
            if t.rule == "iv":
                best = min(best, Fraction(0))
            elif t.rule in ("ii", "iii", "v"):
                best = min(best, Fraction(1, 2))
        return best

    def fired(self, rule: str) -> list[TraceEntry]:
        return [t for t in self.trace if t.rule == rule]

    def validate(self, m: int, f: int) -> None:
        """Re-check the verdict on (m, f) by substitution; AssertionError if
        it fails.  Each entry's parameters must satisfy its rule's condition
        against m and its side's edge count g (f, or tri(m) - f on the
        complement), rule (i) must be present exactly when an entry is on
        the complement, and exact, upper and lower must follow from the
        entries.  Rule (v) (g has no D(m) witness) and the minimality of r
        in a thm-exact/thm-lower entry are non-existence claims, which
        substitution cannot re-check: only their edge counts are checked.
        """
        half = any(t.rule in ("ii", "iii", "v") for t in self.trace)
        for t in self.trace:
            if not _entry_holds(t, m, f, half):
                raise AssertionError(f"trace entry {t.as_dict()} does not hold for ({m},{f})")
        rules = {t.rule for t in self.trace}
        if ("i" in rules) != any(t.side == "complement" for t in self.trace):
            raise AssertionError(f"rule (i) entry disagrees with the complement entries for ({m},{f})")
        exact = {Fraction(1, dict(t.params)["r"]) for t in self.fired("thm-exact-1/r")}
        lower = max((Fraction(1, dict(t.params)["r"]) for t in self.fired("thm-lower-1/r")), default=None)
        upper = Fraction(1, 2) if half else Fraction(2, 3)
        if len(exact) > 1 or any(e > upper for e in exact) or ("iv" in rules and (exact or lower)):
            raise AssertionError(f"conflicting bounds in the trace for ({m},{f})")
        if "A" in rules:
            expect = (Fraction(1),) * 3
        elif "iv" in rules:
            expect = (Fraction(0),) * 3
        elif exact:
            expect = (min(exact),) * 3
        else:
            expect = (None, upper, lower)
        if (self.exact, self.upper, self.lower) != expect:
            raise AssertionError(f"bounds {(self.exact, self.upper, self.lower)} do not follow "
                                 f"from the trace for ({m},{f}): expected {expect}")


#: The parameter names of each trace rule, and whether it speaks of the
#: pair (True) or of one side, f or its complement (False).
_RULE_PARAMS = {
    "A": ({"m", "f"}, True), "i": ({"f", "complement"}, True),
    "iv": ({"l", "lp"}, False), "ii": ({"f", "window"}, False),
    "iii": ({"b", "bp"}, False), "v": ({"f"}, False),
    "thm-exact-1/r": ({"r", "a", "b", "c"}, False), "thm-lower-1/r": ({"r", "a", "b", "c"}, False),
    "thm-upper-2/3": (set(), True), "thm-upper-1/2": (set(), True),
}


def _entry_holds(t: TraceEntry, m: int, f: int, half: bool) -> bool:
    """Whether trace entry t satisfies its rule's condition on (m, f);
    half says whether a rule capping the density at 1/2 fired."""
    keys, on_pair = _RULE_PARAMS.get(t.rule, (None, None))
    p = dict(t.params)
    if set(p) != keys or t.side not in (("pair",) if on_pair else ("f", "complement")):
        return False
    g = f if t.side == "f" else tri(m) - f
    if t.rule == "A":
        return p == {"m": m, "f": f} and (m, f) in SPECIAL_PAIRS
    if t.rule == "i":
        return p == {"f": f, "complement": tri(m) - f}
    if t.rule == "iv":
        return g == tri(p["l"]) + p["lp"] and 0 <= p["lp"] < p["l"] < m and p["lp"] >= m - p["l"]
    if t.rule == "ii":
        wlo, whi = _window(m)
        return p["f"] == g and p["window"] == (wlo, whi) and not wlo <= g <= whi
    if t.rule == "iii":
        return g == tri(p["b"]) - p["bp"] and p["b"] < 2 * p["bp"] < 2 * p["b"] - 2
    if t.rule == "v":
        return p["f"] == g
    if t.rule in ("thm-exact-1/r", "thm-lower-1/r"):
        r = p["r"]
        return (g == tri(p["a"]) == tri(m) - tri(p["b"]) == p["c"] * (m - p["c"]) and r >= 2
                and (r == 2 or r >= 5) == (t.rule == "thm-exact-1/r"))
    if t.rule == "thm-upper-2/3":
        return not half
    return (m, f) not in SPECIAL_PAIRS  # thm-upper-1/2, the universal bound off the special set


# ---------------------------------------------------------------------------
# D(m) membership
# ---------------------------------------------------------------------------

def dm_witness(f: int, m: int) -> Optional[tuple[int, int, int]]:
    """A triple (x, y, z) of non-negative integers with f = x*y + z,
    x + y <= m, and x + y + z <= m - 1 whenever z >= 1; None if no such
    triple exists.

    The first witness in the order "smallest x, then smallest y >= x".
    Once f >= m, x >= 2 and every witness has x(m - x) >= f (z >= 1 forces
    f <= xy + m - 1 - x - y), so x starts at the smaller root of
    x(m - x) = f.  The slack x + y + (f - xy) falls as y grows, so the
    largest y, min(f // x, m - x), decides whether x has a witness; the
    least y is then the closed form below while z >= 1, else f / x.
    """
    if m < 2 or f < 0:
        raise ValueError(f"need m >= 2 and f >= 0, got m={m}, f={f}")
    if f <= m - 1:
        return (0, 0, f)
    if f > m * m // 4:
        # x*y <= m^2/4, so z >= f - m^2/4 and x+y+z > m - 1 always
        return None
    for x in range(max(2, (m - isqrt(m * m - 4 * f)) // 2), m // 2 + 1):
        y = min(f // x, m - x)
        if y < x or (x * y < f and x + y + f - x * y > m - 1):
            continue
        # x + y + (f - x*y) <= m - 1  <=>  y >= ceil((f + x - m + 1)/(x - 1))
        y_lo = max(x, -((m - 1 - f - x) // (x - 1)))
        if x * y_lo < f and y_lo <= m - x:
            y = y_lo
        return (x, y, f - x * y)
    return None


# ---------------------------------------------------------------------------
# Minimal clique rank: smallest r with f a sum of r+1 clique edge counts
# whose vertex counts are positive and sum to m.
# ---------------------------------------------------------------------------

class RankBudgetExceeded(Exception):
    """The rank search walked its whole budget of three-part z-steps
    without deciding the pair."""


#: z-steps of three-part windows one min_r_witness call may walk: 1 to
#: 1.8 s (2-core x86-64 VM), and 20 times the most that any of 2400 seeded
#: pairs with m <= 3000 walks (95,656 steps, at (2942, 1718353)).
_RANK_STEPS = 2_000_000


class _Budget:
    """The z-steps one rank search may still walk, and the windows it
    charged."""

    def __init__(self, m: int, f: int):
        self.pair, self.left, self.windows = (m, f), _RANK_STEPS, 0

    def charge(self, window: range) -> range:
        """Charge a whole window before it is walked; the part of it that
        the budget covers."""
        self.windows += 1
        walk = window[:self.left]
        self.left -= len(walk)
        return walk

    def refund(self, steps: int) -> None:
        self.left += steps

    def exceeded(self) -> RankBudgetExceeded:
        return RankBudgetExceeded(
            f"rank search of (m, f) = {self.pair} walked all {_RANK_STEPS} z-steps of its "
            f"budget in {self.windows} three-part windows without a decision")


def _z_window(m: int, f: int) -> range:
    """The smallest parts z that three_part_witness tries; see there."""
    n = 12 * f + 6 * m - 2 * m * m
    if m < 3 or n < 0:
        return range(0)
    root = isqrt(n)
    t = (root + (root * root < n) + 1) // 2  # the least t >= 0 with 4t^2 >= n
    return range(max(1, -(-(m - root) // 3)), (m - t) // 3 + 1)


def three_part_witness(m: int, f: int, *,
                       budget: Optional[_Budget] = None) -> Optional[tuple[int, int, int]]:
    """(x, y, z) with x >= y >= z >= 1, x+y+z = m, tri sums to f, and z
    smallest; None if there is none.

    Every such triple satisfies (3z - m)^2 + 3(x - y)^2 = N with
    N = 12f + 6m - 2m^2, so the smallest part z starts where
    (m - 3z)^2 <= N first holds, and y >= z holds only while
    4(m - 3z)^2 >= N.  The loop walks z upward through the window and
    solves for the other two parts with two_part_witness.  Exact at any
    size.

    A budget is charged the window's length before the walk and refunded
    the steps a hit leaves unwalked; RankBudgetExceeded is raised when the
    budget ends the walk before the window does.
    """
    window = _z_window(m, f)
    walk = window if budget is None else budget.charge(window)
    for z in walk:
        w = two_part_witness(m - z, f - tri(z))
        if w is not None and w[1] >= z:
            if budget is not None:
                budget.refund(walk.stop - z - 1)
            return (w[0], w[1], z)
    if len(walk) < len(window):
        raise budget.exceeded()
    return None


def min_r_witness(m: int, f: int) -> Optional[tuple[int, ...]]:
    """A partition realizing min_r(m, f), nonincreasing; None if absent.

    It has the fewest parts; the parts before the last three are the
    lexicographically largest possible, and the last three are the triple
    with the smallest smallest part.

    One part is f = tri(m), and two parts are two_part_witness.  Otherwise
    triangles.clique_parts first decides whether any partition of m has
    edge sum f, by a recursion over the largest part; a pair without one
    returns None there.  Then the part counts j = 3, 4, ... are tried
    in turn by the same recursion with three_part_witness as its k = 3
    step, and the first that admits a partition gives the witness: at the
    least such j every partition into at most j parts has exactly j.  The
    three-part windows of one call share one budget of _RANK_STEPS
    z-steps; RankBudgetExceeded is raised once they have walked it.
    """
    PairMF(m, f)
    if f == tri(m):
        return (m,)
    pair = two_part_witness(m, f)
    if pair is not None:
        return pair
    if clique_parts(m, f, m) is None:
        return None
    budget = _Budget(m, f)
    triple = lambda v, g: three_part_witness(v, g, budget=budget)
    for j in range(3, m + 1):
        parts = clique_parts(m, f, j, triple)
        if parts is not None:
            return parts + (1,) * (m - sum(parts))
    raise AssertionError(f"({m},{f}) is representable but no part count admits it")


def min_r(m: int, f: int) -> Optional[int]:
    """Smallest r >= 0 such that f is a sum of r+1 clique edge counts with
    positive vertex counts summing to m; None when no representation exists.

    Equals (min k with f in C(m, k)) - 1, since empty parts are removable.
    """
    w = min_r_witness(m, f)
    return None if w is None else len(w) - 1


# ---------------------------------------------------------------------------
# Triple-identity report (triangular twice over, and a product form)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripleIdentity:
    a: int
    b: int
    c: int


def triple_identity(m: int, f: int) -> Optional[TripleIdentity]:
    """Positive (a, b, c) with f = tri(a) = tri(m) - tri(b) = c(m - c),
    or None; c is the smaller positive root when two exist."""
    PairMF(m, f)
    a = tri_root(f)
    if a is None:
        return None
    b = tri_root(tri(m) - f)
    if b is None:
        return None
    # c(m - c) = f  <=>  c^2 - m*c + f = 0
    c = next((x for x in int_roots(m, f) if x >= 1), None)
    return None if c is None else TripleIdentity(a=a, b=b, c=c)


# ---------------------------------------------------------------------------
# The verdict engine
# ---------------------------------------------------------------------------

def _window(m: int) -> tuple[int, int]:
    return (m - 1) ** 2 // 4, m * m // 4


def classify_pair(m: int, f: int) -> Verdict:
    """Evaluate every certification rule on (m, f) and its complement and
    return the resulting verdict with a full trace."""
    pair = PairMF(m, f)
    fc = pair.complement_f
    trace: list[TraceEntry] = []
    sides = (("f", f), ("complement", fc))

    if (m, f) in SPECIAL_PAIRS:
        trace.append(TraceEntry("A", "pair", (("m", m), ("f", f))))
        one = Fraction(1)
        return Verdict(exact=one, upper=one, lower=one, trace=tuple(trace))

    # rule (iv): decompose upward; excess at least m - ell forces density 0
    exact_zero = False
    for side, g in sides:
        dec = decompose_upper(g)
        if dec.ell < m and dec.ellp >= m - dec.ell:
            trace.append(TraceEntry("iv", side, (("l", dec.ell), ("lp", dec.ellp))))
            exact_zero = True

    # rules (ii), (iii), (v): each caps the density at 1/2
    half = False
    wlo, whi = _window(m)
    for side, g in sides:
        if not wlo <= g <= whi:
            trace.append(TraceEntry("ii", side, (("f", g), ("window", (wlo, whi)))))
            half = True
        if g >= 1:
            dec = decompose_lower(g)
            if 2 * dec.bp > dec.b and dec.bp < dec.b - 1:
                trace.append(TraceEntry("iii", side, (("b", dec.b), ("bp", dec.bp))))
                half = True
        if dm_witness(g, m) is None:
            trace.append(TraceEntry("v", side, (("f", g),)))
            half = True

    # lower bounds / exactness from the minimal clique rank, on either side
    exact_val: Optional[Fraction] = None
    lower: Optional[Fraction] = None
    for side, g in sides:
        rep = triple_identity(m, g)
        if rep is None:
            continue
        r = min_r(m, g)
        if r is None or r < 2:
            continue
        params = (("r", r), ("a", rep.a), ("b", rep.b), ("c", rep.c))
        if r == 2 or r >= 5:
            trace.append(TraceEntry("thm-exact-1/r", side, params))
            val = Fraction(1, r)
            if exact_val is not None and exact_val != val:
                raise AssertionError(f"conflicting exact values for ({m},{f})")
            exact_val = val
        else:
            trace.append(TraceEntry("thm-lower-1/r", side, params))
            lower = max(lower or Fraction(0), Fraction(1, r))

    # rule (i): whatever fired on the complement holds for the pair
    if any(t.side == "complement" for t in trace):
        trace.insert(0, TraceEntry("i", "pair", (("f", f), ("complement", fc))))

    if exact_zero:
        if exact_val is not None or lower is not None:
            raise AssertionError(f"rule (iv) zero conflicts with a positive lower bound for ({m},{f})")
        zero = Fraction(0)
        return Verdict(exact=zero, upper=zero, lower=zero, trace=tuple(trace))

    upper = Fraction(1, 2) if half else Fraction(2, 3)
    if not half:
        trace.append(TraceEntry("thm-upper-2/3", "pair", ()))
    # universal literature bound off the special set, recorded but separate
    trace.append(TraceEntry("thm-upper-1/2", "pair", ()))

    if exact_val is not None:
        if exact_val > upper:
            raise AssertionError(f"exact {exact_val} above certified upper {upper} for ({m},{f})")
        return Verdict(exact=exact_val, upper=exact_val, lower=exact_val, trace=tuple(trace))
    return Verdict(exact=None, upper=upper, lower=lower, trace=tuple(trace))
