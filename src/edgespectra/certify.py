"""Certified density bounds for a target pair (m, f).

classify_pair applies a small battery of mechanical rules to a pair
(vertex count m, edge count f) and to its complement (m, tri(m) - f), and
combines them with cited facts (the universal 1/2 bound off a finite
special set, recorded; exactness of 1/r for qualifying minimal clique
ranks).  The result is a Verdict: a certified interval for the asymptotic
density of good edge counts, never a computed limit, together with a
trace of every rule that fired.

Each rule is stated once, in the table _RULES: its parameter names,
whether it speaks of the pair or of one side, the density cap it
certifies, and its condition.  classify_pair searches each rule's
parameters and fires an entry when that condition holds;
Verdict.validate re-checks every entry by the same condition, and both
take the bounds from _bounds(trace).  The one claim a condition does not
re-check is the minimality of the clique rank r in a thm-* entry.  The
special set SPECIAL_PAIRS is closed under complement, so membership can
be tested on the pair as given.

Off the special set rules (ii)-(v) alone cap every pair at 0 or 1/2, so
the weaker cited cap 2/3 (Erdos, Furedi, Rothschild, Sos) is not kept;
test_mechanical_rules_cap_every_pair checks each step.  (ii) fires unless
both sides lie in W = _window(m).  For g in W, with l = tri_floor_root(g)
and lp = g - tri(l), a non-triangular g fires (iii) when 1 <= lp and
2lp < l - 1 and (iv) when lp >= m - l, which leave no gap once
l + floor(l/2) >= m: l > (m - 1)/sqrt(2) - 1 gives that for m >= 51, and
smaller m are checked pair by pair.  Then l > floor(m/2), the width of W,
so both sides triangular means f = tri(m)/2, above the bottom of W, where
every D(m) witness has z = 0 and x + y = m (m >= 5): (v) misses f only if
(m - 2x)^2 = m = y^2 and 2 tri(a) = tri(y^2).  Its solution (3, 2) is the
special pair (4, 3), bennett_search finds no other for y <= 10^100, and
past m = 10^200 this rests on there being none: another would leave its
pair at upper = 1, not 2/3, a looser bound but never an unsound one.

The minimal clique rank comes from one search, min_rank_parts, built on
triangles.clique_parts, the recursion over the largest part a, which the
deficit d = tri(m) - f confines to a >= m - 2d/m.  The search first
decides whether f is the edge sum of any partition of m; a pair with no
representation is answered there.  Then it runs at part counts
j = 1, 2, ..., from the least j with min_clique_edges(m, j) <= f, with
three_part_witness (a walk over the smallest part within a closed-form
window, keeping the discriminant of the other two parts as a running sum
in triangles.first_square) as its three-part step, and the first j that
admits a partition gives the witness.  The three-part windows of one
search walk through one triangles.WalkBudget of z-steps, the budget type
the three-square descent of squares walks through too, so a search that
cannot decide in time raises RankBudgetExceeded instead of running on;
dm_witness, which rule (v) reads, walks at most _DM_STEPS values of x
and raises DmBudgetExceeded when that cuts its walk short.
Every partition it would list, and every witness min_r_witness pads, is
charged first to triangles.check_cap, the one memory cap of the package,
so a search that cannot list its answer raises SpectrumMemoryError
instead of allocating.  min_r_witness lists the witness's singletons;
min_r and the minr command count them, and the rank is the witness's
part count less one, so the rank and its certificate never disagree.
Every step is exact integer arithmetic: the two-part quadratic is solved
with triangles.int_roots, the three-part walk tests each discriminant
with isqrt, and nothing here is fixed-width.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from math import isqrt
from typing import Callable, NamedTuple, Optional

from .triangles import (EdgespectraError, WalkBudget, ceil_sqrt, check_cap, clique_parts,
                        decompose_lower, decompose_upper, int_roots, is_triple, min_clique_edges,
                        tri, tri_root)

#: The five pairs whose density is exactly 1.
SPECIAL_PAIRS = frozenset({(2, 0), (2, 1), (4, 3), (5, 4), (5, 6)})


class PairMF(namedtuple("PairMF", "m f")):
    """A target pair: induced subgraph order m and edge count f."""

    __slots__ = ()

    def __new__(cls, m: int, f: int):
        if m < 2:
            raise ValueError(f"m must be >= 2, got {m}")
        if not 0 <= f <= tri(m):
            raise ValueError(f"f={f} outside [0, {tri(m)}] for m={m}")
        return tuple.__new__(cls, (m, f))

    @property
    def complement_f(self) -> int:
        return tri(self.m) - self.f


class TraceEntry(namedtuple("TraceEntry", "rule side params", defaults=((),))):
    """One fired rule.  rule: "A", "i".."v", or "thm-*" for cited facts;
    side: "f", "complement" or "pair"; params: (name, value) pairs,
    hashable, () by default."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {"rule": self.rule, "side": self.side, "params": dict(self.params)}


class Verdict(namedtuple("Verdict", "exact upper lower trace")):
    """Certified interval for the density of a pair: exact and lower are
    Fractions or None, upper a Fraction, trace a tuple of TraceEntry,
    which repr leaves out.

    upper always carries the tightest certified upper bound; rule-only and
    literature-only views are recoverable from the trace (entries whose
    rule id starts with "thm-" are cited facts, the rest are mechanical).
    """

    __slots__ = ()

    def __new__(cls, exact: Optional[Fraction], upper: Fraction, lower: Optional[Fraction],
                trace: tuple):
        if not trace:
            raise ValueError("verdict trace must be non-empty")
        if lower is not None and lower > upper:
            raise ValueError(f"lower {lower} > upper {upper}")
        if exact is not None and not (exact == lower == upper):
            raise ValueError("exact verdict must collapse the interval")
        return tuple.__new__(cls, (exact, upper, lower, trace))

    def __repr__(self) -> str:
        return f"Verdict(exact={self.exact!r}, upper={self.upper!r}, lower={self.lower!r})"

    def rule_upper(self) -> Fraction:
        """Upper bound certified by the mechanical rules alone: the least
        _RULES cap among the entries that are not cited facts."""
        return _least_cap(frozenset(t.rule for t in self.trace if not t.rule.startswith("thm-")))

    def validate(self, m: int, f: int) -> None:
        """Re-check the verdict on (m, f); AssertionError if it fails.  Every
        entry must pass _entry_holds, rule (i) must be present exactly when
        an entry is on the complement, and the bounds must be _bounds(trace).
        Each entry's condition is decided again, rule (v)'s by dm_witness;
        only the minimality of r in a thm-* entry, a non-existence claim,
        is not re-checked: its triple identity is.
        """
        for t in self.trace:
            if not _entry_holds(t, m, f):
                raise AssertionError(f"trace entry {t.as_dict()} does not hold for ({m},{f})")
        if any(t.rule == "i" for t in self.trace) != any(t.side == "complement" for t in self.trace):
            raise AssertionError(f"rule (i) entry disagrees with the complement entries for ({m},{f})")
        expect = _bounds(self.trace)
        if (self.exact, self.upper, self.lower) != expect:
            raise AssertionError(f"bounds {(self.exact, self.upper, self.lower)} do not follow "
                                 f"from the trace for ({m},{f}): expected {expect}")


_ZERO, _HALF, _ONE = Fraction(0), Fraction(1, 2), Fraction(1)


class _Rule(NamedTuple):
    names: tuple[str, ...]       # parameter names, in trace order
    on_pair: bool                # speaks of the pair, not of one side
    cap: Optional[Fraction]      # the density cap it certifies
    holds: Callable[..., bool]   # its condition on (m, g, *parameter values)


#: Every trace rule.  A condition reads m, the edge count g of the entry's
#: side (f, or tri(m) - f on the complement) and the parameter values.
_RULES = {
    # (m, f) is special: density exactly 1
    "A": _Rule(("m", "f"), True, None,
               lambda m, f, pm, pf: (pm, pf) == (m, f) and (m, f) in SPECIAL_PAIRS),
    # whatever holds for the complement holds for the pair
    "i": _Rule(("f", "complement"), True, None, lambda m, f, pf, pc: (pf, pc) == (f, tri(m) - f)),
    # g = tri(l) + lp with excess lp >= m - l
    "iv": _Rule(("l", "lp"), False, _ZERO,
                lambda m, g, l, lp: g == tri(l) + lp and 0 <= lp < l < m and lp >= m - l),
    # g outside the middle window
    "ii": _Rule(("f", "window"), False, _HALF,
                lambda m, g, pf, w: pf == g and w == _window(m) and not w[0] <= g <= w[1]),
    # g = tri(b) - bp with b/2 < bp < b - 1
    "iii": _Rule(("b", "bp"), False, _HALF,
                 lambda m, g, b, bp: g == tri(b) - bp and b < 2 * bp < 2 * b - 2),
    # g has no D(m) witness
    "v": _Rule(("f",), False, _HALF, lambda m, g, pf: pf == g and dm_witness(g, m) is None),
    # g = tri(a) = tri(m) - tri(b) = c(m - c) with minimal clique rank r: 1/r exactly, or at least
    "thm-exact-1/r": _Rule(("r", "a", "b", "c"), False, None,
                           lambda m, g, r, a, b, c: (r == 2 or r >= 5) and is_triple(m, g, a, b, c)),
    "thm-lower-1/r": _Rule(("r", "a", "b", "c"), False, None,
                           lambda m, g, r, a, b, c: r in (3, 4) and is_triple(m, g, a, b, c)),
    # the universal bound off the special set, recorded, not folded into upper
    "thm-upper-1/2": _Rule((), True, None, lambda m, f: (m, f) not in SPECIAL_PAIRS),
}


@functools.lru_cache(maxsize=1 << len(_RULES))
def _least_cap(rules: frozenset[str]) -> Fraction:
    """The least cap that one of the named rules certifies; 1 if none does.
    Kept per set of names, as a comparison of two Fractions costs about a
    microsecond; there is room for every set of rules."""
    return min((rule.cap for k, rule in _RULES.items() if k in rules and rule.cap is not None),
               default=_ONE)


def _entry_holds(t: TraceEntry, m: int, f: int) -> bool:
    """Whether trace entry t has its rule's shape (parameter names and a
    side of the rule's scope) and satisfies the rule's condition on (m, f)."""
    rule = _RULES.get(t.rule)
    names, values = tuple(zip(*t.params)) or ((), ())
    if (rule is None or names != rule.names
            or t.side not in (("pair",) if rule.on_pair else ("f", "complement"))):
        return False
    return rule.holds(m, tri(m) - f if t.side == "complement" else f, *values)


def _bounds(trace) -> tuple[Optional[Fraction], Fraction, Optional[Fraction]]:
    """(exact, upper, lower) that the entries of trace certify: 1 on a
    special pair, else upper is the least cap (0 settles the pair), and
    thm-exact gives the exact value 1/r, thm-lower the lower bound.
    AssertionError on conflicting entries.
    """
    rules = frozenset(t.rule for t in trace)
    if "A" in rules:
        return _ONE, _ONE, _ONE
    upper = _least_cap(rules)
    exact = {Fraction(1, dict(t.params)["r"]) for t in trace if t.rule == "thm-exact-1/r"}
    lower = max([Fraction(1, dict(t.params)["r"]) for t in trace if t.rule == "thm-lower-1/r"],
                default=None)
    if len(exact) > 1 or (exact and max(exact) > upper) or (upper == 0 and (exact or lower)):
        raise AssertionError(f"conflicting bounds in the trace {[t.as_dict() for t in trace]}")
    if upper == 0:
        return _ZERO, _ZERO, _ZERO
    if exact:
        (e,) = exact
        return e, e, e
    return None, upper, lower


def _fired(rule: str, side: str, m: int, g: int, *values) -> list[TraceEntry]:
    """[the entry of rule on side with these parameter values] when the
    rule's condition holds on (m, g), else []."""
    spec = _RULES[rule]
    return [TraceEntry(rule, side, tuple(zip(spec.names, values)))] if spec.holds(m, g, *values) else []


# ---------------------------------------------------------------------------
# D(m) membership
# ---------------------------------------------------------------------------

class DmBudgetExceeded(EdgespectraError):
    """dm_witness walked its whole budget of x-values below m/2 without
    deciding the pair."""


#: x-values one dm_witness call may walk, as many as the rank search's
#: z-steps: 2.1 s at (m, f) = (2^63 + 8, 21267647932558654001048558102690922510),
#: which spends it, 2.6 s near m = 10^30 and 5.0 s near 10^100 (2-core
#: x86-64 VM); a pair with m <= 3000 walks at most 1,499.
_DM_STEPS = 2_000_000


def dm_witness(f: int, m: int) -> Optional[tuple[int, int, int]]:
    """A triple (x, y, z) of non-negative integers with f = x*y + z,
    x + y <= m, and x + y + z <= m - 1 whenever z >= 1; None if no such
    triple exists.

    The first witness in the order "smallest x, then smallest y >= x".
    Once f >= m, x >= 2 and every witness has x(m - x) >= f (z >= 1 forces
    f <= xy + m - 1 - x - y), so x starts at the smaller root of
    x(m - x) = f.  The slack x + y + (f - xy) falls as y grows, so the
    largest y, min(f // x, m - x), decides whether x has a witness; the
    least y is then the closed form below while z >= 1, else f / x.  The
    walk covers at most _DM_STEPS values of x; one that this cuts short of
    m/2 raises DmBudgetExceeded.
    """
    if m < 2 or f < 0:
        raise ValueError(f"need m >= 2 and f >= 0, got m={m}, f={f}")
    if f <= m - 1:
        return (0, 0, f)
    if f > m * m // 4:
        # x*y <= m^2/4, so z >= f - m^2/4 and x+y+z > m - 1 always
        return None
    start = max(2, (m - isqrt(m * m - 4 * f)) // 2)
    stop = min(m // 2 + 1, start + _DM_STEPS)
    for x in range(start, stop):
        y = min(f // x, m - x)
        if y < x or (x * y < f and x + y + f - x * y > m - 1):
            continue
        # x + y + (f - x*y) <= m - 1  <=>  y >= ceil((f + x - m + 1)/(x - 1))
        y_lo = max(x, -((m - 1 - f - x) // (x - 1)))
        if x * y_lo < f and y_lo <= m - x:
            y = y_lo
        return (x, y, f - x * y)
    if stop <= m // 2:
        raise DmBudgetExceeded(f"D(m) search of (m, f) = {(m, f)} walked all {_DM_STEPS} "
                               f"x-values of its budget, from {start}, short of m/2")
    return None


# ---------------------------------------------------------------------------
# Minimal clique rank: smallest r with f a sum of r+1 clique edge counts
# whose vertex counts are positive and sum to m.
# ---------------------------------------------------------------------------

class RankBudgetExceeded(EdgespectraError):
    """The rank search walked its whole budget of three-part z-steps
    without deciding the pair."""


#: z-steps of three-part windows one min_r_witness call may walk: 0.2 to
#: 0.3 s (2-core x86-64 VM, seven pairs near m = 1.5 * 10^5 that spend it),
#: and 20 times the most that any of 2400 seeded pairs with m <= 3000 walks
#: (95,656 steps, at (2942, 1718353)).
_RANK_STEPS = 2_000_000
# Peak memory per part of a min_r_witness partition (the singletons' tuple
# and the padded copy), charged to the memory cap of triangles before the
# singletons are listed, and per part the rank search must list at least.
# Measured as peak RSS above the search at f = 1 for m = 10^6 to 4 * 10^6:
# 16.0 bytes a part.
_WITNESS_PART_BYTES = 16


def _rank_budget(m: int, f: int) -> WalkBudget:
    """A fresh budget of _RANK_STEPS z-steps for the rank search of (m, f)."""
    return WalkBudget(_RANK_STEPS, lambda budget: RankBudgetExceeded(
        f"rank search of (m, f) = {(m, f)} walked all {_RANK_STEPS} z-steps of its "
        f"budget in {budget.walks} three-part windows without a decision"))


def _z_window(m: int, f: int) -> range:
    """The smallest parts z that three_part_witness tries; see there."""
    n = 12 * f + 6 * m - 2 * m * m
    if m < 3 or n < 0:
        return range(0)
    root = isqrt(n)
    t = (ceil_sqrt(n) + 1) // 2  # the least t >= 0 with 4t^2 >= n
    return range(max(1, -(-(m - root) // 3)), (m - t) // 3 + 1)


def three_part_witness(m: int, f: int, *,
                       budget: Optional[WalkBudget] = None) -> Optional[tuple[int, int, int]]:
    """(x, y, z) with x >= y >= z >= 1, x+y+z = m, tri sums to f, and z
    smallest; None if there is none.

    Every such triple satisfies (3z - m)^2 + 3(x - y)^2 = N with
    N = 12f + 6m - 2m^2, so the smallest part z starts where
    (m - 3z)^2 <= N first holds, and y >= z holds only while
    4(m - 3z)^2 >= N.  triangles.first_square walks z upward through the
    window and keeps d = (x - y)^2 = (N - (m - 3z)^2) / 3, which the
    window keeps >= 0, in one running sum: d(z + 1) - d(z) = 2m - 6z - 3,
    a step that falls by 6 per z.  Only a d that passes the square
    residues mod 64 and mod 63 is tested by isqrt, and the first square
    s^2 gives x, y = (m - z +- s) / 2.  Exact integer arithmetic at any
    size.

    The walk goes through budget, a fresh _rank_budget(m, f) by default,
    which charges it the z-steps it tests and raises RankBudgetExceeded
    when it ends the walk before the window.
    """
    window = _z_window(m, f)
    z = window.start
    # the window's length at any size (len() must fit a C ssize_t), never
    # negative, which would refund steps to the budget
    hit = (_rank_budget(m, f) if budget is None else budget).walk(
        (m - z) * (2 - m + z) + 4 * f - 2 * z * (z - 1), 2 * m - 6 * z - 3, -6,
        max(0, window.stop - z))
    if hit is None:
        return None
    i, s = hit  # the window's end keeps y >= z
    z += i
    return ((m - z + s) // 2, (m - z - s) // 2, z)


def min_rank_parts(m: int, f: int) -> Optional[tuple[int, ...]]:
    """min_r_witness(m, f) without the singletons that fill up the rest of
    m: its parts >= 2, nonincreasing; None if there is no partition.

    triangles.clique_parts first decides whether any partition of m has
    edge sum f, by a recursion over the largest part; a pair without one
    returns None there.  Then the part counts j = 1, 2, ... are tried in
    turn by the same recursion with three_part_witness as its k = 3 step,
    and the first that admits a partition gives the witness: at the least
    such j every partition into at most j parts has exactly j.  No j with
    min_clique_edges(m, j) > f admits one, and min_clique_edges falls as
    j grows, so the search starts at the least j that is not, found by an
    integer bisection over [1, m] that holds at any m.  The three-part
    windows of one call walk through one _rank_budget(m, f) of
    _RANK_STEPS z-steps, which raises RankBudgetExceeded once they have
    walked it.

    Parts the recursion would list past the memory cap raise
    SpectrumMemoryError ("clique parts"): a balanced partition is charged
    by clique_parts, and before the loop the search charges the fewest
    parts >= 2 that a partition into at most start parts lists.  With
    c = m - start > 0, P such parts hold W >= max(2P, c + P) vertices and
    span at least W(W - P)/(2P) edges by convexity, so 2Pf >= (c + P)c,
    that is P >= c^2/(2f - c), or else P > c.  So a search whose answer
    at its start is too long to list is refused at once, not after walking
    about sqrt(2f) largest parts that each fail at once (at f of order m
    past 2^63, start is about m/3).
    """
    PairMF(m, f)
    if clique_parts(m, f, m) is None:
        return None
    start, hi = 1, m
    while start < hi:  # min_clique_edges falls as j grows, to 0 at j = m
        mid = (start + hi) // 2
        if min_clique_edges(m, mid) <= f:
            hi = mid
        else:
            start = mid + 1
    c = m - start
    if 2 * f > c > 0:
        check_cap(8 * _WITNESS_PART_BYTES * min(-(-c * c // (2 * f - c)), c + 1), "clique parts")
    budget = _rank_budget(m, f)
    triple = lambda v, g: three_part_witness(v, g, budget=budget)
    for j in range(start, m + 1):
        parts = clique_parts(m, f, j, triple)
        if parts is not None:
            return parts
    raise AssertionError(f"({m},{f}) is representable but no part count admits it")


def min_r_witness(m: int, f: int) -> Optional[tuple[int, ...]]:
    """A partition realizing min_r(m, f), nonincreasing; None if absent.

    It has the fewest parts; the parts before the last three are the
    lexicographically largest possible, and the last three are the triple
    with the smallest smallest part.  See min_rank_parts for the search.
    The listed partition is charged to the memory cap of triangles before
    its singletons are listed: SpectrumMemoryError above it.
    """
    parts = min_rank_parts(m, f)
    if parts is None:
        return None
    singletons = m - sum(parts)
    check_cap(8 * _WITNESS_PART_BYTES * (len(parts) + singletons), "witness parts")
    return parts + (1,) * singletons


def min_r(m: int, f: int) -> Optional[int]:
    """Smallest r >= 0 such that f is a sum of r+1 clique edge counts with
    positive vertex counts summing to m; None when no representation exists.

    Equals (min k with f in C(m, k)) - 1, since empty parts are removable.
    It is the part count of min_r_witness(m, f) less one, its singletons
    counted, not listed.
    """
    parts = min_rank_parts(m, f)
    return None if parts is None else len(parts) + m - sum(parts) - 1


# ---------------------------------------------------------------------------
# Triple-identity report (triangular twice over, and a product form)
# ---------------------------------------------------------------------------

class TripleIdentity(namedtuple("TripleIdentity", "a b c")):
    __slots__ = ()


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
    """Evaluate every rule of _RULES on (m, f) and its complement and
    return the verdict its trace certifies.  Only the parameter searches
    and the entry order live here; an entry fires by its _RULES condition.
    The order: (A) alone; else (iv) per side, (ii), (iii) and (v) per side,
    thm-exact/lower per side, (i) first when an entry is on the complement,
    and thm-upper-1/2 unless a cap of 0 fired.
    """
    fc = PairMF(m, f).complement_f
    trace = _fired("A", "pair", m, f, m, f)
    if trace:
        return Verdict(*_bounds(trace), trace=tuple(trace))
    sides = (("f", f), ("complement", fc))
    for side, g in sides:
        dec = decompose_upper(g)
        trace += _fired("iv", side, m, g, dec.ell, dec.ellp)
    window = _window(m)
    for side, g in sides:
        trace += _fired("ii", side, m, g, g, window)
        if g >= 1:  # decompose_lower needs an edge
            dec = decompose_lower(g)
            trace += _fired("iii", side, m, g, dec.b, dec.bp)
        trace += _fired("v", side, m, g, g)
    for side, g in sides:
        rep = triple_identity(m, g)
        r = None if rep is None else min_r(m, g)
        if r is not None:
            rabc = (r, rep.a, rep.b, rep.c)
            trace += (_fired("thm-exact-1/r", side, m, g, *rabc)
                      or _fired("thm-lower-1/r", side, m, g, *rabc))
    if any(t.side == "complement" for t in trace):
        trace[:0] = _fired("i", "pair", m, f, f, fc)
    if _least_cap(frozenset(t.rule for t in trace)) != 0:
        trace += _fired("thm-upper-1/2", "pair", m, f)
    return Verdict(*_bounds(trace), trace=tuple(trace))
