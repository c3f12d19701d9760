"""Exact edge spectra of disjoint clique unions.

spectrum(n, r) computes the set of edge counts realizable by an n-vertex
graph that is a disjoint union of at most r cliques.  The computation is a
layered reachability DP over states (vertices used, edge sum): layer k
holds, for each vertex budget v, the bitmask of edge sums reachable with at
most k parts.  Rows are Python integers used as bit-vectors, so membership,
counting and shifting are single big-int operations.

Every layer is one view, _Layer(prev, k, cap, n, r): layer k toward row n
of layer r, each row built from layer k - 1 (prev) by one kernel, _row.
Row v of layer k only ever reads rows up to floor(v(k-1)/k) of layer
k - 1, so layer k is needed only up to the cap floor(nk/r), and the top
layer only at row n.  That row is the OR, over a >= ceil(n/r), of row
n - a of layer r - 1 shifted by tri(a), so spectrum stores layers 1..r-2
only, as the lists of their rows, and reads layer r - 1, its largest,
through the view itself: each of its rows is built, OR-ed into the top
row and dropped.

Nor does row n need every partition of v into k parts in row v of layer
k < r: only the canonical tails, the k smallest parts of a partition of n
into r parts p_1 >= ... >= p_r >= 0.  Their largest part a is at most each
of the r - k larger parts, which sum to n - v, so row v of layer k takes
a <= floor((n - v)/(r - k)) only, which is n - v on layer r - 1.  The
rest v - a still fits the bound of row v - a of layer k - 1, since
a <= floor((n - v)/(r - k)) gives a <= floor((n - v + a)/(r - k + 1)).
So, by induction on k, every row holds every canonical tail and stays a
subset of C(v, k), and row n is C(n, r) bit for bit.

At r = 5 and n >= 288 (and n = 275, 281-285) C(n, 5) is built from three
exact pieces instead (_cover_plan):
- the cover: for odd v, the three-square theorem puts a run of
  consecutive values in C(v, 4) (_cover_run), and these runs, shifted by
  tri(n - v), merge into one run [lo, hi] inside C(n, 5);
- the values from min_clique_edges(n, 5) up to lo, each decided by
  triangles.clique_parts: one where 5 divides n, none otherwise, at every
  n up to 6000 and at every n sampled up to 10^5;
- the top band above hi: a partition with deficit tri(n) - e <= D =
  tri(n) - hi - 1 has a largest part n - s with s(n - s) <= D, so s <= S,
  and there the band is the OR over s <= S of C(s, 4) shifted by
  tri(n - s).  That is the DP above with the layer caps of (S, 4) and the
  top row n: every partition of s <= S < n/2 is a canonical tail of one
  of n with largest part n - s, so the streamed rows 0..S are C(s, 4).
S is about 5 sqrt(n), so the band's layers are small; at n = 10^4 (S =
679) the route takes 0.3 to 0.5 s.  Where the plan's preconditions fail
(every n below 275, and 276-280, 286, 287), or at any other r, the DP
builds the whole spectrum, and the DP is what the tests check the route
against.

Alive at a time are the two largest stored layers and, while layer r - 1
is streamed, a few ints the size of its rows and of the top row;
the memory guard, triangles.check_cap, is charged for them as "DP
tables", at the size of full rows, before the first layer is built.  On
the r = 5 route these are the band's layers, and the cover's run is
OR-ed into the top row within the same charge.  The guard is charged in
two steps: first the top row's four ints, 4(tri(n) + 1) bits, a term of
every route's charge, before a cover plan or a layer cap is made, so a
refusal takes the same time at any n and r; then the whole charge, read
off the route's layer caps.  member_witness reads no layer (it is
triangles.clique_parts, a recursion over the largest part), but it is
guarded as spectrum(n, r) is, from the same cover plan, which is made
once per n and cached.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from itertools import compress
from typing import Iterator

from .triangles import ceil_sqrt, check_cap, clique_parts, min_clique_edges, realizes, tri


class CliquePartition(namedtuple("CliquePartition", "parts n")):
    """Multiset of clique sizes; canonical form is nonincreasing, and parts
    is stored in it."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...], n: int):
        if sum(parts) != n:
            raise ValueError(f"parts {parts} do not sum to n={n}")
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        return tuple.__new__(cls, (tuple(sorted(parts, reverse=True)), n))

    def realizes(self, n: int, r: int, m: int) -> bool:
        """Re-validation of a witness that m is in C(n, r): at most r parts
        are nonzero, and the parts realize m on n vertices."""
        return sum(p > 0 for p in self.parts) <= r and realizes(self.parts, n, m)


_EXPORT_CHUNK_BYTES = 1 << 16  # bytes of the mask export_lines turns into bits at a time
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")  # a "0" or "1" to a false or true byte


def _one_bits(mask: int, start: int = 0) -> Iterator[int]:
    """start + i for each one bit i of mask, ascending, selected in C."""
    bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)  # byte i is bit i
    return compress(range(start, start + len(bits)), bits)


class EdgeSpectrum(namedtuple("EdgeSpectrum", "n r mask")):
    """Membership table over edge counts 0..n(n-1)/2, packed into one int,
    mask, which repr leaves out; r is an int or None."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"EdgeSpectrum(n={self.n!r}, r={self.r!r})"

    def __contains__(self, e: int) -> bool:
        return 0 <= e <= tri(self.n) and bool((self.mask >> e) & 1)

    def members(self) -> list[int]:
        return list(_one_bits(self.mask))

    @property
    def count(self) -> int:
        return self.mask.bit_count()

    @property
    def min_element(self) -> int:
        if self.mask == 0:
            raise ValueError("empty spectrum")
        return (self.mask & -self.mask).bit_length() - 1

    @property
    def max_element(self) -> int:
        if self.mask == 0:
            raise ValueError("empty spectrum")
        return self.mask.bit_length() - 1

    def export_lines(self) -> Iterator[str]:
        """Line format: a JSON header, then one decimal member per line, each
        line ending in a newline.  The members are read off the mask's bytes
        a chunk at a time, so no list of them is held."""
        import json

        empty = self.mask == 0
        yield json.dumps(
            {"n": self.n, "r": self.r, "count": self.count,
             "min": None if empty else self.min_element,
             "max": None if empty else self.max_element}
        ) + "\n"
        data = self.mask.to_bytes((self.mask.bit_length() + 7) // 8, "little")
        for start in range(0, len(data), _EXPORT_CHUNK_BYTES):
            chunk = int.from_bytes(data[start:start + _EXPORT_CHUNK_BYTES], "little")
            for e in _one_bits(chunk, 8 * start):
                yield f"{e}\n"


def bounded_partitions(n: int, max_parts: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n into at most max_parts positive parts, nonincreasing."""
    if n == 0:
        yield ()
        return
    if max_parts == 0:
        return
    hi = n if max_part is None else min(n, max_part)
    for first in range(hi, 0, -1):
        if first * max_parts < n:
            break
        for rest in bounded_partitions(n - first, max_parts - 1, first):
            yield (first,) + rest


def _layer_caps(n: int, r: int) -> list[int]:
    """Vertex budget still reachable at layer k when targeting (n, r).

    Layer k (at most k parts) is queried only for budgets v <= n*k/r,
    because each higher layer peels off a largest part of at least a 1/k
    fraction of its budget.
    """
    return [0] + [(n * k) // r for k in range(1, r)] + [n]


def _rows_bits(cap: int) -> int:
    # sum of tri(v) + 1 over v = 0..cap
    return (cap + 1) * cap * (cap - 1) // 6 + cap + 1


def _estimate_bits(caps: list[int]) -> int:
    # alive at once: the two largest stored layers (the _Layer.rows being
    # built and the one it reads; layers r - 3 and r - 2), and, while _row
    # reads layer r - 1 through its _Layer view, three ints the size of one
    # of its rows (_row's row, shifted block and OR result) and four the
    # size of the top row: the same three in the top row, and on the r = 5
    # route the mask and the three ints that OR the cover's run into it.  At
    # r = 2 no layer is stored, and these ints are the whole charge.  Each
    # is charged at its full row's size; a row bounded toward (n, r) is no
    # longer, and most are shorter.  Caps are nondecreasing, so the two
    # largest stored layers are the last.
    streamed_row, top_row = tri(caps[-2]) + 1, tri(caps[-1]) + 1
    return sum(_rows_bits(c) for c in caps[-4:-2]) + 3 * streamed_row + 4 * top_row


# Part sizes are OR-ed into a row in blocks of _BLOCK consecutive sizes a:
# inside a block each term sits at the offset tri(a) - tri(a0) relative to
# the block's first size a0, and the block is shifted by tri(a0) once, so
# the ORs inside it touch about tri(v - a) + (tri(a) - tri(a0)) bits, not
# tri(v).
_BLOCK = 64


def _row(prev: list[int] | _Layer, v: int, k: int, hi: int) -> int:
    """Row v of layer k from layer k - 1: the OR, over largest parts a with
    ceil(v/k) <= a <= min(v, hi), of row v - a shifted by tri(a).  It holds
    the edge sums of every partition of v into at most k parts no larger
    than hi whose rest layer k - 1 holds, and none outside C(v, k); over
    full rows with hi >= v it is C(v, k).  It reads layer k - 1 at rows up
    to floor(v(k-1)/k) only, each once, in decreasing order."""
    row = 0
    stop = min(v, hi) + 1
    # largest part first: a >= ceil(v/k) covers every partition once
    for a0 in range(-(-v // k), stop, _BLOCK):
        block, offset = 0, 0
        for a in range(a0, min(a0 + _BLOCK, stop)):
            block |= prev[v - a] << offset
            offset += a  # tri(a + 1) - tri(a)
        row |= block << tri(a0)
    return row


class _Layer:
    """Layer k toward row n of layer r (k < r), read row by row: row v, its
    largest part bounded by floor((n - v)/(r - k)), is built from layer
    k - 1 (prev) when read, if v <= cap, and reads 0 otherwise.  Layer
    r - 1 is read through the view, each row once; a lower layer is stored
    as rows()."""

    def __init__(self, prev: list[int], k: int, cap: int, n: int, r: int):
        self.prev, self.k, self.cap, self.n, self.r = prev, k, cap, n, r

    def __getitem__(self, v: int) -> int:
        return _row(self.prev, v, self.k, (self.n - v) // (self.r - self.k)) if v <= self.cap else 0

    def rows(self) -> list[int]:
        """Rows 0..cap; layer 0 is [1]."""
        # Rows are built largest first: the temporaries of a row then fit in
        # the heap holes the larger row before it left, where in increasing
        # order none would.  At n = 2000, r = 5, on a 2-core x86-64 VM, the
        # peak RSS fell from 84 MB to 76 MB.
        rows = [self[v] for v in range(self.cap, -1, -1)]
        rows.reverse()
        return rows


def _check_n_r(n: int, r: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")


def _cover_run(v: int) -> tuple[int, int]:
    """(lo, hi) with [lo, hi] inside C(v, 4) for odd v, empty when lo > hi.

    Over the parts of v, 4 sum p_i^2 = v^2 + y_1^2 + y_2^2 + y_3^2 with
    y_1 = p_1 + p_2 - p_3 - p_4 (y_2 and y_3 likewise), so e is in C(v, 4)
    when N = 8e + 4v - v^2 is y_1^2 + y_2^2 + y_3^2 with every
    p_i = (v +- y_1 +- y_2 +- y_3)/4 a non-negative integer.  For odd v,
    N is 3 mod 8, a sum of three odd squares by Gauss, and signs make every
    p_i an integer; 3N < v^2, that is e <= hi, makes every p_i positive."""
    return min_clique_edges(v, 4), (4 * v * v - 12 * v - 1) // 24


@functools.lru_cache(maxsize=256)
def _cover_plan(n: int) -> tuple[int, int, int] | None:
    """(lo, hi, s), where [lo, hi] lies inside C(n, 5) and every partition
    of n whose deficit tri(n) - e is at most D = tri(n) - hi - 1 has a
    largest part of at least n - s; None where the cover gives no such
    plan (every n below 275, and 276-280, 286 and 287).

    [lo, hi] is the run that the intervals tri(n - v) + _cover_run(v),
    over odd v, form from the lowest up; lo is the edge sum of a
    partition, so it is at least min_clique_edges(n, 5).  The deficit of a
    partition is at least s(n - s) for its largest part n - s, and above
    n^2/4 when every part is below n/2.  So s is the largest s with
    s(n - s) <= D, when s + 1 <= n/2 and (s + 1)(n - s - 1) > D; where no
    s + 1 <= n/2 has that, D is at least floor(n/2) ceil(n/2) and there
    is no plan."""
    runs = []
    for v in range(1, n + 1, 2):
        lo, hi = _cover_run(v)
        if lo <= hi:
            runs.append((tri(n - v) + lo, tri(n - v) + hi))
    runs.sort()
    if not runs:
        return None
    lo, hi = runs[0]
    for a, b in runs[1:]:
        if a > hi + 1:
            break
        hi = max(hi, b)
    deficit = tri(n) - hi - 1
    s = 0
    while 2 * (s + 1) <= n and (s + 1) * (n - s - 1) <= deficit:
        s += 1
    if 2 * (s + 1) > n:
        return None
    return lo, hi, s


def _guarded_caps(n: int, r: int) -> tuple[int, list[int], tuple[int, int, int] | None]:
    """The layer count spectrum(n, r) builds, its layer caps and, at r = 5
    where the cover applies, its cover plan, after the memory guard has
    been charged for them.  The top row's four ints, a term of every
    route's charge, are charged first, so a refusal lists no cap."""
    _check_n_r(n, r)
    check_cap(4 * (tri(n) + 1), "DP tables")
    k_eff = min(r, max(n, 1))  # more than n parts only adds empty cliques
    plan = _cover_plan(n) if k_eff == 5 else None
    caps = _layer_caps(n, k_eff) if plan is None else _layer_caps(plan[2], 4) + [n]
    check_cap(_estimate_bits(caps), "DP tables")
    return k_eff, caps, plan


def spectrum(n: int, r: int) -> EdgeSpectrum:
    """Exact C(n, r): edge sums of unions of at most r cliques on n vertices.
    Built from the cover plan where _cover_plan(n) gives one at r = 5, and
    by the DP everywhere else; both give the same mask."""
    k_eff, caps, plan = _guarded_caps(n, r)
    if k_eff == 1:  # one clique on all n vertices
        return EdgeSpectrum(n=n, r=r, mask=1 << tri(n))
    prev = [1]
    for k in range(1, k_eff - 1):
        prev = _Layer(prev, k, caps[k], n, k_eff).rows()
    mask = _row(_Layer(prev, k_eff - 1, caps[k_eff - 1], n, k_eff), n, k_eff, n)
    if plan is not None:  # the top band is built; add the cover's run and the values below it
        lo, hi, _ = plan
        mask |= (1 << (hi + 1)) - (1 << lo)
        for e in range(min_clique_edges(n, 5), lo):
            if clique_parts(n, e, 5) is not None:
                mask |= 1 << e
    return EdgeSpectrum(n=n, r=r, mask=mask)


def member_witness(n: int, r: int, m: int) -> CliquePartition | None:
    """The lexicographically largest clique partition of n into at most r
    parts with edge sum m, or None when m is not in C(n, r).  It reads none
    of the DP, so it re-checks a spectrum by another route; n, r and the
    memory guard are checked as spectrum(n, r) checks them."""
    _guarded_caps(n, r)
    parts = clique_parts(n, m, r)
    if parts is None:
        return None
    return CliquePartition(parts=parts + (1,) * (n - sum(parts)), n=n)


class DensityReport(namedtuple("DensityReport",
                               "n r count density min_element max_element bounds_ok")):
    __slots__ = ()


def _bounds_ok(n: int, r: int, count: int, min_element: int) -> bool:
    # min element >= n^2/2r - n/2 and count <= n^2/2 - n^2/2r + 1,
    # checked in exact rational arithmetic (the +1 is forced by the
    # derivation max - min + 1; see module tests).
    min_ok = Fraction(2 * r) * min_element >= Fraction(n * n - n * r)
    count_ok = Fraction(2 * r) * (count - 1) <= Fraction(n * n * (r - 1))
    return bool(min_ok and count_ok)


def _density_report(n: int, r: int, mask: int) -> DensityReport:
    spec = EdgeSpectrum(n=n, r=r, mask=mask)
    count, min_el, denom = spec.count, spec.min_element, tri(n)
    return DensityReport(n=n, r=r, count=count, density=count / denom if denom else 1.0,
                         min_element=min_el, max_element=spec.max_element,
                         bounds_ok=_bounds_ok(n, r, count, min_el))


def density_and_bounds(n: int, r: int) -> DensityReport:
    """Cardinality, density and the two bound checks for C(n, r)."""
    return _density_report(n, r, spectrum(n, r).mask)


class IntervalReport(namedtuple("IntervalReport", "ok first_gap vacuous lo hi")):
    __slots__ = ()


def verify_interval(n: int, r: int, c_low: float, c_high: float, *, clip: bool = False) -> IntervalReport:
    """Check that every integer in [n^2/2r + c_low*n, (n^2-n)/2 - c_high*n^1.5]
    belongs to C(n, r); on failure report the smallest missing integer.

    An empty interval (including a negative upper endpoint) is vacuously
    true and flagged as such.  c_low and c_high must be finite; each is
    read as the decimal it prints as (0.1 is 1/10), an exact rational, so
    the endpoints are exact at any magnitude: with c_high = p/q,
    c_high * n^1.5 = +-sqrt(p^2 n^3)/q, and hi is tri(n) plus
    floor(sqrt(p^2 n^3)) // q or minus the least integer >= sqrt(p^2 n^3)/q.
    Nothing above tri(n) is in C(n, r), so the scan stops at tri(n) + 1
    (at lo, if that is higher).
    """
    import math

    _check_n_r(n, r)
    if not (math.isfinite(c_low) and math.isfinite(c_high)):
        raise ValueError(f"c_low and c_high must be finite, got {c_low} and {c_high}")
    lo = math.ceil(Fraction(n * n, 2 * r) + Fraction(repr(c_low)) * n)
    p, q = Fraction(repr(c_high)).as_integer_ratio()
    square = p * p * n ** 3  # (q c_high n^1.5)^2
    hi = tri(n) + (math.isqrt(square) if p < 0 else -ceil_sqrt(square)) // q
    spec = spectrum(n, r)
    if clip and spec.mask:
        lo = max(lo, spec.min_element)
        hi = min(hi, spec.max_element)
    if lo > hi:
        return IntervalReport(ok=True, first_gap=None, vacuous=True, lo=lo, hi=hi)
    lo = max(lo, 0)
    width = min(hi, max(lo, tri(n) + 1)) - lo + 1
    window = (spec.mask >> lo) & ((1 << width) - 1)
    missing = ~window & ((1 << width) - 1)
    if missing == 0:
        return IntervalReport(ok=True, first_gap=None, vacuous=False, lo=lo, hi=hi)
    gap = (missing & -missing).bit_length() - 1 + lo
    return IntervalReport(ok=False, first_gap=gap, vacuous=False, lo=lo, hi=hi)
