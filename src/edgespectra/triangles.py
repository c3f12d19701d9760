"""Triangular-number arithmetic and the two canonical decompositions of an edge count.

Every clique on x vertices spans tri(x) = x(x-1)/2 edges, so sums and
differences of triangular numbers are the basic currency of everything in
this package.  The two decompositions expose an edge count f either as
"largest triangular number below, plus excess" or as "smallest triangular
number above, minus deficit"; both are unique in the stated ranges.
clique_parts splits an edge count over a partition of the vertices, and
first_square finds the first perfect square along a quadratic sequence;
WalkBudget is the one step budget every bounded search walks it under.
check_cap is the one memory cap beside it: every table, list or tuple
the package would build past a size the caller picks is charged here
first, in bits, against EDGESPECTRA_MAX_TABLE_BITS, and refused by
SpectrumMemoryError before it is built.

Two certificates are stated here once, for every check in the package to
read: realizes, a clique partition of an edge count, and is_triple, the
triple identity of the special pairs.  EdgespectraError, the base of
every named failure the package raises, is defined here too.  This
module imports only the standard library, so a checker can import it
alone.
"""

from __future__ import annotations

import os
from collections import namedtuple
from math import isqrt
from typing import Callable


class EdgespectraError(Exception):
    """Base of every named package failure: a guard or budget that refuses
    a call, or an input outside a routine's proven range."""


class SpectrumMemoryError(EdgespectraError):
    """A table, list or tuple a call would build exceeds the memory cap."""


ENV_MAX_TABLE_BITS = "EDGESPECTRA_MAX_TABLE_BITS"
_DEFAULT_MAX_TABLE_BITS = 8_000_000_000  # ~1 GB of row storage


def check_cap(bits: int, what: str) -> None:
    """SpectrumMemoryError, naming what, when bits exceeds the memory cap:
    EDGESPECTRA_MAX_TABLE_BITS if set, else _DEFAULT_MAX_TABLE_BITS."""
    env = os.environ.get(ENV_MAX_TABLE_BITS)
    limit = int(env) if env else _DEFAULT_MAX_TABLE_BITS
    if bits > limit:
        raise SpectrumMemoryError(
            f"{what} need ~{bits} bits, cap is {limit} (raise via {ENV_MAX_TABLE_BITS})")


def tri(x: int) -> int:
    """Edge count of a clique on x vertices: x(x-1)/2."""
    return x * (x - 1) // 2


def realizes(parts: tuple[int, ...], v: int, g: int) -> bool:
    """Whether the parts, each >= 0, sum to v and their cliques span g edges."""
    return all(p >= 0 for p in parts) and sum(parts) == v and sum(tri(p) for p in parts) == g


def is_triple(m: int, g: int, a: int, b: int, c: int) -> bool:
    """Whether g = tri(a) = tri(m) - tri(b) = c(m - c)."""
    return g == tri(a) == tri(m) - tri(b) == c * (m - c)


def int_roots(p: int, q: int) -> tuple[int, ...]:
    """Both roots of x^2 - p*x + q in ascending order when they are
    integers (a double root is listed twice), else ().

    The polynomial is monic, so its roots are integers exactly when the
    discriminant p^2 - 4q is a perfect square; isqrt keeps this exact at
    any size.
    """
    disc = p * p - 4 * q
    if disc < 0:
        return ()
    s = isqrt(disc)
    if s * s != disc:
        return ()
    return ((p - s) // 2, (p + s) // 2)


def ceil_sqrt(n: int) -> int:
    """The least s >= 0 with s^2 >= n."""
    return isqrt(n - 1) + 1 if n > 0 else 0


#: Which residues mod 64 and mod 63 a square can leave: d passes both only
#: when it may be a square, about 1 value in 21, and only then is isqrt run.
_SQUARE_MOD64 = bytes(r in {i * i % 64 for i in range(64)} for r in range(64))
_SQUARE_MOD63 = bytes(r in {i * i % 63 for i in range(63)} for r in range(63))


def first_square(d: int, step: int, turn: int, count: int) -> tuple[int, int] | None:
    """(i, s) for the least 0 <= i < count at which d_i = s^2, where d_0 = d
    and d_(i+1) - d_i = step + i * turn; None if there is none.  The caller
    keeps those d_i >= 0.  Only a term that passes both residue tables
    goes to isqrt."""
    for i in range(count):
        if _SQUARE_MOD64[d & 63] and _SQUARE_MOD63[d % 63]:
            s = isqrt(d)
            if s * s == d:
                return i, s
        d += step
        step += turn
    return None


class WalkBudget:
    """Steps left and windows walked of one bounded search; refusal(self)
    is the search's named failure when the budget cuts a window short."""

    __slots__ = ("left", "walks", "refusal")

    def __init__(self, steps: int, refusal: Callable[[WalkBudget], EdgespectraError]):
        self.left, self.walks, self.refusal = steps, 0, refusal

    def walk(self, d: int, step: int, turn: int, count: int) -> tuple[int, int] | None:
        """first_square over the part of the window the budget covers,
        charged i + 1 for a hit at term i, the whole window for a miss; a
        miss the budget cut short raises refusal(self)."""
        self.walks += 1
        cap = count if count < self.left else self.left
        hit = first_square(d, step, turn, cap)
        self.left -= cap if hit is None else hit[0] + 1
        if hit is None and cap < count:
            raise self.refusal(self)
        return hit


def tri_root(f: int) -> int | None:
    """The x >= 1 with tri(x) == f, or None when f is not triangular.

    tri(1) = tri(0) = 0; the root is reported as 1 so that it always
    describes a usable (non-empty) clique.
    """
    roots = int_roots(1, -2 * f)  # tri(x) = f  <=>  x^2 - x - 2f = 0
    return roots[1] if roots else None


def tri_floor_root(f: int) -> int:
    """The largest x >= 1 with tri(x) <= f, for f >= 0.

    tri(x) <= f  <=>  (2x - 1)^2 <= 1 + 8f, so x = (1 + isqrt(1 + 8f)) // 2.
    """
    return (1 + isqrt(1 + 8 * f)) // 2


def min_clique_edges(v: int, j: int) -> int:
    """The fewest edges j >= 1 cliques on v vertices in all can span: the
    balanced partition's, the only one this few, as tri is strictly convex."""
    q, rem = divmod(v, j)
    return (j - rem) * tri(q) + rem * tri(q + 1)


def two_part_witness(m: int, f: int) -> tuple[int, int] | None:
    """(x, m-x) with tri(x) + tri(m-x) = f and both parts >= 1, else None."""
    # tri(x) + tri(m-x) = f  <=>  x^2 - m*x + (tri(m) - f) = 0; the roots are the parts
    roots = int_roots(m, tri(m) - f)
    if roots and roots[0] >= 1:
        return (roots[1], roots[0])
    return None


# Peak memory per part of a balanced partition that clique_parts lists (the
# two runs of equal parts and their concatenation), charged to the memory
# cap before it is built.  Measured as peak RSS above the call for
# m = 3 * 10^6 to 1.2 * 10^7 at k = m/3 + 7: 16.0 bytes a part.
_PART_BYTES = 16


def clique_parts(v: int, g: int, k: int,
                 triple: Callable[[int, int], tuple[int, ...] | None] | None = None
                 ) -> tuple[int, ...] | None:
    """The parts >= 2, nonincreasing, of the lexicographically largest
    partition of v >= 0 into at most k >= 1 parts whose cliques span g
    edges, or None.  The rest of v is singletons, never listed, so v may
    be far too large for a tuple of v parts.

    The deficit d = tri(v) - g is sum_{i<j} a_i a_j >= (v^2 - a v) / 2 for
    the largest part a, so a >= v - 2d/v; also a >= v/k.  From above,
    tri(a) <= g, and the rest spans at least min_clique_edges(v - a, k - 1)
    >= ((v - a)^2/(k - 1) - (v - a))/2 edges, so a^2 + (v - a)^2/(k - 1)
    <= 2g + v.  Each a between is tried, largest first, on the rest
    (v - a, g - tri(a), k - 1), so the first that succeeds is the largest
    part of any such partition, and no part of its rest exceeds a.  The
    balanced partition, the only one with min_clique_edges(v, k) edges, is
    returned at once, its parts charged to check_cap first ("clique parts",
    SpectrumMemoryError above the cap), and k = 2 is two_part_witness.  The
    failed keys, with k past v taken as v, are remembered for the rest of
    the call.

    With triple given, the k = 3 step is triple(v, g), three parts that
    the caller picks (min_r_witness: the smallest smallest part), or
    two_part_witness's when it returns None.  Where v has no partition
    into fewer than k parts, the parts above that step are still the
    lexicographically largest, and by the argument above none of the
    step's parts exceeds the part above it.
    """
    if v < 0 or k < 1:
        raise ValueError(f"need v >= 0 and k >= 1, got v={v}, k={k}")
    failed: set[tuple[int, int, int]] = set()

    def search(v: int, g: int, k: int) -> tuple[int, ...] | None:
        k = min(k, v)  # more parts than vertices only adds empty ones
        if g <= 0:
            return () if g == 0 and k == v else None
        d = tri(v) - g
        if d < 0 or g < (fewest := min_clique_edges(v, k)) or (v, g, k) in failed:
            return None
        if d == 0:  # one part; with k = 1 no other g gets here
            return (v,)
        if g == fewest:  # the balanced partition; q = 1 leaves singletons
            q, rem = divmod(v, k)
            check_cap(8 * _PART_BYTES * (k if q > 1 else rem), "clique parts")
            return (q + 1,) * rem + (q,) * (k - rem) if q > 1 else (2,) * rem
        if k == 2 or (k == 3 and triple is not None):
            w = (triple(v, g) if k == 3 else None) or two_part_witness(v, g)
            return None if w is None else tuple(p for p in w if p > 1)
        j = k - 1  # the larger root of j a^2 + (v - a)^2 = j (2g + v), floored
        top = min(v, tri_floor_root(g), (v + isqrt(j * (k * (2 * g + v) - v * v))) // k)
        for a in range(top, max(-(-v // k), v - 2 * d // v) - 1, -1):
            rest = search(v - a, g - tri(a), k - 1)
            if rest is not None:
                return (a,) + rest
        failed.add((v, g, k))
        return None

    return search(v, g, k)


class UpperDecomp(namedtuple("UpperDecomp", "ell ellp")):
    """f = tri(ell) + ellp with 0 <= ellp < ell."""

    __slots__ = ()


class LowerDecomp(namedtuple("LowerDecomp", "b bp")):
    """f = tri(b) - bp with 0 <= bp < b - 1."""

    __slots__ = ()


def decompose_upper(f: int) -> UpperDecomp:
    """Unique (ell, ellp) with f = tri(ell) + ellp and 0 <= ellp < ell.

    f = 0 yields (1, 0): the largest x with tri(x) <= 0 is taken as 1.
    """
    if f < 0:
        raise ValueError(f"edge count must be non-negative, got {f}")
    ell = tri_floor_root(f)
    return UpperDecomp(ell, f - tri(ell))


def decompose_lower(f: int) -> LowerDecomp:
    """Unique (b, bp) with f = tri(b) - bp and 0 <= bp < b - 1.

    Requires f >= 1: for f = 0 no pair satisfies the range constraint, so
    the value is rejected rather than given an artificial convention.
    """
    if f < 1:
        raise ValueError(f"decompose_lower needs f >= 1, got {f}")
    b = tri_floor_root(f)
    if tri(b) < f:
        b += 1
    dec = LowerDecomp(b, tri(b) - f)
    assert 0 <= dec.bp < dec.b - 1
    return dec
