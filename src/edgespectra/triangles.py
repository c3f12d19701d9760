"""Triangular-number arithmetic and the two canonical decompositions of an edge count.

Every clique on x vertices spans tri(x) = x(x-1)/2 edges, so sums and
differences of triangular numbers are the basic currency of everything in
this package.  The two decompositions expose an edge count f either as
"largest triangular number below, plus excess" or as "smallest triangular
number above, minus deficit"; both are unique in the stated ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt


def tri(x: int) -> int:
    """Edge count of a clique on x vertices: x(x-1)/2."""
    return x * (x - 1) // 2


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


@dataclass(frozen=True)
class UpperDecomp:
    """f = tri(ell) + ellp with 0 <= ellp < ell."""

    ell: int
    ellp: int

    def value(self) -> int:
        return tri(self.ell) + self.ellp


@dataclass(frozen=True)
class LowerDecomp:
    """f = tri(b) - bp with 0 <= bp < b - 1."""

    b: int
    bp: int

    def value(self) -> int:
        return tri(self.b) - self.bp


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
