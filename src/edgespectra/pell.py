"""The x^2 - 7y^2 = -3 solution family and the derived pairs of density 1/2.

Solutions grow from the seed (2, 1) under (x, y) -> (8x + 21y, 3x + 8y);
at even generation indices x is even and y odd, which makes
t = y - 1 an even integer with 7t^2 + 14t + 4 a perfect square.  Each such
t yields a pair m = 5t + 2, f = tri(3t + 1) satisfying the three-identity
report of certify.triple_identity with minimal clique rank 2.

Everything here runs in exact big-integer arithmetic; t roughly
multiplies by a thousand per index.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from typing import Iterator

from .triangles import is_triple, realizes, tri, two_part_witness


class PellSolution(namedtuple("PellSolution", "x y k")):
    __slots__ = ()

    def __new__(cls, x: int, y: int, k: int):
        if x * x - 7 * y * y != -3:
            raise ValueError(f"({x}, {y}) does not satisfy x^2 - 7y^2 = -3")
        return tuple.__new__(cls, (x, y, k))


def _orbit() -> Iterator[tuple[int, int]]:
    """(x_0, y_0), (x_1, y_1), ... from seed (2, 1), unvalidated."""
    x, y = 2, 1
    while True:
        yield x, y
        x, y = 8 * x + 21 * y, 3 * x + 8 * y


def pell_solutions(k_max: int) -> list[PellSolution]:
    """Solutions (x_0, y_0) .. (x_k_max, y_k_max) from seed (2, 1)."""
    if k_max < 0:
        raise ValueError(f"need k_max >= 0, got {k_max}")
    return [PellSolution(x, y, k) for k, (x, y) in zip(range(k_max + 1), _orbit())]


class FamilyPair(namedtuple("FamilyPair", "k t m f a b c")):
    __slots__ = ()

    def __new__(cls, k: int, t: int, m: int, f: int, a: int, b: int, c: int):
        if m != 5 * t + 2 or f != tri(3 * t + 1):
            raise ValueError("pair does not match its parameter t")
        if not is_triple(m, f, a, b, c):
            raise ValueError("triple identity f = tri(a) = tri(m) - tri(b) = c(m - c) fails")
        return tuple.__new__(cls, (k, t, m, f, a, b, c))

    def triple_witness(self) -> tuple[int, int, int]:
        """Three clique sizes summing to m whose edge counts sum to f."""
        return (2 * self.t + 1, 2 * self.t + 1, self.t)


def family_pair(k: int) -> FamilyPair:
    """The k-th derived pair; k >= 1 (k = 0 degenerates to m = 2).  One
    walk of the orbit to index 2k keeps only the current solution, and only
    the one it returns is validated."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    sol = PellSolution(*next(islice(_orbit(), 2 * k, None)), 2 * k)
    if sol.x % 2 or sol.y % 2 == 0:
        raise AssertionError(f"index {2 * k}: expected x even and y odd, got {sol}")
    t = sol.y - 1
    m = 5 * t + 2
    return FamilyPair(
        k=k, t=t, m=m, f=tri(3 * t + 1),
        a=3 * t + 1, b=4 * t + 2, c=(m - sol.x) // 2,
    )


class ABCReport(namedtuple("ABCReport", "pair a_ok b_ok b_witness c_ok c_scanned")):
    """The (A), (B), (C) checks of a FamilyPair.  c_scanned counts the
    two-clique splits y1 in [1, m // 2] the (C) certificate covers: all
    m // 2 of them when (C) holds, else up to the smaller part of the hit."""

    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return self.a_ok and self.b_ok and self.c_ok


def verify_ABC(pair: FamilyPair) -> ABCReport:
    """Re-verify the three defining properties of a family pair:

    (A) the triple identity f = tri(a) = tri(m) - tri(b) = c(m - c);
    (B) an explicit three-clique representation;
    (C) no two-clique representation, certified by two_part_witness: the
        discriminant m^2 - 4(tri(m) - f) of its quadratic is not a perfect
        square with both roots >= 1.  Exact at every k.
    """
    m, f = pair.m, pair.f
    w = pair.triple_witness()
    hit = two_part_witness(m, f)
    return ABCReport(pair=pair, a_ok=is_triple(m, f, pair.a, pair.b, pair.c),
                     b_ok=min(w) >= 1 and realizes(w, m, f), b_witness=w,
                     c_ok=hit is None, c_scanned=m // 2 if hit is None else hit[1])
