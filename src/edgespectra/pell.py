"""The x^2 - 7y^2 = -3 solution family and the derived pairs of density 1/2.

Solutions grow from the seed (2, 1) under (x, y) -> (8x + 21y, 3x + 8y);
at even generation indices x is even and y odd, which makes
t = y - 1 an even integer with 7t^2 + 14t + 4 a perfect square.  Each such
t yields a pair m = 5t + 2, f = tri(3t + 1) satisfying the three-identity
report of certify.triple_identity with minimal clique rank 2.

Everything here runs in exact big-integer arithmetic; t roughly
multiplies by a thousand per index.  A k or k_max above _MAX_K is refused
by triangles.BudgetExceeded before any walk of the orbit (_check_k).
family_pair(k) validates the one pair it returns; family_pairs(k_max),
the abc table's rows, validates every pair of one walk.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from typing import Iterator

from .triangles import BudgetExceeded, is_triple, realizes, tri, two_part_witness

# The largest k and k_max the family calls take.  The orbit's ints gain
# about 1.2 digits a step, so family_pair(k) walks in time quadratic in k
# (2 ms at k = 1000, 0.2 s at 10^4), pell_solutions(k_max) validates k_max
# solutions (8 ms at 1000, 5 s at 10^4), and the abc table, family_pairs'
# one walk to index 2 k_max and verify_ABC on each of its k_max pairs, took
# 0.07 s at k_max = 500, 0.29-0.31 s at 1000 and 1.7 s at 2000 (2-core
# x86-64 VM, Python 3.11).
_MAX_K = 1000


class PellSolution(namedtuple("PellSolution", "x y k")):
    __slots__ = ()

    def __new__(cls, x: int, y: int, k: int):
        if x * x - 7 * y * y != -3:
            raise ValueError(f"({x}, {y}) does not satisfy x^2 - 7y^2 = -3")
        return tuple.__new__(cls, (x, y, k))


def _check_k(k: int) -> None:
    """BudgetExceeded when the index k, or a table's k_max, exceeds _MAX_K."""
    if k > _MAX_K:
        raise BudgetExceeded(f"Pell family index {k} exceeds cap {_MAX_K}")


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
    _check_k(k_max)
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


def _family_pair(k: int, x: int, y: int) -> FamilyPair:
    """The k-th derived pair from the orbit's solution (x, y) at index 2k,
    validated."""
    sol = PellSolution(x, y, 2 * k)
    if sol.x % 2 or sol.y % 2 == 0:
        raise AssertionError(f"index {2 * k}: expected x even and y odd, got {sol}")
    t = sol.y - 1
    m = 5 * t + 2
    return FamilyPair(
        k=k, t=t, m=m, f=tri(3 * t + 1),
        a=3 * t + 1, b=4 * t + 2, c=(m - sol.x) // 2,
    )


def family_pair(k: int) -> FamilyPair:
    """The k-th derived pair; k >= 1 (k = 0 degenerates to m = 2).  One
    walk of the orbit to index 2k keeps only the current solution, and only
    the one it returns is validated."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    _check_k(k)
    return _family_pair(k, *next(islice(_orbit(), 2 * k, None)))


def family_pairs(k_max: int) -> list[FamilyPair]:
    """The derived pairs k = 1..k_max, each built and validated as
    family_pair(k) builds it, from one walk of the orbit to index 2 k_max."""
    if k_max < 1:  # an empty table would certify nothing
        raise ValueError(f"need k-max >= 1, got {k_max}")
    _check_k(k_max)
    walk = islice(_orbit(), 2, 2 * k_max + 1, 2)  # indices 2, 4, .., 2 k_max
    return [_family_pair(k, x, y) for k, (x, y) in enumerate(walk, 1)]


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
