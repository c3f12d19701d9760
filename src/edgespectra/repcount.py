"""Representation counts for membership among unions of five cliques.

A 4-tuple of coordinates 1 <= x_i <= N with x_1+..+x_4 <= sum_cap places
one tuple of weight at m = tri(x_1)+..+tri(x_4) + tri(n - sum), which by
the quadratic identity equals (Q(x) - n)/2 for
Q(x) = x_1^2+..+x_4^2 + (x_1+..+x_4 - n)^2.  Any m with a positive count
is therefore realizable by five cliques on n vertices.

The histogram is accumulated over sorted tuples with permutation
multiplicities, read by tie pattern from a table; the tests compare it
against a plain 4-loop count.  Every count is a Python int, so the
histogram is exact at any size, and the record compares and hashes by
value like every other record of the package.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import combinations_with_replacement
from typing import Optional

from .triangles import EdgespectraError, check_cap, tri

_MAX_TUPLES = 50_000_000
# Peak memory of a histogram, charged to the memory cap of triangles before
# it is built: per cell, a pointer in the list that is filled and one in the
# tuple copied from it; per cell whose count exceeds 256, the largest cached
# small int, one int object.  Measured as peak RSS above the import: 16.0
# bytes a cell at N = 3 for n = 1000 to 3000, where no count exceeds 256,
# and 31.6 bytes more for each count above 256 at n = 500 to 900, N = 120
# to 150.
_CELL_BYTES = 16
_INT_BYTES = 32


class TupleBudgetExceeded(EdgespectraError):
    """The sorted-tuple iteration estimate exceeds the resource guard."""


class RepHistogram(namedtuple("RepHistogram", "n N sum_cap counts")):
    """counts, a tuple of ints, holds at index m the number of ordered
    tuples at m; repr leaves it out."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"RepHistogram(n={self.n!r}, N={self.N!r}, sum_cap={self.sum_cap!r})"

    def support(self) -> tuple[int, ...]:
        """The m with a positive count, increasing."""
        return tuple(m for m, _ in self.csv_rows())

    @property
    def total_tuples(self) -> int:
        return sum(self.counts)

    def csv_rows(self):
        return ((m, c) for m, c in enumerate(self.counts) if c)

    def summary(self) -> dict:
        return {"n": self.n, "N": self.N, "sum_cap": self.sum_cap,
                "support_size": len(self.counts) - self.counts.count(0),
                "total_tuples": self.total_tuples}


#: The orderings of a sorted 4-tuple (a, b, c, d), 4! over the factorials of
#: its tie sizes, by tie pattern (a == b) << 2 | (b == c) << 1 | (c == d).
_TIE_WEIGHTS = (24, 12, 12, 4, 12, 6, 4, 1)


def _sum_cap(n: int, sum_cap: Optional[int]) -> int:
    """sum_cap, n by default, checked to lie in [0, n]."""
    sum_cap = n if sum_cap is None else sum_cap
    if not 0 <= sum_cap <= n:
        raise ValueError(f"need 0 <= sum_cap <= n={n}, got sum_cap={sum_cap}")
    return sum_cap


def rep_histogram(n: int, N: int, sum_cap: Optional[int] = None) -> RepHistogram:
    """Counts of ordered 4-tuples per realized edge count m.  The histogram's
    tri(n) + 1 cells, and its counts above 256, at most one per 257 of the
    24 * C(N + 3, 4) ordered tuples, are charged to the memory cap of
    triangles first: SpectrumMemoryError above it."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    sum_cap = _sum_cap(n, sum_cap)
    estimate = math.comb(N + 3, 4)
    if estimate > _MAX_TUPLES:
        raise TupleBudgetExceeded(f"~{estimate} sorted tuples exceeds cap {_MAX_TUPLES}")
    cells, big = tri(n) + 1, 24 * estimate // 257  # a count above 256 takes 257 ordered tuples
    check_cap(8 * (_CELL_BYTES * cells + _INT_BYTES * min(cells, big)), "histogram cells")
    counts = [0] * cells
    tris = [tri(x) for x in range(n + 1)]  # every part and n - s of a kept tuple is <= n
    for a, b, c, d in combinations_with_replacement(range(1, N + 1), 4):
        s = a + b + c + d
        if s > sum_cap:
            continue
        m = tris[a] + tris[b] + tris[c] + tris[d] + tris[n - s]
        counts[m] += _TIE_WEIGHTS[(a == b) << 2 | (b == c) << 1 | (c == d)]
    return RepHistogram(n=n, N=N, sum_cap=sum_cap, counts=tuple(counts))


class ExceptionalReport(namedtuple("ExceptionalReport",
                                   "n N sum_cap lo hi zeros total range_empty log_base",
                                   defaults=(None,))):
    __slots__ = ()

    @property
    def fraction(self) -> float:
        return self.zeros / self.total if self.total else 0.0

    def as_dict(self) -> dict:
        return {"n": self.n, "N": self.N, "sum_cap": self.sum_cap,
                "zeros_in_range": self.zeros, "range": [self.lo, self.hi],
                "total": self.total, "fraction": self.fraction,
                "range_empty": self.range_empty, "log_base": self.log_base}


def exceptional_count(
    n: int,
    N: Optional[int] = None,
    lo_margin: float = 0.0,
    hi_margin: float = 0.0,
    sum_cap: Optional[int] = None,
    *,
    asymptotic: bool = False,
) -> ExceptionalReport:
    """Count scan-range values m with no representation.

    The scan range is [n^2/10 + lo_margin, (n^2-n)/2 - hi_margin], clamped
    to the edge counts [0, tri(n)]; the report's range and total are those
    of the clamped window.  With
    asymptotic=True (n >= 2) the margins become n^2/log(n) and the coordinate
    cap n/5 - n/log(n), with natural logarithm (recorded in the report),
    so an explicit N or a nonzero margin is then a ValueError; that
    asymptotic regime degenerates for small and moderate n and may produce
    an empty range or coordinate cap, or a range wholly below the smallest
    reachable m, which is flagged as an empty range rather than hidden.
    """
    if not (math.isfinite(lo_margin) and math.isfinite(hi_margin)):
        raise ValueError(f"margins must be finite, got {lo_margin} and {hi_margin}")
    log_base = None
    if asymptotic:
        if N is not None or lo_margin or hi_margin:
            raise ValueError(f"asymptotic mode sets N and the margins itself; got N={N}, "
                             f"lo_margin={lo_margin}, hi_margin={hi_margin}")
        if n < 2:
            raise ValueError(f"the asymptotic margins divide by log(n); need n >= 2, got {n}")
        log_base = "e"
        lo_margin = hi_margin = n * n / math.log(n)
        N = math.floor(n / 5 - n / math.log(n))
        if N < 1:
            return ExceptionalReport(n=n, N=N, sum_cap=_sum_cap(n, sum_cap), lo=0, hi=-1,
                                     zeros=0, total=0, range_empty=True, log_base=log_base)
    if N is None:
        N = n // 5
    hist = rep_histogram(n, N, sum_cap)
    # the window never leaves the edge counts [0, tri(n)] that hist covers
    lo = max(0, math.ceil(n * n / 10 + lo_margin))
    hi = min(tri(n), math.floor((n * n - n) / 2 - hi_margin))
    # the asymptotic cap N keeps every reachable m at or above tri(n - 4N),
    # which at moderate n lies above the whole range: that range is flagged
    # empty instead of counting every value a zero
    if lo > hi or (asymptotic and not any(hist.counts[:hi + 1])):
        return ExceptionalReport(n=n, N=N, sum_cap=hist.sum_cap, lo=lo, hi=hi,
                                 zeros=0, total=0, range_empty=True, log_base=log_base)
    return ExceptionalReport(n=n, N=N, sum_cap=hist.sum_cap, lo=lo, hi=hi,
                             zeros=hist.counts[lo:hi + 1].count(0), total=hi - lo + 1,
                             range_empty=False, log_base=log_base)
