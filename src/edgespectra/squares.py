"""Three-square machinery and the constructive 7-clique witness solver.

A non-negative integer is a sum of three squares exactly when stripping
every factor of 4 leaves a residue other than 7 mod 8.  three_square_decomp
finds the squares, walking each window of its descent with
triangles.first_square through a triangles.WalkBudget, which refuses a
descent that spends it by triangles.BudgetExceeded.  witness7 uses
the decomposition to build, for an admissible (n, m), seven clique sizes
summing to n whose edge counts sum to m: three symmetric pairs t +- s_i
around a pivot t plus one remainder clique of n - 6t vertices.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt
from typing import Optional

from .triangles import EdgespectraError, WalkBudget, ceil_sqrt, realizes


class PreconditionViolated(EdgespectraError):
    """m lies outside the admissible interval for the given n."""


class WindowExhausted(EdgespectraError):
    """No pivot in the 10-wide scan window satisfied every condition.

    This signals an implementation or transcription bug: the window is
    guaranteed to contain a good pivot.  It is never widened silently.
    """


#: y-steps one three_square_decomp descent may walk: 0.26 to 0.55 s (2-core
#: x86-64 VM; a step runs isqrt only past the square residues).  Every one
#: of 10,000 seeded v <= 10^15 (358,196 at most) and 2,000 v <= 10^18
#: (1,390,295) is answered; 10^30 + 3 and 729555738377712073, the one
#: refusal among 3,000 random v in [10^17, 10^18), spend it and are refused.
_DESCENT_STEPS = 2_000_000


def is_three_square(v: int) -> bool:
    """True iff v is x^2 + y^2 + z^2 for non-negative integers x, y, z."""
    if v < 0:
        raise ValueError(f"need v >= 0, got {v}")
    while v % 4 == 0 and v:
        v //= 4
    return v % 8 != 7


class ThreeSquareDecomp(namedtuple("ThreeSquareDecomp", "target x y z")):
    __slots__ = ()

    def __new__(cls, target: int, x: int, y: int, z: int):
        if x * x + y * y + z * z != target:
            raise ValueError(f"{(x, y, z)} does not decompose {target}")
        if not x >= y >= z >= 0:
            raise ValueError(f"decomposition {(x, y, z)} not nonincreasing")
        return tuple.__new__(cls, (target, x, y, z))


def three_square_decomp(v: int) -> Optional[ThreeSquareDecomp]:
    """A decomposition v = x^2 + y^2 + z^2 with x >= y >= z, or None.

    Deterministic: largest feasible x, then largest y.  A sum of three
    squares divisible by 4 has all three even, so the factors of 4 are
    stripped once, u = 8k + 7 is answered None, and the descent runs on u
    and scales its answer back; for admissible u it always finds a witness.
    For each x, triangles.first_square walks z^2 = w - y^2, w = u - x^2,
    for y from min(x, isqrt(w)) down to the least y with 2y^2 >= w.

    Each window is walked through one WalkBudget of _DESCENT_STEPS y-steps,
    and a window it cuts short without a hit raises BudgetExceeded, as
    the rank search's budget does, so a huge v is refused in bounded time:
    unbudgeted, 10^30 + 3 was not answered in 30 s.
    """
    if v < 0:
        raise ValueError(f"need v >= 0, got {v}")
    u, k = v, 0
    while u and u % 4 == 0:
        u, k = u // 4, k + 1
    if u % 8 == 7:
        return None
    budget = WalkBudget(_DESCENT_STEPS, lambda _: (
        f"three-square descent of v = {v} walked all {_DESCENT_STEPS} y-steps of its "
        f"budget, down to x = {x}"))  # x: the loop's, at the window cut short
    for x in range(isqrt(u), -1, -1):
        w = u - x * x
        if w > 2 * x * x:  # y, z <= x unreachable
            break
        y = x if x * x <= w else isqrt(w)  # min(x, isqrt(w)), without a call per x
        count = y - isqrt((w - 1) // 2) if w else 1  # y down to the least with 2y^2 >= w
        hit = budget.walk(w - y * y, 2 * y - 1, -2, count)
        if hit is not None:
            i, z = hit
            return ThreeSquareDecomp(target=v, x=x << k, y=(y - i) << k, z=z << k)
    return None


def bennett_search(y_limit: int) -> list[tuple[int, int]]:
    """All (x, y) with 2*tri(x) = tri(y^2), x >= 1 and 2 <= y <= y_limit.

    The equation is (2y^2 - 1)^2 - 2(2x - 1)^2 = -1, so u = 2y^2 - 1 and
    w = 2x - 1 solve u^2 - 2w^2 = -1, whose positive solutions are the odd
    powers u + w*sqrt(2) = (1 + sqrt(2))^(2k+1): (1, 1), (7, 5), (41, 29),
    ...  The search walks that orbit up to u = 2*y_limit^2 - 1, O(log
    y_limit) steps, and keeps each u with (u + 1)/2 a square.  y = 1
    (u = 1) makes both sides vanish and is excluded as degenerate.
    """
    if y_limit < 2:
        raise ValueError(f"need y_limit >= 2, got {y_limit}")
    hits: list[tuple[int, int]] = []
    u, w = 7, 5
    while u < 2 * y_limit * y_limit:
        y = isqrt((u + 1) // 2)
        if 2 * y * y == u + 1:
            hits.append(((w + 1) // 2, y))
        u, w = 3 * u + 4 * w, 2 * u + 3 * w
    return hits


class Witness7(namedtuple("Witness7", "n m t s1 s2 s3 parts window_index t_anchor")):
    """Seven clique sizes realizing edge count m on n vertices: parts, the
    pivot t and offsets s1..s3; window_index is the position of the
    accepted pivot in the scan window, 1-based, and t_anchor the pivot
    congruent to -n mod 8 inside the window."""

    __slots__ = ()

    def validate(self) -> None:
        p = self.parts
        expect = (
            self.t + self.s1, self.t - self.s1,
            self.t + self.s2, self.t - self.s2,
            self.t + self.s3, self.t - self.s3,
            self.n - 6 * self.t,
        )
        if p != expect:
            raise AssertionError("parts do not match pivot/offsets")
        if not realizes(p, self.n, self.m):
            raise AssertionError("parts do not realize m on n vertices")
        ft = _f_of_t(self.t, self.m, self.n)
        if 2 * (self.s1 ** 2 + self.s2 ** 2 + self.s3 ** 2) != ft:
            raise AssertionError("offsets do not account for the even gap")


def r7_interval(n: int) -> tuple[int, int]:
    """Integer endpoints of the admissible m-interval for 7 cliques:
    [n^2/14 + n/2 + 2100, (n^2-n)/2 - 66 n^(3/2)], computed exactly."""
    lo = -(-(n * n + 7 * n + 29400) // 14)
    top = (n * n - n) // 2
    # largest m with (top - m)^2 >= 66^2 n^3, i.e. m <= top - 66 n^1.5
    hi = top - ceil_sqrt(66 * 66 * n ** 3)
    return lo, hi


def _f_of_t(t: int, m: int, n: int) -> int:
    return 2 * m + n - (n - 6 * t) ** 2 - 6 * t * t


def _find_t0(n: int, m: int) -> int:
    """Largest t with f(t) <= 0 < f(t+1), for m in r7_interval(n).  f rises
    from negative to positive on [0, n/7], so t0 is the floor of its smaller
    root (6n - sqrt(D))/42, D = 84m + 42n - 6n^2 > 0: (6n - s) // 42 with
    s = ceil(sqrt(D)), since 6n - s is an integer and sqrt(D) > s - 1."""
    return (6 * n - ceil_sqrt(84 * m + 42 * n - 6 * n * n)) // 42


_BAD_RESIDUES = frozenset({0, 7, 12, 15})


def witness7(n: int, m: int) -> Witness7:
    """Constructive membership certificate for m among unions of at most
    seven cliques on n vertices, valid for m inside r7_interval(n).

    Scans the ten pivots above the sign change t0 (in closed form) of
    f(t) = 2m + n - (n-6t)^2 - 6t^2 for one where f(t)/2 is positive,
    small enough, clears the mod-16 residue filter and is a sum of three
    squares; the witness is rebuilt from the three-square decomposition
    and always re-validated by substitution.  It keeps no state
    between calls, so a campaign's rows depend only on its samples.
    """
    lo, hi = r7_interval(n)
    if lo > hi:
        raise PreconditionViolated(f"admissible interval for n={n} is empty")
    if not lo <= m <= hi:
        raise PreconditionViolated(f"m={m} outside [{lo}, {hi}] for n={n}")

    t0 = _find_t0(n, m)
    t_anchor = t0 + 1 + (-(t0 + 1 + n)) % 8
    for idx, t in enumerate(range(t0 + 1, t0 + 11), start=1):
        if 6 * t > n:
            continue
        ft = _f_of_t(t, m, n)
        if not 0 < ft <= t * t:
            continue
        if ft % 2:
            continue
        half = ft // 2
        if half % 16 in _BAD_RESIDUES:
            continue
        dec = three_square_decomp(half)
        if dec is None:
            continue
        s1, s2, s3 = dec.x, dec.y, dec.z
        parts = (t + s1, t - s1, t + s2, t - s2, t + s3, t - s3, n - 6 * t)
        wit = Witness7(
            n=n, m=m, t=t, s1=s1, s2=s2, s3=s3, parts=parts,
            window_index=idx, t_anchor=t_anchor,
        )
        wit.validate()
        return wit
    raise WindowExhausted(f"no admissible pivot in [{t0 + 1}, {t0 + 10}] for n={n}, m={m}")
