"""Three-square machinery and the constructive 7-clique witness solver.

A non-negative integer is a sum of three squares exactly when stripping
every factor of 4 leaves a residue other than 7 mod 8.  witness7 uses that
fact to build, for an admissible (n, m), seven clique sizes summing to n
whose edge counts sum to m: three symmetric pairs t +- s_i around a pivot
t plus one remainder clique of n - 6t vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Optional

from .triangles import int_roots, tri


class PreconditionViolated(Exception):
    """m lies outside the admissible interval for the given n."""


class WindowExhausted(Exception):
    """No pivot in the 10-wide scan window satisfied every condition.

    This signals an implementation or transcription bug: the window is
    guaranteed to contain a good pivot.  It is never widened silently.
    """


class DescentBudgetExceeded(Exception):
    """three_square_decomp walked its whole budget of y-steps without
    finding a decomposition."""


#: y-steps one three_square_decomp descent may walk: about 0.5 s at v near
#: 10^18 and 0.9 s at 10^30 (2-core x86-64 VM; a step's isqrt grows with
#: v).  The most that any seeded v walked: 358,196 of 10,000 v <= 10^15,
#: 1,390,295 of 2,000 v <= 10^18, so every one of them is answered.
_DESCENT_STEPS = 2_000_000


def is_three_square(v: int) -> bool:
    """True iff v is x^2 + y^2 + z^2 for non-negative integers x, y, z."""
    if v < 0:
        raise ValueError(f"need v >= 0, got {v}")
    while v % 4 == 0 and v:
        v //= 4
    return v % 8 != 7


@dataclass(frozen=True)
class ThreeSquareDecomp:
    target: int
    x: int
    y: int
    z: int

    def __post_init__(self):
        if self.x * self.x + self.y * self.y + self.z * self.z != self.target:
            raise ValueError(f"{(self.x, self.y, self.z)} does not decompose {self.target}")
        if not self.x >= self.y >= self.z >= 0:
            raise ValueError(f"decomposition {(self.x, self.y, self.z)} not nonincreasing")


def three_square_decomp(v: int) -> Optional[ThreeSquareDecomp]:
    """A decomposition v = x^2 + y^2 + z^2 with x >= y >= z, or None.

    Deterministic: largest feasible x, then largest y.  The residue test
    short-circuits excluded values; for admissible v the descent always
    finds a witness, and a miss would surface as a None mismatching
    is_three_square in the cross-check suites.  A sum of three squares
    divisible by 4 has all three even, so every decomposition of 4u is
    twice one of u: the descent runs on v with its factors of 4 stripped,
    and its answer is scaled back.

    The descent's inner y-steps are charged to a budget of _DESCENT_STEPS;
    DescentBudgetExceeded is raised once it is spent, so a huge v is
    refused in bounded time: unbudgeted, 10^30 + 3 was not answered in 30 s.
    """
    if v < 0:
        raise ValueError(f"need v >= 0, got {v}")
    if not is_three_square(v):
        return None
    u, k = v, 0
    while u and u % 4 == 0:
        u, k = u // 4, k + 1
    left = _DESCENT_STEPS
    for x in range(isqrt(u), -1, -1):
        w = u - x * x
        if w > 2 * x * x:  # y, z <= x unreachable
            break
        y = min(x, isqrt(w))
        while 2 * y * y >= w:
            if not left:
                raise DescentBudgetExceeded(
                    f"three-square descent of v = {v} walked all {_DESCENT_STEPS} "
                    f"y-steps of its budget, down to x = {x}")
            left -= 1
            z2 = w - y * y
            z = isqrt(z2)
            if z * z == z2:
                return ThreeSquareDecomp(target=v, x=x << k, y=y << k, z=z << k)
            y -= 1
    return None


def bennett_search(y_limit: int) -> list[tuple[int, int]]:
    """All (x, y) with 2*tri(x) = tri(y^2), x >= 1 and 2 <= y <= y_limit.

    For each y the equation is a quadratic in x, so only integrality is
    checked.  y = 1 makes both sides vanish and is excluded as degenerate.
    """
    if y_limit < 2:
        raise ValueError(f"need y_limit >= 2, got {y_limit}")
    hits: list[tuple[int, int]] = []
    for y in range(2, y_limit + 1):
        # x(x-1) = y^2 (y^2 - 1) / 2; the larger root is the positive one
        roots = int_roots(1, -(y * y * (y * y - 1) // 2))
        if roots:
            hits.append((roots[1], y))
    return hits


@dataclass(frozen=True)
class Witness7:
    """Seven clique sizes realizing edge count m on n vertices."""

    n: int
    m: int
    t: int
    s1: int
    s2: int
    s3: int
    parts: tuple[int, int, int, int, int, int, int]
    window_index: int  # position of the accepted pivot in the scan window, 1-based
    t_anchor: int      # pivot congruent to -n mod 8 inside the window

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
        if any(not 0 <= q <= self.n for q in p):
            raise AssertionError("part outside [0, n]")
        if sum(p) != self.n:
            raise AssertionError("parts do not sum to n")
        if sum(tri(q) for q in p) != self.m:
            raise AssertionError("edge sum mismatch")
        ft = _f_of_t(self.t, self.m, self.n)
        if 2 * (self.s1 ** 2 + self.s2 ** 2 + self.s3 ** 2) != ft:
            raise AssertionError("offsets do not account for the even gap")

    def to_partition(self):
        from .cliquespec import CliquePartition

        return CliquePartition(parts=self.parts, n=self.n)


def r7_interval(n: int) -> tuple[int, int]:
    """Integer endpoints of the admissible m-interval for 7 cliques:
    [n^2/14 + n/2 + 2100, (n^2-n)/2 - 66 n^(3/2)], computed exactly."""
    lo = -(-(n * n + 7 * n + 29400) // 14)
    top = (n * n - n) // 2
    # largest m with (top - m)^2 >= 66^2 n^3, i.e. m <= top - 66 n^1.5
    hi = top - _ceil_mul_sqrt(66, n)
    return lo, hi


def _ceil_mul_sqrt(c: int, n: int) -> int:
    """ceil(c * n^(3/2)) in exact integer arithmetic."""
    val = c * c * n ** 3
    root = isqrt(val)
    return root if root * root == val else root + 1


def _f_of_t(t: int, m: int, n: int) -> int:
    return 2 * m + n - (n - 6 * t) ** 2 - 6 * t * t


def _find_t0(n: int, m: int) -> int:
    """Largest t with f(t) <= 0 < f(t+1), for m in r7_interval(n).  f rises
    from negative to positive on [0, n/7], so t0 is the floor of its smaller
    root (6n - sqrt(D))/42, D = 84m + 42n - 6n^2 > 0: (6n - s) // 42 with
    s = ceil(sqrt(D)), since 6n - s is an integer and sqrt(D) > s - 1."""
    s = isqrt(84 * m + 42 * n - 6 * n * n - 1) + 1  # ceil(sqrt(D)) for D >= 1
    return (6 * n - s) // 42


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
