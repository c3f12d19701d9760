import math
import random
import time

import numpy as np
import pytest

from edgespectra import squares
from edgespectra.cliquespec import CliquePartition
from edgespectra.squares import (
    DescentBudgetExceeded,
    PreconditionViolated,
    WindowExhausted,
    bennett_search,
    is_three_square,
    r7_interval,
    three_square_decomp,
    witness7,
)
from edgespectra.triangles import tri
from oracles import bennett_search_scan, three_square_decomp_descent, witness7_linear_t0


def sieve_three_squares(limit):
    """Independent oracle: mark all sums of three squares by enumeration."""
    roots = np.arange(int(limit ** 0.5) + 1, dtype=np.int64)
    sq = roots * roots
    two = np.zeros(limit + 1, dtype=bool)
    for a2 in sq:
        rest = sq[sq <= limit - a2]
        two[a2 + rest] = True
    three = np.zeros(limit + 1, dtype=bool)
    for a2 in sq:
        if a2 > limit:
            break
        three[a2:] |= two[:limit + 1 - a2]
    return three


def test_membership_examples():
    assert is_three_square(7) is False
    assert is_three_square(0) is True
    assert is_three_square(28) is False  # 4 * 7
    assert is_three_square(33) is True


def test_decomp_examples():
    d = three_square_decomp(33)
    assert (d.x, d.y, d.z) == (5, 2, 2)
    d = three_square_decomp(1)
    assert (d.x, d.y, d.z) == (1, 0, 0)
    assert three_square_decomp(7) is None
    d = three_square_decomp(0)
    assert (d.x, d.y, d.z) == (0, 0, 0)


def test_decomp_strips_factors_of_four(monkeypatch):
    # the three squares of 4u are all even, so 4^k u is answered by 2^k
    # times u's triple after u's own descent, and 2 * 4^40 stays instant
    roots = []
    monkeypatch.setattr(squares, "isqrt", lambda n: roots.append(n) or math.isqrt(n))
    for u in (1, 2, 3, 5, 6, 33, 1000, 12345):
        roots.clear()
        d = three_square_decomp(u)
        steps = len(roots)
        for k in (1, 3, 8):
            roots.clear()
            w = three_square_decomp(4 ** k * u)
            assert (w.x, w.y, w.z) == (d.x << k, d.y << k, d.z << k), (u, k)
            assert len(roots) == steps, (u, k)
    d = three_square_decomp(2 * 4 ** 40)
    assert (d.x, d.y, d.z) == (2 ** 40, 2 ** 40, 0)


def test_decomp_budget_refuses_huge_v():
    # unbudgeted, the descent of 10^30 + 3 did not return in 30 s
    start = time.perf_counter()
    with pytest.raises(DescentBudgetExceeded,
                       match=f"walked all {squares._DESCENT_STEPS} y-steps"):
        three_square_decomp(10 ** 30 + 3)
    assert time.perf_counter() - start < 10


def test_decomp_budget_counts_inner_steps(monkeypatch):
    # 935332294 is decomposed on its 352nd y-step: a budget of 352 answers
    # it unchanged, one of 351 refuses it
    want = three_square_decomp(935332294)
    monkeypatch.setattr(squares, "_DESCENT_STEPS", 352)
    assert three_square_decomp(935332294) == want
    monkeypatch.setattr(squares, "_DESCENT_STEPS", 351)
    with pytest.raises(DescentBudgetExceeded, match="walked all 351 y-steps"):
        three_square_decomp(935332294)


def _descent_outcome(decomp, v):
    try:
        return decomp(v)
    except DescentBudgetExceeded as exc:
        return str(exc)


def test_decomp_matches_descent_oracle(monkeypatch):
    # the per-window budget refuses exactly where the per-step one did, at
    # the same x and with the same message, and answers alike elsewhere
    for v in range(30_001):
        assert three_square_decomp(v) == three_square_decomp_descent(v), v
    rng = random.Random(28)
    seeded = [rng.randrange(10 ** e) for e in (6, 9, 12, 15, 18) for _ in range(40)]
    fours = [4 ** k * rng.randrange(1, 10 ** 9) for k in (1, 2, 5, 13, 30) for _ in range(8)]
    for v in seeded + fours:
        assert three_square_decomp(v) == three_square_decomp_descent(v), v
    small = range(0, 30_001, 97)
    for steps in (1, 2, 5, 37, 351, 352, 1000):
        monkeypatch.setattr(squares, "_DESCENT_STEPS", steps)
        for v in [*small, *seeded, *fours, 935332294]:
            assert (_descent_outcome(three_square_decomp, v)
                    == _descent_outcome(three_square_decomp_descent, v)), (steps, v)
    # 19: x = 4 leaves w = 3, whose y-window is empty and charges nothing,
    # so one step answers it at x = 3
    monkeypatch.setattr(squares, "_DESCENT_STEPS", 1)
    d = three_square_decomp(19)
    assert (d.x, d.y, d.z) == (3, 3, 1)


def test_formula_matches_sieve():
    limit = 20_000
    oracle = sieve_three_squares(limit)
    for v in range(limit + 1):
        assert is_three_square(v) == bool(oracle[v]), v


def test_decomp_matches_formula():
    for v in range(20_001):
        d = three_square_decomp(v)
        assert (d is not None) == is_three_square(v), v
        if d is not None:
            assert d.x >= d.y >= d.z >= 0
            assert d.x ** 2 + d.y ** 2 + d.z ** 2 == v


def test_bennett_examples():
    assert bennett_search(2) == [(3, 2)]
    assert bennett_search(3) == [(3, 2)]
    assert bennett_search(1000) == [(3, 2)]
    for x, y in bennett_search(100):
        assert 2 * tri(x) == tri(y * y)


def test_bennett_prefix_property():
    prev = []
    for y_limit in (2, 10, 50, 200, 1000):
        cur = bennett_search(y_limit)
        assert cur[: len(prev)] == prev
        prev = cur


def test_bennett_orbit_matches_scan():
    # the scan's hits at a limit are its hits at 10^4 up to that limit,
    # as it appends them in y order
    hits = bennett_search_scan(10 ** 4)
    assert hits == [(3, 2)]
    for y_limit in range(2, 10 ** 4 + 1):
        assert bennett_search(y_limit) == [h for h in hits if h[1] <= y_limit], y_limit


def test_bennett_rejects_tiny_limit():
    with pytest.raises(ValueError):
        bennett_search(1)


def test_r7_interval_exact():
    lo, hi = r7_interval(30000)
    assert lo == 64302815 == -(-(30000 ** 2 + 7 * 30000 + 29400) // 14)
    # hi is the largest m with ((n^2-n)/2 - m)^2 >= 66^2 n^3
    top = (30000 ** 2 - 30000) // 2
    assert (top - hi) ** 2 >= 66 ** 2 * 30000 ** 3 > (top - hi - 1) ** 2


def test_r7_interval_empty_for_small_n():
    for n in (10, 300, 1000, 20000):
        lo, hi = r7_interval(n)
        assert lo > hi, n


def test_witness7_example():
    w = witness7(30000, 100_000_000)
    w.validate()
    assert sum(w.parts) == 30000
    assert sum(tri(p) for p in w.parts) == 100_000_000
    assert len(w.parts) == 7
    assert CliquePartition(parts=w.parts, n=30000).realizes(30000, 7, 100_000_000)


def test_witness7_preconditions():
    n = 30000
    with pytest.raises(PreconditionViolated):
        witness7(n, (n * n - n) // 2)  # complete-graph edge count, above the window
    with pytest.raises(PreconditionViolated):
        witness7(n, 10)
    with pytest.raises(PreconditionViolated):
        witness7(300, 10_000)  # whole interval empty at n = 300


def test_witness7_sampling_campaign():
    n = 30000
    lo, hi = r7_interval(n)
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randint(lo, hi)
        try:
            w = witness7(n, m)
        except WindowExhausted as exc:  # pragma: no cover - would be a real bug
            pytest.fail(f"window exhausted: {exc}")
        w.validate()
        assert 1 <= w.window_index <= 10


def test_witness7_t0_search_modes_agree():
    lo, hi = r7_interval(30000)
    pairs = [(30000, lo), (30000, hi)]
    lo, hi = r7_interval(50000)
    rng = random.Random(11)
    pairs += [(50000, rng.randint(lo, hi)) for _ in range(25)]
    for n, m in pairs:
        assert witness7(n, m) == witness7_linear_t0(n, m), (n, m)


@pytest.mark.parametrize("n", [30_000, 10 ** 6, 10 ** 9, 10 ** 12])
def test_witness7_pivots_by_substitution(n):
    # the closed-form pivot is the sign change of f, and the anchor is the
    # first pivot above it congruent to -n mod 8
    lo, hi = r7_interval(n)
    rng = random.Random(n)
    for m in [lo, hi] + [rng.randint(lo, hi) for _ in range(200)]:
        t0 = squares._find_t0(n, m)
        assert squares._f_of_t(t0, m, n) <= 0 < squares._f_of_t(t0 + 1, m, n), m
        anchor = witness7(n, m).t_anchor
        assert t0 + 1 <= anchor <= t0 + 8 and (anchor + n) % 8 == 0, m


def test_witness7_endpoints():
    n = 30000
    lo, hi = r7_interval(n)
    for m in (lo, hi):
        w = witness7(n, m)
        assert sum(tri(p) for p in w.parts) == m
