import math
import random

import pytest

from edgespectra.cliquespec import spectrum
from edgespectra.repcount import (
    TupleBudgetExceeded,
    exceptional_count,
    rep_histogram,
)
from edgespectra.triangles import tri
from oracles import rep_histogram_naive


def q_form(x, n):
    """Q(x) = x_1^2 + .. + x_4^2 + (x_1 + .. + x_4 - n)^2, the oracle of the
    identity m = (Q(x) - n)/2 that places a tuple in the histogram."""
    return sum(v * v for v in x) + (sum(x) - n) ** 2


def test_single_tuple_histogram():
    h = rep_histogram(10, 1, 10)
    assert h.counts[15] == 1 and h.total_tuples == 1
    assert list(h.support()) == [15]


def test_histogram_is_a_plain_record():
    # counts are Python ints in a tuple: the record compares and hashes by value
    h = rep_histogram(20, 4)
    assert type(h.counts) is tuple and all(type(c) is int for c in h.counts)
    assert h == rep_histogram(20, 4) and hash(h) == hash(rep_histogram(20, 4))
    assert h != rep_histogram(20, 4, sum_cap=10)
    assert all(type(m) is int for m in h.support())
    assert all(type(v) is int for row in h.csv_rows() for v in row)


def test_identity_on_named_tuple():
    # (1,1,1,1) at n = 10: the quadratic form gives 40, so m = 15,
    # matching the partition (1,1,1,1,6) with tri(6) = 15 edges
    x = (1, 1, 1, 1)
    assert q_form(x, 10) == 40
    assert (q_form(x, 10) - 10) // 2 == 15 == sum(tri(v) for v in x) + tri(10 - sum(x))


def test_identity_random_tuples():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(8, 400)
        x = tuple(rng.randint(1, n // 4) for _ in range(4))
        if sum(x) > n:
            continue
        q = q_form(x, n)
        assert (q - n) % 2 == 0
        assert (q - n) // 2 == sum(tri(v) for v in x) + tri(n - sum(x))


def test_weighted_equals_naive():
    for n, N in ((20, 4), (40, 8), (60, 12)):
        fast = rep_histogram(n, N)
        slow = rep_histogram_naive(n, N)
        assert fast.counts == slow.counts, (n, N)


def test_weighted_equals_naive_past_sum_cap():
    # tuples over the sum cap are skipped, also where N exceeds n
    for n, N, sum_cap in ((10, 6, 9), (6, 8, None), (25, 7, 13)):
        fast = rep_histogram(n, N, sum_cap)
        slow = rep_histogram_naive(n, N, sum_cap)
        assert fast.counts == slow.counts, (n, N, sum_cap)
        assert fast.total_tuples > 0


def test_sum_cap_restricts():
    full = rep_histogram(30, 6)
    capped = rep_histogram(30, 6, sum_cap=10)
    assert capped.total_tuples < full.total_tuples
    assert len(capped.counts) == len(full.counts)
    assert all(c <= f for c, f in zip(capped.counts, full.counts))
    for sum_cap in (31, -1):  # a negative cap would count no tuples at all
        with pytest.raises(ValueError, match="sum_cap"):
            rep_histogram(30, 6, sum_cap=sum_cap)
        with pytest.raises(ValueError, match="sum_cap"):  # also where N < 1 skips the histogram
            exceptional_count(30, sum_cap=sum_cap, asymptotic=True)
    assert exceptional_count(30, sum_cap=0, asymptotic=True).sum_cap == 0


def test_support_inside_five_clique_spectrum():
    n, N = 100, 20
    h = rep_histogram(n, N)
    spec = spectrum(n, 5)
    for m in h.support():
        assert m in spec


def test_bad_vertex_counts_rejected():
    with pytest.raises(ValueError, match="n >= 0"):
        rep_histogram(-2, 1)
    for n in (0, 1):  # the asymptotic margins divide by log(n)
        with pytest.raises(ValueError, match="n >= 2"):
            exceptional_count(n, asymptotic=True)


def test_exceptional_rejects_non_finite_margins():
    for margins in ((float("inf"), 0.0), (0.0, float("-inf")), (float("nan"), 0.0)):
        with pytest.raises(ValueError, match="finite"):
            exceptional_count(30, None, *margins, None)


def test_tuple_budget_guard():
    with pytest.raises(TupleBudgetExceeded):
        rep_histogram(10_000, 2000)  # C(2003, 4) ~ 6.7e11 tuples, over the default cap


def test_exceptional_zero_partition():
    rep = exceptional_count(120, 24, 500.0, 500.0)
    assert rep.total == rep.hi - rep.lo + 1
    h = rep_histogram(120, 24)
    window = h.counts[rep.lo:rep.hi + 1]
    assert rep.zeros == window.count(0)
    assert rep.zeros + sum(1 for c in window if c != 0) == rep.total


def test_exceptional_empty_range_flagged():
    rep = exceptional_count(50, 10, 10_000.0, 10_000.0)
    assert rep.range_empty and rep.total == 0 and rep.fraction == 0.0


def test_asymptotic_mode_small_n():
    # at n = 100 the asymptotic coordinate cap n/5 - n/ln n is negative:
    # the run is flagged rather than silently adjusted
    rep = exceptional_count(100, asymptotic=True)
    assert rep.range_empty and rep.log_base == "e"


def test_asymptotic_mode_rejects_explicit_inputs():
    # asymptotic mode sets N and both margins itself; it used to drop them
    for N, margins in ((5, (0.0, 0.0)), (None, (100.0, 0.0)), (None, (0.0, -1.0)),
                       (5, (100.0, 100.0))):
        with pytest.raises(ValueError, match="asymptotic"):
            exceptional_count(400, N, *margins, None, asymptotic=True)


def test_asymptotic_mode_mid_n():
    # at n = 400 the cap N = 13 keeps every reachable m at or above
    # tri(400 - 52) = 60378, above the whole range [42705, 53095]: the run
    # is flagged as an empty range, with the range as the margins give it,
    # not reported as 10391 zeros of 10391
    rep = exceptional_count(400, asymptotic=True)
    assert rep.log_base == "e"
    assert rep.N == int(400 / 5 - 400 / math.log(400)) == 13
    least = rep_histogram(400, 13).support()[0]
    assert least == 60690 > 53095 == rep.hi
    assert rep.range_empty and (rep.lo, rep.total, rep.zeros, rep.fraction) == (42705, 0, 0, 0.0)
    # at n = 700 the smallest reachable m lies inside the range: it is scanned
    rep = exceptional_count(700, asymptotic=True)
    assert not rep.range_empty and rep.lo <= rep.hi
    assert 0 < rep.zeros < rep.total == rep.hi - rep.lo + 1


def test_csv_rows():
    h = rep_histogram(12, 2, 12)
    rows = dict(h.csv_rows())
    assert all(v > 0 for v in rows.values())
    assert sum(rows.values()) == h.total_tuples
