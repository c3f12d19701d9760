import tracemalloc
from fractions import Fraction

import pytest

from edgespectra import pell
from edgespectra.certify import classify_pair, min_r, three_part_witness
from edgespectra.pell import FamilyPair, family_pair, family_pairs, pell_solutions, verify_ABC
from edgespectra.triangles import BudgetExceeded, tri, two_part_witness
from oracles import scan_two_clique_partitions


def test_seed_and_first_solutions():
    sols = pell_solutions(2)
    assert (sols[0].x, sols[0].y) == (2, 1)
    assert (sols[1].x, sols[1].y) == (37, 14)
    assert (sols[2].x, sols[2].y) == (590, 223)


def test_solutions_validate_and_parity():
    sols = pell_solutions(40)
    for s in sols:
        assert s.x * s.x - 7 * s.y * s.y == -3
    for k in range(21):
        even = sols[2 * k]
        assert even.x % 2 == 0 and even.y % 2 == 1, k


def test_pell_rejects_negative():
    with pytest.raises(ValueError):
        pell_solutions(-1)


def test_family_first_pair():
    fp = family_pair(1)
    assert (fp.t, fp.m, fp.f) == (222, 1112, 222111)
    assert (fp.a, fp.b, fp.c) == (667, 890, 261)
    assert fp.triple_witness() == (445, 445, 222)
    w = fp.triple_witness()
    assert sum(w) == fp.m and sum(tri(q) for q in w) == fp.f


def test_family_pair_matches_list_route():
    # the pair at index 2k of the full solution list, as family_pair built it
    sols = pell_solutions(80)
    for k in range(1, 41):
        t = sols[2 * k].y - 1
        m = 5 * t + 2
        want = FamilyPair(k=k, t=t, m=m, f=tri(3 * t + 1), a=3 * t + 1, b=4 * t + 2,
                          c=(m - sols[2 * k].x) // 2)
        assert family_pair(k) == want, k


def test_family_pairs_match_family_pair():
    # one walk gives the pairs that a walk per k gives, validated alike
    assert family_pairs(40) == [family_pair(k) for k in range(1, 41)]
    assert family_pairs(1) == [family_pair(1)]


def test_family_pair_keeps_one_solution(monkeypatch):
    # the list of 4001 solutions peaked at 8.8 MB; one walk keeps the current one
    monkeypatch.setattr(pell, "_MAX_K", 2000)  # past the index budget, to see the peak
    tracemalloc.start()
    try:
        family_pair(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_family_index_budget(monkeypatch):
    # k and k_max up to 1000 answer; above it they are refused before the
    # orbit is walked
    assert family_pair(1000).k == 1000 and len(pell_solutions(1000)) == 1001
    assert family_pairs(1000)[-1].k == 1000
    monkeypatch.setattr(pell, "_orbit", lambda: pytest.fail("the orbit was walked"))
    for call in (family_pair, pell_solutions, family_pairs):
        for k in (1001, 10 ** 30):
            with pytest.raises(BudgetExceeded, match=f"Pell family index {k} exceeds cap 1000"):
                call(k)


def test_family_rejects_k0():
    with pytest.raises(ValueError):
        family_pair(0)
    for k_max in (0, -1):
        with pytest.raises(ValueError, match=f"need k-max >= 1, got {k_max}"):
            family_pairs(k_max)


def test_family_identities_enforced():
    with pytest.raises(ValueError):
        FamilyPair(k=1, t=222, m=1112, f=222111, a=667, b=890, c=262)


def test_verify_abc_k1():
    rep = verify_ABC(family_pair(1))
    assert rep.all_ok
    assert rep.c_scanned == 556


def test_verify_abc_k2():
    rep = verify_ABC(family_pair(2))
    assert rep.all_ok
    assert rep.pair.t == 56640 and rep.pair.m == 283202


def test_verify_abc_every_k():
    # (C) is the two-part discriminant, exact at every size
    for k in range(1, 8):
        rep = verify_ABC(family_pair(k))
        assert rep.all_ok, k
        assert rep.c_scanned == rep.pair.m // 2, k


def test_oracle_scan_refuses_int64_wraparound():
    fp = family_pair(4)  # m = 18270687362: at y1 = 1 the int64 value would wrap
    with pytest.raises(OverflowError, match="int64"):
        scan_two_clique_partitions(fp.m, fp.f)
    m = 3037000501  # the largest m with (m - 1)(m - 2) < 2^63
    assert (m - 1) * (m - 2) < 1 << 63 <= m * (m - 1)
    with pytest.raises(OverflowError, match="int64"):
        scan_two_clique_partitions(m + 1, 0)


def test_two_clique_counterexample_shape():
    # (m, f) = (6, 6) is expressible: y1 = 3 gives tri(3) + tri(3) = 6
    hit, _ = scan_two_clique_partitions(6, 6)
    assert hit == 3
    assert two_part_witness(6, 6) == (3, 3)


def test_scan_agrees_with_closed_form():
    # the oracle scan and two_part_witness decide (C) alike, and the
    # scan's count is the c_scanned verify_ABC derives from the witness
    for m in range(2, 40):
        for f in range(tri(m) + 1):
            hit, scanned = scan_two_clique_partitions(m, f)
            closed = two_part_witness(m, f)
            assert (hit is not None) == (closed is not None), (m, f)
            if hit is not None:
                assert {hit, m - hit} == set(closed)
                assert scanned == hit == closed[1], (m, f)
            else:
                assert scanned == m // 2, (m, f)


def test_family_min_rank_and_verdict():
    for k in range(1, 8):
        fp = family_pair(k)
        assert three_part_witness(fp.m, fp.f) == fp.triple_witness(), k
        assert min_r(fp.m, fp.f) == 2, k
        v = classify_pair(fp.m, fp.f)
        assert v.exact == Fraction(1, 2), k


def test_jensen_obstruction():
    # balanced two-clique splits overshoot the family edge count
    for t in (1, 2, 7, 100, 5531, 10 ** 6):
        m = 5 * t + 2
        f = tri(3 * t + 1)
        lo, hi = (5 * t) // 2 + 1, -(-(5 * t) // 2) + 1
        assert tri(lo) + tri(hi) > f, t
