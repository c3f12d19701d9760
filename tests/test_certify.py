import hashlib
import random
import signal
import time
from fractions import Fraction
from math import isqrt

import pytest

from edgespectra import certify
from edgespectra.certify import (
    TripleIdentity,
    PairMF,
    RankBudgetExceeded,
    SPECIAL_PAIRS,
    TraceEntry,
    _rank_budget,
    _window,
    classify_pair,
    dm_witness,
    triple_identity,
    min_r,
    min_r_witness,
    three_part_witness,
)
from edgespectra.cliquespec import bounded_partitions, spectrum
from edgespectra.pell import family_pair
from edgespectra.squares import bennett_search
from edgespectra.triangles import (SpectrumMemoryError, clique_parts, decompose_lower,
                                   decompose_upper, min_clique_edges, tri, tri_floor_root,
                                   tri_root, two_part_witness)
from oracles import (brute_dm_witness, min_r_witness_loop, min_r_witness_search, replace,
                     three_part_witness_scan, three_part_witness_walk)

HALF = Fraction(1, 2)


def test_pair_validation():
    with pytest.raises(ValueError):
        PairMF(1, 0)
    with pytest.raises(ValueError):
        PairMF(4, 7)
    with pytest.raises(ValueError):
        PairMF(4, -1)


def test_special_pairs_complement_closed():
    for m, f in SPECIAL_PAIRS:
        assert (m, tri(m) - f) in SPECIAL_PAIRS


# -- D(m) -------------------------------------------------------------------

def test_dm_examples():
    w = dm_witness(12, 8)
    x, y, z = w
    assert x * y + z == 12 and x + y <= 8 and (z == 0 or x + y + z <= 7)
    assert dm_witness(17, 8) is None
    assert dm_witness(0, 2) == (0, 0, 0)


def test_dm_matches_brute_enumeration():
    for m in range(2, 61):
        for f in range(tri(m) + 1):
            assert dm_witness(f, m) == brute_dm_witness(f, m), (m, f)
    # the edges of the two closed forms: z alone, the start at x = 2, and
    # the product ceiling m^2/4, on both sides
    for m in range(61, 401, 7):
        for f in (m - 1, m, m * m // 4, m * m // 4 + 1):
            assert dm_witness(f, m) == brute_dm_witness(f, m), (m, f)
    rng = random.Random(15)
    found = []
    for i in range(100):
        m = rng.randint(100, 400)
        top = m * m // 4 + m
        # every other f near the product ceiling, where the misses are
        f = rng.randint(0, top) if i % 2 else rng.randint(top - 3 * m, top)
        w = dm_witness(f, m)
        assert w == brute_dm_witness(f, m), (m, f)
        found.append(w is not None)
    assert found.count(True) >= 10 and found.count(False) >= 10


def test_dm_large_pair_fast():
    fp_m, fp_f = 1112, 222111
    w = dm_witness(fp_f, fp_m)
    x, y, z = w
    assert x * y + z == fp_f and x + y <= fp_m and (z == 0 or x + y + z <= fp_m - 1)
    # above the product ceiling nothing is representable
    assert dm_witness(fp_m * fp_m // 4 + 1, fp_m) is None


# -- minimal clique rank ----------------------------------------------------

def brute_partitions(v, j, cap):
    """Partitions of v into exactly j parts in [1, cap], nonincreasing,
    lexicographically largest first."""
    if j == 0:
        if v == 0:
            yield ()
        return
    for a in range(min(cap, v - j + 1), 0, -1):
        for rest in brute_partitions(v - a, j - 1, a):
            yield (a,) + rest


def brute_min_r(m, f):
    """Reference route: enumerate partitions of m into exactly j positive parts."""
    for j in range(1, m + 1):
        for parts in brute_partitions(m, j, m):
            if sum(tri(p) for p in parts) == f:
                return j - 1
    return None


def test_min_r_examples():
    assert min_r(4, 3) == 1
    for m in (2, 5, 9, 30):
        assert min_r(m, tri(m)) == 0
    assert min_r(1112, 222111) == 2
    assert min_r_witness(1112, 222111) in ((445, 445, 222), (667, 444, 1))
    parts = min_r_witness(1112, 222111)
    assert sum(parts) == 1112 and sum(tri(p) for p in parts) == 222111


def test_min_r_absent():
    assert min_r(3, 2) is None
    assert min_r_witness(3, 2) is None


def test_min_r_matches_brute():
    for m in range(2, 15):
        for f in range(tri(m) + 1):
            assert min_r(m, f) == brute_min_r(m, f), (m, f)


def test_min_r_witness_is_first_brute_partition():
    # the witness has the fewest parts, the lexicographically largest parts
    # before the last three, and then the triple with the smallest smallest part
    for m in range(2, 19):
        for f in range(tri(m) + 1):
            r = min_r(m, f)
            if r is None:
                continue
            hits = [p for p in brute_partitions(m, r + 1, m) if sum(tri(x) for x in p) == f]
            first = min(hits, key=lambda p: (tuple(-x for x in p[:-3]), p[-1]))
            assert min_r_witness(m, f) == first, (m, f)
    assert min_r_witness(15, 27) == (6, 4, 4, 1)


def test_min_r_witness_matches_search_near_complete():
    # pairs just below tri(m), where most pairs without a representation
    # lie, then f = 0 and f = m - 1, whose ranks m - 1 and about m/3 the
    # per-part recursion of the oracle still reaches at these sizes
    rng = random.Random(12)
    found = {"none": 0, "witness": 0}
    for _ in range(40):
        m = rng.randint(100, 3000)
        top = rng.randint(0, 6 * isqrt(m))
        f = tri(m) - top * m // 2 - rng.randint(0, m // 2)
        w = min_r_witness(m, f)
        assert w == min_r_witness_search(m, f), (m, f)
        found["none" if w is None else "witness"] += 1
    assert min(found.values()) >= 5, found
    for m in (rng.randint(100, 600) for _ in range(5)):
        for f in (0, m - 1):
            assert min_r_witness(m, f) == min_r_witness_search(m, f), (m, f)


def test_min_r_witness_matches_search_below_larger_parts():
    # f is the edge sum of a partition of m into 4 to 7 parts, moved off
    # the balanced one by random amounts, and f + 1 beside it, so the
    # three-part step runs below one to four larger parts
    rng = random.Random(22)
    ranks = set()
    for _ in range(200):
        m, k = rng.randint(200, 3000), rng.randint(4, 7)
        parts = [m // k + (i < m % k) for i in range(k)]
        spread = m // rng.choice((1, 4, 16, 64)) // k
        for _ in range(rng.randint(0, 2 * k)):
            i, j = rng.sample(range(k), 2)
            d = rng.randint(0, min(spread, parts[i] - 1))
            parts[i], parts[j] = parts[i] - d, parts[j] + d
        f = sum(tri(p) for p in parts)
        for g in (f, f + 1):
            w = min_r_witness(m, g)
            assert w == min_r_witness_search(m, g), (m, g)
            ranks.add(None if w is None else len(w) - 1)
    assert {2, 3, 4, 5, 6} <= ranks, ranks


def test_min_r_witness_one_and_two_parts_match_loop():
    # one and two parts are answered before the recursion; the witnesses
    # are the ones the part-count loop over clique_parts finds, on all
    # 4,088 pairs with m <= 29
    pairs = [(m, f) for m in range(2, 30) for f in range(tri(m) + 1)]
    assert len(pairs) == 4088
    for m, f in pairs:
        assert min_r_witness(m, f) == min_r_witness_loop(m, f), (m, f)


def test_representable_matches_spectrum():
    # f has a partition of m into at most k cliques exactly when it is in
    # C(m, k); k = m is the rank search's representability test
    for m in range(2, 61):
        for k in sorted({1, 2, 3, 4, m // 3 or 1, m - 1, m}):
            spec = spectrum(m, k)
            for f in range(tri(m) + 1):
                assert (clique_parts(m, f, k) is not None) == (f in spec), (m, k, f)


def test_no_representation_skips_part_count_search(monkeypatch):
    # pairs without a representation, from m = 2554 to m = 622856, are
    # answered before any part count is tried
    calls, real = [], certify.clique_parts
    monkeypatch.setattr(certify, "clique_parts", lambda *a: calls.append(a) or real(*a))
    pairs = ((2554, 3195938), (13898, 94084537), (622856, 193768603283))
    for m, f in pairs:
        assert min_r_witness(m, f) is None, (m, f)
    assert calls == [(m, f, m) for m, f in pairs]


def test_rank_search_starts_where_a_partition_can_exist(monkeypatch):
    # f < min_clique_edges(m, 3) needs four parts or more: the search's
    # first part count is the least j with min_clique_edges(m, j) <= f, and
    # the witness, the rank and each budget's refusal (its message counts
    # the windows charged) are the loop's over every j
    rng = random.Random(32)
    pairs = [(m, f) for m in range(4, 26) for f in range(min_clique_edges(m, 3))]
    for _ in range(200):
        m = rng.randint(26, 2000)
        pairs.append((m, rng.randrange(min_clique_edges(m, 3))))
    calls, real = [], certify.clique_parts
    monkeypatch.setattr(certify, "clique_parts", lambda *a: calls.append(a) or real(*a))
    ranks = set()
    for steps in (certify._RANK_STEPS, 1, 30, 300):
        monkeypatch.setattr(certify, "_RANK_STEPS", steps)
        for m, f in pairs:
            outcomes = []
            for fn in (min_r_witness, min_r_witness_loop, min_r):
                calls.clear()
                try:
                    outcomes.append(fn(m, f))
                except RankBudgetExceeded as exc:
                    outcomes.append(str(exc))
                if fn is min_r_witness and len(calls) > 1:
                    assert calls[1][2] == next(j for j in range(3, m + 1)
                                               if min_clique_edges(m, j) <= f), (m, f)
            w, loop, r = outcomes
            assert w == loop, (m, f, steps)
            assert r == (len(w) - 1 if isinstance(w, tuple) else w), (m, f, steps)
            ranks.add(r if isinstance(r, int) else type(r))
    assert {3, 4, 5, 10, str} <= ranks, ranks


def test_min_r_with_many_singletons_is_fast():
    # the least part count with f = 0 or 1 is found by bisection, and the
    # singletons are counted, not listed
    start = time.perf_counter()
    assert min_r(10 ** 6, 0) == 999_999
    assert min_r(10 ** 6, 1) == 999_998
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("m", [2 ** 63 + 9, 10 ** 30, 10 ** 100], ids=["2^63+9", "10^30", "10^100"])
def test_rank_search_past_the_machine_word(m):
    # the least part count is bisected over Python ints, so an m past
    # sys.maxsize is searched as any other: f = 0 and 1 need m and m - 1 parts
    assert min_r(m, 0) == m - 1
    assert min_r(m, 1) == m - 2
    v = classify_pair(m, 0)
    v.validate(m, 0)


def test_rank_search_charges_no_more_parts_than_its_start_lists(monkeypatch):
    # the charge made before the loop is a lower bound: every partition of
    # m into at most start parts with edge sum f has that many parts >= 2
    charged = []
    monkeypatch.setattr(certify, "check_cap", lambda bits, what: charged.append(bits))
    seen = 0
    for m in range(2, 19):
        listed: dict[tuple[int, int], int] = {}  # (part count, f): fewest parts >= 2
        for p in bounded_partitions(m, m):
            key = (len(p), sum(tri(a) for a in p))
            listed[key] = min(listed.get(key, m), sum(a > 1 for a in p))
        for f in range(tri(m) + 1):
            charged.clear()
            certify.min_rank_parts(m, f)
            if charged:
                start = next(j for j in range(1, m + 1) if min_clique_edges(m, j) <= f)
                fewest = [n for (j, e), n in listed.items() if j <= start and e == f]
                bound = charged[0] // (8 * certify._WITNESS_PART_BYTES)
                assert bound <= min(fewest, default=bound), (m, f)
                seen += bound > 0
    assert seen > 500


def test_rank_search_refuses_an_answer_past_the_cap_at_once():
    # at f of order m past 2^63 the search starts near m/3 parts, and every
    # partition there lists about m/3 parts >= 2: refused before the search
    # walks the largest parts, each of which its rest refuses at once
    def ran_on(signum, frame):
        pytest.fail("the rank search ran on")

    previous = signal.signal(signal.SIGALRM, ran_on)
    signal.alarm(5)
    try:
        start = time.perf_counter()
        for m, f in ((2 ** 63 - 1, 7833485821801681014),
                     (10 ** 30 + 6, 3954041730664432 * 10 ** 15)):
            with pytest.raises(SpectrumMemoryError, match="clique parts need"):
                min_r(m, f)
        assert time.perf_counter() - start < 1.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_min_r_witness_charges_its_singletons():
    # the listed partition is charged to the memory guard before it is built
    for m in (2 ** 63 - 11, 2 ** 63 + 9):
        with pytest.raises(SpectrumMemoryError, match="witness parts need"):
            min_r_witness(m, 0)
    assert min_r_witness(10 ** 6, 0) == (1,) * 10 ** 6
    assert min_r_witness(10 ** 6, 1) == (2,) + (1,) * (10 ** 6 - 2)


def test_min_r_witness_length_is_rank():
    for m in range(2, 41):
        for f in range(tri(m) + 1):
            w, r = min_r_witness(m, f), min_r(m, f)
            assert (None if w is None else len(w) - 1) == r, (m, f)
            if w is not None:
                assert sum(w) == m and sum(tri(p) for p in w) == f and min(w) >= 1


def test_min_r_cross_checks_spectrum():
    # minimal rank + 1 equals the smallest part bound admitting f
    for m in range(2, 41):
        masks = [spectrum(m, k).mask for k in range(1, m + 1)]
        for f in range(tri(m) + 1):
            expect = next((k for k in range(1, m + 1) if (masks[k - 1] >> f) & 1), None)
            r = min_r(m, f)
            assert (r + 1 if r is not None else None) == expect, (m, f)


def test_part_witnesses_validate():
    for m, f in ((10, 13), (17, 40), (23, 100), (9, 0)):
        w2 = two_part_witness(m, f)
        if w2:
            assert sum(w2) == m and sum(tri(p) for p in w2) == f and min(w2) >= 1
        w3 = three_part_witness(m, f)
        if w3:
            assert sum(w3) == m and sum(tri(p) for p in w3) == f and min(w3) >= 1


def _seeded_three_part_pairs(count, seed):
    """Pairs (m, f - 1), (m, f), (m, f + 1) with f the edge count of a
    random triple x >= y >= z summing to m <= 10^6.  The smallest part is
    drawn within 2000 of m / 3, so at large m the search window stays
    short; for m up to about 6000 it is drawn from all of [1, m / 3]."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        m = rng.randint(3, 10 ** rng.randint(1, 6))
        z = rng.randint(max(1, m // 3 - 2000), m // 3)
        y = rng.randint(z, (m - z) // 2)
        f = tri(m - z - y) + tri(y) + tri(z)
        pairs += [(m, g) for g in (f - 1, f, f + 1) if 0 <= g <= tri(m)]
    return pairs


def test_three_part_witness_matches_scan():
    for m in range(2, 41):
        for f in range(tri(m) + 1):
            assert three_part_witness(m, f) == three_part_witness_scan(m, f), (m, f)
    hits = 0
    for m, f in _seeded_three_part_pairs(500, seed=8):
        w = three_part_witness(m, f)
        assert w == three_part_witness_scan(m, f), (m, f)
        hits += w is not None
    assert 100 < hits < 400  # both hits and misses are covered


def test_three_part_witness_matches_walk_past_int64():
    # m in [10^9, 10^12], where the int64 scan would wrap, and f within
    # 600m of tri(m), so windows of up to 300 z-steps: triples with two
    # small parts, the pairs beside them, and any f in that band
    rng = random.Random(12)
    pairs = []
    for _ in range(100):
        m = rng.randint(10 ** 9, 10 ** 12)
        y, z = sorted((rng.randint(1, 300), rng.randint(1, 300)), reverse=True)
        f = tri(m - y - z) + tri(y) + tri(z)
        pairs += [(m, f - 1), (m, f), (m, f + 1), (m, tri(m) - rng.randint(0, 600 * m))]
    hits = 0
    for m, f in pairs:
        w = three_part_witness(m, f)
        assert w == three_part_witness_walk(m, f), (m, f)
        hits += w is not None
    assert 100 <= hits < 200  # each drawn triple's f hits, most of the rest miss
    # the Pell family pairs, m up to 1.2 * 10^15, hit at the window's first z
    for k in range(1, 7):
        pair = family_pair(k)
        w = three_part_witness(pair.m, pair.f)
        assert w is not None and w == three_part_witness_walk(pair.m, pair.f), k


def test_three_part_budget_matches_walk(monkeypatch):
    # equal budgets are left equal, on hits, misses and windows the budget cuts
    monkeypatch.setattr(certify, "_RANK_STEPS", 300)
    outcomes = set()
    for m, f in _seeded_three_part_pairs(200, seed=13)[:200]:
        left = []
        for fn in (three_part_witness, three_part_witness_walk):
            budget = _rank_budget(m, f)
            try:
                result = fn(m, f, budget=budget)
            except RankBudgetExceeded as exc:
                result = str(exc)
            left.append((result, budget.left, budget.walks))
        assert left[0] == left[1], (m, f)
        outcomes.add(type(left[0][0]))
    assert outcomes == {tuple, type(None), str}


def test_three_part_budget_charges_window_and_refunds_hit(monkeypatch):
    monkeypatch.setattr(certify, "_RANK_STEPS", 10 ** 6)
    # (18270687362, f) of the Pell family: a window of about 1.2 * 10^9
    # z-steps, hit at its first z, so one step is charged
    m, f = 18270687362, 60087242994716684736
    budget = _rank_budget(m, f)
    assert three_part_witness(m, f, budget=budget) == three_part_witness(m, f)
    assert (budget.left, budget.walks) == (10 ** 6 - 1, 1)
    # a miss is charged its whole window
    m, f = 3000, 2037210
    window = certify._z_window(m, f)
    budget = _rank_budget(m, f)
    assert three_part_witness(m, f, budget=budget) is None
    assert budget.left == 10 ** 6 - len(window) and len(window) > 100


def test_three_part_witness_alone_walks_under_a_budget(monkeypatch):
    # without a budget passed, the walk is charged to a fresh _rank_budget(m, f),
    # so a miss window longer than the budget raises instead of running on
    monkeypatch.setattr(certify, "_RANK_STEPS", 400)
    m = 2 ** 70 + 12345
    big = [(3000, 2037210), (m, m * m // 6)]  # misses over 424 and 1.4 * 10^10 z-steps
    assert [len(certify._z_window(m, f)) for m, f in big] == [424, 14027304449]
    for m, f in big:
        for fn in (three_part_witness, three_part_witness_walk):
            with pytest.raises(RankBudgetExceeded, match=r"walked all 400 z-steps"):
                fn(m, f)
    monkeypatch.setattr(certify, "_RANK_STEPS", 424)
    assert three_part_witness(3000, 2037210) is None
    assert three_part_witness_walk(3000, 2037210) is None


def test_rank_budget_bounds_the_search(monkeypatch):
    # the pair walks 95656 z-steps to its answer, r = 4
    assert min_r(2942, 1718353) == 4
    monkeypatch.setattr(certify, "_RANK_STEPS", 95656)
    assert min_r(2942, 1718353) == 4
    monkeypatch.setattr(certify, "_RANK_STEPS", 95655)
    with pytest.raises(RankBudgetExceeded, match=r"\(2942, 1718353\) walked all 95655 z-steps"):
        min_r(2942, 1718353)
    # a window cut by the budget still answers when it hits within the cut
    monkeypatch.setattr(certify, "_RANK_STEPS", 1)
    assert classify_pair(18270687362, 60087242994716684736).exact == HALF


# -- triple identities ------------------------------------------------------

def test_triple_identity_examples():
    assert triple_identity(1112, 222111) == TripleIdentity(667, 890, 261)
    assert triple_identity(2, 1) == TripleIdentity(2, 1, 1)
    # (4, 3): all three identities are satisfiable, smaller root c = 1
    assert triple_identity(4, 3) == TripleIdentity(3, 3, 1)
    assert triple_identity(7, 10) is None
    assert triple_identity(6, 5) is None


def test_triple_identity_holds():
    for m in range(2, 60):
        for f in range(tri(m) + 1):
            rep = triple_identity(m, f)
            if rep is None:
                continue
            assert f == tri(rep.a) == tri(m) - tri(rep.b) == rep.c * (m - rep.c)
            assert rep.a >= 1 and rep.b >= 1 and rep.c >= 1
            # smaller positive root
            assert rep.c <= m - rep.c or rep.c * (m - rep.c) == f and m - rep.c < 1


# -- the verdict engine -----------------------------------------------------

def test_classify_worked_pairs():
    for m, f in ((7, 9), (7, 12)):
        v = classify_pair(m, f)
        assert v.exact == 0 and v.upper == 0 and v.lower == 0
        assert any(t.rule == "iv" for t in v.trace)
    for m, f in ((7, 10), (7, 11)):
        v = classify_pair(m, f)
        assert v.exact is None and v.upper <= HALF
        assert any(t.rule == "iii" for t in v.trace)


def test_classify_rule_iv_trace_params():
    v = classify_pair(7, 12)
    fired = [t for t in v.trace if t.rule == "iv"]
    sides = {t.side: dict(t.params) for t in fired}
    assert sides["f"] == {"l": 5, "lp": 2}
    # the fired parameters satisfy the rule condition literally
    for t in fired:
        p = dict(t.params)
        assert p["lp"] >= 7 - p["l"]


def test_classify_special_pairs():
    for m, f in SPECIAL_PAIRS:
        v = classify_pair(m, f)
        assert v.exact == 1 and v.upper == 1 and v.lower == 1
        assert any(t.rule == "A" for t in v.trace)


def test_classify_small_zero_pairs():
    for m, f in ((3, 2), (4, 2), (4, 4), (5, 5), (6, 6), (6, 9), (6, 7), (6, 8)):
        v = classify_pair(m, f)
        assert v.exact == 0, (m, f)


def test_classify_family_pair():
    v = classify_pair(1112, 222111)
    assert v.exact == HALF
    (entry,) = [t for t in v.trace if t.rule == "thm-exact-1/r"]
    assert dict(entry.params)["r"] == 2


def test_classify_complete_target_density():
    # a complete target of m vertices has density exactly 1/(m-1) once m-1 >= 5
    for m in (6, 7, 8):
        v = classify_pair(m, tri(m))
        assert v.exact == Fraction(1, m - 1)
        vz = classify_pair(m, 0)
        assert vz.exact == Fraction(1, m - 1)


def test_classify_complement_rule():
    for m in range(2, 31):
        for f in range(tri(m) + 1):
            v = classify_pair(m, f)
            vc = classify_pair(m, tri(m) - f)
            assert (v.exact, v.upper, v.lower) == (vc.exact, vc.upper, vc.lower), (m, f)


def test_classify_rule_iv_literal():
    # every exact-zero-by-rule-(iv) verdict carries parameters satisfying
    # the stated inequality against its own m
    for m in range(2, 25):
        for f in range(tri(m) + 1):
            v = classify_pair(m, f)
            for t in v.trace:
                if t.rule == "iv":
                    p = dict(t.params)
                    assert p["lp"] >= m - p["l"]
                    assert v.exact == 0


def test_verdict_interval_sanity():
    for m in range(2, 25):
        for f in range(tri(m) + 1):
            v = classify_pair(m, f)
            assert v.trace
            assert v.upper in (Fraction(0), HALF, Fraction(1)) or v.exact is not None
            if v.lower is not None:
                assert v.lower <= v.upper
            if v.exact is not None:
                assert v.exact == v.lower == v.upper
            assert v.rule_upper() in (Fraction(0), HALF, Fraction(1))


def test_classify_verdicts_validate():
    for m in range(2, 31):
        for f in range(tri(m) + 1):
            classify_pair(m, f).validate(m, f)


def test_classify_pinned():
    # every bound, trace and rule-only bound of classify_pair on every
    # (m, f) with m <= 30 and on 1000 seeded pairs with 3 <= m <= 3000
    pairs = [(m, f) for m in range(2, 31) for f in range(tri(m) + 1)]
    rng = random.Random(24)
    for _ in range(1000):
        m = rng.randint(3, 3000)
        pairs.append((m, rng.randint(0, tri(m))))
    digest = hashlib.sha256()
    for m, f in pairs:
        v = classify_pair(m, f)
        digest.update(repr((m, f, v.exact, v.upper, v.lower, v.trace, v.rule_upper())).encode())
    assert digest.hexdigest() == "60a9937e864c0b070c99ed58e09689421dc5dc4ec400742a8fd0b88891913543"


def test_mechanical_rules_cap_every_pair():
    # The certify docstring's proof that off SPECIAL_PAIRS rules (ii)-(v)
    # cap every pair at 0 or 1/2, step by step.  W = _window(m); for g in
    # W, l = tri_floor_root(g) and lp = g - tri(l).
    assert sorted({rule.cap for rule in certify._RULES.values()} - {None}) == [0, HALF]
    # (a) every pair with m <= 51, where the bound of (b) turns analytic
    for m in range(2, 52):
        for f in range(tri(m) + 1):
            if (m, f) not in SPECIAL_PAIRS:
                assert classify_pair(m, f).rule_upper() <= HALF, (m, f)
    # (b) a non-triangular g in W fires (iii) exactly when 1 <= lp and
    # 2lp < l - 1, and (iv) exactly when lp >= m - l; a triangular g fires
    # neither
    for m in range(3, 200):
        lo, hi = _window(m)
        for g in range(lo, hi + 1):
            l, lp = decompose_upper(g)
            assert certify._RULES["iii"].holds(m, g, *decompose_lower(g)) \
                == (1 <= lp and 2 * lp < l - 1), (m, g)
            assert certify._RULES["iv"].holds(m, g, l, lp) == (lp >= m - l > 0), (m, g)
    # so no lp escapes both once l + l // 2 >= m; l is least at the bottom
    # of W, and tri(l + 1) > (m - 1)^2 / 4 there gives l + 1 > (m - 1)/sqrt(2)
    bottom = [tri_floor_root(_window(m)[0]) for m in range(10 ** 5)]
    assert all(2 * (l + 1) ** 2 > (m - 1) ** 2 for m, l in enumerate(bottom))
    assert [m for m in range(2, 10 ** 5) if bottom[m] + bottom[m] // 2 < m] \
        == [2, 4, 5, 7, 8, 10, 11, 14, 17, 20]
    # (m - 1)/sqrt(2) - 1 >= (2m + 1)/3, enough as l + l // 2 >= (3l - 1)/2,
    # holds from m = 51 on (a slope 1/sqrt(2) > 2/3) and not at m = 50
    assert 9 * 50 ** 2 >= 2 * 106 ** 2 and 9 * 49 ** 2 < 2 * 104 ** 2
    # (c) l > floor(m/2), the width of W, so W holds at most one triangular
    # number, and both sides triangular means f = tri(m)/2 (the same bound
    # gives l > m/2 from m = 9 on)
    assert all(_window(m)[1] - _window(m)[0] == m // 2 for m in range(2, 10 ** 5))
    assert [m for m in range(2, 10 ** 5) if bottom[m] <= m // 2] == [2, 4]
    # (d) from m = 5 on, x + y <= m - 1 with z = 0, and every witness with
    # z >= 1 (x*y + z <= ((m - 1 - z)/2)^2 + z, convex in z), stay at or
    # below the bottom of W, which tri(m)/2 exceeds: a D(m) witness of
    # tri(m)/2 has z = 0 and x + y = m, so x(m - x) = tri(m)/2, that is
    # (m - 2x)^2 = m = y^2 and 2 tri(a) = tri(y^2)
    for m in range(5, 10 ** 4):
        lo = _window(m)[0]
        assert max((m - 2) ** 2 // 4 + 1, m - 1) <= lo < tri(m) / 2
    # (3, 2), the special pair (4, 3) at m = y^2 = 4, is the only solution
    # for y <= 10^100, that is m <= 10^200
    assert bennett_search(10 ** 100) == [(3, 2)]
    for m in range(5, 10 ** 5):
        if tri(m) % 2 == 0 and tri_root(tri(m) // 2) is not None:
            assert dm_witness(tri(m) // 2, m) is None, m


def _tampered(v, rule, side=None, **params):
    """v with its first `rule` entry's side and params overridden."""
    i = next(i for i, t in enumerate(v.trace) if t.rule == rule)
    t = v.trace[i]
    entry = TraceEntry(t.rule, side or t.side, tuple({**dict(t.params), **params}.items()))
    return replace(v, trace=v.trace[:i] + (entry,) + v.trace[i + 1:])


@pytest.mark.parametrize("m,f,tamper", [
    (7, 12, lambda v: _tampered(v, "iv", lp=3)),
    (7, 12, lambda v: _tampered(v, "iv", side="complement")),
    (7, 12, lambda v: _tampered(v, "i", complement=8)),
    (7, 10, lambda v: _tampered(v, "iii", bp=3)),
    (7, 10, lambda v: _tampered(v, "v", f=10)),
    # rule (v) moved onto a side that has a D(m) witness: dm_witness(1, 4) = (0, 0, 1)
    (4, 1, lambda v: _tampered(v, "v", side="f", f=1)),
    (38, 325, lambda v: _tampered(v, "ii", window=(341, 361))),
    (38, 325, lambda v: _tampered(v, "thm-lower-1/r", r=5)),
    (38, 325, lambda v: _tampered(v, "thm-lower-1/r", c=12)),
    (38, 325, lambda v: _tampered(v, "thm-upper-1/2", side="f")),
    (38, 325, lambda v: replace(v, trace=v.trace[1:])),
    (38, 325, lambda v: replace(v, lower=Fraction(1, 3))),
    (38, 325, lambda v: replace(v, upper=Fraction(2, 3))),
    # the cited 2/3 bound is no rule (the mechanical rules cap every
    # non-special pair at 0 or 1/2), so its entry is an unknown rule
    (38, 325, lambda v: replace(
        v, trace=v.trace + (TraceEntry("thm-upper-2/3", "pair"),))),
    (7, 12, lambda v: replace(
        v, trace=v.trace + (TraceEntry("thm-upper-2/3", "pair"),))),
    (7, 10, lambda v: replace(
        v, trace=(TraceEntry("A", "pair", (("m", 7), ("f", 10))),) + v.trace)),
    (7, 10, lambda v: replace(v, trace=v.trace + (TraceEntry("vi", "pair"),))),
])
def test_verdict_validate_rejects_tampering(m, f, tamper):
    v = classify_pair(m, f)
    v.validate(m, f)
    with pytest.raises(AssertionError):
        tamper(v).validate(m, f)
