import functools
import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from edgespectra import cliquespec
from edgespectra.cliquespec import (
    _BLOCK,
    CliquePartition,
    EdgeSpectrum,
    _StreamedLayer,
    _cover_plan,
    _cover_run,
    _estimate_bits,
    _layer,
    _layer_caps,
    _row,
    _rows_bits,
    _top,
    bounded_partitions,
    bounds_sweep,
    density_and_bounds,
    member_witness,
    shift_inclusion_check,
    spectrum,
    verify_interval,
)
from edgespectra.triangles import (_DEFAULT_MAX_TABLE_BITS, ENV_MAX_TABLE_BITS,
                                   SpectrumMemoryError, clique_parts, min_clique_edges, realizes,
                                   tri)
from oracles import from_members, parse_export, spectrum_unblocked, witness_tables_uncapped


def brute_spectrum(n, r):
    if n == 0:
        return {0}
    return {sum(tri(p) for p in parts) for parts in bounded_partitions(n, r)}


def test_spectrum_examples():
    assert spectrum(3, 2).members() == [1, 3]
    assert spectrum(5, 2).members() == [4, 6, 10]
    assert spectrum(4, 1).members() == [6]


def test_partition_type():
    p = CliquePartition(parts=(2, 3), n=5)
    assert p.parts == (3, 2)  # canonical nonincreasing
    assert realizes(p.parts, 5, 4)
    with pytest.raises(ValueError):
        CliquePartition(parts=(3, 3), n=5)


def test_partition_realizes():
    p = CliquePartition(parts=(3, 2, 0), n=5)
    assert p.realizes(5, 2, 4)
    assert not p.realizes(5, 1, 4)   # two nonzero parts
    assert not p.realizes(6, 2, 4)   # wrong vertex count
    assert not p.realizes(5, 2, 5)   # wrong edge count
    assert CliquePartition(parts=(), n=0).realizes(0, 1, 0)


def test_spectrum_matches_brute_force():
    for n in range(0, 15):
        for r in range(1, 6):
            assert set(spectrum(n, r).members()) == brute_spectrum(n, r), (n, r)


def test_monotone_in_r():
    for n in (7, 12, 25, 40):
        prev = 0
        for r in range(1, n + 2):
            mask = spectrum(n, r).mask
            assert prev | mask == mask
            prev = mask


def test_extremes():
    for n in range(1, 25):
        for r in range(1, n + 2):
            spec = spectrum(n, r)
            assert tri(n) in spec          # one clique on everything
            assert (0 in spec) == (r >= n)  # only singletons reach zero edges


def test_member_witness_examples():
    assert member_witness(5, 2, 4).parts == (3, 2)
    assert member_witness(5, 2, 5) is None
    assert member_witness(4, 1, 6).parts == (4,)


@pytest.mark.parametrize("n,r", [(1, 0), (5, -1), (-1, 2)])
def test_member_witness_rejects_bad_n_r(n, r):
    # as spectrum does: a witness for r = 0 would claim a part it may not have
    with pytest.raises(ValueError):
        member_witness(n, r, 0)


def test_witness_soundness():
    # The witness takes the largest feasible part at each step, so it is the
    # lexicographically largest partition with at most r parts and edge sum
    # m: the first one bounded_partitions yields.
    for n in range(31):
        for r in (*range(1, 7), n + 1):
            first = {}
            for parts in bounded_partitions(n, r):
                first.setdefault(sum(tri(p) for p in parts), parts)
            for m in range(tri(n) + 1):
                w = member_witness(n, r, m)
                if m in first:
                    assert w is not None and w.parts == first[m], (n, r, m)
                    assert w.realizes(n, r, m)
                else:
                    assert w is None, (n, r, m)


@pytest.mark.parametrize("n,r", [(400, 5), (150, 8)])
def test_witness_route_agrees_with_spectrum(n, r):
    # member_witness reads none of the DP, so the two routes check each
    # other: on every non-member from the minimum up and on seeded members
    spec = spectrum(n, r)
    members = spec.members()
    gaps = sorted(set(range(spec.min_element, tri(n) + 1)) - set(members))
    assert len(gaps) > 1000
    for e in gaps:
        assert member_witness(n, r, e) is None, (n, r, e)
    for e in random.Random(n * r).sample(members, 500):
        w = member_witness(n, r, e)
        assert w is not None and w.realizes(n, r, e), (n, r, e)


def test_density_examples():
    rep = density_and_bounds(10, 3)
    assert rep.min_element == 12 and rep.bounds_ok
    rep = density_and_bounds(4, 1)
    assert rep.count == 1 and rep.density == pytest.approx(1 / 6)


def test_min_element_bound_small_sweep():
    for rep in bounds_sweep(60, 9):
        assert rep.bounds_ok, rep
        assert 2 * rep.r * rep.min_element >= rep.n ** 2 - rep.n * rep.r
        assert rep.count <= rep.n ** 2 / 2 - rep.n ** 2 / (2 * rep.r) + 1


def test_sweep_agrees_with_single_runs():
    singles = {(rep.n, rep.r): rep for rep in bounds_sweep(20, 4)}
    for n in range(1, 21):
        for r in range(2, 5):
            direct = density_and_bounds(n, r)
            assert singles[(n, r)].count == direct.count
            assert singles[(n, r)].min_element == direct.min_element


@pytest.fixture
def table_cap(monkeypatch):
    """Sets the memory cap through its environment variable."""
    return lambda bits: monkeypatch.setenv(ENV_MAX_TABLE_BITS, str(bits))


def test_memory_guard(table_cap):
    table_cap(1000)
    with pytest.raises(SpectrumMemoryError):
        spectrum(500, 5)
    with pytest.raises(SpectrumMemoryError):
        member_witness(400, 6, 10_000)


def test_witness_guard_is_the_spectrum_guard(table_cap):
    # member_witness builds no table, but answers exactly where spectrum does
    for n, r in ((40, 5), (400, 6), (57, 70)):
        caps = _layer_caps(n, min(r, n))
        table_cap(_estimate_bits(caps))
        assert member_witness(n, r, tri(n) - (n - 1)) is not None
        table_cap(_estimate_bits(caps) - 1)
        with pytest.raises(SpectrumMemoryError):
            member_witness(n, r, tri(n) - (n - 1))


def test_spectrum_guard_counts_built_rows(table_cap):
    # spectrum stores layers 1..r-2 up to their caps, two alive at a time,
    # then streams layer r-1 one row at a time (at most row cap_{r-1}) into
    # the top row n, holding three ints of a streamed row's size and four of
    # the top row's
    for n, r in ((0, 1), (9, 1), (40, 5), (57, 7), (100, 2), (30, 3)):
        k_eff = min(r, max(n, 1))
        caps = _layer_caps(n, k_eff)
        stored = sorted(sum(tri(v) + 1 for v in range(c + 1)) for c in caps[:-2])
        streamed_row = tri(caps[-2]) + 1
        assert _estimate_bits(caps) == sum(stored[-2:]) + 3 * streamed_row + 4 * (tri(n) + 1), (n, r)
        table_cap(_estimate_bits(caps))
        spectrum(n, r)
        table_cap(_estimate_bits(caps) - 1)
        with pytest.raises(SpectrumMemoryError):
            spectrum(n, r)
    # the largest n the default guard admits the DP at (4038 at r = 5 while
    # layer r-1 was stored); at r = 2 no layer is stored and the top row's
    # ints are the whole charge
    for r, limit in ((5, 5534), (2, 58038)):
        assert (_estimate_bits(_layer_caps(limit, r)) <= _DEFAULT_MAX_TABLE_BITS
                < _estimate_bits(_layer_caps(limit + 1, r))), r
    # spectrum(16000, 2) peaked 65 MB above the interpreter's own resident
    # memory on a 2-core x86-64 VM: the charge covers it
    assert _estimate_bits(_layer_caps(16000, 2)) >= 65 * 8_000_000


def route_caps(n):
    """The layer caps of the r = 5 route: the band's layers toward (S, 4),
    then the top row n."""
    return _layer_caps(_cover_plan(n)[2], 4) + [n]


def test_route_guard_counts_band_layers(table_cap):
    # the route stores the band's layers 1..3 up to S/4, S/2 and 3S/4, two
    # alive at a time, streams rows 0..S of layer 4 into the top row, and
    # ORs the cover's run into the top row within its four ints
    for n in (300, 700, 1001):
        s = _cover_plan(n)[2]
        charge = _rows_bits(s // 2) + _rows_bits(3 * s // 4) + 3 * (tri(s) + 1) + 4 * (tri(n) + 1)
        assert _estimate_bits(route_caps(n)) == charge < _estimate_bits(_layer_caps(n, 5)), n
        table_cap(charge)
        spectrum(n, 5)
        assert member_witness(n, 5, tri(n) - (n - 1)) is not None
        table_cap(charge - 1)
        with pytest.raises(SpectrumMemoryError):
            spectrum(n, 5)
        with pytest.raises(SpectrumMemoryError):
            member_witness(n, 5, tri(n) - (n - 1))
    # the largest n the default guard admits the route at: the top row's
    # ints are most of the charge
    assert (_estimate_bits(route_caps(61424)) <= _DEFAULT_MAX_TABLE_BITS
            < _estimate_bits(route_caps(61425)))
    # spectrum(20000, 5) held at most 89 MB of Python objects at a time
    # (tracemalloc, x86-64): the charge covers it
    assert _estimate_bits(route_caps(20000)) >= 89 * 8_000_000


def test_guard_does_not_depend_on_cpu_count():
    # every layer is built in this process, and the package never reads its
    # CPU set (test_hygiene), so one pass checks the limits on any machine:
    # the r = 5 route up to n = 61,424
    assert member_witness(61424, 5, tri(61424)).parts == (61424,)
    with pytest.raises(SpectrumMemoryError):
        member_witness(61425, 5, tri(61425))


def test_refusal_time_does_not_grow_with_n(monkeypatch):
    # the top row's four ints are charged before a cap is listed, so a
    # refusal at n = r costs the same at any n
    monkeypatch.delenv(ENV_MAX_TABLE_BITS, raising=False)
    for n in (10 ** 7, 10 ** 9):
        for call in (spectrum, lambda n, r: member_witness(n, r, 0)):
            start = time.perf_counter()
            with pytest.raises(SpectrumMemoryError):
                call(n, n)
            assert time.perf_counter() - start < 0.05, n


def test_bounds_sweep_guard_counts_two_layers(table_cap):
    # the sweep is a generator: the guard is met on its first report
    first = next(bounds_sweep(400, 9))
    assert (first.n, first.r) == (1, 2)
    table_cap(2 * _rows_bits(60))
    assert next(bounds_sweep(60, 3)) == first
    table_cap(2 * _rows_bits(60) - 1)
    with pytest.raises(SpectrumMemoryError):
        next(bounds_sweep(60, 3))


def test_cover_runs_lie_in_four_clique_spectra():
    # the three-square cover: for odd v, [min_clique_edges(v, 4),
    # floor((4v^2 - 12v - 1)/24)] lies inside C(v, 4)
    nonempty = 0
    for v in range(1, 301, 2):
        lo, hi = _cover_run(v)
        assert lo == min_clique_edges(v, 4), v
        if lo <= hi:
            window = (1 << (hi - lo + 1)) - 1
            assert spectrum(v, 4).mask >> lo & window == window, v
            nonempty += 1
    assert nonempty > 120


@pytest.fixture
def dp_only(monkeypatch):
    """spectrum(n, 5) by the DP at every n: no cover plan."""
    def dp(n):
        with monkeypatch.context() as patch:
            patch.setattr(cliquespec, "_cover_plan", lambda n: None)
            return spectrum(n, 5).mask
    return dp


# n <= 420 at which the cover plan holds; at every other n <= 420 the DP
# builds C(n, 5)
ROUTE_NS = {275, *range(281, 286), *range(288, 421)}


def test_route_matches_dp(dp_only):
    assert {n for n in range(421) if _cover_plan(n) is not None} == ROUTE_NS
    for n in (*range(421), 500, 501, 1000, 1001):
        assert spectrum(n, 5).mask == dp_only(n), n


def test_route_plan_preconditions():
    # where the plan holds: [lo, hi] starts at or above the minimum, and
    # every largest part n - s with s(n - s) <= D has s <= S < n/2
    for n in (*sorted(ROUTE_NS), 1000, 4000, 10_000):
        lo, hi, s = _cover_plan(n)
        deficit = tri(n) - hi - 1
        assert min_clique_edges(n, 5) <= lo <= hi, n
        assert s * (n - s) <= deficit < (s + 1) * (n - s - 1) and 2 * (s + 1) <= n, n


def test_route_count_at_four_thousand():
    # the count the DP gave (35 s at n = 4000); 1,464,440 at n = 2000 is
    # pinned by the acceptance criteria
    assert spectrum(4000, 5).count == 6_020_371


def test_route_at_ten_thousand_agrees_with_recursion(monkeypatch):
    # refused by the guard while the DP built it; under the default cap the
    # route answers, and seeded edge counts across the range and in the
    # band agree with the recursion over the largest part
    monkeypatch.delenv(ENV_MAX_TABLE_BITS, raising=False)
    n = 10_000
    spec = spectrum(n, 5)
    assert spec.count == 38_531_317
    lo, hi, _ = _cover_plan(n)
    rng = random.Random(n)
    es = [rng.randint(0, tri(n)) for _ in range(100)] + [rng.randint(hi + 1, tri(n)) for _ in range(100)]
    es += [min_clique_edges(n, 5) + d for d in (-1, 0, 1)] + [lo - 1, lo, hi, hi + 1]
    members = 0
    for e in es:
        assert (e in spec) == (clique_parts(n, e, 5) is not None), e
        members += e in spec
    assert 100 < members < len(es)


def test_blocked_spectrum_matches_unblocked():
    # n = 0..3B puts the part sizes of the top rows, and of the streamed
    # rows of layer r-1, across block edges
    n_max = 3 * _BLOCK
    uncapped = witness_tables_uncapped(n_max, 7)
    for r in range(1, 8):
        for n in range(n_max + 1):
            mask = spectrum(n, r).mask
            assert mask == uncapped[r - 1][n], (n, r)
            assert mask == spectrum_unblocked(n, r).mask, (n, r)
    assert spectrum(400, 5).mask == spectrum_unblocked(400, 5).mask


def test_bounds_sweep_matches_unblocked():
    n_max = 3 * _BLOCK
    uncapped = witness_tables_uncapped(n_max, 7)
    reps = list(bounds_sweep(n_max, 7))
    assert len(reps) == n_max * 6
    for rep in reps:
        row = uncapped[rep.r - 1][rep.n]
        assert (rep.count, rep.min_element, rep.max_element) == (
            row.bit_count(), (row & -row).bit_length() - 1, row.bit_length() - 1)


def test_capped_witness_rows_match_uncapped():
    for n, r in ((1, 1), (7, 7), (50, 2), (100, 7), (3 * _BLOCK, 5)):
        caps = _layer_caps(n, r)
        layers = [[1]]
        for k in range(1, r):
            layers.append(_layer(layers[-1], k, caps[k]))
        top = _row(layers[-1], n, r)
        uncapped = witness_tables_uncapped(n, r)
        assert layers[0] == [1]
        for k in range(1, r):
            assert layers[k] == uncapped[k - 1][:caps[k] + 1], (n, r, k)
        assert top == uncapped[r - 1][n]
        if r > 1:  # the same row with layer r - 1 streamed
            assert _top(layers[-2], n, r, caps[r - 1]) == top, (n, r)


@functools.cache
def tail_sums(v, k, largest):
    return frozenset(sum(tri(p) for p in parts) for parts in bounded_partitions(v, k, largest))


def bits(row):
    return {e for e in range(row.bit_length()) if row >> e & 1}


def test_bounded_rows_hold_every_canonical_tail():
    # toward row n of layer r, row v of stored layer k takes largest parts
    # up to M = floor((n - v)/(r - k)) and streamed row w of layer r - 1 up
    # to M = n - w: each row holds the edge sums of every partition of its
    # budget into at most k parts no larger than M, and lies inside C(v, k)
    for n in range(41):
        for r in range(2, 8):
            caps = _layer_caps(n, r)
            layers = [[1]]
            for k in range(1, r - 1):
                layers.append(_layer(layers[-1], k, caps[k], (n, r)))
            streamed = _StreamedLayer(layers[-1], r - 1, caps[r - 1], n)
            rows = [(v, k, layers[k][v], (n - v) // (r - k)) for k in range(1, r - 1) for v in range(caps[k] + 1)]
            rows += [(w, r - 1, streamed[w], n - w) for w in range(caps[r - 1] + 1)]
            for v, k, row, largest in rows:
                assert tail_sums(v, k, largest) <= bits(row) <= tail_sums(v, k, v), (n, r, k, v)


def test_bounded_rows_read_count(monkeypatch):
    # every read _row makes of the layer below is one (k, v, a) with
    # ceil(v/k) <= a <= min(v, M), M the row's bound: count spectrum(200, 5)'s
    reads, real_row = [0], cliquespec._row

    class Counted:
        def __init__(self, prev):
            self.prev = prev

        def __getitem__(self, v):
            reads[0] += 1
            return self.prev[v]
    monkeypatch.setattr(cliquespec, "_row", lambda prev, v, k, hi=None: real_row(Counted(prev), v, k, hi))
    n, r = 200, 5
    caps = _layer_caps(n, r)

    def count(bounded):
        def parts(v, k, largest):
            return max(0, min(v, largest if bounded else v) - -(-v // k) + 1)
        stored = sum(parts(v, k, (n - v) // (r - k)) for k in range(1, r - 1) for v in range(caps[k] + 1))
        streamed = sum(parts(w, r - 1, n - w) for w in range(caps[r - 1] + 1))
        return stored + streamed + parts(n, r, n)
    assert spectrum(n, r).mask == spectrum_unblocked(n, r).mask
    assert reads[0] == count(bounded=True) == 10_088
    assert count(bounded=False) > 1.5 * reads[0]


# Layer caps odd and even, and across block edges.
LAYER_CAPS = (0, 1, 2, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)


def serial_layers(cap, depth):
    layers = [[1]]
    for k in range(1, depth + 1):
        layers.append([_row(layers[-1], v, k) for v in range(cap + 1)])
    return layers


@pytest.mark.parametrize("depth", [2, 3])
def test_split_layer_matches_serial(depth):
    # _layer builds its rows largest first: it gives the rows built one by
    # one in increasing order, for every layer up to depth
    serial = serial_layers(max(LAYER_CAPS), depth)
    for cap in LAYER_CAPS:
        for k in range(1, depth + 1):
            assert _layer(serial[k - 1], k, cap) == serial[k][:cap + 1], (cap, k)


@pytest.mark.parametrize("depth", [2, 3])
def test_split_top_matches_serial(monkeypatch, depth):
    # _top streams layer k - 1 for every top layer k up to depth + 1; n runs
    # over LAYER_CAPS, so the streamed rows do too
    serial = serial_layers(max(LAYER_CAPS), depth)
    for n in LAYER_CAPS:
        for k in range(2, depth + 2):
            assert _top(serial[k - 2], n, k, n * (k - 1) // k) == _row(serial[k - 1], n, k), (n, k)
    assert spectrum(3 * _BLOCK, 5).mask == spectrum_unblocked(3 * _BLOCK, 5).mask
    # each streamed row 0..cap is built once
    built, real_row = [], cliquespec._row
    monkeypatch.setattr(cliquespec, "_row", lambda prev, v, k, hi=None: built.append((v, k)) or real_row(prev, v, k, hi))
    n = 2 * _BLOCK + 1
    assert _top(serial[1], n, 3, n * 2 // 3) == real_row(serial[2], n, 3)
    assert sorted(v for v, k in built if k == 2) == list(range(n * 2 // 3 + 1))


def test_interval_vacuous_case():
    rep = verify_interval(500, 7, 0.5 + 2100 / 500, 66)
    assert rep.vacuous and rep.ok and rep.first_gap is None
    assert rep.hi < 0


def test_interval_direct_cases():
    rep = verify_interval(200, 9, 1, 1)
    assert not rep.vacuous
    assert rep.ok is False and rep.first_gap == 14739  # pinned from first verified run
    spec = spectrum(200, 9)
    assert rep.first_gap not in spec
    assert all(e in spec for e in range(rep.lo, rep.first_gap))

    rep = verify_interval(30, 3, 0, 0, clip=True)
    assert rep.ok is False and rep.first_gap == 150  # pinned from first verified run
    assert rep.first_gap not in spectrum(30, 3)


def test_interval_endpoints_exact():
    # finite coefficients of any size: an empty interval is vacuous, and a
    # top far above tri(n) is scanned only up to tri(n) + 1
    rep = verify_interval(10, 2, 1e308, 0)
    assert rep.vacuous and rep.ok and (rep.lo, rep.hi) == (10 ** 309 + 25, 45)
    rep = verify_interval(10, 2, 0, -1e20)
    assert (rep.ok, rep.first_gap, rep.lo, rep.hi) == (False, 25, 25, 45 + isqrt(10 ** 43))
    # a coefficient is read as the decimal it prints as: 9/10 + 3 * 4.7 is
    # 15 and 16/10 + 4 * 0.1 is 2, where float sums give 15.000000000000002
    assert verify_interval(3, 5, 4.7, 0).lo == 15
    assert verify_interval(4, 5, 0.1, 0).lo == 2
    # the scan runs past tri(n) only to reach lo
    assert verify_interval(1, 2, 1, -3.3).first_gap == 2


def test_interval_hi_is_exact_floor():
    # hi is the largest integer h with c_high n^1.5 <= tri(n) - h, decided
    # exactly by squares, for c_high read as the decimal it prints as
    def below(h, n, c):
        t = tri(n) - h
        return t >= 0 and t * t >= c * c * n ** 3 if c >= 0 else t >= 0 or t * t <= c * c * n ** 3

    rng = random.Random(150)
    cases = [(4, 0.5), (4, -0.5), (16, 0.25), (9, 2.0), (9, -2.0), (25, 0.0), (1, 7.5)]
    cases += [(rng.randrange(1, 60), round(rng.uniform(-8, 8), rng.randrange(4)))
              for _ in range(300)]
    for n, c_high in cases:
        hi = verify_interval(n, 2, 0, c_high).hi
        c = Fraction(repr(c_high))
        assert below(hi, n, c) and not below(hi + 1, n, c), (n, c_high, hi)
    # 0.5 * 4^1.5 = 4 is whole: hi is tri(4) - 4, not one less
    assert verify_interval(4, 2, 0, 0.5).hi == 2
    assert verify_interval(4, 2, 0, -0.5).hi == 10


def test_interval_rejects_bad_n_r():
    # checked as spectrum checks them, before the interval divides by 2r
    for n, r in ((5, 0), (-1, 3)):
        with pytest.raises(ValueError):
            verify_interval(n, r, 0, 0)
    for c_low, c_high in ((0, float("inf")), (float("-inf"), 0), (float("nan"), 0)):
        with pytest.raises(ValueError, match="finite"):
            verify_interval(30, 3, c_low, c_high)


def test_interval_agrees_with_member_scan():
    # the bit-window logic matches an independent scan of the member list
    for n, r, c_low, c_high in ((12, 12, 0, 0), (30, 3, 0, 0), (25, 4, 1, 0.5),
                                (18, 2, 0, 0), (40, 6, 2, 0)):
        rep = verify_interval(n, r, c_low, c_high, clip=True)
        members = set(spectrum(n, r).members())
        if rep.lo > rep.hi:
            assert rep.vacuous and rep.ok
            continue
        gaps = [e for e in range(rep.lo, rep.hi + 1) if e not in members]
        assert rep.ok == (not gaps), (n, r)
        assert rep.first_gap == (gaps[0] if gaps else None), (n, r)


def test_shift_inclusion():
    assert shift_inclusion_check(8, 2)
    assert shift_inclusion_check(3, 2)   # n = r + 1 degenerate shift
    assert shift_inclusion_check(60, 4)
    for n in range(5, 40, 7):
        for r in range(2, 5):
            assert shift_inclusion_check(n, r), (n, r)


@pytest.mark.parametrize("r", [-1, 0])
def test_shift_inclusion_checks_r_as_spectrum_does(r):
    # n // (r + 1) divided by zero at r = -1: r < 1 is refused first, as spectrum refuses it
    with pytest.raises(ValueError, match="r must be >= 1"):
        shift_inclusion_check(10, r)
    with pytest.raises(ValueError, match="r must be >= 1"):
        spectrum(10, r)


def test_export_roundtrip():
    spec = spectrum(9, 3)
    lines = spec.export_lines()
    back = parse_export(lines)
    assert back.mask == spec.mask and back.n == spec.n
    # members read off the mask a chunk of bytes at a time, across chunk edges
    chunk = 8 * cliquespec._EXPORT_CHUNK_BYTES
    members = [0, 5, chunk - 1, chunk, chunk + 1, 2 * chunk + 7]
    spec = from_members(1500, None, members)
    lines = list(spec.export_lines())
    assert lines[1:] == [f"{e}\n" for e in members] == [f"{e}\n" for e in spec.members()]
    assert parse_export(lines).mask == spec.mask


def test_export_header_fields():
    import json

    header = json.loads(next(spectrum(5, 2).export_lines()))
    assert header == {"n": 5, "r": 2, "count": 3, "min": 4, "max": 10}


def test_export_empty_set():
    empty = from_members(4, None, [])
    lines = list(empty.export_lines())
    assert len(lines) == 1
    assert parse_export(lines).mask == 0


@pytest.mark.parametrize("lines", [[], [""], ["[4]"], ['{"r": 2, "count": 0}'],
                                   ['{"n": 4, "r": 2}', "6"], ['{"n": 4, "count": 2}', "6"],
                                   ['{"n": "4", "count": 0}'], ['{"n": -3, "count": 0}'],
                                   ['{"n": 4.0, "count": 0}'], ['{"n": 4, "count": "0"}']])
def test_export_malformed_input_is_a_value_error(lines):
    with pytest.raises(ValueError):
        parse_export(lines)


def _from_members_by_or(n, members):
    mask = 0
    for e in members:
        if not 0 <= e <= tri(n):
            raise ValueError(e)
        mask |= 1 << e
    return mask


def test_from_members_matches_or_loop():
    spec = spectrum(60, 4)
    for n, members in ((4, []), (4, [0]), (4, [6]), (4, [6, 0, 3, 3]), (5, range(11)),
                       (60, spec.members()), (60, reversed(spec.members()))):
        members = list(members)
        got = from_members(n, 2, members)
        assert got.mask == _from_members_by_or(n, members) and (got.n, got.r) == (n, 2)
    for bad in ([7], [-1], [0, 3, 11]):
        with pytest.raises(ValueError):
            from_members(4, None, bad)



def test_members_match_per_bit_read():
    def per_bit(mask):
        return [e for e in range(mask.bit_length()) if mask >> e & 1]

    specs = [spectrum(n, r) for n in range(61) for r in range(1, 7)]
    # every mask below 2^11, and runs of ones of every length up to 300
    masks = list(range(1 << 11)) + [(1 << k) - 1 for k in range(301)] + [((1 << 300) - 1) << 7]
    specs += [EdgeSpectrum(30, None, mask) for mask in masks]  # tri(30) = 435
    for spec in specs:
        assert spec.members() == per_bit(spec.mask), (spec.n, spec.r, spec.mask)
