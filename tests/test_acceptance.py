"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible under `pytest -s`)
with its wall time against the stated budget, then asserts the criterion
at its stated tolerance.  Pinned values marked "first verified run" are
frozen regression outputs of this implementation.
"""

import random
import time
from fractions import Fraction

import numpy as np

import edgespectra as es
from edgespectra.cliquespec import bounded_partitions
from edgespectra.triangles import tri
from oracles import bounds_sweep, rep_histogram_naive

# regression pins from the first verified run
DENSITY_COUNTS = {500: 83295, 1000: 352061, 2000: 1464440}
EXCEPTIONAL_300 = {"zeros": 6753, "total": 32251}


def report(num: int, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num:2d}  ({elapsed:6.1f}s / {budget:.0f}s)  {detail}")


def sieve_three_squares(limit: int) -> np.ndarray:
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


def test_criterion_01_gauss_cross_check():
    budget, limit = 30.0, 10 ** 6
    t0 = time.perf_counter()
    oracle = sieve_three_squares(limit)
    mismatch_formula = mismatch_decomp = 0
    for v in range(limit + 1):
        member = es.is_three_square(v)
        if member != bool(oracle[v]):
            mismatch_formula += 1
        if member != (es.three_square_decomp(v) is not None):
            mismatch_decomp += 1
    elapsed = time.perf_counter() - t0
    ok = mismatch_formula == 0 == mismatch_decomp and elapsed < budget
    report(1, ok, elapsed, budget,
           f"formula mismatches={mismatch_formula} decomp mismatches={mismatch_decomp}")
    assert mismatch_formula == 0 and mismatch_decomp == 0
    assert elapsed < budget


def test_criterion_02_bennett():
    budget = 5.0
    t0 = time.perf_counter()
    sols = es.bennett_search(10 ** 4)
    elapsed = time.perf_counter() - t0
    ok = sols == [(3, 2)] and elapsed < budget
    report(2, ok, elapsed, budget, f"solutions={sols}")
    assert sols == [(3, 2)]
    assert elapsed < budget


def test_criterion_03_pell_family():
    budget = 10.0
    t0 = time.perf_counter()
    sols = es.pell_solutions(16)
    pell_ok = all(s.x * s.x - 7 * s.y * s.y == -3 for s in sols)
    parity_ok = all(sols[2 * k].x % 2 == 0 and sols[2 * k].y % 2 == 1
                    for k in range(len(sols) // 2 + 1) if 2 * k < len(sols))
    abc_ok = True
    for k in (1, 2, 3):
        rep = es.verify_ABC(es.family_pair(k))
        abc_ok &= rep.all_ok
    elapsed = time.perf_counter() - t0
    ok = pell_ok and parity_ok and abc_ok and elapsed < budget
    report(3, ok, elapsed, budget,
           f"pell_ok={pell_ok} parity_ok={parity_ok} ABC(k=1..3)={abc_ok}")
    assert pell_ok and parity_ok and abc_ok
    assert elapsed < budget


def test_criterion_04_turan_restatement():
    budget = 120.0
    t0 = time.perf_counter()
    bad = []
    for n in range(4, 8):
        for m in (3, 4):
            s = set(es.compute_Snm(n, m, tri(m)).members())
            expected = set(range(es.turan_number(n, m - 1) + 1, tri(n) + 1))
            if s != expected:
                bad.append((n, m))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < budget
    report(4, ok, elapsed, budget, f"mismatches={bad}")
    assert not bad
    assert elapsed < budget


def test_criterion_05_complement_symmetry():
    budget = 300.0
    t0 = time.perf_counter()
    bad = 0
    for n in range(2, 7):
        for m in range(2, min(4, n) + 1):
            for f in range(tri(m) + 1):
                s = set(es.compute_Snm(n, m, f).members())
                sc = set(es.compute_Snm(n, m, tri(m) - f).members())
                if s != {tri(n) - e for e in sc}:
                    bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < budget
    report(5, ok, elapsed, budget, f"asymmetric cases={bad}")
    assert bad == 0
    assert elapsed < budget


def test_criterion_06_spectrum_bounds_and_brute_force():
    budget = 180.0
    t0 = time.perf_counter()
    violations = [rep for rep in bounds_sweep(400, 9) if not rep.bounds_ok]
    brute_bad = []
    for n in range(0, 19):
        for r in range(1, 6):
            dp = set(es.spectrum(n, r).members())
            br = ({sum(tri(p) for p in parts) for parts in bounded_partitions(n, r)}
                  if n else {0})
            if dp != br:
                brute_bad.append((n, r))
    elapsed = time.perf_counter() - t0
    ok = not violations and not brute_bad and elapsed < budget
    report(6, ok, elapsed, budget,
           f"bound violations={len(violations)} brute mismatches={brute_bad}")
    assert not violations
    assert not brute_bad
    assert elapsed < budget


def test_criterion_07_density_proxy():
    budget = 300.0
    t0 = time.perf_counter()
    reps = {n: es.density_and_bounds(n, 5) for n in (500, 1000, 2000)}
    densities = [reps[n].density for n in (500, 1000, 2000)]
    nondecreasing = densities == sorted(densities)
    pins_ok = all(reps[n].count == DENSITY_COUNTS[n] for n in reps)
    gap = abs(reps[2000].density - 0.8)
    within = gap <= 0.05
    elapsed = time.perf_counter() - t0
    ok = nondecreasing and pins_ok and within and elapsed < budget
    report(7, ok, elapsed, budget,
           f"densities={[f'{d:.4f}' for d in densities]} nondecreasing={nondecreasing} "
           f"pins_ok={pins_ok} |d(2000)-0.8|={gap:.4f} (tolerance 0.05)")
    assert nondecreasing
    assert pins_ok
    # The measured gap follows ~3.0/sqrt(n) (0.132 at n=500, 0.095 at n=1000,
    # 0.067 at n=2000), so the 0.05 tolerance is not reachable at n = 2000;
    # the assertion is kept at the stated tolerance and fails honestly.
    assert within, (
        f"density at n=2000 is {reps[2000].density:.4f}; "
        f"|d - 0.8| = {gap:.4f} exceeds the stated 0.05 tolerance "
        "(empirically the gap scales as ~3.0/sqrt(n), giving 0.067 at n=2000)"
    )
    assert elapsed < budget


def test_criterion_08_witness7_campaign():
    budget, samples = 300.0, 10 ** 4
    t0 = time.perf_counter()
    n = 30000
    lo, hi = es.r7_interval(n)
    nonempty = lo <= hi
    rng = random.Random(20260808)
    window_exhausted = invalid = 0
    for _ in range(samples):
        m = rng.randint(lo, hi)
        try:
            es.witness7(n, m).validate()
        except es.WindowExhausted:
            window_exhausted += 1
        except AssertionError:
            invalid += 1
    elapsed = time.perf_counter() - t0
    ok = nonempty and window_exhausted == 0 and invalid == 0 and elapsed < budget
    report(8, ok, elapsed, budget,
           f"interval=[{lo},{hi}] samples={samples} "
           f"window_exhausted={window_exhausted} invalid={invalid}")
    assert nonempty and window_exhausted == 0 and invalid == 0
    assert elapsed < budget


def test_criterion_09_induced_closure():
    budget = 60.0
    t0 = time.perf_counter()
    closed = es.induced_closure_check(10, 3, 5)
    elapsed = time.perf_counter() - t0
    ok = closed and elapsed < budget
    report(9, ok, elapsed, budget, f"exhaustive n=10 r=3 m=5 closed={closed}")
    assert closed
    assert elapsed < budget


def test_criterion_10_representation_identity():
    budget = 120.0
    t0 = time.perf_counter()
    hist = es.rep_histogram(300, 60)
    spec = es.spectrum(300, 5)
    escaped = [m for m in hist.support() if m not in spec]
    naive_equal = es.rep_histogram(60, 12).counts == rep_histogram_naive(60, 12).counts
    elapsed = time.perf_counter() - t0
    ok = not escaped and naive_equal and elapsed < budget
    report(10, ok, elapsed, budget,
           f"support={len(hist.support())} escaped={len(escaped)} naive_equal={naive_equal}")
    assert not escaped
    assert naive_equal
    assert elapsed < budget


def test_criterion_11_concentration():
    budget = 60.0
    t0 = time.perf_counter()
    exact = es.concentration_experiment(6, 5, 3, trials=100, seed=5)
    identity_ok = exact.expectation_identity_ok and exact.enum_mean == Fraction(1)
    mc = es.concentration_experiment(200, 5000, 30, trials=10 ** 5, seed=42)
    elapsed = time.perf_counter() - t0
    ok = identity_ok and mc.tails_ok and elapsed < budget
    report(11, ok, elapsed, budget,
           f"exact_mean={exact.enum_mean} tails_ok={mc.tails_ok}")
    assert identity_ok
    assert mc.tails_ok
    assert elapsed < budget


def test_criterion_12_classify_regressions():
    budget = 1.0
    t0 = time.perf_counter()
    bad = []
    for m, f in ((7, 9), (7, 12)):
        if es.classify_pair(m, f).exact != 0:
            bad.append((m, f, "exact 0"))
    for m, f in ((7, 10), (7, 11)):
        v = es.classify_pair(m, f)
        if v.exact is not None or v.upper > Fraction(1, 2):
            bad.append((m, f, "upper 1/2"))
    for m, f in ((3, 2), (4, 2), (4, 4), (5, 5), (6, 6), (6, 9), (6, 7), (6, 8)):
        if es.classify_pair(m, f).exact != 0:
            bad.append((m, f, "exact 0"))
    for m, f in es.SPECIAL_PAIRS:
        if es.classify_pair(m, f).exact != 1:
            bad.append((m, f, "exact 1"))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < budget
    report(12, ok, elapsed, budget, f"failures={bad}")
    assert not bad
    assert elapsed < budget
