#!/usr/bin/env python3
"""Edge spectra of clique unions: exact sets, witnesses, densities, intervals.

C(n, r) is the set of edge counts of n-vertex graphs formed by at most r
disjoint cliques.  The demo computes small spectra with witnesses, then
measures how fast the r = 5 spectrum fills its range as n grows, up to
n = 10^4, where C(n, 5) comes from the three-square cover and its top band.
"""

import time

from edgespectra import (
    density_and_bounds,
    member_witness,
    spectrum,
    verify_interval,
)
from edgespectra.triangles import tri

print("=" * 72)
print("1. Small spectra and witnesses")
print("=" * 72)
for n, r in ((5, 2), (10, 3), (12, 4)):
    spec = spectrum(n, r)
    print(f"  C({n},{r}): {spec.count} members, min={spec.min_element}, "
          f"max={spec.max_element}")
    if n <= 10:
        print(f"    members: {spec.members()}")
    for m in (spec.min_element, spec.max_element):
        w = member_witness(n, r, m)
        print(f"    witness for {m}: cliques {w.parts}")

print()
print("=" * 72)
print("2. Bounds: min element >= n^2/2r - n/2, count <= n^2/2 - n^2/2r + 1")
print("=" * 72)
for n in (50, 200, 400):
    for r in (2, 5, 9):
        rep = density_and_bounds(n, r)
        lb = n * n / (2 * r) - n / 2
        print(f"  n={n:>4} r={r}: min={rep.min_element:>6} (bound {lb:>9.1f})  "
              f"count={rep.count:>6}  ok={rep.bounds_ok}")

print()
print("=" * 72)
print("3. Density of C(n, 5) vs the limiting value 1 - 1/5 = 0.8")
print("=" * 72)
for n in (125, 250, 500, 1000, 2000, 4000, 10_000):
    t0 = time.time()
    rep = density_and_bounds(n, 5)
    gap = abs(rep.density - 0.8)
    print(f"  n={n:>6}: d(n)={rep.density:.6f}  |d-0.8|={gap:.4f}  "
          f"|d-0.8|*sqrt(n)={gap * n ** 0.5:.2f}  [{time.time() - t0:.2f}s]")
print("  measurements only: the gaps of C(n, 5) sit in its top band, just below tri(n)")

print()
print("=" * 72)
print("4. Interval membership with gap reporting")
print("=" * 72)
rep = verify_interval(200, 9, 1, 1)
print(f"  [{rep.lo}, {rep.hi}] inside C(200,9)? {rep.ok}; first gap: {rep.first_gap}")
rep = verify_interval(200, 9, 1, 4)
print(f"  backing the top margin off to 4*n^1.5: [{rep.lo}, {rep.hi}] ok={rep.ok}")
rep = verify_interval(500, 7, 0.5 + 2100 / 500, 66)
print(f"  the r=7 window at n=500 is empty (hi={rep.hi}): vacuous={rep.vacuous}")

print()
print("=" * 72)
print("5. Shift inclusion: C(n - s, r) + tri(s) lands inside C(n, r+1)")
print("=" * 72)
for n, r in ((8, 2), (30, 3), (60, 4)):
    s = n // (r + 1)
    big = spectrum(n, r + 1).mask  # bit e set for each member e
    print(f"  n={n}, r={r}, s={s}: {spectrum(n - s, r).mask << tri(s) | big == big}")
