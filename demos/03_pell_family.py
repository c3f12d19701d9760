#!/usr/bin/env python3
"""The x^2 - 7y^2 = -3 family and its pairs of density exactly 1/2.

Generates solutions by the (8x + 21y, 3x + 8y) recurrence, derives the
pairs (m, f) = (5t + 2, tri(3t + 1)) from odd y at even indices, and
re-verifies the three defining properties of each pair; the
no-two-cliques property is certified by one exact discriminant test.
"""

from edgespectra import classify_pair, family_pair, min_r, pell_solutions, verify_ABC

print("=" * 72)
print("1. Solutions from seed (2, 1)")
print("=" * 72)
for s in pell_solutions(6):
    parity = "x even, y odd" if s.x % 2 == 0 and s.y % 2 else ""
    print(f"  k={s.k}: x={s.x:>12}  y={s.y:>12}  {parity}")

print()
print("=" * 72)
print("2. Derived pairs (every even index gives one)")
print("=" * 72)
for k in (1, 2, 3):
    fp = family_pair(k)
    print(f"  k={k}: t={fp.t:>10}  m={fp.m:>10}  f={fp.f:>18}")
    print(f"        a={fp.a}  b={fp.b}  c={fp.c}  triple witness={fp.triple_witness()}")

print()
print("=" * 72)
print("3. Property verification (A: identities, B: 3-clique rep, C: no 2-clique rep)")
print("=" * 72)
for k in (1, 2, 3):
    rep = verify_ABC(family_pair(k))
    print(f"  k={k}: A={rep.a_ok} B={rep.b_ok} C={rep.c_ok} "
          f"(certificate covers all {rep.c_scanned} two-clique splits)")

print()
print("=" * 72)
print("4. Cross-check with the verdict engine")
print("=" * 72)
for k in (1, 2):
    fp = family_pair(k)
    r = min_r(fp.m, fp.f)
    v = classify_pair(fp.m, fp.f)
    print(f"  k={k}: minimal clique rank={r}, certified density = {v.exact}")
