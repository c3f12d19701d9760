#!/usr/bin/env python3
"""Exhaustive small-graph ground truth for the arrow relation.

(n, e) -> (m, f) means every n-vertex graph with e edges has an induced
m-subset spanning exactly f edges.  Every query scans a catalogue of one
graph per isomorphism class: labeled queries (n <= 7) report the
lowest-numbered labeled counterexample, and dedup queries reach n = 8
and report the first catalogued one.  Also runs the random-subset
concentration experiment.
"""

from edgespectra import (
    arrow,
    canonical_reps,
    compute_Snm,
    concentration_experiment,
    induced_closure_check,
    interval_runs,
    turan_check,
    turan_number,
)
from edgespectra.triangles import tri

print("=" * 72)
print("1. Arrow queries and counterexamples")
print("=" * 72)
res = arrow(3, 1, 2, 1)
print(f"  (3,1) -> (2,1): {res.holds}  (an edge forces an induced edge)")
res = arrow(5, 6, 3, 3)
print(f"  (5,6) -> (3,3): {res.holds}; counterexample edges: "
      f"{res.counterexample.edge_list()}")
print("   (the balanced complete bipartite graph: 6 edges, no triangle)")

print()
print("=" * 72)
print("2. Arrow sets S_n(m, f) and their run structure")
print("=" * 72)
for n, m, f in ((5, 3, 3), (6, 3, 2), (7, 4, 3), (6, 4, 0)):
    rep = interval_runs(n, m, f)
    members = compute_Snm(n, m, f).members()
    print(f"  S_{n}({m},{f}) = {members}")
    print(f"    runs: {list(rep.runs)}  covered fraction: {rep.covered_fraction:.3f}")

print()
print("=" * 72)
print("3. The classical threshold: (n,e) -> (m, tri(m)) iff e > t_(m-1)(n)")
print("=" * 72)
for n in range(4, 8):
    for m in (3, 4):
        ok = turan_check(n, m)
        print(f"  n={n}, m={m}: threshold={turan_number(n, m - 1):>2}  matches={ok}")

print()
print("=" * 72)
print("4. Isomorphism-reduced catalogue")
print("=" * 72)
for n in range(2, 8):
    print(f"  {n} vertices: {len(canonical_reps(n))} isomorphism classes")
print(f"  (5,6) -> (3,3) fails on K_2,3 (t_2(5) = {turan_number(5, 2)}); a labeled query")
print("  reports its lowest-numbered labeling, a dedup query the catalogued one:")
print(f"    labeled: {arrow(5, 6, 3, 3).counterexample.edge_list()}")
print(f"    dedup:   {arrow(5, 6, 3, 3, dedup=True).counterexample.edge_list()}")

print()
print("=" * 72)
print("5. Induced closure: m-subsets of clique unions stay inside C(m, r)")
print("=" * 72)
print(f"  exhaustive n=10, r=3, m=5: {induced_closure_check(10, 3, 5)}")
print(f"  randomized n=12, r=4, m=6: {induced_closure_check(12, 4, 6, trials=5000)}")

print()
print("=" * 72)
print("6. Concentration of induced edge counts of random subsets")
print("=" * 72)
rep = concentration_experiment(6, 5, 3, trials=2000, seed=0)
print(f"  (N,E,n)=(6,5,3): exact mean by full enumeration = {rep.enum_mean} "
      f"(identity holds: {rep.expectation_identity_ok})")
rep = concentration_experiment(200, 5000, 30, trials=50_000, seed=42)
print(f"  (N,E,n)=(200,5000,30): expected={rep.expected_mean:.3f} "
      f"empirical={rep.empirical_mean:.3f} std={rep.empirical_std:.2f}")
for t in rep.tails:
    print(f"    tail t={t.t:7.1f}: bound={t.bound:.4f} observed={t.observed:.5f} ok={t.ok}")
