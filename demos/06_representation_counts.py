#!/usr/bin/env python3
"""Representation counts: five-clique membership by quadratic counting.

Each 4-tuple (x1..x4) with positive coordinates and bounded sum realizes
the edge count m = sum tri(x_i) + tri(n - sum x_i), so a positive count
R(m) certifies that m is the edge count of a union of five cliques.  The
demo builds the histogram, cross-validates its support against the exact
spectrum, and scans for unrepresented values in the middle range.  (The
tests compare the weighted count with a plain 4-loop count.)
"""

from edgespectra import exceptional_count, rep_histogram, spectrum

n, N = 300, 60
print("=" * 72)
print(f"1. Histogram at n={n}, coordinate cap N={N}")
print("=" * 72)
hist = rep_histogram(n, N)
support = hist.support()
print(f"  tuples counted: {hist.total_tuples}")
peak = max(range(len(hist.counts)), key=hist.counts.__getitem__)  # the first largest count
print(f"  distinct realized m: {len(support)} "
      f"(from {support[0]} to {support[-1]})")
print(f"  largest count: R({peak}) = {hist.counts[peak]}")

print()
print("=" * 72)
print("2. Every realized m really is a five-clique edge count")
print("=" * 72)
spec = spectrum(n, 5)
escaped = [m for m in support if m not in spec]
print(f"  support size {len(support)}, escapes from C({n},5): {len(escaped)}")

print()
print("=" * 72)
print("3. Scanning the middle range for unrepresented values")
print("=" * 72)
rep = exceptional_count(n, N, 0.02 * n * n, 0.02 * n * n)
print(f"  range [{rep.lo}, {rep.hi}]: {rep.zeros} zeros of {rep.total} "
      f"({rep.fraction:.1%})")
rep = exceptional_count(n, 2 * N // 3, 0.02 * n * n, 0.02 * n * n)
print(f"  with the cap lowered to {2 * N // 3}: zero fraction {rep.fraction:.1%}")
print("  (a tighter coordinate cap certifies fewer values)")

print()
print("=" * 72)
print("4. Asymptotic-faithful mode degenerates at small n and says so")
print("=" * 72)
rep = exceptional_count(100, asymptotic=True)
print(f"  n=100: coordinate cap N={rep.N}, range_empty={rep.range_empty}, "
      f"log base: {rep.log_base}")
rep = exceptional_count(500, asymptotic=True)
print(f"  n=500: N={rep.N}, range=[{rep.lo}, {rep.hi}], "
      f"zeros={rep.zeros} of {rep.total}")
