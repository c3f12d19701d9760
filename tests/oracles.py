"""Reference routes that the package no longer ships, kept as test oracles.

Each one computes what a package function computes by a plainer, slower
route; the tests require equal results.
"""

import json
import math
from fractions import Fraction
from itertools import combinations, permutations
from math import isqrt
from typing import Iterator, Optional
from unittest import mock

import numpy as np

from edgespectra import graphs, squares
from edgespectra.certify import PairMF, _rank_budget, _z_window, three_part_witness
from edgespectra.cliquespec import DensityReport, EdgeSpectrum, _check_n_r, _density_report, spectrum
from edgespectra.graphs import (_achieved, _move_bits, _pair_dest, canonical_reps,
                                subset_pair_mask)
from edgespectra.repcount import RepHistogram
from edgespectra.triangles import (BudgetExceeded, WalkBudget, clique_parts, int_roots,
                                   min_clique_edges, tri, two_part_witness)


def replace(record, **changes):
    """record with the given fields changed, rebuilt through its class's
    constructor, so a validating record is validated again, as
    dataclasses.replace did; a record's own _replace skips that."""
    return type(record)(**{**record._asdict(), **changes})


def rep_histogram_naive(n: int, N: int, sum_cap: Optional[int] = None) -> RepHistogram:
    """repcount.rep_histogram by plain 4 nested loops over ordered tuples."""
    sum_cap = n if sum_cap is None else sum_cap
    counts = [0] * (tri(n) + 1)
    for x1 in range(1, N + 1):
        for x2 in range(1, N + 1):
            for x3 in range(1, N + 1):
                for x4 in range(1, N + 1):
                    s = x1 + x2 + x3 + x4
                    if s > sum_cap:
                        continue
                    q = x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4 + (s - n) ** 2
                    counts[(q - n) // 2] += 1
    return RepHistogram(n=n, N=N, sum_cap=sum_cap, counts=tuple(counts))


def _find_t0_linear(n: int, m: int) -> int:
    """squares._find_t0 by a linear scan instead of the closed form."""
    top = n // 7
    t = 0
    while t + 1 <= top and squares._f_of_t(t + 1, m, n) <= 0:
        t += 1
    return t


def witness7_linear_t0(n: int, m: int) -> squares.Witness7:
    """squares.witness7 with its pivot found by the linear scan."""
    with mock.patch.object(squares, "_find_t0", _find_t0_linear):
        return squares.witness7(n, m)


def bennett_search_scan(y_limit: int) -> list[tuple[int, int]]:
    """squares.bennett_search by one quadratic in x per y instead of the
    negative Pell orbit: x(x - 1) = y^2 (y^2 - 1)/2, the larger root."""
    hits = []
    for y in range(2, y_limit + 1):
        roots = int_roots(1, -(y * y * (y * y - 1) // 2))
        if roots:
            hits.append((roots[1], y))
    return hits


def three_square_decomp_descent(v: int) -> Optional[squares.ThreeSquareDecomp]:
    """squares.three_square_decomp by the per-step descent it ran before
    the first_square kernel: the same x order and y-windows, each y-step
    charged to the budget of squares._DESCENT_STEPS and tested by its own
    isqrt, and BudgetExceeded raised on the first step past it."""
    if v < 0:
        raise ValueError(f"need v >= 0, got {v}")
    if not squares.is_three_square(v):
        return None
    u, k = v, 0
    while u and u % 4 == 0:
        u, k = u // 4, k + 1
    left = squares._DESCENT_STEPS
    for x in range(isqrt(u), -1, -1):
        w = u - x * x
        if w > 2 * x * x:
            break
        y = min(x, isqrt(w))
        while 2 * y * y >= w:
            if not left:
                raise BudgetExceeded(
                    f"three-square descent of v = {v} walked all {squares._DESCENT_STEPS} "
                    f"y-steps of its budget, down to x = {x}")
            left -= 1
            z2 = w - y * y
            z = isqrt(z2)
            if z * z == z2:
                return squares.ThreeSquareDecomp(target=v, x=x << k, y=y << k, z=z << k)
            y -= 1
    return None


def from_members(n: int, r: Optional[int], members) -> EdgeSpectrum:
    """The EdgeSpectrum on n vertices whose members are the given edge
    counts, each in [0, tri(n)]; ValueError on one outside."""
    cap = tri(n)
    buf = bytearray(cap // 8 + 1)
    for e in members:
        if not 0 <= e <= cap:
            raise ValueError(f"edge count {e} outside [0, {cap}]")
        buf[e >> 3] |= 1 << (e & 7)
    return EdgeSpectrum(n=n, r=r, mask=int.from_bytes(buf, "little"))


def parse_export(lines) -> EdgeSpectrum:
    """The EdgeSpectrum that EdgeSpectrum.export_lines wrote: a JSON header
    with n and count, then one member per line.  ValueError on a missing
    or malformed header or a member count that disagrees with it."""
    it = iter(lines)
    try:
        header = json.loads(next(it))
        n, count = header["n"], header["count"]
    except (StopIteration, TypeError, KeyError) as exc:
        raise ValueError(f"no export header with n and count: {exc!r}") from exc
    if not (type(n) is int and n >= 0 and type(count) is int):
        raise ValueError(f"export header needs integers n >= 0 and count, got {n!r} and {count!r}")
    spec = from_members(n, header.get("r"), (int(s) for s in it))
    if spec.count != count:
        raise ValueError("member count disagrees with header")
    return spec


def spectrum_unblocked(n: int, r: int) -> EdgeSpectrum:
    """cliquespec.spectrum with one shift-OR per part size, no blocks."""
    k_eff = min(r, max(n, 1))
    caps = [0] + [(n * k) // k_eff for k in range(1, k_eff)] + [n]
    if k_eff == 1:
        return EdgeSpectrum(n=n, r=r, mask=1 << tri(n))
    prev = [1 << tri(v) for v in range(caps[1] + 1)]
    for k in range(2, k_eff):
        cur = [0] * (caps[k] + 1)
        for v in range(caps[k] + 1):
            row = 0
            for a in range(-(-v // k), v + 1):
                row |= prev[v - a] << tri(a)
            cur[v] = row
        prev = cur
    out = 0
    for a in range(-(-n // k_eff), n + 1):
        out |= prev[n - a] << tri(a)
    return EdgeSpectrum(n=n, r=r, mask=out)


def witness_tables_uncapped(n: int, r: int) -> list[list[int]]:
    """Layers 1..r of the clique-spectrum DP, every row 0..n, unblocked:
    entry [k - 1][v] is the mask of C(v, k)."""
    layers = [[1 << tri(v) for v in range(n + 1)]]
    for k in range(2, r + 1):
        prev = layers[-1]
        cur = [0] * (n + 1)
        for v in range(n + 1):
            row = 0
            for a in range(-(-v // k), v + 1):
                row |= prev[v - a] << tri(a)
            cur[v] = row
        layers.append(cur)
    return layers


def bounds_sweep(n_max: int, r_max: int) -> Iterator[DensityReport]:
    """DensityReports for every 1 <= n <= n_max, 2 <= r <= r_max, read off
    the full rows of witness_tables_uncapped, as cliquespec's sweep once
    streamed them: r ascending, then n."""
    layers = witness_tables_uncapped(n_max, r_max)
    for r in range(2, r_max + 1):
        for n in range(1, n_max + 1):
            yield _density_report(n, r, layers[r - 1][n])


def labeled_counterexamples(n: int, m: int) -> dict[tuple[int, int], int]:
    """The labeled route that graphs.arrow and compute_Snm took for n <= 7,
    over the achieved-count bitset of every labeled mask 0..2^tri(n) - 1:
    for each (e, f), the lowest mask with e edges on none of whose
    m-subsets f edges are induced, found by a scan in mask order.
    arrow(n, e, m, f) holds exactly when (e, f) is missing, and otherwise
    returns the mask here; compute_Snm(n, m, f) is the set of e missing
    for f."""
    masks = np.arange(1 << tri(n), dtype=np.uint32)
    edges = np.bitwise_count(masks)
    achieved = _achieved(masks, n, m)
    first: dict[tuple[int, int], int] = {}
    for f in range(tri(m) + 1):
        lacking = np.flatnonzero((achieved >> np.uint32(f)) & np.uint32(1) == 0)
        # lacking ascends, so each edge count's first index is its lowest mask
        counts, at = np.unique(edges[lacking], return_index=True)
        first.update({(int(e), f): int(lacking[i]) for e, i in zip(counts, at)})
    return first


def dedup_counterexamples(n: int, m: int) -> dict[tuple[int, int], int]:
    """The per-rep loop that graphs.arrow and compute_Snm ran under dedup,
    one Python set of induced edge counts per catalogue rep: for each
    (e, f), the first rep with e edges on none of whose m-subsets f edges
    are induced.  arrow(n, e, m, f, dedup=True) holds exactly when (e, f)
    is missing, and compute_Snm(n, m, f, dedup=True) is the set of such e."""
    smasks = [subset_pair_mask(n, s) for s in combinations(range(n), m)]
    first: dict[tuple[int, int], int] = {}
    for g in canonical_reps(n):
        achieved = {(g & s).bit_count() for s in smasks}
        for f in range(tri(m) + 1):
            if f not in achieved:
                first.setdefault((g.bit_count(), f), g)
    return first


def class_ids_by_relabelling(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The class of every labeled k-vertex graph, and the lowest labeled
    mask of each class (graphs._lowest), by relabelling each representative
    under all k! permutations: the table over all 2^tri(k) labeled graphs
    that the package never builds, against which its deck classes are
    checked."""
    reps = canonical_reps(k)
    ids = np.zeros(1 << tri(k), dtype=np.uint16)
    words = np.array(reps, dtype=np.uint32)
    lowest = words.copy()
    cls = np.arange(len(reps), dtype=np.uint16)
    perms = np.array(list(permutations(range(k))), dtype=np.intp)
    for lo in range(0, len(perms), 360):
        moved = _move_bits(_pair_dest(perms[lo:lo + 360], k), words)
        ids[moved] = cls
        lowest = np.minimum(lowest, moved.min(axis=0))
    return ids, lowest


def _np_square_roots(vals: np.ndarray) -> np.ndarray:
    """Exact integer square roots where vals is a perfect square, else -1."""
    out = np.full(vals.shape, -1, dtype=np.int64)
    nonneg = vals >= 0
    approx = np.sqrt(vals[nonneg].astype(np.float64))
    base = np.floor(approx).astype(np.int64)
    found = np.full(base.shape, -1, dtype=np.int64)
    target = vals[nonneg]
    for delta in (-1, 0, 1):
        cand = base + delta
        ok = (cand >= 0) & (cand * cand == target)
        found[ok] = cand[ok]
    out[nonneg] = found
    return out


def three_part_witness_scan(m: int, f: int) -> Optional[tuple[int, int, int]]:
    """certify.three_part_witness by a scan of every smallest part z from 1
    to m // 3 in int64 numpy chunks: the rest has two parts only where
    4(f - tri(z)) - (m - z)(m - z - 2) is a perfect square of the parity
    of m - z, and two_part_witness confirms each such z.  Exact only while
    the discriminants fit in int64 (m below about 2 * 10^9)."""
    if m < 3:
        return None
    chunk = 1 << 20  # smallest parts scanned per numpy pass
    for z0 in range(1, m // 3 + 1, chunk):
        z = np.arange(z0, min(z0 + chunk, m // 3 + 1), dtype=np.int64)
        rest_f = f - z * (z - 1) // 2
        rest_m = m - z
        disc = 4 * rest_f - rest_m * (rest_m - 2)
        roots = _np_square_roots(disc)
        ok = (roots >= 0) & ((rest_m + roots) % 2 == 0)
        for zi in z[ok].tolist():
            w = two_part_witness(m - zi, f - tri(zi))
            if w is not None and w[1] >= zi:
                return (w[0], w[1], zi)
    return None


def three_part_witness_walk(m: int, f: int, *,
                            budget: Optional[WalkBudget] = None) -> Optional[tuple[int, int, int]]:
    """certify.three_part_witness without its running sum: the same
    window, z order and budget, but each z solved afresh for the two
    larger parts by two_part_witness, and the budget's counters kept here
    by hand: the whole window charged before the walk, the z-steps a hit
    leaves unwalked refunded.  Exact at any size."""
    window = _z_window(m, f)
    budget = _rank_budget(m, f) if budget is None else budget
    budget.walks += 1
    walk = window[:budget.left]
    budget.left -= len(walk)
    for z in walk:
        w = two_part_witness(m - z, f - tri(z))
        if w is not None and w[1] >= z:
            budget.left += walk.stop - z - 1
            return (w[0], w[1], z)
    if len(walk) < len(window):
        raise BudgetExceeded(budget.refusal(budget))
    return None


def scan_two_clique_partitions(m: int, f: int) -> tuple[int | None, int]:
    """The route pell.verify_ABC took for property (C): scan y1 in
    [1, m//2] for tri(y1) + tri(m - y1) == f in int64 numpy chunks.

    Returns (first matching y1 or None, number of values scanned), which
    verify_ABC now reports as (C) and c_scanned from two_part_witness.
    Raises OverflowError when the int64 edge counts could wrap, that is
    when (m - 1)(m - 2) >= 2^63.
    """
    if (m - 1) * (m - 2) >= 1 << 63:
        raise OverflowError(
            f"m={m} is too large for the int64 scan: (m - 1)(m - 2) >= 2^63"
        )
    chunk = 1 << 20  # splits scanned per numpy pass
    scanned = 0
    for start in range(1, m // 2 + 1, chunk):
        y1 = np.arange(start, min(start + chunk, m // 2 + 1), dtype=np.int64)
        vals = y1 * (y1 - 1) // 2 + (m - y1) * (m - y1 - 1) // 2
        hits = np.flatnonzero(vals == f)
        scanned += len(y1)
        if hits.size:
            scanned = int(y1[hits[0]])  # scanned up to the hit
            return int(y1[hits[0]]), scanned
    return None, scanned


def induced_edge_total_per_subset(adj: np.ndarray, n: int) -> int:
    """graphs._induced_edge_total by the loop concentration_experiment ran:
    one np.ix_ submatrix sum per n-subset."""
    total = 0
    for s in combinations(range(len(adj)), n):
        total += int(adj[np.ix_(s, s)].sum()) // 2
    return total


def concentration_per_trial(N: int, E: int, n: int, trials: int,
                            seed: int = 0) -> graphs.ConcentrationReport:
    """graphs.concentration_experiment as it counted each sample: one
    np.ix_ submatrix sum per trial, and the exact mean subset by subset."""
    rng = np.random.default_rng(seed)
    chosen = rng.choice(tri(N), size=E, replace=False) if E else np.empty(0, dtype=int)
    u, v = graphs._decode_pairs(N, chosen)
    adj = np.zeros((N, N), dtype=bool)
    adj[u, v] = adj[v, u] = True
    expected_mean = Fraction(E) * tri(n) / tri(N) if tri(N) else Fraction(0)
    enum_mean = identity_ok = None
    if math.comb(N, n) <= graphs._ENUM_LIMIT:
        enum_mean = Fraction(induced_edge_total_per_subset(adj, n), math.comb(N, n))
        identity_ok = enum_mean == expected_mean
    counts = np.empty(trials, dtype=np.int64)
    for i in range(trials):
        s = rng.choice(N, size=n, replace=False)
        counts[i] = int(adj[np.ix_(s, s)].sum()) // 2
    mu = float(expected_mean)
    denom = min(n, N - n) * (n - 1) ** 2
    tails = []
    for cscale in graphs._TAIL_GRID:
        t = cscale * (n - 1) * math.sqrt(min(n, N - n))
        bound = 2.0 * math.exp(-2.0 * t * t / denom) if denom else 2.0
        observed = float(np.mean(np.abs(counts - mu) >= t))
        se = math.sqrt(max(bound * (1 - bound), 1e-12) / trials)
        tails.append(graphs.TailCheck(t=t, bound=bound, observed=observed, slack=3 * se))
    return graphs.ConcentrationReport(
        N=N, E=E, n=n, trials=trials, seed=seed,
        expected_mean=mu, empirical_mean=float(counts.mean()),
        empirical_std=float(counts.std()), tails=tuple(tails),
        enum_mean=enum_mean, expectation_identity_ok=identity_ok,
    )


def _parts_max_edges(v: int, j: int, cap: int) -> int:
    """The most edges a partition of v into j parts in [1, cap] spans: as
    many parts of cap as leave room, one part for what is left, singletons."""
    if cap <= 1:
        return 0
    t = min(j, (v - j) // (cap - 1))
    rest = j - t
    if rest == 0:
        return t * tri(cap)
    big = v - t * cap - (rest - 1)
    return t * tri(cap) + tri(big)


def _find_rep_per_part(f: int, v: int, j: int, cap: int) -> Optional[tuple[int, ...]]:
    """A partition of v into exactly j parts in [1, cap] with edge sum f,
    nonincreasing, by the recursion the rank search once ran on its own:
    one level per part, whatever the parts, the largest parts first and
    the triple with the smallest smallest part for the last three, refused
    when its largest part exceeds the cap: along the z-window the largest
    part grows with z, so no later triple fits under the cap."""
    if j == 1:
        return (v,) if v <= cap and tri(v) == f else None
    if f < min_clique_edges(v, j) or f > _parts_max_edges(v, j, cap):
        return None
    if j == 2:
        w = two_part_witness(v, f)
        return w if w is not None and w[0] <= cap else None
    if j == 3:
        w = three_part_witness(v, f)
        return w if w is not None and w[0] <= cap else None
    # a part with tri(a) > f would leave a negative rest: start below those
    top = min(cap, v - (j - 1), (1 + isqrt(1 + 8 * f)) // 2)
    for a in range(top, -(-v // j) - 1, -1):
        rest = _find_rep_per_part(f - tri(a), v - a, j - 1, a)
        if rest is not None:
            return (a,) + rest
    return None


def min_r_witness_search(m: int, f: int) -> Optional[tuple[int, ...]]:
    """certify.min_r_witness by the part-count loop alone, over the
    per-part recursion: every j from 1 to m is tried, so a pair with no
    representation is excluded once per part count, with no test first.
    The recursion is one level per part, so ranks above several hundred
    exceed Python's default recursion limit."""
    PairMF(m, f)
    for j in range(1, m + 1):
        w = _find_rep_per_part(f, m, j, m)
        if w is not None:
            return w
    return None


def min_r_witness_loop(m: int, f: int) -> Optional[tuple[int, ...]]:
    """certify.min_r_witness with every part count j = 1, 2, ... tried by
    clique_parts, j = 1 and j = 2 included, after the representability test."""
    PairMF(m, f)
    if clique_parts(m, f, m) is None:
        return None
    budget = _rank_budget(m, f)
    triple = lambda v, g: three_part_witness(v, g, budget=budget)
    for j in range(1, m + 1):
        parts = clique_parts(m, f, j, triple)
        if parts is not None:
            return parts + (1,) * (m - sum(parts))
    return None


def brute_dm_witness(f: int, m: int) -> Optional[tuple[int, int, int]]:
    """certify.dm_witness by full triple enumeration: x <= y with x + y <= m
    and z = f - xy >= 0, smallest x first, then smallest y."""
    for x in range(m + 1):
        for y in range(x, m - x + 1):
            z = f - x * y
            if z < 0:
                continue
            if z == 0 or x + y + z <= m - 1:
                return (x, y, z)
    return None


def shift_inclusion_check(n: int, r: int) -> bool:
    """Every element of C(n - floor(n/(r+1)), r), shifted by the edge count of
    one clique on floor(n/(r+1)) vertices, lands inside C(n, r+1).  n and r
    are checked as spectrum(n, r) checks them."""
    _check_n_r(n, r)
    if n < r + 1:
        raise ValueError(f"need n >= r+1, got n={n}, r={r}")
    s = n // (r + 1)
    big = spectrum(n, r + 1).mask
    return spectrum(n - s, r).mask << tri(s) | big == big
