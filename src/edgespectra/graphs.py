"""Brute-force ground truth on small graphs.

Labeled n-vertex graphs are bitmasks over the C(n, 2) vertex pairs in
lexicographic order.  The inner kernel for every question asked here is
"how many edges does a vertex subset induce", computed as
popcount(edges & subset_pair_mask) and vectorized with numpy.

Whether a graph hits (m, f) depends only on its isomorphism class, so arrow
queries run the kernel over a catalogue of one representative per class.
Each augmentation candidate is keyed by one uint64 that hashes its edge
count and its deck (the class ids of its vertex-deleted subgraphs), all
candidates of a level at once in numpy; the number of distinct keys is
checked against the exact Polya count, which proves that the keys separate
the classes.  A hash collision can only lower that number, so it raises
instead of passing silently.  No level n builds a table over all labeled
(n-1)-vertex graphs: a candidate minus an old vertex is a candidate of
the level below, found through the class and a relabelling of its parent
minus that vertex, so only the (n-2)-vertex representatives are
relabelled, under all (n-2)! permutations (_deck).  A labeled k-vertex graph is likewise a catalogue
candidate of the class of its graph on vertices 1..k-1, which gives each
class's lowest labeled mask from one row per (k-1)-vertex class (_lowest):
a labeled query (n <= 7) returns the lowest over the failing classes, a
dedup query (n <= 8) the first failing representative.

Pair bits move by two idioms (best of 5, 2-core x86-64 VM).  A relabelling
permutes the pairs, so relabel maps, many rows at once, go through
_move_bits, one shift-and-OR per source bit: its 28 calls in a cold
canonical_reps(8) take 2.5 ms.  Deleting a vertex keeps the other pairs in
order, so the deck reads each parent minus a vertex as at most v + 2 bit
runs (_deletion_runs): 0.25 ms for n = 8's 7 x 1044 parent deletions,
1.6 ms by _move_bits.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, permutations

import numpy as np

from .cliquespec import EdgeSpectrum, bounded_partitions, spectrum
from .triangles import EdgespectraError, check_cap, min_clique_edges, tri

MAX_LABELED_N = 7
MAX_DEDUP_N = 8
_ENUM_LIMIT = 10 ** 6  # full-subset enumeration cap for exact expectations
_ENUM_CELLS = 1 << 20  # adjacency cells read per numpy pass of that enumeration


class ScaleRejected(EdgespectraError):
    """Vertex count outside the supported exhaustive range."""


@lru_cache(maxsize=None)
def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=None)
def _pair_index(n: int) -> dict[tuple[int, int], int]:
    return {p: i for i, p in enumerate(pair_list(n))}


def subset_pair_mask(n: int, subset: tuple[int, ...]) -> int:
    idx = _pair_index(n)
    mask = 0
    for p in combinations(sorted(subset), 2):
        mask |= 1 << idx[p]
    return mask


@lru_cache(maxsize=None)
def _subset_masks(n: int, m: int) -> tuple[int, ...]:
    """subset_pair_mask of every m-subset of range(n), in combinations order."""
    return tuple(subset_pair_mask(n, s) for s in combinations(range(n), m))


class GraphMask(namedtuple("GraphMask", "n edges")):
    """Labeled graph on n <= 8 vertices as an edge bitmask."""

    __slots__ = ()

    def __new__(cls, n: int, edges: int):
        if not 1 <= n <= MAX_DEDUP_N:
            raise ScaleRejected(f"n={n} outside supported range")
        if edges >> tri(n):
            raise ValueError("edge bits beyond the pair range")
        return tuple.__new__(cls, (n, edges))

    @property
    def edge_count(self) -> int:
        return self.edges.bit_count()

    def edge_list(self) -> list[tuple[int, int]]:
        pl = pair_list(self.n)
        return [pl[i] for i in range(tri(self.n)) if (self.edges >> i) & 1]

    def achieved_counts(self, m: int) -> set[int]:
        return {(self.edges & s).bit_count() for s in _subset_masks(self.n, m)}


def _validate_arrow_args(n: int, e: int, m: int, f: int, dedup: bool):
    limit = MAX_DEDUP_N if dedup else MAX_LABELED_N
    if not 2 <= m <= n <= limit:
        raise ScaleRejected(
            f"need 2 <= m <= n <= {limit} ({'with' if dedup else 'without'} dedup), "
            f"got n={n}, m={m}"
        )
    if not 0 <= e <= tri(n):
        raise ValueError(f"e={e} outside [0, {tri(n)}]")
    if not 0 <= f <= tri(m):
        raise ValueError(f"f={f} outside [0, {tri(m)}]")


# ---------------------------------------------------------------------------
# Exhaustive tables (vectorized) over the catalogue representatives
# ---------------------------------------------------------------------------

def _achieved(masks: np.ndarray, n: int, m: int) -> np.ndarray:
    """Per edge mask, the bitset of induced edge counts over m-subsets."""
    achieved = np.zeros(masks.shape, dtype=np.uint32)
    for smask in _subset_masks(n, m):
        cnt = np.bitwise_count(masks & np.uint32(smask)).astype(np.uint32)
        achieved |= np.left_shift(np.uint32(1), cnt)
    return achieved


@lru_cache(maxsize=8)
def _rep_tables(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The catalogue reps as a mask array, their edge counts and _achieved."""
    reps = np.array(canonical_reps(n), dtype=np.uint32)
    return reps, np.bitwise_count(reps), _achieved(reps, n, m)


def _lacking(ach: np.ndarray, f: int) -> np.ndarray:
    """Per representative, whether no m-subset of it spans f edges."""
    return (ach >> np.uint32(f)) & np.uint32(1) == 0


class ArrowResult(namedtuple("ArrowResult", "holds counterexample")):
    """counterexample is a GraphMask, or None when the arrow holds."""

    __slots__ = ()

    def validate(self, e: int, m: int, f: int) -> None:
        if self.holds != (self.counterexample is None):
            raise AssertionError("holds flag disagrees with counterexample presence")
        if self.counterexample is not None:
            g = self.counterexample
            if g.edge_count != e:
                raise AssertionError("counterexample has wrong edge count")
            if f in g.achieved_counts(m):
                raise AssertionError("counterexample achieves f after all")


def arrow(n: int, e: int, m: int, f: int, *, dedup: bool = False) -> ArrowResult:
    """Does every n-vertex graph with e edges contain an induced m-subset
    spanning exactly f edges?  The answer depends only on the isomorphism
    class, so the catalogue is scanned.  On failure the lowest-numbered
    labeled counterexample is returned (the first catalogued one under
    dedup): the smallest of the lowest labeled masks of the lacking classes."""
    _validate_arrow_args(n, e, m, f, dedup)
    reps, pc, ach = _rep_tables(n, m)
    lacking = (pc == e) & _lacking(ach, f)
    if not lacking.any():
        return ArrowResult(holds=True, counterexample=None)
    edges = reps[lacking.argmax()] if dedup else _lowest(n)[lacking].min()
    return ArrowResult(holds=False, counterexample=GraphMask(n=n, edges=int(edges)))


def compute_Snm(n: int, m: int, f: int, *, dedup: bool = False) -> EdgeSpectrum:
    """The exact set of edge counts e for which arrow(n, e, m, f) holds."""
    _validate_arrow_args(n, 0, m, f, dedup)
    _, pc, ach = _rep_tables(n, m)
    good = np.ones(tri(n) + 1, dtype=bool)
    good[pc[_lacking(ach, f)]] = False
    mask = int.from_bytes(np.packbits(good, bitorder="little").tobytes(), "little")
    return EdgeSpectrum(n=n, r=None, mask=mask)


def counterexamples(n: int, m: int, f: int, *, dedup: bool = False) -> dict[int, int]:
    """For every e at which arrow(n, e, m, f) fails, the edge mask of a graph
    with e edges none of whose m-subsets spans f edges: the first such
    catalogue representative, read off the tables for all e at once."""
    _validate_arrow_args(n, 0, m, f, dedup)
    reps, pc, ach = _rep_tables(n, m)
    lacking = np.flatnonzero(_lacking(ach, f))
    counts, first = np.unique(pc[lacking], return_index=True)
    return dict(zip(counts.tolist(), reps[lacking[first]].tolist()))


def validate_counterexamples(n: int, m: int, f: int, found: dict[int, int]) -> None:
    """ArrowResult.validate for many graphs at once: each found[e] must be an
    n-vertex graph with e edges inducing other than f edges on every
    m-subset, counted afresh from its own mask, not read from the tables."""
    masks = np.array(list(found.values()), dtype=np.uint32)
    if (masks >> np.uint32(tri(n))).any():
        raise AssertionError("edge bits beyond the pair range")
    if (np.bitwise_count(masks) != np.fromiter(found, dtype=np.int64)).any():
        raise AssertionError("counterexample has wrong edge count")
    subsets = np.array(_subset_masks(n, m), dtype=np.uint32)
    if (np.bitwise_count(masks[:, None] & subsets) == f).any():
        raise AssertionError("counterexample achieves f after all")


def turan_number(n: int, p: int) -> int:
    """Edge count of the complete balanced p-partite graph on n vertices."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    return tri(n) - min_clique_edges(n, p)


def turan_check(n: int, m: int) -> bool:
    """Clique-arrow sets match the classical threshold: the e with
    arrow(n, e, m, tri(m)) are exactly those above turan_number(n, m-1)."""
    if m not in (3, 4):
        raise ValueError(f"turan_check supports m in {{3, 4}}, got {m}")
    s = compute_Snm(n, m, tri(m))
    t = turan_number(n, m - 1)
    expected = set(range(t + 1, tri(n) + 1))
    return set(s.members()) == expected


class RunReport(namedtuple("RunReport", "runs count covered_fraction")):
    __slots__ = ()


def interval_runs(n: int, m: int, f: int) -> RunReport:
    """Maximal runs of consecutive members of the arrow set, with the
    fraction of all edge counts they cover."""
    members = compute_Snm(n, m, f).members()
    runs: list[tuple[int, int]] = []
    for e in members:
        if runs and runs[-1][1] == e - 1:
            runs[-1] = (runs[-1][0], e)
        else:
            runs.append((e, e))
    denom = tri(n)
    return RunReport(runs=tuple(runs), count=len(runs),
                     covered_fraction=len(members) / denom if denom else 0.0)


# ---------------------------------------------------------------------------
# Unions of cliques: induced closure
# ---------------------------------------------------------------------------

def _clique_union_mask(n: int, parts: tuple[int, ...]) -> int:
    mask = start = 0
    for p in parts:
        mask |= subset_pair_mask(n, tuple(range(start, start + p)))
        start += p
    return mask


def induced_closure_check(
    n: int, r: int, m: int, trials: int | None = None, seed: int = 0
) -> bool:
    """Every m-subset of every union of at most r cliques on n vertices
    induces an edge count lying in the (m, r) clique spectrum.

    trials=None enumerates all partitions exhaustively (n <= 10); otherwise
    `trials` >= 1 random partitions are drawn from a seeded generator.
    """
    if trials is not None and trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not 2 <= m <= n <= 12:
        raise ScaleRejected(f"need 2 <= m <= n <= 12, got n={n}, m={m}")
    if trials is None and n > 10:
        raise ScaleRejected(f"exhaustive mode needs n <= 10, got {n}")
    target = spectrum(m, r)
    if trials is None:
        parts_iter = bounded_partitions(n, r)
    else:
        rng = np.random.default_rng(seed)

        def _random_parts():
            for _ in range(trials):
                cuts = sorted(int(c) for c in rng.integers(0, n + 1, size=r - 1))
                bounds = [0] + cuts + [n]
                yield tuple(b - a for a, b in zip(bounds, bounds[1:]) if b > a)

        parts_iter = _random_parts()
    smasks = _subset_masks(n, m)
    for parts in parts_iter:
        gmask = _clique_union_mask(n, parts)
        for sm in smasks:
            if (gmask & sm).bit_count() not in target:
                return False
    return True


# ---------------------------------------------------------------------------
# Random-subset concentration experiment
# ---------------------------------------------------------------------------

class TailCheck(namedtuple("TailCheck", "t bound observed slack")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.observed <= self.bound + self.slack


class ConcentrationReport(namedtuple("ConcentrationReport", (
        "N E n trials seed expected_mean empirical_mean empirical_std tails enum_mean "
        "expectation_identity_ok"))):
    """tails is a tuple of TailCheck; enum_mean (a Fraction) and
    expectation_identity_ok are None when the subsets were not enumerated."""

    __slots__ = ()

    @property
    def tails_ok(self) -> bool:
        return all(t.ok for t in self.tails)


_TAIL_GRID = (0.25, 0.5, 0.75, 1.0, 1.25)
# Peak memory per trial of concentration_experiment (its int64 count and
# the float and bool temporaries of a tail comparison), charged to the
# memory cap of triangles before anything is drawn.  Measured as peak RSS
# above the import at N = 12, n = 5 for 4 * 10^5 to 10^6 trials: 25.4
# bytes a trial at the margin.
_TRIAL_BYTES = 32
# Peak memory per cell of the N x N graph concentration_experiment draws
# (the shuffled pair indices, the decoded pairs and the adjacency matrix),
# charged to that cap before anything is drawn.  Measured as peak RSS
# above the import at E = tri(N), n = 5, one trial: 17.8, 16.8 and 16.4
# bytes a cell at N = 2000, 3000 and 4000 (23.2 at N = 1000, 22 MB in
# all); at E = tri(N)/1000, 1.4 bytes a cell at N = 4000.
_GRAPH_CELL_BYTES = 18


def _decode_pairs(N: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs pair_list(N)[i] for i in idx, as arrays u < v, without
    building the list: the pairs (u, *) start at index u*N - tri(u + 1)."""
    first = np.arange(N, dtype=np.int64)
    starts = first * N - first * (first + 1) // 2
    u = np.searchsorted(starts, idx, side="right") - 1
    return u, idx - starts[u] + u + 1


def _subsets_per_pass(n: int) -> int:
    """n-subsets counted per numpy pass: as many as fit in _ENUM_CELLS
    adjacency cells (n*n each), so a pass's memory is bounded whatever n
    is."""
    return max(1, _ENUM_CELLS // (n * n))


def _induced_counts(adj: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Edges the graph adj induces on each row of the vertex array subsets."""
    cells = adj[subsets[:, :, None], subsets[:, None, :]]
    return cells.sum(axis=(1, 2), dtype=np.int64) // 2  # each edge sits in adj twice


def _induced_edge_total(adj: np.ndarray, n: int) -> int:
    """Edges induced by every n-subset of the graph adj, summed over all
    C(len(adj), n) subsets, _subsets_per_pass(n) subsets per numpy pass."""
    subsets = combinations(range(len(adj)), n)
    rows = _subsets_per_pass(n)
    total = 0
    while len(s := np.fromiter(islice(subsets, rows), dtype=(np.intp, n))):
        total += int(_induced_counts(adj, s).sum())
    return total


def concentration_experiment(
    N: int, E: int, n: int, trials: int, seed: int = 0
) -> ConcentrationReport:
    """Sample one random graph with E edges on N vertices and measure how
    induced edge counts of uniform n-subsets concentrate.

    The mean of the induced count over all n-subsets equals
    E * tri(n) / tri(N) for every graph; that identity is asserted by full
    enumeration whenever C(N, n) <= 10^6.  Empirical tail frequencies are
    compared against 2*exp(-2 t^2 / (min(n, N-n) (n-1)^2)) plus three
    binomial standard errors.  The N x N graph and the per-trial arrays
    are charged to the memory cap of triangles (SpectrumMemoryError past
    it) before any draw.
    """
    if not 2 <= n <= N:
        raise ValueError(f"need 2 <= n <= N, got n={n}, N={N}")
    if not 0 <= E <= tri(N):
        raise ValueError(f"E={E} outside [0, {tri(N)}]")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    check_cap(8 * _GRAPH_CELL_BYTES * N * N, "concentration graph cells")
    check_cap(8 * _TRIAL_BYTES * trials, "concentration trials")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(tri(N), size=E, replace=False) if E else np.empty(0, dtype=int)
    u, v = _decode_pairs(N, chosen)
    adj = np.zeros((N, N), dtype=bool)
    adj[u, v] = True
    adj[v, u] = True

    expected_mean = Fraction(E) * tri(n) / tri(N) if tri(N) else Fraction(0)

    enum_mean = None
    identity_ok = None
    if math.comb(N, n) <= _ENUM_LIMIT:
        enum_mean = Fraction(_induced_edge_total(adj, n), math.comb(N, n))
        identity_ok = enum_mean == expected_mean

    # the samples are drawn one trial at a time, as a seeded run always
    # drew them, and counted _subsets_per_pass(n) trials per numpy pass
    counts = np.empty(trials, dtype=np.int64)
    rows = _subsets_per_pass(n)
    for lo in range(0, trials, rows):
        drawn = [rng.choice(N, size=n, replace=False) for _ in range(min(rows, trials - lo))]
        counts[lo:lo + len(drawn)] = _induced_counts(adj, np.array(drawn))
    emp_mean = float(counts.mean())
    emp_std = float(counts.std())

    mu = float(expected_mean)
    # 0 only when N == n: every n-subset is the whole graph, so t is 0 and
    # the bound is 2 exp(0) = 2
    denom = min(n, N - n) * (n - 1) ** 2
    tails = []
    for cscale in _TAIL_GRID:
        t = cscale * (n - 1) * math.sqrt(min(n, N - n))
        bound = 2.0 * math.exp(-2.0 * t * t / denom) if denom else 2.0
        observed = float(np.mean(np.abs(counts - mu) >= t))
        se = math.sqrt(max(bound * (1 - bound), 1e-12) / trials)
        tails.append(TailCheck(t=t, bound=bound, observed=observed, slack=3 * se))
    return ConcentrationReport(
        N=N, E=E, n=n, trials=trials, seed=seed,
        expected_mean=mu, empirical_mean=emp_mean, empirical_std=emp_std,
        tails=tuple(tails), enum_mean=enum_mean, expectation_identity_ok=identity_ok,
    )


# ---------------------------------------------------------------------------
# Isomorphism-reduced catalogue (augmentation + hashed deck keys + Polya count)
# ---------------------------------------------------------------------------

def _graph_count(n: int) -> int:
    """Number of isomorphism classes of n-vertex graphs (OEIS A000088).

    Burnside over the cycle types of S_n: a permutation with cycle lengths
    l_1, .., l_k has c = sum floor(l_i / 2) + sum_{i<j} gcd(l_i, l_j) orbits
    on vertex pairs, so it fixes 2^c labeled graphs, and n! / prod_j
    (j^m_j m_j!) permutations share a type with m_j cycles of length j.
    """
    total = Fraction(0)
    for parts in bounded_partitions(n, n):
        orbits = sum(p // 2 for p in parts) + sum(
            math.gcd(a, b) for a, b in combinations(parts, 2))
        centraliser = 1
        for p in set(parts):
            mult = parts.count(p)
            centraliser *= p ** mult * math.factorial(mult)
        total += Fraction(2 ** orbits, centraliser)
    return int(total)


def _pair_dest(maps: np.ndarray, k: int) -> np.ndarray:
    """Pair bit positions under vertex maps.

    Row p of maps sends vertex u to maps[p, u] in range(k).  The result
    holds, per row, the bit of each pair of range(maps.shape[1]) in the
    k-vertex pair order.
    """
    index = np.zeros((k, k), dtype=np.intp)
    for i, (u, v) in enumerate(pair_list(k)):
        index[u, v] = index[v, u] = i
    pairs = np.array(pair_list(maps.shape[1]), dtype=np.intp).reshape(-1, 2)
    return index[maps[:, pairs[:, 0]], maps[:, pairs[:, 1]]]


def _move_bits(dest: np.ndarray, words: np.ndarray) -> np.ndarray:
    """out[p, j] sets bit dest[p, i] for every set bit i of words[j]."""
    shifts = dest.astype(np.uint32)
    out = np.zeros((dest.shape[0], words.size), dtype=np.uint32)
    for i in range(dest.shape[1]):
        out |= ((words >> i) & 1) << shifts[:, i, None]
    return out


@lru_cache(maxsize=None)
def _relabelled(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every labeled k-vertex graph g as its class and one relabelling p
    that sends that representative to g: ids[g] indexes _catalogue(k)[0],
    and back[index[g], N] = p^-1(N) for every vertex set N of g.  One
    scatter moves every representative under all k! permutations: only
    _extension_class reads this, for _deck(k + 2) and _lowest(k + 1), so
    k <= 6 and the moved masks fill 450 KB."""
    reps = _catalogue(k)[0]
    perms = np.array(list(permutations(range(k))), dtype=np.intp)
    moved = _move_bits(_pair_dest(perms, k), np.array(reps, dtype=np.uint32))
    ids = np.zeros(1 << tri(k), dtype=np.uint16)
    index = np.zeros(1 << tri(k), dtype=np.uint16)
    # an automorphism sends a representative to one g twice; either
    # relabelling is as good, so which write lands does not matter
    ids[moved] = np.arange(len(reps), dtype=np.uint16)
    index[moved] = np.arange(len(perms), dtype=np.uint16)[:, None]
    back = _move_bits(np.argsort(perms, axis=1), np.arange(1 << k, dtype=np.uint32))
    return ids, index, back


def _extension_class(cand_class: np.ndarray, masks: np.ndarray, k: int) -> np.ndarray:
    """cls[j, N]: the class, by cand_class of _catalogue(k + 1), of the
    labeled k-vertex graph masks[j] plus a vertex joined to N, that is, of
    the candidate (ids[masks[j]], p^-1(N)) of _relabelled(k)."""
    ids, index, back = _relabelled(k)
    return cand_class[(ids[masks].astype(np.intp)[:, None] << k) | back[index[masks]]]


@lru_cache(maxsize=None)
def _lowest(k: int) -> np.ndarray:
    """The lowest labeled mask of each class of k-vertex graphs, indexed
    like canonical_reps(k) (1 <= k <= MAX_LABELED_N).

    A labeled mask is N | H << (k - 1): bits 0..k-2 are the neighbourhood
    N of vertex 0, and the rest, in the pair order, is the graph H on
    vertices 1..k-1 numbered from 0.  When a relabelling p sends the
    representative of class d to H, the mask is the candidate (d, p^-1(N))
    of _catalogue(k), so the classes that the masks over H reach depend
    only on d.  The lowest mask of a class therefore lies over the lowest
    H of some d, _lowest(k - 1)[d]: one 2^(k-1)-wide row of candidates per
    d is scanned, not all 2^tri(k) labeled masks.
    """
    if not 1 <= k <= MAX_LABELED_N:
        raise ScaleRejected(f"labeled lowest masks support 1 <= k <= {MAX_LABELED_N}, got {k}")
    if k == 1:
        return np.zeros(1, dtype=np.uint32)
    reps, cand_class = _catalogue(k)
    below = _lowest(k - 1)
    width = k - 1
    cls = _extension_class(cand_class, below, width)
    masks = (below[:, None] << np.uint32(width)) | np.arange(1 << width, dtype=np.uint32)
    lowest = np.full(len(reps), np.iinfo(np.uint32).max, dtype=np.uint32)
    np.minimum.at(lowest, cls.ravel(), masks.ravel())
    return lowest


def canonical_reps(n: int) -> tuple[int, ...]:
    """One labeled representative per isomorphism class of n-vertex graphs
    (see _catalogue)."""
    if not 1 <= n <= MAX_DEDUP_N:
        raise ScaleRejected(f"catalogue supports 1 <= n <= {MAX_DEDUP_N}, got {n}")
    return _catalogue(n)[0]


def _class_weights(count: int) -> np.ndarray:
    """A fixed 64-bit weight per class index 0..count-1: splitmix64's
    outputs for the states 1..count, in wrapping uint64 arithmetic."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


@lru_cache(maxsize=None)
def _deletion_runs(n: int, v: int) -> tuple[tuple[int, int, int], ...]:
    """The n-vertex mask minus vertex v, as (source bit, width, target bit)
    runs: the kept pairs keep their order, so the (n-1)-vertex mask is at
    most v + 2 contiguous bit runs of the n-vertex one."""
    runs: list[list[int]] = []
    kept = (i for i, p in enumerate(pair_list(n)) if v not in p)
    for dst, src in enumerate(kept):
        if runs and runs[-1][0] + runs[-1][1] == src:
            runs[-1][1] += 1
        else:
            runs.append([src, 1, dst])
    return tuple(map(tuple, runs))


def _deck(n: int) -> np.ndarray:
    """deck[v, i, M]: the class, as an index into canonical_reps(n - 1), of
    the candidate (i-th parent P, N) of _catalogue(n) minus vertex v < n - 1,
    where M is N with bit v squeezed out (deleting vertex n - 1 leaves P).

    The subgraph is P - v plus a vertex joined to N - v.  When a relabelling
    p sends the representative of class d to P - v, that is the candidate
    (d, p^-1(N - v)) of _catalogue(n - 1), so only the |reps(n-1)| (n - 1)
    graphs P - v are classed, by _relabelled(n - 2); at n = 2 each is the
    empty graph.
    """
    reps, prev_class = _catalogue(n - 1)
    parents = np.array(reps, dtype=np.uint32)
    deck = np.empty((n - 1, len(parents), 1 << (n - 2)), dtype=np.uint16)
    for v in range(n - 1):
        sub = np.zeros_like(parents)
        for src, width, dst in _deletion_runs(n - 1, v):
            sub |= ((parents >> src) & ((1 << width) - 1)) << dst
        deck[v] = _extension_class(prev_class, sub, n - 2)
    return deck


@lru_cache(maxsize=None)
def _catalogue(n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The representatives of the n-vertex classes, built by augmenting the
    (n-1)-vertex catalogue with all neighborhoods of a new vertex, and the
    class of every candidate as an index into them.

    Candidate c = (parent, N) is the parent joined to a new vertex n - 1
    with neighbourhood N, at c = parent_index << (n - 1) | N.  Candidates
    come parent-major, neighborhood ascending, and the first of each key is
    kept, so classes are numbered in the order of their first candidates.
    The key hashes the edge count and the deck (the classes of the n
    vertex-deleted subgraphs: the parent, and _deck(n)) into one uint64:
    the edge count plus the sum of _class_weights over the deck.  A sum
    does not see the order of the deck, so the key is an isomorphism
    invariant and #keys <= #classes <= _graph_count(n); the catalogue is
    returned only when the first equals the last, which proves the keys
    separate the classes.  The uint64 arithmetic wraps, but only inside the
    hash: a collision merges two keys, which lowers #keys and raises
    AssertionError, so it never passes silently, and no certified count is
    ever computed in it.  Levels 0 and 1 are one empty graph each.
    """
    if n <= 1:
        return (0,), np.zeros(1, dtype=np.uint16)
    prev = canonical_reps(n - 1)
    base = _move_bits(_pair_dest(np.arange(n - 1)[None], n), np.array(prev, dtype=np.uint32))
    star = np.array([[_pair_index(n)[(u, n - 1)] for u in range(n - 1)]])
    nbhd = _move_bits(star, np.arange(1 << (n - 1), dtype=np.uint32))
    cand = (base.reshape(-1, 1) | nbhd).ravel()

    weights = _class_weights(len(prev))
    key = np.bitwise_count(cand).astype(np.uint64).reshape(len(prev), -1)
    key += weights[:, None]
    deck = _deck(n)
    for v in range(n - 1):
        # N and N ^ 1 << v lose vertex v alike: one deck entry adds to both
        split = key.reshape(len(prev), -1, 2, 1 << v)
        split += weights[deck[v]].reshape(len(prev), -1, 1, 1 << v)
    del deck
    key = key.ravel()
    order = np.argsort(key)
    ranked = key[order]
    heads = np.r_[True, ranked[1:] != ranked[:-1]]
    del key, ranked
    starts = np.flatnonzero(heads)
    expected, found = _graph_count(n), len(starts)
    if found != expected:
        raise AssertionError(
            f"catalogue for n={n} has {found} deck keys, Polya count is {expected}")
    first = np.minimum.reduceat(order, starts)
    by_index = np.argsort(first)
    run_class = np.empty(len(first), dtype=np.uint16)
    run_class[by_index] = np.arange(len(first), dtype=np.uint16)
    cand_class = np.empty(len(cand), dtype=np.uint16)
    cand_class[order] = run_class[np.cumsum(heads) - 1]
    return tuple(cand[first[by_index]].tolist()), cand_class
