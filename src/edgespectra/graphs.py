"""Brute-force ground truth on small graphs.

Labeled n-vertex graphs are bitmasks over the C(n, 2) vertex pairs in
lexicographic order.  The inner kernel for every question asked here is
"how many edges does a vertex subset induce", computed as
popcount(edges & subset_pair_mask) and vectorized with numpy.

Whether a graph hits (m, f) depends only on its isomorphism class, so arrow
queries run the kernel over a catalogue of one representative per class.
Each augmentation candidate is keyed by one uint64 that hashes its edge
count and its deck (the class ids of its vertex-deleted subgraphs, each a
few shift-and-mask bit runs of the candidate), all candidates of a level
at once in numpy; the number of distinct keys is checked against the exact
Polya count, which proves that the keys separate the classes.  A hash
collision can only lower that number, so it raises instead of passing
silently.  The class ids of all labeled k-vertex graphs (k <= 7) are built
one vertex up: a labeled graph is a relabelled (k-1)-vertex representative
plus vertex 0, so its class is that of a catalogue candidate, which the
catalogue has already classed; only the (k-1)-vertex representatives are
relabelled, under all (k-1)! permutations.  The same pass gives each
class's lowest labeled mask: a labeled query (n <= 7) returns the lowest
over the failing classes, a dedup query (n <= 8) the first failing
representative.

Pair bits move by two idioms (best of 5, 2-core x86-64 VM).  A relabelling
permutes the pairs, so relabel maps, many rows at once, go through
_move_bits, one shift-and-OR per source bit: its 26 calls in a cold
canonical_reps(8) take 3.2 ms.  Deleting a vertex keeps the other pairs in
order, so the deck reads each vertex-deleted subgraph as at most v + 2 bit
runs (_deletion_runs): 6.2 ms for n = 8's 133,632 candidates, 24 ms by
_move_bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, permutations
from typing import Optional

import numpy as np

from .cliquespec import EdgeSpectrum, bounded_partitions, spectrum
from .triangles import min_clique_edges, tri

MAX_LABELED_N = 7
MAX_DEDUP_N = 8
_ENUM_LIMIT = 10 ** 6  # full-subset enumeration cap for exact expectations
_ENUM_CELLS = 1 << 20  # adjacency cells read per numpy pass of that enumeration
MAX_CONCENTRATION_N = 2000  # the N x N adjacency matrix takes N^2 bytes: 4 MB here


class ScaleRejected(Exception):
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


@dataclass(frozen=True)
class GraphMask:
    """Labeled graph on n <= 8 vertices as an edge bitmask."""

    n: int
    edges: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DEDUP_N:
            raise ScaleRejected(f"n={self.n} outside supported range")
        if self.edges >> tri(self.n):
            raise ValueError("edge bits beyond the pair range")

    @property
    def edge_count(self) -> int:
        return self.edges.bit_count()

    def edge_list(self) -> list[tuple[int, int]]:
        pl = pair_list(self.n)
        return [pl[i] for i in range(tri(self.n)) if (self.edges >> i) & 1]

    def induced_count(self, subset: tuple[int, ...]) -> int:
        return (self.edges & subset_pair_mask(self.n, subset)).bit_count()

    def achieved_counts(self, m: int) -> set[int]:
        return {(self.edges & s).bit_count() for s in _subset_masks(self.n, m)}

    @classmethod
    def from_edges(cls, n: int, edges) -> "GraphMask":
        idx = _pair_index(n)
        mask = 0
        for u, v in edges:
            mask |= 1 << idx[(min(u, v), max(u, v))]
        return cls(n=n, edges=mask)


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


@dataclass(frozen=True)
class ArrowResult:
    holds: bool
    counterexample: Optional[GraphMask]

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
    edges = reps[lacking.argmax()] if dedup else _class_ids(n)[1][lacking].min()
    return ArrowResult(holds=False, counterexample=GraphMask(n=n, edges=int(edges)))


def compute_Snm(n: int, m: int, f: int, *, dedup: bool = False) -> EdgeSpectrum:
    """The exact set of edge counts e for which arrow(n, e, m, f) holds."""
    _validate_arrow_args(n, 0, m, f, dedup)
    _, pc, ach = _rep_tables(n, m)
    good = np.ones(tri(n) + 1, dtype=bool)
    good[pc[_lacking(ach, f)]] = False
    return EdgeSpectrum.from_members(n, None, np.flatnonzero(good).tolist())


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


@dataclass(frozen=True)
class RunReport:
    runs: tuple[tuple[int, int], ...]
    count: int
    covered_fraction: float


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

@dataclass(frozen=True)
class TailCheck:
    t: float
    bound: float
    observed: float
    slack: float

    @property
    def ok(self) -> bool:
        return self.observed <= self.bound + self.slack


@dataclass(frozen=True)
class ConcentrationReport:
    N: int
    E: int
    n: int
    trials: int
    seed: int
    expected_mean: float
    empirical_mean: float
    empirical_std: float
    tails: tuple[TailCheck, ...]
    enum_mean: Optional[Fraction]
    expectation_identity_ok: Optional[bool]

    @property
    def tails_ok(self) -> bool:
        return all(t.ok for t in self.tails)


_TAIL_GRID = (0.25, 0.5, 0.75, 1.0, 1.25)


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
    binomial standard errors.  N is at most MAX_CONCENTRATION_N
    (ScaleRejected above it).
    """
    if not 2 <= n <= N:
        raise ValueError(f"need 2 <= n <= N, got n={n}, N={N}")
    if not 0 <= E <= tri(N):
        raise ValueError(f"E={E} outside [0, {tri(N)}]")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if N > MAX_CONCENTRATION_N:
        raise ScaleRejected(f"need N <= {MAX_CONCENTRATION_N}, got N={N}")
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

# labeled (k-1)-vertex graphs extended at once by _class_ids; unchunked,
# the candidate index array of _class_ids(7) would be 2^21 intp (16 MB)
_ROW_CHUNK = 1 << 12


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
    """Every labeled k-vertex graph g as its class and one relabelling that
    reaches it: ids[g] indexes canonical_reps(k), and the row perms[index[g]]
    sends vertex u of that representative to vertex perms[index[g], u] of g.
    One scatter moves every representative under all k! permutations: only
    _class_ids(k + 1) calls this, so k <= 6 and the moved masks fill 450 KB."""
    reps = canonical_reps(k)
    perms = np.array(list(permutations(range(k))), dtype=np.intp)
    moved = _move_bits(_pair_dest(perms, k), np.array(reps, dtype=np.uint32))
    ids = np.zeros(1 << tri(k), dtype=np.uint16)
    index = np.zeros(1 << tri(k), dtype=np.uint16)
    # an automorphism sends a representative to one g twice; either
    # relabelling is as good, so which write lands does not matter
    ids[moved] = np.arange(len(reps), dtype=np.uint16)
    index[moved] = np.arange(len(perms), dtype=np.uint16)[:, None]
    return ids, index, perms


@lru_cache(maxsize=None)
def _class_ids(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index into canonical_reps(k) of the class of every labeled k-vertex
    graph, and the lowest labeled mask of each class (k <= MAX_LABELED_N).

    Built one vertex up from _relabelled(k - 1).  A labeled mask is
    N | H << (k - 1): bits 0..k-2 are the neighbourhood N of vertex 0, and
    the rest, in the pair order, is the graph H on vertices 1..k-1 numbered
    from 0.  When a relabelling p sends representative R to H, the mask is
    isomorphic to R plus a vertex joined to p^-1(N), which is the candidate
    (R, p^-1(N)) that _catalogue(k) has already classed.
    """
    if not 1 <= k <= MAX_LABELED_N:
        raise ScaleRejected(f"labeled class ids support 1 <= k <= {MAX_LABELED_N}, got {k}")
    if k == 1:
        return np.zeros(1, dtype=np.uint16), np.zeros(1, dtype=np.uint32)
    reps, cand_class = _catalogue(k)
    sub_ids, sub_index, perms = _relabelled(k - 1)
    width = k - 1
    nbhd = np.arange(1 << width, dtype=np.uint32)
    # back[p, N] = p^-1(N): bit i of N moves to the vertex that p sends to i
    back = _move_bits(np.argsort(perms, axis=1), nbhd)
    ids = np.empty(1 << tri(k), dtype=np.uint16)
    lowest = np.full(len(reps), np.iinfo(np.uint32).max, dtype=np.uint32)
    for lo in range(0, sub_ids.size, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, sub_ids.size)
        cand = (sub_ids[lo:hi].astype(np.intp)[:, None] << width) | back[sub_index[lo:hi]]
        block = cand_class[cand].ravel()
        ids[lo << width:hi << width] = block
        np.minimum.at(lowest, block, np.arange(lo << width, hi << width, dtype=np.uint32))
    return ids, lowest


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
    vertex-deleted subgraphs) into one uint64: the edge count plus the sum
    of _class_weights over the deck.  A sum does not see the order of the
    deck, so the key is an isomorphism invariant and #keys <= #classes <=
    _graph_count(n); the catalogue is returned only when the first equals
    the last, which proves the keys separate the classes.  The uint64
    arithmetic wraps, but only inside the hash: a collision merges two
    keys, which lowers #keys and raises AssertionError, so it never
    passes silently, and no certified count is ever computed in it.
    """
    if n == 1:
        return (0,), np.zeros(1, dtype=np.uint16)
    prev = canonical_reps(n - 1)
    base = _move_bits(_pair_dest(np.arange(n - 1)[None], n), np.array(prev, dtype=np.uint32))
    star = np.array([[_pair_index(n)[(u, n - 1)] for u in range(n - 1)]])
    nbhd = _move_bits(star, np.arange(1 << (n - 1), dtype=np.uint32))
    cand = (base.reshape(-1, 1) | nbhd).ravel()

    sub_ids, weights = _class_ids(n - 1)[0], _class_weights(len(prev))
    key = np.bitwise_count(cand).astype(np.uint64)
    for v in range(n):
        sub = np.zeros_like(cand)
        for src, width, dst in _deletion_runs(n, v):
            sub |= ((cand >> src) & ((1 << width) - 1)) << dst
        key += weights[sub_ids[sub]]
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
