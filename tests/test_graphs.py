import hashlib
import json
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np
import pytest

from edgespectra import graphs
from edgespectra.cli import main
from edgespectra.cliquespec import spectrum
from edgespectra.graphs import (
    GraphMask,
    ScaleRejected,
    arrow,
    canonical_reps,
    compute_Snm,
    concentration_experiment,
    induced_closure_check,
    interval_runs,
    pair_list,
    turan_check,
    turan_number,
)
from edgespectra.triangles import tri
from oracles import (class_ids_by_relabelling, concentration_per_trial,
                     dedup_counterexamples, induced_edge_total_per_subset,
                     labeled_counterexamples)

# isomorphism-class counts of simple graphs on 1..10 vertices (OEIS A000088)
ISO_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346,
              9: 274668, 10: 12005168}
# sha256 of repr(canonical_reps(8)) as built by the invariant-bucket route
# below, before deck keys replaced it
REPS8_SHA256 = "c5742aec701718231670749595e21bb21e28717eda0d14c92f14bc72229c328d"


# Oracle: the catalogue by cheap invariant buckets plus an exact
# backtracking isomorphism test against every graph in the bucket.

def _adjacency(n, mask):
    adj = [0] * n
    for i, (u, v) in enumerate(pair_list(n)):
        if (mask >> i) & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return tuple(adj)


def _invariant(adj):
    degs = [a.bit_count() for a in adj]
    nbr_profiles = sorted(
        (degs[v], tuple(sorted(degs[u] for u in range(len(adj)) if (adj[v] >> u) & 1)))
        for v in range(len(adj))
    )
    triangles = 0
    for v in range(len(adj)):
        for u in range(v + 1, len(adj)):
            if (adj[v] >> u) & 1:
                triangles += (adj[v] & adj[u]).bit_count()
    return tuple(sorted(degs)), tuple(nbr_profiles), triangles // 3


def _isomorphic(adj_a, adj_b):
    k = len(adj_a)
    deg_a = [a.bit_count() for a in adj_a]
    deg_b = [b.bit_count() for b in adj_b]
    if sorted(deg_a) != sorted(deg_b):
        return False
    order = sorted(range(k), key=lambda v: (-deg_a[v], v))
    mapping = [-1] * k

    def bt(i, used):
        if i == k:
            return True
        va = order[i]
        for vb in range(k):
            if (used >> vb) & 1 or deg_b[vb] != deg_a[va]:
                continue
            ok = True
            for j in range(i):
                ua, ub = order[j], mapping[order[j]]
                if ((adj_a[va] >> ua) & 1) != ((adj_b[vb] >> ub) & 1):
                    ok = False
                    break
            if ok:
                mapping[va] = vb
                if bt(i + 1, used | (1 << vb)):
                    return True
                mapping[va] = -1
        return False

    return bt(0, 0)


@lru_cache(maxsize=None)
def _catalogue_by_iso_tests(n):
    if n == 1:
        return (0,)
    old_idx = {p: i for i, p in enumerate(pair_list(n - 1))}
    new_idx = {p: i for i, p in enumerate(pair_list(n))}
    remap = {old_idx[p]: new_idx[p] for p in pair_list(n - 1)}
    new_vertex_bits = [new_idx[(u, n - 1)] for u in range(n - 1)]

    buckets = {}
    reps = []
    for g in _catalogue_by_iso_tests(n - 1):
        base = 0
        for i in range(tri(n - 1)):
            if (g >> i) & 1:
                base |= 1 << remap[i]
        for nb in range(1 << (n - 1)):
            mask = base
            for u in range(n - 1):
                if (nb >> u) & 1:
                    mask |= 1 << new_vertex_bits[u]
            adj = _adjacency(n, mask)
            bucket = buckets.setdefault(_invariant(adj), [])
            if any(_isomorphic(adj, other) for other in bucket):
                continue
            bucket.append(adj)
            reps.append(mask)
    return tuple(reps)


def test_arrow_examples():
    assert arrow(3, 1, 2, 1).holds
    res = arrow(3, 0, 2, 1)
    assert not res.holds and res.counterexample.edges == 0
    res = arrow(5, 6, 3, 3)
    assert not res.holds
    g = res.counterexample
    assert g.edge_count == 6
    assert 3 not in g.achieved_counts(3)  # triangle-free with 6 edges
    res.validate(6, 3, 3)


def test_arrow_scale_rejection():
    with pytest.raises(ScaleRejected):
        arrow(8, 5, 3, 1)  # n=8 needs the dedup flag
    with pytest.raises(ScaleRejected):
        arrow(9, 5, 3, 1, dedup=True)
    with pytest.raises(ScaleRejected):
        arrow(4, 1, 1, 0)
    with pytest.raises(ValueError):
        arrow(5, 99, 3, 1)


def test_snm_examples():
    assert compute_Snm(3, 2, 1).members() == [1, 2, 3]
    assert compute_Snm(4, 2, 0).members() == [0, 1, 2, 3, 4, 5]
    assert compute_Snm(5, 3, 3).members() == [7, 8, 9, 10]


def test_snm_never_contains_both_ends():
    for n in range(2, 7):
        for m in range(2, min(4, n) + 1):
            for f in range(tri(m) + 1):
                s = compute_Snm(n, m, f)
                assert not (0 in s and tri(n) in s), (n, m, f)


def test_turan_numbers():
    assert turan_number(5, 2) == 6
    assert turan_number(6, 2) == 9
    assert turan_number(7, 3) == 16


def test_turan_check_small():
    for n in range(4, 7):
        for m in (3, 4):
            assert turan_check(n, m), (n, m)


def test_interval_runs_examples():
    rep = interval_runs(3, 2, 1)
    assert rep.runs == ((1, 3),) and rep.count == 1
    rep = interval_runs(4, 2, 0)
    assert rep.runs == ((0, 5),)
    rep = interval_runs(4, 4, 5)  # only the graph itself is a 4-subset, so S = {5}
    assert rep.runs == ((5, 5),)
    rep = interval_runs(6, 5, 4)  # no edge count forces an induced (5, 4) at n = 6
    assert rep.runs == () and rep.count == 0 and rep.covered_fraction == 0.0


def test_complement_symmetry():
    for n in range(2, 7):
        for m in range(2, min(4, n) + 1):
            for f in range(tri(m) + 1):
                s = set(compute_Snm(n, m, f).members())
                sc = set(compute_Snm(n, m, tri(m) - f).members())
                assert s == {tri(n) - e for e in sc}, (n, m, f)


def test_counterexample_soundness():
    for n in range(3, 7):
        for m in range(2, min(4, n) + 1):
            for f in range(tri(m) + 1):
                for e in range(0, tri(n) + 1, 3):
                    res = arrow(n, e, m, f)
                    res.validate(e, m, f)


def test_labeled_vs_dedup_agree():
    # the dedup arrow sets against the labeled route's
    for n in range(2, 7):
        for m in range(2, min(4, n) + 1):
            first = labeled_counterexamples(n, m)
            for f in range(tri(m) + 1):
                labeled = [e for e in range(tri(n) + 1) if (e, f) not in first]
                reduced = compute_Snm(n, m, f, dedup=True).members()
                assert labeled == reduced, (n, m, f)


@pytest.mark.parametrize("n, ms", [(n, range(2, n + 1)) for n in range(2, 7)] + [(7, (3, 4, 5))],
                         ids=[f"n{n}" for n in range(2, 8)])
def test_labeled_matches_oracle(n, ms):
    # holds, the lowest labeled counterexample and the arrow set, against
    # the scan of every labeled mask
    for m in ms:
        first = labeled_counterexamples(n, m)
        for f in range(tri(m) + 1):
            members = [e for e in range(tri(n) + 1) if (e, f) not in first]
            assert compute_Snm(n, m, f).members() == members, (m, f)
            for e in range(tri(n) + 1):
                res = arrow(n, e, m, f)
                got = res.counterexample.edges if res.counterexample else None
                expected = first.get((e, f))
                assert (res.holds, got) == (expected is None, expected), (e, m, f)


@pytest.mark.parametrize("n, ms", [(n, range(2, n + 1)) for n in range(2, 8)] + [(8, (3, 4, 5))],
                         ids=[f"n{n}" for n in range(2, 9)])
def test_dedup_matches_per_rep_oracle(n, ms):
    for m in ms:
        first = dedup_counterexamples(n, m)
        for f in range(tri(m) + 1):
            members = [e for e in range(tri(n) + 1) if (e, f) not in first]
            assert compute_Snm(n, m, f, dedup=True).members() == members, (m, f)
            for e in range(tri(n) + 1):
                res = arrow(n, e, m, f, dedup=True)
                res.validate(e, m, f)
                got = res.counterexample.edges if res.counterexample else None
                expected = first.get((e, f))
                assert (res.holds, got) == (expected is None, expected), (e, m, f)


def _rejects(check) -> bool:
    try:
        check()
    except (AssertionError, ValueError):
        return True
    return False


@pytest.mark.parametrize("n, ms", [(n, range(2, n + 1)) for n in range(2, 8)] + [(8, (3, 5))],
                         ids=[f"n{n}" for n in range(2, 9)])
def test_counterexamples_match_per_rep_oracle(n, ms):
    # the first failing rep of every edge count, all e at once; the batch
    # re-count accepts them, and of one edge flipped or the graph on the
    # first e pairs it rejects what arrow's validate rejects
    for m in ms:
        first = dedup_counterexamples(n, m)
        for f in range(tri(m) + 1):
            found = graphs.counterexamples(n, m, f, dedup=True)
            assert found == {e: g for (e, ff), g in first.items() if ff == f}, (m, f)
            if n <= graphs.MAX_LABELED_N:
                assert graphs.counterexamples(n, m, f) == found
            graphs.validate_counterexamples(n, m, f, found)
            for e, g in found.items():
                for bad in (g ^ 1, (1 << e) - 1):
                    def batch():
                        graphs.validate_counterexamples(n, m, f, {**found, e: bad})

                    def one():
                        graphs.ArrowResult(False, GraphMask(n, bad)).validate(e, m, f)

                    assert _rejects(batch) == _rejects(one), (m, f, e, bad)
                with pytest.raises(AssertionError, match="beyond the pair range"):
                    graphs.validate_counterexamples(n, m, f, {e: g | 1 << tri(n)})


def test_iso_catalogue_counts():
    for n in range(1, 8):
        assert len(canonical_reps(n)) == ISO_COUNTS[n], n


def test_iso_catalogue_matches_oracle():
    for n in range(1, 8):
        assert canonical_reps(n) == _catalogue_by_iso_tests(n), n


def test_graph_count_is_A000088():
    assert {n: graphs._graph_count(n) for n in ISO_COUNTS} == ISO_COUNTS


@pytest.fixture
def fresh_catalogue():
    """Every table derived from the catalogue, built anew in the test and
    dropped after it."""
    caches = (graphs._catalogue, graphs._relabelled, graphs._lowest, graphs._rep_tables)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture
def graph_count_off_at_5(fresh_catalogue, monkeypatch):
    real = graphs._graph_count
    monkeypatch.setattr(graphs, "_graph_count", lambda n: real(n) + (n == 5))


def test_catalogue_fails_closed_on_count_mismatch(graph_count_off_at_5, capsys):
    with pytest.raises(AssertionError, match="n=5"):
        canonical_reps(5)
    for dedup in (["--dedup"], []):  # labeled queries read the catalogue too
        code = main(["snm", "--n", "5", "--m", "3", "--f", "1", *dedup])
        err = capsys.readouterr().err
        assert code == 1, dedup
        assert "check failed: catalogue for n=5" in err
        assert json.loads(err.strip().splitlines()[-1])["subcommand"] == "snm"


def test_catalogue_fails_closed_on_key_collision(fresh_catalogue, monkeypatch, capsys):
    # one weight for all 11 four-vertex classes leaves only the edge count
    # to key the five-vertex candidates on: 11 keys for 34 classes
    real = graphs._class_weights
    monkeypatch.setattr(graphs, "_class_weights",
                        lambda count: np.ones(count, np.uint64) if count == 11 else real(count))
    with pytest.raises(AssertionError, match="n=5 has 11 deck keys, Polya count is 34"):
        canonical_reps(5)
    assert main(["snm", "--n", "5", "--m", "3", "--f", "1", "--dedup"]) == 1
    assert "check failed: catalogue for n=5" in capsys.readouterr().err


# sha256 of repr(reps), the dtype string and the bytes of the candidate
# class table of _catalogue(n), taken from the sorted-deck build that the
# hashed deck key replaced
CATALOGUE_SHA256 = {
    1: "dfe41ca6f440533050ecc5077217825333cbf51d36ba75cfd0793b9d428f658a",
    2: "d0fab4be83b46b477b317361c3d932f4e4d57de4b055801f340a414b8f189e7c",
    3: "3c770f5afe41898014ec0b28b46b77428fe8c25db82248f5b7c2805282b861ed",
    4: "d04027c97c4f5c20a44845de48adb67a71b18c50112e488280b5f7533d5179fe",
    5: "a33fa96ba26ad278918a0c50ff0a705b73e6326f84cdd19902d590e5c632a34e",
    6: "434dd298b7d2fa948f4e29ac9f215aaeea0a0dbc5ecf00e9a8bba05a1b90652b",
    7: "fdcec184cb6d2b00c6a14042a121b84bda29868ce671b15a5a10d967e66736da",
    8: "3378d412c911150bac092c80093703f1be392136d50803a76c3acc8a3df131bf",
}


@pytest.mark.parametrize("n", range(1, 9))
def test_catalogue_pinned(n):
    reps, cand_class = graphs._catalogue(n)
    blob = repr(reps).encode() + cand_class.dtype.str.encode() + cand_class.tobytes()
    assert hashlib.sha256(blob).hexdigest() == CATALOGUE_SHA256[n]


def test_deletion_runs_drop_one_vertex():
    # the runs move bit (u, w) of the n-vertex mask to the bit of the pair
    # renumbered without v, and there are at most v + 2 of them
    for n in range(2, 10):
        for v in range(n):
            runs = graphs._deletion_runs(n, v)
            moved = [(src + i, dst + i) for src, width, dst in runs for i in range(width)]
            renumbered = {p: i for i, p in enumerate(pair_list(n - 1))}
            want = [(i, renumbered[(u - (u > v), w - (w > v))])
                    for i, (u, w) in enumerate(pair_list(n)) if v not in (u, w)]
            assert moved == want and len(runs) <= v + 2, (n, v)


def _relabel(g: int, perm: tuple[int, ...], k: int) -> int:
    """The k-vertex mask g with each vertex u renamed perm[u], pair by pair."""
    pairs = list(combinations(range(k), 2))
    bit = {p: i for i, p in enumerate(pairs)}
    return sum(1 << bit[tuple(sorted((perm[u], perm[v])))]
               for i, (u, v) in enumerate(pairs) if g >> i & 1)


@pytest.mark.parametrize("k", range(1, 6))
def test_move_bits_matches_python_relabelling(k):
    # the bit mover the catalogue and its oracle share, against a plain
    # relabelling: every pair map on every k-vertex mask, the vertex-bit
    # map back[p, N] = p^-1(N) of _relabelled that _extension_class reads,
    # one row per permutation in order, and the relabelling each labeled
    # graph's row stands for, read back off the row's single vertices
    perms = list(permutations(range(k)))
    maps = np.array(perms, dtype=np.intp)
    masks = range(1 << tri(k))
    moved = graphs._move_bits(graphs._pair_dest(maps, k), np.array(masks, dtype=np.uint32))
    assert moved.tolist() == [[_relabel(g, p, k) for g in masks] for p in perms]
    ids, index, back = graphs._relabelled(k)
    assert back.tolist() == [[sum(1 << u for u in range(k) if nbhd >> p[u] & 1)
                              for nbhd in range(1 << k)] for p in perms]
    reps = canonical_reps(k)
    for g in masks:
        row = back[index[g]]
        perm = [0] * k
        for i in range(k):  # p^-1 moves bit i to the vertex u with p[u] = i
            perm[int(row[1 << i]).bit_length() - 1] = i
        assert _relabel(reps[ids[g]], tuple(perm), k) == g, (k, g)


def _delete_vertex(masks: np.ndarray, n: int, v: int) -> np.ndarray:
    """The n-vertex masks minus vertex v, pair by pair renumbered."""
    renumbered = {p: i for i, p in enumerate(pair_list(n - 1))}
    out = np.zeros_like(masks)
    for i, (u, w) in enumerate(pair_list(n)):
        if v not in (u, w):
            out |= ((masks >> i) & 1) << renumbered[(u - (u > v), w - (w > v))]
    return out


@pytest.mark.parametrize("k", range(1, 8))
def test_labeled_classes_match_relabelling(k):
    # the oracle classes every labeled k-vertex graph by relabelling; the
    # catalogue never builds that table, so check what it reads instead:
    # the lowest labeled mask of each class, and the class of every
    # vertex-deleted subgraph of every level k + 1 candidate
    ids, lowest = class_ids_by_relabelling(k)
    got = graphs._lowest(k)
    assert got.dtype == lowest.dtype and got.tobytes() == lowest.tobytes()
    n = k + 1
    parents = np.array(canonical_reps(k), dtype=np.uint32)
    bit = graphs._pair_index(n)
    above = sum((((parents >> i) & 1) << bit[p] for i, p in enumerate(pair_list(k))),
                np.zeros_like(parents))
    nbhd = np.arange(1 << k, dtype=np.uint32)
    star = sum(((nbhd >> u) & 1) << bit[(u, k)] for u in range(k))
    cand = above[:, None] | star
    deck = graphs._deck(n)
    for v in range(n):
        want = ids[_delete_vertex(cand, n, v)]
        if v == k:  # the parent, which the catalogue keys by its index
            used = np.broadcast_to(np.arange(len(parents))[:, None], cand.shape)
        else:  # N minus bit v
            used = deck[v][:, (nbhd & ((1 << v) - 1)) | (nbhd >> (v + 1) << v)]
        assert (used == want).all(), (n, v)


def test_catalogue_classes_own_candidates():
    # representative i is the candidate (parent, N) = (i-th parent, its new
    # vertex's neighbourhood), and the candidate table sends it to i
    for n in range(2, 9):
        reps, cand_class = graphs._catalogue(n)
        parents = {g: i for i, g in enumerate(canonical_reps(n - 1))}
        for i, g in enumerate(reps):
            nbhd = sum(1 << u for u in range(n - 1)
                       if (g >> graphs._pair_index(n)[(u, n - 1)]) & 1)
            below = sum(1 << graphs._pair_index(n - 1)[p]
                        for j, p in enumerate(pair_list(n)) if (g >> j) & 1 and p[1] < n - 1)
            assert cand_class[parents[below] << (n - 1) | nbhd] == i, (n, i)


def test_lowest_and_deck_relabel_one_level_down(fresh_catalogue, monkeypatch):
    # with the n <= 7 catalogue built, the lowest n = 7 masks and the n = 8
    # decks relabel the n = 6 representatives (6! rows) and nothing else
    canonical_reps(7)
    rows = []
    real = graphs._pair_dest

    def counting(maps, k):
        if maps.shape[1] == k:  # a relabelling, not the parent embedding
            rows.append(len(maps))
        return real(maps, k)

    monkeypatch.setattr(graphs, "_pair_dest", counting)
    graphs._lowest(7)
    canonical_reps(8)
    assert rows == [720]


def test_lowest_refused_outside_labeled_range():
    # lowest labeled masks exist for 1 <= k <= 7 only
    for k in (0, graphs.MAX_LABELED_N + 1):
        with pytest.raises(ScaleRejected):
            graphs._lowest(k)


def test_extension_tables_stay_small(fresh_catalogue):
    # the n = 8 catalogue and the lowest n = 7 masks, built cold, never
    # hold a table over all 2^21 labeled 7-vertex graphs
    tracemalloc.start()
    try:
        graphs._lowest(7)
        canonical_reps(8)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20 and held < 2 << 20, (peak, held)


def test_catalogue_edge_count_distribution():
    # labeled bucket is nonempty exactly when the catalogue has that edge count
    for n in range(2, 7):
        cat_counts = {g.bit_count() for g in canonical_reps(n)}
        assert cat_counts == set(range(tri(n) + 1))


def test_iso_catalogue_n8():
    reps = canonical_reps(8)
    assert len(reps) == ISO_COUNTS[8]
    assert hashlib.sha256(repr(reps).encode()).hexdigest() == REPS8_SHA256
    res = arrow(8, 17, 3, 3, dedup=True)
    assert res.holds  # above the classical threshold turan_number(8, 2) = 16
    res = arrow(8, 16, 3, 3, dedup=True)
    assert not res.holds


# complements of the arrow sets of the five density-1 pairs, pinned from the
# first verified run; each stays a short tail/head segment as n grows
MISSING_SPECIAL = {
    (2, 0): {3: [3], 4: [6], 5: [10], 6: [15], 7: [21]},
    (2, 1): {3: [0], 4: [0], 5: [0], 6: [0], 7: [0]},
    (4, 3): {4: [0, 1, 2, 4, 5, 6],
             5: [0, 1, 2, 3, 4, 6, 7, 8, 9, 10],
             6: [0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15],
             7: [0, 1, 2, 3, 4, 5, 6, 15, 16, 17, 18, 19, 20, 21]},
    (5, 4): {5: [0, 1, 2, 3, 5, 6, 7, 8, 9, 10],
             6: list(range(16)),
             7: [0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17,
                 18, 19, 20, 21]},
    (5, 6): {5: [0, 1, 2, 3, 4, 5, 7, 8, 9, 10],
             6: list(range(16)),
             7: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15, 16, 17,
                 18, 19, 20, 21]},
}


def test_special_pair_arrow_sets_pinned():
    for (m, f), by_n in MISSING_SPECIAL.items():
        for n, missing in by_n.items():
            s = set(compute_Snm(n, m, f).members())
            assert sorted(set(range(tri(n) + 1)) - s) == missing, (m, f, n)


def test_graphmask_roundtrip():
    edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    g = GraphMask(n=5, edges=sum(1 << pair_list(5).index(e) for e in edges))
    assert g.edge_count == 6
    assert g.edge_list() == edges
    with pytest.raises(ValueError):
        GraphMask(n=3, edges=1 << 5)


def test_induced_closure_examples():
    assert induced_closure_check(10, 3, 5)
    assert induced_closure_check(6, 1, 3)
    assert induced_closure_check(12, 4, 6, trials=2000, seed=3)


def test_induced_closure_scale_guard():
    with pytest.raises(ScaleRejected):
        induced_closure_check(13, 3, 5)
    with pytest.raises(ScaleRejected):
        induced_closure_check(11, 3, 5)  # exhaustive mode needs n <= 10
    for trials in (-1, 0):  # would certify nothing
        with pytest.raises(ValueError, match="trials >= 1"):
            induced_closure_check(6, 2, 3, trials=trials)


def test_concentration_exact_small():
    rep = concentration_experiment(6, 5, 3, trials=500, seed=0)
    assert rep.enum_mean == Fraction(1)
    assert rep.expectation_identity_ok
    assert rep.expected_mean == pytest.approx(1.0)


def test_concentration_needs_a_draw():
    # no draw leaves every tail vacuously within its bound
    for trials in (-1, 0):
        with pytest.raises(ValueError, match="trials >= 1"):
            concentration_experiment(6, 5, 3, trials=trials)


def test_concentration_graph_charged_to_guard(monkeypatch):
    # the N x N graph is charged to the memory guard before any draw; the
    # default cap still admits the N = 2000 that a fixed limit allowed
    from edgespectra.triangles import _DEFAULT_MAX_TABLE_BITS, SpectrumMemoryError

    assert 8 * graphs._GRAPH_CELL_BYTES * 2000 ** 2 <= _DEFAULT_MAX_TABLE_BITS
    cells = 8 * graphs._GRAPH_CELL_BYTES * 40 ** 2
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("a draw began"))
    monkeypatch.setenv("EDGESPECTRA_MAX_TABLE_BITS", str(cells - 1))
    with pytest.raises(SpectrumMemoryError, match=f"concentration graph cells need ~{cells} bits"):
        concentration_experiment(40, 10, 5, trials=1)
    monkeypatch.undo()
    monkeypatch.setenv("EDGESPECTRA_MAX_TABLE_BITS", str(cells + 8 * graphs._TRIAL_BYTES))
    assert concentration_experiment(40, 10, 5, trials=1).N == 40


def test_concentration_zero_edges():
    rep = concentration_experiment(12, 0, 4, trials=200, seed=0)
    assert rep.empirical_mean == 0.0 and rep.empirical_std == 0.0
    assert rep.enum_mean == 0


def test_concentration_whole_graph_subsets():
    # with N == n every subset is the whole graph: the deviation is exactly
    # 0, t is 0 and every tail bound is 2 exp(0) = 2
    rep = concentration_experiment(5, 3, 5, trials=10, seed=0)
    assert rep.empirical_std == 0.0 and rep.empirical_mean == rep.expected_mean == 3.0
    assert all(t.t == 0.0 and t.bound == 2.0 and t.observed == 1.0 for t in rep.tails)
    assert rep.tails_ok


def test_concentration_monte_carlo():
    rep = concentration_experiment(200, 5000, 30, trials=20_000, seed=42)
    se = rep.empirical_std / (rep.trials ** 0.5)
    assert abs(rep.empirical_mean - rep.expected_mean) <= 3 * max(se, 1e-9)
    assert rep.tails_ok


def test_decoded_pairs_match_pair_list():
    for N in range(2, 31):
        u, v = graphs._decode_pairs(N, np.arange(tri(N), dtype=np.int64))
        assert list(zip(u.tolist(), v.tolist())) == list(pair_list(N)), N


@pytest.mark.parametrize("N,n,density", [
    (2, 2, 1.0), (6, 3, 0.5), (9, 9, 0.3), (12, 5, 0.4),
    (17, 7, 0.5), (30, 2, 0.2), (40, 3, 0.9),
    (40, 38, 0.5)])  # 780 subsets, 726 per pass: crosses a pass boundary
def test_induced_edge_total_matches_oracle(N, n, density):
    rng = np.random.default_rng(N * 100 + n)
    upper = np.triu(rng.random((N, N)) < density, 1)
    adj = upper | upper.T
    assert graphs._induced_edge_total(adj, n) == induced_edge_total_per_subset(adj, n)


@pytest.mark.parametrize("N,n,cells", [
    (17, 7, 3 * 49 + 5),  # 3 subsets per pass; 19,448 = 3 * 6,482 + 2
    (40, 38, 1),  # below one subset's n*n cells: still one subset per pass
    (30, 28, 7 * 784)])
def test_induced_edge_total_pass_boundaries(monkeypatch, N, n, cells):
    """A small cell budget splits the enumeration into many passes, the
    last one partial, without changing the total."""
    rng = np.random.default_rng(N * 100 + n)
    upper = np.triu(rng.random((N, N)) < 0.5, 1)
    adj = upper | upper.T
    expected = induced_edge_total_per_subset(adj, n)
    monkeypatch.setattr(graphs, "_ENUM_CELLS", cells)
    assert graphs._induced_edge_total(adj, n) == expected


@pytest.mark.parametrize("N,E,n,trials,seed", [
    (6, 5, 3, 500, 0), (12, 30, 5, 200, 1), (12, 66, 5, 200, 2),
    (12, 0, 4, 50, 3),  # no edges
    (7, 10, 7, 40, 4),  # every sample is the whole graph
    (50, 600, 10, 300, 5),
    (40, 300, 30, 1500, 6)])  # 1500 * 30^2 cells: two passes, the second partial
def test_concentration_matches_per_trial_oracle(N, E, n, trials, seed):
    assert concentration_experiment(N, E, n, trials, seed) == \
        concentration_per_trial(N, E, n, trials, seed)


def test_concentration_pass_boundaries(monkeypatch):
    # two subsets of 25 cells per pass: 101 trials end on a partial pass
    monkeypatch.setattr(graphs, "_ENUM_CELLS", 2 * 25 + 3)
    assert concentration_experiment(12, 30, 5, 101, 7) == concentration_per_trial(12, 30, 5, 101, 7)


def test_concentration_reproducible():
    a = concentration_experiment(50, 300, 10, trials=2000, seed=9)
    b = concentration_experiment(50, 300, 10, trials=2000, seed=9)
    assert a == b
