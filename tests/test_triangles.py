import random
from math import isqrt

import pytest

from edgespectra.pell import family_pair
from edgespectra.triangles import (
    LowerDecomp,
    UpperDecomp,
    ceil_sqrt,
    clique_parts,
    decompose_lower,
    decompose_upper,
    first_square,
    int_roots,
    is_triple,
    min_clique_edges,
    realizes,
    tri,
    tri_floor_root,
    tri_root,
)


def test_tri_basics():
    assert [tri(x) for x in range(7)] == [0, 0, 1, 3, 6, 10, 15]


def test_tri_root():
    assert tri_root(0) == 1
    assert tri_root(1) == 2
    assert tri_root(3) == 3
    assert tri_root(2) is None
    assert tri_root(222111) == 667
    assert tri_root(-1) is None


def test_tri_floor_root():
    # the largest x >= 1 with tri(x) <= f, by scan, and past 64 bits
    for f in range(2000):
        x = tri_floor_root(f)
        assert x >= 1 and tri(x) <= f < tri(x + 1), f
    big = tri(10 ** 30)
    assert [tri_floor_root(g) for g in (big - 1, big, big + 10 ** 30 - 1, big + 10 ** 30)] == [
        10 ** 30 - 1, 10 ** 30, 10 ** 30, 10 ** 30 + 1]


def test_realizes():
    assert realizes((3, 2), 5, 4)
    assert realizes((3, 2, 0, 0), 5, 4)  # empty parts are allowed
    assert realizes((), 0, 0)
    assert not realizes((3, 3, -1), 5, 7)  # sums to 5 with tri(-1) = 1, but a part is < 0
    assert not realizes((3, 2), 6, 4)  # wrong vertex count
    assert not realizes((3, 2), 5, 5)  # wrong edge count


# (m, f) and (a, b, c): the Pell family pairs k = 1..6, then the rank-4
# pair (38, 325) and the rank-3 pair (59, 630)
TRIPLES = {**{f"pell-k{fp.k}": ((fp.m, fp.f), (fp.a, fp.b, fp.c))
              for fp in map(family_pair, range(1, 7))},
           "38-325": ((38, 325), (26, 28, 13)), "59-630": ((59, 630), (36, 47, 14))}


@pytest.mark.parametrize("name", TRIPLES)
def test_is_triple_and_its_mutants(name):
    pair, abc = TRIPLES[name]
    assert is_triple(*pair, *abc)
    for i in range(3):
        for delta in (-1, 1):
            mutant = list(abc)
            mutant[i] += delta
            assert not is_triple(*pair, *mutant), (pair, mutant)


def test_int_roots_small_by_definition():
    # |root| <= 1 + max(|p|, |q|), so the scan below sees every integer root
    for p in range(-20, 21):
        for q in range(-100, 101):
            hits = [x for x in range(-105, 106) if x * x - p * x + q == 0]
            expect = tuple(sorted((hits[0], p - hits[0]))) if hits else ()
            assert int_roots(p, q) == expect, (p, q)


def test_int_roots_beyond_64_bits():
    rng = random.Random(64)
    for _ in range(2000):
        a, b = sorted(rng.randrange(-(2 ** 90), 2 ** 90) for _ in range(2))
        assert int_roots(a + b, a * b) == (a, b)
        if b - a > 2:  # discriminant (b - a)^2 - 4 is then not a square
            assert int_roots(a + b, a * b + 1) == ()
    k = 2 ** 70  # 4k^2 - 4 rounds to the square 4k^2 in floating point
    assert int_roots(2 * k, 1) == ()
    assert int_roots(2 * k, k * k) == (k, k)
    assert int_roots(0, 1) == ()


def first_square_brute(d, step, turn, count):
    """first_square from the closed form of each term, every term by isqrt."""
    for i in range(count):
        term = d + i * step + turn * i * (i - 1) // 2
        s = isqrt(term)
        if s * s == term:
            return i, s
    return None


@pytest.mark.parametrize("turn", [-6, -2, 0, 2])
def test_first_square_matches_brute_walk(turn):
    # seeded sequences at three scales, past 2^64 too, half of them with a
    # planted square; count is cut where a falling sequence goes negative
    rng = random.Random(turn)
    hits = 0
    for scale in (10, 2 ** 40, 2 ** 70):
        for _ in range(300):
            count, step = rng.randrange(60), rng.randrange(-scale, scale)
            d = rng.randrange(scale * scale)
            if rng.random() < 0.5 and count:  # make term i0 the square s^2
                i0, s = rng.randrange(count), rng.randrange(scale)
                d = s * s - i0 * step - turn * i0 * (i0 - 1) // 2
            count = next((i for i in range(count)
                          if d + i * step + turn * i * (i - 1) // 2 < 0), count)
            want = first_square_brute(d, step, turn, count)
            assert first_square(d, step, turn, count) == want, (d, step, turn, count)
            hits += want is not None
    assert hits > 300
    assert first_square(5, 1, turn, 0) is None
    assert first_square(0, 3, turn, 4) == (0, 0)
    assert first_square(2, 2, 0, 5) == (1, 2) and first_square(2, 2, 0, 1) is None
    big = 2 ** 64 + 1  # no square; one step of 2^33 reaches (2^32 + 1)^2
    assert first_square(big, 2 ** 33, turn, 2) == (1, 2 ** 32 + 1)


def test_ceil_sqrt_matches_brute_force():
    s = 0
    for n in range(100_001):
        while s * s < n:
            s += 1
        assert ceil_sqrt(n) == s, n
    rng = random.Random(80)
    for s in [2 ** k for k in range(81)] + [rng.randrange(2 ** 80) for _ in range(200)]:
        assert ceil_sqrt(s * s) == s
        assert ceil_sqrt(s * s + 1) == s + 1
        assert ceil_sqrt(s * s - 1) == s - (s == 1), s


def test_min_clique_edges_is_the_fewest_over_all_partitions():
    def partitions(v, j, cap):  # j parts in [0, cap], nonincreasing
        if j == 0:
            yield from [()] if v == 0 else []
            return
        for a in range(min(v, cap), -1, -1):
            for rest in partitions(v - a, j - 1, a):
                yield (a,) + rest

    for v in range(13):
        for j in range(1, 8):
            fewest = min(sum(tri(a) for a in p) for p in partitions(v, j, v))
            assert min_clique_edges(v, j) == fewest, (v, j)


def test_clique_parts_lists_no_singletons():
    # a tuple of v parts could not be built at this v
    v = 10 ** 12
    assert clique_parts(v, tri(v - 1), v) == (v - 1,)
    assert clique_parts(v, tri(v - 1), 1) is None
    assert clique_parts(v, 0, v) == ()
    assert clique_parts(v, 0, v - 1) is None
    assert clique_parts(v, tri(v) - 2 * (v - 2), 3) == (v - 2, 2)
    # 6 edges on 7 vertices: (4, 1, 1, 1) and (3, 3, 1); the first needs 4 parts
    assert clique_parts(7, 6, 7) == (4,)
    assert clique_parts(7, 6, 3) == (3, 3)
    for v, k in ((-1, 1), (5, 0)):
        with pytest.raises(ValueError):
            clique_parts(v, 0, k)


def test_decompositions_satisfy_their_inequalities():
    rng = random.Random(40)
    near = [tri(rng.randrange(10 ** 19, 10 ** 20)) + d for _ in range(500) for d in (-1, 0, 1)]
    far = [rng.randrange(10 ** 39, 10 ** 40) for _ in range(2000)]
    for f in [*range(1, 100_001), *near, *far]:
        up, low = decompose_upper(f), decompose_lower(f)
        assert tri(up.ell) <= f < tri(up.ell + 1) and tri(up.ell) + up.ellp == f
        assert tri(low.b - 1) < f <= tri(low.b) and tri(low.b) - low.bp == f


def test_upper_examples():
    assert decompose_upper(12) == UpperDecomp(5, 2)
    assert decompose_upper(0) == UpperDecomp(1, 0)
    assert decompose_upper(11) == UpperDecomp(5, 1)


def test_lower_examples():
    assert decompose_lower(11) == LowerDecomp(6, 4)
    assert decompose_lower(10) == LowerDecomp(5, 0)
    assert decompose_lower(3) == LowerDecomp(3, 0)


def test_lower_rejects_zero():
    with pytest.raises(ValueError):
        decompose_lower(0)
    with pytest.raises(ValueError):
        decompose_upper(-1)


def test_upper_roundtrip_and_range():
    for f in range(10_001):
        dec = decompose_upper(f)
        assert tri(dec.ell) + dec.ellp == f
        assert 0 <= dec.ellp < dec.ell


def test_lower_roundtrip_and_range():
    for f in range(1, 10_001):
        dec = decompose_lower(f)
        assert tri(dec.b) - dec.bp == f
        assert 0 <= dec.bp < dec.b - 1


def test_upper_uniqueness_by_scan():
    # brute scan over ell reproduces the closed-form decomposition
    for f in range(0, 500):
        hits = [(l, f - tri(l)) for l in range(1, f + 3) if 0 <= f - tri(l) < l]
        assert len(hits) == 1
        assert decompose_upper(f) == UpperDecomp(*hits[0])


def test_lower_uniqueness_by_scan():
    for f in range(1, 500):
        hits = [(b, tri(b) - f) for b in range(2, f + 3) if 0 <= tri(b) - f < b - 1]
        assert len(hits) == 1
        assert decompose_lower(f) == LowerDecomp(*hits[0])
