"""The first rows of the API contract: a public call returns a checkable
answer or raises a named package failure (an EdgespectraError) or a
ValueError for a bad value, at any size of its integers.

Seeded (m, f) draws at m near 10^6, 2^63 (both sides of the machine
word), 10^30 and 10^100 go to the rank search's entry points, to
dm_witness and to classify_pair, each call under a wall-clock alarm and
with the step budgets of the rank search and of dm_witness lowered, so a
call that would run on, or fail by a bare MemoryError, OverflowError or
RecursionError, fails the test by name.
"""

import random
import signal

import pytest

from edgespectra import certify
from edgespectra.certify import classify_pair, dm_witness, min_r, min_r_witness, three_part_witness
from edgespectra.triangles import (EdgespectraError, SpectrumMemoryError, clique_parts,
                                   min_clique_edges, realizes, tri)

MAGNITUDES = {"1e6": 10 ** 6, "2^63": 2 ** 63, "1e30": 10 ** 30, "1e100": 10 ** 100}
DRAWS = 30  # (m, f) pairs per magnitude
ALARM_S = 5  # per call; the slowest call here takes well under a second


def _draws(magnitude: int, seed: int) -> list[tuple[int, int]]:
    """m within 10 of the magnitude, f from shapes that reach each branch
    of the search: uniform, near 0, near tri(m), near a balanced partition,
    exact two-part sums and a triple's product form."""
    rng = random.Random(seed)
    pairs = []
    for i in range(DRAWS):
        m = magnitude + rng.randint(-10, 10)
        top, shape = tri(m), i % 6
        if shape == 0:
            f = rng.randint(0, top)
        elif shape == 1:
            f = rng.randint(0, 4 * m)
        elif shape == 2:
            f = top - rng.randint(0, 4 * m)
        elif shape == 3:
            f = min_clique_edges(m, rng.randint(2, m)) + rng.randint(-m, m)
        elif shape == 4:
            a = rng.randint(1, m - 1)
            f = tri(a) + tri(m - a)
        else:
            c = rng.randint(1, m - 1)
            f = c * (m - c)
        pairs.append((m, min(max(f, 0), top)))
    return pairs


class _Timeout(Exception):
    """The alarm fired: the call ran past ALARM_S."""


def _alarm(signum, frame):
    raise _Timeout(f"no answer in {ALARM_S} s")


@pytest.fixture
def bounded(monkeypatch):
    """Calls run under ALARM_S of wall clock, a rank budget of 10^4 z-steps
    and a D(m) budget of 10^4 x-values; the fixture gives a runner that
    returns ("ok", result) or ("raised", exception type name)."""
    monkeypatch.setattr(certify, "_RANK_STEPS", 10 ** 4)
    monkeypatch.setattr(certify, "_DM_STEPS", 10 ** 4)
    previous = signal.signal(signal.SIGALRM, _alarm)

    def run(fn, *args):
        signal.alarm(ALARM_S)
        try:
            return "ok", fn(*args)
        except (EdgespectraError, ValueError) as exc:
            return "raised", type(exc).__name__
        finally:
            signal.alarm(0)

    yield run
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("magnitude", list(MAGNITUDES.values()), ids=list(MAGNITUDES))
def test_rank_search_answers_or_refuses_by_name(bounded, magnitude):
    seen = set()
    for m, f in _draws(magnitude, seed=magnitude % 1009):
        kind, r = bounded(min_r, m, f)
        seen.add(r if kind == "raised" else kind)
        if kind == "ok" and r is not None:
            assert 0 <= r < m, (m, f)
        kind, w = bounded(min_r_witness, m, f)
        seen.add(w if kind == "raised" else kind)
        if kind == "ok" and w is not None:
            assert realizes(w, m, f), (m, f)
        kind, t = bounded(three_part_witness, m, f)
        seen.add(t if kind == "raised" else kind)
        if kind == "ok" and t is not None:
            assert realizes(t, m, f) and t[0] >= t[1] >= t[2] >= 1, (m, f)
        kind, parts = bounded(clique_parts, m, f, m)
        seen.add(parts if kind == "raised" else kind)
        if kind == "ok" and parts is not None:
            assert sum(parts) <= m and realizes(parts, sum(parts), f), (m, f)
    assert seen <= {"ok", "RankBudgetExceeded", "SpectrumMemoryError"}, seen
    assert "ok" in seen


def test_balanced_partitions_past_the_word_are_refused_by_name():
    # the rank search of f = m lists a balanced partition of about m/3
    # parts; past the memory cap it is refused before the tuple is built
    for m in (10 ** 19, 10 ** 30):
        with pytest.raises(SpectrumMemoryError, match="clique parts need"):
            min_r(m, m)


def test_long_z_window_is_walked_under_the_budget(monkeypatch):
    # a z-window longer than 2^63 is walked, never measured by len()
    m = 10 ** 30 + 7
    f = 420100277988100338763050759994521657486208047816973245926469
    window = certify._z_window(m, f)
    assert window.stop - window.start > 2 ** 63
    monkeypatch.setattr(certify, "_RANK_STEPS", 10 ** 4)
    with pytest.raises(certify.RankBudgetExceeded):
        three_part_witness(m, f)
    with pytest.raises(certify.RankBudgetExceeded):
        min_r(m, f)


#: The pair whose D(m) walk spans about 1.5 * 10^9 values of x.
LONG_DM_WALK = (2 ** 63 + 8, 21267647932558654001048558102690922510)


def _dm_ok(w, m: int, f: int) -> bool:
    x, y, z = w
    return min(w) >= 0 and x * y + z == f and x + y <= m and (z == 0 or x + y + z <= m - 1)


@pytest.mark.parametrize("magnitude", list(MAGNITUDES.values()), ids=list(MAGNITUDES))
def test_dm_and_classify_answer_or_refuse_by_name(bounded, magnitude):
    draws = _draws(magnitude, seed=magnitude % 1009)
    if magnitude == 2 ** 63:
        draws.append(LONG_DM_WALK)
    seen = set()
    for m, f in draws:
        kind, w = bounded(dm_witness, f, m)
        seen.add(w if kind == "raised" else kind)
        if kind == "ok" and w is not None:
            assert _dm_ok(w, m, f), (m, f)
        kind, v = bounded(classify_pair, m, f)
        seen.add(v if kind == "raised" else kind)
        if kind == "ok":
            assert bounded(v.validate, m, f) == ("ok", None), (m, f)
    assert seen <= {"ok", "RankBudgetExceeded", "DmBudgetExceeded", "SpectrumMemoryError"}, seen
    assert "ok" in seen


def test_long_dm_walk_is_refused_by_name(bounded):
    m, f = LONG_DM_WALK
    assert bounded(dm_witness, f, m) == ("raised", "DmBudgetExceeded")
    assert bounded(classify_pair, m, f) == ("raised", "DmBudgetExceeded")
