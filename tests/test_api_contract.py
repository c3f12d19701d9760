"""The rows of the API contract: a public call returns a checkable answer
or raises a named package failure (BudgetExceeded, SpectrumMemoryError,
ScaleRejected or PreconditionViolated) or a ValueError for a bad value,
at any size of its integers.

Seeded (m, f) draws at m near 10^6, 2^63 (both sides of the machine
word), 10^30 and 10^100 go to the rank search's entry points, to
dm_witness and to classify_pair.  Then three_square_decomp, witness7,
the spectrum calls, the representation histogram, the closure check,
bennett_search and the Pell family calls get arguments of the same
sizes, and every other public function gets 3, 7, 2^63 + 9, 10^30 and
10^100.  Every public function of the package has a row here
(test_every_public_function_has_a_row).  Each call runs under a wall-clock alarm, with the step budgets of
the rank search, of dm_witness and of the three-square descent lowered,
so a call that would run on, or fail by a bare MemoryError, OverflowError
or RecursionError, fails the test by name.
"""

import argparse
import ast
import inspect
import pathlib
import random
import signal

import pytest

import edgespectra
from edgespectra import certify, cli, pell, squares
from edgespectra.certify import (classify_pair, dm_witness, min_r, min_r_witness,
                                 three_part_witness, triple_identity)
from edgespectra.cliquespec import (bounded_partitions, density_and_bounds, member_witness,
                                    spectrum, verify_interval)
from edgespectra.graphs import (arrow, canonical_reps, compute_Snm, concentration_experiment,
                                induced_closure_check, interval_runs, turan_check, turan_number)
from edgespectra.pell import family_pair, verify_ABC
from edgespectra.repcount import exceptional_count, rep_histogram
from edgespectra.squares import (bennett_search, is_three_square, r7_interval,
                                 three_square_decomp, witness7)
from edgespectra.triangles import (BudgetExceeded, EdgespectraError, SpectrumMemoryError,
                                   clique_parts, decompose_lower, decompose_upper, is_dm_witness,
                                   min_clique_edges, realizes, tri, tri_root, two_part_witness)

MAGNITUDES = {"1e6": 10 ** 6, "2^63": 2 ** 63, "1e30": 10 ** 30, "1e100": 10 ** 100}
DRAWS = 30  # (m, f) pairs per magnitude
ALARM_S = 5  # per call; the slowest call here takes well under a second
#: What a call may raise: a refusal by name, or a bad value.
NAMED = {"BudgetExceeded", "SpectrumMemoryError", "ScaleRejected", "PreconditionViolated",
         "ValueError"}


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
    """Calls run under ALARM_S of wall clock, a rank budget of 10^4 z-steps,
    a D(m) budget of 10^4 x-values and a descent budget of 10^4 y-steps;
    the fixture gives a runner that returns ("ok", result) or ("raised",
    exception type name)."""
    monkeypatch.setattr(certify, "_RANK_STEPS", 10 ** 4)
    monkeypatch.setattr(certify, "_DM_STEPS", 10 ** 4)
    monkeypatch.setattr(squares, "_DESCENT_STEPS", 10 ** 4)
    previous = signal.signal(signal.SIGALRM, _alarm)

    def run(fn, *args, **kwargs):
        signal.alarm(ALARM_S)
        try:
            return "ok", fn(*args, **kwargs)
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
    assert seen <= {"ok", "BudgetExceeded", "SpectrumMemoryError"}, seen
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
    with pytest.raises(BudgetExceeded, match="walked all 10000 z-steps"):
        three_part_witness(m, f)
    with pytest.raises(BudgetExceeded, match="walked all 10000 z-steps"):
        min_r(m, f)


#: The pair whose D(m) walk spans about 1.5 * 10^9 values of x.
LONG_DM_WALK = (2 ** 63 + 8, 21267647932558654001048558102690922510)


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
            assert is_dm_witness(m, f, w), (m, f)
        kind, v = bounded(classify_pair, m, f)
        seen.add(v if kind == "raised" else kind)
        if kind == "ok":
            assert bounded(v.validate, m, f) == ("ok", None), (m, f)
    assert seen <= {"ok", "BudgetExceeded", "SpectrumMemoryError"}, seen
    assert "ok" in seen


def test_long_dm_walk_is_refused_by_name(bounded):
    m, f = LONG_DM_WALK
    assert bounded(dm_witness, f, m) == ("raised", "BudgetExceeded")
    assert bounded(classify_pair, m, f) == ("raised", "BudgetExceeded")


def _outcome(kind: str, value) -> str:
    """"ok", or the name of what the call raised."""
    return value if kind == "raised" else kind


@pytest.mark.parametrize("magnitude", [10 ** 18, 10 ** 30, 10 ** 100],
                         ids=["1e18", "1e30", "1e100"])
def test_three_square_decomp_answers_or_refuses_by_name(bounded, magnitude):
    rng = random.Random(magnitude % 1009)
    seen = set()
    for _ in range(DRAWS):
        v = magnitude + rng.randint(-10 ** 6, 10 ** 6)
        kind, dec = bounded(three_square_decomp, v)
        seen.add(_outcome(kind, dec))
        if kind == "ok":
            assert (dec is None) == (not is_three_square(v)), v
            assert dec is None or (dec.target, dec.x ** 2 + dec.y ** 2 + dec.z ** 2) == (v, v), v
    assert seen <= {"ok", "BudgetExceeded"}, seen
    assert "ok" in seen


def test_hard_three_square_targets_are_refused_by_name(bounded):
    # unbudgeted, the descent of 10^30 + 3 ran past 30 s; 729555738377712073
    # spends even the default budget of two million y-steps
    for v in (10 ** 30 + 3, 729555738377712073):
        assert bounded(three_square_decomp, v) == ("raised", "BudgetExceeded")


@pytest.mark.parametrize("magnitude", [10 ** 6, 2 ** 63, 10 ** 30], ids=["1e6", "2^63", "1e30"])
def test_witness7_answers_or_refuses_by_name(bounded, magnitude):
    rng = random.Random(magnitude % 1009)
    seen = set()
    for _ in range(10):
        n = magnitude + rng.randint(-10, 10)
        lo, hi = r7_interval(n)
        for m in (lo, rng.randint(lo, hi), hi, lo - 1, hi + 1):
            kind, w = bounded(witness7, n, m)
            seen.add(_outcome(kind, w))
            if kind == "ok":
                assert (w.n, w.m) == (n, m) and bounded(w.validate) == ("ok", None), (n, m)
            elif not lo <= m <= hi:
                assert w == "PreconditionViolated", (n, m)
    assert seen <= {"ok", "BudgetExceeded", "PreconditionViolated"}, seen
    assert "PreconditionViolated" in seen


SPECTRUM_SIZES = {"2^63-10": 2 ** 63 - 10, "2^63+10": 2 ** 63 + 10, "1e30": 10 ** 30,
                  "1e100": 10 ** 100}


@pytest.mark.parametrize("n", list(SPECTRUM_SIZES.values()), ids=list(SPECTRUM_SIZES))
def test_spectrum_calls_answer_or_refuse_by_name(bounded, n):
    seen = set()
    for r in (1, 2, 5, 7, n):
        kind, spec = bounded(spectrum, n, r)
        seen.add(_outcome(kind, spec))
        if kind == "ok":
            assert spec.max_element <= tri(n) and spec.min_element in spec, (n, r)
        kind, rep = bounded(density_and_bounds, n, r)
        seen.add(_outcome(kind, rep))
        if kind == "ok":
            assert rep.bounds_ok, (n, r)
        kind, rep = bounded(verify_interval, n, r, 0.5, 1.0)
        seen.add(_outcome(kind, rep))
        if kind == "ok":
            assert rep.ok == (rep.first_gap is None), (n, r)
        for m in (0, n, tri(n) // 3, tri(n)):
            kind, w = bounded(member_witness, n, r, m)
            seen.add(_outcome(kind, w))
            if kind == "ok":
                assert w is None or w.realizes(n, r, m), (n, r, m)
    assert seen <= {"ok"} | NAMED, seen


def test_histogram_calls_answer_or_refuse_by_name(bounded):
    seen = set()
    for n in (3000, 10 ** 6, 2 ** 63 + 10, 10 ** 30, 10 ** 155, 10 ** 400):
        for N in (3, 60, n // 5, n):
            kind, hist = bounded(rep_histogram, n, N)
            seen.add(_outcome(kind, hist))
            if kind == "ok":
                assert len(hist.counts) == tri(n) + 1 and hist.total_tuples <= N ** 4, (n, N)
            kind, rep = bounded(exceptional_count, n, N)
            seen.add(_outcome(kind, rep))
            if kind == "ok":
                assert 0 <= rep.zeros <= rep.total and rep.N == N, (n, N)
        # the asymptotic margins n^2/ln n leave a float past 10^154: the
        # tuple budget refuses first
        kind, rep = bounded(exceptional_count, n, asymptotic=True)
        assert (kind, rep) == ("raised", "BudgetExceeded"), n
    assert seen == {"ok", "BudgetExceeded", "SpectrumMemoryError"}, seen


def test_closure_check_answers_at_any_r(bounded):
    # every check is exhaustive: at most 77 partitions of n = 12, whatever r
    for n, m in ((6, 3), (11, 5), (12, 6)):
        for r in (2 ** 63 - 10, 2 ** 63 + 10, 10 ** 30):
            assert bounded(induced_closure_check, n, r, m) == ("ok", True), (n, r, m)


def test_bennett_search_past_the_word(bounded):
    # O(log y_limit) steps of the Pell orbit: 10^100 answers at once
    kind, sols = bounded(bennett_search, 10 ** 100)
    assert kind == "ok" and sols == [(3, 2)]
    assert all(2 * tri(x) == tri(y * y) for x, y in sols)


@pytest.mark.parametrize("k", [10 ** 3, 10 ** 6, 10 ** 30], ids=["1e3", "1e6", "1e30"])
def test_pell_calls_answer_or_refuse_by_name(bounded, k):
    # k = 1000 is the largest index the Pell family calls take
    abc = cli.COMMANDS["abc"].run
    outcomes = [bounded(pell.family_pair, k), bounded(pell.pell_solutions, k),
                bounded(abc, argparse.Namespace(k_max=k))]
    if k > 1000:
        assert outcomes == [("raised", "BudgetExceeded")] * 3, k
        return
    (_, pair), (_, sols), (_, (rows, code)) = outcomes
    assert pair.k == k and len(sols) == k + 1 and (len(rows), code) == (k, 0)


#: The sizes every other public function gets: small, past the machine word
#: and far past it.
SIZES = {"3": 3, "7": 7, "2^63+9": 2 ** 63 + 9, "1e30": 10 ** 30, "1e100": 10 ** 100}
#: Isomorphism classes of graphs on 3 and 7 vertices.
GRAPH_CLASSES = {3: 4, 7: 1044}


def _legendre(v: int) -> bool:
    """v >= 1 is a sum of three squares unless it is 4^a (8b + 7)."""
    while v % 4 == 0:
        v //= 4
    return v % 8 != 7


@pytest.mark.parametrize("x", list(SIZES.values()), ids=list(SIZES))
def test_integer_calls_answer_at_any_size(bounded, x):
    kind, t = bounded(tri, x)
    assert kind == "ok" and 2 * t == x * (x - 1)
    assert bounded(tri_root, t) == ("ok", x)
    assert bounded(tri_root, t + 1) == ("ok", None)
    kind, low = bounded(decompose_lower, x)
    assert kind == "ok" and x == tri(low.b) - low.bp and 0 <= low.bp < low.b - 1
    kind, up = bounded(decompose_upper, x)
    assert kind == "ok" and x == tri(up.ell) + up.ellp and 0 <= up.ellp < up.ell
    assert bounded(is_three_square, x) == ("ok", _legendre(x))
    kind, (lo, hi) = bounded(r7_interval, x)
    assert kind == "ok" and 14 * (lo - 1) < x * x + 7 * x + 29400 <= 14 * lo
    assert (tri(x) - hi) ** 2 >= 66 * 66 * x ** 3 > (tri(x) - hi - 1) ** 2
    q, s = divmod(x, 7)  # the balanced 7-partite graph misses s parts of q + 1, 7 - s of q
    assert bounded(turan_number, x, 7) == ("ok", tri(x) - s * tri(q + 1) - (7 - s) * tri(q))
    kind, w = bounded(two_part_witness, x, tri(x - 1))
    assert kind == "ok" and sum(w) == x and min(w) >= 1 and realizes(w, x, tri(x - 1))
    kind, parts = bounded(bounded_partitions, x, 3)
    kind, first = bounded(next, parts)  # the generator is advanced once
    assert kind == "ok" and first == (x,)
    for f in (x - 1, tri(x) // 3):
        kind, ident = bounded(triple_identity, x, f)
        assert kind == "ok", (x, f)
        if ident is not None:
            a, b, c = ident
            assert f == tri(a) == tri(x) - tri(b) == c * (x - c), (x, f)


@pytest.mark.parametrize("x", list(SIZES.values()), ids=list(SIZES))
def test_graph_calls_answer_or_refuse_by_name(bounded, x):
    # the ground truth is exhaustive: past n = 7 (8 for the catalogue) every
    # call is refused by ScaleRejected, and the draw past its memory cap
    small = x in GRAPH_CLASSES
    kind, reps = bounded(canonical_reps, x)
    assert (kind, len(reps)) == ("ok", GRAPH_CLASSES[x]) if small else reps == "ScaleRejected"
    kind, res = bounded(arrow, x, 3, 3, 1)
    assert kind == "ok" if small else res == "ScaleRejected"
    if small:
        assert bounded(res.validate, 3, 3, 1) == ("ok", None)
    kind, spec = bounded(compute_Snm, x, 3, 1)
    assert kind == "ok" if small else spec == "ScaleRejected"
    if small:
        assert spec.members() == [e for e in range(tri(x) + 1) if arrow(x, e, 3, 1).holds]
    kind, runs = bounded(interval_runs, x, 3, 1)
    assert kind == "ok" if small else runs == "ScaleRejected"
    if small:
        assert [e for lo, hi in runs.runs for e in range(lo, hi + 1)] == spec.members()
    kind, ok = bounded(turan_check, x, 3)
    assert (kind, ok) == ("ok", True) if small else ok == "ScaleRejected"
    kind, rep = bounded(concentration_experiment, x, 3, 3, 1)
    assert kind == "ok" if small else rep == "SpectrumMemoryError"
    if small:
        assert (rep.N, rep.trials) == (x, 1) and rep.expectation_identity_ok is not False


@pytest.mark.parametrize("k", [3, 7, 1000])
def test_verify_abc_answers_on_family_pairs(bounded, k):
    # real pairs, m past 2^63 from k = 7 on: an int is outside the contract
    pair = family_pair(k)
    kind, rep = bounded(verify_ABC, pair)
    assert kind == "ok" and rep.all_ok and rep.pair == pair
    assert bounded(triple_identity, pair.m, pair.f) == ("ok", (pair.a, pair.b, pair.c))


def _row_functions() -> set[str]:
    """The names of the functions this module's rows run under bounded."""
    tree = ast.parse(pathlib.Path(__file__).read_text())
    return {call.args[0].id if isinstance(call.args[0], ast.Name) else call.args[0].attr
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "bounded" and call.args}


def test_every_public_function_has_a_row():
    public = {name for name in edgespectra.__all__
              if inspect.isfunction(getattr(edgespectra, name))}
    assert public - _row_functions() == set()
