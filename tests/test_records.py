"""The result records are immutable named tuples: every construction
through the class is validated where the class validates, fields cannot
be assigned, repr leaves out the fields that can be huge, and positional
and keyword construction agree."""

import importlib
from fractions import Fraction

import pytest

from edgespectra import certify, cliquespec, graphs, pell, repcount, squares
from edgespectra.certify import PairMF, TraceEntry, Verdict
from edgespectra.cliquespec import CliquePartition
from edgespectra.graphs import GraphMask, ScaleRejected
from edgespectra.pell import FamilyPair, PellSolution
from edgespectra.squares import ThreeSquareDecomp
from oracles import replace
from test_hygiene import RECORDS

HALF = Fraction(1, 2)
TRACE = (TraceEntry("thm-upper-1/2", "pair"),)


@pytest.mark.parametrize("build,error", [
    (lambda: PairMF(1, 0), ValueError),                   # m < 2
    (lambda: PairMF(4, 7), ValueError),                   # f > tri(4)
    (lambda: Verdict(None, HALF, None, ()), ValueError),  # empty trace
    (lambda: Verdict(None, HALF, Fraction(2, 3), TRACE), ValueError),  # lower > upper
    (lambda: Verdict(HALF, HALF, None, TRACE), ValueError),  # exact, interval open
    (lambda: CliquePartition((2, 1), 4), ValueError),     # parts sum to 3
    (lambda: CliquePartition((5, -1), 4), ValueError),    # negative part
    (lambda: GraphMask(9, 0), ScaleRejected),             # n above MAX_DEDUP_N
    (lambda: GraphMask(3, 1 << 3), ValueError),           # bit beyond tri(3)
    (lambda: PellSolution(2, 2, 0), ValueError),          # not x^2 - 7y^2 = -3
    (lambda: replace(pell.family_pair(1), m=1113), ValueError),  # m != 5t + 2
    (lambda: replace(pell.family_pair(1), c=2), ValueError),  # triple identity fails
    (lambda: ThreeSquareDecomp(14, 3, 2, 2), ValueError),  # 3^2 + 2^2 + 2^2 != 14
    (lambda: ThreeSquareDecomp(14, 2, 3, 1), ValueError),  # not nonincreasing
])
def test_validating_records_refuse_bad_values(build, error):
    with pytest.raises(error):
        build()


def _blank(cls):
    """An instance of cls that skips its validation: field assignment is
    refused by the tuple, whatever the values."""
    return tuple.__new__(cls, (0,) * len(cls._fields))


@pytest.mark.parametrize("module,name", [(mod, cls) for mod, names in RECORDS.items()
                                         for cls in names])
def test_record_fields_cannot_be_assigned(module, name):
    cls = getattr(importlib.import_module(f"edgespectra.{module}"), name)
    record = _blank(cls)
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], 1)
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dictionary either


def test_repr_leaves_out_huge_fields():
    spec = cliquespec.spectrum(2000, 5)  # a mask of tri(2000) + 1 bits
    assert repr(spec) == "EdgeSpectrum(n=2000, r=5)"
    verdict = certify.classify_pair(7, 12)
    assert repr(verdict) == "Verdict(exact=Fraction(0, 1), upper=Fraction(0, 1), " \
                            "lower=Fraction(0, 1))"
    hist = repcount.rep_histogram(20, 4)
    assert repr(hist) == "RepHistogram(n=20, N=4, sum_cap=20)"


def test_clique_partition_stores_parts_sorted():
    w = CliquePartition(parts=(1, 3, 0, 2), n=6)
    assert w.parts == (3, 2, 1, 0)
    assert w == CliquePartition((3, 2, 1, 0), 6) == CliquePartition((0, 1, 2, 3), 6)


@pytest.mark.parametrize("cls,values", [
    (PairMF, (7, 12)),
    (TraceEntry, ("iv", "f", (("l", 5), ("lp", 2)))),
    (Verdict, (None, HALF, None, TRACE)),
    (CliquePartition, ((3, 1), 4)),
    (cliquespec.EdgeSpectrum, (5, 2, 0b10001010000)),
    (GraphMask, (4, 0b101101)),
    (PellSolution, (37, 14, 2)),
    (FamilyPair, tuple(pell.family_pair(1))),
    (ThreeSquareDecomp, (14, 3, 2, 1)),
    (squares.Witness7, tuple(squares.witness7(30000, 100_000_000))),
    (graphs.TailCheck, (0.5, 0.1, 0.05, 0.01)),
    (repcount.RepHistogram, tuple(repcount.rep_histogram(20, 4))),
])
def test_positional_and_keyword_construction_agree(cls, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls._fields, values)))
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    assert tuple(by_position) == values
