"""Finite-scale computation and certification of induced-subgraph edge spectra.

The package is organized around five computable object families:

- certify: rule-based certified bounds on the asymptotic density of a
  target pair (m, f), with minimal clique ranks and triple identities;
- cliquespec: exact edge spectra of unions of at most r cliques, with
  witnesses, density measurements and interval checks;
- squares: three-square decompositions and the constructive seven-clique
  witness solver;
- pell: the x^2 - 7y^2 = -3 solution family and its derived pairs of
  density exactly 1/2;
- graphs: exhaustive small-graph ground truth for the arrow relation,
  plus the concentration experiment;
- repcount: representation counts certifying membership among unions of
  five cliques.

graphs is the one module that imports numpy; every other module, and
every certified integer path, computes in exact Python ints.

Every result is a record: a collections.namedtuple subclass with no
instance dictionary, built by tuple.__new__ and read by field name.  A
record whose fields must agree checks them in its __new__; _make and
_replace skip that check.  Records are tuples, so they unpack and compare
equal to a plain tuple of the same values.
"""

__version__ = "0.1.0"

from .certify import (
    PairMF,
    SPECIAL_PAIRS,
    Verdict,
    classify_pair,
    dm_witness,
    triple_identity,
    min_r,
    min_r_witness,
    three_part_witness,
)
from .cliquespec import (
    CliquePartition,
    EdgeSpectrum,
    bounded_partitions,
    density_and_bounds,
    member_witness,
    spectrum,
    verify_interval,
)
from .graphs import (
    ArrowResult,
    GraphMask,
    ScaleRejected,
    arrow,
    canonical_reps,
    compute_Snm,
    concentration_experiment,
    induced_closure_check,
    interval_runs,
    turan_check,
    turan_number,
)
from .pell import (
    ABCReport,
    FamilyPair,
    PellSolution,
    family_pair,
    pell_solutions,
    verify_ABC,
)
from .repcount import (
    ExceptionalReport,
    RepHistogram,
    exceptional_count,
    rep_histogram,
)
from .squares import (
    PreconditionViolated,
    ThreeSquareDecomp,
    WindowExhausted,
    Witness7,
    bennett_search,
    is_three_square,
    r7_interval,
    three_square_decomp,
    witness7,
)
from .triangles import (BudgetExceeded, EdgespectraError, SpectrumMemoryError, decompose_lower,
                        decompose_upper, tri, tri_root, two_part_witness)

__all__ = [name for name in dir() if not name.startswith("_")]
