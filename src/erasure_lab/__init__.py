"""Quantum-erasure simulation toolkit.

Schmidt-decomposition machinery for bipartite pure states, distant
(measurement-steered) state preparation, detector coupling, and a two-slit
screen model on which simple and delayed-choice erasure pipelines are run
and compared.  Re-expanding a pair in a chosen basis (`reschmidt`) reads the
relative states of a distant measurement in that basis (`distant_measure`),
and the partner map is `SchmidtDecomposition.partner`.
"""

from .coherence import (
    CoherenceBasisParams,
    SymmetryClass,
    classify_symmetry,
    coherence_pair,
    exchange_operator,
    search_symmetric_bases,
)
from .erasure import (
    EqualityReport,
    ErasureConfig,
    ProbabilityTable,
    marker_states,
    run_delayed_choice,
    run_simple_erasure,
    verify_equality,
)
from .measurement import (
    CutComparison,
    balanced_pair,
    couple_shift_register,
    cut_compare,
    distant_measure,
    mark_which_way,
)
from .schmidt import (
    SchmidtDecomposition,
    is_epr_type,
    reschmidt,
    schmidt_decompose,
)
from .states import (
    StateVector,
    UnitaryOperator,
    apply_unitary,
    basis_state,
    haar_random_unitary,
    partial_trace,
    tensor,
    trace_norm_distance,
)

__version__ = "0.1.0"

__all__ = [
    "CoherenceBasisParams",
    "CutComparison",
    "EqualityReport",
    "ErasureConfig",
    "ProbabilityTable",
    "SchmidtDecomposition",
    "StateVector",
    "SymmetryClass",
    "UnitaryOperator",
    "apply_unitary",
    "balanced_pair",
    "basis_state",
    "classify_symmetry",
    "coherence_pair",
    "couple_shift_register",
    "cut_compare",
    "distant_measure",
    "exchange_operator",
    "haar_random_unitary",
    "is_epr_type",
    "mark_which_way",
    "marker_states",
    "partial_trace",
    "reschmidt",
    "run_delayed_choice",
    "run_simple_erasure",
    "schmidt_decompose",
    "search_symmetric_bases",
    "tensor",
    "trace_norm_distance",
    "verify_equality",
]
