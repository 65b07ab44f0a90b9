"""Projective measurement, distant measurement, and detector coupling.

Measuring one subsystem of an entangled pair projectively steers the
unmeasured remainder into the partner state of the chosen basis, with no
interaction, purely through the correlations.  Coupling a subsystem to a
detector register relocates that correlation onto the enlarged system
without changing the Schmidt structure seen from the untouched side.

Measurement here is selective and ideal (von Neumann); a non-selective
measurement is represented by its full outcome list, each outcome weighted
by its probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .schmidt import VectorLike, _as_vector, require_orthonormal
from .states import StateVector, _partition, coefficient_matrix, partial_trace, trace_norm_distance

COMPLETENESS_TOL = 1e-10
NULL_OUTCOME_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One selective outcome: Born probability and conditional remainder state.

    `post_state` is None for outcomes of (numerically) zero probability; such
    outcomes are retained so outcome sets always mirror the basis.
    """

    probability: float
    post_state: StateVector | None

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0 + 1e-12:
            raise ValueError(f"outcome probability {self.probability} outside [0, 1]")


@dataclass(frozen=True)
class CutComparison:
    """Trace-norm distance between the traced-out state and an outcome ensemble."""

    distance: float
    branches_complete: bool


def mark_which_way(alpha: complex, beta: complex) -> StateVector:
    """Entangle a marker with a two-level system: alpha|1,1> + beta|2,2>.

    The superposition alpha|1> + beta|2> is not destroyed; it moves to the
    pair, leaving the marked subsystem with no off-diagonal coherence.
    Both amplitudes must be nonzero, else nothing is marked.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    if abs(alpha) <= 1e-12 or abs(beta) <= 1e-12:
        raise ValueError("mark_which_way requires both amplitudes nonzero")
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-10:
        raise ValueError("amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = alpha
    amps[3] = beta
    return StateVector((2, 2), amps)


def balanced_pair() -> StateVector:
    """The equal-weight marked pair (|1,1> + |2,2>)/sqrt(2), the erasure source."""
    return mark_which_way(math.sqrt(0.5), math.sqrt(0.5))


def distant_measure(
    state: StateVector,
    split: Sequence[int],
    basis: Sequence[VectorLike],
) -> list[MeasurementOutcome]:
    """Measure the `split` subsystems in `basis`; return all outcomes, in basis order.

    Outcome k has probability ||(<b_k| x 1)|state>||^2 and the normalized
    projection as its conditional state on the remaining subsystems.  The
    basis must be orthonormal and complete on the measured part's support
    (probabilities must sum to 1).
    """
    psi = coefficient_matrix(state, split)
    rest_dims = tuple(state.dims[i] for i in _partition(state.dims, split)[1])
    d_meas = psi.shape[0]

    vectors = np.array([_as_vector(b) for b in basis])
    if vectors.ndim != 2 or vectors.shape[1] != d_meas:
        raise ValueError(f"basis vectors must have dimension {d_meas}")
    require_orthonormal(vectors, "measurement basis")

    projections = vectors.conj() @ psi
    probabilities = np.einsum("kr,kr->k", projections, projections.conj()).real

    total = float(np.sum(probabilities))
    if not total >= 1.0 - COMPLETENESS_TOL:
        raise ValueError(
            f"measurement basis is incomplete on the state's support "
            f"(probabilities sum to {total!r})"
        )

    outcomes = []
    for k, p in enumerate(probabilities):
        p = float(max(p, 0.0))
        if p <= NULL_OUTCOME_TOL:
            outcomes.append(MeasurementOutcome(p, None))
        else:
            post = StateVector(rest_dims, projections[k] / np.sqrt(p))
            outcomes.append(MeasurementOutcome(p, post))
    return outcomes


def couple_shift_register(
    state: StateVector,
    shifts: Sequence[int],
    register_dim: int,
) -> StateVector:
    """Append a register in |0> and apply the controlled shift keyed on the last subsystem.

    The permutation |j>|m> -> |j>|m + shifts[j] mod register_dim> is applied
    by indexing, so large control spaces (position grids) never materialize
    a matrix.
    """
    shifts = np.asarray(shifts, dtype=int) % register_dim
    d_ctrl = state.dims[-1]
    if shifts.shape != (d_ctrl,):
        raise ValueError("need one register shift per control basis state")
    amp = state.amplitudes.reshape(-1, d_ctrl)
    out = np.zeros((amp.shape[0], d_ctrl, register_dim), dtype=np.complex128)
    out[:, np.arange(d_ctrl), shifts] = amp
    return StateVector(state.dims + (register_dim,), out.reshape(-1))


def cut_compare(
    global_state: StateVector,
    split: Sequence[int],
    outcomes: Sequence[MeasurementOutcome],
    compare: Sequence[int] | None = None,
) -> CutComparison:
    """Ignorance mixture of measurement outcomes vs the traced-out global state.

    `split` names the measured subsystems (post-measurement states live on
    the complement); `compare` names the global subsystems on which the two
    descriptions are compared, defaulting to the whole complement.  Outcomes
    without a post-state carry no weight and are skipped.  When the outcome
    set is complete the two are the same operator and the distance
    vanishes; an incomplete set is flagged and the (large) distance returned
    as a diagnostic.
    """
    split, rest = _partition(global_state.dims, split)
    compare = tuple(compare) if compare is not None else rest
    for i in compare:
        if i not in rest:
            raise ValueError(f"subsystem {i} is not part of the unmeasured remainder")

    improper = partial_trace(global_state, compare)

    # Post-state axes in `compare` order, then the (possibly empty) rest.
    local = tuple(rest.index(i) for i in compare)
    axes = local + tuple(k for k in range(len(rest)) if k not in local)
    realized = [o for o in outcomes if o.post_state is not None]
    mixture = np.zeros((improper.dim, improper.dim), dtype=np.complex128)
    for outcome in realized:
        if outcome.post_state.dims != tuple(global_state.dims[i] for i in rest):
            raise ValueError("outcome state dimensions do not match the unmeasured remainder")
        psi = outcome.post_state.tensor_view().transpose(axes).reshape(improper.dim, -1)
        mixture = mixture + outcome.probability * (psi @ psi.conj().T)

    distance = trace_norm_distance(improper.matrix, mixture)
    complete = abs(sum(o.probability for o in realized) - 1.0) <= COMPLETENESS_TOL
    return CutComparison(distance=distance, branches_complete=complete)
