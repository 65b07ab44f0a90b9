"""Projective measurement, distant measurement, and detector coupling.

Measuring one subsystem of an entangled pair projectively steers the
unmeasured remainder into the partner state of the chosen basis, with no
interaction, purely through the correlations.  Coupling a subsystem to a
detector register relocates that correlation onto the enlarged system
without changing the Schmidt structure seen from the untouched side.

Measurement here is ideal (von Neumann).  Each outcome is represented by
its relative state (<b_k| x 1)|Psi>, left unnormalized: its squared norm is
the outcome's Born probability, and a non-selective measurement is the sum
of the outcomes' |r_k><r_k|.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import (
    EXACT_TOL, StateVector, VectorLike, _as_vector, _index, _partition, coefficient_matrix,
    partial_trace, positive_number, require, require_orthonormal, trace_norm_distance,
)


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
    for name, raw in (("alpha", alpha), ("beta", beta)):
        if isinstance(raw, bool) or not isinstance(raw, numbers.Number):
            raise ValueError(f"{name} must be a complex number, got {raw!r}")
    alpha, beta = complex(alpha), complex(beta)
    if abs(alpha) <= 1e-12 or abs(beta) <= 1e-12:
        raise ValueError("mark_which_way requires both amplitudes nonzero")
    require("||alpha|^2 + |beta|^2 - 1|", abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0), EXACT_TOL)
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
) -> np.ndarray:
    """Measure the `split` subsystems in `basis`; return each outcome's relative state.

    Row k of the (len(basis), d_rest) result is (<b_k| x 1)|state>, the
    unnormalized state outcome k leaves on the remaining subsystems,
    flattened in their row-major order.  Its squared norm is the Born
    probability of outcome k.  The basis must be orthonormal and complete on
    the measured part's support (probabilities must sum to 1).
    """
    psi = coefficient_matrix(state, split)
    vectors = np.array([_as_vector(b) for b in basis])
    if vectors.ndim != 2 or vectors.shape[1] != psi.shape[0]:
        raise ValueError(f"basis vectors must have dimension {psi.shape[0]}")
    require_orthonormal(vectors, "measurement basis")

    relative = vectors.conj() @ psi
    missing = 1.0 - float(np.vdot(relative, relative).real)
    require("measurement basis incomplete on the state's support (1 - total probability)", missing, EXACT_TOL)
    return relative


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
    register_dim = positive_number("register_dim", register_dim, int)
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
    relative: np.ndarray,
    compare: Sequence[int] | None = None,
) -> CutComparison:
    """Ignorance mixture of measurement outcomes vs the traced-out global state.

    `split` names the measured subsystems and `relative` holds one
    unnormalized relative state per outcome on the complement, as rows in
    the layout `distant_measure` returns; the mixture is the sum of their
    |r_k><r_k|.  `compare` names the global subsystems on which the two
    descriptions are compared, defaulting to the whole complement.  When the
    outcome set is complete the two are the same operator and the distance
    vanishes; an incomplete set is flagged and the (large) distance returned
    as a diagnostic.
    """
    split, rest = _partition(global_state.dims, split)
    compare = rest if compare is None else tuple(_index("subsystem index", i) for i in compare)
    for i in compare:
        if i not in rest:
            raise ValueError(f"subsystem {i} is not part of the unmeasured remainder")
    rest_dims = tuple(global_state.dims[i] for i in rest)
    relative = np.asarray(relative)
    if relative.ndim != 2 or relative.shape[1] != math.prod(rest_dims):
        raise ValueError("relative states do not match the unmeasured remainder")

    improper = partial_trace(global_state, compare)

    # Axes: outcome, the remainder's in `compare` order, the (possibly empty) rest.
    order = [rest.index(i) for i in compare] + [k for k, i in enumerate(rest) if i not in compare]
    branches = relative.reshape((-1,) + rest_dims).transpose([0] + [1 + k for k in order])
    branches = branches.reshape(len(relative), len(improper), relative.shape[1] // len(improper))
    mixture = np.einsum("kio,kjo->ij", branches, branches.conj())

    distance = trace_norm_distance(improper, mixture)
    complete = abs(float(np.vdot(relative, relative).real) - 1.0) <= EXACT_TOL
    return CutComparison(distance=distance, branches_complete=complete)
