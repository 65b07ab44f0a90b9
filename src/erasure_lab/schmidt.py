"""Canonical Schmidt decompositions and the antiunitary partner map.

A bipartite pure state always admits an expansion in biorthonormal bases
with positive coefficients.  The squared coefficients are the common
nonzero spectrum of the two reduced density operators; degeneracy in that
spectrum is what allows mutually incompatible distant measurements, so
degenerate states admit a continuum of distinct decompositions.  The
antiunitary partner map is the one fixed object connecting them: it sends
each left-side vector to its right-side partner in every decomposition of
the same state, and `SchmidtDecomposition.partner` reads it off any one of
them.  `reschmidt` re-expands a state in a chosen left basis by normalizing
the relative states that a distant measurement in that basis leaves.

Conventions:
  * decomposition bases are stored as 2-D arrays with one vector per row;
  * coefficients from `schmidt_decompose` are descending (SVD order);
  * each left vector's first component above 1e-12 is made real-positive,
    with the compensating phase pushed onto its right partner, so outputs
    are deterministic;
  * singular values at or below `SCHMIDT_CUTOFF` are dropped, and the rank
    is the number of retained terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measurement import distant_measure
from .states import StateVector, VectorLike, _as_vector, coefficient_matrix, require, require_orthonormal

SCHMIDT_CUTOFF = 1e-10
DEGENERACY_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-9
BIORTHOGONALITY_TOL = 1e-8
_PHASE_TOL = 1e-12


def _fix_phase(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate the pair so the left vector's first significant entry is real-positive."""
    nonzero = np.nonzero(np.abs(left) > _PHASE_TOL)[0]
    if nonzero.size == 0:
        return left, right
    phase = left[nonzero[0]] / abs(left[nonzero[0]])
    return left * np.conj(phase), right * phase


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Biorthonormal expansion of a bipartite pure state.

    ``sum_k coefficients[k] * kron(basis_left[k], basis_right[k])``
    reproduces the source state (in left-then-right subsystem order).
    """

    coefficients: np.ndarray
    basis_left: np.ndarray
    basis_right: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float)
        left = np.array(self.basis_left, dtype=np.complex128)
        right = np.array(self.basis_right, dtype=np.complex128)
        if coeffs.ndim != 1 or left.ndim != 2 or right.ndim != 2:
            raise ValueError("expected 1-D coefficients and 2-D basis arrays")
        if not (len(coeffs) == len(left) == len(right)):
            raise ValueError("coefficients and bases must have one entry per term")
        if not np.all(coeffs > 0):
            raise ValueError("Schmidt coefficients must be strictly positive")
        require("|sum of squared coefficients - 1|", abs(float(np.sum(coeffs**2)) - 1.0), 1e-8)
        for arr in (coeffs, left, right):
            arr.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "basis_left", left)
        object.__setattr__(self, "basis_right", right)

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    @property
    def dim_left(self) -> int:
        return self.basis_left.shape[1]

    @property
    def dim_right(self) -> int:
        return self.basis_right.shape[1]

    def weights(self) -> np.ndarray:
        """Squared coefficients; the shared reduced-density spectrum."""
        return self.coefficients**2

    def term(self, k: int) -> np.ndarray:
        """The k-th product term, coefficient included, as a flat bipartite vector."""
        return self.coefficients[k] * np.kron(self.basis_left[k], self.basis_right[k])

    def matrix(self) -> np.ndarray:
        """Coefficient matrix sum_k c_k |left_k><right_k*| of shape (dim_left, dim_right)."""
        return (self.basis_left.T * self.coefficients) @ self.basis_right

    def partner(self, vector: VectorLike) -> np.ndarray:
        """Image of `vector` under the antilinear partner map of the decomposed state.

        Conjugate the coordinates of `vector` in `basis_left`, then combine the
        right partners with them; components outside the left support are
        annihilated.  The same map comes out of every decomposition of a state.
        """
        require_orthonormal(self.basis_right, "basis_right")
        return self.basis_right.T @ (self.basis_left @ np.conj(_as_vector(vector)))


def schmidt_decompose(state: StateVector, split: Sequence[int]) -> SchmidtDecomposition:
    """Canonical decomposition across `split` (left) vs the remaining subsystems.

    Computed by SVD of the coefficient matrix; product states come back with
    rank 1 rather than an error.
    """
    matrix = coefficient_matrix(state, split)
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    retained = s > SCHMIDT_CUTOFF
    s = s[retained]
    left = u[:, retained].T.copy()
    right = vh[retained].copy()
    for k in range(len(s)):
        left[k], right[k] = _fix_phase(left[k], right[k])
    dec = SchmidtDecomposition(s, left, right)
    error = np.linalg.norm(dec.matrix() - matrix)
    require("Schmidt decomposition reconstruction error", error, RECONSTRUCTION_TOL)
    return dec


def is_epr_type(dec: SchmidtDecomposition) -> bool:
    """True when two retained squared coefficients agree within DEGENERACY_TOL."""
    return bool(np.any(np.diff(np.sort(dec.weights())) <= DEGENERACY_TOL))


def reschmidt(
    state: StateVector,
    split: Sequence[int],
    basis_left: Sequence[VectorLike],
) -> SchmidtDecomposition:
    """Re-expand `state` so the left basis is exactly `basis_left`.

    A distant measurement of the `split` subsystems in `basis_left` leaves
    the relative state c_k |partner_k> for outcome k (`distant_measure`);
    the coefficients are their norms and the partners the normalized
    relative states.  This yields a canonical decomposition exactly when
    the partners come out mutually orthogonal, which is guaranteed on any
    support where the squared coefficients are degenerate.  Otherwise the
    expansion is not biorthogonal and the call is rejected.

    The caller's vectors are kept verbatim (order and phases); coefficients
    are therefore in the caller's order, not sorted.
    """
    basis = np.array([_as_vector(v) for v in basis_left])
    partners = distant_measure(state, split, basis)
    coeffs = np.linalg.norm(partners, axis=1)
    if not np.all(coeffs > SCHMIDT_CUTOFF):
        raise ValueError(
            "a basis vector lies outside the state's correlated support; "
            "no positive-coefficient term exists for it"
        )
    partners = partners / coeffs[:, None]
    overlap = partners.conj() @ partners.T
    off_diag = np.max(np.abs(overlap - np.eye(len(basis))))
    # The partners overlap unless the state is degenerate on the span of basis_left.
    require("biorthogonality defect (max partner overlap)", off_diag, BIORTHOGONALITY_TOL)
    dec = SchmidtDecomposition(coeffs, basis, partners)
    residual = np.linalg.norm(dec.matrix() - coefficient_matrix(state, split))
    require("reconstruction residual (basis_left must span the state's support)", residual, RECONSTRUCTION_TOL)
    return dec
