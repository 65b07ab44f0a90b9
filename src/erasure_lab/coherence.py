"""Coherence bases of a balanced two-level pair and their exchange symmetry.

A coherence vector is a superposition of the two which-way states with both
components nonzero.  Re-expanding the maximally entangled pair in such a
basis produces product terms whose behaviour under the two-particle exchange
operator singles out two special bases: the one whose terms are each
exchange-invariant, and the one whose terms are swapped.  A grid search over
the relative phase verifies that exactly one basis of each kind exists; the
antilinear partner map cancels an overall phase in every expansion term.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .measurement import balanced_pair
from .schmidt import SchmidtDecomposition, reschmidt
from .states import StateVector, UnitaryOperator, positive_number

CLASSIFY_TOL = 1e-9
_TWO_PI = 2.0 * math.pi


class SymmetryClass(Enum):
    TERMWISE_SYMMETRIC = "termwise-symmetric"
    TERM_SWAPPING = "term-swapping"
    NEITHER = "neither"


@dataclass(frozen=True)
class CoherenceBasisParams:
    """Moduli and phases defining a coherence vector and its orthogonal mate.

    The first vector is ``e^{i lam} p |1> + e^{i delta} q |2>`` with
    0 < p < 1 and q = sqrt(1 - p^2); `gamma` is the free overall phase of the
    second vector.  All four are real numbers (not booleans); angles must be
    finite and are wrapped into [0, 2*pi).
    """

    p: float
    lam: float = 0.0
    delta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("p", "lam", "delta", "gamma"):
            raw = getattr(self, name)
            if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {raw!r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie strictly between 0 and 1")
        for name in ("lam", "delta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite angle")
            object.__setattr__(self, name, float(getattr(self, name)) % _TWO_PI)

    @property
    def q(self) -> float:
        return math.sqrt(1.0 - self.p * self.p)

    @classmethod
    def balanced(cls, lam: float = 0.0, delta: float = 0.0, gamma: float = 0.0) -> "CoherenceBasisParams":
        """Equal-modulus parameters p = q = sqrt(1/2), to rounding."""
        return cls(p=math.sqrt(0.5), lam=lam, delta=delta, gamma=gamma)


def coherence_pair(params: CoherenceBasisParams) -> tuple[StateVector, StateVector]:
    """The coherence vector and its (phase-convention) orthogonal partner."""
    a = np.array(
        [
            np.exp(1j * params.lam) * params.p,
            np.exp(1j * params.delta) * params.q,
        ]
    )
    b = np.array(
        [
            np.exp(1j * params.gamma) * params.q,
            np.exp(1j * (params.gamma + params.delta - params.lam + math.pi)) * params.p,
        ]
    )
    return StateVector((2,), a), StateVector((2,), b)


def exchange_operator(d: int) -> UnitaryOperator:
    """Two-particle exchange |j>|k> -> |k>|j> on a d x d bipartite space."""
    d = positive_number("d", d, int)
    swapped = np.arange(d * d).reshape(d, d).T.reshape(-1)  # row k*d + j holds j*d + k
    return UnitaryOperator(np.eye(d * d)[swapped])


def _matches_up_to_phase(u: np.ndarray, v: np.ndarray) -> bool:
    """True when u equals e^{i theta} v for some theta, within CLASSIFY_TOL in 2-norm."""
    z = np.vdot(v, u)
    if abs(z) < CLASSIFY_TOL:
        return bool(np.linalg.norm(u) < CLASSIFY_TOL and np.linalg.norm(v) < CLASSIFY_TOL)
    return bool(np.linalg.norm(u - (z / abs(z)) * v) <= CLASSIFY_TOL)


def classify_symmetry(dec: SchmidtDecomposition) -> SymmetryClass:
    """Exchange behaviour of a rank-2 decomposition on a 2x2 space.

    A term is mapped to itself (or to the other term) when the exchanged
    product vector matches it up to an overall phase, so the result is
    invariant under rephasing any basis vector.
    """
    if dec.rank != 2 or dec.dim_left != 2 or dec.dim_right != 2:
        raise ValueError("classification requires a rank-2 decomposition on a 2x2 space")
    t0, t1 = dec.term(0), dec.term(1)
    s0, s1 = (t.reshape(2, 2).T.reshape(-1) for t in (t0, t1))  # exchanged: 2x2 coefficients transposed
    if _matches_up_to_phase(s0, t0) and _matches_up_to_phase(s1, t1):
        return SymmetryClass.TERMWISE_SYMMETRIC
    if _matches_up_to_phase(s0, t1) and _matches_up_to_phase(s1, t0):
        return SymmetryClass.TERM_SWAPPING
    return SymmetryClass.NEITHER


def search_symmetric_bases(grid_steps: int) -> list[tuple[CoherenceBasisParams, SymmetryClass]]:
    """Grid search for exchange-symmetric coherence expansions of the balanced pair.

    Sweeps delta over {2*pi*k/grid_steps} with lam = gamma = 0 and
    p = q = sqrt(1/2), re-expands the maximally entangled pair in each basis
    and keeps the exchange-symmetric or exchange-swapped expansions, by class
    and then delta.  lam and gamma are overall phases of the basis vectors; the
    antilinear partner map conjugates them, so they cancel in every term.
    """
    grid_steps = positive_number("grid_steps", grid_steps, int)
    if grid_steps < 8:
        raise ValueError("grid_steps must be at least 8")
    pair = balanced_pair()
    found = []
    for k in range(grid_steps):
        params = CoherenceBasisParams.balanced(delta=_TWO_PI * k / grid_steps)
        cls = classify_symmetry(reschmidt(pair, (0,), coherence_pair(params)))
        if cls is not SymmetryClass.NEITHER:
            found.append((params, cls))
    return sorted(found, key=lambda item: item[1].value)


def search_results_csv(results: list[tuple[CoherenceBasisParams, SymmetryClass]]) -> str:
    """CSV rows `lambda,delta,class` for a search result list."""
    lines = ["lambda,delta,class"]
    for params, cls in results:
        lines.append(f"{params.lam:.17g},{params.delta:.17g},{cls.value}")
    return "\n".join(lines) + "\n"
