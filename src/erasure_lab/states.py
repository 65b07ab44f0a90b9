"""Finite-dimensional Hilbert-space primitives.

State vectors over composite systems, unitaries, tensor products and
partial traces.  Amplitudes are stored flat in row-major multi-index order
with subsystem 0 as the slowest index, so serialized output is
reproducible across implementations at a given precision.

All values are immutable after construction and every operation is a pure
function; complex numbers are 64-bit per component throughout.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

# The identities this library checks are exact, so a violation at this
# scale indicates a bug rather than physics.
EXACT_TOL = 1e-10


def require(what: str, residual: float, tol: float) -> None:
    """Reject unless `residual <= tol` (NaN fails), with a ValueError naming the check."""
    if not residual <= tol:
        raise ValueError(f"{what}: {float(residual)!r} exceeds tolerance {tol!r}")


def positive_number(name: str, raw, kind: type) -> float | int:
    """`raw` as a positive finite `kind`, or a ValueError naming the argument.

    Only real numbers are accepted: strings, booleans, NaN, infinities,
    subnormal floats (too few significant bits to integrate on) and (for int
    arguments) non-integral values are rejected rather than coerced.
    """
    try:
        if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
            raise TypeError
        value = kind(raw)
        valid = math.isfinite(value) and (kind is float or value == raw)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a finite number'}")
    if value < np.finfo(float).tiny:
        raise ValueError(f"{name} must be positive" + ("" if value <= 0 else " and not subnormal"))
    return value


def _readonly(values, dtype=np.complex128) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def require_orthonormal(vectors: np.ndarray, what: str) -> None:
    """Reject unless the rows of `vectors` are orthonormal: ||Gram - I||_F <= EXACT_TOL."""
    if not np.isfinite(vectors).all():
        raise ValueError(f"{what} has non-finite entries")
    defect = np.linalg.norm(vectors.conj() @ vectors.T - np.eye(len(vectors)))
    require(f"{what} orthonormality defect ||Gram - I||_F", defect, EXACT_TOL)


def _index(what: str, raw) -> int:
    """`raw` as an int (numpy integers included), or a ValueError naming it."""
    if isinstance(raw, bool) or not isinstance(raw, numbers.Integral):
        raise ValueError(f"{what} {raw!r} is not an integer")
    return int(raw)


def _partition(dims: tuple[int, ...], subsystems: Sequence[int]):
    """The validated `subsystems` of a space with `dims`, and the other indices ascending."""
    subsystems = tuple(_index("subsystem index", i) for i in subsystems)
    if len(set(subsystems)) != len(subsystems):
        raise ValueError(f"duplicate subsystem indices in {subsystems}")
    for i in subsystems:
        if not 0 <= i < len(dims):
            raise ValueError(f"subsystem index {i} out of range for {len(dims)} subsystems")
    return subsystems, tuple(i for i in range(len(dims)) if i not in subsystems)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of a composite system.

    `dims` are the ordered subsystem dimensions; `amplitudes` is flat, of
    length prod(dims), row-major over the subsystem multi-index.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = tuple(positive_number("dims", d, int) for d in self.dims)
        if not dims:
            raise ValueError(f"need at least one subsystem, each of dimension >= 1; got {dims}")
        amps = _readonly(self.amplitudes)
        total = math.prod(dims)
        if amps.ndim != 1 or amps.size != total:
            raise ValueError(f"expected {total} amplitudes, got array of shape {amps.shape}")
        require("|state vector norm - 1|", abs(float(np.linalg.norm(amps)) - 1.0), EXACT_TOL)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem."""
        return self.amplitudes.reshape(self.dims)


VectorLike = Union[np.ndarray, StateVector, Sequence[complex]]


def _as_vector(v: VectorLike) -> np.ndarray:
    if isinstance(v, StateVector):
        return v.amplitudes
    return np.asarray(v, dtype=np.complex128).reshape(-1)


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    matrix: np.ndarray

    def __post_init__(self):
        mat = _readonly(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        require_orthonormal(mat, "unitary matrix")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return len(self.matrix)


def basis_state(dims: Sequence[int], indices: Sequence[int]) -> StateVector:
    """Computational basis ket |indices> of the composite space."""
    dims = tuple(positive_number("dims", d, int) for d in dims)
    indices = tuple(_index("basis index", i) for i in indices)
    if len(indices) != len(dims) or not all(0 <= i < d for i, d in zip(indices, dims)):
        raise ValueError(f"need one basis index per subsystem, within its dimension; got {indices}")
    amps = np.zeros(int(np.prod(dims)), dtype=np.complex128)
    amps[int(np.ravel_multi_index(indices, dims))] = 1.0
    return StateVector(dims, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; the result's shape is the concatenation of inputs'."""
    return StateVector(a.dims + b.dims, np.kron(a.amplitudes, b.amplitudes))


def apply_unitary(state: StateVector, u: UnitaryOperator, targets: Sequence[int]) -> StateVector:
    """Apply `u` to the listed subsystems (identity elsewhere).

    `targets` is ordered: the row/column multi-index of `u` runs over the
    target dimensions in the given order.
    """
    targets, _ = _partition(state.dims, targets)
    if not targets:
        raise ValueError("apply_unitary needs at least one target subsystem")
    target_dims = [state.dims[t] for t in targets]
    if int(np.prod(target_dims)) != u.dim:
        raise ValueError(
            f"unitary dimension {u.dim} does not match target dimensions {target_dims}"
        )
    k = len(targets)
    psi = state.tensor_view()
    u_tensor = u.matrix.reshape(target_dims + target_dims)
    out = np.tensordot(u_tensor, psi, axes=(tuple(range(k, 2 * k)), targets))
    out = np.moveaxis(out, range(k), targets)
    return StateVector(state.dims, out.reshape(-1))


def coefficient_matrix(state: StateVector, split: Sequence[int]) -> np.ndarray:
    """State amplitudes as a (dim_split x dim_rest) matrix under the bipartition."""
    split, rest = _partition(state.dims, split)
    if not split or not rest:
        raise ValueError("split must be a nonempty proper subset of the subsystems")
    d_split = math.prod(state.dims[i] for i in split)
    return state.tensor_view().transpose(split + rest).reshape(d_split, -1)


def partial_trace(state: StateVector, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix on the `keep` subsystems (in the given order), as an array.

    As psi psi^dagger of a normalized state it is Hermitian, positive and of unit trace.
    """
    psi = coefficient_matrix(state, keep)
    return psi @ psi.conj().T


def trace_norm_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace norm of the difference of two Hermitian matrices, tr|a - b| (no 1/2 prefactor)."""
    if a.shape != b.shape:
        raise ValueError("operators must have equal dimension")
    return float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def haar_random_unitary(dim: int, rng: np.random.Generator) -> UnitaryOperator:
    """Haar-distributed random unitary via QR with phase correction."""
    dim = positive_number("dim", dim, int)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return UnitaryOperator(q * phases)
