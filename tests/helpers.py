"""Shared test utilities: random states and independent reference computations."""

from __future__ import annotations

import string
from functools import lru_cache

import numpy as np

from erasure_lab import (
    StateVector,
    UnitaryOperator,
    apply_unitary,
    balanced_pair,
    correlation_operator,
    couple_shift_register,
    schmidt_decompose,
    tensor,
)
from erasure_lab.erasure import _BASIS_KETS, _measure_marker, quadrature_grid


def random_state(rng: np.random.Generator, dims) -> StateVector:
    n = int(np.prod(dims))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return StateVector(tuple(dims), v / np.linalg.norm(v))


def reduced_density_oracle(state: StateVector, keep_axis: int) -> np.ndarray:
    """Reduced density matrix of one subsystem of a bipartite state via einsum.

    Deliberately independent of the library's partial_trace path.
    """
    psi = state.amplitudes.reshape(state.dims)
    if keep_axis == 0:
        return np.einsum("ab,cb->ac", psi, psi.conj())
    return np.einsum("ab,ac->bc", psi, psi.conj())


def trace_distance_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of singular values of the difference (trace norm, no 1/2)."""
    return float(np.sum(np.linalg.svd(a - b, compute_uv=False)))


def partial_trace_oracle(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Reduced density matrix of a full density matrix over subsystems `dims`, by einsum.

    Works on an operator rather than a state vector, so it shares no code
    with the library's partial_trace.
    """
    letters = string.ascii_letters
    n = len(dims)
    row = list(letters[:n])
    col = [row[i] if i not in keep else letters[n + i] for i in range(n)]
    out = [row[i] for i in keep] + [letters[n + i] for i in keep]
    d_keep = int(np.prod([dims[i] for i in keep]))
    reduced = np.einsum("".join(row + col) + "->" + "".join(out), rho.reshape(tuple(dims) * 2))
    return reduced.reshape(d_keep, d_keep)


def ensemble_density(outcomes) -> np.ndarray:
    """Weighted mixture sum_k p_k |post_k><post_k| over the realized outcomes."""
    realized = [o for o in outcomes if o.post_state is not None]
    dim = realized[0].post_state.amplitudes.size
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for o in realized:
        rho += o.probability * np.outer(o.post_state.amplitudes, o.post_state.amplitudes.conj())
    return rho


def controlled_shift_unitary(control_dim: int, register_dim: int, shifts) -> UnitaryOperator:
    """Permutation unitary |j>|m> -> |j>|m + shifts[j] mod register_dim> as an explicit matrix.

    The matrix route that couple_shift_register replaces by indexing.
    """
    dim = control_dim * register_dim
    mat = np.zeros((dim, dim))
    for j in range(control_dim):
        for m in range(register_dim):
            mat[j * register_dim + (m + shifts[j]) % register_dim, j * register_dim + m] = 1.0
    return UnitaryOperator(mat)


def which_way_marker(dim: int) -> UnitaryOperator:
    """Ideal marking interaction |j>|0> -> |j>|j> on an equal-sized register."""
    return controlled_shift_unitary(dim, dim, list(range(dim)))


def couple_detector(state: StateVector, detector_init: StateVector, u: UnitaryOperator, targets):
    """Append a detector in `detector_init` and evolve `targets` of the combined system by `u`."""
    return apply_unitary(tensor(state, detector_init), u, targets)


def screen_amplitude(config, d: str, x) -> np.ndarray | complex:
    """Screen wavefunction for outcome label d at position(s) x.

    The slit coefficients are the partner, under the source pair's
    correlation operator, of the marker ket labelled d: "1"/"2" give the bare
    slit modes, "+"/"-" the combinations (psi_1 +- psi_2)/sqrt(2), and
    "+i"/"-i" the conjugate patterns (psi_1 -+ i psi_2)/sqrt(2).
    """
    kets = {label: ket for choice in _BASIS_KETS.values() for label, ket in choice}
    if d not in kets:
        raise ValueError(f"unknown outcome label {d!r}")
    partner = correlation_operator(schmidt_decompose(balanced_pair(), (0,))).apply(kets[d])
    x_arr = np.atleast_1d(np.asarray(x, float))
    values = partner @ config.slit_modes(x_arr)
    return values if np.ndim(x) else complex(values[0])


def fringe_visibility(pattern) -> float:
    """(max - min) / (max + min) over a probability pattern's extrema."""
    values = np.asarray(pattern, dtype=float)
    if values.size == 0:
        raise ValueError("empty pattern")
    hi, lo = float(values.max()), float(values.min())
    return 0.0 if hi + lo == 0.0 else (hi - lo) / (hi + lo)


def dense_delayed_table(config, marker_unitary=None):
    """The delayed-choice table from an explicit localization register.

    The grid source is coupled to all n_bins + 1 register states by
    `couple_shift_register` (32 * n_bins * Q * (n_bins + 1) bytes), and each
    conditional state is read off its register blocks.  Oracle for the
    library route, which keeps the coupled state in the coupling's image.
    """
    nodes, weights, bin_index = quadrature_grid(config)
    sqrt_w = np.sqrt(weights)
    source = StateVector((2, nodes.size), (config.slit_modes(nodes) * sqrt_w * np.sqrt(0.5)).reshape(-1))
    coupled = couple_shift_register(source, bin_index, register_dim=config.n_bins + 1)

    def readout(post: np.ndarray) -> np.ndarray:
        blocks = post.reshape(nodes.size, config.n_bins + 1)[:, 1:]
        if config.born_rule == "intensity":
            return np.sum(np.abs(blocks) ** 2, axis=0)
        return np.abs(sqrt_w @ blocks) ** 2

    return _measure_marker(config, "delayed", coupled, marker_unitary, readout)


def grid_simple_table(config, marker_unitary=None):
    """The simple-erasure table binned on the delayed route's quadrature grid.

    Each partner wavefunction is sampled on `quadrature_grid(config)` and
    summed per bin with the same weights the delayed route uses, so it
    agrees with the delayed table to rounding at any quadrature_points.
    Oracle for checks of the delayed route's marker measurement and readout
    that must hold however coarse the grid is.
    """
    nodes, weights, bin_index = quadrature_grid(config)
    modes = config.slit_modes(nodes)

    def readout(partner: np.ndarray) -> np.ndarray:
        psi = partner @ modes
        if config.born_rule == "intensity":
            return np.bincount(bin_index, weights=weights * np.abs(psi) ** 2, minlength=config.n_bins + 1)[1:]
        sums = np.zeros(config.n_bins + 1, dtype=np.complex128)
        np.add.at(sums, bin_index, weights * psi)
        return np.abs(sums[1:]) ** 2

    return _measure_marker(config, "simple", balanced_pair(), marker_unitary, readout)


COVERAGE_TOL = 1e-6


@lru_cache(maxsize=4)
def _legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(points)


def bin_probability(config, d: str, n: int, rule: str = "intensity", points_per_bin: int = 256):
    """Detection value of outcome-d's screen wavefunction in 1-based bin n.

    `intensity` integrates |psi_d|^2 over the bin; `amplitude` is the squared
    modulus of the integrated amplitude.  The bin is integrated on its own
    Gauss-Legendre nodes mapped onto its `config.bin_edges`, independently of
    the library's quadrature grid and closed form.
    """
    if not 1 <= n <= config.n_bins:
        raise ValueError(f"bin index {n} out of range 1..{config.n_bins}")
    lo, hi = config.bin_edges[n - 1 : n + 1]
    x, w = _legendre(points_per_bin)
    half = (hi - lo) / 2.0
    psi = screen_amplitude(config, d, (lo + hi) / 2.0 + half * x)
    if rule == "intensity":
        return float(half * np.sum(w * np.abs(psi) ** 2))
    if rule == "amplitude":
        return float(abs(half * np.sum(w * psi)) ** 2)
    raise ValueError(f"unknown Born rule {rule!r}")


def coverage(config, labels=("1", "2", "+", "-", "+i", "-i"), points_per_bin: int = 256) -> float:
    """Smallest total detection probability over the array among the labels."""
    return min(
        sum(bin_probability(config, d, n, points_per_bin=points_per_bin) for n in range(1, config.n_bins + 1))
        for d in labels
    )
