"""Two-slit screen model and the erasure probability pipelines.

The source is a balanced marked pair: a marker particle entangled with a
screen particle whose two which-way states reach the detector plane as the
wavefunctions of a two-slit model.  Two pipelines produce the joint
probability table p(d, n) over marker outcomes d and detector bins n:

* simple (before-detection) erasure measures the marker first, then bins
  each conditional screen wavefunction with the chosen Born rule;
* delayed-choice (after-detection) erasure couples the screen particle to a
  localization register on a position grid first, measures the marker
  afterwards, and reads the joint statistics off the composite state.  The
  coupling is an isometry, so that state is held exactly in the coordinates
  of its image: one amplitude per marker state and grid node, tagged with
  the register state (the node's bin) it carries.

The simple pipeline bins in closed form and only the delayed one uses a
quadrature grid, so the maximum deviation between their tables that
`verify_equality` reports is the delayed route's discretization error.

The screen model, the detector bins and the quadrature size are the one
validated `ErasureConfig`; its `slit_modes` docstring gives the formula.

Detection rules: `intensity` integrates |psi|^2 over the bin (the standard
Born rule); `amplitude` squares the integrated amplitude instead.  The
amplitude rule does not normalize across bins for generic wavefunctions and
tables built with it are left unnormalized.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .measurement import balanced_pair, distant_measure
from .states import StateVector, UnitaryOperator, apply_unitary

SUM_TOL = 1e-6
DEFAULT_EQUALITY_TOL = 1e-9

MODES = ("simple", "delayed", "whichway")
BASIS_CHOICES = ("pm", "pmi", "whichway")
BORN_RULES = ("intensity", "amplitude")

_SQRT_HALF = math.sqrt(0.5)

# Marker measurement kets per basis choice, with outcome labels.
_BASIS_KETS: dict[str, tuple[tuple[str, np.ndarray], ...]] = {
    "pm": (
        ("+", np.array([_SQRT_HALF, _SQRT_HALF])),
        ("-", np.array([_SQRT_HALF, -_SQRT_HALF])),
    ),
    "pmi": (
        ("+i", np.array([_SQRT_HALF, 1j * _SQRT_HALF])),
        ("-i", np.array([_SQRT_HALF, -1j * _SQRT_HALF])),
    ),
    "whichway": (
        ("1", np.array([1.0, 0.0])),
        ("2", np.array([0.0, 1.0])),
    ),
}


def positive_number(name: str, raw, kind: type) -> float | int:
    """`raw` as a positive finite `kind`, or a ValueError naming the field.

    Only real numbers are accepted: strings, booleans, NaN, infinities,
    subnormal floats (too few significant bits to integrate on) and (for int
    fields) non-integral values are rejected rather than coerced.
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


@lru_cache(maxsize=8)
def _gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Joint probabilities p(d, n) over outcome labels d and 1-based bins n."""

    mode: str
    labels: tuple[str, ...]
    centers: np.ndarray
    values: np.ndarray
    born_rule: str = "intensity"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.born_rule not in BORN_RULES:
            raise ValueError(f"born_rule must be one of {BORN_RULES}")
        values = np.array(self.values, dtype=float)
        centers = np.array(self.centers, dtype=float)
        if values.shape != (len(self.labels), centers.size):
            raise ValueError("values must have shape (len(labels), n_bins)")
        if not np.min(values) >= -1e-12:
            raise ValueError("probabilities must be nonnegative")
        # The integrated-amplitude rule is not normalizable across bins, so
        # only intensity tables are required to sum to one.
        if self.born_rule == "intensity":
            total = float(values.sum())
            if not abs(total - 1.0) <= SUM_TOL:
                raise ValueError(f"table total {total!r} deviates from 1 beyond {SUM_TOL}")
        values.setflags(write=False)
        centers.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_bins(self) -> int:
        return self.centers.size

    def to_csv(self) -> str:
        """Deterministic CSV with header mode,d,n,x_center,p (17 significant digits)."""
        out = io.StringIO()
        out.write("mode,d,n,x_center,p\n")
        for i, d in enumerate(self.labels):
            for n in range(1, self.n_bins + 1):
                out.write(
                    f"{self.mode},{d},{n},{self.centers[n - 1]:.17g},{self.values[i, n - 1]:.17g}\n"
                )
        return out.getvalue()


@dataclass(frozen=True)
class ErasureConfig:
    """The experiment and its two-slit geometry; also the JSON schema of the config file.

    The validated fields define the screen window, the n_bins detector bins
    of equal width centered on the origin, and the slit modes on them.
    """

    envelope_width: float = 1.0
    phase_gradient: float = 3.0 * math.pi / 8.0
    n_bins: int = 16
    bin_width: float = 0.5
    span: float = 8.0
    basis: str = "pm"
    born_rule: str = "intensity"
    quadrature_points: int = 64

    def __post_init__(self):
        for name in ("envelope_width", "phase_gradient", "bin_width", "span"):
            object.__setattr__(self, name, positive_number(name, getattr(self, name), float))
        for name in ("n_bins", "quadrature_points"):
            object.__setattr__(self, name, positive_number(name, getattr(self, name), int))
        if self.basis not in BASIS_CHOICES:
            raise ValueError(f"basis must be one of {BASIS_CHOICES}")
        if self.born_rule not in BORN_RULES:
            raise ValueError(f"born_rule must be one of {BORN_RULES}")
        if abs(self.span - self.n_bins * self.bin_width) > 1e-9 * self.span:
            raise ValueError("span must equal n_bins * bin_width")
        if self.span < 8.0 * self.envelope_width * (1.0 - 1e-12):
            raise ValueError("span must cover the envelope support (8 * envelope_width)")

    @property
    def support_half_width(self) -> float:
        return 4.0 * self.envelope_width

    @property
    def bin_edges(self) -> np.ndarray:
        """The n_bins + 1 bin boundaries; bin n spans bin_edges[n - 1 : n + 1]."""
        return self.bin_width * (np.arange(self.n_bins + 1) - self.n_bins / 2.0)

    @property
    def centers(self) -> np.ndarray:
        return -(self.n_bins - 1) * self.bin_width / 2.0 + self.bin_width * np.arange(self.n_bins)

    def slit_modes(self, x: np.ndarray) -> np.ndarray:
        """Both slit-mode amplitudes at screen positions x, shape (2, len(x)).

        psi_j(x) = g(x) * exp(i * (-1)^j * phase_gradient * x) for j in {1, 2}:
        both modes share the uniform window envelope g of half-width
        support_half_width = 4 * envelope_width, centered on the screen origin,
        and differ by opposite phase gradients +-kappa.  So the coherence
        combinations (psi_1 +- psi_2)/sqrt(2) carry cos^2/sin^2 fringes while
        |psi_1|^2 = |psi_2|^2 is flat.  The modes are exactly orthogonal
        whenever kappa * span is an integer multiple of pi, which the default
        geometry satisfies (kappa = 3*pi/8, span = 8).
        """
        x = np.asarray(x, dtype=float)
        a = self.support_half_width
        envelope = np.where(np.abs(x) <= a, 1.0 / math.sqrt(2.0 * a), 0.0)
        return envelope * np.exp(1j * np.multiply.outer([-self.phase_gradient, self.phase_gradient], x))


def quadrature_grid(config: ErasureConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes, weights, and 1-based bin index across the array.

    A bin that contains the window edge +-support_half_width is cut there and
    each piece gets `quadrature_points` nodes, strictly inside it, so no rule
    straddles the envelope's jump and every node belongs to one detector.
    """
    edges, a = config.bin_edges, config.support_half_width
    window = [x for x in (-a, a) if edges[0] < x < edges[-1] and x not in edges]
    cuts = np.sort(np.append(edges, window))
    mid, half = (cuts[1:] + cuts[:-1]) / 2.0, (cuts[1:] - cuts[:-1]) / 2.0
    base_x, base_w = _gauss_legendre(config.quadrature_points)
    nodes = (mid[:, None] + half[:, None] * base_x).reshape(-1)
    weights = (half[:, None] * base_w).reshape(-1)
    bin_index = np.repeat(np.searchsorted(edges, mid), config.quadrature_points)
    return nodes, weights, bin_index


def _measure_marker(
    config: ErasureConfig,
    pipeline: str,
    state: StateVector,
    marker_unitary: UnitaryOperator | None,
    readout: Callable[[np.ndarray], np.ndarray],
) -> ProbabilityTable:
    """Evolve and measure the marker (subsystem 0); tabulate p(d) * readout(post-state).

    `readout` maps each outcome's conditional amplitudes to its per-bin
    detection values, so p(d, n) = p(d) * readout_n.  A null outcome (no
    post-state) gets a zero row.
    """
    if marker_unitary is not None:
        state = apply_unitary(state, marker_unitary, (0,))
    labels, kets = zip(*_BASIS_KETS[config.basis])
    outcomes = distant_measure(state, (0,), kets, labels=labels)
    return ProbabilityTable(
        mode="whichway" if config.basis == "whichway" else pipeline,
        labels=labels,
        centers=config.centers,
        values=np.array([
            o.probability * readout(o.post_state.amplitudes) if o.post_state else np.zeros(config.n_bins)
            for o in outcomes
        ]),
        born_rule=config.born_rule,
    )


def run_simple_erasure(
    config: ErasureConfig,
    marker_unitary: UnitaryOperator | None = None,
) -> ProbabilityTable:
    """Marker measured first; conditional screen patterns binned afterwards.

    Each marker outcome steers the screen particle into its partner
    superposition c_1 psi_1 + c_2 psi_2 of slit modes, binned in closed form:
    p(d, n) = p(d) * p_n(d).  On a bin clipped to the window |x| <= a, [lo, hi],
    both Born rules reduce, times the squared window height 1 / (2a), to
    I(w) = int_lo^hi exp(i w x) dx, kept precise as w -> 0 in the form
    exp(i w m) * L * sinc(w L / 2), with L = hi - lo and m the midpoint.

    `marker_unitary` is an optional free evolution of the marker before its
    measurement (identity by default); injecting the same unitary into both
    pipelines must leave their equality intact.
    """
    edges, a = config.bin_edges, config.support_half_width
    lo, hi = np.maximum(edges[:-1], -a), np.minimum(edges[1:], a)
    length, mid = np.maximum(hi - lo, 0.0), (hi + lo) / 2.0

    def integral(omega: float) -> np.ndarray:
        return np.exp(1j * omega * mid) * length * np.sinc(omega * length / (2.0 * math.pi))

    kappa = config.phase_gradient
    fringe, left, right = integral(2.0 * kappa), integral(-kappa), integral(kappa)

    def readout(partner: np.ndarray) -> np.ndarray:
        c1, c2 = partner
        if config.born_rule == "amplitude":
            return np.abs(c1 * left + c2 * right) ** 2 / (2.0 * a)
        return ((abs(c1) ** 2 + abs(c2) ** 2) * length + 2.0 * np.real(np.conj(c1) * c2 * fringe)) / (2.0 * a)

    return _measure_marker(config, "simple", balanced_pair(), marker_unitary, readout)


def run_delayed_choice(
    config: ErasureConfig,
    marker_unitary: UnitaryOperator | None = None,
) -> ProbabilityTable:
    """Screen detection first, marker measurement afterwards.

    The screen particle is discretized on the quadrature grid and coupled to
    a localization register (state 0 untriggered, one state per bin) by the
    shift coupling |x>|0> -> |x>|bin(x)>.  That coupling is an isometry, so
    the coupled state is held exactly in its image, spanned by
    |m>|x_j>|bin_index[j]>: one coordinate per marker state m and node j, and
    no n_bins + 1 register slots per node.  The marker is then measured on
    the composite state, and p(d, n) is read from each conditional state's
    coordinates whose register tag is n.

    `marker_unitary` evolves the marker during the delay, after the screen
    detection and before the marker measurement.
    """
    nodes, weights, bin_index = quadrature_grid(config)
    sqrt_w = np.sqrt(weights)

    # Marked pair with the screen particle expanded on the grid: grid
    # amplitudes carry sqrt(weight) so norms match the continuum integrals.
    coupled = StateVector((2, nodes.size), (config.slit_modes(nodes) * sqrt_w * _SQRT_HALF).reshape(-1))

    def readout(post: np.ndarray) -> np.ndarray:
        if config.born_rule == "intensity":
            return np.bincount(bin_index, weights=np.abs(post) ** 2, minlength=config.n_bins + 1)[1:]
        # Integrated amplitude of the bin-n component: undo the sqrt(w)
        # scaling and apply the quadrature weights.
        sums = np.zeros(config.n_bins + 1, dtype=np.complex128)
        np.add.at(sums, bin_index, sqrt_w * post)
        return np.abs(sums[1:]) ** 2

    return _measure_marker(config, "delayed", coupled, marker_unitary, readout)


@dataclass(frozen=True)
class EqualityReport:
    """Elementwise comparison of two probability tables."""

    max_deviation: float
    tolerance: float
    passed: bool
    worst_label: str
    worst_bin: int


def verify_equality(
    t1: ProbabilityTable,
    t2: ProbabilityTable,
    tolerance: float = DEFAULT_EQUALITY_TOL,
) -> EqualityReport:
    """Maximum elementwise deviation between two tables on the same index grid.

    Entries are compared positionally (outcome slot by outcome slot), so
    tables from different pipelines or bases can be set against each other
    as long as their shapes and detector geometries agree.
    """
    if t1.values.shape != t2.values.shape:
        raise ValueError("tables are indexed by different outcome/bin sets")
    if not np.allclose(t1.centers, t2.centers, rtol=0.0, atol=1e-12):
        raise ValueError("tables use different detector geometries")
    diff = np.abs(t1.values - t2.values)
    flat = int(np.argmax(diff))
    i, j = np.unravel_index(flat, diff.shape)
    max_dev = float(diff[i, j])
    return EqualityReport(
        max_deviation=max_dev,
        tolerance=float(tolerance),
        passed=bool(max_dev <= tolerance),
        worst_label=t1.labels[i],
        worst_bin=int(j + 1),
    )
