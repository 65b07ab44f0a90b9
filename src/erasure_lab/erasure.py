"""Two-slit screen model and the erasure probability pipelines.

The source is a balanced marked pair: a marker particle entangled with a
screen particle whose two which-way states reach the detector plane as the
wavefunctions of a two-slit model.  Two pipelines produce the joint
probability table p(d, n) over marker outcomes d and detector bins n:

* simple (before-detection) erasure measures the marker first: outcome d
  leaves the screen particle in its unnormalized partner chi_d on the two
  slit modes, and p(d, n) = <chi_d| E_n |chi_d> with E_n the closed-form
  2x2 operator of detector bin n under the chosen Born rule;
* delayed-choice (after-detection) erasure couples the screen particle to a
  localization register on a position grid first.  A click in bin n leaves
  the marker in its unnormalized relative state rho_M(n), a 2x2 matrix per
  bin (`marker_states`), and the marker measurement afterwards only reads
  it: p(d, n) = <k_d| rho_M(n) |k_d> for each basis ket k_d.

Both compute Tr[(|k_d><k_d| x E_n) |Psi><Psi|], the simple route marker
first and the delayed route screen first.  A free marker evolution U before
the marker measurement enters both as the measured kets U^dagger k_d.

Both read the detector bins clipped to the window from `quadrature_grid`;
only the delayed one puts quadrature nodes on them, so the maximum deviation
between their tables that `verify_equality` reports is its discretization error.

The screen model, the detector bins and the quadrature size are the one
validated `ErasureConfig`; its `slit_modes` docstring gives the formula.

Detection rules: `intensity` integrates |psi|^2 over the bin (the standard
Born rule); `amplitude` squares the integrated amplitude instead.  The
amplitude rule does not normalize across bins for generic wavefunctions and
tables built with it are left unnormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .measurement import balanced_pair
from .states import EXACT_TOL, UnitaryOperator, coefficient_matrix, positive_number, require

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


@lru_cache(maxsize=8)
def _gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Joint probabilities p(d, n) over outcome labels d and 1-based bins n.

    Values and centers must be finite real numbers.  Entries below -1e-12 are
    rejected; rounding can leave a null entry near -1e-17, so the rest are
    clipped at 0 here, after that check.
    """

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
        for name in ("values", "centers"):
            try:
                array = np.asarray(getattr(self, name))
            except ValueError:  # ragged nesting; an object array fails the check below
                array = np.array(None)
            if array.dtype.kind not in "iuf" or not np.isfinite(array).all():
                raise ValueError(f"{name} must be finite real numbers")
        values, centers = np.array(self.values, dtype=float), np.array(self.centers, dtype=float)
        if values.shape != (len(self.labels), centers.size):
            raise ValueError("values must have shape (len(labels), n_bins)")
        require("negative probability", -float(np.min(values)), 1e-12)
        np.maximum(values, 0.0, out=values)
        # The integrated-amplitude rule is not normalizable across bins, so
        # only intensity tables are required to sum to one.
        if self.born_rule == "intensity":
            require("|table total - 1|", abs(float(values.sum()) - 1.0), SUM_TOL)
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
        centers = self.centers.tolist()
        rows = (
            f"{self.mode},{d},{n},{x:.17g},{p:.17g}\n"
            for d, row in zip(self.labels, self.values.tolist())
            for n, (x, p) in enumerate(zip(centers, row), start=1)
        )
        return "mode,d,n,x_center,p\n" + "".join(rows)


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
        span = self.span
        require("|span - n_bins * bin_width|", abs(span - self.n_bins * self.bin_width), 1e-9 * span)
        require("envelope support 8 * envelope_width past span", 8.0 * self.envelope_width - span, 1e-12 * span)

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
        # psi_1 = conj(psi_2): one real cos and sin serve both modes.
        phase = self.phase_gradient * x
        modes = np.empty((2,) + x.shape, dtype=np.complex128)
        modes.real = envelope * np.cos(phase)
        modes.imag[1] = envelope * np.sin(phase)
        np.negative(modes.imag[1], out=modes.imag[0])
        return modes


def quadrature_grid(config: ErasureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Each detector bin clipped to the window |x| <= support_half_width: midpoints, half-widths.

    Bin [lo, hi] becomes the piece [max(lo, -a), min(hi, a)], of half-width 0
    when the bin lies outside the window.  The modes vanish off the piece, so
    the clip drops only exact zeros, and the window is constant on it.  The
    delayed route puts `quadrature_points` Gauss-Legendre nodes mid + half * x_q,
    weights half * w_q, on each piece; the simple route integrates it in closed form.
    """
    edges, a = config.bin_edges, config.support_half_width
    lo, hi = np.maximum(edges[:-1], -a), np.minimum(edges[1:], a)
    return (hi + lo) / 2.0, np.maximum(hi - lo, 0.0) / 2.0


def _table(config: ErasureConfig, pipeline: str, labels, values) -> ProbabilityTable:
    mode = "whichway" if config.basis == "whichway" else pipeline
    return ProbabilityTable(mode, labels, config.centers, values, born_rule=config.born_rule)


def _basis(config: ErasureConfig, marker_unitary: UnitaryOperator | None) -> tuple[tuple[str, ...], np.ndarray]:
    """Outcome labels and the measured marker kets as rows, with the marker evolution folded in.

    Evolving the marker by U and then measuring k_d gives the statistics of
    measuring U^dagger k_d with no evolution, so both pipelines take U as the
    kets U^dagger k_d (as rows, kets @ conj(U)).
    """
    labels, kets = zip(*_BASIS_KETS[config.basis])
    kets = np.array(kets)
    if marker_unitary is not None:
        if marker_unitary.dim != 2:
            raise ValueError(f"unitary dimension {marker_unitary.dim} does not match the marker dimension 2")
        kets = kets @ marker_unitary.matrix.conj()
    return labels, kets


def run_simple_erasure(
    config: ErasureConfig,
    marker_unitary: UnitaryOperator | None = None,
) -> ProbabilityTable:
    """Marker measured first; conditional screen patterns binned afterwards.

    Measuring the marker ket k_d steers the screen particle into its
    unnormalized partner superposition chi_d = (<k_d| x 1)|source>, with
    coefficients on the slit modes psi_1, psi_2.  Its detection value in bin n
    is p(d, n) = <chi_d| E_n |chi_d>, where E_n is the bin's 2x2 operator on the
    slit modes, in closed form.  On the bin clipped to the window |x| <= a,
    its piece [lo, hi] from `quadrature_grid`, both Born rules reduce, times
    the squared window height 1 / (2a), to I(w) = int_lo^hi exp(i w x) dx,
    kept precise as w -> 0 in the form exp(i w m) * L * sinc(w L / 2), with
    L = hi - lo and m the midpoint: E_n = [[L, I(2 kappa)], [I(-2 kappa), L]]
    (intensity), or conj(v) v^T with v = (I(-kappa), I(kappa)) (amplitude).
    This is the delayed route's trace taken in the opposite order, marker first.

    `marker_unitary` is an optional free evolution of the marker before its
    measurement (identity by default); injecting the same unitary into both
    pipelines must leave their equality intact.
    """
    labels, kets = _basis(config, marker_unitary)
    mid, half = quadrature_grid(config)
    length, a = 2.0 * half, config.support_half_width

    def integral(omega: float) -> np.ndarray:
        return np.exp(1j * omega * mid) * length * np.sinc(omega * length / (2.0 * math.pi))

    kappa = config.phase_gradient
    # E_n as a (2, 2, n_bins) array: slit-mode row, slit-mode column, bin.
    if config.born_rule == "amplitude":
        v = np.array([integral(-kappa), integral(kappa)])
        bin_operator = v.conj()[:, None] * v[None, :]
    else:
        bin_operator = np.array([[length, integral(2.0 * kappa)], [integral(-2.0 * kappa), length]])
    partners = kets.conj() @ coefficient_matrix(balanced_pair(), (0,))
    values = np.einsum("dj,jkn,dk->dn", partners.conj(), bin_operator, partners).real / (2.0 * a)
    return _table(config, "simple", labels, values)


def marker_states(config: ErasureConfig) -> np.ndarray:
    """The marker's unnormalized relative state rho_M(n) per detector bin, shape (n_bins, 2, 2).

    The screen particle on the quadrature grid is coupled to a localization
    register by the shift |x>|0> -> |x>|bin(x)>, an isometry, so the coupled
    state is held exactly in its image: one amplitude psi_m(j) per marker
    state m and node j, carrying sqrt(weight) so that norms match the
    continuum integrals.  rho_M(n) traces out the nodes of bin n: the sum of
    psi psi^dagger (intensity rule), or s s^dagger with s the bin sum of
    sqrt(w) psi (amplitude rule).  Its trace is the bin's detection value.

    Each bin is one piece, clipped to the window (`quadrature_grid`); the
    modes vanish on the rest of the bin, so the clip is exact.  No node
    amplitude is formed: psi_j(mid + d) = psi_j(mid) * psi_j(d) * sqrt(2a), as
    the phase is additive and the window is constant on a piece.  A bin's sum
    over its nodes is thus its midpoint modes times one Gauss-Legendre sum over
    the offsets d of its half-width: the 2x2 Gram of the offset modes
    (intensity) or their pair of sums (amplitude), once per distinct half-width.
    The coupled state's norm is summed the same way.
    """
    mid, half = quadrature_grid(config)
    base_x, base_w = _gauss_legendre(config.quadrature_points)
    mid_modes = config.slit_modes(mid).T
    widths = np.array(sorted(set(half.tolist())))  # distinct half-widths; np.unique costs more on small grids
    width_of = np.searchsorted(widths, half)
    # Per distinct half-width: psi_j(d) * sqrt(2a) at each offset d, times the pair's sqrt(1/2).
    offset_modes = config.slit_modes(widths[:, None] * base_x)
    offset_modes *= math.sqrt(2.0 * config.support_half_width) * _SQRT_HALF
    weighted = offset_modes * (widths[:, None] * base_w)
    # Per width: N_j(h) = sum_q h w_q |psi_j(h x_q)|^2, shape (widths, 2).
    norms = np.vecdot(offset_modes, weighted).real.T
    norm_sq = np.vdot(np.abs(mid_modes) ** 2, norms[width_of])
    require("|state vector norm - 1|", abs(math.sqrt(norm_sq) - 1.0), EXACT_TOL)
    if config.born_rule == "intensity":
        # Per width: sum_q h w_q psi_m(h x_q) psi_k(h x_q)^*, shape (widths, 2, 2).
        grams = np.vecdot(offset_modes[None, :], weighted[:, None]).transpose(2, 0, 1)
        rho = grams[width_of]
        rho *= mid_modes[:, :, None]
        rho *= mid_modes[:, None, :].conj()
        return rho
    sums = weighted.sum(axis=-1).T[width_of]
    sums *= mid_modes
    return sums[:, :, None] * sums[:, None, :].conj()


def run_delayed_choice(
    config: ErasureConfig,
    marker_unitary: UnitaryOperator | None = None,
) -> ProbabilityTable:
    """Screen detection first, marker measurement afterwards.

    A click in bin n leaves the marker in its relative state rho_M(n)
    (`marker_states`), and the marker measured afterwards in basis {k_d}
    only reads it: p(d, n) = <k_d| rho_M(n) |k_d>.  This is the simple
    route's trace taken in the opposite order, screen first.

    `marker_unitary` evolves the marker during the delay, after the screen
    detection and before the marker measurement.
    """
    labels, kets = _basis(config, marker_unitary)
    values = np.einsum("dm,nmk,dk->dn", kets.conj(), marker_states(config), kets).real
    return _table(config, "delayed", labels, values)


@dataclass(frozen=True)
class EqualityReport:
    """Elementwise comparison of two probability tables.

    `worst_label`/`worst_bin` name the first cell of maximal deviation; mirrored
    bins that tie exactly can trade places on last-digit changes, so compare
    `max_deviation` across versions, not the cell.
    """

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
    as long as their shapes and detector geometries agree.  `tolerance` must
    be a positive finite number, the rule the CLI applies to its own.  The
    worst cell is the first one at the maximum (see `EqualityReport` on ties).
    """
    tolerance = positive_number("tolerance", tolerance, float)
    if t1.values.shape != t2.values.shape:
        raise ValueError("tables are indexed by different outcome/bin sets")
    offset = np.max(np.abs(t1.centers - t2.centers))
    require("tables use different detector geometries (max center offset)", offset, 1e-12)
    diff = np.abs(t1.values - t2.values)
    i, j = np.unravel_index(np.argmax(diff), diff.shape)
    max_dev = float(diff[i, j])
    return EqualityReport(
        max_deviation=max_dev,
        tolerance=tolerance,
        passed=bool(max_dev <= tolerance),
        worst_label=t1.labels[i],
        worst_bin=int(j + 1),
    )
