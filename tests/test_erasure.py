"""Screen model, detector binning, and the two erasure pipelines."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erasure_lab import (
    ErasureConfig,
    ProbabilityTable,
    haar_random_unitary,
    marker_states,
    run_delayed_choice,
    run_simple_erasure,
    trace_norm_distance,
    verify_equality,
)
from erasure_lab import erasure
from erasure_lab.erasure import _BASIS_KETS, BASIS_CHOICES, BORN_RULES, quadrature_grid
from erasure_lab.states import EXACT_TOL
from helpers import (
    COVERAGE_TOL,
    bin_probability,
    coverage,
    dense_delayed_table,
    flat_grid,
    fringe_visibility,
    grid_simple_table,
    rounding_tolerance,
    screen_amplitude,
    tomography_states,
)

SQRT_HALF = math.sqrt(0.5)

LABEL_COEFFS = {
    "1": (1.0, 0.0),
    "2": (0.0, 1.0),
    "+": (SQRT_HALF, SQRT_HALF),
    "-": (SQRT_HALF, -SQRT_HALF),
    "+i": (SQRT_HALF, -1j * SQRT_HALF),
    "-i": (SQRT_HALF, 1j * SQRT_HALF),
}


def analytic_bin_value(config, a, b, coeffs, rule):
    """Closed-form bin integrals for the uniform-window two-slit model.

    psi(x) = g * (c1 e^{-i k x} + c2 e^{+i k x}) on the window, so both Born
    rules reduce to elementary integrals of complex exponentials.  Serves as
    the quadrature-independent oracle.
    """
    k = config.phase_gradient
    w = config.support_half_width
    g = 1.0 / math.sqrt(2.0 * w)
    a_eff, b_eff = max(a, -w), min(b, w)
    if a_eff >= b_eff:
        return 0.0
    c1, c2 = coeffs

    def integral_exp(freq, lo, hi):
        if freq == 0.0:
            return hi - lo
        return (np.exp(1j * freq * hi) - np.exp(1j * freq * lo)) / (1j * freq)

    if rule == "intensity":
        value = (abs(c1) ** 2 + abs(c2) ** 2) * (b_eff - a_eff)
        value += 2.0 * np.real(np.conj(c1) * c2 * integral_exp(2.0 * k, a_eff, b_eff))
        return g * g * float(np.real(value))
    amp = g * (c1 * integral_exp(-k, a_eff, b_eff) + c2 * integral_exp(k, a_eff, b_eff))
    return float(abs(amp) ** 2)


@pytest.fixture
def config():
    return ErasureConfig()


class TestSlitModes:
    def test_slit_modes_are_normalized(self, config):
        nodes, weights, _ = flat_grid(config)
        norms = np.sum(weights * np.abs(config.slit_modes(nodes)) ** 2, axis=1)
        np.testing.assert_allclose(norms, [1.0, 1.0], atol=1e-6)

    def test_slit_modes_are_orthogonal_at_default_gradient(self, config):
        # kappa * span = 3*pi, an integer multiple, so the modes decouple.
        nodes, weights, _ = flat_grid(config)
        psi1, psi2 = config.slit_modes(nodes)
        assert abs(np.sum(weights * np.conj(psi1) * psi2)) < 1e-12

    def test_positivity_validation(self):
        with pytest.raises(ValueError, match="envelope_width"):
            ErasureConfig(envelope_width=0.0)

    @pytest.mark.parametrize("kappa", [math.pi / 8, 4.0])
    def test_modes_are_conjugate_exponentials(self, kappa):
        # A window narrower than the span leaves grid nodes where the envelope is 0.
        config = ErasureConfig(envelope_width=0.9, phase_gradient=kappa)
        x = flat_grid(config)[0]
        modes = config.slit_modes(x)
        assert modes[0].tobytes() == modes[1].conj().tobytes()
        a = config.support_half_width
        envelope = np.where(np.abs(x) <= a, 1.0 / math.sqrt(2.0 * a), 0.0)
        assert np.array_equal(modes, envelope * np.exp(1j * np.multiply.outer([-kappa, kappa], x)))


class TestScreenAmplitude:
    def test_antisymmetric_combination_vanishes_at_center(self, config):
        assert abs(screen_amplitude(config, "-", 0.0)) < 1e-15

    def test_symmetric_combination_doubles_at_center(self, config):
        plus = screen_amplitude(config, "+", 0.0)
        single = screen_amplitude(config, "1", 0.0)
        assert plus == pytest.approx(math.sqrt(2) * single, abs=1e-15)

    def test_unknown_label_rejected(self, config):
        with pytest.raises(ValueError, match="label"):
            screen_amplitude(config, "x", 0.0)

    def test_coherence_intensities_sum_to_slit_intensities(self, config):
        rng = np.random.default_rng(3)
        x = rng.uniform(-4, 4, size=1000)
        lhs = np.abs(screen_amplitude(config, "+", x)) ** 2 + np.abs(screen_amplitude(config, "-", x)) ** 2
        rhs = np.abs(screen_amplitude(config, "1", x)) ** 2 + np.abs(screen_amplitude(config, "2", x)) ** 2
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestBinProbability:
    @pytest.mark.parametrize("rule", ["intensity", "amplitude"])
    @pytest.mark.parametrize("label", ["1", "2", "+", "-", "+i", "-i"])
    def test_matches_analytic_oracle(self, config, rule, label):
        for n in (1, 5, 8, 9, 16):
            lo, hi = config.bin_edges[n - 1 : n + 1]
            expected = analytic_bin_value(config, lo, hi, LABEL_COEFFS[label], rule)
            got = bin_probability(config, label, n, rule=rule)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_bin_values_sum_to_one_under_intensity(self, config):
        for label in ("1", "2", "+", "-", "+i", "-i"):
            total = sum(
                bin_probability(config, label, n) for n in range(1, config.n_bins + 1)
            )
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_single_bin_covering_support_is_certain(self):
        whole = ErasureConfig(n_bins=1, bin_width=8.0)
        assert bin_probability(whole, "+", 1) == pytest.approx(1.0, abs=1e-6)

    def test_node_centered_bin_is_dark(self):
        # A bin centered on the antisymmetric pattern's node: needs an odd
        # bin count so a center sits at the origin, and bins much finer than
        # the fringe so the node is resolved.
        config = ErasureConfig(n_bins=101, bin_width=0.08, span=8.08)
        center = 51
        dark = bin_probability(config, "-", center)
        bright = bin_probability(config, "+", center)
        assert dark < 1e-3 * bright

    def test_bin_out_of_range(self, config):
        with pytest.raises(ValueError, match="range"):
            bin_probability(config, "+", 17)

    def test_coverage_at_default_geometry(self, config):
        assert coverage(config) >= 1.0 - COVERAGE_TOL


class TestQuadratureGrid:
    def test_nodes_fall_inside_their_bins(self):
        config = ErasureConfig(quadrature_points=64)
        mid, half = quadrature_grid(config)
        assert mid.shape == half.shape == (config.n_bins,)
        nodes, weights, bin_index = flat_grid(config)
        for n in range(1, config.n_bins + 1):
            lo, hi = config.bin_edges[n - 1 : n + 1]
            assert lo < mid[n - 1] < hi
            assert 2.0 * half[n - 1] == pytest.approx(hi - lo, rel=1e-12)
            chunk = nodes[bin_index == n]
            assert chunk.size == 64
            assert np.all((chunk > lo) & (chunk < hi))
        assert float(np.sum(2.0 * half)) == pytest.approx(config.span, rel=1e-12)
        assert float(np.sum(weights)) == pytest.approx(config.span, rel=1e-12)

    def test_window_edge_clips_its_bin(self):
        # The window edge 4 * 0.9 = 3.6 lies inside the outer bins [+-3.5, +-4]:
        # each is clipped to its part [+-3.5, +-3.6] inside the window, so its Q
        # nodes lie inside both the bin and the window, none astride the edge.
        config = ErasureConfig(envelope_width=0.9, quadrature_points=8)
        mid, half = quadrature_grid(config)
        assert mid.size == 16
        edges = config.bin_edges
        np.testing.assert_allclose(mid - half, np.maximum(edges[:-1], -3.6), rtol=0, atol=1e-15)
        np.testing.assert_allclose(mid + half, np.minimum(edges[1:], 3.6), rtol=0, atol=1e-15)
        nodes, weights, bin_index = flat_grid(config)
        assert nodes.size == 16 * 8
        for n in (1, 16):
            lo, hi = edges[n - 1 : n + 1]
            chunk = nodes[bin_index == n]
            assert chunk.size == 8
            assert np.all((chunk > lo) & (chunk < hi))
            assert np.all(np.abs(chunk) < 3.6)
        # The weights cover the window 2a = 7.2, where the modes live.
        assert float(np.sum(weights)) == pytest.approx(7.2, rel=1e-12)
        norms = np.sum(weights * np.abs(config.slit_modes(nodes)) ** 2, axis=1)
        np.testing.assert_allclose(norms, [1.0, 1.0], atol=1e-12)

    def test_bin_outside_window_has_zero_width(self):
        # span 20 around a window of half-width 4: the 12 outer bins on each side,
        # [-10, -4] and [4, 10], lie wholly outside it and keep no width, no
        # weight and no marker state; the window edge falls on a bin edge.
        config = ErasureConfig(n_bins=40, bin_width=0.5, span=20.0, quadrature_points=8)
        mid, half = quadrature_grid(config)
        outside = np.r_[0:12, 28:40]
        np.testing.assert_array_equal(half[outside], 0.0)
        np.testing.assert_array_equal(half[12:28], 0.25)
        assert np.all(np.abs(mid[outside]) >= config.support_half_width)
        _, weights, bin_index = flat_grid(config)
        np.testing.assert_array_equal(weights[np.isin(bin_index, outside + 1)], 0.0)
        np.testing.assert_array_equal(marker_states(config)[outside], 0.0)
        simple, delayed = run_simple_erasure(config), run_delayed_choice(config)
        for table in (simple, delayed):
            np.testing.assert_array_equal(table.values[:, outside], 0.0)
        assert verify_equality(simple, delayed).passed

    def test_detector_array_geometry(self):
        config = ErasureConfig(n_bins=4, bin_width=2.0)
        np.testing.assert_allclose(config.centers, [-3, -1, 1, 3])
        np.testing.assert_array_equal(config.bin_edges, [-4.0, -2.0, 0.0, 2.0, 4.0])
        assert config.span == 8.0

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"n_bins": 2.5, "bin_width": 1.0}, "n_bins"),
            ({"n_bins": True, "bin_width": 1.0}, "n_bins"),
            ({"n_bins": 0, "bin_width": 1.0}, "n_bins"),
            ({"n_bins": 4, "bin_width": math.inf}, "bin_width"),
            ({"n_bins": 4, "bin_width": math.nan}, "bin_width"),
            ({"n_bins": 4, "bin_width": True}, "bin_width"),
        ],
    )
    def test_detector_array_validation(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ErasureConfig(**kwargs)

    @pytest.mark.parametrize("points", [0, 2.5, True, math.inf])
    def test_points_per_bin_validation(self, points):
        with pytest.raises(ValueError, match="quadrature_points"):
            ErasureConfig(quadrature_points=points)


@pytest.mark.parametrize("basis", BASIS_CHOICES)
def test_basis_kets_are_orthonormal(basis):
    # The routes take these constant kets unchecked; they are checked here once.
    kets = np.array([ket for _, ket in _BASIS_KETS[basis]])
    assert kets.shape == (2, 2)
    assert np.linalg.norm(kets.conj() @ kets.T - np.eye(2)) <= EXACT_TOL


class TestSimpleErasure:
    def test_coherence_rows_are_complementary(self):
        table = run_simple_erasure(ErasureConfig())
        # Anti-phased fringes: the sum of the two patterns carries none.
        rows = dict(zip(table.labels, table.values))
        total = rows["+"] + rows["-"]
        assert fringe_visibility(total) < 1e-12
        assert fringe_visibility(rows["+"]) > 0.9
        assert fringe_visibility(rows["-"]) > 0.9

    def test_which_way_marginal_is_flat(self):
        # No fringes: the unconditioned pattern is the single-slit envelope
        # sum, which for the window envelope is uniform over the bins.
        table = run_simple_erasure(ErasureConfig(basis="whichway"))
        marginal = table.values.sum(axis=0)
        assert float(np.max(marginal) - np.min(marginal)) < 1e-12
        np.testing.assert_allclose(marginal, np.full(16, 1.0 / 16.0), atol=1e-12)
        assert table.mode == "whichway"

    def test_outcome_marginals_are_half(self):
        for basis in ("pm", "pmi", "whichway"):
            table = run_simple_erasure(ErasureConfig(basis=basis))
            np.testing.assert_allclose(table.values.sum(axis=1), [0.5, 0.5], atol=1e-6)

    @pytest.mark.parametrize("basis", BASIS_CHOICES)
    @pytest.mark.parametrize("born_rule", BORN_RULES)
    def test_rows_match_labeled_bin_probabilities(self, basis, born_rule):
        # The steered conditional patterns coincide with the labeled ones,
        # integrated per bin independently of the closed-form E_n.
        config = ErasureConfig(basis=basis, born_rule=born_rule)
        table = run_simple_erasure(config)
        for label, row in zip(table.labels, table.values):
            expected = [0.5 * bin_probability(config, label, n, rule=born_rule) for n in range(1, 17)]
            np.testing.assert_allclose(row, expected, atol=1e-12)

    @pytest.mark.parametrize("kappa", [1e-6, 1e-9])
    @pytest.mark.parametrize("born_rule", BORN_RULES)
    def test_small_gradient_keeps_precision(self, kappa, born_rule):
        # (exp(i w hi) - exp(i w lo)) / (i w) cancels catastrophically as
        # w -> 0 (2.8e-12 off at kappa = 1e-6); the sinc form does not.
        config = ErasureConfig(phase_gradient=kappa, basis="pmi", born_rule=born_rule)
        table = run_simple_erasure(config)
        for label, row in zip(table.labels, table.values):
            expected = [0.5 * bin_probability(config, label, n, rule=born_rule) for n in range(1, 17)]
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-13)


class TestDelayedChoice:
    @pytest.mark.parametrize("n_bins,bin_width", [(4, 2.0), (16, 0.5), (64, 0.125)])
    @pytest.mark.parametrize("basis", ["pm", "pmi"])
    @pytest.mark.parametrize("born_rule", ["intensity", "amplitude"])
    def test_matches_simple_erasure(self, n_bins, bin_width, basis, born_rule):
        config = ErasureConfig(
            n_bins=n_bins, bin_width=bin_width, basis=basis, born_rule=born_rule
        )
        report = verify_equality(
            run_simple_erasure(config), run_delayed_choice(config), tolerance=1e-9
        )
        assert report.passed, f"max deviation {report.max_deviation}"

    def test_which_way_order_independence(self):
        config = ErasureConfig(basis="whichway")
        report = verify_equality(run_simple_erasure(config), run_delayed_choice(config))
        assert report.passed

    def test_equality_survives_marker_evolution(self):
        # A free marker evolution injected identically into both pipelines
        # changes the table but not the before/after-detection agreement.
        rng = np.random.default_rng(11)
        config = ErasureConfig()
        baseline = run_simple_erasure(config)
        for _ in range(5):
            u = haar_random_unitary(2, rng)
            simple = run_simple_erasure(config, marker_unitary=u)
            delayed = run_delayed_choice(config, marker_unitary=u)
            assert verify_equality(simple, delayed).passed
            assert not np.allclose(simple.values, baseline.values, atol=1e-3)

    @pytest.mark.parametrize("run", [run_simple_erasure, run_delayed_choice])
    def test_marker_unitary_of_wrong_dimension_rejected(self, run):
        u = haar_random_unitary(3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="unitary dimension 3 does not match"):
            run(ErasureConfig(), marker_unitary=u)

    @pytest.mark.parametrize("run", [run_simple_erasure, run_delayed_choice])
    def test_marker_unitary_must_be_a_unitary_operator(self, run):
        with pytest.raises(ValueError, match="^marker_unitary must be a UnitaryOperator, not ndarray$"):
            run(ErasureConfig(), np.eye(2))

    def test_single_bin_detection_is_certain(self):
        config = ErasureConfig(n_bins=1, bin_width=8.0, span=8.0)
        table = run_delayed_choice(config)
        assert table.labels == ("+", "-")
        assert table.values[0, 0] == pytest.approx(0.5, abs=1e-9)
        assert table.values[1, 0] == pytest.approx(0.5, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        basis=st.sampled_from(BASIS_CHOICES),
        born_rule=st.sampled_from(BORN_RULES),
        kappa_step=st.integers(1, 7),
        n_bins=st.sampled_from([1, 2, 4, 8, 16]),
        points=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_simple_erasure_property(self, basis, born_rule, kappa_step, n_bins, points, seed):
        # kappa * span is a multiple of pi for every drawn kappa (span 8).
        config = ErasureConfig(
            phase_gradient=kappa_step * math.pi / 8.0,
            n_bins=n_bins,
            bin_width=8.0 / n_bins,
            span=8.0,
            basis=basis,
            born_rule=born_rule,
            quadrature_points=points,
        )
        # On the delayed route's own grid the tables agree at any Q.
        u = haar_random_unitary(2, np.random.default_rng(seed))
        report = verify_equality(
            grid_simple_table(config, marker_unitary=u),
            run_delayed_choice(config, marker_unitary=u),
            tolerance=1e-9,
        )
        assert report.passed, f"max deviation {report.max_deviation}"

    @settings(max_examples=40, deadline=None)
    @given(
        basis=st.sampled_from(BASIS_CHOICES),
        born_rule=st.sampled_from(BORN_RULES),
        kappa_step=st.integers(1, 7),
        n_bins=st.sampled_from([1, 2, 4, 8, 16]),
        points=st.integers(32, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_converges_to_closed_form_property(self, basis, born_rule, kappa_step, n_bins, points, seed):
        # The closed-form simple route against the delayed grid.  The error
        # grows with kappa * bin_width; one 8-wide bin at kappa = 7*pi/8 is
        # the worst case and leaves ~5e-15 at Q = 32.
        config = ErasureConfig(
            phase_gradient=kappa_step * math.pi / 8.0,
            n_bins=n_bins,
            bin_width=8.0 / n_bins,
            span=8.0,
            basis=basis,
            born_rule=born_rule,
            quadrature_points=points,
        )
        u = haar_random_unitary(2, np.random.default_rng(seed))
        simple = run_simple_erasure(config, marker_unitary=u)
        delayed = run_delayed_choice(config, marker_unitary=u)
        report = verify_equality(simple, delayed, tolerance=1e-9)
        assert report.passed, f"max deviation {report.max_deviation}"
        # No signalling: neither the marker basis nor its evolution moves the
        # screen marginal, so both routes' column sums equal the U-free
        # which-way ones.
        marginal = run_simple_erasure(dataclasses.replace(config, basis="whichway")).values.sum(axis=0)
        bound = 1e-12 * max(1.0, float(marginal.max()))
        for table in (simple, delayed):
            np.testing.assert_allclose(table.values.sum(axis=0), marginal, rtol=0, atol=bound)

    def test_null_outcome_gives_zero_row(self):
        # One node at the origin, where psi_1 = psi_2: the grid state has no
        # "-" component, so that outcome is null in the delayed route.
        config = ErasureConfig(n_bins=1, bin_width=8.0, quadrature_points=1)
        delayed = run_delayed_choice(config)
        np.testing.assert_allclose(delayed.values, [[1.0], [0.0]], atol=1e-12)
        assert delayed.values.min() >= 0
        assert verify_equality(grid_simple_table(config), delayed).passed

    @pytest.mark.parametrize("n_bins,points,kappa,envelope_width", [(8, 3, math.pi / 2, 1.0), (4, 1, math.pi / 4, 0.9)])
    def test_near_null_entries_are_not_negative(self, n_bins, points, kappa, envelope_width):
        # Unclipped, <k|rho_M(n)|k> of one near-null entry here rounds to about -1e-17.
        config = ErasureConfig(
            envelope_width=envelope_width,
            phase_gradient=kappa,
            n_bins=n_bins,
            bin_width=8.0 / n_bins,
            basis="pmi",
            born_rule="amplitude",
            quadrature_points=points,
        )
        assert run_delayed_choice(config).values.min() >= 0

    @pytest.mark.parametrize("n_bins,points", [(8, 3), (16, 256), (64, 64), (1, 1)])
    @pytest.mark.parametrize("basis", BASIS_CHOICES)
    @pytest.mark.parametrize("born_rule", BORN_RULES)
    def test_matches_dense_register(self, n_bins, points, basis, born_rule):
        # The image-coordinate state against the explicit n_bins + 1 register.
        config = ErasureConfig(
            n_bins=n_bins, bin_width=8.0 / n_bins, basis=basis, born_rule=born_rule, quadrature_points=points
        )
        delayed, dense = run_delayed_choice(config), dense_delayed_table(config)
        # With one bin, amplitude-rule entries reach 8; the bound scales with the largest
        # entry, so it does not pin how the two sides round it.
        scale = max(1.0, float(dense.values.max()))
        report = verify_equality(delayed, dense, tolerance=1e-15 * scale)
        assert report.passed, f"max deviation {report.max_deviation} against {scale:.3g}e-15"
        assert delayed.values.min() >= 0

    @settings(max_examples=60, deadline=None)
    @given(
        basis=st.sampled_from(BASIS_CHOICES),
        born_rule=st.sampled_from(BORN_RULES),
        kappa=st.floats(2**-4, 4.0),
        n_bins=st.integers(1, 32),
        bin_width=st.floats(2**-10, 16.0),
        window=st.floats(0.0, 1.0, exclude_max=True),
        points=st.integers(1, 64),
    )
    @example(basis="pm", born_rule="intensity", kappa=3 * math.pi / 8, n_bins=10, bin_width=0.8, window=0.0, points=8)
    @example(basis="pmi", born_rule="amplitude", kappa=1.0, n_bins=7, bin_width=1.3, window=0.1, points=5)
    @example(
        basis="pmi", born_rule="amplitude", kappa=0.0625, n_bins=1, bin_width=5.589203165225168, window=0.0, points=55
    )
    def test_matches_dense_register_on_any_grid(self, basis, born_rule, kappa, n_bins, bin_width, window, points):
        # Window clips and non-dyadic bin widths leave pieces of several
        # half-widths, each with its own node offsets.
        span = n_bins * bin_width
        config = ErasureConfig(
            envelope_width=span / 8.0 * (1.0 - window),
            phase_gradient=kappa,
            n_bins=n_bins,
            bin_width=bin_width,
            span=span,
            basis=basis,
            born_rule=born_rule,
            quadrature_points=points,
        )
        dense = dense_delayed_table(config)
        tolerance = rounding_tolerance(config, dense)
        report = verify_equality(run_delayed_choice(config), dense, tolerance=tolerance)
        assert report.passed, f"max deviation {report.max_deviation} against {tolerance:.3g}"

    def test_matches_dense_register_under_marker_evolution(self):
        config = ErasureConfig(n_bins=16, bin_width=0.5, basis="pmi", born_rule="amplitude", quadrature_points=64)
        u = haar_random_unitary(2, np.random.default_rng(5))
        delayed = run_delayed_choice(config, marker_unitary=u)
        report = verify_equality(delayed, dense_delayed_table(config, marker_unitary=u), tolerance=1e-15)
        assert report.passed, f"max deviation {report.max_deviation}"

    def test_memory_does_not_scale_with_register(self):
        # A dense (n_bins + 1)-slot register at 256 x 64 would take 32 * 256 * 64 * 257
        # bytes (~128 MiB) per copy; the route holds no array of its 256 * 64 nodes at all.
        peak = peak_bytes(run_delayed_choice, ErasureConfig(n_bins=256, bin_width=8.0 / 256, quadrature_points=64))
        assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_memory_at_4096_bins(self):
        # 4096 x 256 nodes: N = 2**20, and a complex array of N takes 16 MiB.  No
        # array of N is held: each half-width has (2, 256) offset modes, and
        # the per-bin 2x2 matrices (4096, 2, 2) take 256 KiB.
        peak = peak_bytes(run_delayed_choice, ErasureConfig(n_bins=4096, bin_width=8.0 / 4096, quadrature_points=256))
        assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_memory_at_65536_bins(self):
        # 65536 x 64 nodes: N = 2**22.  Holding the flat grid, its (2, N) modes and
        # the coupled state at once took about 0.4 GiB; the route holds the per-bin
        # midpoint modes, the 2x2 matrices (65536, 2, 2) of 4 MiB and the table.
        peak = peak_bytes(run_delayed_choice, ErasureConfig(n_bins=65536, bin_width=8.0 / 65536, quadrature_points=64))
        assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_memory_at_262144_bins(self):
        # 2**18 x 16 nodes.  One piece per bin: the result (2**18, 2, 2) of 16 MiB
        # is formed in place, and the midpoint modes take 8 MiB.
        peak = peak_bytes(run_delayed_choice, ErasureConfig(n_bins=2**18, bin_width=8.0 / 2**18, quadrature_points=16))
        assert peak <= 44 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("born_rule,bound_mib", [("intensity", 21), ("amplitude", 30)], ids=BORN_RULES)
    def test_simple_route_memory_at_262144_bins(self, born_rule, bound_mib):
        # 2**18 bins.  Each rule forms its complex integrals per bin and their (2, n_bins)
        # products with the partner coefficients, 18 and 26 MiB at peak; a
        # (2, 2, n_bins) bin operator before the contraction took 34 and 42 MiB.
        config = ErasureConfig(n_bins=2**18, bin_width=8.0 / 2**18, quadrature_points=16, born_rule=born_rule)
        peak = peak_bytes(run_simple_erasure, config)
        assert peak <= bound_mib * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_norm_check_rejects_unnormalized_modes(self, monkeypatch):
        slit_modes = ErasureConfig.slit_modes
        monkeypatch.setattr(ErasureConfig, "slit_modes", lambda self, x: 1.01 * slit_modes(self, x))
        with pytest.raises(ValueError, match=r"\|state vector norm - 1\|: .* exceeds tolerance"):
            run_delayed_choice(ErasureConfig())

    def test_negative_table_is_rejected_not_clipped(self, monkeypatch):
        # Amplitude-rule tables need not sum to 1, so only the sign check can catch
        # a sign defect in rho_M(n); a clip before it would zero the table instead.
        marker_states = erasure.marker_states
        monkeypatch.setattr(erasure, "marker_states", lambda config: -marker_states(config))
        with pytest.raises(ValueError, match="negative probability"):
            run_delayed_choice(ErasureConfig(born_rule="amplitude"))

    def test_default_quadrature_verifies_across_schema(self):
        # Seeded draws from the domain of test_any_valid_geometry_verifies_or_fails
        # (n_bins <= 32, bin_width <= 16, kappa <= 4, any window inside the
        # span).  The default Q leaves every draw within the verify tolerance;
        # at Q = 32 about 2% of them fail.
        rng = np.random.default_rng(12)
        for _ in range(600):
            n_bins, bin_width = int(rng.integers(1, 33)), float(rng.uniform(2**-10, 16.0))
            span = n_bins * bin_width
            config = ErasureConfig(
                envelope_width=span / 8.0 * (1.0 - rng.random()),
                phase_gradient=4.0 * (1.0 - rng.random()),
                n_bins=n_bins,
                bin_width=bin_width,
                span=span,
                basis=str(rng.choice(BASIS_CHOICES)),
                born_rule=str(rng.choice(BORN_RULES)),
            )
            report = verify_equality(run_simple_erasure(config), run_delayed_choice(config))
            assert report.passed, f"{config}: max deviation {report.max_deviation}"

    def test_quadrature_refinement_is_stable(self):
        coarse = run_delayed_choice(ErasureConfig(quadrature_points=256))
        fine = run_delayed_choice(ErasureConfig(quadrature_points=512))
        assert float(np.max(np.abs(coarse.values - fine.values))) < 1e-8
        # The simple route puts no nodes on its clipped bins, so Q cannot change its table.
        simple = [run_simple_erasure(ErasureConfig(quadrature_points=q)) for q in (1, 256, 512)]
        for table in simple[1:]:
            np.testing.assert_array_equal(table.values, simple[0].values)


def peak_bytes(run, config) -> int:
    """Peak traced allocation of one `run(config)`."""
    tracemalloc.start()
    try:
        run(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def worst_state_distance(config) -> float:
    """Largest per-bin trace distance between marker_states and the tomography oracle."""
    return max(map(trace_norm_distance, marker_states(config), tomography_states(config)))


class TestMarkerStates:
    @pytest.mark.parametrize("born_rule", BORN_RULES)
    @pytest.mark.parametrize("n_bins", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("k", range(1, 8))
    def test_matches_tomography_of_simple_route(self, k, n_bins, born_rule):
        config = ErasureConfig(
            phase_gradient=k * math.pi / 8, n_bins=n_bins, bin_width=8.0 / n_bins, born_rule=born_rule
        )
        # The oracle rebuilds rho_M(n) from three simple tables, whose largest entry sets the scale.
        tables = (run_simple_erasure(dataclasses.replace(config, basis=basis)) for basis in BASIS_CHOICES)
        tolerance = max(rounding_tolerance(config, table) for table in tables)
        distance = worst_state_distance(config)
        assert distance <= tolerance, f"worst trace distance {distance} against {tolerance:.3g}"

    def test_coarse_quadrature_shows_in_the_states(self):
        assert worst_state_distance(ErasureConfig(quadrature_points=1)) > 1e-3


class TestVerifyEquality:
    def test_table_against_itself(self):
        table = run_simple_erasure(ErasureConfig())
        report = verify_equality(table, table)
        assert report.max_deviation == 0.0 and report.passed

    def test_fringes_against_flat_pattern_fails(self):
        coherence_table = run_simple_erasure(ErasureConfig())
        whichway_table = run_simple_erasure(ErasureConfig(basis="whichway"))
        report = verify_equality(coherence_table, whichway_table)
        assert not report.passed
        assert report.max_deviation > 0.01

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        table = run_simple_erasure(ErasureConfig())
        with pytest.raises(ValueError, match="tolerance"):
            verify_equality(table, table, tolerance)

    def test_shape_mismatch_rejected(self):
        a = run_simple_erasure(ErasureConfig())
        b = run_simple_erasure(ErasureConfig(n_bins=4, bin_width=2.0))
        with pytest.raises(ValueError, match="index"):
            verify_equality(a, b)

    def test_nearby_geometry_rejected(self):
        # Centers up to 3e-5 apart: inside numpy's default relative slack of
        # allclose, far outside the absolute 1e-12 the check means.
        a = run_simple_erasure(ErasureConfig(bin_width=0.5))
        b = run_simple_erasure(ErasureConfig(bin_width=0.500004, span=16 * 0.500004))
        with pytest.raises(ValueError, match="different detector geometries"):
            verify_equality(a, b)


class TestProbabilityTable:
    def test_csv_layout(self):
        table = run_simple_erasure(ErasureConfig(n_bins=4, bin_width=2.0))
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "mode,d,n,x_center,p"
        assert len(lines) == 1 + 2 * 4
        mode, d, n, x, p = lines[1].split(",")
        assert (mode, d, n) == ("simple", "+", "1")
        assert float(x) == -3.0
        # Every row parses back, in label-major order, to the exact stored floats;
        # the 5-bin table has entries that need all 17 digits.
        for table in (table, run_simple_erasure(ErasureConfig(n_bins=5, bin_width=1.6))):
            rows = [line.split(",") for line in table.to_csv().strip().split("\n")[1:]]
            expected = [(i, d, n) for i, d in enumerate(table.labels) for n in range(1, table.n_bins + 1)]
            for (mode, d, n, x, p), (i, label, bin_n) in zip(rows, expected, strict=True):
                assert (mode, d, int(n)) == ("simple", label, bin_n)
                assert float(x) == table.centers[bin_n - 1]
                assert float(p) == table.values[i, bin_n - 1]

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative probability"):
            ProbabilityTable(
                mode="simple",
                labels=("+", "-"),
                centers=np.array([0.0]),
                values=np.array([[1.5], [-0.5]]),
            )

    @pytest.mark.parametrize(
        "values, centers, name",
        [
            ([[True]], [0.0], "values"),
            ([["1"]], [0.0], "values"),
            ([[None]], [0.0], "values"),
            ([[math.inf]], [0.0], "values"),
            ([[1.0]], [math.nan], "centers"),
            ([[1.0]], [math.inf], "centers"),
            ([[1.0]], ["0"], "centers"),
            ([[1.0]], [False], "centers"),
            ([[0.5], [0.25, 0.25]], [0.0], "values"),
            ([[1.0]], [[0.0], [1.0, 2.0]], "centers"),
        ],
    )
    def test_rejects_non_numeric_or_non_finite_inputs(self, values, centers, name):
        with pytest.raises(ValueError, match=name):
            ProbabilityTable(mode="simple", labels=("1",), centers=centers, values=values)

    def test_intensity_tables_must_sum_to_one(self):
        with pytest.raises(ValueError, match="total"):
            ProbabilityTable(
                mode="simple",
                labels=("+", "-"),
                centers=np.array([0.0]),
                values=np.array([[0.3], [0.3]]),
            )

    def test_amplitude_tables_are_not_renormalized(self):
        table = run_simple_erasure(ErasureConfig(born_rule="amplitude"))
        assert table.born_rule == "amplitude"
        assert float(table.values.sum()) != pytest.approx(1.0, abs=1e-3)


class TestErasureConfig:
    def test_span_consistency_enforced(self):
        with pytest.raises(ValueError, match="span"):
            ErasureConfig(n_bins=16, bin_width=0.5, span=9.0)

    def test_span_must_cover_envelope(self):
        with pytest.raises(ValueError, match="envelope"):
            ErasureConfig(envelope_width=2.0)
        # The slack is relative, so a tiny span cannot hold a window 10x wider.
        with pytest.raises(ValueError, match="envelope"):
            ErasureConfig(n_bins=1, bin_width=1e-14, span=1e-14, envelope_width=1e-13)
        ErasureConfig(envelope_width=1.0 + 1e-15)
        # span may exceed the bins by 1e-9 of itself, so the window is checked
        # against the bins: this one is 4e-9 past them and inside span.
        with pytest.raises(ValueError, match=r"^envelope support 8 \* envelope_width past n_bins \* bin_width: "):
            ErasureConfig(span=8.000000004, envelope_width=1.0000000005)

    @pytest.mark.parametrize("field", ["envelope_width", "bin_width", "phase_gradient"])
    def test_subnormal_values_rejected(self, field):
        # Widths below the smallest normal float keep too few bits to integrate on.
        with pytest.raises(ValueError, match=f"{field} must be positive and not subnormal"):
            ErasureConfig(**{field: 5e-324})

    def test_enum_validation(self):
        with pytest.raises(ValueError, match="basis"):
            ErasureConfig(basis="diagonal")
        with pytest.raises(ValueError, match="born_rule"):
            ErasureConfig(born_rule="square")

    @pytest.mark.parametrize("field", ["envelope_width", "phase_gradient"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, True, "1"])
    def test_non_finite_or_non_numeric_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ErasureConfig(**{field: value})

    def test_positive_fields(self):
        with pytest.raises(ValueError, match="n_bins"):
            ErasureConfig(n_bins=-1)
        with pytest.raises(ValueError, match="quadrature_points"):
            ErasureConfig(quadrature_points=0)


def test_fringe_visibility_definition():
    assert fringe_visibility([0.5, 0.5, 0.5]) == 0.0
    assert fringe_visibility([1.0, 0.0]) == 1.0
    assert fringe_visibility([3.0, 1.0]) == pytest.approx(0.5)
