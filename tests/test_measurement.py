"""Which-way marking, distant measurement, detector coupling, cut placement."""

import math

import numpy as np
import pytest

from erasure_lab import (
    StateVector,
    apply_unitary,
    basis_state,
    couple_shift_register,
    cut_compare,
    distant_measure,
    haar_random_unitary,
    is_epr_type,
    mark_which_way,
    partial_trace,
    schmidt_decompose,
    tensor,
)
from helpers import (
    controlled_shift_unitary,
    couple_detector,
    ensemble_density,
    random_state,
    which_way_marker,
)

SQRT_HALF = math.sqrt(0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def balanced_pair():
    return mark_which_way(SQRT_HALF, SQRT_HALF)


class TestMarkWhichWay:
    def test_balanced_amplitudes(self, balanced_pair):
        np.testing.assert_allclose(
            balanced_pair.amplitudes, [SQRT_HALF, 0, 0, SQRT_HALF], atol=1e-15
        )

    def test_reduced_state_is_diagonal(self):
        state = mark_which_way(0.6, 0.8)
        rho = partial_trace(state, keep=(1,))
        np.testing.assert_allclose(rho, np.diag([0.36, 0.64]), atol=1e-15)

    def test_off_diagonals_vanish_exactly(self, rng):
        for _ in range(25):
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
            a = rng.uniform(0.05, 0.95)
            alpha, beta = phase[0] * math.sqrt(a), phase[1] * math.sqrt(1 - a)
            rho = partial_trace(mark_which_way(alpha, beta), keep=(1,))
            assert rho[0, 1] == 0.0 and rho[1, 0] == 0.0

    def test_rejects_zero_amplitudes(self):
        with pytest.raises(ValueError, match="nonzero"):
            mark_which_way(1.0, 0.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="\\|alpha\\|"):
            mark_which_way(1.0, 1.0)

    @pytest.mark.parametrize("raw", [None, "1", True, [SQRT_HALF]])
    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_rejects_non_numeric_amplitudes(self, name, raw):
        amplitudes = {"alpha": SQRT_HALF, "beta": SQRT_HALF, name: raw}
        with pytest.raises(ValueError, match=f"^{name} must be a complex number, got "):
            mark_which_way(**amplitudes)

    def test_accepts_numpy_amplitudes(self):
        state = mark_which_way(np.float64(0.6), np.complex128(0.8j))
        np.testing.assert_allclose(state.amplitudes, [0.6, 0, 0, 0.8j], atol=1e-15)


class TestDistantMeasure:
    def test_which_way_outcomes(self, balanced_pair):
        relative = distant_measure(balanced_pair, (0,), [np.eye(2)[0], np.eye(2)[1]])
        norms = np.linalg.norm(relative, axis=1)
        assert list(norms**2) == pytest.approx([0.5, 0.5], abs=1e-12)
        np.testing.assert_allclose(relative[0] / norms[0], [1, 0], atol=1e-12)
        np.testing.assert_allclose(relative[1] / norms[1], [0, 1], atol=1e-12)

    def test_coherence_outcomes_steer_partner_states(self, balanced_pair):
        plus = np.array([1.0, 1.0]) * SQRT_HALF
        minus = np.array([1.0, -1.0]) * SQRT_HALF
        relative = distant_measure(balanced_pair, (0,), [plus, minus])
        np.testing.assert_allclose(relative[0] / np.linalg.norm(relative[0]), plus, atol=1e-12)
        np.testing.assert_allclose(relative[1] / np.linalg.norm(relative[1]), minus, atol=1e-12)

    def test_product_state_is_not_steered(self, rng):
        phi = random_state(rng, (3,))
        joint = tensor(StateVector((2,), [SQRT_HALF, SQRT_HALF]), phi)
        plus = np.array([1.0, 1.0]) * SQRT_HALF
        minus = np.array([1.0, -1.0]) * SQRT_HALF
        for row in distant_measure(joint, (0,), [plus, minus]):
            norm = np.linalg.norm(row)
            if norm <= 1e-7:
                continue
            overlap = abs(np.vdot(row / norm, phi.amplitudes))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_outcome_retained(self):
        joint = tensor(basis_state((2,), (0,)), basis_state((2,), (0,)))
        relative = distant_measure(joint, (0,), [np.eye(2)[0], np.eye(2)[1]])
        assert relative.shape == (2, 2)
        assert np.linalg.norm(relative[1]) == 0.0

    def test_incomplete_basis_rejected(self, balanced_pair):
        with pytest.raises(ValueError, match="incomplete"):
            distant_measure(balanced_pair, (0,), [np.eye(2)[0]])

    def test_nonorthonormal_basis_rejected(self, balanced_pair):
        skew = [np.array([1.0, 0.0]), np.array([1.0, 1.0]) * SQRT_HALF]
        with pytest.raises(ValueError, match="orthonormal"):
            distant_measure(balanced_pair, (0,), skew)

    def test_ensemble_reproduces_reduced_state(self, rng):
        # Non-selectively, steering is invisible: the outcome mixture is the
        # partial trace, whatever basis was measured.
        for _ in range(100):
            state = random_state(rng, (3, 4))
            basis = haar_random_unitary(3, rng).matrix.T
            relative = distant_measure(state, (0,), list(basis))
            rho = partial_trace(state, keep=(1,))
            np.testing.assert_allclose(ensemble_density(relative), rho, atol=1e-10)


class TestCoupleDetector:
    def test_identity_coupling_is_tensor_product(self, balanced_pair):
        ready = basis_state((3,), (0,))
        out = couple_detector(balanced_pair, ready, _identity(6), (1, 2))
        np.testing.assert_allclose(
            out.amplitudes, tensor(balanced_pair, ready).amplitudes, atol=1e-15
        )

    def test_marking_interaction_records_which_way(self):
        state = tensor(StateVector((2,), [SQRT_HALF, SQRT_HALF]), basis_state((2,), (0,)))
        out = apply_unitary(state, which_way_marker(2), (0, 1))
        np.testing.assert_allclose(
            out.amplitudes, [SQRT_HALF, 0, 0, SQRT_HALF], atol=1e-15
        )

    def test_images_of_orthogonal_inputs_stay_orthogonal(self, rng):
        ready = basis_state((3,), (0,))
        for _ in range(20):
            u = haar_random_unitary(6, rng)
            x = random_state(rng, (2,))
            y_raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            y_raw -= np.vdot(x.amplitudes, y_raw) * x.amplitudes
            y = StateVector(x.dims, y_raw / np.linalg.norm(y_raw))
            image_x = couple_detector(x, ready, u, (0, 1))
            image_y = couple_detector(y, ready, u, (0, 1))
            assert abs(np.vdot(image_x.amplitudes, image_y.amplitudes)) < 1e-12

    def test_schmidt_coefficients_preserved(self, rng, balanced_pair):
        before = schmidt_decompose(balanced_pair, (0,)).coefficients
        for _ in range(10):
            u = haar_random_unitary(6, rng)
            coupled = couple_detector(balanced_pair, basis_state((3,), (0,)), u, (1, 2))
            after = schmidt_decompose(coupled, (0,)).coefficients
            np.testing.assert_allclose(after, before, atol=1e-10)
            assert is_epr_type(schmidt_decompose(coupled, (0,)))

    def test_coupling_is_linear_over_coherence_states(self, rng):
        # The image of a coherence state is the matching combination of the
        # images of the which-way states, for the ideal marking interaction
        # as well as for an arbitrary coupling.
        ready = basis_state((3,), (0,))
        couplings = [controlled_shift_unitary(2, 3, (1, 2)), haar_random_unitary(6, rng)]
        way = [basis_state((2,), (0,)), basis_state((2,), (1,))]
        for u in couplings:
            images = [couple_detector(w, ready, u, (0, 1)).amplitudes for w in way]
            for sign in (+1.0, -1.0):
                coherent = StateVector((2,), np.array([1.0, sign]) * SQRT_HALF)
                image = couple_detector(coherent, ready, u, (0, 1)).amplitudes
                np.testing.assert_allclose(
                    image, (images[0] + sign * images[1]) * SQRT_HALF, atol=1e-12
                )

    def test_commuting_side_couplings_preserve_split_spectrum(self, rng):
        # Local evolutions on each side of the cut leave the cross-cut
        # Schmidt coefficients untouched.
        state = random_state(rng, (2, 2, 2, 2))
        before = schmidt_decompose(state, (0, 1)).coefficients
        u_left = haar_random_unitary(4, rng)
        u_right = haar_random_unitary(4, rng)
        evolved = apply_unitary(apply_unitary(state, u_left, (0, 1)), u_right, (2, 3))
        after = schmidt_decompose(evolved, (0, 1)).coefficients
        np.testing.assert_allclose(np.sort(after), np.sort(before), atol=1e-10)


class TestShiftRegister:
    def test_marker_unitary_action(self):
        u = which_way_marker(3)
        for j in range(3):
            ket = np.zeros(9)
            ket[j * 3 + 0] = 1.0
            expected = np.zeros(9)
            expected[j * 3 + j] = 1.0
            np.testing.assert_allclose(u.matrix @ ket, expected)

    def test_shift_register_matches_matrix_route(self, rng):
        # Same coupling computed as an explicit unitary and as indexing.
        state = random_state(rng, (2, 6))
        shifts = [1, 2, 3, 1, 2, 3]
        via_index = couple_shift_register(state, shifts, register_dim=4)
        u = controlled_shift_unitary(6, 4, shifts)
        via_matrix = couple_detector(state, basis_state((4,), (0,)), u, (1, 2))
        np.testing.assert_allclose(via_index.amplitudes, via_matrix.amplitudes, atol=1e-12)

    def test_shift_count_validation(self, rng):
        with pytest.raises(ValueError, match="shift"):
            couple_shift_register(random_state(rng, (2, 3)), [1, 2], register_dim=4)


class TestCutCompare:
    @pytest.mark.parametrize("compare", [(1, 2), (2, 1), (2,), (1,)])
    def test_compare_order_is_respected(self, rng, compare):
        # (2, 1) covers the whole remainder in reversed order.
        state = random_state(rng, (2, 2, 3))
        relative = distant_measure(state, (0,), [[1.0, 0.0], [0.0, 1.0]])
        result = cut_compare(state, (0,), relative, compare=compare)
        assert result.branches_complete
        assert result.distance < 1e-12

    def test_complete_branches_match_partial_trace(self, balanced_pair):
        plus = np.array([1.0, 1.0]) * SQRT_HALF
        minus = np.array([1.0, -1.0]) * SQRT_HALF
        relative = distant_measure(balanced_pair, (0,), [plus, minus])
        result = cut_compare(balanced_pair, (0,), relative)
        assert result.branches_complete
        assert result.distance < 1e-10

    def test_single_branch_of_product_state(self, rng):
        phi = random_state(rng, (2,))
        joint = tensor(basis_state((2,), (0,)), phi)
        relative = distant_measure(joint, (0,), [np.eye(2)[0], np.eye(2)[1]])
        result = cut_compare(joint, (0,), relative)
        assert result.branches_complete
        assert result.distance == pytest.approx(0.0, abs=1e-14)

    def test_dropped_branch_distance(self, balanced_pair):
        # Keeping only the first which-way branch: the mixture misses half
        # the weight, and tr|1/2 I - 1/2 |0><0|| = 0.5.
        relative = distant_measure(balanced_pair, (0,), [np.eye(2)[0], np.eye(2)[1]])
        result = cut_compare(balanced_pair, (0,), relative[:1])
        assert not result.branches_complete
        assert result.distance == pytest.approx(0.5, abs=1e-12)

    def test_relative_states_must_live_on_the_remainder(self, rng):
        state = random_state(rng, (2, 3))
        relative = distant_measure(state, (0,), [np.eye(2)[0], np.eye(2)[1]])
        with pytest.raises(ValueError, match="remainder"):
            cut_compare(state, (0,), relative[:, :2])

    def test_compare_on_subsystem_with_side_evolution(self, rng, balanced_pair):
        # Marker side measured, screen compared, an idle detector traced out;
        # independent local evolutions must not open a gap.
        ready = basis_state((3,), (0,))
        state = tensor(balanced_pair, ready)
        u_screen = haar_random_unitary(2, rng)
        u_idle = haar_random_unitary(3, rng)
        state = apply_unitary(state, u_screen, (1,))
        state = apply_unitary(state, u_idle, (2,))
        plus = np.array([1.0, 1.0]) * SQRT_HALF
        minus = np.array([1.0, -1.0]) * SQRT_HALF
        relative = distant_measure(state, (0,), [plus, minus])
        result = cut_compare(state, (0,), relative, compare=(1,))
        assert result.branches_complete
        assert result.distance < 1e-10


def _identity(dim):
    from erasure_lab import UnitaryOperator

    return UnitaryOperator(np.eye(dim))
