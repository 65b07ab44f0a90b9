"""Schmidt decomposition, degeneracy classification, and the partner map."""

import math

import numpy as np
import pytest

from erasure_lab import (
    CoherenceBasisParams,
    SchmidtDecomposition,
    basis_state,
    coherence_pair,
    distant_measure,
    is_epr_type,
    mark_which_way,
    reschmidt,
    schmidt_decompose,
    tensor,
)
from helpers import random_state, reduced_density_oracle

SQRT_HALF = math.sqrt(0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def balanced_pair():
    return mark_which_way(SQRT_HALF, SQRT_HALF)


class TestSchmidtDecompose:
    def test_balanced_pair_coefficients(self, balanced_pair):
        dec = schmidt_decompose(balanced_pair, (0,))
        np.testing.assert_allclose(dec.coefficients, [SQRT_HALF, SQRT_HALF], atol=1e-12)
        assert dec.rank == 2

    def test_product_state_rank_one(self, rng):
        joint = tensor(random_state(rng, (2,)), random_state(rng, (3,)))
        dec = schmidt_decompose(joint, (0,))
        assert dec.rank == 1
        assert dec.coefficients[0] == pytest.approx(1.0, abs=1e-12)

    def test_squared_coefficients_match_eigenvalue_oracle(self, rng):
        # Independent route: eigensolver on the reduced density matrix.
        for _ in range(50):
            state = random_state(rng, (2, 2))
            dec = schmidt_decompose(state, (0,))
            eigs = np.sort(np.linalg.eigvalsh(reduced_density_oracle(state, 0)))[::-1]
            weights = np.zeros(2)
            weights[: dec.rank] = dec.weights()
            np.testing.assert_allclose(weights, np.clip(eigs, 0, None), atol=1e-10)

    def test_both_reduced_spectra_match(self, rng):
        for dims in [(2, 2), (2, 3), (3, 3), (3, 2)]:
            state = random_state(rng, dims)
            dec = schmidt_decompose(state, (0,))
            for axis in (0, 1):
                eigs = np.sort(np.linalg.eigvalsh(reduced_density_oracle(state, axis)))[::-1]
                np.testing.assert_allclose(dec.weights(), eigs[: dec.rank], atol=1e-10)
                assert np.all(np.abs(eigs[dec.rank :]) < 1e-10)

    def test_reconstruction_and_orthonormality(self, rng):
        for dims in [(2, 2), (2, 3), (3, 3)]:
            state = random_state(rng, dims)
            dec = schmidt_decompose(state, (0,))
            np.testing.assert_allclose(
                dec.matrix().reshape(-1), state.amplitudes, atol=1e-9
            )
            for basis in (dec.basis_left, dec.basis_right):
                gram = basis.conj() @ basis.T
                np.testing.assert_allclose(gram, np.eye(dec.rank), atol=1e-10)

    def test_coefficients_descending_and_positive(self, rng):
        for _ in range(20):
            dec = schmidt_decompose(random_state(rng, (3, 3)), (0,))
            assert np.all(dec.coefficients > 0)
            assert np.all(np.diff(dec.coefficients) <= 1e-15)

    def test_phase_convention_deterministic(self, rng):
        dec = schmidt_decompose(random_state(rng, (3, 3)), (0,))
        for vec in dec.basis_left:
            lead = vec[np.nonzero(np.abs(vec) > 1e-12)[0][0]]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_split_supports_multiple_subsystems(self, rng):
        state = random_state(rng, (2, 2, 3))
        dec = schmidt_decompose(state, (0, 1))
        assert dec.dim_left == 4 and dec.dim_right == 3
        np.testing.assert_allclose(dec.matrix().reshape(-1), state.amplitudes, atol=1e-9)

    def test_split_validation(self, rng):
        state = random_state(rng, (2, 2))
        with pytest.raises(ValueError):
            schmidt_decompose(state, ())
        with pytest.raises(ValueError):
            schmidt_decompose(state, (0, 1))


    @pytest.mark.parametrize(
        "coeffs",
        [
            [math.nan, math.nan],
            [math.nan, SQRT_HALF],
            [math.inf, SQRT_HALF],
            [-math.inf, 1.0],
            [math.inf, math.inf],
        ],
    )
    def test_non_finite_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError, match="coefficients"):
            SchmidtDecomposition(coeffs, np.eye(2), np.eye(2))


class TestEprClassification:
    def test_balanced_pair_is_degenerate(self, balanced_pair):
        assert is_epr_type(schmidt_decompose(balanced_pair, (0,)))

    def test_rank_one_is_not(self, rng):
        joint = tensor(random_state(rng, (2,)), random_state(rng, (2,)))
        assert not is_epr_type(schmidt_decompose(joint, (0,)))

    def test_unbalanced_weights_are_not(self):
        state = mark_which_way(math.sqrt(0.6), math.sqrt(0.4))
        assert not is_epr_type(schmidt_decompose(state, (0,)))


class TestCorrelationOperator:
    def test_maps_basis_onto_partner_basis(self, balanced_pair):
        dec = schmidt_decompose(balanced_pair, (0,))
        for k in range(dec.rank):
            np.testing.assert_allclose(dec.partner(dec.basis_left[k]), dec.basis_right[k], atol=1e-12)

    def test_antilinear_on_scalars(self, balanced_pair):
        source = schmidt_decompose(balanced_pair, (0,))
        image = source.partner(1j * np.array([1.0, 0.0]))
        np.testing.assert_allclose(image, -1j * source.partner(np.array([1.0, 0.0])), atol=1e-15)

    def test_coherence_vector_image_is_conjugate_partner(self, balanced_pair):
        # For the balanced pair the partner has conjugated coefficients.
        params = CoherenceBasisParams(p=0.6, lam=0.9, delta=2.2, gamma=0.4)
        a, _ = coherence_pair(params)
        source = schmidt_decompose(balanced_pair, (0,))
        expected = np.conj(a.amplitudes)
        np.testing.assert_allclose(source.partner(a), expected, atol=1e-12)

    def test_rejects_nonorthonormal_right_basis(self):
        dec = SchmidtDecomposition([SQRT_HALF, SQRT_HALF], np.eye(2), [[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="orthonormal"):
            dec.partner(np.array([1.0, 0.0]))

    def test_basis_independence(self, balanced_pair, rng):
        # The same antilinear map must come out of any decomposition of the state.
        dec1 = schmidt_decompose(balanced_pair, (0,))
        params = CoherenceBasisParams.balanced(lam=1.1, delta=0.7, gamma=0.3)
        a, b = coherence_pair(params)
        dec2 = reschmidt(balanced_pair, (0,), [a, b])
        for _ in range(20):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            np.testing.assert_allclose(dec1.partner(v), dec2.partner(v), atol=1e-9)


class TestDistantMeasurementAgreement:
    """Distant measurement, re-expansion and the partner map give one relative state.

    Measuring the left side in {b_k} leaves c_k times the partner of b_k on
    the right: the EPR-type disentanglement the erasure routes rest on.
    """

    def test_balanced_pair_coherence_bases(self, balanced_pair, rng):
        source = schmidt_decompose(balanced_pair, (0,))
        for _ in range(50):
            params = CoherenceBasisParams(
                p=rng.uniform(0.1, 0.9),
                lam=rng.uniform(0, 2 * math.pi),
                delta=rng.uniform(0, 2 * math.pi),
                gamma=rng.uniform(0, 2 * math.pi),
            )
            basis = coherence_pair(params)
            relative = distant_measure(balanced_pair, (0,), basis)
            dec = reschmidt(balanced_pair, (0,), basis)
            for k, b in enumerate(basis):
                expanded = dec.coefficients[k] * dec.basis_right[k]
                np.testing.assert_allclose(relative[k], expanded, rtol=0, atol=1e-12)
                np.testing.assert_allclose(relative[k], SQRT_HALF * source.partner(b), rtol=0, atol=1e-12)

    def test_random_state_in_its_own_basis(self, rng):
        state = random_state(rng, (2, 3))
        basis = list(schmidt_decompose(state, (0,)).basis_left)
        relative = distant_measure(state, (0,), basis)
        dec = reschmidt(state, (0,), basis)
        for k in range(dec.rank):
            expanded = dec.coefficients[k] * dec.basis_right[k]
            np.testing.assert_allclose(relative[k], expanded, rtol=0, atol=1e-12)


class TestReschmidt:
    def test_plus_minus_basis_partners(self, balanced_pair):
        plus = np.array([1.0, 1.0]) * SQRT_HALF
        minus = np.array([1.0, -1.0]) * SQRT_HALF
        dec = reschmidt(balanced_pair, (0,), [plus, minus])
        np.testing.assert_allclose(dec.coefficients, [SQRT_HALF, SQRT_HALF], atol=1e-12)
        np.testing.assert_allclose(dec.basis_right[0], plus, atol=1e-12)
        np.testing.assert_allclose(dec.basis_right[1], minus, atol=1e-12)

    def test_circular_basis_partners_conjugated(self, balanced_pair):
        plus_i = np.array([1.0, 1j]) * SQRT_HALF
        minus_i = np.array([1.0, -1j]) * SQRT_HALF
        dec = reschmidt(balanced_pair, (0,), [plus_i, minus_i])
        np.testing.assert_allclose(dec.basis_right[0], minus_i, atol=1e-12)
        np.testing.assert_allclose(dec.basis_right[1], plus_i, atol=1e-12)

    def test_original_basis_returns_original(self, rng):
        state = random_state(rng, (2, 3))
        dec = schmidt_decompose(state, (0,))
        again = reschmidt(state, (0,), list(dec.basis_left))
        np.testing.assert_allclose(again.coefficients, dec.coefficients, atol=1e-10)
        for k in range(dec.rank):
            overlap = abs(np.vdot(again.basis_right[k], dec.basis_right[k]))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_keeps_caller_vectors_verbatim(self, balanced_pair):
        phase = np.exp(0.3j)
        first = phase * np.array([1.0, 1.0]) * SQRT_HALF
        second = np.array([1.0, -1.0]) * SQRT_HALF
        dec = reschmidt(balanced_pair, (0,), [first, second])
        np.testing.assert_allclose(dec.basis_left[0], first, atol=1e-15)
        np.testing.assert_allclose(dec.matrix().reshape(-1), balanced_pair.amplitudes, atol=1e-9)

    def test_rejects_nondegenerate_rotation(self):
        state = mark_which_way(math.sqrt(0.6), math.sqrt(0.4))
        plus = np.array([1.0, 1.0]) * SQRT_HALF
        minus = np.array([1.0, -1.0]) * SQRT_HALF
        with pytest.raises(ValueError, match="biorthogonal"):
            reschmidt(state, (0,), [plus, minus])

    def test_rejects_nonorthonormal_basis(self, balanced_pair):
        with pytest.raises(ValueError, match="orthonormal"):
            reschmidt(balanced_pair, (0,), [np.array([1.0, 0.0]), np.array([1.0, 1.0]) * SQRT_HALF])

    def test_rejects_vector_outside_support(self, rng):
        joint = tensor(basis_state((2,), (0,)), random_state(rng, (2,)))
        with pytest.raises(ValueError, match="support"):
            reschmidt(joint, (0,), [np.array([0.0, 1.0])])

    def test_random_coherence_bases_reconstruct(self, balanced_pair, rng):
        source = schmidt_decompose(balanced_pair, (0,))
        for _ in range(50):
            p = rng.uniform(0.1, 0.9)
            params = CoherenceBasisParams(
                p=p,
                lam=rng.uniform(0, 2 * math.pi),
                delta=rng.uniform(0, 2 * math.pi),
                gamma=rng.uniform(0, 2 * math.pi),
            )
            a, b = coherence_pair(params)
            dec = reschmidt(balanced_pair, (0,), [a, b])
            np.testing.assert_allclose(
                dec.matrix().reshape(-1), balanced_pair.amplitudes, atol=1e-9
            )
            # Partner states are the antilinear images of the basis vectors.
            np.testing.assert_allclose(dec.basis_right[0], source.partner(a), atol=1e-10)
            np.testing.assert_allclose(dec.basis_right[1], source.partner(b), atol=1e-10)
