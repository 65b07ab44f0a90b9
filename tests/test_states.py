"""Hilbert-space primitive tests: tensor products, partial traces, unitaries."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasure_lab import (
    StateVector,
    UnitaryOperator,
    apply_unitary,
    basis_state,
    couple_shift_register,
    distant_measure,
    exchange_operator,
    haar_random_unitary,
    partial_trace,
    tensor,
    trace_norm_distance,
)
from erasure_lab.states import require
from helpers import partial_trace_oracle, random_state, trace_distance_oracle


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


class TestTypes:
    def test_hilbert_shape_validation(self):
        with pytest.raises(ValueError, match="^dims must be positive$"):
            StateVector((2, 0), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="dimension"):
            StateVector((), np.array([1.0]))
        ket = basis_state((2, 3, 4), (1, 2, 3))
        assert ket.dims == (2, 3, 4)
        assert ket.amplitudes.size == 24

    def test_state_vector_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector((2,), [1.0, 1.0])

    def test_state_vector_length_enforced(self):
        with pytest.raises(ValueError):
            StateVector((2, 2), np.array([1.0, 0.0]))

    def test_amplitudes_are_readonly(self):
        ket = basis_state((2, 2), (0, 1))
        with pytest.raises(ValueError):
            ket.amplitudes[0] = 5.0

    def test_unitary_validation(self):
        with pytest.raises(ValueError, match="unitary"):
            UnitaryOperator(np.array([[1.0, 0.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # Rejected before any arithmetic on them: inf * 0 in a Gram product
        # would be nan, which numpy reports as a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="norm"):
                StateVector((2,), [bad, 0.0])
            with pytest.raises(ValueError, match="unitary matrix has non-finite entries"):
                UnitaryOperator(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_operator_dim_read_from_square_matrix(self):
        assert UnitaryOperator(np.eye(3)).dim == 3
        for bad in (np.eye(2)[:1], np.ones(4) / 4, np.ones((2, 2, 2)) / 4):
            with pytest.raises(ValueError, match="square"):
                UnitaryOperator(bad)


class TestTensor:
    def test_basis_ket_product(self):
        left = basis_state((2,), (0,))
        right = basis_state((2,), (0,))
        out = tensor(left, right)
        assert out.dims == (2, 2)
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])

    def test_linearity_in_first_factor(self):
        superposition = StateVector((2,), np.array([1.0, 1.0]) / np.sqrt(2))
        ground = basis_state((3,), (0,))
        out = tensor(superposition, ground)
        expected = np.zeros(6)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=8, max_size=8))
    def test_kronecker_oracle(self, raw):
        # Direct index-pair oracle: out[i * dim_b + j] == a[i] * b[j].
        a = np.array(raw[:2]) + 1j * np.array(raw[2:4])
        b = np.array(raw[4:6]) + 1j * np.array(raw[6:8])
        if np.linalg.norm(a) < 1e-3 or np.linalg.norm(b) < 1e-3:
            return
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        out = tensor(StateVector((2,), a), StateVector((2,), b))
        for i in range(2):
            for j in range(2):
                assert out.amplitudes[i * 2 + j] == pytest.approx(a[i] * b[j], abs=1e-15)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_tensor_then_trace_recovers_factor(self, rng):
        for _ in range(20):
            left = random_state(rng, (3,))
            right = random_state(rng, (4,))
            joint = tensor(left, right)
            reduced = partial_trace(joint, keep=(0,))
            assert trace_distance_oracle(reduced, np.outer(left.amplitudes, left.amplitudes.conj())) < 1e-12


class TestPartialTrace:
    def test_marked_pair_diagonal(self):
        alpha, beta = 0.6, 0.8
        amps = np.zeros(4, dtype=complex)
        amps[0], amps[3] = alpha, beta
        state = StateVector((2, 2), amps)
        rho = partial_trace(state, keep=(1,))
        np.testing.assert_allclose(rho, np.diag([alpha**2, beta**2]), atol=1e-15)
        assert rho[0, 1] == 0.0  # coherence removed exactly

    def test_balanced_pair_maximally_mixed(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = np.sqrt(0.5)
        rho = partial_trace(StateVector((2, 2), amps), keep=(1,))
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-15)

    def test_product_state_is_untouched(self, rng):
        phi = random_state(rng, (3,))
        joint = tensor(basis_state((2,), (0,)), phi)
        rho = partial_trace(joint, keep=(1,))
        np.testing.assert_allclose(rho, np.outer(phi.amplitudes, phi.amplitudes.conj()), atol=1e-15)

    def test_keep_must_be_proper_subset(self):
        state = basis_state((2, 2), (0, 0))
        with pytest.raises(ValueError):
            partial_trace(state, keep=())
        with pytest.raises(ValueError):
            partial_trace(state, keep=(0, 1))

    def test_density_operator_input_matches_state_route(self, rng):
        # Einsum contraction of the full density operator as the reference.
        state = random_state(rng, (2, 3, 2))
        via_state = partial_trace(state, keep=(1,))
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
        via_operator = partial_trace_oracle(rho, state.dims, keep=(1,))
        np.testing.assert_allclose(via_operator, via_state, atol=1e-12)

    def test_eigenvalues_sum_to_one(self, rng):
        for dims in [(2, 2), (2, 3), (4, 3, 2)]:
            rho = partial_trace(random_state(rng, dims), keep=(0,))
            assert isinstance(rho, np.ndarray)
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
            eigenvalues = np.linalg.eigvalsh(rho)
            assert float(np.sum(eigenvalues)) == pytest.approx(1.0, abs=1e-10)
            assert float(np.min(eigenvalues)) >= -1e-12


class TestApplyUnitary:
    def test_identity_leaves_state(self, rng):
        state = random_state(rng, (2, 3))
        out = apply_unitary(state, UnitaryOperator(np.eye(3)), targets=(1,))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_swap_permutes_basis_kets(self):
        swap = np.zeros((4, 4))
        for j in range(2):
            for k in range(2):
                swap[k * 2 + j, j * 2 + k] = 1.0
        out = apply_unitary(basis_state((2, 2), (0, 1)), UnitaryOperator(swap), (0, 1))
        np.testing.assert_allclose(out.amplitudes, basis_state((2, 2), (1, 0)).amplitudes)

    def test_local_unitary_leaves_other_reduction(self, rng):
        # Acting on the second subsystem cannot change the first's state.
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = np.sqrt(0.5)
        state = StateVector((2, 2), amps)
        before = partial_trace(state, keep=(0,))
        for _ in range(10):
            u = haar_random_unitary(2, rng)
            after = partial_trace(apply_unitary(state, u, (1,)), keep=(0,))
            assert trace_distance_oracle(after, before) < 1e-12

    def test_norm_preserved_for_random_states(self, rng):
        for _ in range(100):
            state = random_state(rng, (2, 3, 2))
            u = haar_random_unitary(6, rng)
            out = apply_unitary(state, u, targets=(0, 1))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_target_order_matters_consistently(self, rng):
        # u on (0, 1) equals the index-swapped u on (1, 0).
        state = random_state(rng, (2, 2))
        u = haar_random_unitary(4, rng).matrix
        swapped = u.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        a = apply_unitary(state, UnitaryOperator(u), (0, 1))
        b = apply_unitary(state, UnitaryOperator(swapped), (1, 0))
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        state = random_state(rng, (2, 3))
        with pytest.raises(ValueError, match="dimension"):
            apply_unitary(state, UnitaryOperator(np.eye(2)), targets=(1,))


def test_trace_norm_distance_basics():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert trace_norm_distance(a, a) == 0.0
    assert trace_norm_distance(a, b) == pytest.approx(2.0, abs=1e-14)


def test_haar_unitary_is_unitary(rng):
    u = haar_random_unitary(5, rng)
    np.testing.assert_allclose(u.matrix.conj().T @ u.matrix, np.eye(5), atol=1e-12)


def test_require_passes_up_to_the_tolerance_and_fails_nan():
    require("residual", 1e-10, 1e-10)
    require("residual", -1.0, 1e-10)
    message = "residual: 1.5e-10 exceeds tolerance 1e-10"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        require("residual", np.float64(1.5e-10), 1e-10)
    with pytest.raises(ValueError, match="^residual: nan exceeds tolerance 1e-10$"):
        require("residual", math.nan, 1e-10)


@pytest.mark.parametrize("raw", [True, None, "2", 2.5, math.nan, math.inf, 0])
@pytest.mark.parametrize(
    "build,name",
    [
        (exchange_operator, "d"),
        (lambda dim: haar_random_unitary(dim, np.random.default_rng(0)), "dim"),
        (lambda dim: basis_state((dim,), (0,)), "dims"),
        (lambda dim: couple_shift_register(basis_state((2,), (0,)), [0, 1], dim), "register_dim"),
        (lambda dim: StateVector((dim,), [1.0]), "dims"),
    ],
    ids=[
        "exchange_operator", "haar_random_unitary", "basis_state", "couple_shift_register", "StateVector",
    ],
)
def test_dimension_arguments_must_be_positive_integers(build, name, raw):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build(raw)


def test_integral_dims_are_normalized_to_int():
    state = StateVector((2.0, np.int64(1)), [1.0, 0.0])
    assert state.dims == (2, 1) and all(type(d) is int for d in state.dims)


INDEX_BUILDERS = pytest.mark.parametrize(
    "build,what",
    [
        (lambda i: partial_trace(basis_state((2, 2), (0, 1)), [i]), "subsystem index"),
        (lambda i: apply_unitary(basis_state((2, 2), (0, 1)), exchange_operator(2), [0, i]), "subsystem index"),
        (lambda i: distant_measure(basis_state((2, 2), (0, 1)), [i], np.eye(2)), "subsystem index"),
        (lambda i: basis_state((2, 2), (0, i)), "basis index"),
    ],
    ids=["partial_trace", "apply_unitary", "distant_measure", "basis_state"],
)


@pytest.mark.parametrize("raw", [True, "1", 0.7, None, math.nan], ids=repr)
@INDEX_BUILDERS
def test_indices_must_be_integers(build, what, raw):
    with pytest.raises(ValueError, match=f"^{what} {re.escape(repr(raw))} is not an integer$"):
        build(raw)


@pytest.mark.parametrize("index", [np.int64(1), np.uint8(1)], ids=repr)
@INDEX_BUILDERS
def test_numpy_integer_indices_act_as_ints(build, what, index):
    def values(out):
        return getattr(out, "amplitudes", out)

    np.testing.assert_array_equal(values(build(index)), values(build(1)))


def test_indices_may_come_from_a_generator():
    state = basis_state((2, 2), (0, 1))
    np.testing.assert_array_equal(partial_trace(state, (i for i in [1])), partial_trace(state, [1]))
    assert basis_state((2, 2), (i for i in (0, 1))).amplitudes[1] == 1


@pytest.mark.parametrize("indices", [(0, 2), (-1, 0), (0,)])
def test_basis_indices_must_fit_their_dimensions(indices):
    with pytest.raises(ValueError, match="^need one basis index per subsystem, within its dimension"):
        basis_state((2, 2), indices)
