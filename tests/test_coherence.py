"""Coherence bases, the exchange operator, and the symmetry grid search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasure_lab import (
    CoherenceBasisParams,
    SchmidtDecomposition,
    SymmetryClass,
    apply_unitary,
    classify_symmetry,
    coherence_pair,
    exchange_operator,
    mark_which_way,
    reschmidt,
    schmidt_decompose,
    search_symmetric_bases,
    StateVector,
)
from erasure_lab.coherence import search_results_csv
from erasure_lab.erasure import _BASIS_KETS

SQRT_HALF = math.sqrt(0.5)
TWO_PI = 2 * math.pi


@pytest.fixture
def balanced_pair():
    return mark_which_way(SQRT_HALF, SQRT_HALF)


def raw_grid_hits(grid_steps):
    """Every (lam, delta) grid point whose expansion is not NEITHER, before any phase reduction."""
    pair = mark_which_way(SQRT_HALF, SQRT_HALF)
    hits = []
    for k_lam in range(grid_steps):
        for k_delta in range(grid_steps):
            params = CoherenceBasisParams.balanced(
                lam=TWO_PI * k_lam / grid_steps, delta=TWO_PI * k_delta / grid_steps
            )
            cls = classify_symmetry(reschmidt(pair, (0,), list(coherence_pair(params))))
            if cls is not SymmetryClass.NEITHER:
                hits.append((params, cls))
    return hits


class TestCoherencePair:
    def test_zero_phases_give_plus_minus(self):
        a, b = coherence_pair(CoherenceBasisParams.balanced())
        np.testing.assert_allclose(a.amplitudes, [SQRT_HALF, SQRT_HALF], atol=1e-15)
        np.testing.assert_allclose(b.amplitudes, [SQRT_HALF, -SQRT_HALF], atol=1e-15)

    def test_quarter_phase_gives_circular_pair(self):
        a, b = coherence_pair(CoherenceBasisParams.balanced(delta=math.pi / 2))
        np.testing.assert_allclose(a.amplitudes, [SQRT_HALF, 1j * SQRT_HALF], atol=1e-15)
        np.testing.assert_allclose(b.amplitudes, [SQRT_HALF, -1j * SQRT_HALF], atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(0.01, 0.99),
        lam=st.floats(0, TWO_PI, exclude_max=True),
        delta=st.floats(0, TWO_PI, exclude_max=True),
        gamma=st.floats(0, TWO_PI, exclude_max=True),
    )
    def test_pair_is_orthonormal(self, p, lam, delta, gamma):
        params = CoherenceBasisParams(p=p, lam=lam, delta=delta, gamma=gamma)
        a, b = coherence_pair(params)
        assert abs(np.linalg.norm(a.amplitudes) - 1) < 1e-12
        assert abs(np.linalg.norm(b.amplitudes) - 1) < 1e-12
        assert abs(np.vdot(a.amplitudes, b.amplitudes)) < 1e-12

    def test_params_validation(self):
        for p in (1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match="between"):
                CoherenceBasisParams(p=p)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lam", "delta", "gamma"])
    def test_non_finite_angles_rejected(self, field, angle):
        with pytest.raises(ValueError, match=field):
            CoherenceBasisParams.balanced(**{field: angle})

    @pytest.mark.parametrize(
        "field, raw",
        [("p", "0.5"), ("p", None), ("p", True)]
        + [(angle, raw) for angle in ("lam", "delta", "gamma") for raw in (True, "1")],
    )
    def test_non_real_values_rejected(self, field, raw):
        kwargs = {"p": 0.6, field: raw}
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            CoherenceBasisParams(**kwargs)

    def test_q_completes_the_modulus(self):
        params = CoherenceBasisParams(p=0.6)
        assert params.q == pytest.approx(0.8, abs=1e-15)
        assert CoherenceBasisParams.balanced().q == pytest.approx(SQRT_HALF, abs=1e-15)


class TestExchangeOperator:
    def test_swaps_basis_kets(self):
        e = exchange_operator(2)
        ket = np.zeros(4)
        ket[0 * 2 + 1] = 1.0  # |0, 1>
        np.testing.assert_allclose(e.matrix @ ket, np.eye(4)[1 * 2 + 0])

    def test_balanced_pair_invariant(self, balanced_pair):
        out = apply_unitary(balanced_pair, exchange_operator(2), (0, 1))
        np.testing.assert_allclose(out.amplitudes, balanced_pair.amplitudes, atol=1e-15)

    def test_antisymmetric_state_flips_sign(self):
        singlet = StateVector((2, 2), np.array([0, 1, -1, 0]) * SQRT_HALF)
        out = apply_unitary(singlet, exchange_operator(2), (0, 1))
        np.testing.assert_allclose(out.amplitudes, -singlet.amplitudes, atol=1e-15)

    def test_involution(self):
        for d in (2, 3):
            e = exchange_operator(d).matrix
            np.testing.assert_allclose(e @ e, np.eye(d * d), atol=1e-14)

    def test_matches_loop_reference(self):
        for d in (1, 2, 3, 4):
            reference = np.zeros((d * d, d * d))
            for j in range(d):
                for k in range(d):
                    reference[k * d + j, j * d + k] = 1.0
            np.testing.assert_array_equal(exchange_operator(d).matrix, reference)


class TestClassifySymmetry:
    def test_plus_minus_expansion_is_termwise_symmetric(self, balanced_pair):
        a, b = coherence_pair(CoherenceBasisParams.balanced())
        dec = reschmidt(balanced_pair, (0,), [a, b])
        assert classify_symmetry(dec) is SymmetryClass.TERMWISE_SYMMETRIC

    def test_circular_expansion_swaps_terms(self, balanced_pair):
        a, b = coherence_pair(CoherenceBasisParams.balanced(delta=math.pi / 2))
        dec = reschmidt(balanced_pair, (0,), [a, b])
        assert classify_symmetry(dec) is SymmetryClass.TERM_SWAPPING

    def test_computational_expansion_is_termwise_symmetric(self, balanced_pair):
        # Terms |j>|j> are exchange-invariant individually.
        dec = schmidt_decompose(balanced_pair, (0,))
        assert classify_symmetry(dec) is SymmetryClass.TERMWISE_SYMMETRIC

    def test_generic_basis_is_neither(self, balanced_pair):
        a, b = coherence_pair(CoherenceBasisParams.balanced(delta=0.4))
        dec = reschmidt(balanced_pair, (0,), [a, b])
        assert classify_symmetry(dec) is SymmetryClass.NEITHER

    def test_invariant_under_term_phases(self, balanced_pair):
        a, b = coherence_pair(CoherenceBasisParams.balanced(delta=math.pi / 2))
        dec = reschmidt(balanced_pair, (0,), [a, b])
        for phase_left, phase_right in [(0.7, 0.0), (0.0, 2.1), (1.3, 4.0)]:
            rotated = SchmidtDecomposition(
                dec.coefficients,
                dec.basis_left * np.exp(1j * np.array([[phase_left], [0.0]])),
                dec.basis_right * np.exp(1j * np.array([[phase_right], [0.0]])),
            )
            assert classify_symmetry(rotated) is classify_symmetry(dec)

    def test_requires_rank_two_qubit_pair(self, balanced_pair):
        rank_one = SchmidtDecomposition(
            np.array([1.0]), np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])
        )
        with pytest.raises(ValueError, match="rank-2"):
            classify_symmetry(rank_one)


class TestSearchSymmetricBases:
    def test_grid8_canonical_hits(self):
        results = search_symmetric_bases(8)
        termwise = {
            round(p.delta, 12) for p, c in results if c is SymmetryClass.TERMWISE_SYMMETRIC
        }
        swapping = {
            round(p.delta, 12) for p, c in results if c is SymmetryClass.TERM_SWAPPING
        }
        assert termwise == {0.0, round(math.pi, 12)}
        assert swapping == {round(math.pi / 2, 12), round(3 * math.pi / 2, 12)}
        assert all(p.lam == 0.0 for p, _ in results)

    def test_grid16_adds_nothing_new(self):
        # Exhaustive evaluation at doubled resolution is its own oracle.
        def freeze(results):
            return {(round(p.lam, 12), round(p.delta, 12), c) for p, c in results}

        assert freeze(search_symmetric_bases(16)) == freeze(search_symmetric_bases(8))

    def test_raw_hits_lie_on_phase_orbits(self):
        # Every raw hit differs from a canonical one only by an overall phase:
        # the class depends on delta - lam alone.
        raw = raw_grid_hits(12)
        assert raw, "expected raw grid hits"
        for params, cls in raw:
            mu = (params.delta - params.lam) % TWO_PI
            if cls is SymmetryClass.TERMWISE_SYMMETRIC:
                assert min(abs(mu - 0.0), abs(mu - math.pi), abs(mu - TWO_PI)) < 1e-9
            else:
                assert min(abs(mu - math.pi / 2), abs(mu - 3 * math.pi / 2)) < 1e-9

    def test_each_class_is_a_single_basis(self, balanced_pair):
        # All raw hits of one class name the same physical basis, asserting
        # uniqueness at grid resolution.
        raw = raw_grid_hits(8)
        references = {
            SymmetryClass.TERMWISE_SYMMETRIC: np.array([SQRT_HALF, SQRT_HALF]),
            SymmetryClass.TERM_SWAPPING: np.array([SQRT_HALF, 1j * SQRT_HALF]),
        }
        for params, cls in raw:
            a, b = coherence_pair(params)
            ref = references[cls]
            overlaps = sorted(
                [abs(np.vdot(ref, a.amplitudes)), abs(np.vdot(ref, b.amplitudes))]
            )
            # One of the pair is the reference vector up to phase, the other
            # its orthogonal mate.
            assert overlaps[1] == pytest.approx(1.0, abs=1e-9)
            assert overlaps[0] == pytest.approx(0.0, abs=1e-9)

    def test_search_is_the_reduced_raw_grid(self):
        # Reducing each raw hit to lam = 0 by integer steps gives the search result.
        for steps in (8, 12):
            reduced = {
                (round((p.delta - p.lam) % TWO_PI / TWO_PI * steps) % steps, c)
                for p, c in raw_grid_hits(steps)
            }
            found = [(round(p.delta / TWO_PI * steps), c) for p, c in search_symmetric_bases(steps)]
            assert sorted(found, key=lambda h: (h[1].value, h[0])) == found
            assert set(found) == reduced and len(found) == len(reduced)

    @pytest.mark.parametrize(
        "choice, delta, cls",
        [("pm", 0.0, SymmetryClass.TERMWISE_SYMMETRIC), ("pmi", math.pi / 2, SymmetryClass.TERM_SWAPPING)],
    )
    def test_erasure_bases_are_the_two_symmetric_bases(self, choice, delta, cls):
        # The coherence bases the erasure routes measure are the two the
        # search singles out: the two experiments of Scully et al.
        (params,) = [p for p, c in search_symmetric_bases(16) if c is cls and abs(p.delta - delta) < 1e-12]
        for found, (_, ket) in zip(coherence_pair(params), _BASIS_KETS[choice]):
            assert abs(np.vdot(found.amplitudes, ket)) == pytest.approx(1.0, abs=1e-12)

    def test_grid_steps_validation(self):
        with pytest.raises(ValueError):
            search_symmetric_bases(4)

    @pytest.mark.parametrize("grid_steps", [16.5, math.nan, math.inf, -math.inf, "16", True])
    def test_non_integer_grid_steps_rejected(self, grid_steps):
        with pytest.raises(ValueError, match="grid_steps must be an integer"):
            search_symmetric_bases(grid_steps)

    def test_csv_export(self):
        results = search_symmetric_bases(8)
        csv = search_results_csv(results)
        lines = csv.strip().split("\n")
        assert lines[0] == "lambda,delta,class"
        assert len(lines) == len(results) + 1
        assert all(len(line.split(",")) == 3 for line in lines[1:])
