import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinedisc import qubit
from trinedisc.errors import DomainError, PureStateError
from trinedisc.max_confidence import mc_povm
from trinedisc.min_error import optimal_measurement
from trinedisc.trine import (
    _TRINE_ANGLES,
    TRINE_BLOCH,
    antitrine_measurement,
    canonicalize_priors,
    random_priors,
    trine_measurement,
)

from reference import (
    IDENTITY,
    bloch_form,
    element,
    ket,
    measurement,
    projector,
    trine_projectors,
    trine_states,
)


def validate_povm(elements):
    """POVM validity of 2x2 matrices, read through their Pauli traces."""
    return qubit.povm_validity([bloch_form(e) for e in elements])


def min_eigenvalue(m):
    """Smaller eigenvalue of a Hermitian 2x2 matrix, as povm_validity reports it."""
    return validate_povm([m]).min_element_eigenvalue


def random_hermitian(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return 0.5 * (m + m.conj().T)


def random_mixed_density(rng, min_mixedness=0.05):
    # convex mix of a random pure state with the maximally mixed state
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    w = rng.uniform(min_mixedness, 1.0)
    return (1.0 - w) * projector(psi) + w * 0.5 * IDENTITY


class TestPureStates:
    def test_equator_angle_zero(self):
        np.testing.assert_allclose(
            ket(0.0),
            np.array([1.0, 1.0]) / np.sqrt(2),
            atol=1e-15,
        )

    def test_equator_angle_trine(self):
        psi = ket(2 * np.pi / 3)
        np.testing.assert_allclose(
            psi, np.array([1.0, np.exp(2j * np.pi / 3)]) / np.sqrt(2), atol=1e-15
        )

    def test_equator_angle_pi(self):
        np.testing.assert_allclose(
            ket(np.pi),
            np.array([1.0, -1.0]) / np.sqrt(2),
            atol=1e-15,
        )

    def test_orthogonal_state(self):
        # the state orthogonal to an equator state is its antipode
        rng = np.random.default_rng(3)
        for a in rng.uniform(0.0, 2.0 * np.pi, size=50):
            psi = ket(a)
            perp = ket(a + np.pi)
            assert abs(np.vdot(psi, perp)) < 1e-12
            assert abs(np.linalg.norm(perp) - 1.0) < 1e-12
        for s, a in zip(trine_states(), _TRINE_ANGLES):
            perp = ket(a + math.pi)
            assert abs(np.vdot(s, perp)) < 1e-12


class TestBornProbability:
    def test_scaled_projector_on_itself(self):
        element = qubit.equator_element(2.0 / 3.0, 0.0)
        assert qubit.born(TRINE_BLOCH[0], element) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_orthogonal_outcome(self):
        element = qubit.equator_element(1.0, np.pi)
        assert qubit.born(TRINE_BLOCH[0], element) == pytest.approx(0.0, abs=1e-12)

    def test_cross_trine_overlap(self):
        states = trine_states()
        # independent oracle: direct amplitude computation
        expected = abs(np.vdot(states[0], states[1])) ** 2
        assert expected == pytest.approx(0.25, abs=1e-14)
        got = qubit.born(TRINE_BLOCH[0], TRINE_BLOCH[1])
        assert got == pytest.approx(expected, abs=1e-12)

    def test_clamps_into_unit_interval(self):
        # rounding never takes a probability outside [0, 1]
        n = TRINE_BLOCH[0]
        assert qubit.born(n, (1.0 + 1e-15, 1.0 + 1e-15, 0.0, 0.0)) == 1.0
        assert qubit.born(n, (1.0, -1.0 - 1e-15, 0.0, 0.0)) == 0.0

    def test_rejects_non_hermitian(self):
        # the reference decoder keeps only the Hermitian part, so it refuses the rest
        bad = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            bloch_form(bad)

    def test_povm_probabilities_sum_to_one(self):
        rng = np.random.default_rng(11)
        m = trine_measurement()
        for _ in range(100):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            rho = projector(psi / np.linalg.norm(psi))
            probs = [qubit.born(bloch_form(rho), b) for _, b in m.forms]
            # independent oracle: matrix traces
            direct = [float(np.trace(rho @ op).real) for _, op in m.elements]
            np.testing.assert_allclose(probs, direct, atol=1e-12)
            assert sum(probs) == pytest.approx(1.0, abs=1e-10)


class TestValidatePovm:
    def test_trine_measurement_valid(self):
        m = trine_measurement()
        for v in (m.validity(), validate_povm([op for _, op in m.elements])):
            assert v.is_valid
            assert v.completeness_deviation < 1e-12

    def test_single_identity_valid(self):
        assert qubit.povm_validity([(2.0, 0.0, 0.0, 0.0)]).is_valid
        assert validate_povm([IDENTITY]).is_valid

    def test_oversized_sum_invalid(self):
        forms = [(1.1, 0.0, 0.0, 1.1), (1.0, 0.0, 0.0, -1.0)]
        elements = [
            1.1 * np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex),
        ]
        for v in (qubit.povm_validity(forms), validate_povm(elements)):
            assert not v.is_valid
            assert v.completeness_deviation == pytest.approx(0.1, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            qubit.povm_validity([])


class TestEigenvalues:
    def test_identity(self):
        assert min_eigenvalue(IDENTITY) == pytest.approx(1.0)

    def test_diagonal(self):
        assert min_eigenvalue(np.diag([3.0, -2.0]).astype(complex)) == pytest.approx(-2.0)

    def test_projector(self):
        rho = projector(trine_states()[0])
        assert min_eigenvalue(rho) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_matches_numpy_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            m = random_hermitian(rng)
            ref = np.linalg.eigvalsh(m)
            assert min_eigenvalue(m) == pytest.approx(ref[0], abs=1e-12)
            assert -min_eigenvalue(-m) == pytest.approx(ref[1], abs=1e-12)

    def test_operator_norm_of_products(self):
        # independent oracle: numpy's SVD of the matrix product
        rng = np.random.default_rng(6)
        for _ in range(200):
            a, b = random_hermitian(rng), random_hermitian(rng)
            prod = qubit.bloch_product(bloch_form(a), bloch_form(b))
            assert qubit.operator_norm(prod) == pytest.approx(
                np.linalg.norm(a @ b, 2), rel=1e-12, abs=1e-12
            )


class TestInversion:
    """rho^-1 rho_i rho^-1 in closed Bloch form, against numpy's inverse."""

    @staticmethod
    def assert_proportional(op, ref):
        ratio = np.trace(op).real / np.trace(ref).real
        assert ratio > 0.0
        np.testing.assert_allclose(op, ratio * ref, atol=1e-10 * np.max(np.abs(op)))

    def test_maximally_mixed(self):
        # rho = I/2: every element is proportional to its own state
        m = mc_povm(canonicalize_priors(1 / 3, 1 / 3, 1 / 3))
        for j, rho_j in enumerate(trine_projectors()):
            self.assert_proportional(element(m, j), rho_j)

    def test_equal_prior_trine_mixture(self):
        # direct summation oracle: the equal-prior mixture is maximally mixed
        rho = sum(projector(s) / 3.0 for s in trine_states())
        np.testing.assert_allclose(rho, 0.5 * IDENTITY, atol=1e-15)
        np.testing.assert_allclose(np.linalg.inv(rho), 2.0 * IDENTITY, atol=1e-12)

    def test_pure_state_rejected(self):
        with pytest.raises(PureStateError):
            mc_povm(canonicalize_priors(1.0, 0.0, 0.0))
        with pytest.raises(PureStateError):
            mc_povm(canonicalize_priors(1.0 - 1e-10, 1e-10, 0.0))
        # a nearly pure but invertible ensemble is fine
        assert mc_povm(canonicalize_priors(1.0 - 1e-8, 1e-8, 0.0)).validity().is_valid

    def test_inverse_identity_many(self):
        rng = np.random.default_rng(7)
        rhos = trine_projectors()
        for pr in random_priors(rng, 300):
            if pr.p0 > 1.0 - 1e-6:
                continue
            inv = np.linalg.inv(sum(q * r for q, r in zip(pr.canonical, rhos)))
            m = mc_povm(canonicalize_priors(*pr.canonical))
            for i in range(3):
                self.assert_proportional(element(m, i), inv @ rhos[i] @ inv)


class TestBloch:
    @given(
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.floats(-3, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, t, x, y, z):
        m = qubit.from_bloch((t, x, y, z))
        np.testing.assert_allclose(bloch_form(m), [t, x, y, z], atol=1e-12)

    def test_density_matrix_bloch_length(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            rho = random_mixed_density(rng, min_mixedness=0.0)
            t, *v = bloch_form(rho)
            assert t == pytest.approx(1.0, abs=1e-12)
            assert np.dot(v, v) <= 1.0 + 1e-12


def caller_orders(triple):
    return [canonicalize_priors(*order) for order in itertools.permutations(triple)]


class TestMeasurementBoundary:
    """The matrices a Measurement hands out encode exactly its Bloch forms."""

    @staticmethod
    def assert_round_trip(m):
        assert measurement(m.elements).forms == m.forms

    @pytest.mark.parametrize(
        "triple, strategy",
        [((0.5, 0.3, 0.2), "two_element"), ((0.38, 0.33, 0.29), "three_element")],
    )
    def test_optimal_measurement(self, triple, strategy):
        for pr in caller_orders(triple):
            res = optimal_measurement(pr)
            assert res.strategy == strategy
            self.assert_round_trip(res.measurement)

    def test_mc_povm_with_inconclusive(self):
        for pr in caller_orders((0.5, 0.3, 0.2)):
            m = mc_povm(pr)
            assert qubit.INCONCLUSIVE in m.labels
            self.assert_round_trip(m)

    def test_mc_povm_without_inconclusive(self):
        m = mc_povm(canonicalize_priors(1 / 3, 1 / 3, 1 / 3))
        assert m.labels == (0, 1, 2)
        self.assert_round_trip(m)

    def test_trine_and_antitrine(self):
        self.assert_round_trip(trine_measurement())
        self.assert_round_trip(antitrine_measurement())

    def test_constructor_rejects_matrices(self):
        with pytest.raises(DomainError, match="Bloch form"):
            qubit.Measurement(((0, IDENTITY),))

    def test_state_outcomes_take_python_and_numpy_integer_labels(self):
        half = (1.0, 0.0, 0.0, 0.0)
        m = qubit.Measurement(((np.int64(1), half), (qubit.INCONCLUSIVE, half), (2, half)))
        assert [(k, int(lab)) for k, lab, _ in m.state_outcomes()] == [(0, 1), (2, 2)]
