import inspect
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
    SIGMA_X,
    SIGMA_Y,
    bloch_form,
    element,
    ket,
    measurement,
    projector,
    trine_projectors,
    trine_states,
)
from reference import product_norm as reference_product_norm
from test_records import RECORDS


def validate_povm(elements):
    """POVM validity of 2x2 matrices, read through their Pauli traces."""
    return qubit.povm_validity([bloch_form(e) for e in elements])


def min_eigenvalue(m):
    """Smaller eigenvalue of a Hermitian 2x2 matrix, as povm_validity reports it."""
    return validate_povm([m]).min_element_eigenvalue


def random_hermitian(rng):
    """A random Hermitian 2x2 matrix in the equator plane, built in numpy."""
    t, x, y = rng.normal(size=3)
    return 0.5 * (t * IDENTITY + x * SIGMA_X + y * SIGMA_Y)


def random_mixed_density(rng, min_mixedness=0.05):
    # convex mix of a random equatorial pure state with the maximally mixed state
    psi = ket(rng.uniform(0.0, 2.0 * np.pi))
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
        assert qubit.born(n, (1.0 + 1e-15, 1.0 + 1e-15, 0.0)) == 1.0
        assert qubit.born(n, (1.0, -1.0 - 1e-15, 0.0)) == 0.0

    @staticmethod
    def born_reference(state, element):
        """The Born probability of one state alone: (t - |v|)/2 + |v + |v| n|^2 / (4 |v|)."""
        t, x, y = element
        r = math.hypot(x, y)
        p = 0.5 * t
        if r > 0.0:
            _, nx, ny = state
            p = 0.5 * (t - r) + ((x + r * nx) ** 2 + (y + r * ny) ** 2) / (4.0 * r)
        return min(1.0, max(0.0, p))

    def test_row_equals_born_state_by_state_bit_for_bit(self):
        rng = np.random.default_rng(21)
        elements = [tuple(v) for v in rng.normal(size=(2000, 3)).tolist()]
        elements += [tuple(v) for v in (0.3 * rng.normal(size=(2000, 3))).tolist()]
        # r = 0 inside and on both sides of [0, 1], and the two clamp cases above
        elements += [(t, 0.0, 0.0) for t in (0.0, 0.5, 1.0, 2.5, -0.25)]
        elements += [(1.0 + 1e-15, 1.0 + 1e-15, 0.0), (1.0, -1.0 - 1e-15, 0.0)]
        angles = rng.uniform(0.0, 2.0 * np.pi, size=40)
        states = list(TRINE_BLOCH) + [bloch_form(projector(ket(a))) for a in angles]
        clamped = set()
        for e in elements:
            row = qubit._born_row(e, states)
            assert len(row) == len(states)
            for n, p in zip(states, row):
                assert p.hex() == qubit.born(n, e).hex() == self.born_reference(n, e).hex()
                if p in (0.0, 1.0):
                    clamped.add(p)
        assert clamped == {0.0, 1.0}

    def test_rejects_non_hermitian(self):
        # the reference decoder keeps only the Hermitian part, so it refuses the rest
        bad = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            bloch_form(bad)

    def test_povm_probabilities_sum_to_one(self):
        rng = np.random.default_rng(11)
        m = trine_measurement()
        for _ in range(100):
            rho = projector(ket(rng.uniform(0.0, 2.0 * np.pi)))
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
        assert qubit.povm_validity([(2.0, 0.0, 0.0)]).is_valid
        assert validate_povm([IDENTITY]).is_valid

    def test_oversized_sum_invalid(self):
        # 1.1 times the projector on +x, and the projector on -x
        forms = [(1.1, 1.1, 0.0), (1.0, -1.0, 0.0)]
        elements = [
            0.55 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex),
            0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex),
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
        # 3 |+x><+x| - 2 |-x><-x|, diagonal in the sigma_x eigenbasis
        m = np.array([[0.5, 2.5], [2.5, 0.5]], dtype=complex)
        assert min_eigenvalue(m) == pytest.approx(-2.0)

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


class TestProductNorm:
    """The real residual norm ||A B C|| of check_helstrom."""

    def test_equals_the_complex_products_bit_for_bit_on_the_equator(self):
        # independent oracle: the same steps in Python's complex arithmetic
        rng = np.random.default_rng(20)
        n = 100_000
        forms = rng.normal(size=(3, n, 4)) * 10.0 ** rng.uniform(-8.0, 2.0, size=(3, n, 1))
        forms[:, :, 3] = 0.0
        a, b, c = (f.tolist() for f in forms)
        # the library takes (t, x, y); the complex reference, (t, x, y, 0.0)
        mismatched = [
            (x, y, z)
            for x, y, z in zip(a, b, c)
            if qubit._product_norm(x[:3], y[:3], z[:3]).hex()
            != reference_product_norm(x, y, z).hex()
        ]
        assert mismatched == []

    def test_matches_the_svd_on_the_equator(self):
        # independent oracle: numpy's SVD of the matrix product
        rng = np.random.default_rng(6)
        for _ in range(2000):
            a, b, c = (random_hermitian(rng) for _ in range(3))
            got = qubit._product_norm(bloch_form(a), bloch_form(b), bloch_form(c))
            assert got == pytest.approx(np.linalg.norm(a @ b @ c, 2), rel=1e-12, abs=1e-12)


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
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, t, x, y):
        m = qubit.from_bloch((t, x, y))
        np.testing.assert_allclose(bloch_form(m), [t, x, y], atol=1e-12)

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

    def test_constructor_rejects_forms_off_the_equator(self):
        # (t, x, y, z) is not a form: every operator here lies in the equator plane
        for form in ((1.0, 0.0, 0.0, 0.0), (1.0, 0.5, 0.0, 0.5), (1.0, 0.5)):
            with pytest.raises(DomainError, match=r"equatorial Bloch form \(t, x, y\)"):
                qubit.Measurement(((0, form),))

    def test_state_outcomes_take_python_and_numpy_integer_labels(self):
        half = (1.0, 0.0, 0.0)
        m = qubit.Measurement(((np.int64(1), half), (qubit.INCONCLUSIVE, half), (2, half)))
        assert [(k, int(lab)) for k, lab, _ in m.state_outcomes()] == [(0, 1), (2, 2)]


def test_every_form_the_library_builds_is_t_x_y():
    forms = [*TRINE_BLOCH, qubit.equator_element(0.5, 1.0), qubit.rank_one(0.3, -0.4)]
    measurements = [trine_measurement(), antitrine_measurement()]
    # both branches of the min-error answer
    branches = (((0.5, 0.3, 0.2), "two_element"), ((0.29, 0.38, 0.33), "three_element"))
    for triple, strategy in branches:
        result = optimal_measurement(canonicalize_priors(*triple))
        assert result.strategy == strategy
        measurements.append(result.measurement)
    # with and without an inconclusive outcome
    for triple in ((0.2, 0.3, 0.5), (1 / 3, 1 / 3, 1 / 3)):
        measurements.append(mc_povm(canonicalize_priors(*triple)))
    assert qubit.INCONCLUSIVE in measurements[-2].labels
    assert qubit.INCONCLUSIVE not in measurements[-1].labels
    forms += [b for m in measurements for _, b in m.forms]
    assert {len(b) for b in forms} == {3}
    assert all(type(v) is float for b in forms for v in b)


#: record name -> the TypeError text of a call with no arguments
MISSING_ARGUMENTS = {
    "Priors": "Priors.__init__() missing 3 required positional arguments: 'p0', 'p1', and 'p2'",
    "PovmValidity": (
        "PovmValidity.__init__() missing 3 required positional arguments: 'is_valid', "
        "'min_element_eigenvalue', and 'completeness_deviation'"
    ),
    "Measurement": "Measurement.__init__() missing 1 required positional argument: 'forms'",
    "GammaSolution": (
        "GammaSolution.__init__() missing 4 required positional arguments: 'a', 'b_x', 'b_y', "
        "and 'p_corr'"
    ),
    "HelstromReport": (
        "HelstromReport.__init__() missing 4 required positional arguments: "
        "'max_offdiag_residual', 'min_global_eigenvalue', 'passes', and 'success_probability'"
    ),
    "OptimalResult": (
        "OptimalResult.__init__() missing 5 required positional arguments: 'strategy', "
        "'measurement', 'p_correct', 'boundary_determinant', and 'helstrom'"
    ),
    "ConfidenceReport": (
        "ConfidenceReport.__init__() missing 3 required positional arguments: "
        "'per_state_confidence', 'inconclusive_probability', and 'measurement'"
    ),
    "EmpiricalResult": (
        "EmpiricalResult.__init__() missing 6 required positional arguments: 'shots', "
        "'successes', 'estimate', 'standard_error', 'per_outcome_counts', and 'seed'"
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_constructors_take_their_fields_in_order(name):
    cls, names, _, defaults = RECORDS[name]
    params = list(inspect.signature(cls).parameters.values())
    assert tuple(p.name for p in params) == cls._fields == (*names, *defaults)
    assert {p.name: p.default for p in params if p.default is not p.empty} == defaults
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    with pytest.raises(TypeError) as missing:
        cls()
    assert str(missing.value) == MISSING_ARGUMENTS[name]
    arity = len(params) + 1
    taken = f"{arity}" if not defaults else f"from {arity - len(defaults)} to {arity}"
    with pytest.raises(TypeError) as extra:
        cls(*range(len(params) + 1))
    assert str(extra.value) == (
        f"{name}.__init__() takes {taken} positional arguments but {arity + 1} were given"
    )
