import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinedisc.errors import DomainError
from trinedisc.trine import (
    _TRINE_ANGLES,
    TRINE_BLOCH,
    Priors,
    antitrine_measurement,
    canonicalize_priors,
    mixed_e2,
    priors_from_p_delta,
    random_priors,
    transform_to_original,
    trine_measurement,
)

from reference import (
    IDENTITY,
    bloch_form,
    element,
    ket,
    matrix,
    measurement,
    projector,
    trine_projectors,
    trine_states,
    validity,
)
from test_loop_forms import family_triple


#: Triples with tied priors, signed zeros among them, then draws from the
#: edge (p2 = 0) and tie (p1 = p2) families of the loop-form comparison.
TIE_PATTERNS = [
    (1 / 3, 1 / 3, 1 / 3),
    (0.5, 0.5, 0.0),
    (1.0, 0.0, -0.0),
    (0.5, 0.25, 0.25),
    (0.6, 0.2, 0.2),
    (0.2, 0.4, 0.4),
] + [family_triple(random.Random(seed), family) for family in (1, 2) for seed in range(5)]


def trine_perps():
    """The states orthogonal to the signals: antipodal on the equator."""
    return [ket(a + math.pi) for a in _TRINE_ANGLES]


def ensemble_density(probabilities):
    """Average state sum_i q_i |psi_i><psi_i| as a matrix (state-order probabilities)."""
    return matrix(np.asarray(probabilities, dtype=float) @ np.array(TRINE_BLOCH))


class TestStates:
    def test_pairwise_overlap(self):
        states = trine_states()
        for i in range(3):
            for j in range(3):
                expected = 1.0 if i == j else 0.25
                assert abs(np.vdot(states[i], states[j])) ** 2 == pytest.approx(
                    expected, abs=1e-12
                )

    def test_perp_overlap_identity(self):
        # |<psi_perp_j | psi_i>|^2 = 3/4 (1 - delta_ij)
        states, perps = trine_states(), trine_perps()
        for j in range(3):
            for i in range(3):
                expected = 0.0 if i == j else 0.75
                assert abs(np.vdot(perps[j], states[i])) ** 2 == pytest.approx(
                    expected, abs=1e-12
                )

    def test_bloch_forms_match_projectors(self):
        for n, psi in zip(TRINE_BLOCH, trine_states()):
            np.testing.assert_allclose(matrix(n), projector(psi), atol=1e-15)

    def test_symmetric_measurements_are_povms(self):
        for m in (trine_measurement(), antitrine_measurement()):
            v = validity(m)
            assert v.is_valid
            assert v.completeness_deviation < 1e-12

    def test_equal_mixture_is_maximally_mixed(self):
        rho = ensemble_density([1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_allclose(rho, 0.5 * IDENTITY, atol=1e-15)

    def test_ensemble_density_general(self):
        q = (0.5, 0.3, 0.2)
        rho = ensemble_density(q)
        expected = sum(qi * p for qi, p in zip(q, trine_projectors()))
        np.testing.assert_allclose(rho, expected, atol=1e-15)
        assert float(np.trace(rho).real) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_e2_is_the_purity_deficit(self):
        # 1 - Tr(rho^2) = 3 e2 / 2, against the matrix reference
        rng = np.random.default_rng(8)
        for pr in random_priors(rng, 200):
            rho = ensemble_density(pr.original)
            purity = float(np.trace(rho @ rho).real)
            assert 1.5 * mixed_e2(pr) == pytest.approx(1.0 - purity, abs=1e-15)


class TestCanonicalization:
    def test_already_sorted(self):
        pr = canonicalize_priors(0.5, 0.3, 0.2)
        assert pr.canonical == pytest.approx((0.5, 0.3, 0.2))
        assert pr.permutation == (0, 1, 2)

    def test_reversed(self):
        pr = canonicalize_priors(0.2, 0.3, 0.5)
        assert pr.canonical == pytest.approx((0.5, 0.3, 0.2))
        assert pr.permutation == (2, 1, 0)
        assert pr.original == pytest.approx((0.2, 0.3, 0.5))

    def test_stable_on_ties(self):
        pr = canonicalize_priors(0.3, 0.4, 0.3)
        assert pr.permutation == (1, 0, 2)

    @pytest.mark.parametrize("pattern", TIE_PATTERNS)
    def test_order_is_the_stable_descending_sort(self, pattern):
        # every ordering, 0.0 and -0.0 kept apart: set() would merge them
        for q in itertools.permutations(pattern):
            perm = canonicalize_priors(*q).permutation
            assert perm == tuple(sorted((0, 1, 2), key=q.__getitem__, reverse=True))
            # equal priors keep the caller's order
            assert all(perm[c] < perm[c + 1] for c in (0, 1) if q[perm[c]] == q[perm[c + 1]])

    def test_equal_priors(self):
        pr = canonicalize_priors(1 / 3, 1 / 3, 1 / 3)
        assert pr.permutation == (0, 1, 2)
        assert pr.p == pytest.approx(1 / 3)
        assert pr.delta == pytest.approx(0.0)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            canonicalize_priors(-0.1, 0.6, 0.5)

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            canonicalize_priors(0.5, 0.3, 0.3)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.5, 0.3, 0.3), "must sum to 1"),
            ((0.3, 0.5, 0.2), "requires p0 >= p1 >= p2"),
            ((0.5, 0.2, 0.3), "requires p0 >= p1 >= p2"),
            ((0.5, 0.3, 0.2, (0, 1, 1)), "invalid permutation"),
            ((0.5, 0.3, 0.2, (0, 1, 3)), "invalid permutation"),
            ((0.5, 0.3, 0.2, (0.0, 1.0, 2.0)), "invalid permutation"),
            ((0.5, 0.3, 0.2, (0, 1)), "invalid permutation"),
        ],
        ids=[
            "bad_sum", "p0_below_p1", "p1_below_p2", "repeated_index", "index_out_of_range",
            "float_indices", "two_indices",
        ],
    )
    def test_priors_refuse_a_non_canonical_triple(self, args, message):
        # Priors checks what canonicalize_priors would have established
        with pytest.raises(DomainError, match=message):
            Priors(*args)

    def test_priors_keep_the_permutation_as_a_tuple_of_ints(self):
        as_tuple = Priors(0.5, 0.3, 0.2, (1, 0, 2))
        for given in ([1, 0, 2], np.array([1, 0, 2]), (np.int64(1), np.int64(0), np.int64(2))):
            priors = Priors(0.5, 0.3, 0.2, given)
            assert priors == as_tuple and hash(priors) == hash(as_tuple)
            assert type(priors.permutation) is tuple
            assert [type(i) for i in priors.permutation] == [int, int, int]
            assert priors.original == as_tuple.original

    def test_renormalizes_within_tolerance(self):
        eps = 5e-10
        pr = canonicalize_priors(0.5 + eps, 0.3, 0.2)
        assert sum(pr.canonical) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(0.01, 1), st.floats(0.01, 1), st.floats(0.01, 1))
    @settings(max_examples=200, deadline=None)
    def test_original_roundtrip(self, a, b, c):
        total = a + b + c
        q = (a / total, b / total, c / total)
        pr = canonicalize_priors(*q)
        assert pr.p0 >= pr.p1 >= pr.p2
        np.testing.assert_allclose(pr.original, q, atol=1e-12)
        # permutation[c] is the original index of canonical slot c
        for slot in range(3):
            assert q[pr.permutation[slot]] == pytest.approx(
                pr.canonical[slot], abs=1e-12
            )


class TestPDelta:
    def test_roundtrip(self):
        pr = priors_from_p_delta(0.42, 0.1)
        assert pr.canonical == pytest.approx((0.52, 0.32, 0.16))
        assert pr.p == pytest.approx(0.42)
        assert pr.delta == pytest.approx(0.1)

    def test_equal_priors_point(self):
        pr = priors_from_p_delta(1 / 3, 0.0)
        np.testing.assert_allclose(pr.canonical, (1 / 3, 1 / 3, 1 / 3), atol=1e-15)

    def test_two_state_edge(self):
        pr = priors_from_p_delta(0.5, 0.2)
        assert pr.p2 == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "p,delta",
        [
            (0.3, 0.0),  # p below 1/3
            (0.55, 0.0),  # p above 1/2
            (0.42, -0.01),  # negative delta
            (0.35, 0.1),  # delta above 3p - 1
            (0.42, 0.3),  # delta above 3p - 1 again
        ],
    )
    def test_rejects_outside_region(self, p, delta):
        with pytest.raises(DomainError):
            priors_from_p_delta(p, delta)

    def test_rejects_delta_above_p(self):
        # p and delta lie within tolerance of 1/2, and delta <= 3p - 1 holds
        with pytest.raises(DomainError, match="violates delta <= p$"):
            priors_from_p_delta(0.5 + 9e-13, 0.5 + 2.4e-12)

    def test_region_boundary_accepted(self):
        pr = priors_from_p_delta(0.4, 3 * 0.4 - 1.0)
        assert pr.p2 == pytest.approx(pr.p1, abs=1e-12)


class TestRandomPriors:
    def test_reproducible_and_canonical(self):
        [a] = random_priors(np.random.default_rng(42), 1)
        [b] = random_priors(np.random.default_rng(42), 1)
        assert a == b
        for pr in random_priors(np.random.default_rng(184), 200):
            assert pr.p0 >= pr.p1 >= pr.p2 >= 0.0
            assert sum(pr.canonical) == pytest.approx(1.0, abs=1e-9)


class TestFrameTransform:
    def test_identity_permutation_is_noop(self):
        m = trine_measurement()
        out = transform_to_original(m.forms, (0, 1, 2))
        for (la, a), (lb, b) in zip(m.elements, out.elements):
            assert la == lb
            np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize(
        "perm",
        [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0)],
    )
    def test_projector_onto_state_maps_correctly(self, perm):
        # an element aligned with canonical state c must come back aligned
        # with original state perm[c]
        projs = trine_projectors()
        for c in range(3):
            out = transform_to_original([(c, bloch_form(projs[c]))], perm)
            (label, op), = out.elements
            assert label == perm[c]
            np.testing.assert_allclose(op, projs[perm[c]], atol=1e-12)

    @pytest.mark.parametrize(
        "perm",
        [(1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0)],
    )
    def test_preserves_povm_and_spectra(self, perm):
        rng = np.random.default_rng(17)
        angles = rng.uniform(0, 2 * math.pi, size=3)
        weights = np.array([0.7, 0.7, 0.6])
        elements = tuple(
            (j, w * projector(ket(a)))
            for j, (w, a) in enumerate(zip(weights, angles))
        )
        # not complete, but spectra and hermiticity must survive the map
        m = measurement(elements)
        out = transform_to_original(m.forms, perm)
        for c in range(3):
            a = element(m, c)
            b = element(out, perm[c])
            np.testing.assert_allclose(
                np.linalg.eigvalsh(a), np.linalg.eigvalsh(b), atol=1e-12
            )
            np.testing.assert_allclose(b, b.conj().T, atol=1e-12)


class TestEnsemble:
    def test_priors_with_states_and_perps(self):
        # the ensemble is the priors plus the fixed state sets
        pr = canonicalize_priors(0.2, 0.5, 0.3)
        assert pr.original == pytest.approx((0.2, 0.5, 0.3), abs=1e-15)
        states, perps = trine_states(), trine_perps()
        assert len(states) == len(perps) == len(pr.canonical) == 3
        for s, perp in zip(states, perps):
            assert abs(np.vdot(s, perp)) < 1e-12
