import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinedisc import max_confidence, qubit
from trinedisc.errors import PureStateError, UndefinedError, VerificationError, ZeroOutcomeError
from trinedisc.max_confidence import (
    confidence,
    confidence_report,
    mc_confidence_closed_form,
    mc_povm,
    min_error_confidence,
)
from trinedisc.trine import (
    Priors,
    canonicalize_priors,
    random_priors,
    trine_measurement,
)

from reference import element, measurement, trine_projectors, validity


def bayes_confidence(q, m, i):
    """Independent posterior oracle: direct Bayes computation."""
    rhos = trine_projectors()
    op = element(m, i)
    joint = [q[j] * float(np.trace(rhos[j] @ op).real) for j in range(3)]
    return joint[i] / sum(joint)


class TestClosedForm:
    def test_equal_priors(self):
        pr = canonicalize_priors(1 / 3, 1 / 3, 1 / 3)
        for i in range(3):
            assert mc_confidence_closed_form(pr)[i] == pytest.approx(2 / 3, abs=1e-12)

    def test_hand_computed_example(self):
        # p = (0.5, 0.3, 0.2): 1/(1 + 0.06/(0.5*0.5)) = 25/31, etc.
        pr = canonicalize_priors(0.5, 0.3, 0.2)
        assert mc_confidence_closed_form(pr)[0] == pytest.approx(25 / 31, abs=1e-12)
        assert mc_confidence_closed_form(pr)[1] == pytest.approx(21 / 31, abs=1e-12)
        assert mc_confidence_closed_form(pr)[2] == pytest.approx(16 / 31, abs=1e-12)

    def test_zero_prior_limit(self):
        pr = canonicalize_priors(0.6, 0.4, 0.0)
        assert mc_confidence_closed_form(pr)[2] == 0.0
        assert mc_confidence_closed_form(pr)[0] == 1.0
        assert mc_confidence_closed_form(pr)[1] == 1.0

    def test_pure_ensemble_undefined(self):
        pr = canonicalize_priors(1.0, 0.0, 0.0)
        assert mc_confidence_closed_form(pr) == (None, 0.0, 0.0)

    def test_report_refuses_an_undefined_closed_form(self):
        # p0 = 1 within the sum tolerance, but e2 just above the purity guard:
        # the POVM is built, and the closed form it is checked against is None
        with pytest.raises(UndefinedError):
            confidence_report(Priors(1.0, 4e-10, 4e-10))

    def test_limit_sequences_converge(self):
        # p2 -> 0: confidence_2 -> 0, confidence_0 and confidence_1 -> 1
        for eps in (1e-4, 1e-6, 1e-8):
            pr = canonicalize_priors(0.6 - eps / 2, 0.4 - eps / 2, eps)
            c2 = mc_confidence_closed_form(pr)[2]
            assert c2 < 5 * eps
            assert mc_confidence_closed_form(pr)[0] > 1.0 - 5 * eps

    def test_respects_original_ordering(self):
        a = canonicalize_priors(0.2, 0.3, 0.5)
        b = canonicalize_priors(0.5, 0.3, 0.2)
        assert mc_confidence_closed_form(a)[0] == pytest.approx(
            mc_confidence_closed_form(b)[2], abs=1e-14
        )
        assert mc_confidence_closed_form(a)[2] == pytest.approx(
            mc_confidence_closed_form(b)[0], abs=1e-14
        )


class TestPovm:
    def test_is_valid_povm(self):
        rng = np.random.default_rng(53)
        for pr in random_priors(rng, 100):
            if pr.p0 > 1.0 - 1e-6:
                continue
            m = mc_povm(pr)
            v = validity(m)
            assert v.is_valid and v.completeness_deviation < 1e-10

    def test_equal_priors_no_inconclusive(self):
        m = mc_povm(canonicalize_priors(1 / 3, 1 / 3, 1 / 3))
        assert qubit.INCONCLUSIVE not in m.labels
        # symmetric case: the POVM is the trine measurement itself
        ref = trine_measurement()
        for j in range(3):
            np.testing.assert_allclose(element(m, j), element(ref, j), atol=1e-10)

    def test_unequal_priors_has_inconclusive(self):
        m = mc_povm(canonicalize_priors(0.5, 0.3, 0.2))
        assert qubit.INCONCLUSIVE in m.labels

    def test_zero_prior_element_direction(self):
        # with p1 = 0 and the other two priors equal, the ensemble Bloch
        # vector is antipodal to state 1, so rho^{-1} |psi_1> is parallel to
        # |psi_1> and the element aligns with the state's own projector
        pr = canonicalize_priors(0.5, 0.0, 0.5)
        m = mc_povm(pr)
        op = element(m, 1)
        norm = float(np.trace(op).real)
        assert norm > 1e-12
        np.testing.assert_allclose(op / norm, trine_projectors()[1], atol=1e-9)

    def test_pure_ensemble_rejected(self):
        with pytest.raises(PureStateError):
            mc_povm(canonicalize_priors(1.0, 0.0, 0.0))

    def test_achieves_closed_form(self):
        rng = np.random.default_rng(59)
        for pr in random_priors(rng, 200):
            if pr.p0 > 1.0 - 1e-6 or min(pr.canonical) < 1e-9:
                continue
            m = mc_povm(pr)
            for i in range(3):
                assert bayes_confidence(pr.original, m, i) == pytest.approx(
                    mc_confidence_closed_form(pr)[i], abs=1e-10
                )


class TestConfidenceFunction:
    def test_matches_independent_bayes(self):
        pr = canonicalize_priors(0.4, 0.35, 0.25)
        m = trine_measurement()
        for i in range(3):
            assert confidence(pr, m, i) == pytest.approx(
                bayes_confidence(pr.original, m, i), abs=1e-14
            )

    def test_scale_invariance(self):
        pr = canonicalize_priors(0.4, 0.35, 0.25)
        m = trine_measurement()
        scaled = measurement(
            tuple((lab, 0.1 * op) for lab, op in m.elements)
        )
        for i in range(3):
            assert confidence(pr, scaled, i) == pytest.approx(
                confidence(pr, m, i), abs=1e-12
            )

    def test_zero_outcome_rejected(self):
        pr = canonicalize_priors(0.4, 0.35, 0.25)
        m = measurement(((0, np.zeros((2, 2), dtype=complex)),))
        with pytest.raises(ZeroOutcomeError):
            confidence(pr, m, 0)


class TestReport:
    def test_report_consistency(self):
        rep = confidence_report(canonicalize_priors(0.5, 0.3, 0.2))
        assert rep.per_state_confidence == pytest.approx(
            (25 / 31, 21 / 31, 16 / 31), abs=1e-10
        )
        assert 0.0 < rep.inconclusive_probability < 1.0
        # total outcome probability must be 1 including the inconclusive arm
        q = (0.5, 0.3, 0.2)
        rhos = trine_projectors()
        total = sum(
            q[j] * float(np.trace(rhos[j] @ op).real)
            for j in range(3)
            for _, op in rep.measurement.elements
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("i", range(3))
    def test_report_trips_on_a_planted_closed_form_offset(self, monkeypatch, i):
        # the Bayes posteriors agree with the closed forms to 1e-10, so a
        # closed form 2e-10 off must fail the cross-check
        def planted(priors):
            closed = list(mc_confidence_closed_form(priors))
            closed[i] += 2e-10
            return tuple(closed)

        monkeypatch.setattr(max_confidence, "mc_confidence_closed_form", planted)
        with pytest.raises(VerificationError):
            confidence_report(canonicalize_priors(0.5, 0.3, 0.2))

    def test_report_trips_on_a_planted_zero_element(self, monkeypatch):
        # the report and confidence() share one zero-outcome test
        pr = canonicalize_priors(0.5, 0.3, 0.2)
        forms = dict(mc_povm(pr).forms)
        forms[1] = (0.0, 0.0, 0.0)
        m = qubit.Measurement(forms.items())
        monkeypatch.setattr(max_confidence, "mc_povm", lambda priors: m)
        with pytest.raises(ZeroOutcomeError):
            confidence_report(pr)
        with pytest.raises(ZeroOutcomeError):
            confidence(pr, m, 1)

    @given(st.floats(0.05, 1), st.floats(0.05, 1), st.floats(0.05, 1))
    @settings(max_examples=100, deadline=None)
    def test_report_never_disagrees(self, a, b, c):
        total = a + b + c
        pr = canonicalize_priors(a / total, b / total, c / total)
        rep = confidence_report(pr)
        for v in rep.per_state_confidence:
            assert 0.0 <= v <= 1.0 + 1e-12


class TestMinErrorConfidence:
    def test_never_exceeds_maximum(self):
        rng = np.random.default_rng(61)
        for pr in random_priors(rng, 200):
            if pr.p0 > 1.0 - 1e-6 or min(pr.canonical) < 1e-9:
                continue
            me = min_error_confidence(pr)
            for i, v in enumerate(me):
                if v is not None:
                    assert v <= mc_confidence_closed_form(pr)[i] + 1e-9

    def test_two_element_branch_has_missing_state(self):
        pr = canonicalize_priors(0.45, 0.45, 0.1)
        me = min_error_confidence(pr)
        assert me[2] is None
        assert me[0] is not None and me[1] is not None

    def test_equal_priors_matches_maximum(self):
        pr = canonicalize_priors(1 / 3, 1 / 3, 1 / 3)
        me = min_error_confidence(pr)
        for v in me:
            assert v == pytest.approx(2 / 3, abs=1e-10)
