import numpy as np
import pytest

from trinedisc import qubit
from trinedisc.errors import DomainError, PureStateError
from trinedisc.max_confidence import mc_confidence_closed_form
from trinedisc.min_error import optimal_measurement
from trinedisc.oracle import (
    brute_force_max_confidence,
    brute_force_min_error,
    measurement_from_parameters,
    random_planar_povm,
)
from trinedisc.trine import canonicalize_priors, random_priors, trine_projectors


class TestMinErrorOracle:
    def test_equal_priors(self):
        pr = canonicalize_priors(1 / 3, 1 / 3, 1 / 3)
        res = brute_force_min_error(pr, resolution=72, refinements=24)
        assert res.best_value == pytest.approx(2 / 3, abs=1e-9)
        assert res.family == "three_outcome"

    def test_two_state_edge(self):
        pr = canonicalize_priors(0.5, 0.5, 0.0)
        res = brute_force_min_error(pr, resolution=72, refinements=24)
        assert res.best_value == pytest.approx((2 + np.sqrt(3)) / 4, abs=1e-9)
        # with p2 = 0 a degenerate three-outcome POVM ties the projective
        # optimum, so either family may win the tie-break
        assert res.family in ("projective", "three_outcome")

    def test_matches_closed_form_on_random_priors(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            pr = random_priors(rng)
            analytic = optimal_measurement(pr).p_correct
            res = brute_force_min_error(pr, resolution=72, refinements=24)
            assert res.best_value == pytest.approx(analytic, abs=1e-6)

    def test_incumbent_is_a_valid_povm(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            pr = random_priors(rng)
            res = brute_force_min_error(pr, resolution=48, refinements=16)
            m = measurement_from_parameters(res)
            v = m.validity()
            assert v.is_valid and v.completeness_deviation < 1e-8

    def test_deterministic(self):
        pr = canonicalize_priors(0.5, 0.3, 0.2)
        a = brute_force_min_error(pr, resolution=48, refinements=12)
        b = brute_force_min_error(pr, resolution=48, refinements=12)
        assert a == b

    def test_rejects_tiny_resolution(self):
        with pytest.raises(DomainError):
            brute_force_min_error(canonicalize_priors(0.5, 0.3, 0.2), resolution=8)

    def test_incumbent_value_matches_born_rule(self):
        # recompute the oracle value from its own POVM, in canonical order
        pr = canonicalize_priors(0.45, 0.35, 0.2)
        res = brute_force_min_error(pr, resolution=72, refinements=24)
        m = measurement_from_parameters(res)
        rhos = trine_projectors()
        value = sum(
            pr.canonical[lab] * float(np.trace(rhos[lab] @ op).real)
            for lab, op in m.elements
        )
        assert value == pytest.approx(res.best_value, abs=1e-9)


class TestMaxConfidenceOracle:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            pr = random_priors(rng)
            if pr.p0 > 1.0 - 1e-6 or min(pr.canonical) < 1e-6:
                continue
            for i in range(3):
                res = brute_force_max_confidence(pr, i, resolution=360, refinements=20)
                assert res.best_value == pytest.approx(
                    mc_confidence_closed_form(pr, i), abs=1e-7
                )

    def test_pure_ensemble_rejected(self):
        with pytest.raises(PureStateError):
            brute_force_max_confidence(canonicalize_priors(1.0, 0.0, 0.0), 0)

    def test_equal_priors(self):
        pr = canonicalize_priors(1 / 3, 1 / 3, 1 / 3)
        for i in range(3):
            res = brute_force_max_confidence(pr, i, resolution=360, refinements=20)
            assert res.best_value == pytest.approx(2 / 3, abs=1e-9)


class TestOffEquator:
    def test_tilted_planes_never_beat_the_equator(self):
        # random rank-1 POVMs in arbitrary planes through the Bloch origin:
        # none may exceed the dispatched equatorial optimum
        rng = np.random.default_rng(79)
        rhos = trine_projectors()
        checked = 0
        for _ in range(40):
            pr = random_priors(rng)
            best = optimal_measurement(pr).p_correct
            q = pr.original
            trials = 0
            while trials < 50:
                povm = random_planar_povm(rng)
                if povm is None:
                    continue
                trials += 1
                value = 0.0
                for lab, (w, v) in enumerate(povm):
                    op = w * qubit.from_bloch((1.0, *v))
                    # best relabeling of the three outcomes
                    probs = [
                        q[j] * float(np.trace(rhos[j] @ op).real) for j in range(3)
                    ]
                    value += max(probs)
                assert value <= best + 1e-9
            checked += 1
        assert checked == 40
