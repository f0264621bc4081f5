import math

import numpy as np
import pytest

from trinedisc import qubit
from trinedisc.errors import DomainError, PureStateError
from trinedisc.max_confidence import mc_confidence_closed_form
from trinedisc.min_error import boundary_determinant, critical_delta, optimal_measurement
from trinedisc.trine import canonicalize_priors, priors_from_p_delta, random_priors

from grid_search import (
    OracleResult,
    brute_force_max_confidence,
    brute_force_min_error,
    planar_weights,
)
from reference import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, trine_projectors
from test_certificate import exact_max_confidence, exact_optimum


def measurement_from_parameters(result: OracleResult) -> qubit.Measurement:
    """Rebuild the POVM behind a minimum-error oracle incumbent."""
    if result.family == "projective":
        (t,), (a, b) = result.best_parameters, result.labels
        elements = ((a, 1.0, t), (b, 1.0, t + math.pi))
    else:
        _, *weights = planar_weights(*result.best_parameters)
        elements = zip(result.labels, map(float, weights), result.best_parameters)
    return qubit.Measurement((j, qubit.equator_element(k, t)) for j, k, t in elements)


def hard_priors():
    """The tie edges (1 - 2e, e, e) at e = 1e-3 and 1e-6, a point on the
    det M = 0 boundary, the near corner, the uniform triple, (1/2, 1/2, 0)
    and, last, the pure ensemble (1, 0, 0)."""
    boundary = priors_from_p_delta(0.42, critical_delta(0.42))
    assert abs(boundary_determinant(boundary)) < 1e-9
    edges = [(1.0 - 2.0 * e, e, e) for e in (1e-3, 1e-6)]
    edges += [boundary.canonical, (1.0 - 1e-6, 5e-7, 5e-7)]
    edges += [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.5, 0.0), (1.0, 0.0, 0.0)]
    return [canonicalize_priors(*p) for p in edges]


def test_grid_search_reaches_the_exact_optima_on_the_hard_priors():
    # min error: above the exact optimum's bracket by rounding at most (the
    # Born sum of a float POVM lands up to a few ulps above it), and within
    # 1e-6 of its lower end; confidence: within 1e-7 of p_i o_i / e2
    priors = hard_priors()
    for pr, found in zip(priors, brute_force_min_error(priors)):
        lower, upper = exact_optimum(pr.original)
        assert found.best_value - upper <= 1e-14, pr.original
        assert lower - found.best_value <= 1e-6, pr.original
    mixed = priors[:-1]  # (1, 0, 0) is a pure ensemble
    for i in range(3):
        for pr, found in zip(mixed, brute_force_max_confidence(mixed, [i] * len(mixed))):
            assert abs(found.best_value - exact_max_confidence(pr.original, i)) <= 1e-7, (
                pr.original, i,
            )


class TestCoarseGrids:
    """Any resolution and refinement count, down to the coarsest grid:
    every incumbent is a real measurement, so it never beats the exact
    optimum by more than rounding, and refining only moves it up (each
    stencil holds the current point)."""

    @pytest.mark.parametrize("resolution", [16, 37, 48, 72])
    def test_min_error_is_feasible_and_refines_upward(self, resolution):
        priors = hard_priors()
        previous = None
        for refinements in (0, 5, 24):
            results = brute_force_min_error(priors, resolution, refinements)
            for pr, found in zip(priors, results):
                assert found.best_value - exact_optimum(pr.original)[1] <= 1e-14, pr.original
                assert measurement_from_parameters(found).validity().is_valid, pr.original
            if previous is not None:
                for before, after in zip(previous, results):
                    assert after.best_value >= before.best_value
            previous = results

    @pytest.mark.parametrize("resolution", [16, 37, 360])
    def test_max_confidence_is_feasible_and_refines_upward(self, resolution):
        mixed = hard_priors()[:-1]  # (1, 0, 0) is a pure ensemble
        for i in range(3):
            previous = None
            for refinements in (0, 5, 24):
                results = brute_force_max_confidence(
                    mixed, [i] * len(mixed), resolution, refinements
                )
                for pr, found in zip(mixed, results):
                    excess = found.best_value - exact_max_confidence(pr.original, i)
                    assert excess <= 1e-14, (pr.original, i)
                if previous is not None:
                    for before, after in zip(previous, results):
                        assert after.best_value >= before.best_value
                previous = results


class TestMinErrorOracle:
    def test_equal_priors(self):
        pr = canonicalize_priors(1 / 3, 1 / 3, 1 / 3)
        [res] = brute_force_min_error([pr], resolution=72, refinements=24)
        assert res.best_value == pytest.approx(2 / 3, abs=1e-9)
        assert res.family == "three_outcome"

    def test_two_state_edge(self):
        pr = canonicalize_priors(0.5, 0.5, 0.0)
        [res] = brute_force_min_error([pr], resolution=72, refinements=24)
        assert res.best_value == pytest.approx((2 + np.sqrt(3)) / 4, abs=1e-9)
        # with p2 = 0 a degenerate three-outcome POVM ties the projective
        # optimum, so either family may win the tie-break
        assert res.family in ("projective", "three_outcome")

    def test_matches_closed_form_on_random_priors(self):
        rng = np.random.default_rng(67)
        for pr in random_priors(rng, 20):
            analytic = optimal_measurement(pr).p_correct
            [res] = brute_force_min_error([pr], resolution=72, refinements=24)
            assert res.best_value == pytest.approx(analytic, abs=1e-6)

    def test_incumbent_is_a_valid_povm(self):
        rng = np.random.default_rng(71)
        for pr in random_priors(rng, 10):
            [res] = brute_force_min_error([pr], resolution=48, refinements=16)
            m = measurement_from_parameters(res)
            v = m.validity()
            assert v.is_valid and v.completeness_deviation < 1e-8

    def test_deterministic(self):
        pr = canonicalize_priors(0.5, 0.3, 0.2)
        a = brute_force_min_error([pr], resolution=48, refinements=12)
        b = brute_force_min_error([pr], resolution=48, refinements=12)
        assert a == b

    def test_rejects_tiny_resolution(self):
        pr = canonicalize_priors(0.5, 0.3, 0.2)
        # a batch, and an empty batch
        for priors, states in (([pr], [0]), ([], [])):
            with pytest.raises(DomainError):
                brute_force_min_error(priors, resolution=8)
            with pytest.raises(DomainError):
                brute_force_max_confidence(priors, states, resolution=8)

    def test_empty_batch(self):
        assert brute_force_min_error([]) == []
        assert brute_force_max_confidence([], []) == []

    def test_bare_priors_rejected(self):
        # both oracles take a sequence of priors, never one bare triple
        pr = canonicalize_priors(0.5, 0.3, 0.2)
        with pytest.raises(TypeError):
            brute_force_min_error(pr)
        with pytest.raises(TypeError):
            brute_force_max_confidence(pr, [0])

    def test_incumbent_value_matches_born_rule(self):
        # recompute the oracle value from its own POVM, in canonical order
        pr = canonicalize_priors(0.45, 0.35, 0.2)
        [res] = brute_force_min_error([pr], resolution=72, refinements=24)
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
        for pr in random_priors(rng, 20):
            if pr.p0 > 1.0 - 1e-6 or min(pr.canonical) < 1e-6:
                continue
            for i in range(3):
                [res] = brute_force_max_confidence([pr], [i], resolution=360, refinements=20)
                assert res.best_value == pytest.approx(
                    mc_confidence_closed_form(pr)[i], abs=1e-7
                )

    def test_pure_ensemble_rejected(self):
        pure = canonicalize_priors(1.0, 0.0, 0.0)
        with pytest.raises(PureStateError):
            brute_force_max_confidence([pure], [0])
        with pytest.raises(PureStateError):
            brute_force_max_confidence([canonicalize_priors(0.5, 0.3, 0.2), pure], [0, 1])

    def test_batch_needs_one_state_per_prior(self):
        pr = canonicalize_priors(0.5, 0.3, 0.2)
        with pytest.raises(DomainError):
            brute_force_max_confidence([pr, pr], [0])

    def test_equal_priors(self):
        pr = canonicalize_priors(1 / 3, 1 / 3, 1 / 3)
        for i in range(3):
            [res] = brute_force_max_confidence([pr], [i], resolution=360, refinements=20)
            assert res.best_value == pytest.approx(2 / 3, abs=1e-9)


def random_planar_povm(rng: np.random.Generator):
    """Three rank-1 outcomes in a random tilted plane through the origin.

    Returns a list of (weight, bloch_dir) pairs, or None when the sampled
    angles give negative weights.
    """
    basis = np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :2]
    angles = rng.uniform(0.0, 2.0 * np.pi, size=3)
    d, k0, k1, k2 = planar_weights(*angles)
    weights = (k0, k1, k2)
    if abs(d) < 1e-9 or min(weights) < 0.0:
        return None
    return [
        (float(k), basis @ np.array([math.cos(t), math.sin(t)]))
        for k, t in zip(weights, angles)
    ]


class TestOffEquator:
    def test_tilted_planes_never_beat_the_equator(self):
        # random rank-1 POVMs in arbitrary planes through the Bloch origin:
        # none may exceed the dispatched equatorial optimum
        rng = np.random.default_rng(79)
        rhos = trine_projectors()
        checked = 0
        for _ in range(40):
            [pr] = random_priors(rng, 1)
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
                    # off the equator: a matrix the library cannot hold as a form
                    op = 0.5 * w * (IDENTITY + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)
                    # best relabeling of the three outcomes
                    probs = [
                        q[j] * float(np.trace(rhos[j] @ op).real) for j in range(3)
                    ]
                    value += max(probs)
                assert value <= best + 1e-9
            checked += 1
        assert checked == 40
