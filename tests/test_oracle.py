import functools
import math

import numpy as np
import pytest

from trinedisc import oracle, qubit
from trinedisc.errors import DomainError, PureStateError
from trinedisc.max_confidence import mc_confidence_closed_form
from trinedisc.min_error import boundary_determinant, critical_delta, optimal_measurement
from trinedisc.oracle import (
    OracleResult,
    brute_force_max_confidence,
    brute_force_min_error,
)
from trinedisc.trine import (
    TRINE_ANGLES,
    canonicalize_priors,
    priors_from_p_delta,
    random_priors,
)

from reference import trine_projectors

# Reference oracle: the straightforward evaluation the table-driven one
# must reproduce bit for bit.  Each t0 slice evaluates every sine and
# overlap over a meshgrid, and each incumbent is refined on its own.

_STATE_ANGLES = np.array(TRINE_ANGLES)
_LABEL_PAIRS = [(a, b) for a in range(3) for b in range(3) if a != b]


def _planar_weights(t0, t1, t2):
    d = np.sin(t2 - t1) + np.sin(t0 - t2) + np.sin(t1 - t0)
    with np.errstate(divide="ignore", invalid="ignore"):
        k0 = 2.0 * np.sin(t2 - t1) / d
        k1 = 2.0 * np.sin(t0 - t2) / d
        k2 = 2.0 * np.sin(t1 - t0) / d
    return d, k0, k1, k2


def measurement_from_parameters(result: OracleResult) -> qubit.Measurement:
    """Rebuild the POVM behind a minimum-error oracle incumbent."""
    if result.family == "projective":
        (t,), (a, b) = result.best_parameters, result.labels
        elements = ((a, 1.0, t), (b, 1.0, t + math.pi))
    else:
        _, *weights = _planar_weights(*result.best_parameters)
        elements = zip(result.labels, map(float, weights), result.best_parameters)
    return qubit.Measurement((j, qubit.equator_element(k, t)) for j, k, t in elements)


def _overlap_sq(state_angle, t):
    return np.cos(0.5 * (state_angle - t)) ** 2


def _three_outcome_values(q, t0, t1, t2):
    d, k0, k1, k2 = _planar_weights(t0, t1, t2)
    with np.errstate(invalid="ignore"):
        value = (
            q[0] * k0 * _overlap_sq(_STATE_ANGLES[0], t0)
            + q[1] * k1 * _overlap_sq(_STATE_ANGLES[1], t1)
            + q[2] * k2 * _overlap_sq(_STATE_ANGLES[2], t2)
        )
    bad = (
        (np.abs(d) < 1e-12)
        | (k0 < 0.0)
        | (k1 < 0.0)
        | (k2 < 0.0)
        | ~np.isfinite(value)
    )
    return np.where(bad, -np.inf, value)


def _refine(value_fn, incumbent, start_step, refinements):
    point = np.asarray(incumbent, dtype=float)
    ndim = point.size
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    grids = np.meshgrid(*([offsets] * ndim), indexing="ij")
    stencil = np.stack([g.ravel() for g in grids], axis=-1)
    step = start_step
    for _ in range(refinements):
        step *= 0.5
        candidates = point[None, :] + step * stencil
        values = value_fn(candidates)
        point = candidates[int(np.argmax(values))]
    return point, float(value_fn(point[None, :])[0])


@functools.lru_cache(maxsize=None)
def _reference_slices(q, resolution):
    """Best grid point of every t0 slice, strongest first (stable order)."""
    grid = 2.0 * np.pi * np.arange(resolution) / resolution
    t1g, t2g = np.meshgrid(grid, grid, indexing="ij")
    slice_best = []
    for t0 in grid:
        vals = _three_outcome_values(q, t0, t1g, t2g)
        j = int(np.argmax(vals))
        v = vals.flat[j]
        if np.isfinite(v):
            slice_best.append((float(v), (t0, t1g.flat[j], t2g.flat[j])))
    slice_best.sort(key=lambda pair: -pair[0])
    return slice_best


def reference_min_error(priors, resolution, refinements):
    q = tuple(np.asarray(priors.canonical))
    grid = 2.0 * np.pi * np.arange(resolution) / resolution
    step = 2.0 * np.pi / resolution

    c = _overlap_sq(_STATE_ANGLES[:, None], grid[None, :])
    best = np.full(grid.shape, -np.inf)
    best_pair = np.zeros(grid.shape, dtype=int)
    for idx, (a, b) in enumerate(_LABEL_PAIRS):
        v = q[a] * c[a] + q[b] * (1.0 - c)[b]
        improve = v > best
        best = np.where(improve, v, best)
        best_pair = np.where(improve, idx, best_pair)
    i_best = int(np.argmax(best))
    a, b = labels = _LABEL_PAIRS[best_pair[i_best]]

    def proj_fn(pts):
        t = pts[:, 0]
        return q[a] * _overlap_sq(_STATE_ANGLES[a], t) + q[b] * (
            1.0 - _overlap_sq(_STATE_ANGLES[b], t)
        )

    proj_point, proj_value = _refine(proj_fn, [grid[i_best]], step, refinements)

    def triple_fn(pts):
        return _three_outcome_values(q, pts[:, 0], pts[:, 1], pts[:, 2])

    tri_point, tri_value = None, -np.inf
    for _, start in _reference_slices(q, resolution)[:8]:
        point, value = _refine(triple_fn, start, step, refinements)
        if value > tri_value:
            tri_point, tri_value = point, value
    if tri_value > proj_value:
        return OracleResult(
            tri_value, tuple(float(t) for t in tri_point), "three_outcome", (0, 1, 2),
        )
    return OracleResult(
        proj_value, (float(proj_point[0]),), "projective", labels,
    )


def reference_max_confidence(priors, i, resolution, refinements):
    q = np.asarray(priors.original)

    def conf_fn(pts):
        c = _overlap_sq(_STATE_ANGLES[:, None], pts[:, 0][None, :])
        denom = q[0] * c[0] + q[1] * c[1] + q[2] * c[2]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = q[i] * c[i] / denom
        return np.where(denom > 1e-14, out, -np.inf)

    grid = 2.0 * np.pi * np.arange(resolution) / resolution
    i_best = int(np.argmax(conf_fn(grid[:, None])))
    point, value = _refine(
        conf_fn, [grid[i_best]], 2.0 * np.pi / resolution, refinements
    )
    return OracleResult(
        value, (float(point[0]),), "single_element", (i,)
    )


def _equivalence_priors():
    rng = np.random.default_rng(83)
    boundary = priors_from_p_delta(0.42, critical_delta(0.42))
    assert abs(boundary_determinant(boundary)) < 1e-9
    edges = [(1.0 - 2.0 * e, e, e) for e in (1e-3, 1e-6)]
    edges += [boundary.canonical, (1.0 - 1e-6, 5e-7, 5e-7)]
    # the pure ensemble stays last: the max-confidence test leaves it out
    edges += [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.5, 0.0), (1.0, 0.0, 0.0)]
    return [random_priors(rng) for _ in range(30)] + [
        canonicalize_priors(*p) for p in edges
    ]


class TestMatchesReference:
    # 37 is odd and not a multiple of 4
    @pytest.mark.parametrize("resolution", [16, 37, 48, 72])
    def test_min_error_equals_reference(self, resolution):
        for pr in _equivalence_priors():
            for refinements in (0, 5, 24):
                [got] = brute_force_min_error([pr], resolution, refinements)
                assert got == reference_min_error(pr, resolution, refinements), (
                    pr.original, refinements,
                )

    @pytest.mark.parametrize("resolution", [16, 360])
    def test_max_confidence_equals_reference(self, resolution):
        for pr in _equivalence_priors()[:-1]:  # (1, 0, 0) is a pure ensemble
            for i in range(3):
                for refinements in (0, 5, 24):
                    [got] = brute_force_max_confidence([pr], [i], resolution, refinements)
                    want = reference_max_confidence(pr, i, resolution, refinements)
                    assert got == want, (pr.original, i, refinements)

    # one batch call over every prior: 37 of them, three chunks, the last
    # one short
    @pytest.mark.parametrize("resolution", [16, 37, 72])
    def test_min_error_batch_equals_reference(self, resolution):
        priors = _equivalence_priors()
        assert len(priors) % oracle._CHUNK_PRIORS
        for refinements in (0, 24):
            got = brute_force_min_error(priors, resolution, refinements)
            assert got == [reference_min_error(pr, resolution, refinements) for pr in priors]

    @pytest.mark.parametrize("resolution", [16, 37, 360])
    def test_max_confidence_batch_equals_reference(self, resolution):
        priors = _equivalence_priors()[:-1]  # (1, 0, 0) is a pure ensemble
        assert len(priors) % oracle._CHUNK_PRIORS
        states = [n % 3 for n in range(len(priors))]
        for refinements in (0, 24):
            got = brute_force_max_confidence(priors, states, resolution, refinements)
            assert got == [
                reference_max_confidence(pr, i, resolution, refinements)
                for pr, i in zip(priors, states)
            ]



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
        for _ in range(20):
            pr = random_priors(rng)
            analytic = optimal_measurement(pr).p_correct
            [res] = brute_force_min_error([pr], resolution=72, refinements=24)
            assert res.best_value == pytest.approx(analytic, abs=1e-6)

    def test_incumbent_is_a_valid_povm(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            pr = random_priors(rng)
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
        for _ in range(20):
            pr = random_priors(rng)
            if pr.p0 > 1.0 - 1e-6 or min(pr.canonical) < 1e-6:
                continue
            for i in range(3):
                [res] = brute_force_max_confidence([pr], [i], resolution=360, refinements=20)
                assert res.best_value == pytest.approx(
                    mc_confidence_closed_form(pr, i), abs=1e-7
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
    d, k0, k1, k2 = _planar_weights(*angles)
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
