"""Brute-force verification oracles.

Deterministic grid search with local refinement over explicitly
parameterized POVM families.  Nothing here uses the closed forms being
checked: success probabilities come straight from the Born rule on the
searched measurement.

Three-outcome family: outcome directions at equator angles
(t0, t1, t2); the weights are the unique solution of the completeness
constraint, so every search point is an exact POVM (parameter sets
yielding negative weights are discarded).  Two-outcome family:
projective equatorial measurements with the best assignment of outcome
labels to states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, PureStateError
from .qubit import Measurement, equator_element
from .trine import TRINE_ANGLES, Priors, ensemble_density

__all__ = [
    "OracleResult",
    "brute_force_min_error",
    "brute_force_max_confidence",
    "measurement_from_parameters",
    "random_planar_povm",
]

_STATE_ANGLES = np.array(TRINE_ANGLES)
_LABEL_PAIRS = [(a, b) for a in range(3) for b in range(3) if a != b]
_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class OracleResult:
    """Incumbent of a deterministic brute-force search."""

    best_value: float
    best_parameters: tuple[float, ...]
    grid_resolution: int
    refinement_depth: int
    family: str  # "projective" | "three_outcome" | "single_element"
    labels: Optional[tuple[int, ...]] = None


def _planar_weights(t0, t1, t2):
    """Weights closing sum k_j |t_j><t_j| = I, via Cramer's rule.

    Valid wherever the three directions are not collinear; returns the
    signed solution (negative entries mean no POVM exists there).
    """
    d = np.sin(t2 - t1) + np.sin(t0 - t2) + np.sin(t1 - t0)
    with np.errstate(divide="ignore", invalid="ignore"):
        k0 = 2.0 * np.sin(t2 - t1) / d
        k1 = 2.0 * np.sin(t0 - t2) / d
        k2 = 2.0 * np.sin(t1 - t0) / d
    return d, k0, k1, k2


def _overlap_sq(state_angle, t):
    # |<psi(a)|psi(t)>|^2 for equator states
    return np.cos(0.5 * (state_angle - t)) ** 2


def _three_outcome_values(q, t0, t1, t2):
    """Born success probability at each angle triple; -inf where invalid."""
    d, k0, k1, k2 = _planar_weights(t0, t1, t2)
    with np.errstate(invalid="ignore"):
        value = (
            q[0] * k0 * _overlap_sq(_STATE_ANGLES[0], t0)
            + q[1] * k1 * _overlap_sq(_STATE_ANGLES[1], t1)
            + q[2] * k2 * _overlap_sq(_STATE_ANGLES[2], t2)
        )
    bad = (
        (np.abs(d) < _DEGENERATE_TOL)
        | (k0 < 0.0)
        | (k1 < 0.0)
        | (k2 < 0.0)
        | ~np.isfinite(value)
    )
    return np.where(bad, -np.inf, value)


def _projective_values(q, thetas):
    """Best-labeled projective value at each angle; also the labeling."""
    c = _overlap_sq(_STATE_ANGLES[:, None], thetas[None, :])  # (3, n)
    c_flip = 1.0 - c  # overlap with the antipodal outcome
    best = np.full(thetas.shape, -np.inf)
    best_pair = np.zeros(thetas.shape, dtype=int)
    for idx, (a, b) in enumerate(_LABEL_PAIRS):
        v = q[a] * c[a] + q[b] * c_flip[b]
        improve = v > best
        best = np.where(improve, v, best)
        best_pair = np.where(improve, idx, best_pair)
    return best, best_pair


def _refine(value_fn, incumbent, start_step, refinements):
    """Pattern search: 5-point stencil per axis, halving the step."""
    point = np.asarray(incumbent, dtype=float)
    ndim = point.size
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    grids = np.meshgrid(*([offsets] * ndim), indexing="ij")
    stencil = np.stack([g.ravel() for g in grids], axis=-1)  # (5^ndim, ndim)
    step = start_step
    for _ in range(refinements):
        step *= 0.5
        candidates = point[None, :] + step * stencil
        values = value_fn(candidates)
        best = int(np.argmax(values))
        point = candidates[best]
    return point, float(value_fn(point[None, :])[0])


def brute_force_min_error(
    priors: Priors, resolution: int = 360, refinements: int = 20
) -> OracleResult:
    """Maximize Born success probability over both measurement families.

    Grid search at ``resolution`` points per angle, then ``refinements``
    step-halving local refinements around the incumbent.  Fully
    deterministic; ties go to the lexicographically smallest parameters.
    """
    if resolution < 16:
        raise DomainError(f"resolution must be at least 16, got {resolution}")
    q = np.asarray(priors.canonical)
    grid = 2.0 * np.pi * np.arange(resolution) / resolution
    step = 2.0 * np.pi / resolution

    # projective family
    values, pairs = _projective_values(q, grid)
    i_best = int(np.argmax(values))
    labels = _LABEL_PAIRS[pairs[i_best]]

    def proj_fn(pts):
        a, b = labels
        t = pts[:, 0]
        return q[a] * _overlap_sq(_STATE_ANGLES[a], t) + q[b] * (
            1.0 - _overlap_sq(_STATE_ANGLES[b], t)
        )

    proj_point, proj_value = _refine(proj_fn, [grid[i_best]], step, refinements)

    # three-outcome family, chunked over the first angle to bound memory;
    # the valid region can be thin near its boundary, so keep the best
    # candidate from every t0 slice and refine the strongest few of them
    t1g, t2g = np.meshgrid(grid, grid, indexing="ij")
    slice_best = []
    for t0 in grid:
        vals = _three_outcome_values(q, t0, t1g, t2g)
        j = int(np.argmax(vals))
        v = vals.flat[j]
        if np.isfinite(v):
            slice_best.append((float(v), (t0, t1g.flat[j], t2g.flat[j])))

    tri_point, tri_value = None, -np.inf
    if slice_best:

        def triple_fn(pts):
            return _three_outcome_values(q, pts[:, 0], pts[:, 1], pts[:, 2])

        slice_best.sort(key=lambda pair: -pair[0])
        for _, start in slice_best[:8]:
            point, value = _refine(triple_fn, start, step, refinements)
            if value > tri_value:
                tri_point, tri_value = point, value

    if tri_value > proj_value:
        return OracleResult(
            best_value=tri_value,
            best_parameters=tuple(float(t) for t in tri_point),
            grid_resolution=resolution,
            refinement_depth=refinements,
            family="three_outcome",
            labels=(0, 1, 2),
        )
    return OracleResult(
        best_value=proj_value,
        best_parameters=(float(proj_point[0]),),
        grid_resolution=resolution,
        refinement_depth=refinements,
        family="projective",
        labels=labels,
    )


def brute_force_max_confidence(
    priors: Priors, i: int, resolution: int = 360, refinements: int = 20
) -> OracleResult:
    """Maximize the Bayes posterior for state ``i`` over rank-1 elements.

    Confidence is scale invariant, so a single equatorial angle is the
    whole parameter space.  ``i`` indexes the caller's original state
    order.
    """
    if resolution < 16:
        raise DomainError(f"resolution must be at least 16, got {resolution}")
    q = np.asarray(priors.original)
    rho = ensemble_density(q)
    if float(np.trace(rho @ rho).real) >= 1.0 - 1e-9:
        raise PureStateError("confidence oracle needs a mixed ensemble density")

    def conf_fn(pts):
        t = pts[:, 0]
        c = _overlap_sq(_STATE_ANGLES[:, None], t[None, :])
        denom = q[0] * c[0] + q[1] * c[1] + q[2] * c[2]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = q[i] * c[i] / denom
        return np.where(denom > 1e-14, out, -np.inf)

    grid = 2.0 * np.pi * np.arange(resolution) / resolution
    values = conf_fn(grid[:, None])
    i_best = int(np.argmax(values))
    point, value = _refine(
        conf_fn, [grid[i_best]], 2.0 * np.pi / resolution, refinements
    )
    return OracleResult(
        best_value=value,
        best_parameters=(float(point[0]),),
        grid_resolution=resolution,
        refinement_depth=refinements,
        family="single_element",
        labels=(i,),
    )


def measurement_from_parameters(result: OracleResult) -> Measurement:
    """Rebuild the POVM behind an oracle incumbent (for validation)."""
    if result.family == "projective":
        t = result.best_parameters[0]
        a, b = result.labels
        return Measurement(
            ((a, equator_element(1.0, t)), (b, equator_element(1.0, t + math.pi)))
        )
    if result.family == "three_outcome":
        t0, t1, t2 = result.best_parameters
        _, k0, k1, k2 = _planar_weights(t0, t1, t2)
        return Measurement(
            (j, equator_element(float(k), t))
            for j, (k, t) in enumerate(((k0, t0), (k1, t1), (k2, t2)))
        )
    if result.family == "single_element":
        t = result.best_parameters[0]
        return Measurement(((result.labels[0], equator_element(1.0, t)),))
    raise DomainError(f"unknown oracle family {result.family!r}")


def random_planar_povm(rng: np.random.Generator):
    """Three rank-1 outcomes in a random tilted plane through the origin.

    Used as an off-equator spot check that restricting the search to the
    equator plane loses nothing.  Returns a list of (weight, bloch_dir)
    pairs, or None when the sampled angles give negative weights.
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
