"""Brute-force grid search over explicitly parameterized POVM families.

The independent reference the tests compare the closed forms, and the
certificates of :mod:`trinedisc.oracle`, against: a deterministic grid
search with local refinement that uses none of the closed forms.  Success
probabilities come straight from the Born rule on the searched
measurement.

Three-outcome family: outcome directions at equator angles
(t0, t1, t2); the weights are the unique solution of the completeness
constraint, so every search point is an exact POVM (parameter sets
yielding negative weights are discarded).  Two-outcome family:
projective equatorial measurements with the best assignment of outcome
labels to states.

Each prior is searched on its own, one t0 slice of the three-outcome
grid at a time, so working memory is of order r^2 floats at resolution r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from trinedisc.errors import DomainError
from trinedisc.trine import _TRINE_ANGLES, Priors, mixed_e2

_STATE_ANGLES = np.array(_TRINE_ANGLES)
_LABEL_PAIRS = [(a, b) for a in range(3) for b in range(3) if a != b]
_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class OracleResult:
    """Incumbent of a deterministic brute-force search."""

    best_value: float
    best_parameters: tuple[float, ...]
    family: str  # "projective" | "three_outcome" | "single_element"
    labels: tuple[int, ...]


def _grid(resolution: int):
    """The search axis 2 pi k / resolution, k < resolution, and its step."""
    if resolution < 16:
        raise DomainError(f"resolution must be at least 16, got {resolution}")
    return 2.0 * np.pi * np.arange(resolution) / resolution, 2.0 * np.pi / resolution


def planar_weights(t0, t1, t2):
    """Determinant d and weights (k0, k1, k2) closing
    sum k_j |t_j><t_j| = I for equator directions t0, t1 and t2, via
    Cramer's rule; a POVM only where |d| is not tiny and no weight is
    negative."""
    s21, s02, s10 = np.sin(t2 - t1), np.sin(t0 - t2), np.sin(t1 - t0)
    d = s21 + s02 + s10
    with np.errstate(divide="ignore", invalid="ignore"):
        k0 = 2.0 * s21 / d
        k1 = 2.0 * s02 / d
        k2 = 2.0 * s10 / d
    return d, k0, k1, k2


def _overlap_sq(state_angle, t):
    # |<psi(a)|psi(t)>|^2 for equator states
    return np.cos(0.5 * (state_angle - t)) ** 2


def _three_outcome_values(q, t0, t1, t2):
    """Born value of the Cramer POVM at (t0, t1, t2); -inf where it is no
    POVM or the value is not finite."""
    d, k0, k1, k2 = planar_weights(t0, t1, t2)
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


def _refine(value_fn, incumbent, start_step, refinements):
    """Pattern search from ``incumbent``: 5-point stencil per axis, halving
    the step, moving to the first best candidate in row-major order.

    ``value_fn`` takes an (n, ndim) array of points and returns their
    values.  Returns the final point and its value.
    """
    point = np.asarray(incumbent, dtype=float)
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    grids = np.meshgrid(*([offsets] * point.size), indexing="ij")
    stencil = np.stack([g.ravel() for g in grids], axis=-1)
    step = start_step
    for _ in range(refinements):
        step *= 0.5
        candidates = point[None, :] + step * stencil
        point = candidates[int(np.argmax(value_fn(candidates)))]
    return point, float(value_fn(point[None, :])[0])


def _slice_starts(q, grid):
    """Best point of every t0 slice of the three-outcome grid, with its
    value, strongest first; ties keep slice order."""
    t1g, t2g = np.meshgrid(grid, grid, indexing="ij")
    starts = []
    for t0 in grid:
        vals = _three_outcome_values(q, t0, t1g, t2g)
        j = int(np.argmax(vals))
        if np.isfinite(vals.flat[j]):
            starts.append((float(vals.flat[j]), (t0, t1g.flat[j], t2g.flat[j])))
    starts.sort(key=lambda pair: -pair[0])
    return starts


def brute_force_min_error(
    priors: Sequence[Priors], resolution: int = 72, refinements: int = 24
) -> list[OracleResult]:
    """Maximize Born success probability over both measurement families
    for each of ``priors``; one result per prior, in order.

    Grid search at ``resolution`` points per angle, then ``refinements``
    step-halving local refinements; the defaults are 72 and 24.
    Deterministic.  Projective ties go to the first maximum in angle-major
    order over (angle, label pair).  The best point of each three-outcome
    t0 slice is a start; the eight strongest are refined, ties in t0
    order, and the first best wins; it is returned only when strictly
    above the projective result.
    """
    q = [p.canonical for p in priors]
    grid, step = _grid(resolution)
    return [_min_error(qn, grid, step, refinements) for qn in q]


def _min_error(q, grid, step, refinements):
    """:func:`brute_force_min_error` for the canonical triple ``q``."""
    c = _overlap_sq(_STATE_ANGLES[:, None], grid[None, :])
    best = np.full(grid.shape, -np.inf)
    best_pair = np.zeros(grid.shape, dtype=int)
    for idx, (a, b) in enumerate(_LABEL_PAIRS):
        v = q[a] * c[a] + q[b] * (1.0 - c[b])
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
    for _, start in _slice_starts(q, grid)[:8]:
        point, value = _refine(triple_fn, start, step, refinements)
        if value > tri_value:
            tri_point, tri_value = point, value
    if tri_value > proj_value:
        return OracleResult(
            tri_value, tuple(float(t) for t in tri_point), "three_outcome", (0, 1, 2)
        )
    return OracleResult(proj_value, (float(proj_point[0]),), "projective", labels)


def brute_force_max_confidence(
    priors: Sequence[Priors], states: Sequence[int],
    resolution: int = 360, refinements: int = 24,
) -> list[OracleResult]:
    """Maximize the Bayes posterior for ``states[n]``, an index in the
    caller's original order, over rank-1 elements for each ``priors[n]``;
    one result per prior, in order.

    Confidence is scale invariant, so a single equatorial angle is the
    whole parameter space, searched as in :func:`brute_force_min_error`.
    The defaults are 360 points and 24 refinements.
    """
    q = [p.original for p in priors]
    if len(states) != len(q):
        raise DomainError(f"{len(q)} prior triples but {len(states)} states")
    for p in priors:
        mixed_e2(p)  # the posterior needs a mixed ensemble density
    grid, step = _grid(resolution)
    return [_max_confidence(qn, i, grid, step, refinements) for qn, i in zip(q, states)]


def _max_confidence(q, i, grid, step, refinements):
    """:func:`brute_force_max_confidence` for the original-order triple
    ``q`` and state ``i``."""

    def conf_fn(pts):
        c = _overlap_sq(_STATE_ANGLES[:, None], pts[:, 0][None, :])
        denom = q[0] * c[0] + q[1] * c[1] + q[2] * c[2]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = q[i] * c[i] / denom
        return np.where(denom > 1e-14, out, -np.inf)

    i_best = int(np.argmax(conf_fn(grid[:, None])))
    point, value = _refine(conf_fn, [grid[i_best]], step, refinements)
    return OracleResult(value, (float(point[0]),), "single_element", (i,))
