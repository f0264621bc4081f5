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

numpy and the state-angle array are bound to module globals by the first
search, not at import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .trine import TRINE_ANGLES, Priors, mixed_e2

__all__ = [
    "OracleResult",
    "brute_force_min_error",
    "brute_force_max_confidence",
]

np = None  # numpy, bound by _bind_numpy
_STATE_ANGLES = None  # np.array(TRINE_ANGLES), bound by _bind_numpy
_LABEL_PAIRS = [(a, b) for a in range(3) for b in range(3) if a != b]
_DEGENERATE_TOL = 1e-12


def _bind_numpy() -> None:
    global np, _STATE_ANGLES
    if _STATE_ANGLES is None:
        import numpy as np

        _STATE_ANGLES = np.array(TRINE_ANGLES)


@dataclass(frozen=True)
class OracleResult:
    """Incumbent of a deterministic brute-force search."""

    best_value: float
    best_parameters: tuple[float, ...]
    family: str  # "projective" | "three_outcome" | "single_element"
    labels: Optional[tuple[int, ...]] = None


def _grid(resolution: int):
    """The search axis 2 pi k / resolution, k < resolution, and its step."""
    if resolution < 16:
        raise DomainError(f"resolution must be at least 16, got {resolution}")
    _bind_numpy()
    return 2.0 * np.pi * np.arange(resolution) / resolution, 2.0 * np.pi / resolution


def _cramer_weights(s21, s02, s10):
    """Weights closing sum k_j |t_j><t_j| = I, via Cramer's rule, from
    s21 = sin(t2 - t1), s02 = sin(t0 - t2) and s10 = sin(t1 - t0).

    Valid wherever the three directions are not collinear; returns the
    signed solution (negative entries mean no POVM exists there).
    """
    d = s21 + s02 + s10
    with np.errstate(divide="ignore", invalid="ignore"):
        k0 = 2.0 * s21 / d
        k1 = 2.0 * s02 / d
        k2 = 2.0 * s10 / d
    return d, k0, k1, k2


def _overlap_sq(state_angle, t):
    # |<psi(a)|psi(t)>|^2 for equator states
    return np.cos(0.5 * (state_angle - t)) ** 2


def _three_outcome_values(q, sines, overlaps):
    """Born success probability of the Cramer POVM; -inf where invalid.

    ``sines`` are those of :func:`_cramer_weights`; ``overlaps`` are
    |<psi_j|t_j>|^2 for j = 0, 1, 2.
    """
    d, k0, k1, k2 = _cramer_weights(*sines)
    c0, c1, c2 = overlaps
    with np.errstate(invalid="ignore"):
        value = q[0] * k0 * c0 + q[1] * k1 * c1 + q[2] * k2 * c2
    bad = (
        (np.abs(d) < _DEGENERATE_TOL)
        | (k0 < 0.0)
        | (k1 < 0.0)
        | (k2 < 0.0)
        | ~np.isfinite(value)
    )
    return np.where(bad, -np.inf, value)


def _angle_sines(t0, t1, t2):
    return np.sin(t2 - t1), np.sin(t0 - t2), np.sin(t1 - t0)


def _projective_values(q, pairs, t):
    """Born value of each labeled projective measurement at each angle.

    Pair (a, b) puts outcome a along angle t and outcome b antipodal to
    it; returns an (angles, pairs) array.
    """
    a, b = np.array(pairs).T
    c = _overlap_sq(_STATE_ANGLES[None, :], t[:, None])  # (n, 3)
    return q[a] * c[:, a] + q[b] * (1.0 - c[:, b])


def _refine(value_fn, starts, start_step, refinements):
    """Pattern search from each row of ``starts``: 5-point stencil per axis,
    halving the step; every start moves to its first best candidate.

    Returns the (m, ndim) final points and their values.
    """
    points = np.array(starts, dtype=float)
    m, ndim = points.shape
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    grids = np.meshgrid(*([offsets] * ndim), indexing="ij")
    stencil = np.stack([g.ravel() for g in grids], axis=-1)  # (5^ndim, ndim)
    rows = np.arange(m)
    step = start_step
    for _ in range(refinements):
        step *= 0.5
        candidates = points[:, None, :] + step * stencil  # (m, 5^ndim, ndim)
        values = value_fn(candidates.reshape(-1, ndim)).reshape(m, -1)
        points = candidates[rows, np.argmax(values, axis=1)]
    return points, value_fn(points)


def brute_force_min_error(
    priors: Priors, resolution: int = 72, refinements: int = 24
) -> OracleResult:
    """Maximize Born success probability over both measurement families.

    Grid search at ``resolution`` points per angle, then ``refinements``
    step-halving local refinements around the incumbent.  Fully
    deterministic; ties go to the lexicographically smallest parameters.
    The defaults, 72 points and 24 refinements, are what ``verify`` runs.
    """
    grid, step = _grid(resolution)
    q = np.asarray(priors.canonical)

    # projective family; the first angle-major maximum wins ties
    i_best, pair = divmod(
        int(np.argmax(_projective_values(q, _LABEL_PAIRS, grid))), len(_LABEL_PAIRS)
    )
    labels = _LABEL_PAIRS[pair]

    def proj_fn(pts):
        return _projective_values(q, [labels], pts[:, 0])[:, 0]

    (proj_point,), (proj_value,) = _refine(proj_fn, [[grid[i_best]]], step, refinements)

    # three-outcome family, one t0 = grid[a] slice at a time, every input
    # read from per-call tables: sin(t2 - t1) is sd.T, sin(t0 - t2) the row
    # sd[a] and sin(t1 - t0) the row sd.T[a]
    sd = np.sin(grid[:, None] - grid[None, :])
    sd_t = np.ascontiguousarray(sd.T)
    overlap0 = _overlap_sq(_STATE_ANGLES[0], grid)
    overlap1 = _overlap_sq(_STATE_ANGLES[1], grid)[:, None]
    overlap2 = _overlap_sq(_STATE_ANGLES[2], grid)
    # the valid region can be thin near its boundary, so keep the best
    # candidate from every t0 slice and refine the strongest few of them
    slice_best = []
    for a in range(resolution):
        vals = _three_outcome_values(
            q, (sd_t, sd[a], sd_t[a][:, None]), (overlap0[a], overlap1, overlap2)
        )
        j = int(np.argmax(vals))
        v = vals.flat[j]
        if np.isfinite(v):
            i1, i2 = divmod(j, resolution)
            slice_best.append((float(v), (grid[a], grid[i1], grid[i2])))

    tri_point, tri_value = None, -np.inf
    if slice_best:

        def triple_fn(pts):
            t = pts.T
            return _three_outcome_values(
                q, _angle_sines(*t), _overlap_sq(_STATE_ANGLES[:, None], t)
            )

        # stable sort: ties keep slice order, and the first strongest
        # refined start wins
        slice_best.sort(key=lambda pair: -pair[0])
        starts = [start for _, start in slice_best[:8]]
        points, values = _refine(triple_fn, starts, step, refinements)
        k = int(np.argmax(values))
        tri_point, tri_value = points[k], float(values[k])

    if tri_value > proj_value:
        return OracleResult(
            best_value=tri_value,
            best_parameters=tuple(float(t) for t in tri_point),
            family="three_outcome",
            labels=(0, 1, 2),
        )
    return OracleResult(
        best_value=float(proj_value),
        best_parameters=(float(proj_point[0]),),
        family="projective",
        labels=labels,
    )


def brute_force_max_confidence(
    priors: Priors, i: int, resolution: int = 360, refinements: int = 24
) -> OracleResult:
    """Maximize the Bayes posterior for state ``i`` over rank-1 elements.

    Confidence is scale invariant, so a single equatorial angle is the
    whole parameter space, searched as in :func:`brute_force_min_error`.
    ``i`` indexes the caller's original state order.  The defaults, 360
    points and 24 refinements, are what ``verify`` runs.
    """
    grid, step = _grid(resolution)
    mixed_e2(priors)  # the posterior needs a mixed ensemble density
    q = np.asarray(priors.original)

    def conf_fn(pts):
        t = pts[:, 0]
        c = _overlap_sq(_STATE_ANGLES[:, None], t[None, :])
        denom = q[0] * c[0] + q[1] * c[1] + q[2] * c[2]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = q[i] * c[i] / denom
        return np.where(denom > 1e-14, out, -np.inf)

    values = conf_fn(grid[:, None])
    i_best = int(np.argmax(values))
    (point,), (value,) = _refine(conf_fn, [[grid[i_best]]], step, refinements)
    return OracleResult(
        best_value=float(value),
        best_parameters=(float(point[0]),),
        family="single_element",
        labels=(i,),
    )
