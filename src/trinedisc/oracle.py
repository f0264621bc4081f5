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
search, not at import.  The three-outcome grid's Cramer weights and
validity mask do not depend on the priors, so the first min-error search
at a resolution builds them and keeps only the valid points, about a
quarter of the r^3 grid.  The table holds about 7 bytes per grid point
(2.5 MB at r = 72) and is cached until a search at another resolution
replaces it.  Refinement evaluates sines and overlaps once per axis value
of its stencil, not once per stencil point.
"""

from __future__ import annotations

import functools
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
#: Grid points per block of the three-outcome search, few enough that the
#: block's temporaries stay in cache
_BLOCK_POINTS = 8192


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


def _invalid_weights(d, k0, k1, k2):
    """Where the Cramer solution is no POVM: collinear directions or a
    negative weight."""
    return (np.abs(d) < _DEGENERATE_TOL) | (k0 < 0.0) | (k1 < 0.0) | (k2 < 0.0)


def _born_value(q, weights, overlaps):
    """Born success probability of the Cramer POVM; -inf where not finite.

    ``weights`` are k0, k1 and k2; ``overlaps`` are |<psi_j|t_j>|^2 for
    j = 0, 1, 2.
    """
    k0, k1, k2 = weights
    c0, c1, c2 = overlaps
    with np.errstate(invalid="ignore"):
        value = q[0] * k0 * c0 + q[1] * k1 * c1 + q[2] * k2 * c2
    return np.where(np.isfinite(value), value, -np.inf)


def _three_outcome_values(q, sines, overlaps):
    """Born success probability of the Cramer POVM; -inf where invalid.

    ``sines`` are those of :func:`_cramer_weights`.
    """
    d, *weights = _cramer_weights(*sines)
    return np.where(_invalid_weights(d, *weights), -np.inf, _born_value(q, weights, overlaps))


@functools.lru_cache(maxsize=1)
def _three_outcome_table(resolution: int):
    """The valid points of the three-outcome grid, which do not depend on
    the priors.

    Row a holds the t0 = grid[a] slice in (t1, t2) order: the (2, r, w)
    axis indices of t1 and t2 and the (3, r, w) weights k0, k1 and k2.
    Rows are padded to the longest with index 0 and NaN weights, whose
    Born value is not finite.
    """
    grid, _ = _grid(resolution)
    # sin(t2 - t1) is sd.T, sin(t0 - t2) the row sd[a] and sin(t1 - t0)
    # the row sd.T[a]
    sd = np.sin(grid[:, None] - grid[None, :])
    sd_t = np.ascontiguousarray(sd.T)

    def slice_weights(a):
        d, *k = _cramer_weights(sd_t, sd[a], sd_t[a][:, None])
        return ~_invalid_weights(d, *k), k

    # count first, so that only the padded table is ever held in full
    counts = [np.count_nonzero(slice_weights(a)[0]) for a in range(resolution)]
    width = max(counts)
    indices = np.zeros((2, resolution, width), np.min_scalar_type(resolution - 1))
    weights = np.full((3, resolution, width), np.nan)
    for a, n in enumerate(counts):
        valid, k = slice_weights(a)
        indices[:, a, :n] = np.nonzero(valid)
        weights[:, a, :n] = [kj[valid] for kj in k]
    # every later search shares these arrays
    indices.flags.writeable = weights.flags.writeable = False
    return indices, weights


def _product_axes(x):
    """Rows 0, 1 and 2 of each (3, n) block of ``x`` on the three axes of
    an (m, n, n, n) product grid."""
    return x[:, 0, :, None, None], x[:, 1, None, :, None], x[:, 2, None, None, :]


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

    ``value_fn`` takes (m, ndim, n) per-axis coordinates and returns the
    values of all n^ndim points of each row's product grid, in row-major
    order over the axes.  Returns the (m, ndim) final points and their
    values.
    """
    points = np.array(starts, dtype=float)
    m, ndim = points.shape
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    # the offset index along each axis of every candidate, row-major
    stencil = np.indices((offsets.size,) * ndim).reshape(ndim, -1).T  # (5^ndim, ndim)
    rows, axes = np.arange(m)[:, None], np.arange(ndim)
    step = start_step
    for _ in range(refinements):
        step *= 0.5
        coords = points[:, :, None] + step * offsets  # (m, ndim, 5)
        values = value_fn(coords).reshape(m, -1)
        points = coords[rows, axes, stencil[np.argmax(values, axis=1)]]
    return points, value_fn(points[:, :, None]).reshape(m)


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

    def proj_fn(coords):
        return _projective_values(q, [labels], coords.ravel())[:, 0]

    (proj_point,), (proj_value,) = _refine(proj_fn, [[grid[i_best]]], step, refinements)

    # three-outcome family over the valid grid points only, a block of t0
    # slices at a time; the valid region can be thin near its boundary, so
    # keep the first best candidate from every slice and refine the
    # strongest few of them
    (i1, i2), weights = _three_outcome_table(resolution)
    c0, c1, c2 = _overlap_sq(_STATE_ANGLES[:, None], grid)
    block = max(1, _BLOCK_POINTS // i1.shape[1])
    slice_j = np.empty(resolution, dtype=int)
    slice_value = np.empty(resolution)
    for a0 in range(0, resolution, block):
        rows = slice(a0, a0 + block)
        vals = _born_value(
            q, weights[:, rows], (c0[rows, None], c1.take(i1[rows]), c2.take(i2[rows]))
        )
        slice_j[rows] = j = np.argmax(vals, axis=1)
        slice_value[rows] = vals[np.arange(j.size), j]
    found = np.flatnonzero(np.isfinite(slice_value))

    tri_point, tri_value = None, -np.inf
    if found.size:

        def triple_fn(coords):
            t = _product_axes(coords)
            overlaps = _product_axes(_overlap_sq(_STATE_ANGLES[:, None], coords))
            return _three_outcome_values(q, _angle_sines(*t), overlaps)

        # stable sort: ties keep slice order, and the first strongest
        # refined start wins
        a = found[np.argsort(-slice_value[found], kind="stable")[:8]]
        j = slice_j[a]
        starts = np.stack([grid[a], grid[i1[a, j]], grid[i2[a, j]]], axis=1)
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

    def conf_fn(coords):
        t = coords.ravel()
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
