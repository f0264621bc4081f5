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
quarter of the r^3 grid: 6.5 bytes per grid point (2.4 MB at r = 72,
0.3 GB at r = 360), cached until a search at another resolution replaces
it.  Both oracles search a sequence of priors in lockstep, 16 at a time,
so each numpy call serves a chunk and working memory does not grow with
the sequence.  Refinement evaluates sines and overlaps once per axis
value of its stencil, not once per stencil point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

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
#: Priors searched in lockstep, which bounds a search's working memory
#: whatever the number of priors
_CHUNK_PRIORS = 16


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
    labels: tuple[int, ...]


def _grid(resolution: int):
    """The search axis 2 pi k / resolution, k < resolution, and its step."""
    if resolution < 16:
        raise DomainError(f"resolution must be at least 16, got {resolution}")
    _bind_numpy()
    return 2.0 * np.pi * np.arange(resolution) / resolution, 2.0 * np.pi / resolution


def _cramer_weights(s21, s02, s10):
    """Weights closing sum k_j |t_j><t_j| = I, via Cramer's rule, from
    s21 = sin(t2 - t1), s02 = sin(t0 - t2) and s10 = sin(t1 - t0).

    Returns where they are a POVM (no collinear directions, no negative
    weight) and the signed weights (k0, k1, k2).
    """
    d = s21 + s02 + s10
    with np.errstate(divide="ignore", invalid="ignore"):
        k0 = 2.0 * s21 / d
        k1 = 2.0 * s02 / d
        k2 = 2.0 * s10 / d
    invalid = (np.abs(d) < _DEGENERATE_TOL) | (k0 < 0.0) | (k1 < 0.0) | (k2 < 0.0)
    return ~invalid, (k0, k1, k2)


def _overlap_sq(state_angle, t):
    # |<psi(a)|psi(t)>|^2 for equator states
    return np.cos(0.5 * (state_angle - t)) ** 2


def _born_value(q, weights, overlaps):
    """Born success probability of the Cramer POVM with ``weights`` k0, k1
    and k2 and ``overlaps`` |<psi_j|t_j>|^2 for j = 0, 1, 2."""
    k0, k1, k2 = weights
    c0, c1, c2 = overlaps
    return q[0] * k0 * c0 + q[1] * k1 * c1 + q[2] * k2 * c2


def _three_outcome_values(q, sines, overlaps):
    """Born value of the Cramer POVM of ``sines``, as :func:`_cramer_weights`
    takes them; -inf where it is no POVM or the value is not finite."""
    valid, weights = _cramer_weights(*sines)
    with np.errstate(invalid="ignore"):
        value = _born_value(q, weights, overlaps)
    return np.where(valid & np.isfinite(value), value, -np.inf)


@functools.lru_cache(maxsize=1)
def _three_outcome_table(resolution: int):
    """The valid points of the three-outcome grid, which do not depend on
    the priors.

    Points offsets[a] to offsets[a + 1] are the t0 = grid[a] slice in
    (t1, t2) order: their (2, n) axis indices of t1 and t2 and their
    (3, n) weights k0, k1 and k2.  Every slice holds valid points: three
    directions with every gap under half a turn close to a POVM.
    """
    grid, _ = _grid(resolution)
    # sin(t2 - t1) is sd.T, sin(t0 - t2) the row sd[a] and sin(t1 - t0)
    # the row sd.T[a]
    sd = np.sin(grid[:, None] - grid[None, :])
    sd_t = np.ascontiguousarray(sd.T)

    def slice_weights(a):
        return _cramer_weights(sd_t, sd[a], sd_t[a][:, None])

    # count first, so that only the table is ever held in full
    counts = [np.count_nonzero(slice_weights(a)[0]) for a in range(resolution)]
    offsets = np.cumsum([0] + counts)
    indices = np.empty((2, offsets[-1]), np.min_scalar_type(resolution - 1))
    weights = np.empty((3, offsets[-1]))
    for a in range(resolution):
        valid, k = slice_weights(a)
        points = slice(offsets[a], offsets[a + 1])
        indices[:, points] = np.nonzero(valid)
        weights[:, points] = [kj[valid] for kj in k]
    # every later search shares these arrays
    offsets.flags.writeable = indices.flags.writeable = weights.flags.writeable = False
    return offsets, indices, weights


def _projective_values(q, t):
    """Born value of each labeled projective measurement at each angle.

    Pair (a, b) of ``_LABEL_PAIRS`` puts outcome a along angle t and outcome
    b antipodal to it.  ``q`` holds m prior triples and ``t`` is (m or 1, n);
    returns an (m, n, pairs) array.
    """
    a, b = np.array(_LABEL_PAIRS).T
    c = _overlap_sq(_STATE_ANGLES, t[..., None])  # (m or 1, n, 3)
    q = q[:, None, :]
    return q[..., a] * c[..., a] + q[..., b] * (1.0 - c[..., b])


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


def _in_chunks(search_chunk, resolution, refinements, q, *per_prior):
    """``search_chunk`` on ``_CHUNK_PRIORS`` of the prior triples ``q`` at
    a time, as an (m, 3) array, with the same slice of each ``per_prior``
    sequence; returns all the results in order."""
    grid, step = _grid(resolution)
    results = []
    for c in range(0, len(q), _CHUNK_PRIORS):
        chunk = slice(c, c + _CHUNK_PRIORS)
        args = (x[chunk] for x in per_prior)
        results += search_chunk(np.array(q[chunk]), *args, grid, step, refinements)
    return results


def brute_force_min_error(
    priors: Sequence[Priors], resolution: int = 72, refinements: int = 24
) -> list[OracleResult]:
    """Maximize Born success probability over both measurement families
    for each of ``priors``; one result per prior, in order.

    Grid search at ``resolution`` points per angle, then ``refinements``
    step-halving local refinements; the defaults, 72 and 24, are what
    ``verify`` runs.  The grid table stays cached for the process: about
    6.5 bytes per grid point (r^3), 2.4 MB at r = 72, 0.3 GB at r = 360.
    Deterministic.  Projective ties go to the first maximum in angle-major
    order over (angle, label pair).  Three-outcome t0 slices are ranked by
    value, ties in t0 order, each offering its first best point in (t1, t2)
    order, and the first best of the eight refined starts wins; it is
    returned only when strictly above the projective result.
    """
    q = [p.canonical for p in priors]
    return _in_chunks(_min_error_chunk, resolution, refinements, q)


def _min_error_chunk(q, grid, step, refinements):
    """:func:`brute_force_min_error` for each row of the (m, 3) canonical
    triples ``q``, all searched in lockstep."""
    m, resolution = len(q), grid.size

    # projective family; each prior's first angle-major maximum wins ties
    i_best, pair = np.divmod(
        np.argmax(_projective_values(q, grid[None, :]).reshape(m, -1), axis=1),
        len(_LABEL_PAIRS),
    )

    def proj_fn(coords):
        return _projective_values(q, coords[:, 0])[np.arange(m), :, pair]

    proj_points, proj_values = _refine(proj_fn, grid[i_best, None], step, refinements)

    # three-outcome family over the valid grid points only, a t0 slice for
    # every prior at a time; the valid region can be thin near its
    # boundary, so keep the first best candidate from every slice and
    # refine the strongest few of each prior
    offsets, (i1, i2), weights = _three_outcome_table(resolution)
    c0, c1, c2 = _overlap_sq(_STATE_ANGLES[:, None], grid)
    qc = q.T[:, :, None]
    slice_best = np.empty((m, resolution), dtype=int)
    slice_value = np.empty((m, resolution))
    for a in range(resolution):
        points = slice(offsets[a], offsets[a + 1])
        overlaps = (c0[a], c1.take(i1[points]), c2.take(i2[points]))
        vals = _born_value(qc, weights[:, points], overlaps)
        j = np.argmax(vals, axis=1)
        slice_best[:, a] = offsets[a] + j
        slice_value[:, a] = vals[np.arange(m), j]

    # every slice holds valid points, so each prior has eight starts;
    # stable sort: ties keep slice order, and the first strongest refined
    # start wins
    a = np.argsort(-slice_value, axis=1, kind="stable")[:, :8]
    best = np.take_along_axis(slice_best, a, 1)
    starts = np.stack([grid[a], grid[i1[best]], grid[i2[best]]], axis=2)
    qr = np.repeat(q, a.shape[1], axis=0).T[:, :, None, None, None]

    def triple_fn(coords):
        # rows 0, 1 and 2 of each (3, n) block on the three axes of an
        # (m, n, n, n) product grid
        axes = np.s_[:, 0, :, None, None], np.s_[:, 1, None, :, None], np.s_[:, 2, None, None, :]
        t0, t1, t2 = (coords[j] for j in axes)
        c = _overlap_sq(_STATE_ANGLES[:, None], coords)
        sines = np.sin(t2 - t1), np.sin(t0 - t2), np.sin(t1 - t0)
        return _three_outcome_values(qr, sines, tuple(c[j] for j in axes))

    tri_points, tri_values = _refine(triple_fn, starts.reshape(-1, 3), step, refinements)
    tri_points, tri_values = tri_points.reshape(starts.shape), tri_values.reshape(a.shape)
    k = np.argmax(tri_values, axis=1)
    return [
        OracleResult(float(tri_values[p, k[p]]), tuple(tri_points[p, k[p]].tolist()),
                     "three_outcome", (0, 1, 2))
        if tri_values[p, k[p]] > proj_values[p] else
        OracleResult(float(proj_values[p]), (float(proj_points[p, 0]),),
                     "projective", _LABEL_PAIRS[pair[p]])
        for p in range(m)
    ]


def brute_force_max_confidence(
    priors: Sequence[Priors], states: Sequence[int],
    resolution: int = 360, refinements: int = 24,
) -> list[OracleResult]:
    """Maximize the Bayes posterior for ``states[n]``, an index in the
    caller's original order, over rank-1 elements for each ``priors[n]``;
    one result per prior, in order.

    Confidence is scale invariant, so a single equatorial angle is the
    whole parameter space, searched as in :func:`brute_force_min_error`.
    The defaults, 360 points and 24 refinements, are what ``verify`` runs.
    """
    q = [p.original for p in priors]
    if len(states) != len(q):
        raise DomainError(f"{len(q)} prior triples but {len(states)} states")
    for p in priors:
        mixed_e2(p)  # the posterior needs a mixed ensemble density
    return _in_chunks(_max_confidence_chunk, resolution, refinements, q, states)


def _max_confidence_chunk(q, states, grid, step, refinements):
    """:func:`brute_force_max_confidence` for each row of the (m, 3)
    original-order triples ``q`` and its state, all searched in lockstep."""
    rows = np.arange(len(q))
    qc, qi = q.T[:, :, None], q[rows, states, None]

    def conf_fn(coords):
        c = _overlap_sq(_STATE_ANGLES[:, None, None], coords[:, 0])
        denom = qc[0] * c[0] + qc[1] * c[1] + qc[2] * c[2]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = qi * c[states, rows] / denom
        return np.where(denom > 1e-14, out, -np.inf)

    i_best = np.argmax(conf_fn(np.broadcast_to(grid, (rows.size, 1, grid.size))), axis=1)
    points, values = _refine(conf_fn, grid[i_best, None], step, refinements)
    return [
        OracleResult(float(value), (float(point),), "single_element", (state,))
        for value, point, state in zip(values, points[:, 0], states)
    ]
