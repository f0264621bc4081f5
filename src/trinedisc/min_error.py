"""Minimum-error discrimination of the trine ensemble, in closed form.

Two-outcome branch: a projective measurement in the equator plane at an
angle fixed by the ratio of the two largest priors.  Three-outcome
branch: the Lagrangian operator Gamma is solved from a 3x3 linear system
in its inverse-Bloch components, and each POVM element points against the
Bloch vector of the rank-1 operator Gamma - p_j rho_j.  The sign of the
boundary determinant det M, a difference of two nonnegative terms in
canonical order, decides which branch is globally optimal, and every
dispatched measurement is re-verified against the Helstrom
optimality conditions.  Everything runs on real Bloch forms (see
:mod:`trinedisc.qubit`); each global Helstrom condition
Gamma - p_j rho_j >= 0 is the scalar test g - p_j >= |c - p_j n_j|.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .errors import DomainError, UndefinedError, VerificationError, ZeroPriorError
from .qubit import (
    Measurement,
    _Record,
    _product_norm,
    born,
    equator_element,
    povm_validity,
    trace_product,
)
from .trine import TRINE_BLOCH, Priors, _e2, _p_in_range, transform_to_original

__all__ = [
    "GammaSolution",
    "HelstromReport",
    "OptimalResult",
    "BREAKDOWN_P",
    "theta_two_element",
    "p_correct_two_element",
    "boundary_determinant",
    "critical_delta",
    "gamma_three_element",
    "p_correct_three_element",
    "check_helstrom",
    "optimal_branch",
    "optimal_measurement",
]

#: Symmetric-prior breakdown point: at delta = 0 the third outcome's weight
#: changes sign here and the two-outcome measurement takes over.
BREAKDOWN_P = 4.0 / (9.0 + math.sqrt(3.0))

_TIE_TOL = 1e-12
_HELSTROM_TOL = 1e-9
_U = 2.0**-53  # the unit roundoff


def theta_two_element(priors: Priors) -> float:
    """Measurement angle of the optimal two-outcome strategy.

    atan2(-sqrt(3) p1, 2 p0 + p1) fixes the branch: theta in (-pi/2, 0],
    biasing the measurement toward the more likely state.
    """
    return math.atan2(-math.sqrt(3.0) * priors.p1, 2.0 * priors.p0 + priors.p1)


def p_correct_two_element(priors: Priors) -> float:
    """Success probability of the optimal two-outcome strategy.

    Evaluates (p0 + p1 + sqrt(p0^2 + p0 p1 + p1^2))/2 and cross-checks the
    equivalent (p, delta) form p + sqrt(3 p^2 + delta^2)/2.
    """
    value, alt, agree = _p_correct_two(priors)
    if not agree:
        raise VerificationError(
            f"two-element success probability forms disagree: {value} vs {alt}"
        )
    return value


def _p_correct_two(priors, sqrt=math.sqrt) -> tuple:
    """The two-outcome value, its (p, delta) form and whether they agree.

    Array-generic: the sweeps pass prior columns and ``numpy.sqrt``.  Only
    p is raised with ``**`` (see ``_sweeps.Column``); delta's square is a
    product.
    """
    p0, p1, d = priors.p0, priors.p1, priors.delta
    value = 0.5 * (p0 + p1 + sqrt(p0 * p0 + p0 * p1 + p1 * p1))
    alt = priors.p + 0.5 * sqrt(3.0 * priors.p**2 + d * d)
    return value, alt, abs(value - alt) <= 1e-12


def boundary_determinant(priors: Priors) -> float:
    """det M = (p0 - p2)(p1 - p2)(p0 p1 + 3 p2) - 3 p2^4.

    M = Herm(p0 rho_0 pi_0 + p1 rho_1 pi_1) - p2 rho_2 for the two-outcome
    measurement (pi_0, pi_1); a positive sign means it is globally optimal.
    On p0 + p1 + p2 = 1 the identity is exact.  Every factor is nonnegative
    in canonical order, so det M = T1 - T2 with T1, T2 >= 0, and the float
    value lies within a few unit roundoffs of T1 + T2 of the exact one.
    Array-generic: it also takes prior columns.
    """
    p0, p1, p2 = priors.p0, priors.p1, priors.p2
    return (p0 - p2) * (p1 - p2) * (p0 * p1 + 3.0 * p2) - 3.0 * p2**4


def critical_delta(p: float) -> Optional[float]:
    """Boundary delta_c- separating two- from three-outcome optimality.

    A p that :func:`~trinedisc.trine.priors_from_p_delta` admits is moved
    into [1/3, 1/2] first.
    The inner discriminant equals (1 - 2p)^2 (4p^2 - 2p + 1) >= 0, so only
    rounding makes it negative, and it is then taken as 0.  Returns None
    when the outer radicand is negative, i.e. the three-outcome strategy is
    optimal for the whole admissible delta range at this p.
    """
    if not _p_in_range(p):
        raise DomainError(f"p must lie in [1/3, 1/2], got {p!r}")
    p = min(max(p, 1.0 / 3.0), 0.5)
    inner = 1.0 - 6.0 * p + 16.0 * p**2 - 24.0 * p**3 + 16.0 * p**4
    radicand = 2.0 - 6.0 * p + 5.0 * p**2 - 2.0 * math.sqrt(max(inner, 0.0))
    if radicand < 0.0:
        return None
    return math.sqrt(radicand)


class GammaSolution(_Record):
    """Lagrangian operator Gamma of the three-outcome branch, in Bloch components.

    ``(a, b_x, b_y)`` are the Bloch components of Gamma^{-1} = (a I + b.sigma)/2;
    ``p_corr`` = 4a/(a^2 - |b|^2) = Tr(Gamma), and Gamma itself is
    (p_corr I + c.sigma)/2 with c = -(p_corr / a) b.
    """

    __slots__ = _fields = ("a", "b_x", "b_y", "p_corr")


def gamma_three_element(priors: Priors) -> GammaSolution:
    """Solve the three-outcome Lagrangian operator from the priors.

    The defining relations <psi_j| Gamma^{-1} |psi_j> = 1/p_j reduce, with
    the in-plane symmetry b_z = 0, to a linear system with the closed-form
    solution below.  Each relation (a + n_j.b)/2 is re-verified to 16 unit
    roundoffs of its summands' scale (|a| + |n_x b_x| + |n_y b_y|)/2, which
    grows like 1/p2 on the tie edge.  Deep on that edge a^2 - |b|^2 rounds
    to exactly 0, and UndefinedError is raised.
    """
    q = priors.canonical
    if min(q) <= 0.0:
        raise ZeroPriorError("three-element construction needs strictly positive priors")
    r0, r1, r2 = 1.0 / q[0], 1.0 / q[1], 1.0 / q[2]
    a = (2.0 / 3.0) * (r0 + r1 + r2)
    b_x = (2.0 / 3.0) * (2.0 * r0 - r1 - r2)
    b_y = (2.0 / math.sqrt(3.0)) * (r1 - r2)
    # (a I + b.sigma)/2 inverts to 2 (a I - b.sigma)/(a^2 - |b|^2)
    den = a * a - b_x * b_x - b_y * b_y
    if den == 0.0:
        raise UndefinedError(f"Gamma^{{-1}} rounds to a singular operator at {q}")
    p_corr = 4.0 * a / den
    for n, qj in zip(TRINE_BLOCH, q):
        val = trace_product(n, (a, b_x, b_y))
        scale = 0.5 * (abs(a) + abs(n[1] * b_x) + abs(n[2] * b_y))
        if abs(val - 1.0 / qj) > 16.0 * _U * scale:
            raise VerificationError("Gamma^{-1} expectation does not match 1/p_j")
    return GammaSolution(a, b_x, b_y, p_corr)


def _outcomes(q: Sequence[float], sol: GammaSolution) -> tuple[list, list[float]]:
    """Outcome directions and weights of the three-outcome construction.

    Returns ``(directions, weights)`` for the canonical priors ``q`` and
    the Gamma ``sol`` that :func:`gamma_three_element` solved from them:
    for each j the unit equator vector of the outcome state, which spans
    the kernel of the rank-1 operator N_j = Gamma - p_j rho_j and so points
    against its Bloch vector c - p_j n_j, and the weight k_j solving
    completeness.  This is the unchecked construction: outside the
    three-outcome region some weight goes negative, and the breakdown-point
    tests bisect on that sign.  It raises UndefinedError where the
    directions round to collinear (on the tie edge), as
    :func:`gamma_three_element` does where Gamma^{-1} rounds to singular.
    """
    # Gamma = (p_corr I + c.sigma)/2 with c = -(p_corr / a) b
    cx, cy = -sol.p_corr / sol.a * sol.b_x, -sol.p_corr / sol.a * sol.b_y
    directions = []
    for qj, n in zip(q, TRINE_BLOCH):
        ux, uy = qj * n[1] - cx, qj * n[2] - cy
        norm = math.hypot(ux, uy)
        directions.append((ux / norm, uy / norm))
    # completeness sum_j k_j (1, d_j) = (2, 0, 0): Cramer's rule gives
    # k_j proportional to the cross product of the other two directions
    cross = [
        directions[(j + 1) % 3][0] * directions[(j + 2) % 3][1]
        - directions[(j + 1) % 3][1] * directions[(j + 2) % 3][0]
        for j in range(3)
    ]
    total = sum(cross)
    if total == 0.0:
        raise UndefinedError(f"three-outcome directions are collinear at {tuple(q)}")
    return directions, [2.0 * c / total for c in cross]


def p_correct_three_element(priors: Priors) -> float:
    """Success probability of the three-outcome formula.

    Computed everywhere the priors are strictly positive, but only
    meaningful as a success probability where the boundary determinant is
    negative.  Cross-checked against the equivalent (p, delta) form.  Both
    forms have a pole outside the region, at (4/9, 4/9, 1/9) for delta = 0;
    a denominator that is exactly 0 raises UndefinedError.
    """
    q = priors.canonical
    if not _positive(q):
        raise ZeroPriorError("three-element formula needs strictly positive priors")
    num, den, alt_num, alt_den, off_pole = _three_element_terms(priors)
    if not off_pole:
        raise UndefinedError(f"three-element formula has a pole at {q}")
    value = num / den
    alt = alt_num / alt_den
    if not _three_element_agree(value, alt):
        raise VerificationError(
            f"three-element success probability forms disagree: {value} vs {alt}"
        )
    return value


def _positive(q):
    p0, p1, p2 = q
    return (p0 > 0.0) & (p1 > 0.0) & (p2 > 0.0)


def _three_element_terms(priors) -> tuple:
    """Numerator and denominator of the three-outcome value and of its (p,
    delta) form, for positive priors, and whether neither denominator is 0.

    Array-generic, like the other closed forms the sweeps evaluate on columns.
    Only p is raised with ``**`` (see ``_sweeps.Column``); delta's powers
    are products.
    """
    p0, p1, p2 = priors.canonical
    num = 2.0 * _e2(p0, p1, p2)
    den = 2.0 - (p0 * p1 / p2 + p0 * p2 / p1 + p1 * p2 / p0)
    p, d = priors.p, priors.delta
    d2 = d * d
    alt_num = 2.0 * (1.0 - 2.0 * p) * (p * p - d2) * (3.0 * p * p + d2 - 2.0 * p)
    alt_den = 9.0 * p**4 - 4.0 * p**3 + 6.0 * p**2 * d2 - 12.0 * p * d2 + 4.0 * d2 + d2 * d2
    return num, den, alt_num, alt_den, (den != 0.0) & (alt_den != 0.0)


def _three_element_agree(value, alt):
    # the (p, delta) denominator cancels near p2 -> 0, so the cross-check
    # tolerance is looser than the formula's own accuracy: 1e-8 relative
    # to max(1, |value|)
    diff = abs(value - alt)
    return (diff <= 1e-8) | (diff <= 1e-8 * abs(value))


class HelstromReport(_Record):
    """Worst-case residuals of the two Helstrom optimality conditions."""

    __slots__ = _fields = (
        "max_offdiag_residual",
        "min_global_eigenvalue",
        "passes",
        "success_probability",
    )


def _three_priors(probabilities) -> tuple[float, float, float]:
    """The priors of the three trine states as floats; DomainError for any other count."""
    if len(probabilities) != 3:
        raise DomainError(f"expected the priors of the three trine states, got {probabilities!r}")
    q0, q1, q2 = probabilities
    return float(q0), float(q1), float(q2)


def check_helstrom(probabilities: Sequence[float], m: Measurement) -> HelstromReport:
    """Verify the Helstrom conditions for a labeled measurement.

    ``probabilities[i]`` is the prior of trine state i and element labels
    refer to the same indexing.  Reports the largest operator norm of
    pi_i (p_i rho_i - p_j rho_j) pi_j over pairs, the smallest eigenvalue
    ((g - p_j) - |c - p_j n_j|)/2 of Gamma - p_j rho_j over j, with
    Gamma = (g I + c.sigma)/2, and the success probability Tr(Gamma).  A
    NaN eigenvalue is the smallest, so it fails the check.
    """
    q = q0, q1, q2 = _three_priors(probabilities)
    outcomes = m.state_outcomes()
    offdiag = g = cx = cy = 0.0
    for i, (_, li, bi) in enumerate(outcomes):
        # Gamma = sum_l q_l rho_l pi_l; for rho = (1, n) and pi = (t, v), rho pi has
        # Hermitian part ((t + n.v)/2 I + ((v + t n)/2).sigma)/2, of trace Tr(rho pi)
        _, nx, ny = n = TRINE_BLOCH[li]
        t, bx, by = bi
        ql = q[li]
        g += ql * born(n, bi)
        cx += ql * 0.5 * (bx + t * nx)
        cy += ql * 0.5 * (by + t * ny)
        for _, lj, bj in outcomes[i + 1 :]:
            _, mx, my = TRINE_BLOCH[lj]
            qj = q[lj]  # each state's Bloch form has trace 1
            diff = (ql - qj, ql * nx - qj * mx, ql * ny - qj * my)
            offdiag = max(offdiag, _product_norm(bi, diff, bj))
    (_, x0, y0), (_, x1, y1), (_, x2, y2) = TRINE_BLOCH
    h = math.hypot
    eig0 = 0.5 * (g - q0 - h(cx - q0 * x0, cy - q0 * y0))
    eig1 = 0.5 * (g - q1 - h(cx - q1 * x1, cy - q1 * y1))
    eig2 = 0.5 * (g - q2 - h(cx - q2 * x2, cy - q2 * y2))
    # min keeps a NaN only where it comes first
    min_eig = min(eig0, eig1, eig2) if eig0 == eig0 and eig1 == eig1 and eig2 == eig2 else math.nan
    passes = offdiag <= _HELSTROM_TOL and min_eig >= -_HELSTROM_TOL
    return HelstromReport(offdiag, min_eig, passes, g)


class OptimalResult(_Record):
    """Dispatched minimum-error answer for one prior triple.

    ``strategy`` is "two_element" or "three_element"; ``measurement``
    carries labels in the caller's original state order; ``theta`` is set
    for the two-outcome branch, ``gamma`` for the three-outcome branch.
    """

    __slots__ = _fields = (
        "strategy",
        "measurement",
        "p_correct",
        "boundary_determinant",
        "helstrom",
        "theta",
        "gamma",
    )
    _defaults = {"theta": None, "gamma": None}


def optimal_branch(priors: Priors) -> tuple[str, float, float]:
    """Branch dispatch: (strategy, closed-form success probability, det M).

    The three-outcome branch is taken only where the boundary determinant
    is below -1e-12 and every prior is positive; ties go to the two-outcome
    branch.
    """
    det, two_element = _branch(priors)
    if two_element:
        return "two_element", p_correct_two_element(priors), det
    return "three_element", p_correct_three_element(priors), det


def _branch(priors):
    """det M, and whether :func:`optimal_branch` takes the two-outcome branch; array-generic."""
    det = boundary_determinant(priors)
    return det, (det >= -_TIE_TOL) | (priors.p2 <= 0.0)


def optimal_measurement(priors: Priors) -> OptimalResult:
    """Globally optimal minimum-error measurement for arbitrary priors.

    Dispatches with :func:`optimal_branch`, maps labels and operators back
    to the caller's state ordering, and attaches a Helstrom verification
    computed on the returned measurement; a failed verification is an
    internal inconsistency and raises VerificationError.
    """
    strategy, p_correct, det = optimal_branch(priors)
    if strategy == "two_element":
        theta, gamma = theta_two_element(priors), None
        canonical = [(0, equator_element(1.0, theta)), (1, equator_element(1.0, theta + math.pi))]
    else:
        theta, gamma = None, gamma_three_element(priors)
        # optimal_branch has already put det M below -1e-12
        directions, weights = _outcomes(priors.canonical, gamma)
        canonical = [
            (j, (k, k * dx, k * dy)) for j, (k, (dx, dy)) in enumerate(zip(weights, directions))
        ]
        # a negative weight is a negative element eigenvalue
        validity = povm_validity([b for _, b in canonical])
        if not validity.is_valid:
            raise VerificationError(f"three-outcome POVM inside its region is invalid: {validity}")
    measurement = transform_to_original(canonical, priors.permutation)
    report = check_helstrom(priors.original, measurement)
    if not report.passes:
        raise VerificationError(
            "dispatched measurement fails the Helstrom conditions: "
            f"offdiag={report.max_offdiag_residual!r}, "
            f"min_eig={report.min_global_eigenvalue!r}"
        )
    if abs(report.success_probability - p_correct) > 1e-9:
        raise VerificationError(
            "closed-form success probability disagrees with the Born sum: "
            f"{p_correct} vs {report.success_probability}"
        )
    return OptimalResult(strategy, measurement, p_correct, det, report, theta, gamma)
