"""Certificates of optimality, read off each answer itself.

Minimum error, by weak duality (Eldar, Megretski & Verghese 2003): every
Hermitian Y with Y >= p_j rho_j for each j bounds the optimum by Tr Y,
since sum_j p_j Tr(rho_j pi_j) <= sum_j Tr(Y pi_j) = Tr Y for any POVM.
:func:`~trinedisc.min_error.check_helstrom` builds Gamma = (g I + c.sigma)/2
from a measurement, with Tr Gamma = g its Born sum, and the smallest
eigenvalue m of the Gamma - p_j rho_j.  Y = Gamma + max(0, -m) I is then
feasible, so the optimum lies in [L, U] with L = g for a valid POVM and
U = g + max(0, -2m) = max(g, max_j [p_j + |c - p_j n_j|]).

Maximum confidence: the posterior p_i <phi|rho_i|phi> / <phi|rho|phi> of
any element is at most p_i <psi_i|rho^{-1}|psi_i> = p_i o_i / e2 (a
Rayleigh quotient; o_i is the sum of the other two priors and
e2 = p0 p1 + p0 p2 + p1 p2), and the returned element attains its own
posterior.

Both bounds are rounded outward, so that they hold for the exact trine
states and not only for the floats in ``TRINE_BLOCH``: each moves by an
a-priori bound on its forward error in units of u = 2^-53.  Those bounds
take every state of ``TRINE_BLOCH`` to be within 10u of its exact Bloch
vector: 2 pi/3 and 4 pi/3 are rounded to within 5.5u, which moves the
point along the circle by as much, and their cosine and sine, each within
one unit in the last place, add at most 1.5u.
"""

from __future__ import annotations

import math
from typing import Sequence

from .max_confidence import ConfidenceReport, _each_state
from .min_error import _U, HelstromReport, _three_priors
from .qubit import Measurement, povm_validity
from .trine import Priors, mixed_e2

__all__ = ["certify_min_error", "certify_max_confidence"]


def certify_min_error(
    probabilities: Sequence[float], measurement: Measurement, helstrom: HelstromReport
) -> tuple[float, float]:
    """Bounds (lower, upper) on the optimal success probability.

    ``probabilities[i]`` is the prior of trine state i, and element labels
    refer to the same indexing, as for
    :func:`~trinedisc.min_error.check_helstrom`.  ``helstrom`` must be
    ``check_helstrom(probabilities, measurement)``, for instance the
    ``helstrom`` of the :class:`~trinedisc.min_error.OptimalResult` that
    returned the measurement; its g and smallest eigenvalue m give both
    bounds, and a report made on other inputs gives bounds that hold for
    nothing; a NaN m gives a NaN upper bound.  The upper bound holds for
    any measurement; the lower bound is the measurement's Born sum,
    lowered to what the measurement achieves once repaired into a valid
    POVM, so it holds for any measurement too and is tight for one that
    is already valid.

    Rounding: U = g - 2m is evaluated from check_helstrom's g and c to
    within 2u|g| + 5u|U| + 13u max_j p_j of the exact
    max(g, max_j [p_j + |c - p_j n_j|]) for those g and c, and is raised
    by 16u (|g| + |U| + max_j p_j).  Each of the k Born probabilities in g
    is within 24u (|t| + |v|) of the exact one for its element (t, v),
    clamping into [0, 1] included, and summing them adds (k + 1)u, so g is
    lowered by (k + 32)u sum_l p_l (|t_l| + |v_l|).  Adding eta I to an
    element whose smallest eigenvalue is -eta makes it positive; the n
    elements then sum to at most (1 + x) I, with x the completeness
    deviation plus n times the largest eta, plus 4(n + 1)u sum (|t| + |v|)
    for their rounding.  Scaled by 1/(1 + x) and completed with an
    inconclusive element they are a POVM, whose Born sum is at least the
    lowered g over 1 + x, rounded down.
    """
    q = _three_priors(probabilities)
    g, m = helstrom.success_probability, helstrom.min_global_eigenvalue
    upper = g - 2.0 * (0.0 if m >= 0.0 else m)  # min(0.0, m), but NaN stays NaN
    upper = math.nextafter(upper + 16.0 * _U * (abs(g) + abs(upper) + max(q)), math.inf)
    forms = [b for _, b in measurement.forms]
    sizes = [abs(t) + math.hypot(x, y, z) for t, x, y, z in forms]
    outcomes = measurement.state_outcomes()
    born_error = (len(outcomes) + 32) * _U * sum([q[lab] * sizes[k] for k, lab, _ in outcomes])
    validity = povm_validity(forms)
    x = (
        validity.completeness_deviation
        + len(forms) * max(0.0, -validity.min_element_eigenvalue)
        + 4 * (len(forms) + 1) * _U * sum(sizes)
    )
    lower = (g - born_error) / (1.0 + x)
    return math.nextafter(lower - 4.0 * _U * abs(lower), -math.inf), upper


def certify_max_confidence(
    priors: Priors, report: ConfidenceReport
) -> list[tuple[float, float]]:
    """Bounds (lower, upper) on the maximum confidence for each state.

    Indexed by the caller's original state order, like
    ``report.per_state_confidence``, the posteriors that
    :func:`~trinedisc.max_confidence.confidence_report` found; each is the
    lower bound once lowered by its forward error; a NaN posterior gives a
    NaN lower bound.  The upper bound p_i o_i / e2 is evaluated to within
    6u and raised by 8u.

    Rounding: the reference element is the rank-1 part (|v|, v) of each
    returned element (t, v), which is positive.  Its Born probabilities
    P_j are computed to within 15u sqrt(|v| P_j) + 7u P_j plus
    |t - |v||/2, and the ensemble probability is at least
    |v| lambda_min(rho) >= 3 |v| e2 / 4, so the posterior is within
    (35/sqrt(e2) + 19)u + 1.6 |t - |v|| / (e2 |v|); it is lowered by
    (48/sqrt(e2) + 24)u + 2 |t - |v|| / (e2 |v|).  The elements that
    confidence_report builds are exactly rank-1 as stored, so their last
    term is 0.  Raises PureStateError for a pure ensemble.
    """
    e2 = mixed_e2(priors)
    forms = dict(report.measurement.forms)
    rounding = (48.0 / math.sqrt(e2) + 24.0) * _U
    bounds = []
    for i, (q_i, a, b) in enumerate(_each_state(priors.original)):
        t, x, y, z = forms[i]
        r = math.hypot(x, y, z)
        slack = rounding
        if r > 0.0:
            slack += 2.0 * abs(t - r) / (e2 * r)
        # clamped into [0, 1], but NaN stays NaN
        lower = math.nextafter(report.per_state_confidence[i] - slack, -math.inf)
        lower = 0.0 if lower < 0.0 else lower
        upper = math.nextafter(q_i * (a + b) / e2 * (1.0 + 8.0 * _U), math.inf)
        upper = 1.0 if upper > 1.0 else upper
        bounds.append((lower, upper))
    return bounds
