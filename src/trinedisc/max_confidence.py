"""Maximum-confidence measurements for the trine ensemble.

Each outcome element is proportional to rho^{-1} rho_i rho^{-1}; the
Bayes posterior it achieves is scale invariant, so the common scale is
chosen maximal subject to the inconclusive completion staying positive.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import UndefinedError, VerificationError, ZeroOutcomeError
from .qubit import INCONCLUSIVE, PSD_TOL, Measurement, _born_row, _Record, rank_one
from .min_error import optimal_measurement
from .trine import TRINE_BLOCH, Priors, mixed_e2

__all__ = [
    "ConfidenceReport",
    "mc_povm",
    "confidence",
    "mc_confidence_closed_form",
    "confidence_report",
    "min_error_confidence",
]

#: An outcome whose ensemble probability is at most this fraction of its
#: element's trace counts as never firing.
_OUTCOME_TOL = 1e-14


def mc_povm(priors: Priors) -> Measurement:
    """Maximum-confidence POVM, completed with an inconclusive outcome.

    Element i is proportional to rho^{-1} rho_i rho^{-1}.  For
    rho = (I + r.sigma)/2 and rho_i = (I + n_i.sigma)/2 that product is a
    positive multiple of the rank-1 Bloch form
    (1 + |r|^2 - 2 r.n_i, (1 - |r|^2) n_i - 2 (1 - r.n_i) r).  With the
    priors summing to 1, 1 - |r|^2 = 3 e2 (e2 = p0 p1 + p0 p2 + p1 p2) and
    1 - r.n_i = 3 o_i / 2 (o_i the sum of the other two priors), so up to
    the factor 3 its Bloch vector is e2 n_i - o_i r: no inverse, and
    nothing that cancels as the ensemble approaches a pure state.
    Confidence does not depend on scale, so all three are then scaled by
    the largest common factor that keeps 1 - sum of elements positive; the
    remainder, also rank-1, becomes the inconclusive element when it is
    nonzero.  Every element is built exactly rank-1 (see
    :func:`~trinedisc.qubit.rank_one`), so the Born probabilities of the
    returned elements keep their relative accuracy where they are small.
    The vectors depend on the priors only through rho, so they are built in
    the caller's state order: labels 0, 1, 2, then inconclusive.  Raises
    PureStateError when the ensemble is pure (:func:`~trinedisc.trine.mixed_e2`).
    """
    e2 = mixed_e2(priors)
    q0, q1, q2 = q = priors.original
    (_, x0, y0), (_, x1, y1), (_, x2, y2) = TRINE_BLOCH
    rx = sum((q0 * x0, q1 * x1, q2 * x2))
    ry = sum((q0 * y0, q1 * y1, q2 * y2))
    (_, a0, b0), (_, a1, b1), (_, a2, b2) = _each_state(q)
    o0, o1, o2 = a0 + b0, a1 + b1, a2 + b2
    vx0, vy0 = e2 * x0 - o0 * rx, e2 * y0 - o0 * ry
    vx1, vy1 = e2 * x1 - o1 * rx, e2 * y1 - o1 * ry
    vx2, vy2 = e2 * x2 - o2 * rx, e2 * y2 - o2 * ry
    x, y = sum((vx0, vx1, vx2)), sum((vy0, vy1, vy2))
    h = math.hypot
    # the sum of the rank-1 forms has largest eigenvalue (sum_i |v_i| + |V|)/2
    scale = 2.0 / (sum((h(vx0, vy0), h(vx1, vy1), h(vx2, vy2))) + h(x, y))
    elements = [(0, rank_one(scale * vx0, scale * vy0)), (1, rank_one(scale * vx1, scale * vy1)),
                (2, rank_one(scale * vx2, scale * vy2))]
    leftover = rank_one(-scale * x, -scale * y)
    if leftover[0] > PSD_TOL:
        elements.append((INCONCLUSIVE, leftover))
    return Measurement(elements)


def confidence(priors: Priors, m: Measurement, outcome_label) -> float:
    """Bayes posterior that the labeled outcome identified its state.

    p_i Tr(rho_i pi_i) / sum_j p_j Tr(rho_j pi_i), with labels and priors
    in the caller's original state order.  Invariant under positive
    rescaling of the element.  Clamped into [0, 1].  The zero-outcome test
    is relative to Tr(pi), since Tr(rho pi) >= lambda_min(rho) Tr(pi).
    """
    _, state, element = m._state_outcome(outcome_label)
    return _posterior(priors.original, element, state)


def _posterior(q, element, state) -> float:
    """:func:`confidence` of one element for ``state``, with its zero-outcome test.

    For :data:`INCONCLUSIVE`, which names no state, it is the element's
    ensemble probability sum_j q_j Tr(rho_j pi) instead, untested.  The
    joint probabilities q_j Tr(rho_j pi) are three scalars, the Born row
    computed once.
    """
    b0, b1, b2 = _born_row(element, TRINE_BLOCH)
    q0, q1, q2 = q
    j0, j1, j2 = q0 * b0, q1 * b1, q2 * b2
    ensemble_prob = sum((j0, j1, j2))
    if state == INCONCLUSIVE:
        return ensemble_prob
    if ensemble_prob <= _OUTCOME_TOL * element[0]:
        raise ZeroOutcomeError(f"outcome {state!r} has vanishing ensemble probability")
    x = (j0, j1, j2)[state] / ensemble_prob
    return x if x < 1.0 else 1.0  # min(1.0, x), NaN included


def _closed_form_value(p_i, a, b):
    """The closed form away from its limits; array-generic, for the sweeps' columns."""
    return 1.0 / (1.0 + (a * b) / (p_i * (a + b)))


def _closed_form(p_i: float, a: float, b: float) -> Optional[float]:
    if p_i >= 1.0:
        return None
    if p_i == 0.0:
        return 0.0
    if a == 0.0 or b == 0.0:
        return 1.0
    return _closed_form_value(p_i, a, b)


def _each_state(q) -> tuple:
    """(p_i, then the other two priors) for each state i of the triple ``q``."""
    q0, q1, q2 = q
    return (q0, q1, q2), (q1, q0, q2), (q2, q0, q1)


def mc_confidence_closed_form(priors: Priors) -> tuple[Optional[float], ...]:
    """Closed-form maximum confidence for identifying each state.

    Entry i, in the caller's original state order, is
    (1 + prod_{j!=i} p_j / (p_i sum_{j!=i} p_j))^{-1}, with the limits
    p_i = 0 -> 0 and (some p_j = 0, j != i) -> 1 taken exactly.  It is
    None where p_i = 1: confidence is undefined for a pure ensemble.
    """
    s0, s1, s2 = _each_state(priors.original)
    return _closed_form(*s0), _closed_form(*s1), _closed_form(*s2)


class ConfidenceReport(_Record):
    """Maximum-confidence summary for one prior triple.

    ``per_state_confidence`` is indexed by the caller's original state
    order; ``inconclusive_probability`` depends on the maximal-strength
    scaling convention and is labeled as such in CLI output.
    ``closed_form`` holds the :func:`mc_confidence_closed_form` values the
    posteriors were checked against.
    """

    __slots__ = _fields = (
        "per_state_confidence",
        "inconclusive_probability",
        "measurement",
        "closed_form",
    )


def confidence_report(priors: Priors) -> ConfidenceReport:
    """Assemble the POVM and evaluate per-state confidence both ways."""
    m = mc_povm(priors)
    q = priors.original
    per_state = []
    inconclusive = 0.0
    closed_form = mc_confidence_closed_form(priors)
    for label, element in m.forms:  # states 0, 1, 2, then any inconclusive outcome
        if label == INCONCLUSIVE:
            inconclusive = _posterior(q, element, label)
            continue
        bayes = _posterior(q, element, label)
        closed = closed_form[label]
        if closed is None:
            raise UndefinedError("confidence is undefined for a pure ensemble (p_i = 1)")
        if abs(bayes - closed) > 1e-10:
            raise VerificationError(f"Bayes confidence {bayes} disagrees with closed form {closed}")
        per_state.append(bayes)
    return ConfidenceReport(tuple(per_state), inconclusive, m, closed_form)


def min_error_confidence(priors: Priors) -> tuple[Optional[float], ...]:
    """Per-state confidence achieved by the minimum-error measurement.

    None for states without an outcome (the two-outcome branch never
    identifies the least likely state).
    """
    forms = dict(optimal_measurement(priors).measurement.forms)
    q = priors.original
    return tuple(_posterior(q, forms[i], i) if i in forms else None for i in range(3))
