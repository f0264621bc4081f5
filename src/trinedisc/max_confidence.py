"""Maximum-confidence measurements for the trine ensemble.

Each outcome element is proportional to rho^{-1} rho_i rho^{-1}; the
Bayes posterior it achieves is scale invariant, so the common scale is
chosen maximal subject to the inconclusive completion staying positive.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import UndefinedError, VerificationError, ZeroOutcomeError
from .qubit import INCONCLUSIVE, PSD_TOL, Measurement, _Record, _set_field, born, rank_one
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
    q = priors.original
    rx = sum(qj * n[1] for qj, n in zip(q, TRINE_BLOCH))
    ry = sum(qj * n[2] for qj, n in zip(q, TRINE_BLOCH))
    raw = []
    for n, (_, a, b) in zip(TRINE_BLOCH, _each_state(q)):
        o = a + b
        raw.append((e2 * n[1] - o * rx, e2 * n[2] - o * ry))
    x, y = sum(v[0] for v in raw), sum(v[1] for v in raw)
    # the sum of the rank-1 forms has largest eigenvalue (sum_i |v_i| + |V|)/2
    scale = 2.0 / (sum(math.hypot(*v) for v in raw) + math.hypot(x, y))
    elements = [(i, rank_one(scale * vx, scale * vy)) for i, (vx, vy) in enumerate(raw)]
    leftover = rank_one(-scale * x, -scale * y)
    if leftover[0] > PSD_TOL:
        elements.append((INCONCLUSIVE, leftover))
    return Measurement(elements)


def _joint(priors: Priors, element) -> list[float]:
    """p_j Tr(rho_j pi) for each state j, caller's order."""
    return [qj * born(n, element) for qj, n in zip(priors.original, TRINE_BLOCH)]


def confidence(priors: Priors, m: Measurement, outcome_label) -> float:
    """Bayes posterior that the labeled outcome identified its state.

    p_i Tr(rho_i pi_i) / sum_j p_j Tr(rho_j pi_i), with labels and priors
    in the caller's original state order.  Invariant under positive
    rescaling of the element.  Clamped into [0, 1].  The zero-outcome test
    is relative to Tr(pi), since Tr(rho pi) >= lambda_min(rho) Tr(pi).
    """
    return _posterior(priors, dict(m.forms)[outcome_label], outcome_label)


def _posterior(priors: Priors, element, outcome_label) -> float:
    """:func:`confidence` of one element, with its zero-outcome test."""
    joint = _joint(priors, element)
    ensemble_prob = sum(joint)
    if ensemble_prob <= _OUTCOME_TOL * element[0]:
        raise ZeroOutcomeError(
            f"outcome {outcome_label!r} has vanishing ensemble probability"
        )
    return min(1.0, joint[outcome_label] / ensemble_prob)


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
    posteriors were checked against, when the report was built by
    :func:`confidence_report`, and is None otherwise.
    """

    __slots__ = _fields = (
        "per_state_confidence",
        "inconclusive_probability",
        "measurement",
        "closed_form",
    )

    def __init__(
        self,
        per_state_confidence: tuple[float, float, float],
        inconclusive_probability: float,
        measurement: Measurement,
        closed_form: Optional[tuple[float, float, float]] = None,
    ):
        _set_field(self, "per_state_confidence", per_state_confidence)
        _set_field(self, "inconclusive_probability", inconclusive_probability)
        _set_field(self, "measurement", measurement)
        _set_field(self, "closed_form", closed_form)


def confidence_report(priors: Priors) -> ConfidenceReport:
    """Assemble the POVM and evaluate per-state confidence both ways."""
    m = mc_povm(priors)
    forms = dict(m.forms)
    per_state = []
    closed_form = mc_confidence_closed_form(priors)
    for i, closed in enumerate(closed_form):
        bayes = _posterior(priors, forms[i], i)
        if closed is None:
            raise UndefinedError("confidence is undefined for a pure ensemble (p_i = 1)")
        if abs(bayes - closed) > 1e-10:
            raise VerificationError(
                f"Bayes confidence {bayes} disagrees with closed form {closed}"
            )
        per_state.append(bayes)
    inconclusive = sum(_joint(priors, forms[INCONCLUSIVE])) if INCONCLUSIVE in forms else 0.0
    return ConfidenceReport(tuple(per_state), inconclusive, m, closed_form)


def min_error_confidence(priors: Priors) -> tuple[Optional[float], ...]:
    """Per-state confidence achieved by the minimum-error measurement.

    None for states without an outcome (the two-outcome branch never
    identifies the least likely state).
    """
    m = optimal_measurement(priors).measurement
    return tuple(confidence(priors, m, i) if i in m.labels else None for i in range(3))
