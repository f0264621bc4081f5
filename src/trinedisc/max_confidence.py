"""Maximum-confidence measurements for the trine ensemble.

Each outcome element is proportional to rho^{-1} rho_i rho^{-1}; the
Bayes posterior it achieves is scale invariant, so the common scale is
chosen maximal subject to the inconclusive completion staying positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    PureStateError,
    UndefinedError,
    VerificationError,
    ZeroOutcomeError,
)
from .qubit import INCONCLUSIVE, PSD_TOL, Measurement, born, bloch_decomposition, rank_one
from .min_error import optimal_measurement
from .trine import TRINE_BLOCH, Priors, transform_to_original

__all__ = [
    "ConfidenceReport",
    "mc_povm",
    "confidence",
    "mc_confidence_closed_form",
    "confidence_report",
    "min_error_confidence",
]

_OUTCOME_TOL = 1e-14
#: Purity Tr(rho^2) above 1 - PURITY_TOL counts as a pure ensemble.
_PURITY_TOL = 1e-9


def mc_povm(priors: Priors, tol: float = PSD_TOL) -> Measurement:
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
    Labels are in the caller's original state order.  Raises
    PureStateError when the ensemble density matrix is pure.
    """
    q = priors.canonical
    e2 = q[0] * q[1] + q[0] * q[2] + q[1] * q[2]
    if 1.5 * e2 <= _PURITY_TOL:  # purity (1 + |r|^2)/2 = 1 - 3 e2 / 2
        raise PureStateError(f"ensemble density matrix is pure within tolerance (priors {q})")
    rx = sum(qj * n[1] for qj, n in zip(q, TRINE_BLOCH))
    ry = sum(qj * n[2] for qj, n in zip(q, TRINE_BLOCH))
    raw = []
    for i, n in enumerate(TRINE_BLOCH):
        o = q[(i + 1) % 3] + q[(i + 2) % 3]
        raw.append((e2 * n[1] - o * rx, e2 * n[2] - o * ry))
    x, y = sum(v[0] for v in raw), sum(v[1] for v in raw)
    # the sum of the rank-1 forms has largest eigenvalue (sum_i |v_i| + |V|)/2
    scale = 2.0 / (sum(math.hypot(*v) for v in raw) + math.hypot(x, y))
    elements = [(i, rank_one(scale * vx, scale * vy)) for i, (vx, vy) in enumerate(raw)]
    leftover = rank_one(-scale * x, -scale * y)
    if leftover[0] > tol:
        elements.append((INCONCLUSIVE, leftover))
    return transform_to_original(elements, priors.permutation)


def _joint(priors: Priors, element) -> list[float]:
    """p_j Tr(rho_j pi) for each state j, caller's order."""
    return [qj * born(n, element) for qj, n in zip(priors.original, TRINE_BLOCH)]


def confidence(priors: Priors, m: Measurement, outcome_label) -> float:
    """Bayes posterior that the labeled outcome identified its state.

    p_i Tr(rho_i pi_i) / sum_j p_j Tr(rho_j pi_i), with labels and priors
    in the caller's original state order.  Invariant under positive
    rescaling of the element.  Clamped into [0, 1].
    """
    joint = _joint(priors, bloch_decomposition(m.element(outcome_label)))
    ensemble_prob = sum(joint)
    if ensemble_prob <= _OUTCOME_TOL:
        raise ZeroOutcomeError(
            f"outcome {outcome_label!r} has vanishing ensemble probability"
        )
    return min(1.0, joint[outcome_label] / ensemble_prob)


def mc_confidence_closed_form(priors: Priors, i: int) -> float:
    """Closed-form maximum confidence for identifying state ``i``.

    (1 + prod_{j!=i} p_j / (p_i sum_{j!=i} p_j))^{-1}, with the limits
    p_i = 0 -> 0 and (some p_j = 0, j != i) -> 1 taken exactly.
    """
    q = priors.original
    p_i = q[i]
    others = [q[j] for j in range(3) if j != i]
    if p_i >= 1.0:
        raise UndefinedError("confidence is undefined for a pure ensemble (p_i = 1)")
    if p_i == 0.0:
        return 0.0
    if min(others) == 0.0:
        return 1.0
    return 1.0 / (1.0 + (others[0] * others[1]) / (p_i * (others[0] + others[1])))


@dataclass(frozen=True)
class ConfidenceReport:
    """Maximum-confidence summary for one prior triple.

    ``per_state_confidence`` is indexed by the caller's original state
    order; ``inconclusive_probability`` depends on the maximal-strength
    scaling convention and is labeled as such in CLI output.
    """

    per_state_confidence: tuple[float, float, float]
    inconclusive_probability: float
    measurement: Measurement


def confidence_report(priors: Priors) -> ConfidenceReport:
    """Assemble the POVM and evaluate per-state confidence both ways."""
    m = mc_povm(priors)
    per_state = []
    for i in range(3):
        bayes = confidence(priors, m, i)
        closed = mc_confidence_closed_form(priors, i)
        if abs(bayes - closed) > 1e-10:
            raise VerificationError(
                f"Bayes confidence {bayes} disagrees with closed form {closed}"
            )
        per_state.append(bayes)
    if INCONCLUSIVE in m.labels:
        inconclusive = sum(_joint(priors, bloch_decomposition(m.element(INCONCLUSIVE))))
    else:
        inconclusive = 0.0
    return ConfidenceReport(tuple(per_state), inconclusive, m)


def min_error_confidence(priors: Priors) -> tuple[Optional[float], ...]:
    """Per-state confidence achieved by the minimum-error measurement.

    None for states without an outcome (the two-outcome branch never
    identifies the least likely state).
    """
    result = optimal_measurement(priors)
    out: list[Optional[float]] = []
    for i in range(3):
        if i in result.measurement.labels:
            out.append(confidence(priors, result.measurement, i))
        else:
            out.append(None)
    return tuple(out)
