"""Matrix references the tests compare the library's Bloch forms against.

The equator kets, their projectors, the Lagrange operator Gamma as a
matrix, the two-outcome boundary matrix M and the unchecked three-outcome
POVM are all built with numpy from state vectors.  Only scalars come from
the library: the two-outcome angle, Gamma's components and the raw
three-outcome directions and weights.  Matrices become equatorial Bloch
forms (t, x, y) through Pauli traces (:func:`bloch_form`), and so reach a
:class:`Measurement` without going through the code under test.  The
complex product reference, :func:`product_norm`, takes general forms
(t, x, y, z).

The loop forms at the end are the per-prior functions as they were
written before they worked on the three states' scalars: the
maximum-confidence POVM, Gamma's Bloch form, the smallest Helstrom
eigenvalue and the two min-error checks built on them, all through
generators and ``zip`` over ``TRINE_BLOCH``; the posteriors, through a
list of joint probabilities; and the canonical order, through a keyed
``sorted``.  The library must return their bits.
"""

import math

import numpy as np

from trinedisc import qubit
from trinedisc.errors import DomainError, UndefinedError, VerificationError, ZeroOutcomeError
from trinedisc.max_confidence import (
    _OUTCOME_TOL,
    ConfidenceReport,
    _each_state,
    mc_confidence_closed_form,
)
from trinedisc.min_error import (
    _HELSTROM_TOL,
    _U,
    HelstromReport,
    _outcomes,
    gamma_three_element,
    optimal_measurement,
    theta_two_element,
)
from trinedisc.qubit import (
    INCONCLUSIVE,
    PSD_TOL,
    _born_row,
    _product_norm,
    born,
    povm_validity,
    rank_one,
)
from trinedisc.trine import (
    _SUM_TOL,
    _TRINE_ANGLES,
    TRINE_BLOCH,
    Priors,
    mixed_e2,
    priors_from_p_delta,
)

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (IDENTITY, SIGMA_X, SIGMA_Y)


def bloch_form(m):
    """(Tr m, Tr m sigma_x, Tr m sigma_y) of a Hermitian 2x2 matrix in the equator plane.

    Tr m sigma_z must vanish to the rounding of the Hermitian check: the
    two diagonal entries of a projector built from an equator ket differ
    by up to 2.2e-16.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    tol = 1e-12 * max(1.0, np.max(np.abs(m)))
    if np.max(np.abs(m - m.conj().T)) > tol:
        raise ValueError("matrix is not Hermitian")
    if abs(np.trace(m @ SIGMA_Z).real) > tol:
        raise ValueError("matrix is not in the equator plane")
    return tuple(float(np.trace(m @ s).real) for s in PAULIS)


def measurement(elements):
    """A Measurement from (label, Hermitian 2x2 matrix) pairs."""
    return qubit.Measurement((label, bloch_form(m)) for label, m in elements)


def ket(phi):
    """Equatorial pure state (|0> + e^{i phi}|1>)/sqrt(2)."""
    return np.array([1.0, np.exp(1j * phi)], dtype=complex) / np.sqrt(2.0)


def projector(psi):
    return np.outer(psi, psi.conj())


def trine_states():
    return [ket(a) for a in _TRINE_ANGLES]


def trine_projectors():
    return [projector(psi) for psi in trine_states()]


def element(m, label):
    """The 2x2 matrix of the outcome ``label`` of a Measurement."""
    (op,) = [op for lab, op in m.elements if lab == label]
    return op


def matrix(b):
    """The 2x2 complex matrix that ``Measurement.elements`` gives for the Bloch form ``b``."""
    return element(qubit.Measurement([(0, b)]), 0)


def validity(m):
    """Positivity and completeness of a Measurement's elements, from its Bloch forms."""
    return povm_validity([b for _, b in m.forms])


def gamma_matrix(sol):
    """Gamma = (p_corr I + c.sigma)/2 with c = -(p_corr / a) b, from a GammaSolution."""
    c = -sol.p_corr / sol.a
    return 0.5 * (sol.p_corr * IDENTITY + c * sol.b_x * SIGMA_X + c * sol.b_y * SIGMA_Y)


def boundary_matrix(priors):
    """M = Herm(p0 rho_0 pi_0 + p1 rho_1 pi_1) - p2 rho_2, canonical frame.

    (pi_0, pi_1) is the optimal two-outcome measurement, the projectors on
    the equator kets at theta and theta + pi.
    """
    theta = theta_two_element(priors)
    rhos = trine_projectors()
    pis = (projector(ket(theta)), projector(ket(theta + math.pi)))
    g = priors.p0 * rhos[0] @ pis[0] + priors.p1 * rhos[1] @ pis[1]
    return 0.5 * (g + g.conj().T) - priors.p2 * rhos[2]


def two_element_measurement(priors):
    """The optimal two-outcome measurement of states 0 and 1 (canonical frame), unchecked."""
    theta = theta_two_element(priors)
    return qubit.Measurement(
        [(0, qubit.equator_element(1.0, theta)), (1, qubit.equator_element(1.0, theta + math.pi))]
    )


def three_element_weights_raw(priors):
    """The library's unchecked three-outcome directions and weights (canonical frame)."""
    return _outcomes(priors.canonical, gamma_three_element(priors))


def three_element_measurement(priors):
    """The three-outcome POVM k_j |phi_j><phi_j| (canonical frame), unchecked."""
    directions, weights = three_element_weights_raw(priors)
    return measurement(
        (j, k * projector(ket(math.atan2(dy, dx))))
        for j, (k, (dx, dy)) in enumerate(zip(weights, directions))
    )


def weight2(p):
    """The unchecked three-outcome weight of state 2 at (p, p, 1 - 2p), whose sign
    changes at the breakdown point."""
    _, weights = three_element_weights_raw(priors_from_p_delta(p, 0.0))
    return float(weights[2])


def bloch_product(a, b):
    """Bloch form of the matrix product A B, in complex arithmetic.

    (a0 + a.sigma)(b0 + b.sigma) = a0 b0 + a.b + (a0 b + b0 a + i a x b).sigma.
    """
    a0, ax, ay, az = a
    b0, bx, by, bz = b
    return (
        0.5 * (a0 * b0 + ax * bx + ay * by + az * bz),
        0.5 * (a0 * bx + b0 * ax + 1j * (ay * bz - az * by)),
        0.5 * (a0 * by + b0 * ay + 1j * (az * bx - ax * bz)),
        0.5 * (a0 * bz + b0 * az + 1j * (ax * by - ay * bx)),
    )


def operator_norm(b):
    """Largest singular value of a complex Bloch form, from its Frobenius
    norm and its determinant."""
    frob_sq = 0.5 * sum(abs(c) ** 2 for c in b)
    det = 0.25 * (b[0] ** 2 - b[1] ** 2 - b[2] ** 2 - b[3] ** 2)
    gap = math.sqrt(max(0.0, frob_sq * frob_sq - 4.0 * abs(det) ** 2))
    return math.sqrt(0.5 * (frob_sq + gap))


def product_norm(a, b, c):
    """Largest singular value of A B C, through two complex Bloch products."""
    return operator_norm(bloch_product(bloch_product(a, b), c))


def mc_povm_loops(priors):
    """``max_confidence.mc_povm`` with its sums over generators."""
    e2 = mixed_e2(priors)
    q = priors.original
    rx = sum(qj * n[1] for qj, n in zip(q, TRINE_BLOCH))
    ry = sum(qj * n[2] for qj, n in zip(q, TRINE_BLOCH))
    raw = []
    for n, (_, a, b) in zip(TRINE_BLOCH, _each_state(q)):
        o = a + b
        raw.append((e2 * n[1] - o * rx, e2 * n[2] - o * ry))
    x, y = sum(v[0] for v in raw), sum(v[1] for v in raw)
    scale = 2.0 / (sum(math.hypot(*v) for v in raw) + math.hypot(x, y))
    elements = [(i, rank_one(scale * vx, scale * vy)) for i, (vx, vy) in enumerate(raw)]
    leftover = rank_one(-scale * x, -scale * y)
    if leftover[0] > PSD_TOL:
        elements.append((INCONCLUSIVE, leftover))
    return qubit.Measurement(elements)


def gamma_loops(q, elements):
    """Bloch form of Gamma = sum_l q_l rho_l pi_l (its Hermitian part), accumulated in a list."""
    g = [0.0, 0.0, 0.0]
    for lab, b in elements:
        n = TRINE_BLOCH[lab]
        g[0] += q[lab] * born(n, b)
        for k in (1, 2):
            g[k] += q[lab] * 0.5 * (b[k] + b[0] * n[k])
    return g


def min_eigenvalue_loops(q, g, cx, cy):
    """Smallest eigenvalue of the Gamma - q_j rho_j, over a generator (which skips a later NaN)."""
    return min(
        0.5 * (g - qj - math.hypot(cx - qj * n[1], cy - qj * n[2]))
        for qj, n in zip(q, TRINE_BLOCH)
    )


def check_helstrom_loops(probabilities, m):
    """``min_error.check_helstrom`` over lists, pairs and :func:`gamma_loops`."""
    q = [float(x) for x in probabilities]
    labeled = [(lab, b) for _, lab, b in m.state_outcomes()]
    offdiag = 0.0
    for i, (li, bi) in enumerate(labeled):
        for lj, bj in labeled[i + 1 :]:
            diff = [q[li] * x - q[lj] * y for x, y in zip(TRINE_BLOCH[li], TRINE_BLOCH[lj])]
            offdiag = max(offdiag, _product_norm(bi, diff, bj))
    g, cx, cy = gamma_loops(q, labeled)
    min_eig = min_eigenvalue_loops(q, g, cx, cy)
    passes = offdiag <= _HELSTROM_TOL and min_eig >= -_HELSTROM_TOL
    return HelstromReport(offdiag, min_eig, passes, g)


def certify_min_error_loops(probabilities, measurement, helstrom):
    """``oracle.certify_min_error`` over lists and a generator."""
    q = [float(p) for p in probabilities]
    g, m = helstrom.success_probability, helstrom.min_global_eigenvalue
    upper = g - 2.0 * min(0.0, m)
    upper = math.nextafter(upper + 16.0 * _U * (abs(g) + abs(upper) + max(q)), math.inf)
    forms = [b for _, b in measurement.forms]
    sizes = [abs(t) + math.hypot(x, y) for t, x, y in forms]
    outcomes = measurement.state_outcomes()
    born_error = (len(outcomes) + 32) * _U * sum(q[label] * sizes[k] for k, label, _ in outcomes)
    validity = povm_validity(forms)
    x = (
        validity.completeness_deviation
        + len(forms) * max(0.0, -validity.min_element_eigenvalue)
        + 4 * (len(forms) + 1) * _U * sum(sizes)
    )
    lower = (g - born_error) / (1.0 + x)
    return math.nextafter(lower - 4.0 * _U * abs(lower), -math.inf), upper


def joint_list(priors, element):
    """p_j Tr(rho_j pi) for each state j, caller's order, in a list."""
    q0, q1, q2 = priors.original
    b0, b1, b2 = _born_row(element, TRINE_BLOCH)
    return [q0 * b0, q1 * b1, q2 * b2]


def posterior_list(priors, element, outcome_label):
    """The posterior of one element through :func:`joint_list`, with its zero-outcome test."""
    joint = joint_list(priors, element)
    ensemble_prob = sum(joint)
    if ensemble_prob <= _OUTCOME_TOL * element[0]:
        raise ZeroOutcomeError(f"outcome {outcome_label!r} has vanishing ensemble probability")
    return min(1.0, joint[outcome_label] / ensemble_prob)


def confidence_lists(priors, m, outcome_label):
    """``max_confidence.confidence`` through :func:`posterior_list`."""
    _, state, element = m._state_outcome(outcome_label)
    return posterior_list(priors, element, state)


def confidence_report_lists(priors):
    """``max_confidence.confidence_report`` through :func:`mc_povm_loops` and the lists."""
    m = mc_povm_loops(priors)
    per_state = []
    inconclusive = 0.0
    closed_form = mc_confidence_closed_form(priors)
    for label, element in m.forms:
        if label == INCONCLUSIVE:
            inconclusive = sum(joint_list(priors, element))
            continue
        bayes = posterior_list(priors, element, label)
        closed = closed_form[label]
        if closed is None:
            raise UndefinedError("confidence is undefined for a pure ensemble (p_i = 1)")
        if abs(bayes - closed) > 1e-10:
            raise VerificationError(f"Bayes confidence {bayes} disagrees with closed form {closed}")
        per_state.append(bayes)
    return ConfidenceReport(tuple(per_state), inconclusive, m, closed_form)


def min_error_confidence_lists(priors):
    """``max_confidence.min_error_confidence`` through :func:`posterior_list`."""
    forms = dict(optimal_measurement(priors).measurement.forms)
    return tuple(posterior_list(priors, forms[i], i) if i in forms else None for i in range(3))


def canonicalize_priors_sorted(q0, q1, q2):
    """``trine.canonicalize_priors`` with its order from a keyed, stable ``sorted``."""
    q0, q1, q2 = triple = (float(q0), float(q1), float(q2))
    if not (q0 >= 0.0 and q1 >= 0.0 and q2 >= 0.0):
        raise DomainError(f"priors must be nonnegative, got {triple}")
    total = sum(triple)
    if not abs(total - 1.0) <= _SUM_TOL:
        raise DomainError(f"priors must sum to 1 within 1e-9, got sum {total!r}")
    triple = (q0 / total, q1 / total, q2 / total)
    a, b, c = order = tuple(sorted((0, 1, 2), key=triple.__getitem__, reverse=True))
    return Priors(triple[a], triple[b], triple[c], order)
