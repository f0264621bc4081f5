"""Matrix references the tests compare the library's Bloch forms against.

The equator kets, their projectors, the Lagrange operator Gamma as a
matrix, the two-outcome boundary matrix M and the unchecked three-outcome
POVM are all built with numpy from state vectors.  Only scalars come from
the library: the two-outcome angle, Gamma's components and the raw
three-outcome directions and weights.  Matrices become Bloch forms through
Pauli traces (:func:`bloch_form`), and so reach a :class:`Measurement`
without going through the code under test.
"""

import math

import numpy as np

from trinedisc import qubit
from trinedisc.min_error import _outcomes, gamma_three_element, theta_two_element
from trinedisc.trine import _TRINE_ANGLES

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z)


def bloch_form(m):
    """(Tr m, Tr m sigma_x, Tr m sigma_y, Tr m sigma_z) of a Hermitian 2x2 matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise ValueError("matrix is not Hermitian")
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
