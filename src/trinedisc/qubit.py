"""Real Bloch algebra for qubit operators, and the Measurement boundary.

Every Hermitian 2x2 operator is carried as a real 4-tuple b = (t, x, y, z)
read as (t I + x sigma_x + y sigma_y + z sigma_z)/2: t is the trace and
v = (x, y, z) the Bloch vector.  The trine states, the POVM elements and
the Lagrange operator Gamma all lie in the equator plane (z = 0), so the
closed forms need nothing beyond these tuples:

- Tr(A B) = (a . b)/2 over all four components; for a pure state with
  Bloch vector n this is the Born probability (t + v . n)/2;
- the eigenvalues of b are (t - |v|)/2 and (t + |v|)/2;
- a rotation or reflection of the equator acts on (x, y) alone.

A :class:`Measurement` holds (label, Bloch form) pairs, which every layer
reads directly.  Complex matrices exist only at the boundary:
:func:`from_bloch` builds them when a caller reads them, and
:func:`bloch_decomposition` reads matrices that arrive from outside, which
is the one place Hermiticity is checked.  Both import numpy when called,
so the closed forms run without loading it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "INCONCLUSIVE",
    "Measurement",
    "PovmValidity",
    "pure_state_from_equator_angle",
    "equator_element",
    "trace_product",
    "born",
    "rank_one",
    "bloch_product",
    "operator_norm",
    "from_bloch",
    "bloch_decomposition",
    "povm_validity",
]

#: Label for the inconclusive ("?") outcome of an incomplete strategy.
INCONCLUSIVE = "?"

PSD_TOL = 1e-10
#: Largest anti-Hermitian part, relative to the largest entry, that an
#: incoming matrix may carry.
_HERMITICITY_TOL = 1e-12


def pure_state_from_equator_angle(phi: float) -> np.ndarray:
    """Equatorial pure state (|0> + e^{i phi}|1>)/sqrt(2)."""
    import numpy as np

    if not math.isfinite(phi):
        raise DomainError(f"equator angle must be finite, got {phi!r}")
    return np.array([1.0, np.exp(1j * phi)], dtype=complex) / np.sqrt(2.0)


def equator_element(weight: float, angle: float) -> tuple:
    """weight times the projector on the equator state at ``angle``."""
    return (weight, weight * math.cos(angle), weight * math.sin(angle), 0.0)


def trace_product(a: Sequence[float], b: Sequence[float]) -> float:
    """Tr(A B) = (a . b)/2 for two Bloch forms."""
    return 0.5 * (a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3])


def born(state: Sequence[float], element: Sequence[float]) -> float:
    """Born probability Tr(rho pi) of a pure state, clamped into [0, 1].

    For a state with unit Bloch vector n this is (t + v.n)/2, evaluated as
    (t - |v|)/2 + |v + |v| n|^2 / (4 |v|): the element's smaller eigenvalue
    plus its rank-1 part.  Nothing cancels when the element is nearly
    orthogonal to the state, so a small probability keeps its relative
    accuracy.
    """
    t, x, y, z = element
    r = math.hypot(x, y, z)
    p = 0.5 * t
    if r > 0.0:
        _, nx, ny, nz = state
        p = 0.5 * (t - r) + ((x + r * nx) ** 2 + (y + r * ny) ** 2 + (z + r * nz) ** 2) / (4.0 * r)
    return min(1.0, max(0.0, p))


def rank_one(x: float, y: float) -> tuple:
    """Equatorial rank-1 Bloch form (|v|, x, y, 0); its smaller eigenvalue is exactly 0."""
    return (math.hypot(x, y, 0.0), x, y, 0.0)


def bloch_product(a: Sequence, b: Sequence) -> tuple:
    """Bloch form of the matrix product A B; complex, as A B need not be Hermitian.

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


def operator_norm(b: Sequence) -> float:
    """Largest singular value of a (possibly complex) Bloch form.

    From the Frobenius norm and the determinant of the 2x2 matrix.
    """
    frob_sq = 0.5 * sum(abs(c) ** 2 for c in b)
    det = 0.25 * (b[0] ** 2 - b[1] ** 2 - b[2] ** 2 - b[3] ** 2)
    gap = math.sqrt(max(0.0, frob_sq * frob_sq - 4.0 * abs(det) ** 2))
    return math.sqrt(0.5 * (frob_sq + gap))


def from_bloch(b: Sequence[float]) -> np.ndarray:
    """The 2x2 complex matrix (t I + v.sigma)/2 of a Bloch form."""
    import numpy as np

    t, x, y, z = b
    return 0.5 * np.array([[t + z, x - 1j * y], [x + 1j * y, t - z]], dtype=complex)


def bloch_decomposition(m: np.ndarray) -> tuple:
    """Bloch form (t, x, y, z) of a Hermitian 2x2 matrix; inverse of from_bloch."""
    import numpy as np

    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {m.shape}")
    (a, b), (c, d) = m.tolist()
    scale = max(1.0, abs(a), abs(b), abs(c), abs(d))
    skew = max(2.0 * abs(a.imag), 2.0 * abs(d.imag), abs(b - c.conjugate()))
    if skew > _HERMITICITY_TOL * scale:
        raise DomainError("matrix is not Hermitian within tolerance")
    return (a.real + d.real, 2.0 * c.real, 2.0 * c.imag, a.real - d.real)


def _integer_types() -> tuple:
    # a numpy integer can exist only once numpy is loaded
    numpy = sys.modules.get("numpy")
    return (int,) if numpy is None else (int, numpy.integer)


def _smaller_eigenvalue(b: Sequence[float]) -> float:
    return 0.5 * (b[0] - math.hypot(b[1], b[2], b[3]))


@dataclass(frozen=True)
class PovmValidity:
    """Diagnostic report on positivity and completeness of a POVM."""

    is_valid: bool
    min_element_eigenvalue: float
    completeness_deviation: float


@dataclass(frozen=True)
class Measurement:
    """Labeled POVM: pairs of (label, Bloch form).

    Labels are trine state indices 0/1/2 (the outcome identifies that
    state) or :data:`INCONCLUSIVE`.  The constructor takes any iterable of
    such pairs; 2x2 matrices enter through :meth:`from_matrices`.
    """

    forms: tuple[tuple[object, tuple], ...]

    def __post_init__(self):
        forms = tuple((label, tuple(b)) for label, b in self.forms)
        if any(len(b) != 4 for _, b in forms):
            raise DomainError(
                "Measurement takes (label, Bloch form) pairs; "
                "use Measurement.from_matrices for 2x2 matrices"
            )
        object.__setattr__(self, "forms", forms)

    @classmethod
    def from_matrices(cls, elements: Iterable[tuple[object, np.ndarray]]) -> Measurement:
        """A Measurement from (label, Hermitian 2x2 matrix) pairs."""
        return cls((label, bloch_decomposition(op)) for label, op in elements)

    @property
    def elements(self) -> tuple[tuple[object, np.ndarray], ...]:
        """The (label, 2x2 complex matrix) pairs, built on each read."""
        return tuple((label, from_bloch(b)) for label, b in self.forms)

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.forms)

    def element(self, label) -> np.ndarray:
        for lab, b in self.forms:
            if lab == label:
                return from_bloch(b)
        raise KeyError(f"no element labeled {label!r}")

    def operators(self) -> list[np.ndarray]:
        return [from_bloch(b) for _, b in self.forms]

    def state_outcomes(self) -> list[tuple[int, int, tuple]]:
        """(outcome index, label, form) of each outcome that names a trine state.

        A state label is a Python or numpy integer; :data:`INCONCLUSIVE` is not.
        """
        integer = _integer_types()
        return [(k, lab, b) for k, (lab, b) in enumerate(self.forms) if isinstance(lab, integer)]

    def validity(self) -> PovmValidity:
        return povm_validity([b for _, b in self.forms])


def povm_validity(forms: Sequence[Sequence[float]]) -> PovmValidity:
    """Positivity and completeness, within PSD_TOL, of POVM elements given as Bloch forms."""
    if not forms:
        raise DomainError("a POVM needs at least one element")
    min_eig = min(_smaller_eigenvalue(b) for b in forms)
    # sum - I = ((T - 2) I + V.sigma)/2 has norm (|T - 2| + |V|)/2
    t, x, y, z = (sum(c) for c in zip(*forms))
    deviation = 0.5 * (abs(t - 2.0) + math.hypot(x, y, z))
    return PovmValidity(
        is_valid=(min_eig >= -PSD_TOL and deviation <= PSD_TOL),
        min_element_eigenvalue=min_eig,
        completeness_deviation=deviation,
    )
