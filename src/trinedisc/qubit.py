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

A :class:`Measurement` is built from, and holds, (label, Bloch form) pairs,
which every layer reads directly.  Complex matrices exist only on the way
out: :func:`from_bloch` builds them when a caller reads them, and imports
numpy only when called, so the closed forms run without loading it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "INCONCLUSIVE",
    "Measurement",
    "PovmValidity",
    "equator_element",
    "trace_product",
    "born",
    "rank_one",
    "bloch_product",
    "operator_norm",
    "from_bloch",
    "povm_validity",
]

#: Label for the inconclusive ("?") outcome of an incomplete strategy.
INCONCLUSIVE = "?"

PSD_TOL = 1e-10


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


def _entries(b: Sequence[float]) -> list:
    """The (real, imaginary) entries of ``from_bloch(b)``, signed zeros
    included, without numpy.

    from_bloch scales [[t + z, x - iy], [x + iy, t - z]] by 0.5 as complex
    products, so the sign of a zero part follows the other part:
    iy = (0.0 * y - 0.0, y), and (re, im) scales to
    (0.5 * re - 0.0 * im, 0.5 * im + 0.0 * re).  from_bloch keeps numpy's
    own expression: built from these entries, it made the benchmark's
    ``query`` read slower, though that workload reads matrices only after
    its timer stops.
    """
    t, x, y, z = b
    iy_re, iy_im = 0.0 * y - 0.0, y
    rows = (
        ((t + z, 0.0), (x - iy_re, 0.0 - iy_im)),
        ((x + iy_re, 0.0 + iy_im), (t - z, 0.0)),
    )
    return [[(0.5 * re - 0.0 * im, 0.5 * im + 0.0 * re) for re, im in row] for row in rows]


def _smaller_eigenvalue(b: Sequence[float]) -> float:
    return 0.5 * (b[0] - math.hypot(b[1], b[2], b[3]))


#: ``object.__setattr__``, bound once: each record's ``__init__`` sets its
#: fields through it, past :meth:`_Record.__setattr__`.
_set_field = object.__setattr__


class _Record:
    """Base of the immutable result records: value semantics over ``_fields``.

    A record's fields are set once, by its ``__init__`` through
    :data:`_set_field`; assigning or deleting an attribute afterwards
    raises AttributeError.  Two records are equal when they are of the same
    class and their fields are equal; the hash, the repr and pickling read
    the same fields.  Plain classes rather than dataclasses, because
    importing ``dataclasses`` and generating their methods would be most of
    the package's import time.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class PovmValidity(_Record):
    """Diagnostic report on positivity and completeness of a POVM."""

    __slots__ = _fields = ("is_valid", "min_element_eigenvalue", "completeness_deviation")

    def __init__(
        self, is_valid: bool, min_element_eigenvalue: float, completeness_deviation: float
    ):
        _set_field(self, "is_valid", is_valid)
        _set_field(self, "min_element_eigenvalue", min_element_eigenvalue)
        _set_field(self, "completeness_deviation", completeness_deviation)


class Measurement(_Record):
    """Labeled POVM: pairs of (label, Bloch form).

    Labels are trine state indices 0/1/2 (the outcome identifies that
    state) or :data:`INCONCLUSIVE`.  The constructor takes any iterable of
    such pairs.
    """

    __slots__ = _fields = ("forms",)

    def __init__(self, forms: Iterable[tuple[object, Sequence[float]]]):
        forms = tuple((label, tuple(b)) for label, b in forms)
        if any(len(b) != 4 for _, b in forms):
            raise DomainError("Measurement takes (label, Bloch form (t, x, y, z)) pairs")
        _set_field(self, "forms", forms)

    @property
    def elements(self) -> tuple[tuple[object, np.ndarray], ...]:
        """The (label, 2x2 complex matrix) pairs, built on each read."""
        return tuple((label, from_bloch(b)) for label, b in self.forms)

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.forms)

    def state_outcomes(self) -> list[tuple[int, int, tuple]]:
        """(outcome index, label, form) of each outcome that names a trine state.

        The state labels are 0, 1 and 2; :data:`INCONCLUSIVE` is not one.
        """
        return [(k, lab, b) for k, (lab, b) in enumerate(self.forms) if lab in (0, 1, 2)]

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
    is_valid = min_eig >= -PSD_TOL and deviation <= PSD_TOL
    return PovmValidity(is_valid, min_eig, deviation)
