"""Real Bloch algebra for qubit operators, and the Measurement boundary.

The trine states, the POVM elements and the Lagrange operator Gamma all
lie in the equator plane, so every Hermitian 2x2 operator here is carried
as a real 3-tuple b = (t, x, y) read as (t I + x sigma_x + y sigma_y)/2:
t is the trace and v = (x, y) the Bloch vector.  The closed forms need
nothing beyond these tuples:

- Tr(A B) = (a . b)/2 over all three components; for a pure state with
  Bloch vector n this is the Born probability (t + v . n)/2;
- the eigenvalues of b are (t - |v|)/2 and (t + |v|)/2;
- a rotation or reflection of the equator acts on (x, y) alone;
- a product A B C, which need not be Hermitian, has real and imaginary
  Bloch parts, from which its operator norm follows in reals.

A :class:`Measurement` is built from, and holds, (label, Bloch form) pairs,
which every layer reads directly.  Complex numbers exist only on the way
out, in the matrices of ``Measurement.elements``: :func:`from_bloch` builds
them when a caller reads them, and imports numpy only when called, so the
closed forms run without loading it.
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
    "from_bloch",
    "povm_validity",
]

#: Label for the inconclusive ("?") outcome of an incomplete strategy.
INCONCLUSIVE = "?"

PSD_TOL = 1e-10


def equator_element(weight: float, angle: float) -> tuple:
    """weight times the projector on the equator state at ``angle``."""
    return (weight, weight * math.cos(angle), weight * math.sin(angle))


def trace_product(a: Sequence[float], b: Sequence[float]) -> float:
    """Tr(A B) = (a . b)/2 for two Bloch forms."""
    return 0.5 * (a[0] * b[0] + a[1] * b[1] + a[2] * b[2])


def born(state: Sequence[float], element: Sequence[float]) -> float:
    """Born probability Tr(rho pi) of a pure state, clamped into [0, 1]; see :func:`_born_row`."""
    return _born_row(element, (state,))[0]


def _born_row(element: Sequence[float], states: Sequence[Sequence[float]]) -> list[float]:
    """Born probabilities Tr(rho pi) of one element for each pure state, clamped into [0, 1].

    For a state with unit Bloch vector n this is (t + v.n)/2, evaluated as
    (t - |v|)/2 + |v + |v| n|^2 / (4 |v|): the element's smaller eigenvalue
    plus its rank-1 part.  Nothing cancels when the element is nearly
    orthogonal to the state, so a small probability keeps its relative
    accuracy.  |v| is computed once per row; the clamp is min(1.0, max(0.0, p))
    written out, in a third of the time.
    """
    t, x, y = element
    r = math.hypot(x, y)
    if not r > 0.0:
        return [min(1.0, max(0.0, 0.5 * t))] * len(states)
    low, scale = 0.5 * (t - r), 4.0 * r
    row = []
    for _, nx, ny in states:
        p = low + ((x + r * nx) ** 2 + (y + r * ny) ** 2) / scale
        p = p if p > 0.0 else 0.0
        row.append(p if p < 1.0 else 1.0)
    return row


def rank_one(x: float, y: float) -> tuple:
    """Rank-1 Bloch form (|v|, x, y); its smaller eigenvalue is exactly 0."""
    return (math.hypot(x, y), x, y)


def _product_norm(a: Sequence[float], b: Sequence[float], c: Sequence[float]) -> float:
    """Largest singular value of the product A B C of three Bloch forms, in reals.

    (a0 + a.sigma)(b0 + b.sigma) = a0 b0 + a.b + (a0 b + b0 a + i a x b).sigma gives, on the
    equator, A B = (s + v.sigma + i wz sigma_z)/2 and A B C = (r0 + r1 sigma_x + r2 sigma_y +
    i i3 sigma_z)/2, whose Frobenius norm and determinant give the norm.  The steps are complex
    arithmetic's, in its order, so the result has its bits: a complex square is ``r * r``.
    """
    a0, ax, ay = a
    b0, bx, by = b
    c0, cx, cy = c
    s = 0.5 * (a0 * b0 + ax * bx + ay * by)
    vx, vy = 0.5 * (a0 * bx + b0 * ax), 0.5 * (a0 * by + b0 * ay)
    wz = 0.5 * (ax * by - ay * bx)
    r0 = 0.5 * (s * c0 + vx * cx + vy * cy)
    r1 = 0.5 * (s * cx + c0 * vx + wz * cy)
    r2 = 0.5 * (s * cy + c0 * vy - wz * cx)
    i3 = 0.5 * (c0 * wz + (vx * cy - vy * cx))
    frob_sq = 0.5 * sum((abs(r0) ** 2, abs(r1) ** 2, abs(r2) ** 2, abs(i3) ** 2))
    det = 0.25 * (r0 * r0 - r1 * r1 - r2 * r2 + i3 * i3)
    gap = math.sqrt(max(0.0, frob_sq * frob_sq - 4.0 * abs(det) ** 2))
    return math.sqrt(0.5 * (frob_sq + gap))


def _rows(b: Sequence[float]) -> list:
    """The rows of twice the 2x2 matrix of a Bloch form (t, x, y)."""
    t, x, y = b
    return [[t, x - 1j * y], [x + 1j * y, t]]


def from_bloch(b: Sequence[float]) -> np.ndarray:
    """The 2x2 complex matrix (t I + v.sigma)/2 of a Bloch form."""
    import numpy as np

    return 0.5 * np.array(_rows(b), dtype=complex)


def _entries(b: Sequence[float]) -> list:
    """The entries of ``from_bloch(b)`` as complex numbers, signed zeros
    included, without numpy: the same rows, each entry scaled by the
    complex product (0.5 + 0j) * entry that numpy takes too.  from_bloch
    does not build its array from these: that made the benchmark's
    ``query`` read slower, though that workload reads matrices only after
    its timer stops.
    """
    return [[(0.5 + 0.0j) * complex(v) for v in row] for row in _rows(b)]


#: ``object.__setattr__``, bound once: each record's ``__init__`` sets its
#: fields through it, past :meth:`_Record.__setattr__`.
_set_field = object.__setattr__


class _Record:
    """Base of the immutable result records: value semantics over ``_fields``.

    A record lists its fields in ``_fields`` and ``__slots__``, and the
    defaults of trailing ones in ``_defaults``; unless it writes its own
    ``__init__``, one that sets each field once through :data:`_set_field`
    is built with the class.  Assigning or deleting a field raises
    AttributeError.  Equality (same class, equal fields), the hash, the
    repr and pickling read the fields.  Not dataclasses: importing them and
    generating their methods would be most of the package's import time.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        # compiled in a class of the record's name: a wrong-arity TypeError names Record.__init__
        if "__init__" not in cls.__dict__:
            params = ", ".join(f"{f}=_d[{f!r}]" if f in cls._defaults else f for f in cls._fields)
            body = "".join(f"\n        _set_field(self, {f!r}, {f})" for f in cls._fields)
            ns = {"__name__": cls.__module__, "_set_field": _set_field, "_d": cls._defaults}
            exec(f"class {cls.__name__}:\n    def __init__(self, {params}):{body}\n", ns)
            cls.__init__ = ns[cls.__name__].__init__

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


class Measurement(_Record):
    """Labeled POVM: pairs of (label, equatorial Bloch form (t, x, y)).

    Labels are trine state indices 0/1/2 (the outcome identifies that
    state) or :data:`INCONCLUSIVE`.  The constructor takes any iterable of
    such pairs.
    """

    __slots__ = _fields = ("forms",)

    def __init__(self, forms: Iterable[tuple[object, Sequence[float]]]):
        forms = tuple((label, tuple(b)) for label, b in forms)
        if any(len(b) != 3 for _, b in forms):
            raise DomainError("Measurement takes (label, equatorial Bloch form (t, x, y)) pairs")
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

    def _state_outcome(self, label) -> tuple[int, int, tuple]:
        """(outcome index, state, form) of the first outcome of state ``label``, an int."""
        if not hasattr(label, "__index__"):  # a Python or numpy int
            raise DomainError(f"outcome label {label!r} names no trine state")
        for k, lab, b in self.state_outcomes():
            if lab == label:
                return k, int(label), b
        raise DomainError(f"measurement has no outcome labeled {int(label)}")

    def validity(self) -> PovmValidity:
        return povm_validity([b for _, b in self.forms])


def povm_validity(forms: Sequence[Sequence[float]]) -> PovmValidity:
    """Positivity and completeness, within PSD_TOL, of POVM elements given as Bloch forms."""
    if not forms:
        raise DomainError("a POVM needs at least one element")
    min_eig = min(0.5 * (b[0] - math.hypot(b[1], b[2])) for b in forms)
    # sum - I = ((T - 2) I + V.sigma)/2 has norm (|T - 2| + |V|)/2
    t, x, y = (sum(c) for c in zip(*forms))
    deviation = 0.5 * (abs(t - 2.0) + math.hypot(x, y))
    is_valid = min_eig >= -PSD_TOL and deviation <= PSD_TOL
    return PovmValidity(is_valid, min_eig, deviation)
