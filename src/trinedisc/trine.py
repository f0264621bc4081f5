"""The trine ensemble, its complements, and prior-probability handling.

The three signal states sit on the Bloch equator at 0, 2pi/3 and 4pi/3.
Priors are canonicalized to descending order p0 >= p1 >= p2 with the
permutation recorded, so every closed form downstream can assume the
ordering while callers keep their own state indexing.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import TYPE_CHECKING, Iterator

from .errors import DomainError, PureStateError
from .qubit import Measurement, _Record, _slot_setters, equator_element

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TRINE_BLOCH",
    "Priors",
    "trine_measurement",
    "antitrine_measurement",
    "mixed_e2",
    "canonicalize_priors",
    "priors_from_p_delta",
    "random_priors",
    "transform_to_original",
]

_TRINE_ANGLES = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
#: Bloch forms (1, cos a, sin a) of the three signal states.
TRINE_BLOCH = tuple(equator_element(1.0, a) for a in _TRINE_ANGLES)

_SUM_TOL = 1e-9
_PARAM_TOL = 1e-12
#: Purity Tr(rho^2) above 1 - _PURITY_TOL counts as a pure ensemble.
_PURITY_TOL = 1e-9


def trine_measurement() -> Measurement:
    """The symmetric measurement along the signal states themselves."""
    return Measurement(
        (j, equator_element(2.0 / 3.0, a)) for j, a in enumerate(_TRINE_ANGLES)
    )


def antitrine_measurement() -> Measurement:
    """Eliminatory measurement: outcome j rules out signal state j."""
    return Measurement(
        (j, equator_element(2.0 / 3.0, a + math.pi)) for j, a in enumerate(_TRINE_ANGLES)
    )


class Priors(_Record):
    """Prior triple in canonical descending order plus the caller mapping.

    ``permutation[c]`` is the caller's original index of canonical slot c,
    so a measurement element labeled c in the canonical frame identifies
    the caller's state ``permutation[c]``, a tuple of Python ints however
    it was given.  ``original`` is the triple in the caller's state order,
    computed once here: nearly every Priors built is read in that order.
    It is not a field, so equality, the hash, the repr and pickling read
    the four fields alone.
    """

    _fields = ("p0", "p1", "p2", "permutation")
    __slots__ = (*_fields, "original")

    def __init__(
        self, p0: float, p1: float, p2: float, permutation: tuple[int, int, int] = (0, 1, 2)
    ):
        triple = (p0, p1, p2)
        nonnegative, sums_to_one, descending = _canonical_checks(*triple)
        if not nonnegative:
            raise DomainError(f"priors must be nonnegative, got {triple}")
        if not sums_to_one:
            raise DomainError(f"priors must sum to 1, got {triple}")
        if not descending:
            raise DomainError(f"canonical order requires p0 >= p1 >= p2, got {triple}")
        try:
            a, b, c = permutation
            a, b, c = indices = (operator.index(a), operator.index(b), operator.index(c))
        except (TypeError, ValueError):
            indices = None
        if indices not in _PERMUTATION_MAPS:
            raise DomainError(f"invalid permutation {permutation}")
        _set_p0(self, p0)
        _set_p1(self, p1)
        _set_p2(self, p2)
        _set_permutation(self, indices)
        original = [0.0, 0.0, 0.0]
        original[a], original[b], original[c] = p0, p1, p2
        _set_original(self, tuple(original))

    @property
    def p(self) -> float:
        return 0.5 * (self.p0 + self.p1)

    @property
    def delta(self) -> float:
        return 0.5 * (self.p0 - self.p1)

    @property
    def canonical(self) -> tuple[float, float, float]:
        return (self.p0, self.p1, self.p2)


_set_p0, _set_p1, _set_p2, _set_permutation, _set_original = _slot_setters(
    Priors, *Priors.__slots__
)


def _canonical_checks(p0, p1, p2) -> tuple:
    """Whether a canonical triple passes each range check of :class:`Priors`, in order.

    Array-generic, like every expression the sweeps evaluate on columns:
    comparisons joined by ``&``, each written so that NaN fails it.
    """
    return (
        (p0 >= -_PARAM_TOL) & (p1 >= -_PARAM_TOL) & (p2 >= -_PARAM_TOL),
        abs(p0 + p1 + p2 - 1.0) <= _SUM_TOL,
        (p0 >= p1 - _PARAM_TOL) & (p1 - _PARAM_TOL >= p2 - 2 * _PARAM_TOL),
    )


def canonicalize_priors(q0: float, q1: float, q2: float) -> Priors:
    """Sort a prior triple descending, remembering where each entry came from.

    The sort is stable, so equal priors keep their original relative order.
    Triples whose sum is within 1e-9 of 1 are renormalized.
    """
    q0, q1, q2 = triple = (float(q0), float(q1), float(q2))
    if not (q0 >= 0.0 and q1 >= 0.0 and q2 >= 0.0):
        raise DomainError(f"priors must be nonnegative, got {triple}")
    total = sum(triple)
    if not abs(total - 1.0) <= _SUM_TOL:
        raise DomainError(f"priors must sum to 1 within 1e-9, got sum {total!r}")
    t0, t1, t2 = triple = (q0 / total, q1 / total, q2 / total)
    # the stable descending order, in at most three comparisons: a later
    # prior goes first only if it is strictly larger
    if t1 > t0:
        a, b, c = order = ((2, 1, 0) if t2 > t1 else (1, 2, 0)) if t2 > t0 else (1, 0, 2)
    else:
        a, b, c = order = ((2, 0, 1) if t2 > t0 else (0, 2, 1)) if t2 > t1 else (0, 1, 2)
    return Priors(triple[a], triple[b], triple[c], order)


def priors_from_p_delta(p: float, delta: float) -> Priors:
    """Build the canonical triple (p+delta, p-delta, 1-2p)."""
    (in_range, nonnegative, below_3p_1, below_p), triple = _from_p_delta(p, delta)
    if not in_range:
        raise DomainError(f"p must lie in [1/3, 1/2], got {p!r}")
    if not nonnegative:
        raise DomainError(f"delta must be nonnegative, got {delta!r}")
    if not below_3p_1:
        raise DomainError(f"delta={delta!r} violates delta <= 3p-1 = {3 * p - 1!r}")
    if not below_p:
        raise DomainError(f"delta={delta!r} violates delta <= p")
    return Priors(*triple)


def _from_p_delta(p, delta) -> tuple:
    """Whether (p, delta) passes each check of :func:`priors_from_p_delta`, in
    order, and its triple; array-generic, like :func:`_canonical_checks`."""
    checks = (
        _p_in_range(p),
        delta >= -_PARAM_TOL,
        delta <= 3.0 * p - 1.0 + _PARAM_TOL,
        delta <= p + _PARAM_TOL,
    )
    return checks, (p + delta, p - delta, 1.0 - 2.0 * p)


def _p_in_range(p):
    """Whether p is in [1/3, 1/2], below by the test that admits delta = 0; array-generic."""
    return (3.0 * p - 1.0 + _PARAM_TOL >= 0.0) & (p <= 0.5 + _PARAM_TOL)


def _e2(a, b, c):
    """ab + ac + bc, the second elementary symmetric polynomial; array-generic."""
    return a * b + a * c + b * c


def mixed_e2(priors: Priors) -> float:
    """e2 = p0 p1 + p0 p2 + p1 p2 of a mixed ensemble, in the caller's order.

    The ensemble density has purity Tr(rho^2) = 1 - 3 e2 / 2, so this is
    the one test of a pure ensemble: it raises PureStateError when
    1.5 e2 <= 1e-9, where rho has no usable inverse.
    """
    q = priors.original
    e2 = _e2(*q)
    if 1.5 * e2 <= _PURITY_TOL:
        raise PureStateError(f"ensemble density matrix is pure within tolerance (priors {q})")
    return e2


#: Priors drawn per numpy call in :func:`random_priors`.
_DRAW_BLOCK = 1024


def random_priors(rng: np.random.Generator, samples: int) -> Iterator[Priors]:
    """``samples`` canonicalized prior triples drawn uniformly from the simplex.

    They are drawn ``_DRAW_BLOCK`` rows per numpy call: a block of k rows is
    the same stream as k single draws, so memory stays bounded and the
    triples do not depend on the block size.
    """
    for start in range(0, samples, _DRAW_BLOCK):
        size = min(_DRAW_BLOCK, samples - start)
        for q in rng.dirichlet((1.0, 1.0, 1.0), size=size).tolist():
            yield canonicalize_priors(*q)


#: (eps, cos alpha, sin alpha) of the equator symmetry phi -> eps*phi + alpha that
#: sends trine angle c to trine angle permutation[c], for each permutation: the
#: even ones are rotations by a multiple of 2pi/3, the odd ones add a reflection.
_PERMUTATION_MAPS = {
    (a, b, c): (1 if (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1,
                math.cos(_TRINE_ANGLES[a]), math.sin(_TRINE_ANGLES[a]))
    for a, b, c in itertools.permutations(range(3))
}


def transform_to_original(elements, permutation) -> Measurement:
    """Carry canonical-frame (state label, Bloch form) elements to the caller's order.

    Each Bloch vector is rotated (and reflected, for odd permutations) in
    the equator plane so that alignment with canonical state c becomes
    alignment with original state permutation[c]; labels map the same way.
    The map keeps both eigenvalues; the smaller one, (t - |v|)/2, is
    carried over exactly, so a rank-1 element stays exactly rank-1.
    Returns the Measurement the caller sees.
    """
    eps, cos_a, sin_a = _PERMUTATION_MAPS[tuple(permutation)]
    out = []
    for label, (t, x, y) in elements:
        gap = t - math.hypot(x, y)
        y = eps * y
        x, y = cos_a * x - sin_a * y, sin_a * x + cos_a * y
        out.append((permutation[label], (gap + math.hypot(x, y), x, y)))
    out.sort()  # by label: the labels are distinct ints
    return Measurement(out)
