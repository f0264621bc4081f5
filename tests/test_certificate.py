"""Certified bounds against exact values, planted faults and the grid search.

Exact values need only the standard library.  A float prior is the
rational it denotes; the three-outcome optimum and the maximum confidence
are rational in the priors, and the square roots in the two-outcome
optimum and in the trine states' sqrt(3)/2 are bracketed with
``math.isqrt``.  Which branch is optimal follows from the exact sign of
det M = (p0 - p2)(p1 - p2)(p0 p1 + 3 p2) - 3 p2^4, the two-outcome
boundary determinant written in factored form.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from trinedisc.errors import UndefinedError, VerificationError, ZeroPriorError
from trinedisc.max_confidence import confidence_report, mc_confidence_closed_form
from trinedisc.min_error import (
    check_helstrom,
    critical_delta,
    optimal_measurement,
)
from trinedisc.oracle import certify_max_confidence, certify_min_error
from trinedisc.qubit import Measurement
from trinedisc.trine import (
    TRINE_BLOCH,
    antitrine_measurement,
    canonicalize_priors,
    priors_from_p_delta,
    random_priors,
    trine_measurement,
)

from grid_search import brute_force_min_error
from reference import three_element_measurement, two_element_measurement

U = 2.0**-53
_BITS = 200


def sqrt_bracket(x: Fraction) -> tuple[Fraction, Fraction]:
    """Rationals lo <= sqrt(x) <= hi, 2^-200 apart, for x >= 0."""
    n = x.numerator * 4**_BITS // x.denominator
    r = math.isqrt(n)  # r^2 <= n <= x 4^B < n + 1 <= (r + 1)^2
    return Fraction(r, 2**_BITS), Fraction(r + 1, 2**_BITS)


HALF_SQRT3 = tuple(v / 2 for v in sqrt_bracket(Fraction(3)))


def exact_det(q) -> Fraction:
    """det M for priors ``q``, any order, normalized to sum to 1."""
    p0, p1, p2 = sorted(map(Fraction, q), reverse=True)
    s = p0 + p1 + p2
    p0, p1, p2 = p0 / s, p1 / s, p2 / s
    return (p0 - p2) * (p1 - p2) * (p0 * p1 + 3 * p2) - 3 * p2**4


def exact_optimum(q) -> tuple[Fraction, Fraction]:
    """Bracket on the optimal success probability for priors ``q``, any order."""
    p0, p1, p2 = sorted(map(Fraction, q), reverse=True)
    s = p0 + p1 + p2
    p0, p1, p2 = p0 / s, p1 / s, p2 / s
    if p2 > 0 and exact_det(q) < 0:
        e2 = p0 * p1 + p0 * p2 + p1 * p2
        value = s * 2 * e2 / (2 - (p0 * p1 / p2 + p0 * p2 / p1 + p1 * p2 / p0))
        return value, value
    lo, hi = sqrt_bracket(p0 * p0 + p0 * p1 + p1 * p1)
    return s * (p0 + p1 + lo) / 2, s * (p0 + p1 + hi) / 2


def exact_max_confidence(q, i) -> Fraction:
    """p_i o_i / e2, with o_i the sum of the other two priors."""
    q = [Fraction(x) for x in q]
    e2 = q[0] * q[1] + q[0] * q[2] + q[1] * q[2]
    return q[i] * (sum(q) - q[i]) / e2


def exact_born_lower(q, measurement) -> Fraction:
    """Lower end of the bracket on the Born sum with the exact trine states."""
    total = Fraction(0)
    for _, label, (t, x, y) in measurement.state_outcomes():
        t, x, y = Fraction(t), Fraction(x), Fraction(y)
        if label == 0:
            dot = x
        else:
            sign = 1 if label == 1 else -1
            dot = -x / 2 + min(sign * y * h for h in HALF_SQRT3)
        total += Fraction(q[label]) * (t + dot) / 2
    return total


def answers(priors):
    """(priors, measurement) pairs to certify: the dispatched answer in the
    caller's order, where it passes its own checks, and both unchecked
    constructions in the canonical frame."""
    out = [(priors.canonical, two_element_measurement(priors))]
    for frame, build in ((priors.canonical, three_element_measurement),
                         (priors.original, lambda p: optimal_measurement(p).measurement)):
        try:
            out.append((frame, build(priors)))
        except (ZeroPriorError, UndefinedError, VerificationError):
            # a zero prior or collinear outcome directions, or the
            # ill-conditioned three-outcome cross-check on the tie edge
            pass
    return out


def tie_priors():
    return [
        canonicalize_priors(1.0 - 2.0 * e, e, e)
        for e in np.logspace(-9.0, math.log10(0.3), 400)
    ]


def boundary_priors():
    out = []
    for p in (0.38, 0.39, 0.40, 0.42, 0.44, 0.46, 0.48):
        delta_c = critical_delta(p)
        for k in range(-3, 4):
            out.append(priors_from_p_delta(p, delta_c + k * 1e-10))
    return out


FAMILIES = {
    "tie": tie_priors,
    "boundary": boundary_priors,
    "uniform": lambda: [canonicalize_priors(1 / 3, 1 / 3, 1 / 3)],
}


def test_trine_floats_within_the_assumed_10u():
    exact = [(Fraction(1), (Fraction(0),) * 2), (Fraction(-1, 2), HALF_SQRT3),
             (Fraction(-1, 2), tuple(-h for h in HALF_SQRT3))]
    for (_, nx, ny), (ex, ey) in zip(TRINE_BLOCH, exact):
        dy = max(abs(Fraction(ny) - e) for e in ey)
        assert (Fraction(nx) - ex) ** 2 + dy**2 <= Fraction(10 * U) ** 2


@pytest.mark.parametrize("family", FAMILIES)
def test_min_error_bounds_bracket_the_exact_optimum(family):
    # on the tie points U in plain floats falls below the exact optimum for
    # some answers; rounded outward it never does
    priors = FAMILIES[family]()
    if family == "boundary":
        assert all(abs(exact_det(p.canonical)) < 1e-9 for p in priors)
    certified = 0
    for pr in priors:
        opt_lo, opt_hi = exact_optimum(pr.original)
        for q, m in answers(pr):
            lower, upper = certify_min_error(q, m, check_helstrom(q, m))
            assert Fraction(lower) <= opt_lo and opt_hi <= Fraction(upper), (pr.original, m)
            if m.validity().is_valid:
                assert Fraction(lower) <= exact_born_lower(q, m), (pr.original, m)
            certified += 1
    assert certified >= 2 * len(priors)


@pytest.mark.parametrize("family", FAMILIES)
def test_confidence_bounds_bracket_the_exact_maximum(family):
    priors = FAMILIES[family]()
    for pr in priors:
        bounds = certify_max_confidence(pr, confidence_report(pr))
        for i, (lower, upper) in enumerate(bounds):
            exact = exact_max_confidence(pr.original, i)
            assert Fraction(lower) <= exact <= Fraction(upper), (pr.original, i)


def test_bounds_are_tight_on_the_answers():
    rng = np.random.default_rng(97)
    for pr in random_priors(rng, 200):
        result = optimal_measurement(pr)
        lower, upper = certify_min_error(pr.original, result.measurement, result.helstrom)
        assert lower <= result.p_correct <= upper
        assert upper - lower < 1e-13
        for i, (lower, upper) in enumerate(certify_max_confidence(pr, confidence_report(pr))):
            closed = mc_confidence_closed_form(pr)[i]
            assert lower <= closed <= upper
            assert upper - lower < 1e-11


def test_bounds_hold_for_any_measurement():
    uniform = (1 / 3, 1 / 3, 1 / 3)
    # the trine measurement is optimal at equal priors; the anti-trine one
    # never identifies its state
    trine, anti = trine_measurement(), antitrine_measurement()
    lower, upper = certify_min_error(uniform, trine, check_helstrom(uniform, trine))
    assert lower <= 2 / 3 <= upper and upper - lower < 1e-13
    lower, upper = certify_min_error(uniform, anti, check_helstrom(uniform, anti))
    assert lower <= 0.0 and upper >= 2 / 3
    # elements 10% too large sum past the identity and claim more than the
    # optimum, but the lower bound is what they achieve as a POVM
    pr = canonicalize_priors(0.5, 0.3, 0.2)
    m = optimal_measurement(pr).measurement
    scaled = Measurement((label, tuple(1.1 * c for c in b)) for label, b in m.forms)
    report = check_helstrom(pr.original, scaled)
    assert report.success_probability > 0.75
    lower, upper = certify_min_error(pr.original, scaled, report)
    assert lower <= 0.75 <= upper


def rotated(m: Measurement, phi: float) -> Measurement:
    """Every element turned by ``phi`` about the equator's normal: a valid POVM."""
    c, s = math.cos(phi), math.sin(phi)
    return Measurement(
        (label, (t, c * x - s * y, s * x + c * y)) for label, (t, x, y) in m.forms
    )


def test_certificate_trips_on_every_fault_the_grid_search_catches():
    rng = np.random.default_rng(89)
    priors = [*random_priors(rng, 12),
        canonicalize_priors(0.6, 0.2, 0.2),
        canonicalize_priors(1 / 3, 1 / 3, 1 / 3),
        canonicalize_priors(0.34, 0.33, 0.33),
    ]
    found = [r.best_value for r in brute_force_min_error(priors)]
    sizes = [s * 10.0**k for k in range(-6, -1) for s in (1.0, -1.0)]
    caught = {"rotation": 0, "offset": 0}
    for pr, grid_value in zip(priors, found):
        result = optimal_measurement(pr)
        # the grid search agrees with every genuine answer, so all it can
        # catch at 1e-9 (or at verify's former 1e-4) is a fault
        assert abs(grid_value - result.p_correct) < 1e-12
        opt_lo, opt_hi = exact_optimum(pr.original)
        genuine = certify_min_error(pr.original, result.measurement, result.helstrom)
        planted = []
        for phi in sizes:
            m = rotated(result.measurement, phi)
            report = check_helstrom(pr.original, m)
            lower, upper = certify_min_error(pr.original, m, report)
            # the true gap never exceeds the certified one
            assert Fraction(lower) <= opt_lo and opt_hi <= Fraction(upper)
            planted.append(("rotation", report.success_probability, (lower, upper)))
        planted += [("offset", result.p_correct + offset, genuine) for offset in sizes]
        for kind, claimed, (lower, upper) in planted:
            trips = max(upper - claimed, claimed - lower) > 1e-10
            catches = abs(grid_value - claimed) > 1e-9
            assert trips or not catches, (pr.original, kind, claimed)
            assert trips or kind == "rotation"
            caught[kind] += catches
    # both kinds of fault are within the grid search's reach
    assert caught["rotation"] >= 2 * len(priors)
    assert caught["offset"] == len(priors) * len(sizes)
