"""Regression tests for inputs that once failed on valid priors.

- Near the p0 -> 1 corner the max-confidence path must still return a
  verified answer (its elements grow like 1/(1 - |r|^2)^2 when built from
  explicit inverses, and small Born probabilities lose their relative
  accuracy when evaluated as (t + v.n)/2).
- Confidences are probabilities: never above 1, also on the p2 = 0 edge
  where the Bayes ratio is 1 up to rounding.
- Closer to the corner, down to the purity guard, the dominant state's
  element fires with probability of order (1 - p0)^2; the zero-outcome
  guard must not mistake that for a vanishing outcome.
- The three-outcome success probability cross-check is ill-conditioned on
  the tie family (1 - 2e, e, e) for e near 1e-3; still open.
"""

import json

import numpy as np
import pytest

from trinedisc.cli import main
from trinedisc.errors import VerificationError
from trinedisc.max_confidence import (
    confidence,
    confidence_report,
    mc_confidence_closed_form,
    mc_povm,
    min_error_confidence,
)
from trinedisc.min_error import optimal_measurement
from trinedisc.trine import canonicalize_priors

NEAR_CORNER = [
    (0.998, 0.001, 0.001),
    (1.0 - 1e-6, 5e-7, 5e-7),
    (1.0 - 1e-6, 3e-7, 7e-7),
    (7e-7, 1.0 - 1e-6, 3e-7),
    # Bayes posterior 1.9e-10 off the closed form when the elements are only
    # rank-1 to rounding and Born probabilities are evaluated as (t + v.n)/2
    (9.072668466155807e-08, 0.9999989972015976, 9.120717177865787e-07),
]


@pytest.mark.parametrize("q", NEAR_CORNER)
def test_confidence_report_near_corner(q):
    pr = canonicalize_priors(*q)
    rep = confidence_report(pr)
    for i, c in enumerate(rep.per_state_confidence):
        assert 0.0 <= c <= 1.0
        assert c == pytest.approx(mc_confidence_closed_form(pr, i), abs=1e-10)
    assert rep.measurement.validity().is_valid


# 1 - p0 from 1e-7 down to 1e-9, next to the purity guard (about 6.7e-10)
FAR_CORNER = [
    (1.0 - 1e-7, 5e-8, 5e-8),
    (2e-8, 1.0 - 1e-7, 8e-8),
    (1.0 - 1e-9, 3e-10, 7e-10),
    (7e-10, 3e-10, 1.0 - 1e-9),
]


@pytest.mark.parametrize("q", FAR_CORNER)
def test_confidence_report_far_corner(q):
    pr = canonicalize_priors(*q)
    rep = confidence_report(pr)
    for i, c in enumerate(rep.per_state_confidence):
        assert c == pytest.approx(mc_confidence_closed_form(pr, i), abs=1e-10)


def test_corner_posteriors_are_well_conditioned():
    # the Bayes evaluation of the returned elements keeps full relative
    # accuracy, far inside the 1e-10 cross-check, all the way to 1e-6
    rng = np.random.default_rng(5)
    for s in np.logspace(-6, -1, 200):
        u = rng.uniform()
        q = [1.0 - s, s * u, s * (1.0 - u)]
        rng.shuffle(q)
        pr = canonicalize_priors(*q)
        m = mc_povm(pr)
        for i in range(3):
            assert confidence(pr, m, i) == pytest.approx(
                mc_confidence_closed_form(pr, i), abs=1e-13
            )


def test_confidence_sweep_to_the_corner(capsys):
    assert main(["confidence", "--delta", "0.49", "--sweep", "50"]) == 0


def test_simulate_maxconf_near_corner(capsys):
    code = main([
        "simulate", "--strategy", "maxconf", "--p0", "0.998", "--p1", "0.001",
        "--p2", "0.001", "--shots", "100000",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["se_multiple"] <= 5.0


def test_edge_confidences_are_probabilities():
    for p0 in np.linspace(0.5, 0.95, 451):
        pr = canonicalize_priors(float(p0), 1.0 - float(p0), 0.0)
        for c in confidence_report(pr).per_state_confidence:
            assert 0.0 <= c <= 1.0
        for c in min_error_confidence(pr):
            assert c is None or 0.0 <= c <= 1.0


@pytest.mark.xfail(raises=VerificationError, strict=True,
                   reason="(p, delta) cross-check of the three-outcome value loses "
                          "digits as p1 = p2 -> 0")
def test_tie_family_three_outcome_cross_check():
    e = 8.354e-4
    optimal_measurement(canonicalize_priors(1.0 - 2.0 * e, e, e))
