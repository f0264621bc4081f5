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
  the tie family (1 - 2e, e, e) for e near 1e-3, and ``curves`` meets it
  at the delta = 3p - 1 endpoint for p just below 1/2; still open.
- The (p, delta) form of the three-outcome value has a pole at
  (4/9, 4/9, 1/9), a grid point of ``curves --delta-values 0`` whenever
  steps - 1 is divisible by 3.  Within about 1e-8 of it both forms are
  near 3.7e6 and their cross-check trips; still open.
- The max-confidence POVM, the grid search and ``confidence --sweep``
  must call the same priors pure: the sweep once dropped rows that the
  POVM answers.
- The <psi_j| Gamma^{-1} |psi_j> = 1/p_j check of the three-outcome
  construction must allow for the rounding of its own summands, which grow
  like 1/e on the tie edge (1 - 2e, e, e).
- Deeper on the tie edge, for e below about 1.3e-16, the denominator
  a^2 - |b|^2 of Gamma's trace rounds to exactly 0; a public caller must
  get a TrineError there too, not a bare ZeroDivisionError.
- NaN passes every range check written as ``x < lo``, so a NaN prior or
  delta must fail the range check, not reach the order check; the CLI must
  refuse a non-finite ``--delta`` or value-list entry before it builds an
  axis from it.
- The p axis of a sweep at fixed delta starts at delta itself when
  delta > 1/2, so an out-of-range delta was reported as a bad p the caller
  never gave; the range check must name the delta flag.
- On the tie edge (1 - 2e, e, e) with e of a few 1e-9 and below, the three
  outcome directions of the unchecked three-outcome construction round to
  collinear and its completeness system to singular; a public caller must
  get a TrineError, not a bare ZeroDivisionError.
- ``optimal`` printed det M next to the region boundary from an expanded
  quartic, whose twelve terms cancel to 1e-10 and leave it wrong from the
  sixth digit.
"""

import contextlib
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from trinedisc.cli import main
from trinedisc.errors import DomainError, PureStateError, UndefinedError, VerificationError
from trinedisc.max_confidence import (
    confidence,
    confidence_report,
    mc_confidence_closed_form,
    mc_povm,
    min_error_confidence,
)
from trinedisc.min_error import gamma_three_element, optimal_measurement
from trinedisc.trine import Priors, canonicalize_priors, priors_from_p_delta

from grid_search import brute_force_max_confidence
from reference import three_element_weights_raw

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
        assert c == pytest.approx(mc_confidence_closed_form(pr)[i], abs=1e-10)
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
        assert c == pytest.approx(mc_confidence_closed_form(pr)[i], abs=1e-10)


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
                mc_confidence_closed_form(pr)[i], abs=1e-13
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


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the same cross-check trips at the delta = 3p - 1 endpoint")
def test_curves_near_half_p_three_outcome_cross_check(capsys):
    assert main(["curves", "--p-values", "0.4999", "--steps", "5"]) == 0


@pytest.mark.parametrize("e", [1e-7, 1e-9])
@pytest.mark.parametrize(
    "fn",
    [gamma_three_element, three_element_weights_raw],
    ids=["gamma_three_element", "three_element_weights_raw"],
)
def test_gamma_inverse_check_on_the_tie_edge(fn, e):
    # outside the three-outcome region, but public callers reach it
    fn(canonicalize_priors(1.0 - 2.0 * e, e, e))


def test_three_outcome_weights_on_the_tie_edge_raise_a_trine_error():
    for e in np.logspace(-12, -2, 400).tolist():
        with contextlib.suppress(UndefinedError):
            three_element_weights_raw(canonicalize_priors(1.0 - 2.0 * e, e, e))


@pytest.mark.parametrize(
    "fn",
    [gamma_three_element, three_element_weights_raw],
    ids=["gamma_three_element", "three_element_weights_raw"],
)
def test_gamma_on_the_deep_tie_edge_raises_a_trine_error(fn):
    undefined = 0
    for e in np.logspace(-17, -14, 400).tolist():
        try:
            fn(canonicalize_priors(1.0 - 2.0 * e, e, e))
        except UndefinedError:
            undefined += 1
    assert undefined >= 100


def test_curves_through_the_three_outcome_pole(capsys):
    assert main(["curves", "--delta-values", "0", "--steps", "40"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out.split("\n", 1)[1])))
    pole = [r for r in rows if r["p"] == f"{4.0 / 9.0:.12g}"]
    assert len(pole) == 1 and pole[0]["p_3el"] == ""


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="both three-outcome forms are about 3.7e6 next to the pole "
                          "and disagree beyond the cross-check")
def test_curves_next_to_the_three_outcome_pole(capsys):
    assert main(["curves", "--p-values", "0.44444444", "--steps", "3"]) == 0


def sweep_p_values(capsys, delta: float) -> list[float]:
    """The p column of ``confidence --delta delta --sweep 2``."""
    assert main(["confidence", "--delta", repr(delta), "--sweep", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    return [float(row["p"]) for row in csv.DictReader(io.StringIO("\n".join(lines[1:])))]


def test_confidence_sweep_keeps_answered_corner_row(capsys):
    # the p = 1/2 row, priors (1 - 8e-10, 8e-10, 0), has a verified report
    confidence_report(priors_from_p_delta(0.5, 0.4999999992))
    assert len(sweep_p_values(capsys, 0.4999999992)) == 2


#: The smallest delta whose p = 1/2 priors (1 - s, s, 0), s = 1/2 - delta,
#: count as pure: 1.5 e2 <= 1e-9 first holds at s of about 6.67e-10.
PURE_EDGE_DELTA = 0.49999999933333333
EDGE_DELTAS = [
    0.5 - 8e-10,
    math.nextafter(math.nextafter(PURE_EDGE_DELTA, 0.0), 0.0),
    math.nextafter(PURE_EDGE_DELTA, 0.0),
    PURE_EDGE_DELTA,
    math.nextafter(PURE_EDGE_DELTA, 1.0),
    0.5 - 6e-10,
]


def refuses(fn) -> bool:
    try:
        fn()
    except PureStateError:
        return True
    return False


def test_pure_ensemble_refused_the_same_everywhere(capsys):
    for delta in EDGE_DELTAS:
        pr = priors_from_p_delta(0.5, delta)
        pure = delta >= PURE_EDGE_DELTA
        assert refuses(lambda: mc_povm(pr)) == pure
        assert refuses(lambda: brute_force_max_confidence([pr], [0], 16, 0)) == pure
        assert (0.5 not in sweep_p_values(capsys, delta)) == pure


@pytest.mark.parametrize("build, args, message", [
    (canonicalize_priors, (math.nan, 0.5, 0.5), r"priors must be nonnegative, got \(nan"),
    (Priors, (0.5, 0.5, math.nan), r"priors must be nonnegative, got \(0.5, 0.5, nan\)"),
    (priors_from_p_delta, (0.4, math.nan), "delta must be nonnegative, got nan"),
])
def test_nan_priors_fail_the_range_checks(build, args, message):
    with pytest.raises(DomainError, match=message):
        build(*args)


@pytest.mark.parametrize("argv, message", [
    (["optimal", "--p", "0.4", "--delta", "nan"], "delta must be nonnegative, got nan"),
    (["curves", "--delta-values", "inf", "--steps", "3"], "--delta-values must be finite, got inf"),
    (["curves", "--p-values", "0.4,nan", "--steps", "3"], "--p-values must be finite, got nan"),
    (["confidence", "--delta", "inf", "--sweep", "3"], "--delta must be finite, got inf"),
])
def test_non_finite_cli_values_name_the_bad_value(capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("argv, message", [
    (["confidence", "--delta", "0.9", "--sweep", "3"], "--delta must lie in [0, 1/2], got 0.9"),
    (["curves", "--delta-values", "0.6", "--steps", "3"],
     "--delta-values must lie in [0, 1/2], got 0.6"),
    (["curves", "--delta-values", "0.1,-0.2", "--steps", "3"],
     "--delta-values must lie in [0, 1/2], got -0.2"),
])
def test_out_of_range_sweep_delta_names_its_flag(capsys, argv, message):
    assert (main(argv), capsys.readouterr().err) == (2, f"error: {message}\n")


def test_boundary_determinant_prints_its_exact_digits(capsys):
    # 2.6e-10 below the boundary delta_c at p = 0.42; the exact det M of
    # these float priors, in fractions, is 7.78765927733e-11
    assert main(["optimal", "--p", "0.42", "--delta", "0.253534207"]) == 0
    [line] = [x for x in capsys.readouterr().out.splitlines() if x.startswith("determinant:")]
    assert float(line.split()[1]) == pytest.approx(7.78765927733e-11, rel=1e-9, abs=0)
