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
- ``curves`` admits a p within tolerance below 1/3, but ran its delta axis
  from 0 to 3p - 1 < 0, so every row after the first had p0 < p1 and the
  sweep stopped on a canonical-order error.
- Below about 1/3 - 3.3e-13 the p tolerance still admitted a p at which
  no delta is admissible, not even 0: ``curves`` stopped with a
  ``delta <= 3p - 1`` error at its first row while ``critical_delta``
  answered at that p.  Such a p must be refused as out of range.
- A confidence asked of an outcome label that names no trine state (the
  inconclusive label, a float, a state with no outcome) failed with a bare
  TypeError, KeyError or numpy IndexError; both the analytic and the Monte
  Carlo confidence must refuse it with a DomainError, and take a numpy-int
  state label as its int.
- ``verify`` compared each certificate's distance with ``>``, which is never
  true for NaN, so a NaN bound passed as ``"ok": true``; it must fail the
  run and be named as the worst.
- ``check_helstrom`` took the smallest eigenvalue with ``min``, which skips
  a NaN after the first, so a NaN prior of a state the measurement does not
  name passed; and it zipped the priors with the states, so two or four
  priors passed too.  ``certify_min_error`` read the same report.
- ``simulate`` added its counts in int64 cells: 2**63 shots overflowed
  numpy's multinomial with a traceback, and 2**64 - 2 shots in two
  partitions printed negative counts.  Shots beyond 2**63 - 1 must be
  refused.
"""

import contextlib
import csv
import io
import json
import math
import re
import warnings

import numpy as np
import pytest

import trinedisc.cli
from trinedisc.cli import main, sig12
from trinedisc.errors import DomainError, PureStateError, UndefinedError, VerificationError
from trinedisc.max_confidence import (
    ConfidenceReport,
    confidence,
    confidence_report,
    mc_confidence_closed_form,
    mc_povm,
    min_error_confidence,
)
from trinedisc.min_error import (
    check_helstrom,
    critical_delta,
    gamma_three_element,
    optimal_measurement,
)
from trinedisc.oracle import certify_min_error
from trinedisc.simulate import estimate_confidence, estimate_success
from trinedisc.trine import Priors, canonicalize_priors, priors_from_p_delta, random_priors

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


def test_curves_at_a_p_just_below_a_third_runs_delta_at_0(capsys):
    assert main(["curves", "--p-values", "0.3333333333330,0.34", "--steps", "3"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out.split("\n", 1)[1])))
    third = [r for r in rows if r["p"] == "0.333333333333"]
    assert len(rows) == 6 and len(third) == 3
    assert [float(r["delta"]) for r in third] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("p", [0.3333333333325, 0.33333333333295])
def test_a_p_below_a_third_that_admits_no_delta_is_out_of_range(capsys, p):
    message = f"p must lie in [1/3, 1/2], got {p!r}"
    argv = ["curves", "--p-values", repr(p), "--steps", "3"]
    assert (main(argv), capsys.readouterr().err) == (2, f"error: {message}\n")
    for refused in (lambda: critical_delta(p), lambda: priors_from_p_delta(p, 0.0)):
        with pytest.raises(DomainError, match=re.escape(message)):
            refused()


@pytest.mark.parametrize(
    "label, message",
    [
        ("?", "outcome label '?' names no trine state"),
        (1.0, "outcome label 1.0 names no trine state"),
        (7, "measurement has no outcome labeled 7"),
        (np.int64(7), "measurement has no outcome labeled 7"),
    ],
    ids=["inconclusive", "float", "absent", "numpy_absent"],
)
def test_a_confidence_label_that_names_no_state_is_refused(label, message):
    priors = canonicalize_priors(0.5, 0.3, 0.2)
    m = confidence_report(priors).measurement
    assert "?" in m.labels
    for refused in (
        lambda: confidence(priors, m, label),
        lambda: estimate_confidence(priors, m, label, 10000, 1),
    ):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            refused()


def test_a_numpy_int_confidence_label_is_its_state():
    priors = canonicalize_priors(0.5, 0.3, 0.2)
    m = confidence_report(priors).measurement
    for state in range(3):
        label = np.int64(state)
        assert confidence(priors, m, label) == confidence(priors, m, state)
        assert estimate_confidence(priors, m, label, 10000, 1) == estimate_confidence(
            priors, m, state, 10000, 1
        )


@pytest.mark.parametrize("planted", ["both", "lower", "upper", "posterior"])
@pytest.mark.parametrize("at", [None, 1], ids=["every_prior", "second_prior"])
def test_a_nan_certificate_fails_verify(capsys, monkeypatch, planted, at):
    calls = []

    def planted_here(priors):
        calls.append(priors)
        return at is None or len(calls) == at + 1

    if planted == "posterior":
        # a NaN posterior of state 0 must reach verify as a NaN lower bound
        report_for = trinedisc.cli.confidence_report

        def nan_posterior(priors):
            report = report_for(priors)
            if planted_here(priors):
                posteriors = [math.nan, *report.per_state_confidence[1:]]
                report = ConfidenceReport(posteriors, *(
                    getattr(report, name) for name in ConfidenceReport._fields[1:]
                ))
            return report

        monkeypatch.setattr(trinedisc.cli, "confidence_report", nan_posterior)
    else:
        certify = trinedisc.cli.certify_min_error

        def nan_bounds(probabilities, m, helstrom):
            lower, upper = certify(probabilities, m, helstrom)
            if planted_here(probabilities):
                lower = math.nan if planted in ("both", "lower") else lower
                upper = math.nan if planted in ("both", "upper") else upper
            return lower, upper

        monkeypatch.setattr(trinedisc.cli, "certify_min_error", nan_bounds)
    code = main(["verify", "--samples", "3"])
    out = capsys.readouterr().out
    assert code == 5
    payload = json.loads(out)
    named = list(random_priors(np.random.default_rng(0), 3))[at or 0]
    assert payload["ok"] is False
    assert payload["worst"] == {
        "kind": "confidence_0" if planted == "posterior" else "min_error",
        "priors": [sig12(q) for q in named.original],
        "difference": None,
    }
    assert '"difference": null' in out


@pytest.mark.parametrize("argv", [
    ["optimal", "--p0", "0.5", "--p1", "0.3", "--p2", "0.2", "--delta", "0.1"],
    ["optimal", "--p0", "0.5", "--p", "0.4", "--delta", "0.1"],
    ["simulate", "--p", "0.4", "--delta", "0.1", "--p2", "0.7", "--shots", "1000"],
    ["confidence", "--delta", "0.05", "--sweep", "2", "--p0", "0.9"],
], ids=["triple_and_delta", "p_delta_and_p0", "p_delta_and_p2", "sweep_and_p0"])
def test_a_prior_flag_of_the_other_form_is_refused(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("unnamed", [0, 1, 2])
def test_check_helstrom_fails_a_nan_prior_of_a_state_it_does_not_name(unnamed):
    triple = [0.6, 0.4]
    triple.insert(unnamed, 0.0)
    m = optimal_measurement(canonicalize_priors(*triple)).measurement
    assert unnamed not in m.labels
    triple[unnamed] = math.nan
    report = check_helstrom(triple, m)
    assert math.isnan(report.min_global_eigenvalue)
    assert report.passes is False
    lower, upper = certify_min_error(triple, m, report)
    assert math.isnan(upper)


@pytest.mark.parametrize("probabilities", [(0.6, 0.4), (0.6, 0.4, 0.0, 0.0)], ids=["two", "four"])
def test_check_helstrom_takes_exactly_three_priors(probabilities):
    result = optimal_measurement(canonicalize_priors(0.6, 0.4, 0.0))
    with pytest.raises(DomainError, match="three trine states"):
        check_helstrom(probabilities, result.measurement)
    with pytest.raises(DomainError, match="three trine states"):
        certify_min_error(probabilities, result.measurement, result.helstrom)


@pytest.mark.parametrize("argv", [
    ["--shots", str(2**63)],
    ["--shots", str(2**64 - 2), "--partitions", "2"],
], ids=["2**63", "2**64-2_in_two"])
def test_simulate_refuses_shots_its_counts_cannot_hold(capsys, argv):
    code = main(["simulate", "--p0", "0.5", "--p1", "0.3", "--p2", "0.2", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_estimate_success_takes_at_most_2_to_the_63_minus_1_shots():
    priors = canonicalize_priors(0.5, 0.3, 0.2)
    m = optimal_measurement(priors).measurement
    with pytest.raises(DomainError, match="shots"):
        estimate_success(priors, m, 2**63, 0)
    result = estimate_success(priors, m, 2**63 - 1, 0, partitions=2)
    assert result.shots == sum(result.per_outcome_counts.values()) == 2**63 - 1
