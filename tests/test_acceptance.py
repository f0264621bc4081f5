"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every test is self-timed against its runtime cap and prints
``criterion NN: PASS|FAIL -- <summary>`` on the real stdout so the lines
survive pytest's capture.
"""

import json
import math
import time

import numpy as np
import pytest

from trinedisc.cli import main
from trinedisc.max_confidence import (
    confidence,
    mc_confidence_closed_form,
    mc_povm,
)
from trinedisc.min_error import (
    BREAKDOWN_P,
    boundary_determinant,
    check_helstrom,
    critical_delta,
    optimal_measurement,
    p_correct_three_element,
    p_correct_two_element,
    theta_two_element,
)
from trinedisc.max_confidence import min_error_confidence
from trinedisc.simulate import estimate_confidence, estimate_success
from trinedisc.trine import (
    antitrine_measurement,
    canonicalize_priors,
    priors_from_p_delta,
    random_priors,
    trine_measurement,
)

from grid_search import brute_force_max_confidence, brute_force_min_error
from reference import boundary_matrix, element, weight2


_PENDING_LINES = []


@pytest.fixture(autouse=True)
def _criterion_reporter(capsys):
    """Print the criterion verdict outside pytest's capture."""
    yield
    with capsys.disabled():
        while _PENDING_LINES:
            print(_PENDING_LINES.pop(0), flush=True)


def _report(number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    _PENDING_LINES.append(f"criterion {number:02d}: {verdict} -- {detail}")


def _finish(number: int, passed: bool, detail: str, elapsed: float, cap: float) -> None:
    within_cap = elapsed <= cap
    _report(number, passed and within_cap, f"{detail} ({elapsed:.2f}s, cap {cap:.0f}s)")
    assert passed, detail
    assert within_cap, f"criterion {number} exceeded {cap}s cap: {elapsed:.2f}s"


def _run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_01_equal_prior_optimum(capsys):
    start = time.perf_counter()
    code, out = _run_cli(
        capsys, "optimal", "--p0", str(1 / 3), "--p1", str(1 / 3),
        "--p2", str(1 / 3), "--json",
    )
    payload = json.loads(out)
    ref = trine_measurement()
    element_err = 0.0
    for item in payload["elements"]:
        got = np.array(item["entries_real"]) + 1j * np.array(item["entries_imag"])
        element_err = max(
            element_err, float(np.max(np.abs(got - element(ref, item["label"]))))
        )
    value_err = abs(payload["p_correct"] - 2 / 3)
    ok = code == 0 and element_err < 1e-10 and value_err < 1e-12
    _finish(
        1, ok,
        f"trine measurement within {element_err:.2e}, p_correct err {value_err:.2e}",
        time.perf_counter() - start, 1.0,
    )


def test_criterion_02_two_state_limit(capsys):
    start = time.perf_counter()
    code, out = _run_cli(
        capsys, "optimal", "--p0", "0.5", "--p1", "0.5", "--p2", "0.0", "--json"
    )
    payload = json.loads(out)
    expected = 0.5 * (1.0 + math.sqrt(3.0) / 2.0)
    err = abs(payload["p_correct"] - expected)
    ok = code == 0 and err < 1e-12
    _finish(
        2, ok, f"p_correct err {err:.2e} vs Helstrom value {expected:.7f}",
        time.perf_counter() - start, 1.0,
    )


def test_criterion_03_region_map_sign_agreement():
    start = time.perf_counter()
    n = 200
    mismatches = 0
    compared = 0
    negative_cells = 0
    negative_at_boundary = 0
    for p in np.linspace(1.0 / 3.0, 0.5, n):
        dmax = 3.0 * p - 1.0
        deltas = np.linspace(0.0, dmax, n)
        for k, delta in enumerate(deltas):
            pr = priors_from_p_delta(float(p), float(delta))
            det = boundary_determinant(pr)
            if det < 0.0:
                negative_cells += 1
                if k == n - 1:
                    negative_at_boundary += 1
            explicit = float(np.linalg.det(boundary_matrix(pr)).real)
            if abs(det) <= 1e-10 or abs(explicit) <= 1e-12:
                continue  # within tolerance of the zero contour
            compared += 1
            if math.copysign(1.0, det) != math.copysign(1.0, explicit):
                mismatches += 1
    ok = mismatches == 0 and negative_cells > 0 and negative_at_boundary > 0
    _finish(
        3, ok,
        f"{compared} cells sign-compared, {mismatches} mismatches, "
        f"{negative_cells} negative cells ({negative_at_boundary} on delta=3p-1)",
        time.perf_counter() - start, 30.0,
    )


def test_criterion_04_boundary_continuity():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for p in np.linspace(BREAKDOWN_P + 1e-3, 0.4995, 50):
        dc = critical_delta(float(p))
        if dc is None:
            continue
        pr = priors_from_p_delta(float(p), dc)
        worst = max(worst, abs(p_correct_two_element(pr) - p_correct_three_element(pr)))
        count += 1
    ok = count == 50 and worst < 1e-8
    _finish(
        4, ok, f"{count} p-values, worst |P_2el - P_3el| = {worst:.2e}",
        time.perf_counter() - start, 5.0,
    )


def test_criterion_05_breakdown_point():
    start = time.perf_counter()
    lo, hi = 0.35, 0.39
    assert weight2(lo) > 0.0 > weight2(hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if weight2(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    err = abs(root - BREAKDOWN_P)
    ok = err < 1e-9
    _finish(
        5, ok, f"weight sign change at {root:.12f}, off 4/(9+sqrt(3)) by {err:.2e}",
        time.perf_counter() - start, 5.0,
    )


def test_criterion_06_oracle_equivalence(capsys):
    start = time.perf_counter()
    code, out = _run_cli(capsys, "verify", "--samples", "100")
    payload = json.loads(out)
    # the grid search, which uses no closed form, on the same 100 draws
    rng = np.random.default_rng(0)
    priors = list(random_priors(rng, 100))
    states = [n % 3 for n in range(100)]
    gaps = [
        abs(found.best_value - optimal_measurement(pr).p_correct)
        for found, pr in zip(brute_force_min_error(priors), priors)
    ] + [
        abs(found.best_value - mc_confidence_closed_form(pr)[i])
        for found, pr, i in zip(brute_force_max_confidence(priors, states), priors, states)
    ]
    ok = code == 0 and payload["ok"] is True and max(gaps) <= 1e-4
    _finish(
        6, ok,
        f"verify exit {code}, worst certified difference "
        f"{payload['worst']['difference']:.2e} (tolerance {payload['tolerance']:.0e}); "
        f"grid search within {max(gaps):.2e} of the closed forms (1e-4)",
        time.perf_counter() - start, 300.0,
    )


def test_criterion_07_helstrom_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst_offdiag = 0.0
    worst_eig = 0.0
    all_pass = True
    for pr in random_priors(rng, 1000):
        report = optimal_measurement(pr).helstrom
        worst_offdiag = max(worst_offdiag, report.max_offdiag_residual)
        worst_eig = min(worst_eig, report.min_global_eigenvalue)
        all_pass = all_pass and report.passes
    # the anti-trine elements are orthogonal to their own states, so the
    # pairwise condition holds trivially; the positivity condition is the
    # one it must fail
    anti = check_helstrom((1 / 3, 1 / 3, 1 / 3), antitrine_measurement())
    ok = (
        all_pass
        and worst_offdiag < 1e-9
        and worst_eig > -1e-9
        and not anti.passes
        and anti.min_global_eigenvalue < -1e-9
    )
    _finish(
        7, ok,
        f"1000 priors: offdiag<{worst_offdiag:.2e}, min_eig>{worst_eig:.2e}; "
        f"anti-trine min eigenvalue {anti.min_global_eigenvalue:.2e} fails",
        time.perf_counter() - start, 30.0,
    )


def test_criterion_08_confidence_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    worst = 0.0
    checked = 0
    while checked < 1000:
        [pr] = random_priors(rng, 1)
        if pr.p0 > 1.0 - 1e-9 or min(pr.canonical) < 1e-12:
            continue
        m = mc_povm(pr)
        for i in range(3):
            worst = max(
                worst,
                abs(confidence(pr, m, i) - mc_confidence_closed_form(pr)[i]),
            )
        checked += 1
    # limit sequences: p_j -> 0 drives confidence_i to 1, p_i -> 0 to 0
    limit_hi, _, limit_lo = mc_confidence_closed_form(
        canonicalize_priors(0.6 - 5e-11, 0.4 - 5e-11, 1e-10)
    )
    ok = worst < 1e-10 and abs(limit_hi - 1.0) < 1e-9 and abs(limit_lo) < 1e-9
    _finish(
        8, ok,
        f"1000 priors: worst Bayes/closed-form gap {worst:.2e}; "
        f"limits 1-{1 - limit_hi:.1e}, {limit_lo:.1e}",
        time.perf_counter() - start, 30.0,
    )


def test_criterion_09_min_error_below_max_confidence():
    start = time.perf_counter()
    n = 100
    worst_excess = -np.inf
    cells = 0
    for p in np.linspace(1.0 / 3.0, 0.5, n):
        dmax = 3.0 * p - 1.0
        for delta in np.linspace(0.0, dmax, n):
            pr = priors_from_p_delta(float(p), float(delta))
            if pr.p0 >= 1.0 - 1e-9:
                continue  # confidence undefined at the pure-ensemble corner
            me = min_error_confidence(pr)
            for v, mc in zip(me, mc_confidence_closed_form(pr)):
                if v is None or mc is None:
                    continue
                worst_excess = max(worst_excess, v - mc)
            cells += 1
    ok = worst_excess <= 1e-9
    _finish(
        9, ok, f"{cells} cells, worst (min-error - max) confidence {worst_excess:.2e}",
        time.perf_counter() - start, 60.0,
    )


def test_criterion_10_monte_carlo():
    start = time.perf_counter()
    pr = canonicalize_priors(1 / 3, 1 / 3, 1 / 3)
    m = trine_measurement()
    succ = estimate_success(pr, m, shots=1_000_000, seed=20260823)
    succ_dev = abs(succ.estimate - 2 / 3) / succ.standard_error
    conf = estimate_confidence(pr, m, 0, shots=1_000_000, seed=20260823)
    conf_dev = abs(conf.estimate - 2 / 3) / conf.standard_error
    ok = succ_dev < 4.0 and conf_dev < 4.0
    _finish(
        10, ok,
        f"success within {succ_dev:.2f} SE, conditional confidence within "
        f"{conf_dev:.2f} SE of 2/3",
        time.perf_counter() - start, 30.0,
    )


def test_criterion_11_theta_many_to_one():
    start = time.perf_counter()
    thetas = []
    for p2 in (0.02, 0.05, 0.08, 0.11, 0.14):
        scale = (1.0 - p2) / 0.8
        pr = canonicalize_priors(0.5 * scale, 0.3 * scale, p2)
        assert boundary_determinant(pr) > 0.0  # inside the two-element region
        thetas.append(theta_two_element(pr))
    spread = max(thetas) - min(thetas)
    ok = spread < 1e-12
    _finish(
        11, ok, f"five p2 values, theta spread {spread:.2e}",
        time.perf_counter() - start, 5.0,
    )
