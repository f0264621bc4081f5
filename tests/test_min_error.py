import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinedisc import _sweeps, min_error, qubit
from trinedisc._sweeps import Column, PriorColumns
from trinedisc.cli import main
from trinedisc.errors import DomainError, VerificationError, ZeroPriorError
from trinedisc.min_error import (
    BREAKDOWN_P,
    HelstromReport,
    boundary_determinant,
    check_helstrom,
    critical_delta,
    gamma_three_element,
    optimal_branch,
    optimal_measurement,
    p_correct_three_element,
    p_correct_two_element,
    theta_two_element,
)
from trinedisc.trine import (
    _from_p_delta,
    antitrine_measurement,
    canonicalize_priors,
    priors_from_p_delta,
    random_priors,
    trine_measurement,
)

from reference import (
    boundary_matrix,
    element,
    gamma_matrix,
    ket,
    measurement,
    projector,
    three_element_measurement,
    three_element_weights_raw,
    trine_projectors,
    trine_states,
    two_element_measurement,
    validity,
    weight2,
)


def born_success(probabilities, m):
    """Independent success-probability oracle: plain Born-rule summation."""
    rhos = trine_projectors()
    return sum(
        probabilities[lab] * float(np.trace(rhos[lab] @ op).real)
        for lab, op in m.elements
        if lab != qubit.INCONCLUSIVE
    )


def _region_columns(grid):
    """The prior columns of ``region --grid``, built as the sweep builds them."""
    ps = _sweeps.p_axis(0.0, grid)
    _, triple = _from_p_delta(np.repeat(ps, grid), _sweeps.delta_axes(ps.tolist(), grid).ravel())
    return PriorColumns(*triple)


def _column(values):
    # a Column itself: PriorColumns would compute p and delta on inf - inf
    return np.asarray(values, dtype=float).view(Column)


def _long_runs():
    # runs of equal values, as the per-p columns of a sweep hold them
    rng = np.random.default_rng(24)
    return _column(np.repeat(rng.uniform(0.0, 1.0, 500), rng.integers(1, 400, 500)))


class TestColumnPower:
    """Prior columns raise to a power with the bits of Python's ``**``.

    The sweeps compute their closed forms on numpy columns and must print
    what the single-row path prints.  numpy's own ``**`` on an array rounds
    differently on some inputs (on an AVX-512 host about 5% of these draws
    for n = 3 and 4), so a column class that used it fails here.  A column
    raises each run of equal entries once, so runs, signed zeros and an
    empty column are covered too.
    """

    @staticmethod
    def assert_bits_of_python_power(x, n):
        want = np.array([v**n for v in x.tolist()], dtype=float)
        got = np.asarray(x**n)
        assert got.dtype == np.float64
        assert len(got) == len(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_columns_get_the_bits_of_python_power(self, n):
        rng = np.random.default_rng(20 + n)
        x = np.concatenate([rng.uniform(0.0, 1.0, 20000), rng.uniform(1 / 3, 1 / 2, 20000)])
        self.assert_bits_of_python_power(PriorColumns(x, x, x).p2, n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize(
        "column",
        [
            _long_runs,
            lambda: _region_columns(100).p,
            lambda: _region_columns(100).p2,
            # (-0.0)**3 is -0.0: a column that merged signed zeros would print 0
            lambda: _column([0.0, -0.0, -0.0, 0.0, math.nan, math.nan, math.inf, -math.inf, -0.0]),
            lambda: _column([]),
        ],
        ids=["long_runs", "region_p", "region_p2", "zeros_nan_inf", "empty"],
    )
    def test_runs_and_special_values_get_the_bits_of_python_power(self, column, n):
        self.assert_bits_of_python_power(column(), n)


class TestTwoElement:
    def test_theta_two_state_edge(self):
        # p2 = 0, equal split: theta = atan2(-sqrt(3)/2, 3/2) = -pi/6
        pr = canonicalize_priors(0.5, 0.5, 0.0)
        assert theta_two_element(pr) == pytest.approx(-math.pi / 6, abs=1e-12)

    def test_theta_single_state_limit(self):
        pr = canonicalize_priors(1.0, 0.0, 0.0)
        assert theta_two_element(pr) == pytest.approx(0.0, abs=1e-12)

    def test_two_state_success_probability(self):
        # (1/2)(1 + sqrt(3)/2) for two equiprobable trine states
        pr = canonicalize_priors(0.5, 0.5, 0.0)
        expected = 0.5 * (1.0 + math.sqrt(3.0) / 2.0)
        assert p_correct_two_element(pr) == pytest.approx(expected, abs=1e-12)
        assert born_success(pr.original, two_element_measurement(pr)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_closed_form_matches_born_rule(self):
        rng = np.random.default_rng(23)
        for pr in random_priors(rng, 200):
            m = two_element_measurement(pr)
            # canonical-frame measurement against canonical-order priors
            assert born_success(pr.canonical, m) == pytest.approx(
                p_correct_two_element(pr), abs=1e-10
            )

    def test_measurement_is_projective(self):
        pr = canonicalize_priors(0.6, 0.3, 0.1)
        m = two_element_measurement(pr)
        assert validity(m).is_valid
        for _, op in m.elements:
            np.testing.assert_allclose(op @ op, op, atol=1e-12)

    def test_theta_depends_only_on_prior_ratio(self):
        # same p0 : p1 ratio, different p2: identical measurement angle
        base = canonicalize_priors(0.50, 0.30, 0.20)
        thetas = []
        for p2 in (0.0, 0.05, 0.12, 0.20):
            scale = (1.0 - p2) / 0.8
            pr = canonicalize_priors(0.5 * scale, 0.3 * scale, p2)
            thetas.append(theta_two_element(pr))
        for t in thetas:
            assert t == pytest.approx(theta_two_element(base), abs=1e-12)


U = 2.0**-53


def exact_determinant(pr) -> Fraction:
    """det M of the canonical float priors, taken as the rationals they denote."""
    p0, p1, p2 = map(Fraction, pr.canonical)
    return (p0 - p2) * (p1 - p2) * (p0 * p1 + 3 * p2) - 3 * p2**4


def rounding_allowance(pr) -> float:
    """8 u (T1 + T2), where det M = T1 - T2 with T1 = (p0 - p2)(p1 - p2)(p0 p1 + 3 p2)
    and T2 = 3 p2^4, both nonnegative in canonical order."""
    p0, p1, p2 = pr.canonical
    return 8 * U * ((p0 - p2) * (p1 - p2) * (p0 * p1 + 3.0 * p2) + 3.0 * p2**4)


def determinant_family(name):
    """Uniform priors, the tie edge (1 - 2e, e, e) for e log-spaced over
    [1e-17, 1e-1], points within 1e-9 of det M = 0 and the rows of
    ``region --grid 100``."""
    if name == "region_grid100":
        ps = _sweeps.p_axis(0.0, 100).tolist()
        return [
            priors_from_p_delta(p, delta)
            for p, deltas in zip(ps, _sweeps.delta_axes(ps, 100).tolist())
            for delta in deltas
        ]
    if name == "uniform":
        rng = np.random.default_rng(53)
        return list(random_priors(rng, 2000))
    if name == "tie":
        return [
            canonicalize_priors(1.0 - 2.0 * e, e, e) for e in np.logspace(-17, -1, 400).tolist()
        ]
    return [
        priors_from_p_delta(p, critical_delta(p) + s)
        for p in np.linspace(0.38, 0.49, 40).tolist()
        for s in np.linspace(-1e-9, 1e-9, 9).tolist()
    ]


DETERMINANT_FAMILIES = ("uniform", "tie", "boundary")


class TestBoundaryDeterminant:
    @pytest.mark.parametrize("family", DETERMINANT_FAMILIES)
    def test_within_rounding_of_exact(self, family):
        off = [
            pr.canonical
            for pr in determinant_family(family)
            if abs(Fraction(boundary_determinant(pr)) - exact_determinant(pr))
            > rounding_allowance(pr)
        ]
        assert off == []

    @pytest.mark.parametrize("family", [*DETERMINANT_FAMILIES, "region_grid100"])
    def test_branch_follows_the_exact_determinant(self, monkeypatch, family):
        # the branch alone: the closed forms, whose cross-checks still trip
        # on the tie edge, are not evaluated
        monkeypatch.setattr(min_error, "p_correct_two_element", lambda pr: None)
        monkeypatch.setattr(min_error, "p_correct_three_element", lambda pr: None)
        tie = Fraction(-1e-12)
        wrong = []
        for pr in determinant_family(family):
            exact = exact_determinant(pr)
            if abs(exact - tie) > rounding_allowance(pr):
                want = "two_element" if exact >= tie or pr.p2 <= 0.0 else "three_element"
                if optimal_branch(pr)[0] != want:
                    wrong.append(pr.canonical)
        assert wrong == []

    def test_sign_matches_explicit_matrix(self):
        # independent oracle: numpy determinant of the actual boundary matrix
        rng = np.random.default_rng(31)
        for pr in random_priors(rng, 500):
            det = boundary_determinant(pr)
            explicit = float(np.linalg.det(boundary_matrix(pr)).real)
            if abs(det) > 1e-10 and abs(explicit) > 1e-12:
                assert math.copysign(1.0, det) == math.copysign(1.0, explicit)

    def test_equal_priors_negative(self):
        pr = canonicalize_priors(1 / 3, 1 / 3, 1 / 3)
        assert boundary_determinant(pr) < 0.0
        assert float(np.linalg.det(boundary_matrix(pr)).real) < 0.0

    def test_two_state_edge_positive(self):
        pr = canonicalize_priors(0.5, 0.5, 0.0)
        assert boundary_determinant(pr) > 0.0

    def test_zero_crossing_at_critical_delta(self):
        p = 0.42
        dc = critical_delta(p)
        assert dc == pytest.approx(0.25353420725793246, abs=1e-12)
        below = priors_from_p_delta(p, dc - 1e-6)
        above = priors_from_p_delta(p, dc + 1e-6)
        # two-outcome region (det > 0) sits below the critical delta, the
        # three-outcome region (det < 0) above it, up against delta = 3p - 1
        assert boundary_determinant(above) < 0.0 < boundary_determinant(below)

    def test_critical_delta_none_at_equal_p(self):
        assert critical_delta(1 / 3) is None

    def test_critical_delta_takes_the_nearest_end_within_tolerance(self):
        assert critical_delta(0.5 + 5e-13) == 0.5
        # below 1/3 the tolerance is on 3p - 1, the test that admits delta = 0
        assert critical_delta(1 / 3 - 3e-13) is None
        with pytest.raises(DomainError, match="p must lie in"):
            critical_delta(1 / 3 - 5e-13)

    def test_critical_delta_refuses_p_outside_tolerance(self):
        with pytest.raises(DomainError, match="p must lie in"):
            critical_delta(0.3299)

    @pytest.mark.parametrize("p", [0.49999999500099995, 0.499999997501])
    def test_critical_delta_has_a_root_where_the_discriminant_rounds_below_0(self, p):
        # 1 - 6p + 16p^2 - 24p^3 + 16p^4 = (1 - 2p)^2 (4p^2 - 2p + 1) >= 0, yet
        # its float value is negative at these p
        with localcontext() as ctx:
            ctx.prec = 50
            q = Decimal(p)
            inner = 1 - 6 * q + 16 * q**2 - 24 * q**3 + 16 * q**4
            root = float((2 - 6 * q + 5 * q**2 - 2 * inner.sqrt()).sqrt())
        dc = critical_delta(p)
        assert dc is not None
        assert abs(dc - root) < 1e-7

    def test_critical_delta_bisection_oracle(self):
        # locate the sign change of det M by bisection and compare
        for p in (0.40, 0.42, 0.45, 0.48):
            lo, hi = 0.0, 3.0 * p - 1.0
            f = lambda d: boundary_determinant(priors_from_p_delta(p, d))
            assert f(lo) > 0.0 > f(hi)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if f(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            assert critical_delta(p) == pytest.approx(0.5 * (lo + hi), abs=1e-10)


class TestThreeElement:
    def test_equal_priors_is_trine_measurement(self):
        pr = canonicalize_priors(1 / 3, 1 / 3, 1 / 3)
        m = three_element_measurement(pr)
        ref = trine_measurement()
        for j in range(3):
            np.testing.assert_allclose(element(m, j), element(ref, j), atol=1e-10)
        assert p_correct_three_element(pr) == pytest.approx(2 / 3, abs=1e-12)

    def test_gamma_inverse_expectations(self):
        rng = np.random.default_rng(37)
        states = trine_states()
        for pr in random_priors(rng, 100):
            if pr.p2 <= 1e-6:
                continue
            sol = gamma_three_element(pr)
            gamma_inv = np.linalg.inv(gamma_matrix(sol))
            for psi, q in zip(states, pr.canonical):
                val = float(np.real(np.vdot(psi, gamma_inv @ psi)))
                assert val == pytest.approx(1.0 / q, rel=1e-9)
            assert float(np.trace(gamma_matrix(sol)).real) == pytest.approx(
                sol.p_corr, abs=1e-10
            )

    def test_gamma_inverse_check_trips_on_a_small_fault(self, monkeypatch):
        # a relative error of 1e-12 in <psi_j| Gamma^{-1} |psi_j> is far above
        # the roundoff of its summands at ordinary priors, so the check trips
        pr = canonicalize_priors(0.4, 0.35, 0.25)
        gamma_three_element(pr)
        exact = min_error.trace_product
        monkeypatch.setattr(
            min_error, "trace_product", lambda a, b: exact(a, b) * (1.0 + 1e-12)
        )
        with pytest.raises(VerificationError):
            gamma_three_element(pr)

    def test_povm_validity_inside_region(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 100:
            [pr] = random_priors(rng, 1)
            if pr.p2 <= 0 or boundary_determinant(pr) >= -1e-6:
                continue
            m = three_element_measurement(pr)
            v = validity(m)
            assert v.is_valid and v.completeness_deviation < 1e-10
            assert born_success(pr.canonical, m) == pytest.approx(
                p_correct_three_element(pr), abs=1e-9
            )
            checked += 1

    def test_unchecked_povm_has_a_negative_element_outside_region(self):
        pr = priors_from_p_delta(0.48, 0.3)
        assert boundary_determinant(pr) > 0.0
        v = validity(three_element_measurement(pr))
        assert not v.is_valid and v.min_element_eigenvalue < 0.0

    def test_rejects_zero_prior(self):
        with pytest.raises(ZeroPriorError):
            p_correct_three_element(canonicalize_priors(0.5, 0.5, 0.0))

    def test_gamma_rejects_zero_prior(self):
        with pytest.raises(ZeroPriorError):
            gamma_three_element(canonicalize_priors(0.5, 0.5, 0.0))

    def test_breakdown_weight_sign_change(self):
        # at delta = 0 the state-2 weight is 1 - 3p^2/(4-9p)^2; bisection on
        # the raw weight must reproduce the closed-form breakdown point
        lo, hi = 0.34, 0.39
        assert weight2(lo) > 0.0 > weight2(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if weight2(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(BREAKDOWN_P, abs=1e-10)
        assert BREAKDOWN_P == pytest.approx(4.0 / (9.0 + math.sqrt(3.0)), abs=1e-15)

    def test_weight_closed_form_at_zero_delta(self):
        for p in (0.34, 0.35, 0.36, 0.37):
            _, weights = three_element_weights_raw(priors_from_p_delta(p, 0.0))
            a = math.sqrt(3.0) * p / (4.0 - 9.0 * p)
            assert float(weights[2]) == pytest.approx(1.0 - a * a, abs=1e-10)


class TestHelstrom:
    def test_trine_measurement_passes_at_equal_priors(self):
        report = check_helstrom((1 / 3, 1 / 3, 1 / 3), trine_measurement())
        assert report.passes
        assert report.success_probability == pytest.approx(2 / 3, abs=1e-12)

    def test_antitrine_fails_at_equal_priors(self):
        # outcome j rules out state j, so it never names the drawn state
        report = check_helstrom((1 / 3, 1 / 3, 1 / 3), antitrine_measurement())
        assert not report.passes
        assert report.success_probability == pytest.approx(0.0, abs=1e-12)

    def test_suboptimal_projective_fails(self):
        pr = canonicalize_priors(0.5, 0.3, 0.2)
        # the optimal two-outcome projectors turned by 0.3 rad: projective, but not optimal
        theta = theta_two_element(pr) + 0.3
        m = measurement(((0, projector(ket(theta))), (1, projector(ket(theta + math.pi)))))
        assert validity(m).is_valid
        assert not check_helstrom(pr.original, m).passes


class TestOptimal:
    def test_equal_priors(self):
        res = optimal_measurement(canonicalize_priors(1 / 3, 1 / 3, 1 / 3))
        assert res.strategy == "three_element"
        assert res.p_correct == pytest.approx(2 / 3, abs=1e-12)

    def test_two_state_edge_value(self):
        res = optimal_measurement(canonicalize_priors(0.5, 0.5, 0.0))
        assert res.strategy == "two_element"
        assert res.p_correct == pytest.approx((2.0 + math.sqrt(3.0)) / 4.0, abs=1e-12)

    @pytest.mark.parametrize(
        "triple, strategy",
        [((0.5, 0.3, 0.2), "two_element"), ((0.34, 0.33, 0.33), "three_element")],
    )
    def test_determinant_evaluated_once(self, monkeypatch, triple, strategy):
        calls = []
        determinant = min_error.boundary_determinant
        monkeypatch.setattr(
            min_error, "boundary_determinant", lambda pr: calls.append(pr) or determinant(pr)
        )
        res = optimal_measurement(canonicalize_priors(*triple))
        assert res.strategy == strategy
        assert len(calls) == 1

    def test_dispatch_matches_determinant_sign(self):
        # the whole dispatch path against the exact rule, as
        # test_branch_follows_the_exact_determinant checks the branch alone
        rng = np.random.default_rng(43)
        tie = Fraction(-1e-12)
        wrong = []
        for pr in random_priors(rng, 200):
            res = optimal_measurement(pr)
            exact = exact_determinant(pr)
            assert abs(Fraction(res.boundary_determinant) - exact) <= rounding_allowance(pr)
            if abs(exact - tie) > rounding_allowance(pr):
                want = "two_element" if exact >= tie or pr.p2 <= 0.0 else "three_element"
                if res.strategy != want:
                    wrong.append(pr.canonical)
        assert wrong == []

    def test_dispatched_beats_fixed_strategies(self):
        rng = np.random.default_rng(47)
        for pr in random_priors(rng, 100):
            res = optimal_measurement(pr)
            for fixed in (trine_measurement(), antitrine_measurement()):
                assert res.p_correct >= born_success(pr.original, fixed) - 1e-10

    def test_equivariance_under_relabeling(self):
        # all six orderings of the same triple give the same value and a
        # measurement that is optimal for the caller's own indexing
        import itertools

        values = []
        for q in itertools.permutations((0.5, 0.3, 0.2)):
            res = optimal_measurement(canonicalize_priors(*q))
            values.append(res.p_correct)
            assert res.helstrom.passes
            assert born_success(q, res.measurement) == pytest.approx(
                res.p_correct, abs=1e-10
            )
        assert max(values) - min(values) < 1e-12

    @given(st.floats(0.01, 1), st.floats(0.01, 1), st.floats(0.01, 1))
    @settings(max_examples=150, deadline=None)
    def test_helstrom_always_passes(self, a, b, c):
        total = a + b + c
        pr = canonicalize_priors(a / total, b / total, c / total)
        res = optimal_measurement(pr)
        assert res.helstrom.passes
        assert 1 / 3 - 1e-12 <= res.p_correct <= 1.0 + 1e-12

    def test_continuity_across_boundary(self):
        p = 0.42
        dc = critical_delta(p)
        lo = optimal_measurement(priors_from_p_delta(p, dc - 1e-9))
        hi = optimal_measurement(priors_from_p_delta(p, dc + 1e-9))
        assert lo.strategy == "two_element"
        assert hi.strategy == "three_element"
        assert abs(lo.p_correct - hi.p_correct) < 1e-7


TWO_OUTCOME, THREE_OUTCOME = (0.5, 0.3, 0.2), (0.34, 0.33, 0.33)


class TestPlantedFaults:
    """Each verification guard of the dispatch path trips on a planted fault.

    One layer function is replaced per case.  The guard must raise
    VerificationError, and ``optimal`` must report it and exit 3, so that
    no later speedup can drop a check unnoticed.
    """

    @staticmethod
    def assert_caught(capsys, triple, message):
        with pytest.raises(VerificationError, match=message):
            optimal_measurement(canonicalize_priors(*triple))
        p0, p1, p2 = map(str, triple)
        code = main(["optimal", "--p0", p0, "--p1", p1, "--p2", p2])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith(f"internal verification failure: {message}")

    def test_two_outcome_cross_check(self, monkeypatch, capsys):
        forms = min_error._p_correct_two

        def disagreeing(priors, sqrt=math.sqrt):
            value, alt, _ = forms(priors, sqrt)
            return value, alt, False

        monkeypatch.setattr(min_error, "_p_correct_two", disagreeing)
        self.assert_caught(capsys, TWO_OUTCOME, "two-element success probability forms disagree")

    def test_three_outcome_invalid_povm(self, monkeypatch, capsys):
        outcomes = min_error._outcomes

        def negative_weight(q, sol):
            directions, (k0, k1, k2) = outcomes(q, sol)
            return directions, [k0, k1, -k2]

        monkeypatch.setattr(min_error, "_outcomes", negative_weight)
        self.assert_caught(capsys, THREE_OUTCOME, "three-outcome POVM inside its region is invalid")

    @pytest.mark.parametrize("triple", [TWO_OUTCOME, THREE_OUTCOME], ids=["two", "three"])
    def test_helstrom_failure(self, monkeypatch, capsys, triple):
        def failing(probabilities, m):
            report = check_helstrom(probabilities, m)
            return HelstromReport(
                report.max_offdiag_residual, -1e-6, False, report.success_probability
            )

        monkeypatch.setattr(min_error, "check_helstrom", failing)
        self.assert_caught(capsys, triple, "dispatched measurement fails the Helstrom conditions")

    @pytest.mark.parametrize("triple", [TWO_OUTCOME, THREE_OUTCOME], ids=["two", "three"])
    def test_born_sum_mismatch(self, monkeypatch, capsys, triple):
        # the guard allows 1e-9
        def shifted(probabilities, m):
            report = check_helstrom(probabilities, m)
            return HelstromReport(
                report.max_offdiag_residual,
                report.min_global_eigenvalue,
                report.passes,
                report.success_probability + 2e-9,
            )

        monkeypatch.setattr(min_error, "check_helstrom", shifted)
        self.assert_caught(
            capsys, triple, "closed-form success probability disagrees with the Born sum"
        )
