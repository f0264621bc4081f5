import csv
import inspect
import io
import itertools
import json
import math
import sys

import numpy as np
import pytest
from numpy.random import default_rng

from trinedisc import _sweeps, cli, min_error, trine
from trinedisc.cli import _json_ready, main, sig12
from trinedisc.errors import VerificationError
from trinedisc.max_confidence import confidence_report, mc_confidence_closed_form
from trinedisc.min_error import (
    GammaSolution,
    HelstromReport,
    check_helstrom,
    optimal_measurement,
)
from trinedisc.oracle import certify_max_confidence
from trinedisc.qubit import _entries
from trinedisc.trine import canonicalize_priors, random_priors

from grid_search import brute_force_max_confidence, brute_force_min_error
from reference import matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def plant_two_outcome_fault(monkeypatch, p0, single_row=True):
    """Fail the two-outcome cross-check of the sweep row whose p0 is ``p0``.

    The columns read the check from ``_sweeps._p_correct_two``; the single row
    that a sweep evaluates again where a column check fails reads it through
    ``optimal_branch``, which raises ``planted`` there if ``single_row``.
    """
    forms, scalar = min_error._p_correct_two, min_error.p_correct_two_element

    def planted_forms(priors, sqrt):
        value, alt, agree = forms(priors, sqrt)
        return value, alt, agree & (abs(priors.p0 - p0) > 1e-9)

    def planted_scalar(priors):
        if abs(priors.p0 - p0) <= 1e-9:
            raise VerificationError("planted")
        return scalar(priors)

    monkeypatch.setattr(_sweeps, "_p_correct_two", planted_forms)
    if single_row:
        monkeypatch.setattr(min_error, "p_correct_two_element", planted_scalar)


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# trinedisc ")
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    return lines[0], list(reader)


class TestSerialization:
    def test_sig12(self):
        assert sig12(2 / 3) == 0.666666666667
        assert sig12(1.0) == 1.0

    def test_json_ready_rounds_floats_and_passes_the_rest_through(self):
        got = _json_ready({"x": 2 / 3, "n": 3, "ok": True, "k": (1, None, "s")})
        assert got == {"x": 0.666666666667, "n": 3, "ok": True, "k": [1, None, "s"]}
        assert type(got["n"]) is int and type(got["ok"]) is bool
        # a record becomes an object of its fields, in order
        gamma = _json_ready(GammaSolution(2 / 3, -1 / 3, 0.1, 1 / 7))
        assert list(gamma.items()) == [
            ("a", 0.666666666667), ("b_x", -0.333333333333), ("b_y", 0.1),
            ("p_corr", 0.142857142857),
        ]
        report = _json_ready(HelstromReport(1e-17 / 3, -2e-11 / 3, True, 2 / 3))
        assert list(report.items()) == [
            ("max_offdiag_residual", 3.33333333333e-18),
            ("min_global_eigenvalue", -6.66666666667e-12),
            ("passes", True),
            ("success_probability", 0.666666666667),
        ]
        assert type(report["passes"]) is bool

    def test_entries_keep_the_signed_zeros_of_the_elements(self):
        # matrix entries are printed from the Bloch forms; the sign of every
        # zero part must be the one the 2x2 matrix carries
        inf = math.inf
        values = (0.7, -0.7, 0.0, -0.0, 1e-300, -1e-300, inf, -inf, math.nan)
        for b in itertools.product(values, repeat=3):
            with np.errstate(invalid="ignore"):  # inf times zero
                op = matrix(b)
            want = [
                (repr(float(op[i, j].real)), repr(float(op[i, j].imag)))
                for i in range(2)
                for j in range(2)
            ]
            got = [(repr(v.real), repr(v.imag)) for row in _entries(b) for v in row]
            assert got == want, b


class TestOptimal:
    def test_equal_priors_json(self, capsys):
        code, out, _ = run(
            capsys, "optimal", "--p0", "0.333333333333", "--p1", "0.333333333333",
            "--p2", "0.333333333334", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == "three_element"
        assert payload["p_correct"] == pytest.approx(2 / 3, abs=1e-9)
        assert payload["helstrom"]["passes"] is True
        assert len(payload["elements"]) == 3

    def test_p_delta_input(self, capsys):
        code, out, _ = run(capsys, "optimal", "--p", "0.45", "--delta", "0.1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["priors"]["p0"] == pytest.approx(0.55)
        assert payload["strategy"] == "two_element"
        assert payload["theta"] is not None

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "optimal", "--p0", "0.5", "--p1", "0.3", "--p2", "0.2")
        assert code == 0
        assert "strategy: two_element" in out
        assert "p_correct:" in out
        assert "passes=True" in out

    def test_rejects_bad_sum(self, capsys):
        code, _, err = run(capsys, "optimal", "--p0", "0.5", "--p1", "0.5", "--p2", "0.5")
        assert code == 2
        assert "error" in err

    def test_rejects_mixed_prior_flags(self, capsys):
        code, _, err = run(capsys, "optimal", "--p0", "0.5", "--p", "0.4")
        assert code == 2

    def test_rejects_no_flags(self, capsys):
        code, _, _ = run(capsys, "optimal")
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2


class TestRegion:
    def test_grid_output(self, capsys):
        code, out, _ = run(capsys, "region", "--grid", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert "region --grid 5" in header
        assert len(rows) == 25
        for row in rows:
            p0 = float(row["p0"])
            det = float(row["determinant"])
            strategy = row["strategy"]
            if det < -1e-12 and float(row["p2"]) > 0:
                assert strategy == "three_element"
        # the sweep covers the full admissible triangle
        ps = sorted({float(r["p"]) for r in rows})
        assert ps[0] == pytest.approx(1 / 3, abs=1e-9)
        assert ps[-1] == pytest.approx(0.5, abs=1e-9)

    def test_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "region.csv"
        code, out, _ = run(capsys, "region", "--grid", "3", "--out", str(out_file))
        assert code == 0
        assert out == ""
        header, rows = parse_csv(out_file.read_text())
        assert len(rows) == 9

    def test_failed_sweep_writes_no_file(self, tmp_path, capsys, monkeypatch):
        # every row is computed before --out is opened, so a row that fails
        # its verification leaves no partial file behind; the seventh row,
        # (p, delta) = (0.375, 0.03125), takes the two-outcome branch
        plant_two_outcome_fault(monkeypatch, p0=0.40625)
        out_file = tmp_path / "region.csv"
        code, _, err = run(capsys, "region", "--grid", "5", "--out", str(out_file))
        assert (code, err) == (3, "internal verification failure: planted\n")
        assert not out_file.exists()

    def test_column_check_that_the_row_passes_alone_is_an_error(self, capsys, monkeypatch):
        # a row whose column check fails but whose single evaluation passes
        # means the two disagree: the sweep stops there all the same
        plant_two_outcome_fault(monkeypatch, p0=0.40625, single_row=False)
        code, out, err = run(capsys, "region", "--grid", "5")
        assert (code, out) == (3, "")
        assert err == (
            "internal verification failure: sweep row p=0.375, delta=0.03125 "
            "fails its checks on columns only\n"
        )
        # curves' row checks pass over an undefined p_3el: this row has
        # p2 = 0, where the three-outcome value raises ZeroPriorError
        monkeypatch.undo()
        plant_two_outcome_fault(monkeypatch, p0=0.5, single_row=False)
        code, out, err = run(capsys, "curves", "--p-values", "0.5", "--steps", "3")
        assert (code, out) == (3, "")
        assert err == (
            "internal verification failure: sweep row p=0.5, delta=0.0 "
            "fails its checks on columns only\n"
        )

    def test_rejects_tiny_grid(self, capsys):
        code, _, _ = run(capsys, "region", "--grid", "1")
        assert code == 2

    def test_unwritable_path(self, capsys):
        code, _, err = run(capsys, "region", "--grid", "3", "--out", "/nonexistent/x.csv")
        assert code == 4


class TestCurves:
    def test_p_values_sweep(self, capsys):
        code, out, _ = run(
            capsys, "curves", "--p-values", "0.36,0.42", "--steps", "10"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 20
        for row in rows:
            valid = int(row["p_3el_valid"])
            det = float(row["determinant"])
            assert valid == int(det < 0.0)
            chosen = float(row["p_correct"])
            p2el = float(row["p_2el"])
            if row["p_3el"]:
                assert chosen >= min(p2el, float(row["p_3el"])) - 1e-12
            assert chosen == pytest.approx(
                p2el if det >= -1e-12 or float(row["p2"]) <= 0 else float(row["p_3el"]),
                abs=1e-12,
            )

    def test_delta_values_sweep(self, capsys):
        code, out, _ = run(
            capsys, "curves", "--delta-values", "0.0,0.05", "--steps", "8"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 16
        # rows arrive sorted by (p, delta)
        keys = [(float(r["p"]), float(r["delta"])) for r in rows]
        assert keys == sorted(keys)

    def test_failed_sweep_writes_no_file(self, tmp_path, capsys, monkeypatch):
        # the row (p, delta) = (0.42, 0.065) takes the two-outcome branch
        plant_two_outcome_fault(monkeypatch, p0=0.485)
        out_file = tmp_path / "curves.csv"
        code, _, err = run(
            capsys, "curves", "--p-values", "0.36,0.42", "--steps", "5", "--out", str(out_file)
        )
        assert (code, err) == (3, "internal verification failure: planted\n")
        assert not out_file.exists()

    def test_requires_exactly_one_axis(self, capsys):
        assert run(capsys, "curves")[0] == 2
        assert run(
            capsys, "curves", "--p-values", "0.4", "--delta-values", "0.0"
        )[0] == 2

    def test_rejects_malformed_values(self, capsys):
        assert run(capsys, "curves", "--p-values", "0.4,banana")[0] == 2

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_rejects_nonpositive_steps(self, capsys, steps):
        code, _, err = run(capsys, "curves", "--p-values", "0.4", "--steps", steps)
        assert code == 2
        assert err.startswith("error: --steps")


class TestConfidence:
    def test_single_point(self, capsys):
        code, out, _ = run(
            capsys, "confidence", "--p0", "0.5", "--p1", "0.3", "--p2", "0.2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_confidence"] == pytest.approx(
            [25 / 31, 21 / 31, 16 / 31], abs=1e-9
        )
        me = payload["min_error_confidence"]
        for mc, m in zip(payload["max_confidence"], me):
            if m is not None:
                assert m <= mc + 1e-9

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "confidence", "--delta", "0.05", "--sweep", "6")
        assert code == 0
        _, rows = parse_csv(out)
        assert 1 <= len(rows) <= 6
        for row in rows:
            for i in range(3):
                mc = float(row[f"mc_confidence_{i}"])
                assert 0.0 <= mc <= 1.0
                if row[f"me_confidence_{i}"]:
                    assert float(row[f"me_confidence_{i}"]) <= mc + 1e-9

    def test_sweep_needs_delta(self, capsys):
        assert run(capsys, "confidence", "--sweep", "5")[0] == 2

    @pytest.mark.parametrize("sweep", ["0", "-1"])
    def test_rejects_nonpositive_sweep(self, capsys, sweep):
        code, _, err = run(capsys, "confidence", "--delta", "0.05", "--sweep", sweep)
        assert code == 2
        assert err.startswith("error: --sweep")


class CountingStdout(io.StringIO):
    """A stdout that counts its ``write`` calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["region", "--grid", "20"],
        ["curves", "--p-values", "0.4", "--steps", "20"],
        ["confidence", "--delta", "0.05", "--sweep", "10"],
    ],
)
def test_sweep_writes_its_csv_in_one_call(monkeypatch, argv):
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([*argv, "--out", "-"]) == 0
    assert stdout.writes == 1
    assert stdout.getvalue().startswith(f"# trinedisc {cli.__version__} {argv[0]} ")


@pytest.mark.parametrize(
    "argv",
    [
        ["optimal", "--p", "0.4", "--delta", "0.1", "--json"],
        ["confidence", "--p0", "0.5", "--p1", "0.3", "--p2", "0.2"],
        ["verify", "--samples", "2"],
        ["simulate", "--p0", "0.5", "--p1", "0.3", "--p2", "0.2", "--shots", "1000"],
    ],
)
def test_json_command_writes_its_stdout_in_one_call(monkeypatch, argv):
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    assert stdout.writes == 1
    assert stdout.getvalue().endswith("}\n")
    json.loads(stdout.getvalue())


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--samples", "5", "--seed", "1",
            "--tolerance", "1e-4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["worst"]["difference"] <= 1e-4

    def test_impossible_tolerance_exits_5(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--samples", "3", "--seed", "1", "--tolerance", "0",
        )
        assert code == 5
        payload = json.loads(out)
        assert payload["ok"] is False

    def test_worst_priors_are_the_checked_draw(self, capsys):
        # worst.priors is a draw in the order it was drawn, which the i of
        # confidence_i indexes; seed 0's worst is a draw whose canonical
        # order differs, and its difference is the certificate's there
        code, out, _ = run(capsys, "verify", "--samples", "3", "--seed", "0")
        assert code == 0
        worst = json.loads(out)["worst"]
        rng = default_rng(0)
        draws = [[float(q) for q in rng.dirichlet((1.0, 1.0, 1.0))] for _ in range(3)]
        [draw] = [d for d in draws if d == pytest.approx(worst["priors"], rel=1e-11)]
        assert draw != sorted(draw, reverse=True)
        kind, i = worst["kind"].rsplit("_", 1)
        assert kind == "confidence"
        pr = canonicalize_priors(*draw)
        lower, upper = certify_max_confidence(pr, confidence_report(pr))[int(i)]
        closed = mc_confidence_closed_form(pr)[int(i)]
        assert worst["difference"] == sig12(max(upper - closed, closed - lower))

    def test_rejects_zero_samples(self, capsys):
        assert run(capsys, "verify", "--samples", "0")[0] == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_block_draws_are_the_single_draws(self, seed):
        # verify draws its priors a block at a time; numpy's dirichlet
        # stream must not depend on how the draws are grouped
        samples = trine._DRAW_BLOCK + 3
        rng = default_rng(seed)
        single = [canonicalize_priors(*rng.dirichlet((1.0, 1.0, 1.0))) for _ in range(samples)]
        blocks = list(random_priors(default_rng(seed), samples))

        def bits(pr):
            return [q.hex() for q in pr.canonical], pr.permutation

        assert list(map(bits, blocks)) == list(map(bits, single))

    def test_rejects_negative_seed(self, capsys):
        code, out, err = run(capsys, "verify", "--samples", "1", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --seed")

    @pytest.mark.parametrize(
        "flag", ["--resolution 36", "--refinements 8"], ids=["resolution", "refinements"]
    )
    def test_rejects_oracle_flags(self, capsys, flag):
        # the oracles run at one configuration; no flag changes it
        code, out, err = run(capsys, "verify", "--samples", "1", *flag.split())
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_oracles_run_at_their_defaults(self, capsys, monkeypatch):
        # verify certifies each draw once, from its own answers: min error
        # from optimal_measurement's measurement in the caller's order, the
        # three confidences from confidence_report
        calls = []

        def recorder(fn):
            def record(*args):
                calls.append((fn.__name__, args))
                return fn(*args)

            return record

        for name in ("certify_min_error", "certify_max_confidence"):
            monkeypatch.setattr(cli, name, recorder(getattr(cli, name)))
        assert run(capsys, "verify", "--samples", "5")[0] == 0
        rng = default_rng(0)
        draws = list(random_priors(rng, 5))
        results = [optimal_measurement(pr) for pr in draws]
        assert calls == [
            call
            for pr, result in zip(draws, results)
            for call in (
                ("certify_min_error", (pr.original, result.measurement, result.helstrom)),
                ("certify_max_confidence", (pr, confidence_report(pr))),
            )
        ]
        # the grid search, now the tests' reference, keeps its defaults:
        # min error at r = 72, confidence at r = 360, both with 24
        # refinements, one result per prior of a call
        for fn, defaults in (
            (brute_force_min_error, (72, 24)),
            (brute_force_max_confidence, (360, 24)),
        ):
            params = inspect.signature(fn).parameters
            assert (params["resolution"].default, params["refinements"].default) == defaults
        assert len(brute_force_min_error(draws)) == 5
        assert len(brute_force_max_confidence(draws, [0, 1, 2, 0, 1])) == 5

    @pytest.mark.parametrize("tolerance", ["nan", "-0.001", "inf"])
    def test_rejects_bad_tolerance(self, capsys, tolerance):
        code, out, err = run(
            capsys, "verify", "--samples", "1", "--tolerance", tolerance
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tolerance")


class TestSimulate:
    def test_success_estimate(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--p0", "0.34", "--p1", "0.33", "--p2", "0.33",
            "--shots", "200000", "--seed", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["quantity"] == "success_probability"
        assert payload["rng_algorithm"] == "numpy-pcg64"
        assert payload["se_multiple"] < 5.0
        assert abs(payload["estimate"] - payload["analytic"]) < (
            5 * payload["standard_error"]
        )

    def test_confidence_estimate(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--p0", "0.5", "--p1", "0.3", "--p2", "0.2",
            "--strategy", "maxconf", "--confidence-outcome", "0",
            "--shots", "100000", "--seed", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["quantity"] == "confidence"
        assert payload["analytic"] == pytest.approx(25 / 31, abs=1e-9)
        assert payload["se_multiple"] < 5.0

    def test_reproducible(self, capsys):
        argv = (
            "simulate", "--p", "0.4", "--delta", "0.1",
            "--shots", "10000", "--seed", "9",
        )
        _, out_a, _ = run(capsys, *argv)
        _, out_b, _ = run(capsys, *argv)
        assert out_a == out_b

    def test_partitions_deterministic(self, capsys):
        argv = (
            "simulate", "--p", "0.4", "--delta", "0.1",
            "--shots", "10000", "--seed", "9", "--partitions", "4",
        )
        _, out_a, _ = run(capsys, *argv)
        _, out_b, _ = run(capsys, *argv)
        assert json.loads(out_a) == json.loads(out_b)

    def test_partitions_default_to_one_whatever_the_environment(self, capsys, monkeypatch):
        # the default partition count is 1 whatever the environment holds
        monkeypatch.setenv("TRINE_THREADS", "4")
        argv = (
            "simulate", "--p", "0.4", "--delta", "0.1",
            "--shots", "10000", "--seed", "9",
        )
        code, out_default, _ = run(capsys, *argv)
        assert code == 0
        assert out_default == run(capsys, *argv, "--partitions", "1")[1]

    def test_rejects_zero_shots(self, capsys):
        assert run(
            capsys, "simulate", "--p", "0.4", "--delta", "0.1", "--shots", "0"
        )[0] == 2

    def test_rejects_negative_seed(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--p0", "0.5", "--p1", "0.3", "--p2", "0.2",
            "--shots", "100", "--seed", "-1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --seed")

    def test_antitrine_strategy(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--p0", "0.34", "--p1", "0.33", "--p2", "0.33",
            "--strategy", "antitrine", "--shots", "50000", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        # eliminatory labels never name the drawn state
        assert payload["analytic"] == pytest.approx(0.0, abs=1e-9)
        assert payload["estimate"] == 0.0

    @pytest.mark.parametrize(
        "triple", [("0.34", "0.33", "0.33"), ("0.7", "0.2", "0.1"), ("0.1", "0.25", "0.65")]
    )
    def test_trine_strategy(self, capsys, triple):
        # the trine measurement succeeds with 2/3 whatever the priors
        p0, p1, p2 = triple
        code, out, _ = run(
            capsys, "simulate", "--p0", p0, "--p1", p1, "--p2", p2,
            "--strategy", "trine", "--shots", "50000", "--seed", "4",
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["strategy"], payload["quantity"]) == ("trine", "success_probability")
        assert payload["analytic"] == sig12(2.0 / 3.0)
        assert abs(payload["estimate"] - payload["analytic"]) < 5 * payload["standard_error"]

    def test_optimal_analytic_is_the_helstrom_success_probability(self, capsys):
        pr = canonicalize_priors(0.2, 0.5, 0.3)
        code, out, _ = run(
            capsys, "simulate", "--p0", "0.2", "--p1", "0.5", "--p2", "0.3",
            "--shots", "1000",
        )
        assert code == 0
        helstrom = check_helstrom(pr.original, optimal_measurement(pr).measurement)
        assert json.loads(out)["analytic"] == sig12(helstrom.success_probability)


SIMULATE = ["simulate", "--p0", "0.5", "--p1", "0.3", "--p2", "0.2", "--shots", "1000"]
VERIFY = ["verify", "--samples", "1"]


def integer_flag_commands() -> list[list[str]]:
    """Every integer flag at 0 and -1, with small sizes elsewhere."""
    commands = [["curves", "--delta-values", "0", "--steps", "40"]]
    for v in ("0", "-1"):
        commands += [
            ["region", "--grid", v],
            ["curves", "--p-values", "0.4", "--steps", v],
            ["curves", "--delta-values", "0.1", "--steps", v],
            ["confidence", "--delta", "0.05", "--sweep", v],
            ["verify", "--samples", v],
            [*VERIFY, "--seed", v],
            ["simulate", "--p0", "0.5", "--p1", "0.3", "--p2", "0.2", "--shots", v],
            [*SIMULATE, "--seed", v],
            [*SIMULATE, "--partitions", v],
            [*SIMULATE, "--confidence-outcome", v],
            [*SIMULATE, "--strategy", "maxconf", "--confidence-outcome", v],
        ]
    return commands


def test_integer_flags_never_exit_1(capsys):
    # one process, one shared parser: the second pass, in reverse order,
    # must print exactly what the first did
    commands = integer_flag_commands()
    first = {tuple(argv): run(capsys, *argv) for argv in commands}
    assert {argv: code for argv, (code, _, _) in first.items() if code not in (0, 2)} == {}
    again = {tuple(argv): run(capsys, *argv) for argv in reversed(commands)}
    assert again == first
