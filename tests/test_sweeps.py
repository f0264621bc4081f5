"""``region``, ``curves`` and ``confidence --sweep`` against a row-by-row
reference, byte for byte.

The reference below rebuilds each sweep's CSV one row at a time from the
public scalar functions, the way the sweeps were first written, and renders
any error the way ``main`` does.  The CLI must print exactly the same
stdout, stderr and exit code, including the row at which a sweep stops.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from trinedisc import __version__, _sweeps
from trinedisc._sweeps import delta_axes
from trinedisc.errors import (
    DomainError,
    PureStateError,
    TrineError,
    UndefinedError,
    VerificationError,
    ZeroPriorError,
)
from trinedisc.max_confidence import (
    confidence_report,
    mc_confidence_closed_form,
    min_error_confidence,
)
from trinedisc.min_error import (
    critical_delta,
    optimal_branch,
    p_correct_three_element,
    p_correct_two_element,
)
from trinedisc.trine import priors_from_p_delta

from test_cli import run

#: numpy prints a RuntimeWarning for a division by zero; no sweep may
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def csv_text(command: str, flags: str, columns: list[str], rows) -> str:
    lines = [columns, *rows]
    return f"# trinedisc {__version__} {command} {flags}\n" + "".join(
        ",".join(map(cell, row)) + "\r\n" for row in lines
    )


def delta_axis(p: float, steps: int) -> list[float]:
    return np.linspace(0.0, max(0.0, min(p, 3.0 * p - 1.0)), steps).tolist()


def p_axis(delta: float, steps: int) -> list[float]:
    return np.linspace(max(1.0 / 3.0, (1.0 + delta) / 3.0, delta), 0.5, steps).tolist()


def prior_cells(pr) -> list:
    return [pr.p, pr.delta, pr.p0, pr.p1, pr.p2]


REGION_COLUMNS = ["p", "delta", "p0", "p1", "p2", "strategy", "p_correct", "determinant",
                  "confidence_0", "confidence_1", "confidence_2", "critical_delta"]
CURVE_COLUMNS = ["p", "delta", "p0", "p1", "p2", "p_2el", "p_3el", "p_3el_valid",
                 "p_correct", "determinant", "critical_delta"]
CONFIDENCE_COLUMNS = ["p", "delta", "p0", "p1", "p2", "mc_confidence_0", "mc_confidence_1",
                      "mc_confidence_2", "me_confidence_0", "me_confidence_1", "me_confidence_2",
                      "inconclusive_probability"]


def region_row(p: float, delta: float) -> list:
    pr = priors_from_p_delta(p, delta)
    strategy, p_correct, det = optimal_branch(pr)
    return [*prior_cells(pr), strategy, p_correct, det, *mc_confidence_closed_form(pr),
            critical_delta(pr.p)]


def curve_row(p: float, delta: float) -> list:
    pr = priors_from_p_delta(p, delta)
    strategy, p_correct, det = optimal_branch(pr)
    p2el = p_correct_two_element(pr)
    try:
        p3el = p_correct_three_element(pr)
    except (ZeroPriorError, UndefinedError):
        p3el = None
    return [*prior_cells(pr), p2el, p3el, int(det < 0.0), p_correct, det, critical_delta(pr.p)]


def expected(build) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of a sweep whose text ``build`` returns."""
    try:
        return 0, build(), ""
    except VerificationError as exc:
        return 3, "", f"internal verification failure: {exc}\n"
    except TrineError as exc:
        return 2, "", f"error: {exc}\n"


def region_reference(grid: int):
    def build():
        rows = [region_row(p, d) for p in p_axis(0.0, grid) for d in delta_axis(p, grid)]
        return csv_text("region", f"--grid {grid}", REGION_COLUMNS, rows)

    return expected(build)


def curves_reference(flag: str, text: str, steps: int):
    def build():
        values = [float(v) for v in text.split(",") if v.strip()]
        if flag == "--p-values":
            rows = [curve_row(p, d) for p in values for d in delta_axis(p, steps)]
        else:
            rows = []
            for d in values:
                # each value is range-checked only once the rows before it pass
                if not 0.0 <= d <= 0.5:
                    raise DomainError(f"--delta-values must lie in [0, 1/2], got {d}")
                rows += [curve_row(p, d) for p in p_axis(d, steps)]
        rows.sort(key=lambda r: (r[0], r[1]))
        return csv_text("curves", f"{flag} {text} --steps {steps}", CURVE_COLUMNS, rows)

    return expected(build)


def confidence_reference(delta: float, steps: int):
    def build():
        if not 0.0 <= delta <= 0.5:
            raise DomainError(f"--delta must lie in [0, 1/2], got {delta}")
        rows = []
        for p in p_axis(delta, steps):
            pr = priors_from_p_delta(p, delta)
            try:
                report = confidence_report(pr)
            except PureStateError:
                continue  # no confidence at a pure ensemble
            rows.append([*prior_cells(pr), *report.per_state_confidence,
                         *min_error_confidence(pr), report.inconclusive_probability])
        return csv_text("confidence", f"--delta {delta} --sweep {steps}", CONFIDENCE_COLUMNS, rows)

    return expected(build)


@pytest.mark.parametrize("grid", [2, 3, 20, 60, 100])
def test_region_is_the_row_by_row_sweep(capsys, grid):
    want = region_reference(grid)
    assert want[0] == 0
    assert run(capsys, "region", "--grid", str(grid)) == want


def test_csv_body_prints_each_float_as_a_cell_does():
    x = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1 / 3, 1e16, 0.1 + 0.2])
    text = ["two_element", "", "1", "0", "a b", "x", "y", "z", "0.5"]
    missing = np.arange(len(x)) % 3 == 0
    columns = [x, text, _sweeps.with_missing(x, missing), _sweeps.with_missing(x, ~np.ones(9, bool))]
    want = "".join(
        f"{cell(v)},{t},{'' if m else cell(v)},{cell(v)}\r\n"
        for v, t, m in zip(x.tolist(), text, missing.tolist())
    )
    assert _sweeps.csv_body(columns) == want
    assert _sweeps.csv_body([x[:0], []]) == ""


def test_cells_per_value_formats_each_distinct_value_once():
    values = np.array([0.0, -0.0, 0.0, 1.5, -0.0, 1.5, math.nan])
    seen = []

    def to_cell(v):
        seen.append(v)
        return repr(v)

    assert _sweeps.cells_per_value(values, to_cell) == [repr(v) for v in values.tolist()]
    assert len(seen) == 4  # -0.0 apart from 0.0


@pytest.mark.parametrize("steps", [1, 2, 3, 20, 60, 100, 400])
def test_delta_axes_are_each_p_own_linspace(steps):
    # p = 1/3 has the bound 0; 0.3 and 0.6 are refused later, by the sweep
    ps = [*p_axis(0.0, max(steps, 2)), 0.3, 0.6]
    want = np.array([delta_axis(p, steps) for p in ps])
    got = delta_axes(ps, steps)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize(
    "flag, text, steps",
    [
        ("--p-values", "0.35,0.40,0.45", 200),
        ("--p-values", "0.5,0.3333333333333333,0.4", 7),
        ("--delta-values", "0,0.05,0.1,0.2", 200),
        # through the three-outcome pole at (4/9, 4/9, 1/9)
        ("--delta-values", "0", 40),
        ("--delta-values", "0.5,0.25", 1),
        ("--p-values", ",", 5),
    ],
)
def test_curves_are_the_row_by_row_sweep(capsys, flag, text, steps):
    want = curves_reference(flag, text, steps)
    assert want[0] == 0
    assert run(capsys, "curves", flag, text, "--steps", str(steps)) == want


@pytest.mark.parametrize("steps", [1, 7, 50])
@pytest.mark.parametrize("delta", [0.0, 0.05, 0.49, 0.5, 0.6])
def test_confidence_sweep_is_the_row_by_row_sweep(capsys, delta, steps):
    # the p axis at delta = 1/2 holds only the pure corner; 0.6 is refused
    want = confidence_reference(delta, steps)
    assert want[0] == (2 if delta > 0.5 else 0)
    assert run(capsys, "confidence", "--delta", str(delta), "--sweep", str(steps)) == want


@pytest.mark.parametrize(
    "argv",
    [
        # the last row, the pure corner, has an empty confidence_0 cell
        ["region", "--grid", "100"],
        # the rows at p = 1/2 have an empty p_3el cell
        ["curves", "--delta-values", "0,0.3", "--steps", "40"],
    ],
)
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert ",," in out
    path = tmp_path / "sweep.csv"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv, reference",
    [
        # the three-outcome cross-check trips (ROADMAP P1(a)); each sweep
        # stops at its first failing row
        (["region", "--grid", "400"], lambda: region_reference(400)),
        (["curves", "--p-values", "0.4999", "--steps", "5"],
         lambda: curves_reference("--p-values", "0.4999", 5)),
        (["curves", "--p-values", "0.44444444", "--steps", "3"],
         lambda: curves_reference("--p-values", "0.44444444", 3)),
        # refused by the prior range checks on the first row
        (["curves", "--p-values", "0.3", "--steps", "4"],
         lambda: curves_reference("--p-values", "0.3", 4)),
        (["curves", "--p-values", "0.4,0.6", "--steps", "4"],
         lambda: curves_reference("--p-values", "0.4,0.6", 4)),
        (["curves", "--delta-values", "0.4999,0.7", "--steps", "5"],
         lambda: curves_reference("--delta-values", "0.4999,0.7", 5)),
        (["curves", "--delta-values", "0,0.7", "--steps", "5"],
         lambda: curves_reference("--delta-values", "0,0.7", 5)),
    ],
    ids=["region400", "p04999", "next_to_pole", "p_below_third", "p_above_half",
         "row_before_bad_delta", "bad_delta_after_rows"],
)
def test_failing_sweeps_stop_at_the_first_failing_row(capsys, argv, reference):
    want = reference()
    assert want[0] in (2, 3) and want[1] == ""
    assert run(capsys, *argv) == want
