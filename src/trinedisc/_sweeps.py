"""The ``region`` and ``curves`` sweeps, computed on numpy columns.

Only those two commands import this module, so a single query neither
compiles it nor loads numpy.  The closed forms and checks are the single
query's own expressions, evaluated on columns of priors that read like a
:class:`~trinedisc.trine.Priors`; each check gives a mask of the rows that
fail it.  Where a row fails, the single-row functions run again on the
first failing row, so a sweep stops with exactly the error that row gives
alone.  Every row is computed before anything is written.

A power on a column calls Python's pow once per run of equal entries
(:class:`Column`).  The cross-checks write their delta powers, which have
no runs, as products, which round alike on floats and on columns.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .cli import _fmt
from .errors import UndefinedError, VerificationError, ZeroPriorError
from .max_confidence import _closed_form_value, _each_state
from .min_error import (
    _branch,
    _p_correct_two,
    _positive,
    _three_element_agree,
    _three_element_terms,
    critical_delta,
    optimal_branch,
    p_correct_three_element,
    p_correct_two_element,
)
from .trine import Priors, _canonical_checks, _from_p_delta, priors_from_p_delta


class Column(np.ndarray):
    """A float column whose ``**`` has the bits of Python's float ``**``.

    numpy's own ``**`` rounds differently from the C library's pow on some
    inputs (about 5% of uniform draws for exponents 3 and 4 on an AVX-512
    host), and a closed form must print the same digits on a column as on
    one Priors.  Python's pow runs once per run of equal entries: the closed
    forms raise only p and p2 to powers, and those repeat along a sweep's
    delta axis.
    """

    def __pow__(self, n):
        x = self.view(np.ndarray)
        bits = x.view(np.int64)  # equal bits, so -0.0 and 0.0 stay apart
        new = np.empty(len(x), dtype=bool)
        new[:1] = True
        np.not_equal(bits[1:], bits[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        firsts = np.fromiter(map(pow, x[starts].tolist(), repeat(n)), float, len(starts))
        return firsts.repeat(np.diff(starts, append=len(x))).view(Column)


class PriorColumns:
    """Canonical prior triples as columns, which read like a Priors in caller order."""

    p = Priors.p
    delta = Priors.delta
    canonical = original = Priors.canonical

    def __init__(self, p0, p1, p2):
        self.p0, self.p1, self.p2 = (np.asarray(c, dtype=float).view(Column) for c in (p0, p1, p2))


def first(mask) -> int:
    """The index of the first true entry of ``mask``, or its length if none is."""
    return int(mask.argmax()) if mask.any() else len(mask)


class Sweep:
    """The rows of a (p, delta) sweep with both branches' closed forms.

    Rows are evaluated up to the first that the range checks refuse, as
    they would be one by one.
    """

    def __init__(self, p, delta):
        self.p, self.delta = p, delta
        # refused rows and zero priors overflow or divide by zero; no such value is printed
        with np.errstate(all="ignore"):
            checks, triple = _from_p_delta(p, delta)
            self.admitted = first(~np.logical_and.reduce([*checks, *_canonical_checks(*triple)]))
            self.priors = pr = PriorColumns(*(c[: self.admitted] for c in triple))
            self.det, self.two = _branch(pr)
            self.p2el, _, agree = _p_correct_two(pr, np.sqrt)
            self.two_failed = ~agree
            num, den, alt_num, alt_den, off_pole = _three_element_terms(pr)
            self.p3el = num / den
            # p_3el is undefined at a zero prior or at the pole (4/9, 4/9, 1/9)
            self.undefined = ~(_positive(pr.canonical) & off_pole)
            agree = _three_element_agree(self.p3el, alt_num / alt_den)
            self.three_failed = ~self.undefined & ~agree

    def stop_at_first_failure(self, failed, row_checks) -> None:
        """Raise what the first failing row raises alone, through ``row_checks(p, delta)``.

        ``failed`` marks the admitted rows whose checks fail.
        """
        row = min(first(failed), self.admitted)
        if row < len(self.p):
            p, delta = self.p[row].item(), self.delta[row].item()
            row_checks(p, delta)
            raise VerificationError(
                f"sweep row p={p!r}, delta={delta!r} fails its checks on columns only"
            )


def confidence_columns(priors) -> list:
    """mc_confidence_closed_form of prior columns: per state, the values and
    where they are None, with the limits of max_confidence._closed_form."""
    out = []
    for p_i, a, b in _each_state(priors.original):
        with np.errstate(divide="ignore", invalid="ignore"):  # where a limit applies
            value = _closed_form_value(p_i, a, b)
        value = np.where(p_i == 0.0, 0.0, np.where((a == 0.0) | (b == 0.0), 1.0, value))
        out.append((value, p_i >= 1.0))
    return out


def cells(values, missing=None) -> list[str]:
    """A float column as ``_fmt`` prints each value; "" where ``missing``."""
    out = [f"{x:.12g}" for x in values.tolist()]
    if missing is not None:
        for i in np.flatnonzero(missing).tolist():
            out[i] = ""
    return out


def cells_per_value(values, cell) -> list[str]:
    """``cell(v)`` for each entry v of ``values``, computed once per distinct v."""
    # -0.0 would share the cell of 0.0; no column printed this way holds it
    distinct, index = np.unique(values, return_inverse=True)
    table = [cell(v) for v in distinct.tolist()]
    return [table[i] for i in index.tolist()]


def critical_delta_cell(p: float) -> str:
    """critical_delta at a row's ``priors.p``, clamped into [1/3, 1/2] against rounding."""
    return _fmt(critical_delta(min(max(p, 1.0 / 3.0), 0.5)))


def prior_cells(priors) -> list[list[str]]:
    """The cells of p, delta, p0, p1 and p2; p and p2 take few distinct values."""
    return [
        cells_per_value(priors.p, _fmt),
        cells(priors.delta),
        cells(priors.p0),
        cells(priors.p1),
        cells_per_value(priors.p2, _fmt),
    ]


def region(p, delta):
    """The rows of ``region``, as tuples of cells, for the grid rows (p, delta)."""
    sweep = Sweep(p, delta)
    two = sweep.two
    sweep.stop_at_first_failure(
        np.where(two, sweep.two_failed, sweep.three_failed | sweep.undefined),
        lambda p, delta: optimal_branch(priors_from_p_delta(p, delta)),
    )
    priors = sweep.priors
    return zip(
        *prior_cells(priors),
        np.where(two, "two_element", "three_element").tolist(),
        cells(np.where(two, sweep.p2el, sweep.p3el)),
        cells(sweep.det),
        *(cells(*confidences) for confidences in confidence_columns(priors)),
        cells_per_value(priors.p, critical_delta_cell),
    )


def _curve_row_checks(p: float, delta: float) -> None:
    priors = priors_from_p_delta(p, delta)
    optimal_branch(priors)
    p_correct_two_element(priors)
    try:
        p_correct_three_element(priors)
    except (ZeroPriorError, UndefinedError):
        pass  # printed as an empty p_3el cell


def curve_columns(p, delta) -> list:
    """The values of one ``curves`` entry, its rows (p, delta).

    An undefined p_3el is an error only where the three-outcome branch is taken.
    """
    sweep = Sweep(p, delta)
    two, undefined = sweep.two, sweep.undefined
    sweep.stop_at_first_failure(
        sweep.two_failed | sweep.three_failed | (~two & undefined), _curve_row_checks
    )
    pr = sweep.priors
    p_correct = np.where(two, sweep.p2el, sweep.p3el)
    return [pr.p0, pr.p1, pr.p2, sweep.p2el, sweep.p3el, undefined, p_correct, sweep.det]


def curves(entries):
    """The rows of ``curves``, as tuples of cells, from its entries' values,
    sorted by (p, delta)."""
    # no values at all print the header alone
    columns = [np.concatenate(column) for column in zip(*entries)] or [np.empty(0)] * 8
    unsorted = PriorColumns(*columns[:3])
    order = np.lexsort((unsorted.delta, unsorted.p))  # a stable sort by (p, delta)
    p0, p1, p2, p2el, p3el, undefined, p_correct, det = (column[order] for column in columns)
    priors = PriorColumns(p0, p1, p2)
    return zip(
        *prior_cells(priors),
        cells(p2el),
        cells(p3el, undefined),
        np.where(det < 0.0, "1", "0").tolist(),
        cells(p_correct),
        cells(det),
        cells_per_value(priors.p, critical_delta_cell),
    )
