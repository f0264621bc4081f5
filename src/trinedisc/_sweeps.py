"""The CSV sweeps ``region``, ``curves`` and ``confidence --sweep``: their
axes, headers and rows.

Only those commands import this module, so a single query neither
compiles it nor loads numpy.  Each returns its header and rows as one
text, computing every row before anything is written.  ``region`` and
``curves`` evaluate the single query's own closed forms and checks on
columns of priors that read like a :class:`~trinedisc.trine.Priors`; each
check gives a mask of the rows that fail it.  Where a row fails, the
single-row functions run again on the first failing row, so a sweep
stops with exactly the error that row gives alone.  ``confidence --sweep``
builds a POVM per row, so it computes row by row.

:func:`csv_body` prints the rows of all three as text with one ``%`` per
row, from a template that prints each float column with ``%.12g`` and
each column already held as cells with ``%s``.

A power on a column calls Python's pow once per run of equal entries
(:class:`Column`).  The cross-checks write their delta powers, which have
no runs, as products, which round alike on floats and on columns.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from . import max_confidence, trine
from .errors import DomainError, PureStateError, UndefinedError, VerificationError, ZeroPriorError
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

#: The header of each sweep.  Every row starts with the prior coordinates.
PRIOR_COLUMNS = ["p", "delta", "p0", "p1", "p2"]
SWEEP_COLUMNS = [*PRIOR_COLUMNS, "strategy", "p_correct", "determinant",
                 "confidence_0", "confidence_1", "confidence_2", "critical_delta"]
CURVE_COLUMNS = [*PRIOR_COLUMNS, "p_2el", "p_3el", "p_3el_valid", "p_correct", "determinant",
                 "critical_delta"]
CONFIDENCE_COLUMNS = [*PRIOR_COLUMNS, "mc_confidence_0", "mc_confidence_1", "mc_confidence_2",
                      "me_confidence_0", "me_confidence_1", "me_confidence_2",
                      "inconclusive_probability"]


def require_delta(flag: str, delta: float) -> None:
    """Refuse a delta outside [0, 1/2] before :func:`p_axis` starts an axis at it."""
    if not 0.0 <= delta <= 0.5:
        raise DomainError(f"{flag} must lie in [0, 1/2], got {delta}")


def delta_axes(ps, steps: int):
    """For each p of ``ps``, ``steps`` deltas from 0 to the admissible bound
    min(p, 3p - 1): one row per p, with the bits of np.linspace(0.0, bound, steps).

    This is linspace's own arithmetic, on all rows at once.  np.linspace
    with an array of bounds is not used: where one bound is 0, at p = 1/3,
    it takes its zero-step path on every row, whose bits differ.
    """
    stops = np.array([min(p, 3.0 * p - 1.0) for p in ps], dtype=float)
    axes = np.arange(steps) * (stops / max(steps - 1, 1))[:, None] + 0.0
    if steps > 1:
        axes[:, -1] = stops
    return axes


def p_axis(delta: float, steps: int):
    """``steps`` values of p from the smallest admissible at ``delta`` to 1/2, as an array."""
    return np.linspace(max(1.0 / 3.0, (1.0 + delta) / 3.0, delta), 0.5, steps)


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
    """Canonical prior triples as columns, which read like a Priors in caller order.

    p and delta are computed once, by Priors' own definitions.
    """

    canonical = original = Priors.canonical

    def __init__(self, p0, p1, p2):
        self.p0, self.p1, self.p2 = (np.asarray(c, dtype=float).view(Column) for c in (p0, p1, p2))
        self.p = Priors.p.fget(self)
        self.delta = Priors.delta.fget(self)


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
            # divided in place, which keeps two columns fewer alive at the cross-check
            self.p3el = np.divide(num, den, out=num)
            # p_3el is undefined at a zero prior or at the pole (4/9, 4/9, 1/9)
            self.undefined = ~(_positive(pr.canonical) & off_pole)
            agree = _three_element_agree(self.p3el, np.divide(alt_num, alt_den, out=alt_num))
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


def cell(x) -> str:
    """A CSV cell: a float with 12 significant digits, None as an empty cell."""
    return "" if x is None else f"{x:.12g}"


def csv_body(columns) -> str:
    """The CSV rows of ``columns``, one ``%`` per row, each ending in "\\r\\n".

    A float column is given as the array itself and printed with ``%.12g``,
    the text :func:`cell` gives each float, ``inf``, ``nan`` and ``-0``
    included.  A column given as a list of cells is printed with ``%s``.
    """
    template = ",".join("%.12g" if isinstance(c, np.ndarray) else "%s" for c in columns) + "\r\n"
    lists = (c.tolist() if isinstance(c, np.ndarray) else c for c in columns)
    # only the zip holds the lists of floats, so they are freed before the join
    rows = [template % row for row in zip(*lists)]
    return "".join(rows)


def csv_text(header, columns) -> str:
    """The line of the column names ``header``, then :func:`csv_body` of ``columns``."""
    return ",".join(header) + "\r\n" + csv_body(columns)


def with_missing(values, missing):
    """``values`` for :func:`csv_body`; where any entry is ``missing``, its
    cells as :func:`cell` prints them, with "" there."""
    if not missing.any():
        return values
    return ["" if m else cell(x) for x, m in zip(values.tolist(), missing.tolist())]


def cells_per_value(values, to_cell) -> list[str]:
    """``to_cell(v)`` for each entry v of ``values``, computed once per distinct v.

    Entries are distinct when their bits are, so -0.0 and 0.0 stay apart.
    Not once per run: region's p, 0.5 (p0 + p1), changes in its last bit
    along a delta row, and has about seven runs per distinct value.
    """
    distinct, index = np.unique(np.asarray(values).view(np.int64), return_inverse=True)
    cells = [to_cell(v) for v in distinct.view(float).tolist()]
    return [cells[i] for i in index.tolist()]


def critical_delta_cell(p: float) -> str:
    """critical_delta at a row's ``priors.p``, clamped into [1/3, 1/2] against rounding."""
    return cell(critical_delta(min(max(p, 1.0 / 3.0), 0.5)))


def prior_columns(priors) -> list:
    """The columns of p, delta, p0, p1 and p2; p and p2 take few distinct values."""
    return [
        cells_per_value(priors.p, cell),
        priors.delta,
        priors.p0,
        priors.p1,
        cells_per_value(priors.p2, cell),
    ]


def region(grid: int) -> str:
    """The CSV text of ``region``: ``grid`` values of p, each with ``grid`` deltas."""
    ps = p_axis(0.0, grid)
    sweep = Sweep(np.repeat(ps, grid), delta_axes(ps.tolist(), grid).ravel())
    two = sweep.two
    sweep.stop_at_first_failure(
        np.where(two, sweep.two_failed, sweep.three_failed | sweep.undefined),
        lambda p, delta: optimal_branch(priors_from_p_delta(p, delta)),
    )
    priors = sweep.priors
    return csv_text(SWEEP_COLUMNS, [
        *prior_columns(priors),
        np.where(two, "two_element", "three_element").tolist(),
        np.where(two, sweep.p2el, sweep.p3el),
        sweep.det,
        *(with_missing(*confidences) for confidences in confidence_columns(priors)),
        cells_per_value(priors.p, critical_delta_cell),
    ])


def _curve_row_checks(p: float, delta: float) -> None:
    priors = priors_from_p_delta(p, delta)
    optimal_branch(priors)
    p_correct_two_element(priors)
    try:
        p_correct_three_element(priors)
    except (ZeroPriorError, UndefinedError):
        pass  # printed as an empty p_3el cell


def curves(steps: int, p_values=(), delta_values=()) -> str:
    """The CSV text of ``curves``, its rows sorted by (p, delta).

    Each p of ``p_values`` gives ``steps`` rows along delta, then each delta
    of ``delta_values`` ``steps`` rows along p.  A delta outside [0, 1/2] is
    refused once the rows before it pass their checks.  An undefined p_3el
    is an error only where the three-outcome branch is taken.
    """
    p, delta = [np.repeat(p_values, steps)], [delta_axes(p_values, steps).ravel()]
    refused = None
    for value in delta_values:
        try:
            require_delta("--delta-values", value)
        except DomainError as exc:
            refused = exc
            break
        p.append(p_axis(value, steps))
        delta.append(np.full(steps, value))
    sweep = Sweep(np.concatenate(p), np.concatenate(delta))
    two, undefined = sweep.two, sweep.undefined
    sweep.stop_at_first_failure(
        sweep.two_failed | sweep.three_failed | (~two & undefined), _curve_row_checks
    )
    if refused is not None:
        raise refused
    pr = sweep.priors
    order = np.lexsort((pr.delta, pr.p))  # a stable sort by (p, delta)
    priors = PriorColumns(pr.p0[order], pr.p1[order], pr.p2[order])
    p2el, p3el, undefined, two, det = (
        column[order] for column in (sweep.p2el, sweep.p3el, undefined, two, sweep.det)
    )
    return csv_text(CURVE_COLUMNS, [
        *prior_columns(priors),
        p2el,
        with_missing(p3el, undefined),
        np.where(det < 0.0, "1", "0").tolist(),
        np.where(two, p2el, p3el),
        det,
        cells_per_value(priors.p, critical_delta_cell),
    ])


def confidence(delta: float, steps: int) -> str:
    """The CSV text of ``confidence --sweep``: ``steps`` values of p at ``delta``.

    Each row builds its own POVM.  A pure ensemble has no confidence, so
    its row is left out.
    """
    rows = []
    for p in p_axis(delta, steps).tolist():
        # called through their modules, where bench/tracing.py counts them
        try:
            priors = trine.priors_from_p_delta(p, delta)
            report = max_confidence.confidence_report(priors)
            rows.append((*priors.canonical, *report.per_state_confidence,
                         *max_confidence.min_error_confidence(priors),  # None where unnamed
                         report.inconclusive_probability))
        except PureStateError:
            continue
    p0, p1, p2, *values = list(zip(*rows)) or [()] * 10
    return csv_text(CONFIDENCE_COLUMNS, [
        *prior_columns(PriorColumns(p0, p1, p2)),
        *(with_missing(np.array(v, dtype=float), np.equal(v, None)) for v in values),
    ])
