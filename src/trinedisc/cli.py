"""Command-line front end.

Subcommands: ``optimal`` (single-point query), ``region`` and ``curves``
and ``confidence`` (CSV parameter sweeps), ``verify`` (closed forms
against the certified bounds of :mod:`trinedisc.oracle`), ``simulate``
(Monte Carlo).

Exit codes: 0 ok, 2 usage or domain error, 3 internal verification
failure, 4 I/O error, 5 certificate mismatch.  Numbers are serialized with 12
significant digits; CSV data carries no timestamps, only a ``#`` metadata
header with the package version and the invoking flags.

``region`` and ``curves`` compute their rows as numpy columns
(:mod:`trinedisc._sweeps`, which only they import), with the same
closed-form expressions as a single query, and run every check a single
row runs as a mask over the columns; where a row fails, that row alone is
evaluated again, so the sweep stops with the error a single evaluation
gives.  ``confidence --sweep`` builds a POVM per row and stays row by row.
Every sweep computes all its rows before ``--out`` is opened, and writes
its whole CSV text in one call; ``region`` and ``curves`` print it with
one ``%`` per row.
numpy is imported only by the sweeps, by ``verify`` to draw its priors
and through the sampler, so single queries run without loading it.
:func:`main` builds its parser on the first call and reuses it, so it can
be called repeatedly in one process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import contextmanager

from . import __version__
from .errors import (
    DomainError,
    PureStateError,
    TrineError,
    VerificationError,
)
from .max_confidence import (
    confidence,
    confidence_report,
    min_error_confidence,
)
from .min_error import check_helstrom, optimal_measurement
from .oracle import certify_max_confidence, certify_min_error
from .simulate import estimate_confidence, estimate_success
from .trine import (
    Priors,
    antitrine_measurement,
    canonicalize_priors,
    priors_from_p_delta,
    random_priors,
    trine_measurement,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3
EXIT_IO = 4
EXIT_MISMATCH = 5

#: The prior coordinates every CSV row starts with.
PRIOR_COLUMNS = ["p", "delta", "p0", "p1", "p2"]

SWEEP_COLUMNS = [
    *PRIOR_COLUMNS,
    "strategy",
    "p_correct",
    "determinant",
    "confidence_0",
    "confidence_1",
    "confidence_2",
    "critical_delta",
]


def sig12(x: float) -> float:
    """Round to 12 significant digits (the serialization precision)."""
    return float(f"{x:.12g}")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _json_ready(obj):
    if isinstance(obj, float):
        return sig12(obj)
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _emit_json(payload, stream):
    json.dump(_json_ready(payload), stream, indent=2)
    stream.write("\n")


def _entries(b):
    """The (real, imaginary) entries of ``from_bloch(b)``, signed zeros included.

    from_bloch scales [[t + z, x - iy], [x + iy, t - z]] by 0.5 as complex
    products, so the sign of a zero part follows the other part:
    iy = (0.0 * y - 0.0, y), and (re, im) scales to
    (0.5 * re - 0.0 * im, 0.5 * im + 0.0 * re).
    """
    t, x, y, z = b
    iy_re, iy_im = 0.0 * y - 0.0, y
    rows = (
        ((t + z, 0.0), (x - iy_re, 0.0 - iy_im)),
        ((x + iy_re, 0.0 + iy_im), (t - z, 0.0)),
    )
    return [[(0.5 * re - 0.0 * im, 0.5 * im + 0.0 * re) for re, im in row] for row in rows]


def _measurement_payload(m):
    out = []
    for label, b in m.forms:
        entries = _entries(b)
        out.append(
            {
                "label": label,
                "entries_real": [[sig12(re) for re, _ in row] for row in entries],
                "entries_imag": [[sig12(im) for _, im in row] for row in entries],
            }
        )
    return out


def _priors_from_args(args) -> Priors:
    triple = (args.p0, args.p1, args.p2)
    has_triple = all(v is not None for v in triple)
    has_pdelta = args.p is not None and args.delta is not None
    if has_triple == has_pdelta:
        raise DomainError("specify either --p0/--p1/--p2 or --p/--delta")
    if has_triple:
        return canonicalize_priors(*triple)
    return priors_from_p_delta(args.p, args.delta)


def _add_prior_flags(parser):
    parser.add_argument("--p0", type=float)
    parser.add_argument("--p1", type=float)
    parser.add_argument("--p2", type=float)
    parser.add_argument("--p", type=float)
    parser.add_argument("--delta", type=float)


@contextmanager
def _open_out(path):
    if path == "-" or path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh


def _require_at_least(flag: str, value: float, minimum: float) -> None:
    if value < minimum:
        raise DomainError(f"{flag} must be at least {minimum}, got {value}")


def _require_finite(flag: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{flag} must be finite, got {value}")


def _require_delta(flag: str, delta: float) -> None:
    """Refuse a delta outside [0, 1/2] before :func:`_p_axis` starts an axis at it."""
    if not 0.0 <= delta <= 0.5:
        raise DomainError(f"{flag} must lie in [0, 1/2], got {delta}")


def _delta_axes(ps, steps: int):
    """For each p of ``ps``, ``steps`` deltas from 0 to the admissible bound
    min(p, 3p - 1): one row per p, with the bits of np.linspace(0.0, bound, steps).

    This is linspace's own arithmetic, on all rows at once.  np.linspace
    with an array of bounds is not used: where one bound is 0, at p = 1/3,
    it takes its zero-step path on every row, whose bits differ.
    """
    import numpy as np

    stops = np.array([min(p, 3.0 * p - 1.0) for p in ps], dtype=float)
    axes = np.arange(steps) * (stops / max(steps - 1, 1))[:, None] + 0.0
    if steps > 1:
        axes[:, -1] = stops
    return axes


def _p_axis(delta: float, steps: int):
    """``steps`` values of p from the smallest admissible at ``delta`` to 1/2, as an array."""
    import numpy as np

    return np.linspace(max(1.0 / 3.0, (1.0 + delta) / 3.0, delta), 0.5, steps)


def _write_csv(stream, command: str, flags: str, columns, body: str):
    """Write the metadata line, the header of ``columns`` and the finished
    rows ``body`` in one ``write``."""
    stream.write(f"# trinedisc {__version__} {command} {flags}\n{','.join(columns)}\r\n{body}")


def cmd_optimal(args) -> int:
    priors = _priors_from_args(args)
    result = optimal_measurement(priors)
    g, h = result.gamma, result.helstrom
    payload = {
        "priors": {
            "p0": priors.p0,
            "p1": priors.p1,
            "p2": priors.p2,
            "p": priors.p,
            "delta": priors.delta,
            "permutation": list(priors.permutation),
        },
        "strategy": result.strategy,
        "p_correct": result.p_correct,
        "determinant": result.boundary_determinant,
        "theta": result.theta,
        "gamma": None if g is None else {"a": g.a, "b_x": g.b_x, "b_y": g.b_y, "p_corr": g.p_corr},
        "elements": _measurement_payload(result.measurement),
        "helstrom": {
            "max_offdiag_residual": h.max_offdiag_residual,
            "min_global_eigenvalue": h.min_global_eigenvalue,
            "passes": h.passes,
            "success_probability": h.success_probability,
        },
    }
    if args.json:
        _emit_json(payload, sys.stdout)
    else:
        print(f"strategy: {result.strategy}")
        print(f"p_correct: {_fmt(result.p_correct)}")
        print(f"determinant: {_fmt(result.boundary_determinant)}")
        if result.theta is not None:
            print(f"theta: {_fmt(result.theta)}")
        if result.gamma is not None:
            print(
                f"gamma: a={_fmt(result.gamma.a)} "
                f"b_x={_fmt(result.gamma.b_x)} b_y={_fmt(result.gamma.b_y)}"
            )
        for item in payload["elements"]:
            print(f"element {item['label']}:")
            for r_row, i_row in zip(item["entries_real"], item["entries_imag"]):
                rendered = "  ".join(
                    f"{re:+.12g}{im:+.12g}j" for re, im in zip(r_row, i_row)
                )
                print(f"  {rendered}")
        print(
            "helstrom: offdiag="
            f"{_fmt(result.helstrom.max_offdiag_residual)} "
            f"min_eig={_fmt(result.helstrom.min_global_eigenvalue)} "
            f"passes={bool(result.helstrom.passes)}"
        )
    return EXIT_OK


def cmd_region(args) -> int:
    _require_at_least("--grid", args.grid, 2)
    import numpy as np

    from . import _sweeps

    ps = _p_axis(0.0, args.grid)
    body = _sweeps.region(np.repeat(ps, args.grid), _delta_axes(ps.tolist(), args.grid).ravel())
    with _open_out(args.out) as fh:
        _write_csv(fh, "region", f"--grid {args.grid}", SWEEP_COLUMNS, body)
    return EXIT_OK


def _parse_values(flag: str, text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise DomainError(f"invalid value list {text!r}") from exc
    for v in values:
        _require_finite(flag, v)
    return values


CURVE_COLUMNS = [
    *PRIOR_COLUMNS,
    "p_2el",
    "p_3el",
    "p_3el_valid",
    "p_correct",
    "determinant",
    "critical_delta",
]


def cmd_curves(args) -> int:
    if (args.p_values is None) == (args.delta_values is None):
        raise DomainError("specify exactly one of --p-values or --delta-values")
    _require_at_least("--steps", args.steps, 1)
    import numpy as np

    from . import _sweeps

    entries = []
    if args.p_values is not None:
        values = _parse_values("--p-values", args.p_values)
        for p, deltas in zip(values, _delta_axes(values, args.steps)):
            entries.append(_sweeps.curve_columns(np.full(args.steps, p), deltas))
        flags = f"--p-values {args.p_values} --steps {args.steps}"
    else:
        for delta in _parse_values("--delta-values", args.delta_values):
            _require_delta("--delta-values", delta)
            ps = _p_axis(delta, args.steps)
            entries.append(_sweeps.curve_columns(ps, np.full(len(ps), delta)))
        flags = f"--delta-values {args.delta_values} --steps {args.steps}"
    body = _sweeps.curves(entries)
    with _open_out(args.out) as fh:
        _write_csv(fh, "curves", flags, CURVE_COLUMNS, body)
    return EXIT_OK


CONFIDENCE_COLUMNS = [
    *PRIOR_COLUMNS,
    "mc_confidence_0",
    "mc_confidence_1",
    "mc_confidence_2",
    "me_confidence_0",
    "me_confidence_1",
    "me_confidence_2",
    "inconclusive_probability",
]


def _confidence_row(priors: Priors):
    report = confidence_report(priors)
    me_conf = min_error_confidence(priors)
    return [
        priors.p,
        priors.delta,
        priors.p0,
        priors.p1,
        priors.p2,
        *report.per_state_confidence,
        *me_conf,
        report.inconclusive_probability,
    ]


def cmd_confidence(args) -> int:
    if args.sweep is not None:
        if args.delta is None:
            raise DomainError("--sweep needs --delta (sweeps p at fixed delta)")
        _require_finite("--delta", args.delta)
        _require_delta("--delta", args.delta)
        _require_at_least("--sweep", args.sweep, 1)
        rows = []
        for p in _p_axis(args.delta, args.sweep).tolist():
            try:
                row = _confidence_row(priors_from_p_delta(p, args.delta))
            except PureStateError:
                continue  # pure ensemble density: confidence undefined
            rows.append(",".join(map(_fmt, row)) + "\r\n")
        with _open_out(args.out) as fh:
            _write_csv(
                fh,
                "confidence",
                f"--delta {args.delta} --sweep {args.sweep}",
                CONFIDENCE_COLUMNS,
                "".join(rows),
            )
        return EXIT_OK
    priors = _priors_from_args(args)
    report = confidence_report(priors)
    me_conf = min_error_confidence(priors)
    payload = {
        "priors": {"p0": priors.p0, "p1": priors.p1, "p2": priors.p2},
        "max_confidence": list(report.per_state_confidence),
        "min_error_confidence": [c for c in me_conf],
        "inconclusive_probability": report.inconclusive_probability,
        "inconclusive_convention": "maximal common element scale",
    }
    with _open_out(args.out) as fh:
        _emit_json(payload, fh)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Certify the answers for ``--samples`` uniform priors from ``--seed``.

    Each prior's minimum-error answer is certified from the Helstrom report
    :func:`~trinedisc.min_error.optimal_measurement` made on it, and its
    three maximum confidences from the closed forms that
    :func:`confidence_report` checked its posteriors against; the payload
    names the largest distance from a closed form to its bounds.
    """
    _require_at_least("--samples", args.samples, 1)
    _require_at_least("--seed", args.seed, 0)
    _require_finite("--tolerance", args.tolerance)
    _require_at_least("--tolerance", args.tolerance, 0)
    from numpy.random import default_rng

    worst = {"kind": None, "priors": None, "difference": 0.0}
    for priors in random_priors(default_rng(args.seed), args.samples):
        result = optimal_measurement(priors)
        checked = [("min_error", result.p_correct,
                    certify_min_error(priors.original, result.measurement, result.helstrom))]
        report = confidence_report(priors)
        bounds = certify_max_confidence(priors, report)
        checked += [(f"confidence_{i}", closed, bound) for i, (closed, bound)
                    in enumerate(zip(report.closed_form, bounds))]
        for kind, closed, (lower, upper) in checked:
            # the largest distance from the closed form to any value the
            # certificate leaves possible
            diff = max(upper - closed, closed - lower)
            if diff > worst["difference"]:
                worst = {"kind": kind, "priors": list(priors.original), "difference": diff}
    ok = worst["difference"] <= args.tolerance
    payload = {
        "samples": args.samples,
        "seed": args.seed,
        "tolerance": args.tolerance,
        "worst": worst,
        "ok": bool(ok),
    }
    _emit_json(payload, sys.stdout)
    return EXIT_OK if ok else EXIT_MISMATCH


def _strategy_measurement(args, priors: Priors):
    """The strategy's measurement, and its Helstrom report if already made."""
    if args.strategy == "optimal":
        result = optimal_measurement(priors)
        return result.measurement, result.helstrom
    if args.strategy == "trine":
        return trine_measurement(), None
    if args.strategy == "antitrine":
        return antitrine_measurement(), None
    if args.strategy == "maxconf":
        return confidence_report(priors).measurement, None
    raise DomainError(f"unknown strategy {args.strategy!r}")


def cmd_simulate(args) -> int:
    _require_at_least("--shots", args.shots, 1)
    _require_at_least("--seed", args.seed, 0)
    priors = _priors_from_args(args)
    m, helstrom = _strategy_measurement(args, priors)
    if args.confidence_outcome is not None:
        result = estimate_confidence(
            priors, m, args.confidence_outcome, args.shots, args.seed, args.partitions
        )
        analytic = confidence(priors, m, args.confidence_outcome)
        quantity = "confidence"
    else:
        result = estimate_success(priors, m, args.shots, args.seed, args.partitions)
        if helstrom is None:
            helstrom = check_helstrom(priors.original, m)
        analytic = helstrom.success_probability
        quantity = "success_probability"
    se = result.standard_error
    payload = {
        "strategy": args.strategy,
        "quantity": quantity,
        "shots": result.shots,
        "total_shots": result.total_shots,
        "successes": result.successes,
        "estimate": result.estimate,
        "standard_error": se,
        "per_outcome_counts": {str(k): v for k, v in result.per_outcome_counts.items()},
        "seed": result.seed,
        "rng_algorithm": result.algorithm,
        "analytic": analytic,
        "se_multiple": abs(result.estimate - analytic) / se if se > 0 else 0.0,
    }
    _emit_json(payload, sys.stdout)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call."""
    parser = argparse.ArgumentParser(
        prog="trinedisc",
        description="Optimal trine-state discrimination measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimal", help="optimal minimum-error measurement")
    _add_prior_flags(p_opt)
    p_opt.add_argument("--json", action="store_true")
    p_opt.set_defaults(func=cmd_optimal)

    p_reg = sub.add_parser("region", help="strategy-region grid (CSV)")
    p_reg.add_argument("--grid", type=int, default=100)
    p_reg.add_argument("--out", default="-")
    p_reg.set_defaults(func=cmd_region)

    p_cur = sub.add_parser("curves", help="success-probability curves (CSV)")
    p_cur.add_argument("--p-values")
    p_cur.add_argument("--delta-values")
    p_cur.add_argument("--steps", type=int, default=100)
    p_cur.add_argument("--out", default="-")
    p_cur.set_defaults(func=cmd_curves)

    p_conf = sub.add_parser("confidence", help="max-confidence report or sweep")
    _add_prior_flags(p_conf)
    p_conf.add_argument("--sweep", type=int)
    p_conf.add_argument("--out", default="-")
    p_conf.set_defaults(func=cmd_confidence)

    p_ver = sub.add_parser("verify", help="closed forms vs certified bounds")
    p_ver.add_argument("--samples", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tolerance", type=float, default=1e-10)
    p_ver.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate")
    _add_prior_flags(p_sim)
    p_sim.add_argument("--shots", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--strategy",
        choices=("optimal", "trine", "antitrine", "maxconf"),
        default="optimal",
    )
    p_sim.add_argument("--confidence-outcome", type=int)
    p_sim.add_argument(
        "--partitions",
        type=int,
        default=1,
        help="number of seeded partitions the shots are split over (default: 1)",
    )
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TrineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
