"""Command-line front end.

Subcommands: ``optimal`` (single-point query), ``region`` and ``curves``
and ``confidence`` (CSV parameter sweeps), ``verify`` (closed forms
against the certified bounds of :mod:`trinedisc.oracle`), ``simulate``
(Monte Carlo).

Exit codes: 0 ok, 2 usage or domain error, 3 internal verification
failure, 4 I/O error, 5 certificate mismatch.  Numbers are serialized with 12
significant digits; CSV data carries no timestamps, only a ``#`` metadata
header with the package version and the invoking flags.

The CSV sweeps, ``region``, ``curves`` and ``confidence --sweep``, are
each one call to :mod:`trinedisc._sweeps`, which only they import: it
holds their axes, headers and rows, and returns the finished text.  Here
they check their flags, and write the ``#`` metadata line and that text
in one call, once every row is computed and ``--out`` is opened.
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
from .errors import DomainError, TrineError, VerificationError
from .max_confidence import (
    confidence,
    confidence_report,
    min_error_confidence,
)
from .min_error import check_helstrom, optimal_measurement
from .oracle import certify_max_confidence, certify_min_error
from .qubit import _Record, _entries
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


def sig12(x: float) -> float:
    """Round to 12 significant digits (the serialization precision)."""
    return float(f"{x:.12g}")


def _json_ready(obj):
    if isinstance(obj, float):
        return sig12(obj)
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, _Record):
        return {name: _json_ready(getattr(obj, name)) for name in obj._fields}
    return obj


def _emit_json(payload, stream):
    """Write ``payload`` as indented JSON and a newline, in one ``write``."""
    stream.write(json.dumps(_json_ready(payload), indent=2) + "\n")


def _measurement_payload(m):
    out = []
    for label, b in m.forms:
        entries = _entries(b)
        out.append(
            {
                "label": label,
                "entries_real": [[v.real for v in row] for row in entries],
                "entries_imag": [[v.imag for v in row] for row in entries],
            }
        )
    return out


def _priors_from_args(args) -> Priors:
    """The priors of exactly one complete form, --p0/--p1/--p2 or
    --p/--delta; a flag of the other form is refused, never ignored."""
    triple, pdelta = (args.p0, args.p1, args.p2), (args.p, args.delta)
    if None not in triple and pdelta == (None, None):
        return canonicalize_priors(*triple)
    if None not in pdelta and triple == (None, None, None):
        return priors_from_p_delta(*pdelta)
    raise DomainError("specify exactly one of --p0/--p1/--p2 or --p/--delta")


def _add_prior_flags(parser):
    parser.add_argument("--p0", type=float)
    parser.add_argument("--p1", type=float)
    parser.add_argument("--p2", type=float)
    parser.add_argument("--p", type=float)
    parser.add_argument("--delta", type=float)


@contextmanager
def _open_out(path):
    if path == "-":
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


def _write_csv(path, command: str, flags: str, text: str):
    """Write the metadata line and a sweep's finished ``text`` to ``path``, in one ``write``."""
    with _open_out(path) as stream:
        stream.write(f"# trinedisc {__version__} {command} {flags}\n{text}")


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
            "permutation": priors.permutation,
        },
        "strategy": result.strategy,
        "p_correct": result.p_correct,
        "determinant": result.boundary_determinant,
        "theta": result.theta,
        "gamma": g,
        "elements": _measurement_payload(result.measurement),
        "helstrom": h,
    }
    if args.json:
        _emit_json(payload, sys.stdout)
    else:
        print(f"strategy: {result.strategy}")
        print(f"p_correct: {result.p_correct:.12g}")
        print(f"determinant: {result.boundary_determinant:.12g}")
        if result.theta is not None:
            print(f"theta: {result.theta:.12g}")
        if g is not None:
            print(f"gamma: a={g.a:.12g} b_x={g.b_x:.12g} b_y={g.b_y:.12g}")
        for item in payload["elements"]:
            print(f"element {item['label']}:")
            for r_row, i_row in zip(item["entries_real"], item["entries_imag"]):
                rendered = "  ".join(
                    f"{re:+.12g}{im:+.12g}j" for re, im in zip(r_row, i_row)
                )
                print(f"  {rendered}")
        print(
            f"helstrom: offdiag={h.max_offdiag_residual:.12g} "
            f"min_eig={h.min_global_eigenvalue:.12g} passes={h.passes}"
        )
    return EXIT_OK


def cmd_region(args) -> int:
    _require_at_least("--grid", args.grid, 2)
    from . import _sweeps

    _write_csv(args.out, "region", f"--grid {args.grid}", _sweeps.region(args.grid))
    return EXIT_OK


def _parse_values(flag: str, text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise DomainError(f"invalid value list {text!r}") from exc
    for v in values:
        _require_finite(flag, v)
    return values


def cmd_curves(args) -> int:
    if (args.p_values is None) == (args.delta_values is None):
        raise DomainError("specify exactly one of --p-values or --delta-values")
    _require_at_least("--steps", args.steps, 1)
    from . import _sweeps

    if args.p_values is not None:
        flags = f"--p-values {args.p_values}"
        text = _sweeps.curves(args.steps, p_values=_parse_values("--p-values", args.p_values))
    else:
        flags = f"--delta-values {args.delta_values}"
        values = _parse_values("--delta-values", args.delta_values)
        text = _sweeps.curves(args.steps, delta_values=values)
    _write_csv(args.out, "curves", f"{flags} --steps {args.steps}", text)
    return EXIT_OK


def cmd_confidence(args) -> int:
    if args.sweep is not None:
        if args.delta is None:
            raise DomainError("--sweep needs --delta (sweeps p at fixed delta)")
        if (args.p0, args.p1, args.p2, args.p) != (None, None, None, None):
            raise DomainError("--sweep takes --delta alone, not --p0/--p1/--p2/--p")
        _require_finite("--delta", args.delta)
        from . import _sweeps

        _sweeps.require_delta("--delta", args.delta)
        _require_at_least("--sweep", args.sweep, 1)
        text = _sweeps.confidence(args.delta, args.sweep)
        _write_csv(args.out, "confidence", f"--delta {args.delta} --sweep {args.sweep}", text)
        return EXIT_OK
    priors = _priors_from_args(args)
    report = confidence_report(priors)
    payload = {
        "priors": {"p0": priors.p0, "p1": priors.p1, "p2": priors.p2},
        "max_confidence": report.per_state_confidence,
        "min_error_confidence": min_error_confidence(priors),
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
            # certificate leaves possible; the first NaN certifies nothing and is the worst
            diff = max(upper - closed, closed - lower)
            if math.isnan(diff) or math.isnan(lower) or math.isnan(upper):
                diff = None
            if worst["difference"] is not None and (diff is None or diff > worst["difference"]):
                worst = {"kind": kind, "priors": priors.original, "difference": diff}
    ok = worst["difference"] is not None and worst["difference"] <= args.tolerance
    payload = {
        "samples": args.samples,
        "seed": args.seed,
        "tolerance": args.tolerance,
        "worst": worst,
        "ok": ok,
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
    return confidence_report(priors).measurement, None  # "maxconf", the last choice


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
        "per_outcome_counts": result.per_outcome_counts,
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
