"""The per-prior path returns the bits of its loop forms.

``max_confidence.mc_povm`` (whose measurement ``confidence_report``
returns), ``min_error.check_helstrom`` (through ``optimal_measurement``
too), ``confidence_report``, ``min_error_confidence``, ``confidence`` and
``oracle.certify_min_error`` work on the three states' scalars, and
``trine.canonicalize_priors`` orders a triple by comparisons; the loop
forms in ``reference`` are the same arithmetic over generators, ``zip``,
lists of joint probabilities and a keyed ``sorted``.
Every field is compared by ``float.hex``, and every exception by its type
and message, on seeded priors: uniform ones and the benchmark's edge, tie,
corner and boundary families.  The draws and the records use the standard
library alone, so they also run on an interpreter without numpy, where
float ``sum`` may round differently (it is compensated from Python 3.12).
"""

import math
import random

from trinedisc import max_confidence, min_error
from trinedisc.min_error import critical_delta
from trinedisc.oracle import certify_min_error
from trinedisc.qubit import _Record
from trinedisc.trine import antitrine_measurement, canonicalize_priors, trine_measurement

SAMPLES = 20_000
#: Priors compared per patch of the library, which bounds the records held.
CHUNK = 2000


def family_triple(rng: random.Random, family: int) -> tuple[float, float, float]:
    """A canonical-order triple: uniform on the simplex, then an edge, a
    tie, a corner and a point within 1e-9 of the region boundary."""
    if family == 0:
        x = [rng.expovariate(1.0) for _ in range(3)]
        total = sum(x)
        return tuple(sorted((v / total for v in x), reverse=True))
    if family == 1:  # edge, p2 = 0
        a = rng.uniform(0.5, 1.0)
        return (a, 1.0 - a, 0.0)
    if family == 2:  # tie p1 = p2, e log-spaced
        e = 10.0 ** rng.uniform(-6.0, math.log10(0.5))
        return (1.0 - 2.0 * e, e, e)
    if family == 3:  # corner, 1 - p0 log-spaced down to 1e-6
        s = 10.0 ** rng.uniform(-6.0, -1.0)
        u = rng.random()
        return (1.0 - s, s * u, s * (1.0 - u))
    while True:  # within 1e-9 of det M = 0
        p = rng.uniform(1.0 / 3.0, 0.5)
        dc = critical_delta(p)
        if dc is None:
            continue
        delta = dc + rng.uniform(-1e-9, 1e-9)
        if 0.0 <= delta <= min(p, 3.0 * p - 1.0):
            return (p + delta, p - delta, 1.0 - 2.0 * p)


def seeded_triples(samples: int = SAMPLES, seed: int = 0) -> list:
    """``samples`` prior triples in caller order: four fifths uniform, the
    rest from the four hard families in turn, after a few exact points."""
    rng = random.Random(seed)
    triples = [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.5, 0.0), (1.0, 0.0, 0.0), (0.6, 0.4, 0.0)]
    while len(triples) < samples:
        k = len(triples) % 20
        triple = list(family_triple(rng, 0 if k < 16 else k - 15))
        rng.shuffle(triple)
        triples.append(tuple(triple))
    return triples


def seeded_priors(samples: int = SAMPLES, seed: int = 0) -> list:
    """:func:`seeded_triples`, canonicalized."""
    return [canonicalize_priors(*t) for t in seeded_triples(samples, seed)]


def hexed(value):
    """``value`` with every float as its ``float.hex`` and every record as
    (class name, fields)."""
    kind = type(value)
    if kind is float:
        return value.hex()
    if kind is tuple or kind is list:
        return tuple([hexed(v) for v in value])
    if isinstance(value, _Record):
        return kind.__name__, hexed(value._values())
    return value


def attempt(f, *args) -> tuple:
    """The compared row of ``f(*args)``, (True, its hexed result) or its
    exception's (type, message), and the result itself or None."""
    try:
        value = f(*args)
    except Exception as exc:  # every error is compared, not only the library's
        return (type(exc).__name__, str(exc)), None
    return (True, hexed(value)), value


TRINE, ANTITRINE = trine_measurement(), antitrine_measurement()


def records(priors, certify) -> list:
    """Each compared row for one prior, the library called through its modules."""
    report_row, report = attempt(max_confidence.confidence_report, priors)
    optimal_row, result = attempt(min_error.optimal_measurement, priors)
    rows = [report_row, optimal_row, attempt(max_confidence.min_error_confidence, priors)[0]]
    if result is not None:
        rows.append(attempt(certify, priors.original, result.measurement, result.helstrom)[0])
    for m in (TRINE, ANTITRINE) + ((report.measurement,) if report is not None else ()):
        rows.append(attempt(min_error.check_helstrom, priors.original, m)[0])
    for m in (TRINE, ANTITRINE) + ((result.measurement,) if result is not None else ()):
        rows += [attempt(max_confidence.confidence, priors, m, label)[0] for label in range(3)]
    return rows


def test_the_per_prior_path_returns_the_bits_of_its_loop_forms(monkeypatch):
    import reference  # imports numpy, which the draws and records above do not need

    draws = seeded_priors()
    assert len(draws) == SAMPLES
    compared, failures, strategies, inconclusive = 0, set(), set(), 0
    for start in range(0, SAMPLES, CHUNK):
        chunk = draws[start : start + CHUNK]
        got = [records(pr, certify_min_error) for pr in chunk]
        with monkeypatch.context() as patched:
            patched.setattr(max_confidence, "mc_povm", reference.mc_povm_loops)
            patched.setattr(min_error, "check_helstrom", reference.check_helstrom_loops)
            patched.setattr(max_confidence, "confidence_report", reference.confidence_report_lists)
            patched.setattr(
                max_confidence, "min_error_confidence", reference.min_error_confidence_lists
            )
            patched.setattr(max_confidence, "confidence", reference.confidence_lists)
            want = [records(pr, reference.certify_min_error_loops) for pr in chunk]
        differ = [(pr, a, b) for pr, a, b in zip(chunk, got, want) if a != b]
        assert differ[:1] == []
        for rows in got:
            compared += len(rows)
            failures |= {kind for kind, _ in rows if kind is not True}
            (found, report), (solved, optimal) = rows[:2]
            # a report's fields are (confidences, inconclusive, ("Measurement", (forms,)), ...)
            inconclusive += found is True and "?" in [label for label, _ in report[1][2][1][0]]
            strategies.add(optimal[1][0] if solved is True else None)
    # the draws reach both branches, both kinds of max-confidence POVM and the
    # errors of the corner and the tie edge
    assert compared > 5 * SAMPLES
    assert strategies == {"two_element", "three_element", None}
    assert 0 < inconclusive < SAMPLES
    assert {"PureStateError", "VerificationError", "ZeroOutcomeError"} <= failures


def canonical_row(canonicalize, triple) -> tuple:
    """The compared row of ``canonicalize(*triple)``, its caller-order triple included."""
    row, priors = attempt(canonicalize, *triple)
    return row, priors and hexed(priors.original)


def test_the_canonical_order_is_the_keyed_sort():
    import reference

    triples = seeded_triples()
    got = [canonical_row(canonicalize_priors, t) for t in triples]
    want = [canonical_row(reference.canonicalize_priors_sorted, t) for t in triples]
    assert [(t, a, b) for t, a, b in zip(triples, got, want) if a != b] == []
    # (True, ("Priors", (p0, p1, p2, permutation))): the draws take every order
    assert len({row[1][1][3] for row, _ in got}) == 6
