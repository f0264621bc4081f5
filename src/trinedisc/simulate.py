"""Monte Carlo validation of measurement statistics.

States are drawn from the prior, outcomes from the Born distribution.  The
estimators read only the joint (state, outcome) count table, so the
counts are drawn directly: the 3 x K table P[j, k] = p_j Tr(rho_j pi_k) is
built once, and each partition draws all of its shots with one multinomial
over that table.  This is the distribution of per-shot sampling, at a cost
that does not grow with the number of shots.

Sampling is fully deterministic given the seed: the generator is numpy's
PCG64, partition k draws from the k-th child of
``numpy.random.SeedSequence(seed).spawn(partitions)``, the first
``shots % partitions`` partitions take one shot more than the rest, and
the partition tables are summed.  A fixed ``(seed, partitions)`` pair
always gives the same counts; they differ from the counts of versions
that sampled shot by shot.

numpy is bound to the module global ``np`` by :func:`_sample_counts`, not
at import, and the sampler reaches ``np.random`` through that global, which
the benchmark's tracer (``bench/tracing.py``) replaces to count the draws.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import DomainError, InsufficientDataError
from .qubit import Measurement, _born_row, _Record, povm_validity
from .trine import TRINE_BLOCH, Priors

__all__ = ["EmpiricalResult", "estimate_success", "estimate_confidence"]

_RNG_ALGORITHM = "numpy-pcg64"

np = None  # numpy, bound by _sample_counts; bench/tracing.py replaces it


class EmpiricalResult(_Record):
    """Counts and frequency estimate from one Monte Carlo run; ``total_shots``
    is set for a conditional estimate, of which ``shots`` landed on the outcome."""

    __slots__ = _fields = (
        "shots",
        "successes",
        "estimate",
        "standard_error",
        "per_outcome_counts",
        "seed",
        "algorithm",
        "total_shots",
    )
    _defaults = {"algorithm": _RNG_ALGORITHM, "total_shots": None}


def _outcome_table(m: Measurement) -> np.ndarray:
    """Born probabilities P[state, outcome], rows renormalized.

    Rejects measurements that are not valid POVMs or whose outcome
    probabilities fail to sum to 1 within 1e-10.
    """
    forms = [b for _, b in m.forms]
    validity = povm_validity(forms)
    if not validity.is_valid:
        raise DomainError(f"measurement is not a valid POVM: {validity}")
    table = np.array([_born_row(b, TRINE_BLOCH) for b in forms]).T
    sums = table.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-10:
        raise DomainError("outcome probabilities do not sum to 1")
    return table / sums[:, None]


def _sample_counts(priors: Priors, m: Measurement, shots: int, seed: int, partitions: int):
    """Joint (state, outcome) counts, drawn as documented above."""
    global np
    if np is None:
        import numpy as np
    # the counts are int64: at most 2**63 - 1 shots keeps every cell and column sum exact
    if not 1 <= shots <= 2**63 - 1:
        raise DomainError(f"shots must be in [1, 2**63 - 1], got {shots}")
    if partitions < 1 or partitions > shots:
        raise DomainError(f"invalid partition count {partitions}")
    joint = np.asarray(priors.original)[:, None] * _outcome_table(m)
    counts = np.zeros(joint.size, dtype=np.int64)
    base, extra = divmod(shots, partitions)
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(partitions)):
        rng = np.random.Generator(np.random.PCG64(child))
        counts += rng.multinomial(base + (k < extra), joint.ravel())
    return counts.reshape(joint.shape)


def _frequency(
    successes: int, n: int, per_outcome_counts: dict, seed: int, total_shots: Optional[int] = None
) -> EmpiricalResult:
    """The frequency of ``successes`` in ``n`` shots, with its binomial standard error."""
    estimate = successes / n
    return EmpiricalResult(
        n, successes, estimate, math.sqrt(estimate * (1.0 - estimate) / n),
        per_outcome_counts, seed, _RNG_ALGORITHM, total_shots,
    )


def estimate_success(
    priors: Priors,
    m: Measurement,
    shots: int,
    seed: int,
    partitions: int = 1,
) -> EmpiricalResult:
    """Empirical probability that the outcome label names the drawn state.

    The inconclusive outcome never counts as a success.
    """
    counts = _sample_counts(priors, m, shots, seed, partitions)
    successes = sum(int(counts[lab, k]) for k, lab, _ in m.state_outcomes())
    per_outcome = {lab: int(counts[:, k].sum()) for k, lab in enumerate(m.labels)}
    return _frequency(successes, shots, per_outcome, seed)


def estimate_confidence(
    priors: Priors,
    m: Measurement,
    outcome_label,
    shots: int,
    seed: int,
    partitions: int = 1,
) -> EmpiricalResult:
    """Conditional frequency of the labeled state among its outcome's shots.

    Requires at least 100 shots to land on the outcome.
    """
    k, state, _ = m._state_outcome(outcome_label)
    counts = _sample_counts(priors, m, shots, seed, partitions)
    on_outcome = int(counts[:, k].sum())
    if on_outcome < 100:
        raise InsufficientDataError(
            f"only {on_outcome} of {shots} shots landed on outcome {state!r}"
        )
    matches = int(counts[state, k])
    return _frequency(matches, on_outcome, {state: on_outcome}, seed, shots)
