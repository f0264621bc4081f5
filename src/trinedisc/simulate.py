"""Monte Carlo validation of measurement statistics.

States are drawn from the prior, outcomes from the Born distribution.
Sampling is fully deterministic given the seed: the generator is numpy's
PCG64, and when shots are split into partitions, partition k uses the
k-th child of ``numpy.random.SeedSequence(seed).spawn(partitions)`` and
the partitions are merged in index order, so a parallel evaluation with
the same derivation reproduces the sequential result exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InsufficientDataError
from .qubit import PSD_TOL, Measurement, born, povm_validity
from .trine import TRINE_BLOCH, Priors

__all__ = ["RNG_ALGORITHM", "EmpiricalResult", "estimate_success", "estimate_confidence"]

RNG_ALGORITHM = "numpy-pcg64"


@dataclass(frozen=True)
class EmpiricalResult:
    """Counts and frequency estimate from one Monte Carlo run."""

    shots: int
    successes: int
    estimate: float
    standard_error: float
    per_outcome_counts: dict
    seed: int
    algorithm: str = RNG_ALGORITHM
    total_shots: Optional[int] = None  # set for conditional estimates


def _outcome_table(priors: Priors, m: Measurement) -> np.ndarray:
    """Born probabilities P[state, outcome], rows renormalized.

    Rejects measurements that are not valid POVMs or whose outcome
    probabilities fail to sum to 1 within 1e-10.
    """
    forms = [b for _, b in m.bloch()]
    validity = povm_validity(forms, PSD_TOL)
    if not validity.is_valid:
        raise DomainError(f"measurement is not a valid POVM: {validity}")
    table = np.array([[born(n, b) for b in forms] for n in TRINE_BLOCH])
    sums = table.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-10:
        raise DomainError("outcome probabilities do not sum to 1")
    return table / sums[:, None]


def _sample_counts(priors: Priors, m: Measurement, shots: int, seed: int, partitions: int):
    """Joint (state, outcome) counts, partitioned as documented above."""
    if shots < 1:
        raise DomainError(f"shots must be positive, got {shots}")
    if partitions < 1 or partitions > shots:
        raise DomainError(f"invalid partition count {partitions}")
    table = _outcome_table(priors, m)
    cum_priors = np.cumsum(np.asarray(priors.original))
    cum_outcomes = np.cumsum(table, axis=1)
    n_outcomes = table.shape[1]
    counts = np.zeros((3, n_outcomes), dtype=np.int64)
    children = np.random.SeedSequence(seed).spawn(partitions)
    base, extra = divmod(shots, partitions)
    for k, child in enumerate(children):
        n = base + (1 if k < extra else 0)
        if n == 0:
            continue
        rng = np.random.Generator(np.random.PCG64(child))
        states = np.searchsorted(cum_priors, rng.random(n), side="right")
        states = np.minimum(states, 2)
        outcomes = (rng.random(n)[:, None] > cum_outcomes[states]).sum(axis=1)
        outcomes = np.minimum(outcomes, n_outcomes - 1)
        np.add.at(counts, (states, outcomes), 1)
    return counts


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
    labels = m.labels
    successes = sum(
        int(counts[lab, k])
        for k, lab in enumerate(labels)
        if isinstance(lab, (int, np.integer))
    )
    estimate = successes / shots
    return EmpiricalResult(
        shots=shots,
        successes=successes,
        estimate=estimate,
        standard_error=float(np.sqrt(estimate * (1.0 - estimate) / shots)),
        per_outcome_counts={
            lab: int(counts[:, k].sum()) for k, lab in enumerate(labels)
        },
        seed=seed,
    )


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
    if outcome_label not in m.labels:
        raise DomainError(f"measurement has no outcome labeled {outcome_label!r}")
    counts = _sample_counts(priors, m, shots, seed, partitions)
    k = m.labels.index(outcome_label)
    on_outcome = int(counts[:, k].sum())
    if on_outcome < 100:
        raise InsufficientDataError(
            f"only {on_outcome} of {shots} shots landed on outcome {outcome_label!r}"
        )
    matches = int(counts[outcome_label, k])
    estimate = matches / on_outcome
    return EmpiricalResult(
        shots=on_outcome,
        successes=matches,
        estimate=estimate,
        standard_error=float(np.sqrt(estimate * (1.0 - estimate) / on_outcome)),
        per_outcome_counts={outcome_label: on_outcome},
        seed=seed,
        total_shots=shots,
    )
