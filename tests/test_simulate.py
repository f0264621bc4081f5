import tracemalloc

import numpy as np
import pytest

from trinedisc import qubit, simulate
from trinedisc.errors import DomainError, InsufficientDataError
from trinedisc.max_confidence import mc_povm, mc_confidence_closed_form
from trinedisc.min_error import optimal_measurement
from trinedisc.simulate import (
    _RNG_ALGORITHM,
    _sample_counts,
    estimate_confidence,
    estimate_success,
)
from trinedisc.trine import canonicalize_priors, trine_measurement

from reference import IDENTITY, measurement, trine_states


EQUAL = canonicalize_priors(1 / 3, 1 / 3, 1 / 3)


class TestEstimateSuccess:
    def test_reproducible(self):
        m = trine_measurement()
        a = estimate_success(EQUAL, m, shots=10_000, seed=7)
        b = estimate_success(EQUAL, m, shots=10_000, seed=7)
        assert a == b
        assert a.algorithm == _RNG_ALGORITHM

    def test_different_seeds_differ(self):
        m = trine_measurement()
        a = estimate_success(EQUAL, m, shots=10_000, seed=7)
        b = estimate_success(EQUAL, m, shots=10_000, seed=8)
        assert a.successes != b.successes

    def test_partitioned_runs_are_deterministic(self):
        # partition k draws from the k-th spawned child stream, so a fixed
        # (seed, partitions) pair always reproduces the same counts and the
        # shot budget is conserved
        m = trine_measurement()
        for parts in (1, 2, 3, 7):
            par = estimate_success(EQUAL, m, shots=9_999, seed=3, partitions=parts)
            again = estimate_success(EQUAL, m, shots=9_999, seed=3, partitions=parts)
            assert par == again
            assert sum(par.per_outcome_counts.values()) == 9_999

    def test_converges_to_analytic_value(self):
        m = trine_measurement()
        res = estimate_success(EQUAL, m, shots=1_000_000, seed=11)
        assert abs(res.estimate - 2 / 3) < 4 * res.standard_error
        assert res.standard_error == pytest.approx(
            np.sqrt(res.estimate * (1 - res.estimate) / res.shots), abs=1e-12
        )

    def test_matches_dispatched_optimum(self):
        pr = canonicalize_priors(0.5, 0.3, 0.2)
        result = optimal_measurement(pr)
        res = estimate_success(pr, result.measurement, shots=500_000, seed=13)
        assert abs(res.estimate - result.p_correct) < 4 * res.standard_error

    def test_counts_are_consistent(self):
        m = trine_measurement()
        res = estimate_success(EQUAL, m, shots=50_000, seed=17)
        assert sum(res.per_outcome_counts.values()) == 50_000
        assert 0 <= res.successes <= 50_000
        assert res.estimate == res.successes / 50_000

    def test_inconclusive_never_counts_as_success(self):
        pr = canonicalize_priors(0.5, 0.3, 0.2)
        m = mc_povm(pr)
        res = estimate_success(pr, m, shots=100_000, seed=19)
        labeled = sum(
            res.per_outcome_counts[lab]
            for lab in res.per_outcome_counts
            if lab != qubit.INCONCLUSIVE
        )
        assert res.successes <= labeled

    def test_rejects_invalid_measurement(self):
        bad = measurement(((0, 1.5 * IDENTITY),))
        with pytest.raises(DomainError):
            estimate_success(EQUAL, bad, shots=100, seed=1)

    def test_rejects_bad_shot_counts(self):
        m = trine_measurement()
        with pytest.raises(DomainError):
            estimate_success(EQUAL, m, shots=0, seed=1)
        with pytest.raises(DomainError):
            estimate_success(EQUAL, m, shots=10, seed=1, partitions=20)


def joint_probabilities(priors, m):
    """p_j <psi_j|pi_k|psi_j>, straight from the state vectors."""
    return np.array([
        [q * np.vdot(psi, op @ psi).real for _, op in m.elements]
        for q, psi in zip(priors.original, trine_states())
    ])


class TestSampler:
    @pytest.mark.parametrize("parts", [1, 2, 7])
    def test_joint_cells_within_five_se(self, parts):
        pr = canonicalize_priors(0.5, 0.3, 0.2)
        m = mc_povm(pr)
        assert len(m.labels) == 4
        shots = 10**7
        counts = _sample_counts(pr, m, shots, seed=31, partitions=parts)
        p = joint_probabilities(pr, m)
        assert counts.shape == p.shape
        assert counts.sum() == shots
        se = np.sqrt(shots * p * (1.0 - p))
        assert np.all(np.abs(counts - shots * p) <= 5.0 * se)

    def test_one_shot_per_partition(self):
        counts = _sample_counts(EQUAL, trine_measurement(), 7, seed=3, partitions=7)
        assert counts.sum() == 7

    def test_memory_does_not_grow_with_shots(self):
        pr = canonicalize_priors(0.5, 0.3, 0.2)
        m = optimal_measurement(pr).measurement
        tracemalloc.start()
        try:
            res = estimate_success(pr, m, shots=10**7, seed=37)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.shots == 10**7
        assert peak < 1_000_000

    def test_numpy_is_read_through_the_module_global(self, monkeypatch):
        # bench/tracing.py counts the draws by replacing simulate.np with a
        # stand-in; the sampler must read numpy through it and keep it bound
        read = set()

        class Forwarding:
            def __getattr__(self, name):
                read.add(name)
                return getattr(np, name)

        m = trine_measurement()
        want = estimate_success(EQUAL, m, shots=1000, seed=5)
        stand_in = Forwarding()
        monkeypatch.setattr(simulate, "np", stand_in)
        assert estimate_success(EQUAL, m, shots=1000, seed=5) == want
        assert {"random", "asarray", "zeros"} <= read
        assert simulate.np is stand_in


class TestEstimateConfidence:
    def test_converges_to_closed_form(self):
        pr = canonicalize_priors(0.5, 0.3, 0.2)
        m = mc_povm(pr)
        for i in range(3):
            res = estimate_confidence(pr, m, i, shots=400_000, seed=23)
            assert abs(res.estimate - mc_confidence_closed_form(pr)[i]) < (
                4 * res.standard_error
            )
            assert res.total_shots == 400_000
            assert res.shots < 400_000

    def test_rare_outcome_rejected(self):
        # an outcome with vanishing probability cannot accumulate 100 hits
        pr = canonicalize_priors(0.5, 0.3, 0.2)
        tiny = 1e-7
        m = measurement(
            (
                (0, tiny * IDENTITY),
                (1, (1.0 - tiny) * IDENTITY),
            )
        )
        with pytest.raises(InsufficientDataError):
            estimate_confidence(pr, m, 0, shots=10_000, seed=29)

    def test_unknown_label_rejected(self):
        with pytest.raises(DomainError):
            estimate_confidence(EQUAL, trine_measurement(), 5, shots=1000, seed=1)


@pytest.mark.parametrize(
    "estimate",
    [
        lambda pr, m: estimate_success(pr, m, 1000, 1),
        lambda pr, m: estimate_confidence(pr, m, 0, 1000, 1),
    ],
    ids=["success", "confidence"],
)
def test_outcome_rows_off_one_are_refused(estimate):
    # labels 0, 1 and 2 on a and b = c: the smallest eigenvalue is -9e-11 and
    # the completeness deviation 9e-11, both within PSD_TOL, yet state 0's
    # clamped Born row sums to 1 + 1.8e-10
    e = 1.8e-10
    a, b = (0.5, -(0.5 + e), 0.0), ((1.5 + e) / 2, (0.5 + e) / 2, 0.0)
    assert qubit.povm_validity([a, b, b]).is_valid
    m = qubit.Measurement([(0, a), (1, b), (2, b)])
    with pytest.raises(DomainError, match="^outcome probabilities do not sum to 1$"):
        estimate(canonicalize_priors(0.5, 0.3, 0.2), m)
