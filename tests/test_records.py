"""The eight result records behave as immutable values.

Each record is built by position and by keyword, compared and hashed
against a copy, refused assignment and deletion, and round-tripped through
pickle and deepcopy.  The checks hold whatever machinery defines the
records, so they pin the behaviour callers rely on.
"""

import copy
import pickle

import pytest

from trinedisc.max_confidence import ConfidenceReport, confidence_report
from trinedisc.min_error import GammaSolution, HelstromReport, OptimalResult, optimal_measurement
from trinedisc.qubit import INCONCLUSIVE, Measurement, PovmValidity
from trinedisc.simulate import EmpiricalResult, estimate_confidence, estimate_success
from trinedisc.trine import Priors, canonicalize_priors, trine_measurement

FORMS = ((0, (1.0, 0.5, 0.0)), (INCONCLUSIVE, (1.0, -0.5, 0.0)))
HELSTROM = HelstromReport(1.5e-17, -2.5e-12, True, 0.75)
GAMMA = GammaSolution(9.5, 1.25, -0.75, 0.4375)

#: record name -> (class, field names, values given for them, defaults of the
#: fields not given)
RECORDS = {
    "Priors": (
        Priors, ("p0", "p1", "p2"), (0.5, 0.3, 0.2), {"permutation": (0, 1, 2)},
    ),
    "PovmValidity": (
        PovmValidity,
        ("is_valid", "min_element_eigenvalue", "completeness_deviation"),
        (True, -0.0, 2.5e-16),
        {},
    ),
    "Measurement": (Measurement, ("forms",), (FORMS,), {}),
    "GammaSolution": (
        GammaSolution, ("a", "b_x", "b_y", "p_corr"), (9.5, 1.25, -0.75, 0.4375), {},
    ),
    "HelstromReport": (
        HelstromReport,
        ("max_offdiag_residual", "min_global_eigenvalue", "passes", "success_probability"),
        (1.5e-17, -2.5e-12, True, 0.75),
        {},
    ),
    "OptimalResult": (
        OptimalResult,
        ("strategy", "measurement", "p_correct", "boundary_determinant", "helstrom"),
        ("two_element", Measurement(FORMS), 0.75, 0.01, HELSTROM),
        {"theta": None, "gamma": None},
    ),
    "ConfidenceReport": (
        ConfidenceReport,
        ("per_state_confidence", "inconclusive_probability", "measurement"),
        ((0.8, 0.7, 0.5), 0.25, Measurement(FORMS)),
        {"closed_form": None},
    ),
    "EmpiricalResult": (
        EmpiricalResult,
        ("shots", "successes", "estimate", "standard_error", "per_outcome_counts", "seed"),
        (1000, 750, 0.75, 0.0137, {0: 600, 1: 400}, 7),
        {"algorithm": "numpy-pcg64", "total_shots": None},
    ),
}

#: records with a field that is itself unhashable
UNHASHABLE = {"EmpiricalResult"}


def build(name, by_keyword=False):
    cls, names, values, _ = RECORDS[name]
    if by_keyword:
        return cls(**dict(zip(names, values)))
    return cls(*values)


def library_records():
    """Records as the library returns them, on both min-error branches."""
    two = canonicalize_priors(0.2, 0.5, 0.3)
    three = canonicalize_priors(0.36, 0.34, 0.30)
    two.original  # noqa: B018 - a Priors whose caller order was already read
    m = trine_measurement()
    return [
        two,
        three,
        m,
        m.validity(),
        optimal_measurement(two),
        optimal_measurement(three),
        confidence_report(two),
        estimate_success(three, m, 1000, 3),
        estimate_confidence(three, m, 0, 1000, 3),
    ]


@pytest.mark.parametrize("name", RECORDS)
def test_built_by_position_and_by_keyword_alike(name):
    cls, names, values, defaults = RECORDS[name]
    by_position, by_keyword = build(name), build(name, by_keyword=True)
    assert type(by_position) is type(by_keyword) is cls
    assert by_position == by_keyword
    for field, value in zip(names, values):
        assert getattr(by_position, field) == value
    for field, value in defaults.items():
        assert getattr(by_position, field) == value


def test_defaults_can_be_given():
    assert Priors(0.5, 0.3, 0.2, (1, 0, 2)).permutation == (1, 0, 2)
    assert Priors(0.5, 0.3, 0.2, permutation=(2, 1, 0)).permutation == (2, 1, 0)
    result = OptimalResult("three_element", Measurement(FORMS), 0.75, -0.01, HELSTROM, gamma=GAMMA)
    assert (result.theta, result.gamma) == (None, GAMMA)
    result = OptimalResult("two_element", Measurement(FORMS), 0.75, 0.01, HELSTROM, -0.5)
    assert (result.theta, result.gamma) == (-0.5, None)
    counts = {0: 1}
    empirical = EmpiricalResult(1, 1, 1.0, 0.0, counts, 0, "other", total_shots=5)
    assert (empirical.algorithm, empirical.total_shots) == ("other", 5)


def test_measurement_keeps_its_forms_as_tuples():
    m = Measurement([(0, [1.0, 0.5, 0.0]), (INCONCLUSIVE, (1.0, -0.5, 0.0))])
    assert m.forms == FORMS
    assert Measurement(forms=iter(FORMS)).forms == FORMS


@pytest.mark.parametrize("name", RECORDS)
def test_equal_to_a_copy_and_to_nothing_else(name):
    a, b = build(name), build(name)
    assert a == b and not a != b
    assert a != RECORDS[name][2]
    assert a != object()
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    with pytest.raises(TypeError):
        iter(a)
    with pytest.raises(TypeError):
        len(a)


def test_a_changed_field_is_unequal():
    assert Priors(0.5, 0.3, 0.2) != Priors(0.5, 0.3, 0.2, (1, 0, 2))
    assert HELSTROM != HelstromReport(1.5e-17, -2.5e-12, False, 0.75)
    assert GAMMA != GammaSolution(9.5, 1.25, -0.75, 0.5)


def test_priors_equality_ignores_the_caller_order_read():
    a, b = Priors(0.5, 0.3, 0.2, (1, 0, 2)), Priors(0.5, 0.3, 0.2, (1, 0, 2))
    assert a.original == (0.3, 0.5, 0.2)
    assert a == b and hash(a) == hash(b)


def test_repr_text():
    assert repr(HELSTROM) == (
        "HelstromReport(max_offdiag_residual=1.5e-17, min_global_eigenvalue=-2.5e-12, "
        "passes=True, success_probability=0.75)"
    )
    priors = Priors(0.5, 0.3, 0.2, (1, 0, 2))
    priors.original  # noqa: B018 - the kept caller order stays out of the text
    assert repr(priors) == "Priors(p0=0.5, p1=0.3, p2=0.2, permutation=(1, 0, 2))"


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    record = build(name)
    _, names, values, defaults = RECORDS[name]
    for field, value in [*zip(names, values), *defaults.items()]:
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == value
    with pytest.raises(AttributeError):
        record.unknown_field = 1
    assert record == build(name)


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_and_deepcopy_round_trip(name):
    record = build(name)
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(copied) is type(record)
        assert copied == record


def test_library_records_round_trip():
    for record in library_records():
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(copied) is type(record)
            assert copied == record
            assert repr(copied) == repr(record)
    priors = pickle.loads(pickle.dumps(canonicalize_priors(0.2, 0.5, 0.3)))
    assert priors.original == (0.2, 0.5, 0.3)
