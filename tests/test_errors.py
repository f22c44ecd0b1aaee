"""Every library error survives pickling, as it must to leave a worker process."""

import inspect
import pickle

import pytest

from geordd import errors

ERRORS = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.GeorddError)
]


def _make(cls):
    if cls is errors.InvertedBounds:
        return cls(0.3, 0.2)
    if cls is errors.ParseError:
        return cls("bad value", row=3, column="r")
    return cls("refused")


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("index", [None, 7], ids=["no-index", "index"])
def test_every_error_round_trips_through_pickle(cls, index):
    err = _make(cls)
    if index is not None:
        err.index = index
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err) and back.args == err.args
    assert back.code == err.code
    for attr in ("b_min", "b_max", "row", "column", "index"):
        assert getattr(back, attr, None) == getattr(err, attr, None), attr


def test_every_error_class_is_covered():
    # the two with their own __init__ among them, and every refusal
    assert {errors.GeorddError, errors.InvertedBounds, errors.ParseError} <= set(ERRORS)
    assert set(errors.REFUSAL_ERRORS) <= set(ERRORS)


def test_inverted_bounds_keeps_its_bounds():
    back = pickle.loads(pickle.dumps(errors.InvertedBounds(0.3, 0.2)))
    assert (back.b_min, back.b_max) == (0.3, 0.2)
    assert str(back) == "bandwidth bounds are inverted: b_min=0.3 >= b_max=0.2"


#: errors that mean bad input, a misuse of the API or a bug, not a refusal of
#: the estimate on this data; every other class must be in REFUSAL_ERRORS
NOT_REFUSALS = {
    errors.GeorddError,
    errors.SpaceMismatch,
    errors.ShapeMismatch,
    errors.NonFinitePayload,
    errors.InvariantViolation,
    errors.MixedSpaces,
    errors.NotAPoint,
    errors.AntipodalPoints,
    errors.TransportOutOfSpace,
    errors.EmbeddingUnavailable,
    errors.InverseInfeasible,
    errors.LogExpUnavailable,
    errors.EmptyInput,
    errors.MissingTreatment,
    errors.MissingAssignment,
    errors.ExcessiveFailures,
    errors.ParseError,
}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_class_is_classified(cls):
    # a new class fails here until it is added to one side or the other
    refusal = issubclass(cls, errors.REFUSAL_ERRORS)
    assert refusal != (cls in NOT_REFUSALS)


def test_an_exp_refusal_is_a_refusal():
    assert issubclass(errors.ExpOutOfDomain, errors.REFUSAL_ERRORS)
