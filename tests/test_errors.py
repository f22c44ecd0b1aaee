"""Every library error survives pickling, as it must to leave a worker process,
and states its kind, which the CLI's exit code and a campaign's replication
rows follow."""

import inspect
import json
import pickle

import numpy as np
import pytest

from geordd import ScalarDgp, cli, errors, simlab
from geordd.io import write_sample_csv

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


# -- kinds -------------------------------------------------------------------


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_class_states_its_kind(cls):
    assert isinstance(cls.__dict__["refusal"], bool)
    assert issubclass(cls, errors.REFUSAL_ERRORS) == cls.refusal


def test_a_class_that_states_no_kind_is_refused_when_defined():
    with pytest.raises(TypeError, match="refusal"):
        class Unstated(errors.GeorddError):
            code = "unstated"


def test_eight_classes_are_refusals():
    # a change of kind changes an exit code and a campaign's outcome, so it
    # is made here on purpose as well as in the class line
    assert len(errors.REFUSAL_ERRORS) == 8


# -- consumers ---------------------------------------------------------------


@pytest.fixture(scope="module")
def sharp_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("errors") / "sharp.csv"
    write_sample_csv(ScalarDgp(n=100, seed=1).sample()[0], path)
    return path


def _raising(cls):
    def raise_it(*args, **kwargs):
        raise _make(cls)

    return raise_it


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_the_cli_exit_code_follows_the_kind(cls, monkeypatch, sharp_csv, tmp_path, capsys):
    monkeypatch.setattr(cli, "estimate_sharp", _raising(cls))
    code = cli.main(["sharp", "--input", str(sharp_csv), "--space", "euclid",
                     "--cutoff", "0", "--bw", "0.5", "--out", str(tmp_path / "o")])
    assert code == (2 if cls.refusal else 1)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    record = json.loads(err)
    assert record["error"] == cls.code and record["type"] == cls.__name__
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_a_replication_follows_the_kind(cls, monkeypatch):
    monkeypatch.setattr(simlab, "_one_rep", _raising(cls))
    args = (ScalarDgp(n=100), 3, np.random.SeedSequence(0), 0.5)
    if not cls.refusal:
        with pytest.raises(cls):
            simlab._rep_row(*args)
        return
    row, fallback, refused = simlab._rep_row(*args)
    assert row["fail_flag"] == 1 and row["rep"] == 3 and not fallback
    assert np.isnan(row["bias"]) and np.isnan(row["bandwidth"])
    assert refused == cls.code
