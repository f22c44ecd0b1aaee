"""End-to-end outputs against the reference file made by
``tests/reference_outputs.py``: a refactor keeps every number, and a change
that moves one on purpose regenerates that entry and says so."""

import json

import numpy as np
import pytest

import reference_outputs


@pytest.fixture(scope="module")
def computed():
    return reference_outputs.compute()


def test_outputs_match_the_reference(computed):
    want = reference_outputs.load()
    assert sorted(computed) == sorted(want)
    assert reference_outputs.differences(computed, want) == []


def test_every_refused_input_is_refused(computed):
    assert "no error" not in computed["refusals"].values()


class TestComparison:
    """The rules the reference check applies."""

    def test_floats_move_within_their_entrys_scale(self):
        want = {"a": [1.0, 1e-20], "b": 2.0}
        assert reference_outputs.differences({"a": [1.0 + 5e-13, 1e-20 + 5e-13], "b": 2.0}, want) == []
        assert reference_outputs.differences({"a": [1.0, 1e-20], "b": 2.0 + 1e-11}, want) == ["/b"]

    def test_discrete_values_and_b_star_compare_exactly(self):
        want = {"b_star": 0.5, "skipped": [0, 1], "method": "embedding", "ok": True}
        for key, value in [("b_star", 0.5 + 1e-16), ("skipped", [0, 2]),
                           ("method", "sphere_newton"), ("ok", False)]:
            found = reference_outputs.differences({**want, key: value}, want)
            assert [path.split("[")[0] for path in found] == [f"/{key}"]

    def test_nan_positions_and_shapes_must_match(self):
        want = json.loads(json.dumps({"g": [float("nan"), 1.0]}))
        assert reference_outputs.differences({"g": [np.nan, 1.0]}, want) == []
        assert reference_outputs.differences({"g": [0.0, 1.0]}, want) == ["/g"]
        assert reference_outputs.differences({"g": [np.nan, 1.0, 2.0]}, want) == ["/g"]
        assert reference_outputs.differences({}, want) == [""]
