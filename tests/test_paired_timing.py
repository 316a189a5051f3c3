"""The paired timing tool's summary of two sides' times."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "paired_timing",
    Path(__file__).resolve().parent.parent / "tools" / "paired_timing.py")
paired_timing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_timing)


def test_quartiles_wins_and_change():
    summary = paired_timing.summarize({"base": [1.0, 2.0, 3.0, 4.0, 5.0],
                                       "head": [2.0, 1.0, 3.0, 3.0, 2.0]})
    assert summary["base"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert summary["head"] == {"q1": 2.0, "median": 2.0, "q3": 3.0}
    # pair 2 is a tie, won by neither side
    assert summary["wins"] == {"base": 1, "head": 3}
    assert summary["change"] == pytest.approx(-1.0 / 3.0)


@pytest.mark.parametrize("base, head", [([1.0], [2.0]),
                                        ([1.0, 2.0], [1.0, 2.0, 3.0])],
                         ids=["one pair", "unequal"])
def test_needs_two_equal_lists_of_pairs(base, head):
    with pytest.raises(ValueError):
        paired_timing.summarize({"base": base, "head": head})
