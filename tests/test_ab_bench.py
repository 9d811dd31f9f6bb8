"""tools/ab_bench.py: the statistics of the gain rule, on fixed samples."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

# wall_s of seven pairs of blas-saga runs, parent and change.
PARENT = [0.0870, 0.0896, 0.0870, 0.0888, 0.0884, 0.0883, 0.0875]
CHANGE = [0.0817, 0.0816, 0.0816, 0.0835, 0.0836, 0.0827, 0.0820]


def test_quartiles_are_numpys_default_percentiles():
    for values in (PARENT, CHANGE, [3.0, 1.0], [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]):
        want = np.percentile(values, [25, 50, 75])
        assert ab_bench.quartiles(values) == pytest.approx(want, rel=1e-15)


def test_a_clear_gain_holds():
    v = ab_bench.verdict(PARENT, CHANGE, "lower")
    assert v["pairs"] == 7 and v["wins"] == 7
    assert v["base"] == pytest.approx((0.08725, 0.0883, 0.0886))
    assert v["head"] == pytest.approx((0.08165, 0.082, 0.0831))
    assert v["gain"] == pytest.approx(0.0063)
    assert v["base_iqr"] == pytest.approx(0.00135)
    assert v["holds"]
    # Read as a metric where higher is better, the same runs are a loss.
    up = ab_bench.verdict(PARENT, CHANGE, "higher")
    assert up["wins"] == 0 and up["gain"] == pytest.approx(-0.0063)
    assert not up["holds"]


def test_nine_wins_in_ten_and_ties_count_for_neither():
    base = [10.0] * 10
    head = [9.0] * 9 + [11.0]
    v = ab_bench.verdict(base, head, "lower")
    assert v["wins"] == 9 and v["holds"]  # the base's IQR is 0
    head[0] = 10.0  # a tie is no win
    v = ab_bench.verdict(base, head, "lower")
    assert v["wins"] == 8 and not v["holds"]


def test_a_gain_within_the_base_spread_does_not_hold():
    base = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    head = [b - 0.5 for b in base]
    v = ab_bench.verdict(base, head, "lower")
    assert v["wins"] == 10
    assert v["gain"] == pytest.approx(0.5) and v["base_iqr"] == pytest.approx(4.5)
    assert not v["holds"]


def test_verdict_rejects_unpaired_samples():
    with pytest.raises(ValueError):
        ab_bench.verdict([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        ab_bench.verdict([1.0], [1.0], "lower")
    with pytest.raises(ValueError):
        ab_bench.verdict([1.0, 2.0], [1.0, 2.0], "faster")
