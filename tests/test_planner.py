import pytest

from asrlab.planner import ScalingAssumptions, optimal_hours


def test_264m_params_gives_550k_hours():
    hours = optimal_hours(264_000_000)
    assert round(hours) == 550_000
    assert hours == pytest.approx(550_000.0, rel=1e-12)


def test_130m_params():
    assert optimal_hours(130_000_000) == pytest.approx(270_833.3333, abs=0.1)


def test_linear_in_params():
    base = optimal_hours(1_000_000)
    assert optimal_hours(2_000_000) == pytest.approx(2 * base, rel=1e-12)


def test_linear_in_tpp_inverse_in_wpm_and_tpw():
    base = optimal_hours(10_000_000)
    assert optimal_hours(10_000_000, ScalingAssumptions(tpp=40.0)) == pytest.approx(2 * base, rel=1e-12)
    assert optimal_hours(10_000_000, ScalingAssumptions(wpm=240.0)) == pytest.approx(base / 2, rel=1e-12)
    assert optimal_hours(10_000_000, ScalingAssumptions(tpw=8.0 / 3.0)) == pytest.approx(base / 2, rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        optimal_hours(0)
    with pytest.raises(ValueError):
        optimal_hours(-5)
    with pytest.raises(ValueError):
        ScalingAssumptions(wpm=0.0)


@pytest.mark.parametrize("params", [10**308, 10**400])
def test_hours_beyond_the_float_range_are_refused(params):
    with pytest.raises(ValueError, match="float range"):
        optimal_hours(params)
