"""Soiling physics unit oracles (hand-derived values, tolerance 1e-12)."""

import numpy as np
import pytest

from pvclean.soiling import (SoilingParams, accumulate, calibrate,
                             daily_soiling, degradation_factor, efficiency)

TOL = 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        SoilingParams(annual_degradation=1.0)
    with pytest.raises(ValueError):
        SoilingParams(beta_residue=0.0)
    with pytest.raises(ValueError):
        SoilingParams(eff_max=0.0)


@pytest.mark.parametrize("fields", [
    {"beta_residue": float("nan")},
    {"humidity_k": float("nan")},
    {"humidity_k": float("inf")},
    {"humidity_k": "0.06"},
    {"cubic": (-0.0026, 0.032)},
    {"cubic": (-0.0026, 0.032, -0.1369, 0.0)},
    {"cubic": (-0.0026, float("nan"), -0.1369)},
    {"cubic": (-0.0026, "0.032", -0.1369)},
    {"cubic": [-0.0026, 0.032, -0.1369]},
    {"annual_degradation": "0.05"},
    {"eff_max": "0.192"},
])
def test_params_reject_non_finite_values_and_bad_cubic(fields):
    with pytest.raises(ValueError, match=next(iter(fields))):
        SoilingParams(**fields)


@pytest.mark.parametrize("cubic", [
    (-0.0026, 0.032, -0.1369),      # the default
    (-0.002, 0.03, -0.13),
    (-1.0, 2.0, -1.0),              # c2^2 == 4 c3 c1: efficiency touches eff_max at s = 1
    (0.0, 0.0, 0.0),
    (0.0, -1.0, 0.0),
])
def test_params_accept_a_cubic_that_keeps_efficiency_at_most_eff_max(cubic):
    sp = SoilingParams(cubic=cubic)
    s = np.linspace(0.0, 10.0, 1001)
    assert (efficiency(s, 1.0, sp) <= sp.eff_max + 1e-12).all()


@pytest.mark.parametrize("cubic", [
    (-0.0026, 0.032, 1e-9),         # c1 > 0
    (1e-9, -0.032, -0.1369),        # c3 > 0
    (-1.0, 2.000001, -1.0),         # c2 > 0 and c2^2 > 4 c3 c1
    (0.0, 1e-300, 0.0),
    (1, 2, 3),
])
def test_params_reject_a_cubic_that_lifts_efficiency_past_eff_max(cubic):
    with pytest.raises(ValueError, match="cubic must keep efficiency <= eff_max"):
        SoilingParams(cubic=cubic)


def test_daily_soiling_values():
    assert daily_soiling(0.0, 0.0) == pytest.approx(0.0152640, abs=TOL)
    assert daily_soiling(0.0, 0.1) == pytest.approx(0.00144 * (10.6 + 24.7), abs=TOL)
    assert daily_soiling(10.0, 0.1) == pytest.approx(
        0.00144 * (10.6 - 49.9 + 24.7 - 73.4), abs=TOL)
    assert daily_soiling(10.0, 0.1) < 0.0


def test_calibrate_branches():
    assert calibrate(0.05, 60.0) == pytest.approx(0.05, abs=TOL)
    assert calibrate(-0.126432, 60.0, k=0.06) == pytest.approx(-0.000126432, abs=TOL)
    # RH below k: factor clamps to 1 and the removal passes through.
    assert calibrate(-0.1, 0.01) == pytest.approx(-0.1, abs=TOL)
    assert calibrate(0.0, 50.0) == 0.0


def test_calibrate_contracts_negative_branch():
    d = np.linspace(-0.2, -0.001, 50)
    out = calibrate(d, 40.0)
    assert np.all(np.abs(out) <= np.abs(d))
    assert np.all(out <= 0.0)


def test_accumulate_branch_table():
    # Plain sum above the floor.
    assert accumulate(0.5, 0.05, False) == pytest.approx(0.55, abs=TOL)
    # 0 < sum < beta -> beta.
    assert accumulate(0.005, -0.004, False, beta=0.01) == pytest.approx(0.01, abs=TOL)
    # sum <= 0 uncleaned -> beta as well.
    assert accumulate(0.005, -0.2, False, beta=0.01) == pytest.approx(0.01, abs=TOL)
    # Cleaned -> exactly 0 regardless of deposition.
    assert accumulate(2.0, 0.3, True) == 0.0
    assert accumulate(2.0, -0.3, True) == 0.0
    # Exactly at the floor.
    assert accumulate(0.0, 0.01, False, beta=0.01) == pytest.approx(0.01, abs=TOL)


def test_accumulate_never_below_floor_unless_cleaned():
    prev = np.linspace(0.0, 1.0, 25)
    dep = np.linspace(-1.5, 0.5, 25)
    out = accumulate(prev, dep, False)
    assert np.all(out >= 0.01)
    np.testing.assert_array_equal(accumulate(prev, dep, True), np.zeros(25))


def test_degradation_factor_values():
    assert degradation_factor(0) == 1.0
    assert degradation_factor(1) == pytest.approx(0.95, abs=TOL)
    assert degradation_factor(20) == pytest.approx(0.95 ** 20, abs=TOL)


def test_degradation_factor_multiplicative():
    for a, b in ((1, 2), (3, 7), (0, 5)):
        assert degradation_factor(a + b) == pytest.approx(
            degradation_factor(a) * degradation_factor(b), rel=1e-12)


def test_efficiency_values():
    assert efficiency(0.0, 1.0) == pytest.approx(0.192, abs=TOL)
    assert efficiency(1.0, 1.0) == pytest.approx(0.0845, abs=TOL)
    # Large soiling drives the cubic negative; clamped at zero.
    assert efficiency(10.0, 1.0) == 0.0
    assert efficiency(0.0, 0.95) == pytest.approx(0.95 * 0.192, abs=TOL)


def test_efficiency_monotone_before_stationary_point():
    s = np.linspace(0.0, 2.0, 400)
    e = efficiency(s)
    assert np.all(np.diff(e) <= 1e-15)


def test_array_broadcasting():
    ws = np.array([0.0, 1.0, 2.0])
    pm = np.array([0.0, 0.1, 0.2])
    d = daily_soiling(ws, pm)
    assert d.shape == (3,)
    assert d[0] == pytest.approx(0.0152640, abs=TOL)
    e = efficiency(np.array([0.0, 1.0]), 1.0)
    np.testing.assert_allclose(e, [0.192, 0.0845], atol=TOL)
