"""Sim-Opt: interval evaluation vs an independent slow oracle and the
all-replications-at-once closed form."""

import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvclean import simopt
from pvclean.agents import NumericalError
from pvclean import soiling as phys
from pvclean.environment import ScenarioConfig, day_arrays
from pvclean.rng import replication_entropy
from pvclean.simopt import (calibrate_panel_area, evaluate_interval, optimize,
                            precompute_weather)
from pvclean.soiling import SoilingParams
from pvclean.weather import KMH_PER_MS, default_model, generate_weather, make_streams

CFG = ScenarioConfig(tariff=0.073, cleaning_cost=0.0183, horizon_years=1, seed=0)


def all_replications_episode_costs(z, config, weather):
    """The closed-form fixed-interval costs over (replications, n_seg, z) at once.

    ``simopt`` runs the same operations one replication at a time; this is
    the whole-array form they must equal bit for bit.
    """
    sp = config.soiling
    days = day_arrays(config, weather)
    n_reps, n_days = days["d_cal"].shape
    n_seg = -(-n_days // z)
    pad = n_seg * z - n_days

    d = np.pad(days["d_cal"], ((0, 0), (0, pad))).reshape(n_reps, n_seg, z)
    prefix = np.cumsum(d, axis=2)
    running_min = np.minimum.accumulate(prefix, axis=2)
    soil = np.maximum(prefix, sp.beta_residue + prefix - running_min)

    tau = np.pad(days["tau"], (0, pad)).reshape(1, n_seg, z)
    c3, c2, c1 = sp.cubic
    eff = np.maximum(tau * (c3 * soil ** 3 + c2 * soil ** 2 + c1 * soil + sp.eff_max), 0.0)
    price = np.pad(days["price"], ((0, 0), (0, pad))).reshape(n_reps, n_seg, z)
    energy_loss = days["clean_panel_loss"] - (price * eff).sum(axis=(1, 2))

    cleanings = n_seg - 1
    return energy_loss, cleanings * config.cleaning_cost, cleanings


@st.composite
def soiling_params(draw):
    """Default physics, or a cubic whose efficiency crosses 0 at a soiling
    level ``s0`` that long segments pass, so the floor at 0 binds."""
    if draw(st.booleans()):
        return SoilingParams()
    eff_max = SoilingParams().eff_max
    c3 = draw(st.floats(-0.01, 0.0))
    c2 = draw(st.floats(-0.05, 0.05))
    s0 = draw(st.floats(0.05, 3.0))
    c1 = -(eff_max + c2 * s0 ** 2 + c3 * s0 ** 3) / s0
    return SoilingParams(beta_residue=draw(st.floats(0.001, 1.0)), cubic=(c3, c2, c1))


def slow_interval_cost(z, config, replication):
    """Day-by-day scalar re-implementation of one fixed-interval episode."""
    model = default_model()
    streams = make_streams(replication_entropy(config.seed, replication))
    w = {var: x[0] for var, x in
         generate_weather(model, config.n_days, [streams], config.start_month).items()}
    sp = config.soiling
    soil, days, cost, cleanings = 0.0, 0, 0.0, 0
    for t in range(config.n_days):
        if days >= z:
            soil, days = 0.0, 0
            cost += config.cleaning_cost
            cleanings += 1
        d = phys.calibrate(phys.daily_soiling(w["wind_speed"][t] / KMH_PER_MS,
                                              w["particulate_matter"][t]),
                           w["relative_humidity"][t], sp.humidity_k)
        soil = max(soil + d, sp.beta_residue)
        tau = (1 - sp.annual_degradation) ** (t // 365)
        eff = phys.efficiency(soil, tau, sp)
        cost += config.tariff * config.panel_area * (w["irradiance"][t] / 1000.0) * (
            tau * sp.eff_max - eff)
        days += 1
    return cost, cleanings


@pytest.mark.parametrize("z", [1, 7, 30, 365])
def test_evaluate_interval_matches_slow_oracle(z):
    reps = 3
    ev = evaluate_interval(z, CFG, replications=reps)
    expect = [slow_interval_cost(z, CFG, r) for r in range(reps)]
    np.testing.assert_allclose(ev.costs, [c for c, _ in expect], rtol=1e-12)
    assert ev.mean_cleanings == expect[0][1]
    assert ev.mean_total_cost == pytest.approx(np.mean([c for c, _ in expect]),
                                               rel=1e-12)


def assert_equals_all_replications_form(z, cfg, reps):
    weather = precompute_weather(cfg, reps)
    ev = evaluate_interval(z, cfg, reps, days=day_arrays(cfg, weather))
    energy_loss, cleaning_cost, cleanings = all_replications_episode_costs(z, cfg, weather)
    assert ev.costs == [float(c) for c in energy_loss + cleaning_cost]
    assert ev.mean_energy_loss_cost == float(energy_loss.mean())
    assert (ev.mean_cleanings, ev.mean_cleaning_cost) == (cleanings, cleaning_cost)


@settings(max_examples=60, deadline=None)
@given(horizon=st.integers(1, 3), reps=st.integers(1, 4), start_month=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32 - 1), sp=soiling_params(), data=st.data())
def test_evaluate_interval_equals_all_replications_form(horizon, reps, start_month, seed,
                                                        sp, data):
    cfg = replace(CFG, horizon_years=horizon, start_month=start_month, seed=seed, soiling=sp)
    z = data.draw(st.integers(1, cfg.n_days + 3), label="z")
    assert_equals_all_replications_form(z, cfg, reps)


def test_evaluate_interval_equals_all_replications_form_past_the_root():
    """One year-long segment whose soiling passes the efficiency root s = 3,
    so the cubic is summed where ``s**3`` and ``s*s*s`` round apart."""
    eff_max, c3, c2, s0 = SoilingParams().eff_max, -0.01, 0.05, 3.0
    c1 = -(eff_max + c2 * s0 ** 2 + c3 * s0 ** 3) / s0
    sp = SoilingParams(beta_residue=1.0, cubic=(c3, c2, c1))
    assert_equals_all_replications_form(365, replace(CFG, soiling=sp), 2)


@settings(max_examples=100, deadline=None)
@given(horizon=st.integers(1, 3), reps=st.integers(1, 4), start_month=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32 - 1), sp=soiling_params(),
       chunk=st.sampled_from([1, 5_000, simopt._CHUNK_ELEMENTS]),
       block=st.sampled_from([1, 300, simopt._BLOCK_ELEMENTS]), data=st.data())
def test_optimize_curve_equals_single_intervals_and_oracle(horizon, reps, start_month,
                                                          seed, sp, chunk, block, data):
    """Every sweep entry equals its own single-interval run and the oracle, bit
    for bit, whatever chunks the intervals and blocks the rows fall into."""
    cfg = replace(CFG, horizon_years=horizon, start_month=start_month, seed=seed, soiling=sp)
    z_min = data.draw(st.integers(1, cfg.n_days + 3), label="z_min")
    z_max = data.draw(st.integers(z_min, min(z_min + 150, cfg.n_days + 3)), label="z_max")
    with (mock.patch.object(simopt, "_CHUNK_ELEMENTS", chunk),
          mock.patch.object(simopt, "_BLOCK_ELEMENTS", block)):
        _, curve = optimize(cfg, z_min, z_max, reps)
    weather = precompute_weather(cfg, reps)
    days = day_arrays(cfg, weather)
    assert [e.z for e in curve] == list(range(z_min, z_max + 1))
    for e in curve:
        single = evaluate_interval(e.z, cfg, reps, days=days)
        energy_loss, cleaning_cost, cleanings = all_replications_episode_costs(
            e.z, cfg, weather)
        fields = (e.costs, e.mean_energy_loss_cost, e.mean_cleanings, e.mean_cleaning_cost)
        assert fields == (single.costs, single.mean_energy_loss_cost,
                          single.mean_cleanings, single.mean_cleaning_cost)
        assert fields == ([float(c) for c in energy_loss + cleaning_cost],
                          float(energy_loss.mean()), cleanings, cleaning_cost)


def test_interval_one_cleans_daily():
    ev = evaluate_interval(1, CFG, replications=2)
    assert ev.mean_cleanings == CFG.n_days - 1


def test_cost_decomposition():
    ev = evaluate_interval(10, CFG, replications=4)
    assert ev.mean_total_cost == pytest.approx(
        ev.mean_energy_loss_cost + ev.mean_cleaning_cost, rel=1e-12)
    assert ev.mean_cleaning_cost == ev.mean_cleanings * CFG.cleaning_cost


def test_evaluate_interval_rejects_bad_z():
    with pytest.raises(ValueError):
        evaluate_interval(0, CFG)


@pytest.mark.parametrize("z", [2.5, True, "3"])
def test_evaluate_interval_rejects_non_integer_z(z):
    with pytest.raises(ValueError, match=f"cleaning interval must be an integer >= 1, got {z!r}"):
        evaluate_interval(z, CFG, replications=2)


def test_evaluate_interval_accepts_numpy_integer_z():
    ev = evaluate_interval(np.int64(3), CFG, replications=2)
    assert type(ev.z) is int
    assert ev.costs == evaluate_interval(3, CFG, replications=2).costs


@pytest.mark.parametrize("replications", [30, 2, 0])
def test_evaluate_interval_rejects_days_of_other_replications(replications):
    days = day_arrays(CFG, precompute_weather(CFG, 3))
    with pytest.raises(ValueError, match=f"days holds 3 replications, not {replications}"):
        evaluate_interval(5, CFG, replications, days=days)


@pytest.mark.parametrize("energy_loss", [np.zeros(5), np.zeros(2), np.zeros((3, 1)), np.float64(0.0)])
def test_evaluate_interval_rejects_energy_loss_of_other_replications(energy_loss):
    days = day_arrays(CFG, precompute_weather(CFG, 3))
    message = f"energy_loss has shape {np.shape(energy_loss)}, not (3,)"
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate_interval(5, CFG, 3, days=days, energy_loss=energy_loss)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("search", [lambda cfg: evaluate_interval(5, cfg, replications=2),
                                    lambda cfg: optimize(cfg, 1, 5, replications=2)],
                         ids=["evaluate_interval", "optimize"])
def test_overflowing_costs_are_an_error(search):
    # tariff * panel_area overflows, so the energy-loss costs are inf - inf.
    with pytest.raises(NumericalError, match="non-finite cost for interval"):
        search(replace(CFG, tariff=1e308, panel_area=1e308))


def test_common_random_numbers_across_intervals():
    days = day_arrays(CFG, precompute_weather(CFG, 3))
    a = evaluate_interval(5, CFG, 3, days=days)
    b = evaluate_interval(50, CFG, 3, days=days)
    # Same replication seeds: energy loss must dominate identically, i.e.
    # per-replication cost differences stay far below across-replication
    # variation for a smooth curve.  Weather reuse is what we assert here.
    c = evaluate_interval(5, CFG, 3)
    np.testing.assert_array_equal(a.costs, c.costs)
    assert a.costs != b.costs


def test_optimize_returns_curve_and_interior_optimum():
    z_star, curve = optimize(CFG, z_min=1, z_max=60, replications=5)
    assert len(curve) == 60
    assert curve[z_star - 1].z == z_star
    best = min(e.mean_total_cost for e in curve)
    assert curve[z_star - 1].mean_total_cost == best
    assert 1 < z_star < 60  # interior optimum at these prices


def test_optimize_tie_breaks_toward_smaller_z():
    # With a free cleaning the cost is weakly decreasing in cleaning
    # frequency; any exact ties must resolve to the smaller interval.
    free = ScenarioConfig(tariff=0.073, cleaning_cost=0.0, horizon_years=1, seed=0)
    z_star, curve = optimize(free, z_min=1, z_max=10, replications=2)
    assert z_star == 1


def test_optimize_validates_range():
    with pytest.raises(ValueError):
        optimize(CFG, z_min=10, z_max=5)


@pytest.mark.parametrize("z_min, z_max, bad", [(1.5, 3, 1.5), (1, 3.0, 3.0),
                                               (False, 3, False), (0, 3, 0)])
def test_optimize_rejects_non_integer_bounds(z_min, z_max, bad):
    with pytest.raises(ValueError, match=f"cleaning interval must be an integer >= 1, got {bad!r}"):
        optimize(CFG, z_min, z_max, replications=2)


def test_calibrate_panel_area_inverts_target():
    target = 1.5
    area = calibrate_panel_area(CFG, target, z_max=60, replications=5)
    tuned = ScenarioConfig(tariff=CFG.tariff, cleaning_cost=CFG.cleaning_cost,
                           horizon_years=1, seed=0, panel_area=area)
    _, curve = optimize(tuned, z_max=60, replications=5)
    assert min(e.mean_total_cost for e in curve) == pytest.approx(target, rel=1e-6)
