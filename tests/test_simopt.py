"""Sim-Opt: interval evaluation vs an independent slow oracle and the
all-replications-at-once closed form."""

import math
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pvclean
from oracles import traced_peak
from pvclean import agents, environment, simopt, weather
from pvclean.agents import NumericalError
from pvclean import soiling as phys
from pvclean.environment import DAY_VARIABLES, CleaningEnv, ScenarioConfig, day_arrays
from pvclean.rng import replication_entropy
from pvclean.simopt import (calibrate_panel_area, evaluate_interval, optimize,
                            precompute_weather)
from pvclean.soiling import SoilingParams
from pvclean.weather import (KMH_PER_MS, VARIABLES, ModelFormatError, default_model,
                             generate_weather, make_streams, save_model, stack_weather)

CFG = ScenarioConfig(tariff=0.073, cleaning_cost=0.0183, horizon_years=1, seed=0)


def all_replications_episode_costs(z, config, weather):
    """The closed-form fixed-interval costs over (replications, n_seg, z) at once.

    ``simopt`` runs the same operations one replication at a time; this is
    the whole-array form they must equal bit for bit.
    """
    energy_loss, cleanings = all_replications_energy_losses(z, config,
                                                            day_arrays(config, dict(weather)))
    return energy_loss, cleanings * config.cleaning_cost, cleanings


def all_replications_energy_losses(z, config, days):
    """The energy-loss costs of interval ``z`` on ``days`` (the
    :func:`~pvclean.environment.day_arrays` of some weather), and its
    cleanings, with a running minimum over every day of every segment."""
    sp = config.soiling
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
    return energy_loss, n_seg - 1


@st.composite
def soiling_params(draw):
    """Default physics, or a cubic whose efficiency crosses 0 at a soiling
    level ``s0`` that long segments pass, so the floor at 0 binds.  Only
    cubics that keep efficiency <= eff_max for s >= 0 are drawn, as
    ``SoilingParams`` requires."""
    if draw(st.booleans()):
        return SoilingParams()
    eff_max = SoilingParams().eff_max
    c3 = draw(st.floats(-0.01, 0.0))
    c2 = draw(st.floats(-0.05, 0.05))
    s0 = draw(st.floats(0.05, 3.0))
    c1 = -(eff_max + c2 * s0 ** 2 + c3 * s0 ** 3) / s0
    assume(c1 <= 0 and (c2 <= 0 or Fraction(c2) ** 2 <= 4 * Fraction(c3) * Fraction(c1)))
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
    weather = precompute_weather(cfg, range(reps))
    days = day_arrays(cfg, dict(weather))
    ev = evaluate_interval(z, cfg, reps, days=days)
    energy_loss, cleaning_cost, cleanings = all_replications_episode_costs(z, cfg, weather)
    assert ev.costs.tolist() == (energy_loss + cleaning_cost).tolist()
    assert simopt._energy_losses([z], cfg, days)[0].tolist() == energy_loss.tolist()
    assert ev.cleanings.tolist() == [cleanings] * reps


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
    weather = precompute_weather(cfg, range(reps))
    days = day_arrays(cfg, dict(weather))
    zs = range(z_min, z_max + 1)
    assert len(curve) == len(zs)
    for z, e in zip(zs, curve):
        energy_loss, cleaning_cost, cleanings = all_replications_episode_costs(z, cfg, weather)
        assert simopt._energy_losses([z], cfg, days)[0].tolist() == energy_loss.tolist()
        assert e.costs.tolist() == (energy_loss + cleaning_cost).tolist()
        assert e.cleanings.tolist() == [cleanings] * reps


@st.composite
def made_up_days(draw):
    """A ``day_arrays`` dict of 1-3 replications whose deposition has both
    signs and signed zeros, on the scale of the bundled model's (-5e-4 to
    0.12 g/m2 a day), where soiling stays below the cubic's root.  A
    replication is drawn at random, or keeps falling, so that every row's
    low is its last column, or keeps rising, so that every low is its
    first."""
    n_reps, n_days = draw(st.integers(1, 3)), draw(st.integers(1, 60))
    days = st.lists(st.floats(1e-4, 0.1), min_size=n_days, max_size=n_days)
    d_cal = []
    for _ in range(n_reps):
        shape = draw(st.sampled_from(["random", "falling", "rising"]), label="shape")
        if shape == "random":
            d_cal.append(draw(st.lists(st.one_of(st.floats(-0.1, 0.1),
                                                 st.sampled_from([0.0, -0.0])),
                                       min_size=n_days, max_size=n_days)))
        else:
            d_cal.append([-x if shape == "falling" else x for x in draw(days)])
    price = st.lists(st.floats(0.0, 10.0), min_size=n_days, max_size=n_days)
    return {"d_cal": np.array(d_cal),
            "price": np.array([draw(price) for _ in range(n_reps)]),
            "tau": np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n_days,
                                          max_size=n_days))),
            "clean_panel_loss": np.array(draw(st.lists(st.floats(0.0, 100.0), min_size=n_reps,
                                                       max_size=n_reps)))}


@settings(max_examples=150, deadline=None)
@given(days=made_up_days(), sp=soiling_params(),
       block=st.sampled_from([1, 300, simopt._BLOCK_ELEMENTS]), data=st.data())
def test_energy_losses_equal_the_full_running_minimum_wherever_the_lows_fall(days, sp, block,
                                                                             data):
    """The sweep's running minimum stops at each block's latest low; the oracle
    runs it over every day.  Rows that fall to their last column, rows of
    length 1 and zero minima of either sign give the same costs."""
    cfg = replace(CFG, soiling=sp)
    n_days = days["d_cal"].shape[1]
    z_min = data.draw(st.integers(1, n_days + 3), label="z_min")
    z_max = data.draw(st.integers(z_min, n_days + 3), label="z_max")
    zs = range(z_min, z_max + 1)
    with mock.patch.object(simopt, "_BLOCK_ELEMENTS", block):
        losses = simopt._energy_losses(zs, cfg, days)
    for z, loss in zip(zs, losses):
        assert loss.tolist() == all_replications_energy_losses(z, cfg, days)[0].tolist()


class KeysRead(dict):
    """A dict that records every key read or popped from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def pop(self, key, *default):
        self.read.add(key)
        return super().pop(key, *default)


def recorded_streams(monkeypatch):
    """Patch ``weather.make_streams`` to keep every stream dict it makes."""
    made, make = [], weather.make_streams
    monkeypatch.setattr(weather, "make_streams",
                        lambda entropy: made.append(make(entropy)) or made[-1])
    return made


@pytest.mark.parametrize("start_month", [1, 7])
def test_precompute_weather_draws_only_the_variables_day_arrays_reads(monkeypatch,
                                                                      start_month):
    cfg = replace(CFG, horizon_years=2, start_month=start_month, seed=5)
    streams = recorded_streams(monkeypatch)
    drawn = precompute_weather(cfg, range(3))
    four = streams[:]
    entropies = [replication_entropy(cfg.seed, r) for r in range(3)]
    all_five = stack_weather(default_model(), cfg.n_days, entropies, start_month)
    five = streams[len(four):]

    recorder = KeysRead(drawn)
    day_arrays(cfg, recorder)
    assert list(drawn) == list(DAY_VARIABLES)
    assert recorder.read == set(DAY_VARIABLES)
    assert not recorder
    assert list(all_five) == list(VARIABLES)
    for var in DAY_VARIABLES:
        assert drawn[var].tobytes() == all_five[var].tobytes(), var
    assert len(four) == len(five) == 3
    for r in range(3):
        assert list(four[r]) == list(VARIABLES)
        assert four[r]["temperature"].counter == 0
        assert five[r]["temperature"].counter > 0
        for var in DAY_VARIABLES:
            assert four[r][var].counter == five[r][var].counter, (r, var)


def test_the_environment_still_draws_all_five_variables(monkeypatch):
    cfg = replace(CFG, seed=3)
    streams = recorded_streams(monkeypatch)
    env = CleaningEnv(cfg)
    seeds = [replication_entropy(cfg.seed, r) for r in range(2)]
    env.reset(seeds)
    result = env.step(np.zeros(2, dtype=np.int64))
    expect = stack_weather(default_model(), cfg.n_days, seeds)
    assert all(s[var].counter > 0 for s in streams for var in VARIABLES)
    for var in VARIABLES:
        scale = KMH_PER_MS if var == "wind_speed" else 1.0
        assert result.info[var].tolist() == (expect[var][:, 0] / scale).tolist(), var


def test_optimize_on_a_saved_copy_of_the_bundled_model_gives_the_same_curve(tmp_path):
    model = tmp_path / "model.csv"
    save_model(default_model(), model)
    cfg = replace(CFG, seed=11)
    z_star, curve = optimize(cfg, 1, 40, replications=3)
    copy_star, copy_curve = optimize(replace(cfg, weather_model_path=str(model)), 1, 40,
                                     replications=3)
    assert copy_star == z_star
    assert [e.costs.tolist() for e in copy_curve] == [e.costs.tolist() for e in curve]
    assert [e.cleanings.tolist() for e in copy_curve] == [e.cleanings.tolist() for e in curve]


def test_interval_one_cleans_daily():
    ev = evaluate_interval(1, CFG, replications=2)
    assert ev.mean_cleanings == CFG.n_days - 1


def test_cost_decomposition():
    days = day_arrays(CFG, precompute_weather(CFG, range(4)))
    ev = evaluate_interval(10, CFG, 4, days=days)
    energy_loss = simopt._energy_losses([10], CFG, days)[0]
    np.testing.assert_array_equal(ev.costs, energy_loss + ev.cleanings * CFG.cleaning_cost)


def test_evaluate_interval_rejects_bad_z():
    with pytest.raises(ValueError):
        evaluate_interval(0, CFG)


@pytest.mark.parametrize("z", [2.5, True, "3"])
def test_evaluate_interval_rejects_non_integer_z(z):
    with pytest.raises(ValueError, match=f"cleaning interval must be an integer >= 1, got {z!r}"):
        evaluate_interval(z, CFG, replications=2)


def test_evaluate_interval_accepts_numpy_integer_z():
    ev = evaluate_interval(np.int64(3), CFG, replications=2)
    assert ev.costs.tolist() == evaluate_interval(3, CFG, replications=2).costs.tolist()
    z_star, _ = optimize(CFG, np.int64(3), np.int64(4), replications=2)
    assert type(z_star) is int


@pytest.mark.parametrize("replications", [30, 2, 0])
def test_evaluate_interval_rejects_days_of_other_replications(replications):
    days = day_arrays(CFG, precompute_weather(CFG, range(3)))
    with pytest.raises(ValueError, match=f"days holds 3 replications, not {replications}"):
        evaluate_interval(5, CFG, replications, days=days)


def test_evaluate_interval_rejects_days_of_another_horizon():
    days = day_arrays(CFG, precompute_weather(CFG, range(3)))
    with pytest.raises(ValueError, match="days holds 365 days, not the config's 730"):
        evaluate_interval(5, replace(CFG, horizon_years=2), 3, days=days)


def test_evaluate_interval_needs_no_days_with_its_energy_loss():
    days = day_arrays(CFG, precompute_weather(CFG, range(3)))
    loss = simopt._energy_losses([5], CFG, days)[0]
    assert (evaluate_interval(5, CFG, 3, energy_loss=loss).costs.tolist()
            == evaluate_interval(5, CFG, 3, days=days).costs.tolist())


@pytest.mark.parametrize("energy_loss", [np.zeros(5), np.zeros(2), np.zeros((3, 1)), np.float64(0.0)])
def test_evaluate_interval_rejects_energy_loss_of_other_replications(energy_loss):
    days = day_arrays(CFG, precompute_weather(CFG, range(3)))
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
    days = day_arrays(CFG, precompute_weather(CFG, range(3)))
    a = evaluate_interval(5, CFG, 3, days=days)
    b = evaluate_interval(50, CFG, 3, days=days)
    # Same replication seeds: energy loss must dominate identically, i.e.
    # per-replication cost differences stay far below across-replication
    # variation for a smooth curve.  Weather reuse is what we assert here.
    c = evaluate_interval(5, CFG, 3)
    np.testing.assert_array_equal(a.costs, c.costs)
    assert not np.array_equal(a.costs, b.costs)


def test_optimize_returns_curve_and_interior_optimum():
    z_star, curve = optimize(CFG, z_min=1, z_max=60, replications=5)
    assert len(curve) == 60
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


# The cleaning cost of the longest interval of a z <= 60 sweep of CFG, the
# cheapest of the sweep: any optimal cost lies above it.
CHEAPEST_CLEANING = (-(-CFG.n_days // 60) - 1) * CFG.cleaning_cost


@settings(max_examples=10, deadline=None)
@given(target=st.floats(CHEAPEST_CLEANING, 1e4, exclude_min=True))
def test_calibrated_area_gives_the_target_cost(target):
    area = calibrate_panel_area(CFG, target, z_max=60, replications=5)
    assert area > 0.0
    _, curve = optimize(replace(CFG, panel_area=area), z_max=60, replications=5)
    assert min(e.mean_total_cost for e in curve) == pytest.approx(target, rel=1e-12, abs=0)


def test_calibrated_area_matches_the_bisection():
    # The value 200 bisection steps over the optimum's envelope gave.
    bisected = 1.0275086449715554
    area = calibrate_panel_area(CFG, 1.5, z_max=60, replications=5)
    assert abs(area - bisected) <= 2 * math.ulp(bisected)


@pytest.mark.parametrize("target", [0.001, -1.0, math.nan, math.inf, -math.inf])
def test_unreachable_calibration_target_is_an_error(target):
    with pytest.raises(ValueError, match="no panel area gives an optimal cost"):
        calibrate_panel_area(CFG, target, z_max=60, replications=5)


def test_simopt_imports_no_learning_code():
    code = ("import sys, pvclean.simopt; "
            "print(sorted(m for m in ('pvclean.agents', 'pvclean.nn') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(pvclean.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_numerical_error_is_one_class():
    assert agents.NumericalError is environment.NumericalError


# -- replications in shares, one process each ------------------------------


def see_cpus(monkeypatch, n):
    """Give this process an affinity mask of ``n`` CPUs, as ``taskset`` would."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def counted_forks(monkeypatch):
    """The pids of the processes this process forks from now on."""
    forks, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.parametrize("reps", [7, 31, 1])
def test_shares_of_the_replications_give_the_costs_of_one_process(monkeypatch, reps):
    """z* and every cost of a 20-year sweep of z = 1..400, which takes
    several chunks, are the same whether the replications run in one
    process or in uneven shares over two or three."""
    cfg = environment.preset("S5exp")
    assert cfg.n_days == 7300
    assert len(list(simopt._chunks(range(1, 401), cfg.n_days))) > 1
    results = []
    for cpus in (1, 2, 3):
        see_cpus(monkeypatch, cpus)
        forks = counted_forks(monkeypatch)
        z_star, curve = optimize(cfg, 1, 400, reps)
        assert len(forks) == min(cpus, reps) - 1
        results.append((z_star, [e.costs.tobytes() for e in curve],
                        [e.cleanings.tobytes() for e in curve],
                        evaluate_interval(7, cfg, reps).costs.tobytes()))
    assert results[1] == results[0]
    assert results[2] == results[0]


@pytest.mark.parametrize("block", [1, 3, simopt._REPLICATION_BLOCK])
def test_blocks_of_replications_give_the_costs_of_one_block(monkeypatch, block):
    """Every cost of a 2-year sweep of z = 1..2000, which takes several chunks,
    is the same whether each share's replications are drawn and priced one
    block at a time, whatever the block, and whether they run in one
    process or in shares over two or three."""
    cfg = environment.preset("S2exp", horizon_years=2)
    zs = range(1, 2001)
    assert len(list(simopt._chunks(zs, cfg.n_days))) > 1
    reps = 7
    expect = simopt._energy_losses(zs, cfg, day_arrays(cfg, precompute_weather(cfg, range(reps))))
    monkeypatch.setattr(simopt, "_FORK_REPLICATION_DAYS", 0)
    monkeypatch.setattr(simopt, "_REPLICATION_BLOCK", block)
    for cpus in (1, 2, 3):
        see_cpus(monkeypatch, cpus)
        forks = counted_forks(monkeypatch)
        assert simopt._sweep(zs, cfg, reps).tobytes() == expect.tobytes(), cpus
        assert len(forks) == cpus - 1
        costs = evaluate_interval(7, cfg, reps, energy_loss=expect[6]).costs
        assert evaluate_interval(7, cfg, reps).costs.tobytes() == costs.tobytes(), cpus


def test_a_share_of_many_replications_holds_one_block_at_a_time():
    """Drawing and pricing 96 replications of 20 years peaks within one
    (32, n_days) array of the peak for 32: 6.4 of them against 6.2, since a
    share is drawn, turned into day arrays and priced 32 replications at a
    time.  Drawn all at once, 96 replications peaked at three times 32's."""
    cfg = environment.preset("S3exp")
    zs = range(1, 31)
    array = simopt._REPLICATION_BLOCK * cfg.n_days * 8
    peaks = [traced_peak(lambda: simopt._share_losses(zs, cfg, range(reps)))[1]
             for reps in (32, 96)]
    assert peaks[1] < peaks[0] + array


_SHARE_LOSSES = simopt._share_losses


def _exit_in_a_worker(zs, config, replications):
    """``simopt._share_losses``, but a worker process dies instead."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return _SHARE_LOSSES(zs, config, replications)


@pytest.mark.parametrize("outcome", ["returns", "cannot-draw", "worker-dies"])
def test_a_forked_sweep_leaves_no_process_behind(monkeypatch, humidity_beta_model, outcome):
    """A sweep above the threshold forks its workers and joins them all,
    whether it returns, its draws fail, or a worker dies."""
    cfg = environment.preset("S1exp", horizon_years=5)
    assert 30 * cfg.n_days >= simopt._FORK_REPLICATION_DAYS
    see_cpus(monkeypatch, 2)
    forks = counted_forks(monkeypatch)
    if outcome == "returns":
        optimize(cfg, 1, 10, 30)
    elif outcome == "cannot-draw":
        with pytest.raises(ModelFormatError, match="accepts too few attempts to draw"):
            optimize(replace(cfg, weather_model_path=str(humidity_beta_model("0.5;1e300"))),
                     1, 10, 30)
    else:
        monkeypatch.setattr(simopt, "_share_losses", _exit_in_a_worker)
        with pytest.raises(simopt.WorkerError, match="ended without its share"):
            optimize(cfg, 1, 10, 30)
    assert len(forks) == 1
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("horizon, reps", [(1, 2), (1, 30), (5, 1)])
def test_a_sweep_below_the_threshold_or_of_one_replication_never_forks(monkeypatch,
                                                                       horizon, reps):
    """Such as the benchmark's warm-up and CI's smoke runs (1 year, 2
    replications): a fork would cost more than it saves."""
    def no_fork():
        raise AssertionError("forked")

    see_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", no_fork)
    cfg = environment.preset("S1exp", horizon_years=horizon)
    optimize(cfg, 1, 10, reps)
    evaluate_interval(7, cfg, reps)
    calibrate_panel_area(cfg, 100.0, 1, 10, reps)


def test_cli_imports_no_process_pool_code():
    # Loaded only once a sweep forks: each would add to every command's start.
    code = ("import sys, pvclean.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(Path(pvclean.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
