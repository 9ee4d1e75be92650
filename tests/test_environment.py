"""Cleaning environment: config handling, step accounting, reward modes.

The single-step oracle re-derives one day's transition from the weather
arrays and the soiling primitives, independently of CleaningEnv.step, and
``oracles.priced_steps`` prices every day as it is played, as the
environment did before it priced days only when they are read.
``oracles.reading_day_arrays`` and ``oracles.one_pass_total_cost`` are the
day arrays and episode total as they were before each full-size array was
held only while something still reads it.
A default reset starts one replication, so observations are (1, obs_dim)
and actions, rewards and state are (1,) arrays; tests read replication 0.
"""

import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import one_pass_total_cost, priced_steps, reading_day_arrays
from pvclean import environment
from pvclean import soiling as phys
from pvclean.environment import (CALIBRATED_PANEL_AREA, DAY_VARIABLES, FEATURE_SCALES,
                                 PRESETS, CleaningEnv, ConfigError,
                                 EpisodeDoneError, ScenarioConfig,
                                 load_config, observation_scales, preset,
                                 day_arrays, save_config)
from pvclean.simopt import precompute_weather
from pvclean.soiling import SoilingParams
from pvclean.weather import KMH_PER_MS, generate_weather, make_streams

SMALL = dict(tariff=0.073, cleaning_cost=0.0183, horizon_years=1)


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(tariff=0.0, cleaning_cost=0.1)
    with pytest.raises(ConfigError):
        ScenarioConfig(tariff=0.1, cleaning_cost=-0.1)
    with pytest.raises(ConfigError):
        ScenarioConfig(tariff=0.1, cleaning_cost=0.1, panel_area=0.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(tariff=0.1, cleaning_cost=0.1, horizon_years=0)
    with pytest.raises(ConfigError, match="horizon_years must be in 1..100"):
        ScenarioConfig(tariff=0.1, cleaning_cost=0.1, horizon_years=101)
    assert ScenarioConfig(tariff=0.1, cleaning_cost=0.1, horizon_years=100).n_days == 36500
    with pytest.raises(ConfigError):
        ScenarioConfig(tariff=0.1, cleaning_cost=0.1, reward_mode="sparse")
    with pytest.raises(ConfigError):
        ScenarioConfig(tariff=0.1, cleaning_cost=0.1, normalization_mode="zscore")
    with pytest.raises(ConfigError):
        ScenarioConfig(tariff=0.1, cleaning_cost=0.1, start_month=13)


@pytest.mark.parametrize("field, value", [("tariff", float("nan")),
                                          ("cleaning_cost", float("nan")),
                                          ("panel_area", float("inf")),
                                          ("tariff", "0.07"), ("tariff", True),
                                          ("cleaning_cost", "0.02"), ("cleaning_cost", True),
                                          ("panel_area", "1.6"), ("panel_area", True)])
def test_config_rejects_non_finite_numbers(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        preset("S1exp", **{field: value})


@pytest.mark.parametrize("field", ["tariff", "cleaning_cost", "panel_area"])
@pytest.mark.parametrize("value", ["0.07", True], ids=["string", "bool"])
def test_load_config_rejects_non_numeric_numbers(tmp_path, field, value):
    path = tmp_path / "cfg.json"
    save_config(preset("S1exp"), path)
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=f"cfg.json: {field} must be finite and numeric"):
        load_config(path)


def test_config_requires_soiling_params():
    with pytest.raises(ConfigError, match="soiling must be a SoilingParams"):
        preset("S1exp", soiling={"a": 1})


@pytest.mark.parametrize("value", ["dusty", [0.06], 1.0])
def test_load_config_requires_a_soiling_object(tmp_path, value):
    path = tmp_path / "cfg.json"
    save_config(preset("S1exp"), path)
    data = json.loads(path.read_text())
    data["soiling"] = value
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="cfg.json: soiling must be a JSON object"):
        load_config(path)


@pytest.mark.parametrize("field", ["horizon_years", "start_month", "seed"])
def test_config_rejects_fractional_integers(field):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        preset("S1exp", **{field: 1.5})


@pytest.mark.parametrize("seed", [-1, -(2 ** 40)])
def test_config_rejects_a_negative_seed(tmp_path, seed):
    with pytest.raises(ConfigError, match=f"seed must be >= 0: {seed}"):
        preset("S1exp", seed=seed)
    path = tmp_path / "cfg.json"
    save_config(preset("S1exp"), path)
    path.write_text(path.read_text().replace('"seed": 0', f'"seed": {seed}'))
    with pytest.raises(ConfigError, match=f"cfg.json: seed must be >= 0: {seed}"):
        load_config(path)


@pytest.mark.parametrize("value", ["no", 0, 1, None])
def test_config_requires_a_bool_include_humidity(value):
    with pytest.raises(ConfigError, match="include_humidity"):
        preset("S1exp", include_humidity=value)


def test_presets_cover_matrix():
    assert len(PRESETS) == 10
    assert preset("S1exp").tariff == 0.073
    assert preset("S1uae").tariff == 0.018
    costs = [preset(f"S{i}exp").cleaning_cost for i in range(1, 6)]
    assert costs == sorted(costs) and len(set(costs)) == 5
    for cfg in PRESETS.values():
        assert cfg.panel_area == CALIBRATED_PANEL_AREA
    with pytest.raises(ConfigError):
        preset("S6exp")


def test_preset_overrides():
    cfg = preset("S1exp", horizon_years=5, seed=7)
    assert cfg.horizon_years == 5 and cfg.seed == 7
    assert preset("S1exp").horizon_years == 20  # original untouched


def test_derived_sizes():
    cfg = ScenarioConfig(**SMALL)
    assert cfg.n_days == 365
    assert cfg.obs_dim == 6
    assert ScenarioConfig(**SMALL, include_humidity=True).obs_dim == 7


def test_config_round_trip(tmp_path):
    cfg = preset("S2uae", horizon_years=3, include_humidity=True,
                 reward_mode="terminal")
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


PRESET_JSON = """\
{
  "tariff": 0.073,
  "cleaning_cost": 0.0583,
  "panel_area": 0.403214,
  "horizon_years": 20,
  "reward_mode": "per_step",
  "normalization_mode": "feature_scaled",
  "start_month": 1,
  "seed": 0,
  "include_humidity": false,
  "weather_model_path": null,
  "name": "S3exp",
  "soiling": {
    "humidity_k": 0.06,
    "beta_residue": 0.01,
    "annual_degradation": 0.05,
    "eff_max": 0.192,
    "cubic": [
      -0.0026,
      0.032,
      -0.1369
    ]
  }
}
"""

ODD_JSON = """\
{
  "tariff": 0.018,
  "cleaning_cost": 0.0383,
  "panel_area": 0.403214,
  "horizon_years": 3,
  "reward_mode": "terminal",
  "normalization_mode": "div10",
  "start_month": 5,
  "seed": 11,
  "include_humidity": true,
  "weather_model_path": null,
  "name": "odd",
  "soiling": {
    "humidity_k": 0.07,
    "beta_residue": 0.01,
    "annual_degradation": 0.05,
    "eff_max": 0.192,
    "cubic": [
      -0.002,
      0.03,
      -0.13
    ]
  }
}
"""


@pytest.mark.parametrize("cfg, text", [
    (preset("S3exp"), PRESET_JSON),
    (preset("S2uae", horizon_years=3, include_humidity=True, reward_mode="terminal",
            normalization_mode="div10", start_month=5, seed=11, name="odd",
            soiling=SoilingParams(humidity_k=0.07, cubic=(-0.002, 0.03, -0.13))), ODD_JSON),
], ids=["preset", "non-default"])
def test_save_config_bytes_are_pinned(tmp_path, cfg, text):
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert path.read_bytes() == text.encode()


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
nonpositive = st.floats(max_value=0.0, allow_infinity=False)


@st.composite
def admissible_cubics(draw):
    """A cubic (c3, c2, c1) that keeps efficiency <= eff_max for s >= 0:
    c1 <= 0, c3 <= 0, and c2 <= 0 or c2 <= sqrt(c3 c1), half the bound."""
    c3, c1 = draw(nonpositive), draw(nonpositive)
    c2 = draw(nonpositive | st.floats(0.0, 1.0).map(
        lambda t: t * math.sqrt(-c3) * math.sqrt(-c1)))
    return c3, c2, c1


@st.composite
def scenario_configs(draw):
    """Any valid config, with every field drawn, the soiling physics too."""
    soiling = SoilingParams(
        humidity_k=draw(st.floats(allow_nan=False, allow_infinity=False)),
        beta_residue=draw(positive),
        annual_degradation=draw(st.floats(0.0, 1.0, exclude_max=True)),
        eff_max=draw(st.floats(0.0, 1.0, exclude_min=True)),
        cubic=draw(admissible_cubics()))
    return ScenarioConfig(
        tariff=draw(positive),
        cleaning_cost=draw(st.floats(min_value=0.0, allow_infinity=False)),
        panel_area=draw(positive),
        horizon_years=draw(st.integers(1, 100)),
        reward_mode=draw(st.sampled_from(["per_step", "terminal"])),
        normalization_mode=draw(st.sampled_from(["feature_scaled", "div10"])),
        start_month=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2 ** 128)),
        include_humidity=draw(st.booleans()),
        soiling=soiling,
        weather_model_path=draw(st.none() | st.text()),
        name=draw(st.text()))


@settings(max_examples=100, deadline=None)
@given(cfg=scenario_configs())
def test_save_load_config_is_the_identity(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("edit", [
    lambda d: d.update(tariff=float("nan")),
    lambda d: d.update(horizon_years=1.5),
    lambda d: d["soiling"].update(dust_k=1.0),
    lambda d: d.update(include_humidity="no"),
    lambda d: d["soiling"].update(cubic=[-0.0026]),
    lambda d: d["soiling"].update(humidity_k=float("nan")),
], ids=["nan-tariff", "fractional-horizon", "unknown-soiling-key", "string-humidity-flag",
        "short-cubic", "nan-humidity-k"])
def test_load_config_turns_bad_values_into_config_errors(tmp_path, edit):
    path = tmp_path / "cfg.json"
    save_config(preset("S1exp"), path)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))   # json writes NaN as the bare token NaN
    with pytest.raises(ConfigError, match="cfg.json"):
        load_config(path)


def test_load_config_rejects_a_list(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="cfg.json: config must be a JSON object"):
        load_config(path)


def test_reset_is_deterministic():
    env = CleaningEnv(ScenarioConfig(**SMALL, seed=3))
    obs1 = env.reset()
    r1 = [env.step([0]).reward[0] for _ in range(50)]
    obs2 = env.reset([3])
    r2 = [env.step([0]).reward[0] for _ in range(50)]
    np.testing.assert_array_equal(obs1, obs2)
    assert r1 == r2


def test_single_step_oracle():
    cfg = ScenarioConfig(**SMALL, seed=11)
    env = CleaningEnv(cfg)
    env.reset()
    weather = generate_weather(env.model, cfg.n_days, [make_streams(cfg.seed)])
    res = env.step([0])
    ws = weather["wind_speed"][0, 0] / KMH_PER_MS
    d = phys.calibrate(phys.daily_soiling(ws, weather["particulate_matter"][0, 0]),
                       weather["relative_humidity"][0, 0])
    s = max(d, cfg.soiling.beta_residue)
    eff = phys.efficiency(s, 1.0)
    loss = cfg.tariff * cfg.panel_area * (weather["irradiance"][0, 0] / 1000.0) * (
        cfg.soiling.eff_max - eff)
    assert res.info["soiling"][0] == pytest.approx(s, rel=1e-15)
    assert res.info["energy_loss_cost"][0] == pytest.approx(loss, rel=1e-12)
    assert res.reward[0] == pytest.approx(-loss, rel=1e-12)
    assert res.info["cleaning_cost_incurred"][0] == 0.0


def test_cleaning_resets_soiling_and_charges_cost():
    cfg = ScenarioConfig(**SMALL, seed=5)
    env = CleaningEnv(cfg)
    env.reset()
    for _ in range(30):
        env.step([0])
    dirty = env.soiling[0]
    assert dirty > cfg.soiling.beta_residue
    res = env.step([1])
    assert res.info["cleaning_cost_incurred"][0] == cfg.cleaning_cost
    # Only the cleaning day's fresh deposit remains after the clean.
    assert env.soiling[0] < dirty
    assert env.days_since_clean[0] == 1
    assert env.cumulative_cleanings[0] == 1


def test_days_since_clean_counts_every_morning():
    env = CleaningEnv(ScenarioConfig(**SMALL))
    env.reset()
    for k in range(1, 6):
        env.step([0])
        assert env.days_since_clean[0] == k


def test_invalid_action_and_done_errors():
    cfg = ScenarioConfig(**SMALL)
    env = CleaningEnv(cfg)
    env.reset()
    for bad in (2, [2], 0, [0, 0]):
        with pytest.raises(ValueError):
            env.step(bad)
    for _ in range(cfg.n_days):
        res = env.step([0])
    assert res.done
    with pytest.raises(EpisodeDoneError):
        env.step([0])
    env.reset([1, 2])
    for bad in (0, [0], [0, 2], [0.5, 1]):
        with pytest.raises(ValueError):
            env.step(bad)
    with pytest.raises(ValueError):
        env.reset([])


def test_reset_rejects_a_seed_that_is_not_a_list():
    # list((0, 0, 1)) would quietly start three replications.
    env = CleaningEnv(ScenarioConfig(**SMALL))
    for bad in (0, (0, 0, 1)):
        with pytest.raises(ValueError, match="list"):
            env.reset(bad)


def test_reward_modes_agree_on_episode_total():
    base = ScenarioConfig(**SMALL, seed=9)
    actions = [1 if d % 20 == 19 else 0 for d in range(base.n_days)]

    def run(cfg):
        env = CleaningEnv(cfg)
        env.reset()
        rewards, day_costs = [], []
        for a in actions:
            res = env.step([a])
            rewards.append(res.reward[0])
            day_costs.append(res.info["energy_loss_cost"][0]
                             + res.info["cleaning_cost_incurred"][0])
        return rewards, day_costs, env.cumulative_cost[0]

    r_step, day_costs, cost = run(base)
    r_term, _, cost_term = run(
        ScenarioConfig(**{**SMALL, "seed": 9}, reward_mode="terminal"))
    assert cost == pytest.approx(cost_term, rel=1e-15)
    assert sum(r_step) == pytest.approx(-cost, rel=1e-12)
    assert all(r == 0.0 for r in r_term[:-1])
    assert r_term[-1] == pytest.approx(-cost, rel=1e-12)
    assert sum(day_costs) == pytest.approx(cost, rel=1e-12)


def test_observation_normalization_modes():
    cfg = ScenarioConfig(**SMALL, seed=2)
    env = CleaningEnv(cfg)
    obs = env.reset()
    assert obs.shape == (1, 6)
    env10 = CleaningEnv(ScenarioConfig(**SMALL, seed=2, normalization_mode="div10"))
    obs10 = env10.reset()
    scales = [FEATURE_SCALES[k] for k in
              ("deposition", "days_since_clean", "temperature", "wind_speed",
               "particulate_matter", "irradiance")]
    np.testing.assert_allclose(np.asarray(obs) * scales,
                               np.asarray(obs10) * 10.0, rtol=1e-12)


@pytest.mark.parametrize("include_humidity", [False, True])
def test_observation_scales_follow_feature_order(include_humidity):
    cfg = ScenarioConfig(**SMALL, include_humidity=include_humidity)
    expect = [5.0, 100.0, 55.0, 30.0, 5.0, 9000.0, 100.0][:cfg.obs_dim]
    assert observation_scales(cfg).tolist() == expect
    div10 = ScenarioConfig(**SMALL, include_humidity=include_humidity,
                           normalization_mode="div10")
    assert observation_scales(div10).tolist() == [10.0] * cfg.obs_dim


def test_observation_feature_scaled_range():
    cfg = preset("S1exp", horizon_years=1)
    env = CleaningEnv(cfg)
    obs = env.reset()
    for day in range(200):
        v = np.asarray(obs[0])
        assert np.all(v >= 0.0)
        # All features except the unbounded days counter stay order-one.
        assert np.all(np.delete(v, 1) < 1.6)
        assert v[1] == pytest.approx(day / 100.0)
        obs = env.step([0]).observation


def test_humidity_feature_optional():
    env = CleaningEnv(ScenarioConfig(**SMALL, include_humidity=True))
    obs = env.reset()
    assert obs.shape == (1, 7)
    assert 0.0 < obs[0, 6] <= 1.0


def test_degradation_applies_across_years():
    cfg = ScenarioConfig(tariff=0.073, cleaning_cost=0.0183, horizon_years=2, seed=4)
    env = CleaningEnv(cfg)
    env.reset()
    env.day = 365  # second year
    res = env.step([0])
    # Efficiency now carries the tau = 0.95 factor.
    assert res.info["efficiency"][0] <= 0.95 * cfg.soiling.eff_max + 1e-12


_ENTROPY = st.one_of(st.integers(0, 2**32),
                     st.tuples(st.integers(0, 9), st.integers(0, 1), st.integers(0, 99)))


@settings(max_examples=15, deadline=None)
@given(seeds=st.lists(_ENTROPY, min_size=1, max_size=3),
       overrides=st.sampled_from([{}, {"reward_mode": "terminal"},
                                  {"normalization_mode": "div10"},
                                  {"include_humidity": True}]),
       data=st.data())
def test_lockstep_replications_match_single_seed_episodes(seeds, overrides, data):
    """One env stepped in lockstep over R seeds == R one-seed episodes, bit for bit."""
    cfg = ScenarioConfig(**SMALL, **overrides)
    actions = data.draw(arrays(np.int64, (len(seeds), cfg.n_days),
                               elements=st.integers(0, 1)))
    env = CleaningEnv(cfg)
    observations = [env.reset(seeds)]
    rewards = []
    for day in range(cfg.n_days):
        res = env.step(actions[:, day])
        observations.append(res.observation)
        rewards.append(res.reward)
    assert res.done

    for r, seed in enumerate(seeds):
        single = CleaningEnv(cfg)
        assert np.array_equal(single.reset([seed])[0], observations[0][r])
        for day in range(cfg.n_days):
            res = single.step(actions[r, day:day + 1])
            assert res.reward[0] == rewards[day][r]
            assert np.array_equal(res.observation[0], observations[day + 1][r])
        assert single.cumulative_cost[0] == env.cumulative_cost[r]
        assert single.cumulative_cleanings[0] == env.cumulative_cleanings[r]
        assert single.cumulative_cleanings[0] == actions[r].sum()


def assert_same_day(result, reward, info):
    assert np.array_equal(result.reward, reward)
    assert list(result.info) == list(info)
    for key, value in result.info.items():
        assert np.array_equal(value, info[key]), key


@settings(max_examples=20, deadline=None)
@given(seeds=st.lists(_ENTROPY, min_size=1, max_size=3),
       reward_mode=st.sampled_from(["per_step", "terminal"]),
       include_humidity=st.booleans(), div10=st.booleans(), data=st.data())
def test_days_priced_on_read_equal_days_priced_as_played(seeds, reward_mode,
                                                         include_humidity, div10, data):
    """Every reward, info value and total equals the per-day oracle's, bit for
    bit, whenever it is read.  With one replication a pairwise sum along
    the days rounds differently from the day-by-day running total."""
    cfg = ScenarioConfig(**SMALL, reward_mode=reward_mode, include_humidity=include_humidity,
                         normalization_mode="div10" if div10 else "feature_scaled")
    actions = data.draw(arrays(np.int64, (cfg.n_days, len(seeds)),
                               elements=st.integers(0, 1)))
    rewards, infos, cost, cleanings = priced_steps(cfg, seeds, actions)

    env = CleaningEnv(cfg)
    env.reset(seeds)
    results = []
    for day, action in enumerate(actions):
        results.append(env.step(action))
        # Read as soon as it is returned, as SAC reads it.
        assert np.array_equal(results[-1].reward, rewards[day])
    # Read after every later step.
    for res, reward, info in zip(results, rewards, infos):
        assert_same_day(res, reward, info)
    assert np.array_equal(env.cumulative_cost, cost)
    assert np.array_equal(env.cumulative_cleanings, cleanings)
    assert np.array_equal(env.rewards(), np.array(rewards))

    # Read after a reset has started another episode.
    env.reset([s + 1 if isinstance(s, int) else s[::-1] for s in seeds])
    env.step(1 - actions[0])
    day = data.draw(st.integers(0, cfg.n_days - 1), label="day")
    assert_same_day(results[day], rewards[day], infos[day])
    assert_same_day(results[-1], rewards[-1], infos[-1])


@st.composite
def day_weather(draw):
    """The ``DAY_VARIABLES`` of 1-4 replications over 1-3 years, with the
    replication count, the horizon and a numpy seed drawn.  Wind speeds of 0
    to 60 km/h and particulate matter of 0 to 2 give deposition of both
    signs, a fifth of the relative humidities lie below ``humidity_k``, so
    that the removal factor min(1, k / RH) is clamped at 1, and about one
    day in twenty is given a deposition of +0.0 or -0.0.  Returns the
    weather, ``humidity_k`` and the (mask, signed zeros) of those days."""
    reps, years = draw(st.integers(1, 4), label="reps"), draw(st.integers(1, 3), label="years")
    k = draw(st.floats(0.01, 10.0), label="humidity_k")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    shape = (reps, 365 * years)
    weather = {
        "wind_speed": rng.uniform(0.0, 60.0, shape),
        "particulate_matter": rng.uniform(0.0, 2.0, shape),
        "irradiance": rng.uniform(0.0, 9000.0, shape),
        "relative_humidity": np.where(rng.random(shape) < 0.2, rng.uniform(1e-3, k, shape),
                                      rng.uniform(k, 100.0, shape)),
    }
    zero = rng.random(shape) < 0.05
    return weather, k, (zero, np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero])


@settings(max_examples=40, deadline=None)
@given(drawn=day_weather(), annual_degradation=st.floats(0.0, 0.99),
       tariff=st.floats(1e-3, 10.0), panel_area=st.floats(1e-2, 10.0))
def test_day_arrays_equal_the_reading_form_and_consume_their_dict(drawn, annual_degradation,
                                                                  tariff, panel_area):
    """``day_arrays`` pops each variable as it reads it: its arrays equal those
    of the form that only reads, bit for bit, and it leaves its dict empty.
    Signed zero deposition reaches ``calibrate`` through a patched
    ``daily_soiling``, as no finite weather makes the law give -0.0."""
    weather, k, (zero, zeros) = drawn
    cfg = ScenarioConfig(tariff=tariff, cleaning_cost=0.0, panel_area=panel_area,
                         soiling=SoilingParams(humidity_k=k,
                                               annual_degradation=annual_degradation))
    law = phys.daily_soiling

    def daily_soiling(ws, pm):
        deposition = law(ws, pm)
        deposition[zero] = zeros
        return deposition

    with mock.patch.object(phys, "daily_soiling", daily_soiling):
        expect = reading_day_arrays(cfg, weather)
        consumed = dict(weather)
        days = day_arrays(cfg, consumed)
    assert consumed == {}
    assert list(weather) == list(DAY_VARIABLES)  # the caller's own dict is untouched
    assert (expect["d_cal"] < 0).any() and (expect["d_cal"] > 0).any()
    assert list(days) == list(expect)
    for key, value in expect.items():
        assert days[key].shape == value.shape, key
        assert days[key].tobytes() == value.tobytes(), key


@settings(max_examples=15, deadline=None)
@given(seeds=st.lists(_ENTROPY, min_size=1, max_size=4), years=st.integers(1, 3),
       reward_mode=st.sampled_from(["per_step", "terminal"]),
       block=st.sampled_from([1, 7, 100, environment._PRICE_DAYS]),
       clean_rate=st.floats(0.0, 0.3), action_seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_total_cost_a_block_at_a_time_equals_one_pass(seeds, years, reward_mode, block,
                                                      clean_rate, action_seed, data):
    """``cumulative_cost``, priced a block of days at a time from the total
    carried so far, equals one accumulation over every day played, bit for
    bit, whatever the block length and whether or not the days played
    fill whole blocks or years."""
    cfg = ScenarioConfig(**{**SMALL, "horizon_years": years}, reward_mode=reward_mode)
    actions = np.random.default_rng(action_seed).random((cfg.n_days, len(seeds))) < clean_rate
    reads = {1, 364, 365, 366, 400, cfg.n_days - 1, cfg.n_days}
    reads |= set(data.draw(st.lists(st.integers(1, cfg.n_days), max_size=3), label="reads"))
    env = CleaningEnv(cfg)
    env.reset(seeds)
    assert env.cumulative_cost.tobytes() == np.zeros(len(seeds)).tobytes()
    with mock.patch.object(environment, "_PRICE_DAYS", block):
        for day, action in enumerate(actions.astype(np.int64), 1):
            env.step(action)
            if day in reads:
                expect = one_pass_total_cost(env._episode, day)
                assert env.cumulative_cost.tobytes() == expect.tobytes(), day
        if reward_mode == "terminal":
            assert env.rewards()[-1].tobytes() == (-expect).tobytes()


def traced_peak(f):
    """``f()`` and the peak bytes traced while it ran, over those at its start.

    numpy reports each array's data to ``tracemalloc``, so the peak is
    exact bytes on any host."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        result = f()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def test_day_arrays_free_each_drawn_variable_once_read():
    """Drawing and day arrays of the paper's 20-year, 30-replication sweep peak
    below 7.5 (replications, n_days) arrays: 6.5, the drawing's own peak.
    Holding all four drawn arrays through the deposition and calibration
    temporaries, as ``oracles.reading_day_arrays`` does, peaks at 9.1."""
    cfg = preset("S3exp")
    reps = 30
    days, peak = traced_peak(lambda: day_arrays(cfg, precompute_weather(cfg, range(reps))))
    assert days["d_cal"].shape == (reps, cfg.n_days)
    assert peak < 7.5 * days["d_cal"].nbytes


def test_total_cost_holds_one_block_of_days_at_a_time():
    """Reading a 3-year episode's total peaks below 4 (replications, n_days)
    arrays: 2.4, where pricing all days at once, as
    ``oracles.one_pass_total_cost`` does, peaks at 6.1."""
    cfg = ScenarioConfig(**{**SMALL, "horizon_years": 3})
    env = CleaningEnv(cfg)
    env.reset(list(range(4)))
    for day in range(cfg.n_days):
        env.step(np.full(4, int(day % 20 == 0)))
    _, peak = traced_peak(lambda: env.cumulative_cost)
    assert peak < 4 * env._episode.soiling.nbytes


def test_a_second_reset_peaks_no_higher_than_the_first():
    """Total traced memory during a reset of 30 replications x 5 years: 13.9
    (replications, n_days) arrays the first time and, with the previous
    episode freed before drawing, the second time too; holding it through
    the draw peaked at 22.1.  The allowance of 1 % of an array covers the
    few (replications,) state arrays that stay until the reset replaces
    them."""
    cfg = ScenarioConfig(**{**SMALL, "horizon_years": 5})
    env = CleaningEnv(cfg)
    seeds = list(range(30))
    array = len(seeds) * cfg.n_days * 8
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        peaks = []
        for _ in range(2):
            tracemalloc.reset_peak()
            env.reset(seeds)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 0.01 * array


def test_a_reset_whose_draw_fails_leaves_no_episode_to_step(monkeypatch):
    env = CleaningEnv(ScenarioConfig(**SMALL))
    env.reset([0])
    env.step(np.zeros(1))

    def cannot_draw(*args):
        raise ValueError("cannot draw")

    monkeypatch.setattr(environment, "stack_weather", cannot_draw)
    with pytest.raises(ValueError, match="cannot draw"):
        env.reset([1])
    with pytest.raises(EpisodeDoneError):
        env.step(np.zeros(1))
