"""Cleaning environment: config handling, step accounting, reward modes.

The single-step oracle re-derives one day's transition from the weather
arrays and the soiling primitives, independently of CleaningEnv.step.
A default reset starts one replication, so observations are (1, obs_dim)
and actions, rewards and state are (1,) arrays; tests read replication 0.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pvclean import soiling as phys
from pvclean.environment import (CALIBRATED_PANEL_AREA, FEATURE_SCALES,
                                 PRESETS, CleaningEnv, ConfigError,
                                 EpisodeDoneError, ScenarioConfig,
                                 load_config, observation_scales, preset,
                                 save_config)
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


@st.composite
def scenario_configs(draw):
    """Any valid config, with every field drawn, the soiling physics too."""
    soiling = SoilingParams(
        humidity_k=draw(st.floats(allow_nan=False, allow_infinity=False)),
        beta_residue=draw(positive),
        annual_degradation=draw(st.floats(0.0, 1.0, exclude_max=True)),
        eff_max=draw(st.floats(0.0, 1.0, exclude_min=True)),
        cubic=tuple(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=3, max_size=3))))
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
