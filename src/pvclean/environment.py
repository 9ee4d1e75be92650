"""Day-step cleaning MDP over a PV panel lifetime.

Each step is one day: an optional morning cleaning, that day's weather,
soiling accumulation, efficiency, and the resulting energy-loss and
cleaning costs.  The reward is the negated cost, either per step (default)
or as a single terminal payout.

The observation shown to the agent before step ``t`` contains the weather
of day ``t`` (the day the action applies to), the current deposition, and
the days elapsed since the last cleaning.  Relative humidity drives the
dynamics but is not exposed unless ``include_humidity`` is set.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import soiling as phys
from .soiling import SoilingParams, _finite_number
from .weather import (KMH_PER_MS, VARIABLES, MonthlyWeatherModel, default_model,
                      load_model, stack_weather)

__all__ = [
    "ScenarioConfig", "StepResult", "CleaningEnv", "ConfigError", "EpisodeDoneError",
    "PRESETS", "preset", "load_config", "save_config", "CALIBRATED_PANEL_AREA",
    "FEATURE_SCALES", "observation_scales", "cleaning_interval", "day_arrays",
]

ACTION_NO_CLEAN = 0
ACTION_CLEAN = 1

# Panel area (m2) calibrated once so the baseline scenario's (S3exp)
# Sim-Opt optimum over the full 20-year horizon equals 24.8 USD, then
# frozen for all ten presets (see demos/calibrate_area.py to reproduce).
CALIBRATED_PANEL_AREA = 0.403214

# The observation features in order, with their fixed scales for the
# default normalization, chosen from the physical clamp ranges.  The last
# one, relative humidity, is shown only with ``include_humidity``.
FEATURE_SCALES = {
    "deposition": 5.0,
    "days_since_clean": 100.0,
    "temperature": 55.0,
    "wind_speed": 30.0,
    "particulate_matter": 5.0,
    "irradiance": 9000.0,
    "relative_humidity": 100.0,
}


class ConfigError(ValueError):
    """Invalid scenario configuration."""


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def cleaning_interval(z) -> int:
    """``z`` as an int, or ValueError unless it is an integer >= 1 (not a bool)."""
    if not (_is_integer(z) and z >= 1):
        raise ValueError(f"cleaning interval must be an integer >= 1, got {z!r}")
    return int(z)


class EpisodeDoneError(RuntimeError):
    """step() called after the episode finished."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Tariff, cost, panel and horizon parameters for one scenario."""

    tariff: float                      # USD/kWh
    cleaning_cost: float               # USD/panel/cycle
    panel_area: float = 1.6            # m2
    horizon_years: int = 20            # 1..100
    reward_mode: str = "per_step"      # per_step | terminal
    normalization_mode: str = "feature_scaled"  # feature_scaled | div10
    start_month: int = 1
    seed: int = 0
    include_humidity: bool = False
    soiling: SoilingParams = field(default_factory=SoilingParams)
    weather_model_path: str | None = None
    name: str = ""

    def __post_init__(self):
        for name in ("tariff", "cleaning_cost", "panel_area"):
            if not _finite_number(getattr(self, name)):
                raise ConfigError(f"{name} must be finite and numeric: {getattr(self, name)!r}")
        if self.tariff <= 0:
            raise ConfigError(f"tariff must be > 0: {self.tariff}")
        if self.cleaning_cost < 0:
            raise ConfigError(f"cleaning_cost must be >= 0: {self.cleaning_cost}")
        if self.panel_area <= 0:
            raise ConfigError(f"panel_area must be > 0: {self.panel_area}")
        for name in ("horizon_years", "start_month", "seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ConfigError(f"{name} must be an integer: {value!r}")
        # Weather is drawn for the whole horizon at once, so the bound keeps
        # a mistyped horizon from asking for millions of days per variable.
        if not 1 <= self.horizon_years <= 100:
            raise ConfigError(f"horizon_years must be in 1..100: {self.horizon_years}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0: {self.seed}")
        if self.reward_mode not in ("per_step", "terminal"):
            raise ConfigError(f"unknown reward_mode {self.reward_mode!r}")
        if self.normalization_mode not in ("feature_scaled", "div10"):
            raise ConfigError(f"unknown normalization_mode {self.normalization_mode!r}")
        if not 1 <= self.start_month <= 12:
            raise ConfigError(f"start_month must be in 1..12: {self.start_month}")
        if not isinstance(self.include_humidity, (bool, np.bool_)):
            raise ConfigError(f"include_humidity must be true or false: {self.include_humidity!r}")
        if not isinstance(self.name, str):
            raise ConfigError(f"name must be a string: {self.name!r}")
        if not isinstance(self.soiling, SoilingParams):
            raise ConfigError(f"soiling must be a SoilingParams: {self.soiling!r}")
        if not (self.weather_model_path is None or isinstance(self.weather_model_path, str)):
            raise ConfigError(
                f"weather_model_path must be a string or null: {self.weather_model_path!r}")

    @property
    def n_days(self) -> int:
        return self.horizon_years * 365

    @property
    def obs_dim(self) -> int:
        return 7 if self.include_humidity else 6

    def weather_model(self) -> MonthlyWeatherModel:
        if self.weather_model_path:
            return load_model(self.weather_model_path)
        return default_model()


# The ten test cases: two tariffs x five unit cleaning costs, with the
# calibrated panel area frozen across all of them.
_TARIFFS = {"exp": 0.073, "uae": 0.018}
_CLEANING_COSTS = {1: 0.0183, 2: 0.0383, 3: 0.0583, 4: 0.0783, 5: 0.0983}

PRESETS = {
    f"S{i}{group}": ScenarioConfig(
        tariff=_TARIFFS[group],
        cleaning_cost=_CLEANING_COSTS[i],
        panel_area=CALIBRATED_PANEL_AREA,
        name=f"S{i}{group}",
    )
    for group in ("exp", "uae") for i in range(1, 6)
}


def preset(name: str, /, **overrides) -> ScenarioConfig:
    """A named preset (S1exp..S5uae), optionally with overridden fields."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    cfg = PRESETS[name]
    return replace(cfg, **overrides) if overrides else cfg


def save_config(config: ScenarioConfig, path) -> None:
    """Write a scenario config as JSON."""
    data = asdict(config)
    data["soiling"] = data.pop("soiling")  # last, as config files have always had it
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_config(path) -> ScenarioConfig:
    """Load a scenario config written by :func:`save_config`."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    try:
        sp = data.pop("soiling", None)
        if not (sp is None or isinstance(sp, dict)):
            raise ConfigError(f"soiling must be a JSON object: {sp!r}")
        if sp is not None:
            sp["cubic"] = tuple(sp.get("cubic", SoilingParams().cubic))
            data["soiling"] = SoilingParams(**sp)
        return ScenarioConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass
class StepResult:
    observation: np.ndarray
    reward: np.ndarray
    done: bool
    info: dict


def observation_scales(config: ScenarioConfig) -> np.ndarray:
    """The divisor of each observation feature, in ``FEATURE_SCALES`` order."""
    scales = np.array(list(FEATURE_SCALES.values())[:config.obs_dim])
    if config.normalization_mode == "div10":
        return np.full_like(scales, 10.0)
    return scales


def day_arrays(config: ScenarioConfig, weather: dict) -> dict:
    """Schedule-independent per-day quantities, shaped (replications, n_days).

    Daily calibrated deposition, the day's energy price factor
    tariff * area * GHI/1000, and the age factor (shaped (n_days,)) do not
    depend on the cleaning schedule, so they are computed once per weather
    set.
    """
    sp = config.soiling
    n_days = weather["wind_speed"].shape[1]
    ws = weather["wind_speed"] / KMH_PER_MS  # deposition law wants m/s
    d_cal = phys.calibrate(phys.daily_soiling(ws, weather["particulate_matter"]),
                           weather["relative_humidity"], sp.humidity_k)
    price = config.tariff * config.panel_area * (weather["irradiance"] / 1000.0)
    tau = phys.degradation_factor(np.arange(n_days) // 365, sp.annual_degradation)
    return {"d_cal": d_cal, "price": price, "tau": tau,
            # Energy loss is price * (tau*eff_max - eff); the first term
            # does not depend on the schedule.
            "clean_panel_loss": (price * (tau * sp.eff_max)).sum(axis=1)}


class CleaningEnv:
    """Single-owner, seeded cleaning environment over one or many replications.

    ``reset`` draws the whole weather trajectory (the draws are day-ordered
    per variable, so this is draw-for-draw identical to sampling inside
    ``step``) and precomputes the schedule-independent day arrays, so a
    step only cleans, accumulates soiling and prices the day.

    ``reset`` takes a list of seeds and runs one replication per seed in
    lockstep: observations are (replications, obs_dim), and actions,
    rewards, info values and the state attributes (``soiling``,
    ``days_since_clean``, ``cumulative_cost``, ``cumulative_cleanings``) are
    (replications,) arrays.  Each replication's numbers equal those of a
    one-seed episode bit for bit.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.model = config.weather_model()
        self.day = 0
        self.done = True
        self._scales = observation_scales(config)

    # -- episode control ---------------------------------------------------

    def reset(self, seeds=None) -> np.ndarray:
        """Start one replication per entry of the list ``seeds``.

        ``seeds`` defaults to ``[config.seed]``.  Each entry is an int or an
        entropy tuple (e.g. a replication sub-seed from
        :func:`pvclean.rng.replication_entropy`).
        """
        cfg = self.config
        seeds = [cfg.seed] if seeds is None else seeds
        if not isinstance(seeds, list):
            raise ValueError(f"seeds must be a list with one seed per replication, "
                             f"got {seeds!r}")
        weather = stack_weather(self.model, cfg.n_days, seeds, cfg.start_month)
        days = day_arrays(cfg, weather)
        self._shape = (len(seeds),)
        # Day-major views: step t reads row t.
        self._d_cal = days["d_cal"].T
        self._price = days["price"].T
        self._tau = days["tau"]
        # (n_days, replications, variable) in VARIABLES order, wind in m/s.
        self._weather = np.stack([weather[var].T for var in VARIABLES], axis=-1)
        self._weather[..., VARIABLES.index("wind_speed")] /= KMH_PER_MS
        self.day = 0
        self.done = False
        self.soiling = np.zeros(self._shape)
        self.days_since_clean = np.zeros(self._shape, dtype=np.int64)
        self.cumulative_cost = np.zeros(self._shape)
        self.cumulative_cleanings = np.zeros(self._shape, dtype=np.int64)
        return self._observation()

    def step(self, action) -> StepResult:
        """Advance one day.  ``action`` holds one action per replication:
        0 = no clean, 1 = clean (this morning).
        """
        if self.done:
            raise EpisodeDoneError("episode is finished; call reset()")
        a = np.asarray(action)
        cleaned = a == ACTION_CLEAN
        # Every entry must be ACTION_NO_CLEAN (0, == False) or ACTION_CLEAN (1, == True).
        if a.shape != self._shape or np.count_nonzero(a != cleaned):
            raise ValueError(f"action must be 0 or 1 per replication, got {action!r}")
        cfg = self.config
        sp = cfg.soiling
        t = self.day
        cleaning_cost_incurred = np.where(cleaned, cfg.cleaning_cost, 0.0)
        # The fresh day's deposition lands even on a cleaning day.
        self.soiling = phys.accumulate(np.where(cleaned, 0.0, self.soiling),
                                       self._d_cal[t], False, sp.beta_residue)
        tau = self._tau[t]
        eff = phys.efficiency(self.soiling, tau, sp)
        energy_loss = self._price[t] * (tau * sp.eff_max - eff)

        day_cost = energy_loss + cleaning_cost_incurred
        self.cumulative_cost = self.cumulative_cost + day_cost
        self.cumulative_cleanings = self.cumulative_cleanings + cleaned
        # Counts mornings since the last cleaning morning, so a fixed rule
        # "clean when the counter reaches z" fires every z-th day exactly.
        self.days_since_clean = self.days_since_clean * ~cleaned + 1
        self.day += 1
        self.done = self.day >= cfg.n_days

        if cfg.reward_mode == "per_step":
            reward = -day_cost
        else:
            reward = -self.cumulative_cost if self.done else np.zeros(self._shape)
        info = {
            "energy_loss_cost": energy_loss,
            "cleaning_cost_incurred": cleaning_cost_incurred,
            "efficiency": eff,
            "soiling": self.soiling,
            **dict(zip(VARIABLES, self._weather[t].T)),
        }
        return StepResult(self._observation(), reward, self.done, {"day": t, **info})

    # -- observation -------------------------------------------------------

    def _observation(self) -> np.ndarray:
        # After the last step the final day's weather is shown again.
        t = min(self.day, self.config.n_days - 1)
        obs = np.empty(self._shape + self._scales.shape)
        obs[..., 0] = self.soiling
        obs[..., 1] = self.days_since_clean
        obs[..., 2:] = self._weather[t][..., :len(self._scales) - 2]
        return obs / self._scales
