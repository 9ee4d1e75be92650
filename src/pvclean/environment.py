"""Day-step cleaning MDP over a PV panel lifetime.

Each step is one day: an optional morning cleaning, that day's weather
and soiling accumulation.  A day's efficiency and its energy-loss and
cleaning costs are priced when something reads them: a step's ``reward``
or ``info``, the episode's ``cumulative_cost`` or its ``rewards()``.  No
action depends on a cost, so an episode that only needs its totals is
priced once, a year of days at a time, instead of once a day.  The reward
is the negated cost, either per step (default) or as a single terminal
payout.

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
    "ScenarioConfig", "StepResult", "Evaluation", "CleaningEnv", "ConfigError", "NumericalError",
    "EpisodeDoneError", "PRESETS", "preset", "load_config", "save_config",
    "CALIBRATED_PANEL_AREA",
    "FEATURE_SCALES", "observation_scales", "cleaning_interval", "day_arrays",
    "DAY_VARIABLES",
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


class NumericalError(RuntimeError):
    """A non-finite result: an episode reward, update loss or cost."""


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


@dataclass(frozen=True, eq=False)
class Evaluation:
    """One policy's totals over replicated episodes.

    Entry r of each array is replication r, whose weather comes from the
    sub-seed ``replication_entropy(config.seed, r)`` on both routes that
    return it (:func:`pvclean.simopt.evaluate_interval` and
    :func:`pvclean.agents.evaluate`), so two evaluations of one config pair
    by index.
    """

    costs: np.ndarray           # total cost of each replication, USD
    cleanings: np.ndarray       # cleanings in each replication

    @property
    def mean_total_cost(self) -> float:
        return float(self.costs.mean())

    @property
    def mean_cleanings(self) -> float:
        return float(self.cleanings.mean())


@dataclass
class StepResult:
    """One day's step: the next observation and whether the episode is over.

    ``reward`` and ``info`` price the day when read, from the record of the
    episode it was played in, so they read the same after later steps and
    after a ``reset``.
    """

    observation: np.ndarray
    done: bool
    _episode: _Episode = field(repr=False)
    _day: int

    @property
    def reward(self) -> np.ndarray:
        t = self._day
        return self._episode.rewards(t, t + 1)[0]

    @property
    def info(self) -> dict:
        t = self._day
        eff, energy_loss, cleaning_cost, _ = (v[0] for v in self._episode.price(t, t + 1))
        # In the column order of the CLI's trace, which takes its names from here.
        return {
            "day": t,
            **dict(zip(VARIABLES, self._episode.weather[t].T)),
            "soiling": self._episode.soiling[t],
            "efficiency": eff,
            "energy_loss_cost": energy_loss,
            "cleaning_cost_incurred": cleaning_cost,
        }


def observation_scales(config: ScenarioConfig) -> np.ndarray:
    """The divisor of each observation feature, in ``FEATURE_SCALES`` order."""
    scales = np.array(list(FEATURE_SCALES.values())[:config.obs_dim])
    if config.normalization_mode == "div10":
        return np.full_like(scales, 10.0)
    return scales


# The weather variables that day_arrays reads: every cost depends on these
# alone, so Sim-Opt draws only them.  Temperature is read only by
# CleaningEnv's observation and a step's info.
DAY_VARIABLES = ("wind_speed", "particulate_matter", "irradiance", "relative_humidity")


def day_arrays(config: ScenarioConfig, weather: dict) -> dict:
    """Schedule-independent per-day quantities, shaped (replications, n_days).

    Daily calibrated deposition, the day's energy price factor
    tariff * area * GHI/1000, and the age factor (shaped (n_days,)) do not
    depend on the cleaning schedule, so they are computed once per weather
    set.  ``weather`` needs only the ``DAY_VARIABLES``, and is consumed:
    each is popped as it is read, so that a drawn array is freed once the
    day array that reads it exists.  A caller that reads the weather again
    passes a copy, ``dict(weather)``.
    """
    sp = config.soiling
    n_days = weather["wind_speed"].shape[1]
    d_cal = phys.calibrate(
        phys.daily_soiling(weather.pop("wind_speed") / KMH_PER_MS,  # the law wants m/s
                           weather.pop("particulate_matter")),
        weather.pop("relative_humidity"), sp.humidity_k)
    price = config.tariff * config.panel_area * (weather.pop("irradiance") / 1000.0)
    tau = phys.degradation_factor(np.arange(n_days) // 365, sp.annual_degradation)
    return {"d_cal": d_cal, "price": price, "tau": tau,
            # Energy loss is price * (tau*eff_max - eff); the first term
            # does not depend on the schedule.
            "clean_panel_loss": (price * (tau * sp.eff_max)).sum(axis=1)}


# Days that _Episode.total_cost prices at a time: a year, so that reading a
# long episode's total holds a year of pricing arrays, not the episode's.
_PRICE_DAYS = 365


class _Episode:
    """One episode's days, day-major: row t of each array is day t.

    Holds what prices a day: the energy price factor, age factor and weather
    that ``reset`` drew, and, written by each step, the soiling after the
    day and whether it began with a clean.  ``reset`` makes a new one, so a
    :class:`StepResult` that keeps it prices its own day.
    """

    def __init__(self, config: ScenarioConfig, days: dict, weather: np.ndarray):
        self.config = config
        self.d_cal = days["d_cal"].T
        self.price_factor = days["price"].T
        self.tau = days["tau"][:, None]
        # (n_days, replications, variable) in VARIABLES order, wind in m/s.
        self.weather = weather
        self.soiling = np.zeros(self.d_cal.shape)
        self.cleaned = np.zeros(self.d_cal.shape, dtype=bool)

    def price(self, t0: int, t1: int) -> tuple:
        """Efficiency, energy-loss cost, cleaning cost and day cost of days
        [t0, t1), each shaped (t1 - t0, replications)."""
        cfg = self.config
        sp = cfg.soiling
        cleaning_cost = np.where(self.cleaned[t0:t1], cfg.cleaning_cost, 0.0)
        tau = self.tau[t0:t1]
        eff = phys.efficiency(self.soiling[t0:t1], tau, sp)
        energy_loss = self.price_factor[t0:t1] * (tau * sp.eff_max - eff)
        return eff, energy_loss, cleaning_cost, energy_loss + cleaning_cost

    def total_cost(self, t1: int) -> np.ndarray:
        """The day costs of days [0, t1) added day by day to 0.0, per replication.

        ``np.add.accumulate`` adds in day order, as a running total does;
        ``np.sum`` along the days of one replication adds pairwise and
        rounds differently.  Days are priced ``_PRICE_DAYS`` at a time, each
        block's accumulation starting from the total carried so far, so the
        additions are those of one pass over all days while the pricing's
        arrays stay a block long.
        """
        total = np.zeros(self.soiling.shape[1:])
        for t0 in range(0, t1, _PRICE_DAYS):
            t = min(t0 + _PRICE_DAYS, t1)
            costs = np.empty((t - t0 + 1, *total.shape))
            costs[0] = total
            costs[1:] = self.price(t0, t)[3]
            total = np.add.accumulate(costs, axis=0)[-1]
        return total

    def rewards(self, t0: int, t1: int) -> np.ndarray:
        """The rewards of days [t0, t1), shaped (t1 - t0, replications)."""
        if self.config.reward_mode == "per_step":
            return -self.price(t0, t1)[3]
        rewards = np.zeros((t1 - t0, *self.soiling.shape[1:]))
        if t1 == len(self.soiling):
            rewards[-1] = -self.total_cost(t1)
        return rewards


class CleaningEnv:
    """Single-owner, seeded cleaning environment over one or many replications.

    ``reset`` draws the whole weather trajectory (the draws are day-ordered
    per variable, so this is draw-for-draw identical to sampling inside
    ``step``) and precomputes the schedule-independent day arrays.  A step
    only cleans and accumulates soiling, the state the next observation
    shows, and records the day's soiling and cleaning.  Days are priced
    when read: each :class:`StepResult` prices its own day, and
    ``cumulative_cost`` and :meth:`rewards` price all days played at once.

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
        # Copied out first: day_arrays consumes the weather dict.
        stacked = np.stack([weather[var].T for var in VARIABLES], axis=-1)
        stacked[..., VARIABLES.index("wind_speed")] /= KMH_PER_MS
        days = day_arrays(cfg, weather)
        self._episode = _Episode(cfg, days, stacked)
        self._shape = (len(seeds),)
        self.day = 0
        self.done = False
        self.soiling = np.zeros(self._shape)
        self.days_since_clean = np.zeros(self._shape, dtype=np.int64)
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
        episode = self._episode
        t = self.day
        # The fresh day's deposition lands even on a cleaning day.
        self.soiling = phys.accumulate(np.where(cleaned, 0.0, self.soiling),
                                       episode.d_cal[t], False, self.config.soiling.beta_residue)
        episode.soiling[t] = self.soiling
        episode.cleaned[t] = cleaned
        # Counts mornings since the last cleaning morning, so a fixed rule
        # "clean when the counter reaches z" fires every z-th day exactly.
        self.days_since_clean = self.days_since_clean * ~cleaned + 1
        self.day += 1
        self.done = self.day >= self.config.n_days
        return StepResult(self._observation(), self.done, episode, t)

    @property
    def cumulative_cost(self) -> np.ndarray:
        """Each replication's total cost over the days played, priced on read."""
        return self._episode.total_cost(self.day)

    @property
    def cumulative_cleanings(self) -> np.ndarray:
        """Each replication's cleanings over the days played."""
        return np.count_nonzero(self._episode.cleaned[:self.day], axis=0)

    def rewards(self) -> np.ndarray:
        """The reward of every day played, shaped (days, replications), priced
        on read: what each step's ``reward`` gives."""
        return self._episode.rewards(0, self.day)

    # -- observation -------------------------------------------------------

    def _observation(self) -> np.ndarray:
        # After the last step the final day's weather is shown again.
        t = min(self.day, self.config.n_days - 1)
        obs = np.empty(self._shape + self._scales.shape)
        obs[..., 0] = self.soiling
        obs[..., 1] = self.days_since_clean
        obs[..., 2:] = self._episode.weather[t][..., :len(self._scales) - 2]
        obs /= self._scales
        return obs
