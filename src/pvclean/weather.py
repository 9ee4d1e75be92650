"""Month-indexed stochastic weather model for an arid (Abu Dhabi-like) site.

The default model is a 12-month x 5-variable grid of fitted distributions
(temperature degC, wind speed m/s, particulate matter g/m2, daily global
horizontal irradiance Wh/m2/day, relative humidity %).  Each simulated day
draws one value per variable from that day's month, independently of other
days, using one dedicated random stream per variable.

A 365-day year with standard month lengths (no leap years) is used
throughout, so a 20-year horizon is exactly 7300 days.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, sample, sample_many
from .rng import RandomStream

__all__ = [
    "VARIABLES", "CLAMPS", "KMH_PER_MS", "WeatherDay", "MonthlyWeatherModel",
    "default_model", "load_model", "save_model", "make_streams",
    "sample_day", "generate_weather", "stack_weather", "month_of_day", "MONTH_LENGTHS",
    "ModelFormatError",
]

VARIABLES = ("temperature", "wind_speed", "particulate_matter",
             "irradiance", "relative_humidity")

# Physical clamp ranges per variable (applied to every draw).  Wind speed
# is fitted and sampled in km/h (the weather source's native unit); the
# clamp equals 30 m/s.  Consumers needing m/s divide by KMH_TO_MS.
KMH_PER_MS = 3.6
CLAMPS = {
    "temperature": (0.0, 55.0),
    "wind_speed": (0.0, 108.0),
    "particulate_matter": (0.0, 5.0),
    "irradiance": (0.0, 9000.0),
    "relative_humidity": (1.0, 100.0),
}

MONTH_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

# Fitted monthly distributions: month -> (family, params) per variable.
_DEFAULT_GRID = {
    "temperature": {
        1: ("lognormal", (17.0, 1.16, 0.559)),
        2: ("lognormal", (16.0, 1.57, 0.546)),
        3: ("triangular", (18.0, 31.6, 22.2)),
        4: ("lognormal", (13.2, 2.74, 0.178)),
        5: ("lognormal", (-14.1, 3.84e-2, 3.86)),
        6: ("normal", (34.9, 1.64)),
        7: ("normal", (36.1, 2.11)),
        8: ("lognormal", (29.2, 1.92, 0.125)),
        9: ("normal", (34.2, 1.72)),
        10: ("normal", (30.8, 1.59)),
        11: ("triangular", (21.3, 29.8, 27.9)),
        12: ("normal", (22.8, 1.6)),
    },
    "wind_speed": {
        1: ("lognormal", (3.77, 1.82, 0.672)),
        2: ("lognormal", (4.05, 1.82, 0.657)),
        3: ("lognormal", (2.92, 2.24, 0.467)),
        4: ("lognormal", (2.44, 2.2, 0.351)),
        5: ("lognormal", (6.49, 1.47, 0.555)),
        6: ("lognormal", (7.21, 1.25, 0.708)),
        7: ("lognormal", (4.9, 1.87, 0.309)),
        8: ("lognormal", (-461.0, 6.16, 3.51e-3)),
        9: ("lognormal", (2.56, 2.12, 0.165)),
        10: ("lognormal", (6.25, 1.37, 0.374)),
        11: ("lognormal", (4.88, 1.58, 0.5)),
        12: ("lognormal", (4.89, 1.31, 0.695)),
    },
    "particulate_matter": {
        1: ("lognormal", (1.56e-2, -2.78, 1.08)),
        2: ("lognormal", (-1.05e-2, -2.0, 0.796)),
        3: ("lognormal", (-2.04e-2, -1.86, 0.684)),
        4: ("lognormal", (-5.17e-2, -1.56, 0.568)),
        5: ("lognormal", (-1.28e-3, -1.78, 0.648)),
        6: ("lognormal", (9.11e-3, -1.64, 0.629)),
        7: ("lognormal", (7.43e-2, -1.94, 0.811)),
        8: ("lognormal", (2.37e-2, -1.89, 0.946)),
        9: ("lognormal", (7.96e-3, -1.97, 0.735)),
        10: ("lognormal", (2.9e-2, -2.76, 0.718)),
        11: ("lognormal", (-3.75e-3, -2.39, 0.694)),
        12: ("lognormal", (1.11e-2, -3.03, 0.581)),
    },
    "irradiance": {
        1: ("weibull", (1.93e3, 4.79, 2.7e3)),
        2: ("beta", (1.61e3, 6.7e3, 4.96, 2.23)),
        3: ("johnsonsb", (-8.48e3, 1.61e4, -2.87, 1.13)),
        4: ("beta", (1.76e3, 8.7e3, 4.39, 1.95)),
        5: ("weibull", (5.25e3, 3.92, 2.39e3)),
        6: ("weibull", (6.5e3, 4.01, 1.36e3)),
        7: ("weibull", (4.56e3, 6.48, 2.85e3)),
        8: ("weibull", (4.89e3, 5.33, 2.22e3)),
        9: ("weibull", (5.4e3, 4.34, 1.38e3)),
        10: ("weibull", (3.38e3, 7.5, 2.52e3)),
        11: ("weibull", (1.66e3, 6.85, 3.2e3)),
        12: ("weibull", (2.38e3, 7.49, 2.02e3)),
    },
    "relative_humidity": {
        1: ("loglogistic", (0.0, 12.0, 61.7)),
        2: ("beta", (0.0, 98.8, 10.2, 6.35)),
        3: ("weibull", (0.0, 5.98, 60.3)),
        4: ("beta", (0.0, 77.1, 4.51, 3.15)),
        5: ("loglogistic", (0.0, 10.3, 45.2)),
        6: ("johnsonsb", (0.0, 89.0, -0.606, 1.89)),
        7: ("johnsonsb", (0.0, 82.8, -0.893, 1.98)),
        8: ("beta", (0.0, 73.0, 5.98, 1.74)),
        9: ("johnsonsb", (0.0, 80.4, -1.19, 1.48)),
        10: ("johnsonsb", (0.0, 80.7, -1.43, 1.67)),
        11: ("weibull", (0.0, 8.48, 61.7)),
        12: ("gamma", (0.0, 59.1, 1.06)),
    },
}


class ModelFormatError(ValueError):
    """Weather model file failed to parse or validate."""


@dataclass(frozen=True)
class WeatherDay:
    """One day's weather draw (all fields already clamped).

    ``wind_speed`` is in km/h as fitted; divide by :data:`KMH_PER_MS` for
    the m/s value the deposition law expects.
    """

    temperature: float
    wind_speed: float
    particulate_matter: float
    irradiance: float
    relative_humidity: float


class MonthlyWeatherModel:
    """Immutable 12-month x 5-variable grid of distribution specs."""

    def __init__(self, table: dict):
        for month in range(1, 13):
            for var in VARIABLES:
                if (month, var) not in table:
                    raise ModelFormatError(f"missing cell month={month} variable={var}")
                spec = table[(month, var)]
                if not isinstance(spec, DistributionSpec):
                    raise ModelFormatError(f"cell ({month}, {var}) is not a DistributionSpec")
        extra = set(table) - {(m, v) for m in range(1, 13) for v in VARIABLES}
        if extra:
            raise ModelFormatError(f"unexpected cells: {sorted(extra)}")
        self._table = dict(table)

    def spec(self, month: int, variable: str) -> DistributionSpec:
        return self._table[(month, variable)]

    def __eq__(self, other) -> bool:
        return isinstance(other, MonthlyWeatherModel) and self._table == other._table


def default_model() -> MonthlyWeatherModel:
    """The bundled fitted weather grid with standard physical clamps."""
    table = {}
    for var in VARIABLES:
        lo, hi = CLAMPS[var]
        for month, (family, params) in _DEFAULT_GRID[var].items():
            table[(month, var)] = DistributionSpec(family, params, lo, hi)
    return MonthlyWeatherModel(table)


def save_model(model: MonthlyWeatherModel, path) -> None:
    """Write a model as CSV: month, variable, family, params (;-joined), clamps."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["month", "variable", "family", "params", "clamp_lo", "clamp_hi"])
        for month in range(1, 13):
            for var in VARIABLES:
                s = model.spec(month, var)
                writer.writerow([month, var, s.family,
                                 ";".join(repr(p) for p in s.params),
                                 repr(s.clamp_lo), repr(s.clamp_hi)])


def load_model(path) -> MonthlyWeatherModel:
    """Load a model file written by :func:`save_model` (60 validated cells)."""
    table = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"month", "variable", "family", "params", "clamp_lo", "clamp_hi"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ModelFormatError(f"{path}: header must contain {sorted(required)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                month = int(row["month"])
                var = row["variable"]
                params = tuple(float(p) for p in row["params"].split(";"))
                spec = DistributionSpec(row["family"], params,
                                        float(row["clamp_lo"]), float(row["clamp_hi"]))
            except (ValueError, KeyError) as exc:
                raise ModelFormatError(f"{path}: line {lineno}: {exc}") from exc
            if not 1 <= month <= 12:
                raise ModelFormatError(f"{path}: line {lineno}: month {month} out of range")
            if var not in VARIABLES:
                raise ModelFormatError(f"{path}: line {lineno}: unknown variable {var!r}")
            if (month, var) in table:
                raise ModelFormatError(f"{path}: line {lineno}: duplicate cell ({month}, {var})")
            table[(month, var)] = spec
    return MonthlyWeatherModel(table)


def make_streams(seed, base_stream_id: int = 0) -> dict:
    """One independent stream per weather variable (stream ids 0..4)."""
    return {var: RandomStream(seed, base_stream_id + i)
            for i, var in enumerate(VARIABLES)}


def sample_day(model: MonthlyWeatherModel, month: int, streams: dict) -> WeatherDay:
    """Draw one clamped value per variable from ``month``'s specs."""
    if not 1 <= month <= 12:
        raise ValueError(f"month must be in 1..12, got {month}")
    values = {var: sample(model.spec(month, var), streams[var]) for var in VARIABLES}
    return WeatherDay(**values)


def month_of_day(day_index: int, start_month: int = 1) -> int:
    """Calendar month (1..12) of a 0-based simulation day."""
    day = day_index % 365
    month = start_month - 1
    while True:
        if day < MONTH_LENGTHS[month % 12]:
            return month % 12 + 1
        day -= MONTH_LENGTHS[month % 12]
        month += 1


def generate_weather(model: MonthlyWeatherModel, n_days: int, streams: dict,
                     start_month: int = 1) -> dict:
    """Draw ``n_days`` of weather as one array per variable.

    Draw-for-draw identical to calling :func:`sample_day` for each day in
    order (each variable's stream advances day by day).
    """
    months = np.array([month_of_day(d, start_month) for d in range(n_days)])
    out = {var: np.empty(n_days) for var in VARIABLES}
    # Contiguous same-month runs keep the per-variable draw order intact.
    start = 0
    while start < n_days:
        end = start
        while end < n_days and months[end] == months[start]:
            end += 1
        m = int(months[start])
        for var in VARIABLES:
            out[var][start:end] = sample_many(model.spec(m, var), streams[var], end - start)
        start = end
    return out


def stack_weather(model: MonthlyWeatherModel, n_days: int, entropies: list,
                  start_month: int = 1) -> dict:
    """Weather of several replications, one (replications, n_days) array per variable.

    Row r is :func:`generate_weather` on the streams of ``entropies[r]``,
    exactly as if that replication were drawn alone.
    """
    if not entropies:
        raise ValueError("need at least one replication")
    out = {var: np.empty((len(entropies), n_days)) for var in VARIABLES}
    for r, entropy in enumerate(entropies):
        for var, vals in generate_weather(model, n_days, make_streams(entropy),
                                          start_month).items():
            out[var][r] = vals
    return out
