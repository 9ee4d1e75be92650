"""Month-indexed stochastic weather model for an arid (Abu Dhabi-like) site.

The default model (the packaged ``data/weather_model.csv``) is a 12-month
x 5-variable grid of fitted distributions (temperature degC, wind speed
m/s, particulate matter g/m2, daily global horizontal irradiance
Wh/m2/day, relative humidity %).  Each simulated day
draws one value per variable from that day's month, independently of other
days, using one dedicated random stream per variable.

A 365-day year with standard month lengths (no leap years) is used
throughout, so a 20-year horizon is exactly 7300 days.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib.resources import as_file, files

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
    """The bundled fitted weather grid (``data/weather_model.csv``)."""
    with as_file(files(__package__) / "data" / "weather_model.csv") as path:
        return load_model(path)


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
