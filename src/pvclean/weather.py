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
from importlib.resources import as_file, files

import numpy as np

from .distributions import INVERSE_FAMILIES, DistributionSpec, sample_many, transform
from .rng import RandomStream

__all__ = [
    "VARIABLES", "CLAMPS", "KMH_PER_MS", "MonthlyWeatherModel",
    "default_model", "load_model", "save_model", "make_streams",
    "generate_weather", "stack_weather", "month_of_day", "MONTH_LENGTHS",
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
# The month (1..12) of each day of a year that starts in January, and the
# day of that year on which each month starts.
_YEAR_MONTHS = np.repeat(np.arange(1, 13), MONTH_LENGTHS)
_MONTH_STARTS = np.cumsum((0,) + MONTH_LENGTHS[:-1])


class ModelFormatError(ValueError):
    """Weather model file failed to parse or validate."""


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


def make_streams(seed) -> dict:
    """One independent stream per weather variable (stream ids 0..4)."""
    return {var: RandomStream(seed, i) for i, var in enumerate(VARIABLES)}


def month_of_day(day_index, start_month: int = 1):
    """Calendar month (1..12) of a 0-based simulation day, or of an array of them."""
    return _YEAR_MONTHS[(day_index + _MONTH_STARTS[(start_month - 1) % 12]) % 365]


def generate_weather(model: MonthlyWeatherModel, n_days: int, streams: dict,
                     start_month: int = 1) -> dict:
    """Draw ``n_days`` of weather as one array per variable.

    Draw-for-draw identical to drawing each day in order, one value at a
    time, from that day's month: the same values, and every stream left
    with the same ``counter`` and the same next uniform.  Each variable
    draws its whole trajectory at once: each maximal stretch of
    inverse-transform days takes one ``uniforms`` call, and each stretch
    of a rejection-family month (gamma, beta) one
    :func:`~pvclean.distributions.sample_many` call.

    Exactness rule: numpy's ``exp``, ``log`` and ``**`` may differ from
    ``math``'s by an ulp, so numpy may only classify (which rejection
    attempts are accepted).  Every returned value comes from the expression
    the per-day path uses: the numpy inverse transforms, and the scalar
    ``math`` code of the rejection samplers.
    """
    months = month_of_day(np.arange(n_days), start_month)
    return {var: _trajectory([model.spec(m, var) for m in range(1, 13)],
                             months, streams[var])
            for var in VARIABLES}


def _trajectory(specs: list, months: np.ndarray, stream: RandomStream) -> np.ndarray:
    """One variable's clamped draws for the days of ``months`` (1..12 each)."""
    inverse = np.array([spec.family in INVERSE_FAMILIES for spec in specs])
    # Stretch key: 0 on inverse-transform days, the month on the others, so
    # consecutive inverse-transform months make one stretch.
    key = np.where(inverse[months - 1], 0, months)
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    x = np.empty(len(months))
    u = np.empty(len(months))  # the uniforms of the inverse-transform days
    for start, stop in zip(starts, [*starts[1:], len(months)]):
        if key[start] == 0:
            u[start:stop] = stream.uniforms(stop - start)
        else:
            x[start:stop] = sample_many(specs[key[start] - 1], stream, stop - start)
    for m in np.flatnonzero(inverse) + 1:
        days = months == m
        if days.any():
            spec = specs[m - 1]
            x[days] = np.clip(transform(spec, u[days]), spec.clamp_lo, spec.clamp_hi)
    return x


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
