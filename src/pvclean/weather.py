"""Month-indexed stochastic weather model for an arid (Abu Dhabi-like) site.

The default model (the packaged ``data/weather_model.csv``) is a 12-month
x 5-variable grid of fitted distributions (temperature degC, wind speed
m/s, particulate matter g/m2, daily global horizontal irradiance
Wh/m2/day, relative humidity %).  Each simulated day
draws one value per variable from that day's month, independently of other
days, using one dedicated random stream per variable.  Replications each
have their own streams and are drawn together, month by month
(:func:`generate_weather`); each row equals the replication drawn alone.

A 365-day year with standard month lengths (no leap years) is used
throughout, so a 20-year horizon is exactly 7300 days.
"""

from __future__ import annotations

import csv
from importlib.resources import as_file, files

import numpy as np

from .distributions import (INVERSE_FAMILIES, NORMAL_FAMILIES, DistributionSpec, from_normals,
                            ndtri, sample_many, transform)
from .rng import RandomStream

__all__ = [
    "VARIABLES", "KMH_PER_MS", "MonthlyWeatherModel",
    "default_model", "load_model", "save_model", "make_streams",
    "generate_weather", "stack_weather", "month_of_day", "MONTH_LENGTHS",
    "ModelFormatError",
]

VARIABLES = ("temperature", "wind_speed", "particulate_matter",
             "irradiance", "relative_humidity")

# Wind speed is fitted and sampled in km/h (the weather source's native
# unit).  Consumers needing m/s divide by KMH_PER_MS.
KMH_PER_MS = 3.6
# The columns of a model file (save_model, load_model).
_COLUMNS = ("month", "variable", "family", "params", "clamp_lo", "clamp_hi")

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
        writer.writerow(_COLUMNS)
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
        try:
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{path}: {exc}") from exc
        if reader.fieldnames is None or not set(_COLUMNS).issubset(reader.fieldnames):
            raise ModelFormatError(f"{path}: header must contain {sorted(_COLUMNS)}")
        for lineno, row in enumerate(rows, start=2):
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


def generate_weather(model: MonthlyWeatherModel, n_days: int, streams: list,
                     start_month: int = 1) -> dict:
    """Draw ``n_days`` of weather for each :func:`make_streams` dict in ``streams``.

    Returns one (len(streams), n_days) array per variable.  Row r is
    draw-for-draw identical to drawing each day in order, one value at a
    time, from that day's month with ``streams[r]``: the same values, and
    every stream left with the same ``counter`` and the same next uniform.
    The replications are drawn month-major: each maximal stretch of
    inverse-transform days takes one ``uniforms`` call per stream, one
    :func:`~pvclean.distributions.ndtri` call maps the uniforms of every day
    whose family is a function of a normal, and each month's transform runs
    once over all rows; each stretch of a rejection-family month takes one
    :func:`~pvclean.distributions.sample_many` call over all streams.

    Exactness rule: numpy's vectorized ``exp``, ``log`` and ``**`` may
    differ from ``math``'s (the C library's) by an ulp.  Every value is the
    one the per-day path computes: the inverse transforms are numpy's, and
    wherever the rejection samplers' per-attempt code calls the C library,
    numpy computes the value through the C library too
    (``distributions._c``), both to decide which attempts are accepted and
    for the accepted draws.
    """
    if not (isinstance(n_days, (int, np.integer)) and not isinstance(n_days, bool)
            and n_days >= 0):
        raise ValueError(f"n_days must be an integer >= 0, got {n_days!r}")
    if not streams:
        raise ValueError("need at least one replication")
    months = month_of_day(np.arange(n_days), start_month)
    return {var: _trajectory([model.spec(m, var) for m in range(1, 13)], months,
                             [s[var] for s in streams])
            for var in VARIABLES}


def _trajectory(specs: list, months: np.ndarray, streams: list) -> np.ndarray:
    """One variable's clamped draws for the days of ``months`` (1..12 each), one row per stream."""
    inverse = np.array([spec.family in INVERSE_FAMILIES for spec in specs])
    # Stretch key: 0 on inverse-transform days, the month on the others, so
    # consecutive inverse-transform months make one stretch.
    key = np.where(inverse[months - 1], 0, months)
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    x = np.empty((len(streams), len(months)))
    u = np.empty_like(x)  # the uniforms of the inverse-transform days, then their normals
    for start, stop in zip(starts, [*starts[1:], len(months)]):
        if key[start] == 0:
            for row, stream in zip(u, streams):
                row[start:stop] = stream.uniforms(stop - start)
        else:
            x[:, start:stop] = sample_many(specs[key[start] - 1], streams, stop - start)
    # The uniforms of the days whose family is a function of a normal become
    # normals, in one ndtri call.
    normal = np.flatnonzero(np.array([spec.family in NORMAL_FAMILIES for spec in specs])[months - 1])
    u[:, normal] = ndtri(u[:, normal])
    for m in np.flatnonzero(inverse) + 1:
        days = np.flatnonzero(months == m)
        if days.size:
            spec = specs[m - 1]
            draw = from_normals if spec.family in NORMAL_FAMILIES else transform
            x[:, days] = np.clip(draw(spec, u[:, days]), spec.clamp_lo, spec.clamp_hi)
    return x


def stack_weather(model: MonthlyWeatherModel, n_days: int, entropies: list,
                  start_month: int = 1) -> dict:
    """:func:`generate_weather` on the :func:`make_streams` of each entropy.

    Row r is exactly the weather replication ``entropies[r]`` gets when
    drawn alone.
    """
    return generate_weather(model, n_days, [make_streams(e) for e in entropies],
                            start_month)
