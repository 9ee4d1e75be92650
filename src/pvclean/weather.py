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

from .distributions import DistributionSpec, ParameterError, sample_days
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
    """Immutable 12-month x 5-variable grid of distribution specs.

    ``source`` names the file the grid was loaded from, for error messages.
    """

    def __init__(self, table: dict, source: str | None = None):
        cells = [(month, var) for month in range(1, 13) for var in VARIABLES]
        extra = set(table) - set(cells)
        if extra:
            raise ModelFormatError(f"unexpected cells: {sorted(extra)}")
        for month, var in cells:
            if (month, var) not in table:
                raise ModelFormatError(f"missing cell month={month} variable={var}")
            if not isinstance(table[(month, var)], DistributionSpec):
                raise ModelFormatError(f"cell ({month}, {var}) is not a DistributionSpec")
        self._table = dict(table)
        self.source = source

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
            missing = [column for column, value in row.items() if value is None]
            if missing:
                raise ModelFormatError(f"{path}: line {lineno}: missing {', '.join(missing)}")
            try:
                month = int(row["month"])
                var = row["variable"]
                params = tuple(float(p) for p in row["params"].split(";"))
                spec = DistributionSpec(row["family"], params,
                                        float(row["clamp_lo"]), float(row["clamp_hi"]))
            except ValueError as exc:
                raise ModelFormatError(f"{path}: line {lineno}: {exc}") from exc
            if (month, var) in table:
                raise ModelFormatError(f"{path}: line {lineno}: duplicate cell ({month}, {var})")
            table[(month, var)] = spec
    try:
        return MonthlyWeatherModel(table, str(path))
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def make_streams(seed) -> dict:
    """One independent stream per weather variable (stream ids 0..4)."""
    return {var: RandomStream(seed, i) for i, var in enumerate(VARIABLES)}


def month_of_day(day_index, start_month: int = 1):
    """Calendar month (1..12) of a 0-based simulation day, or of an array of them."""
    return _YEAR_MONTHS[(day_index + _MONTH_STARTS[(start_month - 1) % 12]) % 365]


def generate_weather(model: MonthlyWeatherModel, n_days: int, streams: list,
                     start_month: int = 1, variables=VARIABLES,
                     out: np.ndarray | None = None) -> dict:
    """Draw ``n_days`` of weather for each :func:`make_streams` dict in ``streams``.

    Returns one (len(streams), n_days) array per entry of ``variables``
    (default: all five), in that order.  With ``out``, shaped (n_days,
    len(streams), len(variables)), each variable is drawn straight into its
    column ``out[..., j]``, so no variable is held apart from it, and the
    arrays returned are views of ``out``, ``out[..., j].T``.  Row r is
    draw-for-draw identical to drawing each day in order, one value at a
    time, from that day's month with ``streams[r]``: the same values, and
    every stream left with the same ``counter`` and the same next uniform.  Each variable has its
    own stream, so a variable that is not drawn leaves its stream untouched
    and the others' draws the same: Sim-Opt draws only the four variables
    its costs read, and only :class:`~pvclean.environment.CleaningEnv`
    draws temperature.  The draws are
    :func:`~pvclean.distributions.sample_days` over the twelve months'
    specs of each variable.  A spec whose rejection sampler accepts too
    rarely to draw raises ``ModelFormatError`` naming the model's file.
    """
    if not (isinstance(n_days, (int, np.integer)) and not isinstance(n_days, bool)
            and n_days >= 0):
        raise ValueError(f"n_days must be an integer >= 0, got {n_days!r}")
    if not streams:
        raise ValueError("need at least one replication")
    shape = (n_days, len(streams), len(variables))
    if out is not None and out.shape != shape:
        raise ValueError(f"out must have shape {shape}, not {out.shape}")
    index = month_of_day(np.arange(n_days), start_month) - 1

    def draw(var, into=None):
        return sample_days([model.spec(m, var) for m in range(1, 13)], index,
                           [s[var] for s in streams], into)

    try:
        if out is None:
            return {var: draw(var) for var in variables}
        return {var: draw(var, out[..., j].T) for j, var in enumerate(variables)}
    except ParameterError as exc:
        raise ModelFormatError(f"{model.source or 'weather model'}: {exc}") from None


def stack_weather(model: MonthlyWeatherModel, n_days: int, entropies: list,
                  start_month: int = 1, variables=VARIABLES,
                  out: np.ndarray | None = None) -> dict:
    """:func:`generate_weather` of ``variables`` on the :func:`make_streams` of
    each entropy, into ``out`` if given.

    Row r is exactly the weather replication ``entropies[r]`` gets when
    drawn alone.
    """
    return generate_weather(model, n_days, [make_streams(e) for e in entropies],
                            start_month, variables, out)
