"""Weather model: calendar, grid validation, persistence, sampling.

``sample_day`` below is the per-day reference: it draws each variable one
value at a time, a gamma and a Cheng-BB beta one attempt at a time
(``oracles.sample_one``).  ``generate_weather`` and ``stack_weather`` draw
all replications month by month, and each row must equal it bit for bit,
run on that replication alone, in values and in where it leaves every
stream.
"""

import re
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvclean import distributions
from pvclean.distributions import DistributionSpec
from pvclean.weather import (MONTH_LENGTHS, VARIABLES, ModelFormatError, MonthlyWeatherModel,
                             default_model, generate_weather, load_model,
                             make_streams, month_of_day, save_model, stack_weather)

from oracles import is_cheng, sample_one, traced_peak

# The physical clamp range of each variable in the bundled model.  Wind
# speed is in km/h: its clamp equals 30 m/s.
CLAMPS = {
    "temperature": (0.0, 55.0),
    "wind_speed": (0.0, 108.0),
    "particulate_matter": (0.0, 5.0),
    "irradiance": (0.0, 9000.0),
    "relative_humidity": (1.0, 100.0),
}


@dataclass(frozen=True)
class WeatherDay:
    """One day's weather draw (all fields already clamped)."""

    temperature: float
    wind_speed: float
    particulate_matter: float
    irradiance: float
    relative_humidity: float


def sample_day(model: MonthlyWeatherModel, month: int, streams: dict) -> WeatherDay:
    """Draw one clamped value per variable from ``month``'s specs."""
    if not 1 <= month <= 12:
        raise ValueError(f"month must be in 1..12, got {month}")
    return WeatherDay(**{var: sample_one(model.spec(month, var), streams[var])
                         for var in VARIABLES})


def walk_month(day_index, start_month=1):
    """Month of a 0-based day by walking the calendar month by month."""
    day = day_index % 365
    month = start_month - 1
    while day >= MONTH_LENGTHS[month % 12]:
        day -= MONTH_LENGTHS[month % 12]
        month += 1
    return month % 12 + 1


def test_month_lengths_sum_to_365():
    assert sum(MONTH_LENGTHS) == 365


def test_month_of_day_oracle():
    # Cumulative month-boundary oracle for the January-start calendar.
    bounds = np.cumsum((0,) + MONTH_LENGTHS)
    for d in range(365):
        expect = int(np.searchsorted(bounds, d, side="right"))
        assert month_of_day(d) == expect
    # Years repeat.
    assert month_of_day(365) == 1
    assert month_of_day(365 + 31) == 2


@pytest.mark.parametrize("start_month", range(1, 13))
def test_month_of_day_matches_calendar_walk(start_month):
    days = np.arange(800)
    expect = [walk_month(d, start_month) for d in days]
    assert [month_of_day(int(d), start_month) for d in days] == expect
    assert month_of_day(days, start_month).tolist() == expect


def test_month_of_day_start_month_shift():
    assert month_of_day(0, start_month=6) == 6
    assert month_of_day(29, start_month=6) == 6
    assert month_of_day(30, start_month=6) == 7
    # December wraps into January.
    assert month_of_day(31, start_month=12) == 1


def test_default_model_covers_grid():
    model = default_model()
    for month in range(1, 13):
        for var in VARIABLES:
            spec = model.spec(month, var)
            assert (spec.clamp_lo, spec.clamp_hi) == CLAMPS[var]


def test_model_requires_all_cells():
    model = default_model()
    table = {(m, v): model.spec(m, v) for m in range(1, 13) for v in VARIABLES}
    del table[(5, "irradiance")]
    with pytest.raises(ModelFormatError):
        MonthlyWeatherModel(table)


def test_model_rejects_extra_cells():
    model = default_model()
    table = {(m, v): model.spec(m, v) for m in range(1, 13) for v in VARIABLES}
    table[(13, "temperature")] = model.spec(1, "temperature")
    with pytest.raises(ModelFormatError):
        MonthlyWeatherModel(table)


def test_save_load_round_trip(tmp_path):
    model = default_model()
    path = tmp_path / "model.csv"
    save_model(model, path)
    assert load_model(path) == model


@pytest.mark.parametrize("month, variable, family, params", [
    (1, "temperature", "lognormal", (17.0, 1.16, 0.559)),
    (2, "irradiance", "beta", (1610.0, 6700.0, 4.96, 2.23)),
    (3, "irradiance", "johnsonsb", (-8480.0, 16100.0, -2.87, 1.13)),
    (8, "wind_speed", "lognormal", (-461.0, 6.16, 3.51e-3)),
    (12, "relative_humidity", "gamma", (0.0, 59.1, 1.06)),
])
def test_default_model_pinned_cells(month, variable, family, params):
    spec = default_model().spec(month, variable)
    assert (spec.family, spec.params) == (family, params)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("month,family\n1,normal\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_duplicate_cell(tmp_path):
    path = tmp_path / "dup.csv"
    row = "1,temperature,normal,20.0;2.0,0.0,55.0\n"
    path.write_text("month,variable,family,params,clamp_lo,clamp_hi\n" + row + row)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_unknown_variable(tmp_path):
    path = tmp_path / "var.csv"
    path.write_text("month,variable,family,params,clamp_lo,clamp_hi\n"
                    "1,snowfall,normal,0.0;1.0,0.0,1.0\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_bad_params(tmp_path):
    path = tmp_path / "params.csv"
    path.write_text("month,variable,family,params,clamp_lo,clamp_hi\n"
                    "1,temperature,normal,abc;1.0,0.0,55.0\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


def model_file(tmp_path, edit):
    """The default model saved to a CSV whose lines ``edit`` changes."""
    path = tmp_path / "model.csv"
    save_model(default_model(), path)
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    return path


@pytest.mark.parametrize("fields", [3, 5], ids=["no-params", "no-clamp-hi"])
def test_load_rejects_a_short_row(tmp_path, fields):
    def edit(lines):
        lines[3] = ",".join(lines[3].split(",")[:fields]) + "\n"
        return lines
    path = model_file(tmp_path, edit)
    with pytest.raises(ModelFormatError, match=re.escape(f"{path}: line 4: missing ")):
        load_model(path)


def test_load_names_the_file_of_a_header_only_model(tmp_path):
    path = model_file(tmp_path, lambda lines: lines[:1])
    with pytest.raises(ModelFormatError,
                       match=re.escape(f"{path}: missing cell month=1 variable=temperature")):
        load_model(path)


def test_load_rejects_a_cell_outside_the_grid(tmp_path):
    def edit(lines):
        lines[1] = lines[1].replace("1,temperature", "13,temperature")
        return lines
    path = model_file(tmp_path, edit)
    with pytest.raises(ModelFormatError, match=re.escape(f"{path}: unexpected cells: [(13, ")):
        load_model(path)


def test_make_streams_variable_independence():
    streams = make_streams(0)
    assert set(streams) == set(VARIABLES)
    seqs = [streams[v].uniforms(10) for v in VARIABLES]
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            assert not np.any(seqs[i] == seqs[j])


def test_sample_day_fields_respect_clamps():
    model = default_model()
    streams = make_streams(1)
    for _ in range(200):
        day = sample_day(model, 7, streams)
        for var in VARIABLES:
            lo, hi = CLAMPS[var]
            assert lo <= getattr(day, var) <= hi


def test_sample_day_rejects_bad_month():
    with pytest.raises(ValueError):
        sample_day(default_model(), 0, make_streams(0))


def per_day_weather(model, n_days, entropy, start_month=1):
    """The reference: ``n_days`` of :func:`sample_day`, and the streams after."""
    streams = make_streams(entropy)
    days = [sample_day(model, walk_month(d, start_month), streams) for d in range(n_days)]
    return {var: np.array([getattr(day, var) for day in days]) for var in VARIABLES}, streams


def assert_same_draws(model, n_days, entropies, start_month):
    """Month-major weather of ``entropies`` equals each one drawn day by day alone."""
    streams = [make_streams(entropy) for entropy in entropies]
    arrays = generate_weather(model, n_days, streams, start_month)
    stacked = stack_weather(model, n_days, entropies, start_month)
    for r, entropy in enumerate(entropies):
        expect, oracle = per_day_weather(model, n_days, entropy, start_month)
        for var in VARIABLES:
            assert arrays[var].shape == stacked[var].shape == (len(entropies), n_days)
            assert arrays[var][r].tobytes() == expect[var].tobytes(), (r, var)
            assert stacked[var][r].tobytes() == expect[var].tobytes(), (r, var)
            assert streams[r][var].counter == oracle[var].counter, (r, var)
            assert streams[r][var].uniform() == oracle[var].uniform(), (r, var)


def test_generate_weather_matches_per_day_sampling():
    assert_same_draws(default_model(), 400, [5], 1)  # spans a year boundary


def test_generate_weather_start_month():
    assert_same_draws(default_model(), 60, [8], 12)


def synthetic_model():
    """Every family and every kind of month boundary, on the default clamps.

    temperature uses the six inverse-transform families only; wind speed
    mixes a Johnk beta, gamma with shape < 1 and >= 1, and two adjacent
    Cheng months; irradiance alternates Cheng betas (a < b, a > b, a == b)
    with inverse months; humidity has no inverse-transform month at all.
    """
    inverse = [("normal", (30.0, 3.0)), ("lognormal", (10.0, 2.0, 0.5)),
               ("triangular", (18.0, 31.6, 22.2)), ("weibull", (5.0, 2.5, 20.0)),
               ("johnsonsb", (0.0, 50.0, -0.6, 1.9)), ("loglogistic", (0.0, 8.0, 30.0))]
    cells = {
        "temperature": inverse + inverse[::-1],
        "wind_speed": [("beta", (0.0, 60.0, 0.6, 0.9)), ("gamma", (0.0, 10.0, 0.5)),
                       ("lognormal", (3.77, 1.82, 0.672)), ("beta", (0.0, 108.0, 4.96, 2.23)),
                       ("beta", (0.0, 50.0, 1.5, 50.0)), ("gamma", (2.0, 5.0, 2.5)),
                       ("normal", (20.0, 5.0)), ("beta", (0.0, 40.0, 1.0, 3.0)),
                       ("gamma", (0.0, 40.0, 0.3)), ("weibull", (0.0, 1.5, 20.0)),
                       ("loglogistic", (0.0, 4.0, 15.0)), ("beta", (0.0, 90.0, 2.0, 2.0))],
        "particulate_matter": [("lognormal", (0.0, -2.0, 0.8))] * 12,
        "irradiance": [("beta", (1610.0, 6700.0, 4.96, 2.23)),
                       ("weibull", (1930.0, 4.79, 2700.0)),
                       ("beta", (1000.0, 8000.0, 2.23, 4.96)), ("normal", (5000.0, 900.0)),
                       ("beta", (0.0, 9000.0, 3.0, 3.0)),
                       ("johnsonsb", (0.0, 9000.0, -0.5, 1.2))] * 2,
        "relative_humidity": [("gamma", (0.0, 59.1, 1.06)), ("beta", (0.0, 98.8, 10.2, 6.35)),
                              ("beta", (0.0, 100.0, 0.7, 0.7)), ("gamma", (0.0, 30.0, 0.6)),
                              ("beta", (0.0, 73.0, 5.98, 1.74)),
                              ("beta", (0.0, 77.1, 4.51, 3.15))] * 2,
    }
    return MonthlyWeatherModel({
        (m, var): DistributionSpec(family, params, *CLAMPS[var])
        for var, row in cells.items() for m, (family, params) in enumerate(row, start=1)})


_ENTROPY = st.one_of(st.integers(0, 2**32),
                     st.tuples(st.integers(0, 9), st.integers(0, 1), st.integers(0, 99)))


@pytest.mark.parametrize("model", [default_model(), synthetic_model()],
                         ids=["default", "synthetic"])
@settings(max_examples=30, deadline=None)
@given(entropy=_ENTROPY, start_month=st.integers(1, 12), n_days=st.integers(1, 800))
def test_generate_weather_equals_per_day_oracle(model, entropy, start_month, n_days):
    assert_same_draws(model, n_days, [entropy], start_month)


def test_generate_weather_no_days():
    streams = [make_streams(0), make_streams(1)]
    arrays = generate_weather(default_model(), 0, streams)
    assert all(arrays[var].shape == (2, 0) for var in VARIABLES)
    assert all(s.counter == 0 for row in streams for s in row.values())


@pytest.mark.parametrize("n_days", [-1, -4, True, False, 2.0, 2.5, "3", None])
def test_generate_weather_rejects_a_bad_n_days(n_days):
    with pytest.raises(ValueError, match=re.escape(f"n_days must be an integer >= 0, got {n_days!r}")):
        generate_weather(default_model(), n_days, [make_streams(0)])
    with pytest.raises(ValueError, match=re.escape(f"n_days must be an integer >= 0, got {n_days!r}")):
        stack_weather(default_model(), n_days, [0])


def test_generate_weather_accepts_a_numpy_integer_n_days():
    arrays = stack_weather(default_model(), np.int64(40), [0])
    expect = stack_weather(default_model(), 40, [0])
    assert all(arrays[var].tobytes() == expect[var].tobytes() for var in VARIABLES)


def test_generate_weather_needs_a_replication():
    with pytest.raises(ValueError, match="at least one replication"):
        generate_weather(default_model(), 10, [])
    with pytest.raises(ValueError, match="at least one replication"):
        stack_weather(default_model(), 10, [])


@pytest.mark.parametrize("variables", [("irradiance", "wind_speed"), ("temperature",), ()])
def test_generate_weather_draws_only_the_variables_asked_for(variables):
    """Each variable has its own stream: the ones drawn equal a five-variable
    draw, value and counter, and the others' streams stay untouched."""
    streams, full = [make_streams(7)], [make_streams(7)]
    arrays = generate_weather(default_model(), 100, streams, 4, variables)
    expect = generate_weather(default_model(), 100, full, 4)
    assert list(arrays) == list(variables)
    for var in VARIABLES:
        if var in variables:
            assert arrays[var].tobytes() == expect[var].tobytes(), var
            assert streams[0][var].counter == full[0][var].counter, var
        else:
            assert streams[0][var].counter == 0, var


def test_generate_weather_deterministic():
    model = default_model()
    a = generate_weather(model, 365, [make_streams(3)])
    b = generate_weather(model, 365, [make_streams(3)])
    for var in VARIABLES:
        np.testing.assert_array_equal(a[var], b[var])


def cheng_model():
    """Cheng-BB betas in most cells: every month of temperature and
    irradiance, adjacent months with equal and with different shapes,
    shapes whose first block often runs short (1.001, 1000), and a few
    gamma, Johnk and inverse-transform months in between."""
    shapes = [(4.96, 2.23), (2.23, 4.96), (3.0, 3.0), (1.001, 1000.0), (10.2, 6.35),
              (1.5, 50.0), (5.98, 1.74), (4.51, 3.15), (1.2, 1.2), (20.0, 2.0),
              (2.0, 20.0), (1.05, 1.5)]
    other = {"wind_speed": {3: ("gamma", (0.0, 10.0, 0.5)), 8: ("lognormal", (3.77, 1.82, 0.672))},
             "particulate_matter": {m: ("weibull", (0.0, 1.5, 0.2)) for m in (2, 4, 6, 8, 10)},
             "relative_humidity": {12: ("gamma", (0.0, 59.1, 1.06)),
                                   6: ("beta", (0.0, 100.0, 0.7, 0.7))}}
    table = {}
    for i, var in enumerate(VARIABLES):
        lo, hi = CLAMPS[var]
        for m in range(1, 13):
            a, b = shapes[(m - 1 + 3 * i) % 12] if var != "relative_humidity" else (10.2, 6.35)
            family, params = other.get(var, {}).get(m, ("beta", (lo, hi, a, b)))
            table[(m, var)] = DistributionSpec(family, params, lo, hi)
    return MonthlyWeatherModel(table)


@pytest.mark.parametrize("model", [default_model(), synthetic_model(), cheng_model()],
                         ids=["default", "synthetic", "cheng"])
@settings(max_examples=25, deadline=None)
@given(entropies=st.lists(_ENTROPY, min_size=1, max_size=4),
       start_month=st.integers(1, 12), horizon=st.integers(1, 2))
def test_stack_weather_equals_per_day_oracle_by_replication(model, entropies, start_month,
                                                            horizon):
    assert_same_draws(model, 365 * horizon, entropies, start_month)


@pytest.mark.parametrize("start_month", range(1, 13))
def test_stack_weather_every_start_month(start_month):
    assert_same_draws(cheng_model(), 365, [start_month, (start_month, 0, 7), 2 ** 31],
                      start_month)


def test_stack_weather_classifies_each_cheng_run_once(monkeypatch):
    """Each Cheng month-run of each variable is one classifier call over all
    replications; the doubled blocks of the replications that ran short
    are classified in later, narrower calls."""
    calls = []

    def recording(u1, u2, c):
        calls.append(len(u1))
        return accepts(u1, u2, c)

    accepts = distributions._cheng_accepts
    monkeypatch.setattr(distributions, "_cheng_accepts", recording)
    model, entropies = cheng_model(), list(range(6))
    stacked = stack_weather(model, 365, entropies)
    # One year from January visits each month once, and each month is its own run.
    runs = sum(is_cheng(model.spec(m, var)) for m in range(1, 13) for var in VARIABLES)
    assert calls.count(len(entropies)) == runs
    assert any(0 < n < len(entropies) for n in calls)
    for r, entropy in enumerate(entropies):
        expect, _ = per_day_weather(model, 365, entropy)
        for var in VARIABLES:
            assert stacked[var][r].tobytes() == expect[var].tobytes(), (r, var)


@pytest.mark.parametrize("model", [default_model(), cheng_model()], ids=["default", "cheng"])
@settings(max_examples=15, deadline=None)
@given(entropies=st.lists(_ENTROPY, min_size=1, max_size=4), n_days=st.integers(0, 400),
       start_month=st.integers(1, 12), humidity=st.booleans(),
       block=st.sampled_from([1, 7, distributions._BLOCK]))
def test_stack_weather_into_a_day_major_array_equals_the_stacked_dict(model, entropies, n_days,
                                                                      start_month, humidity,
                                                                      block):
    """With ``out``, each variable is drawn straight into its column of the
    (n_days, replications, variables) array, which then equals ``np.stack``
    of the dict form bit for bit, with or without relative humidity and
    whatever the ``ndtri`` block; the arrays returned are views of it."""
    variables = VARIABLES if humidity else VARIABLES[:-1]
    expect = stack_weather(model, n_days, entropies, start_month, variables)
    out = np.empty((n_days, len(entropies), len(variables)))
    with mock.patch.object(distributions, "_BLOCK", block):
        arrays = stack_weather(model, n_days, entropies, start_month, variables, out)
    assert out.tobytes() == np.stack([expect[var].T for var in variables], axis=-1).tobytes()
    assert list(arrays) == list(variables)
    for j, var in enumerate(variables):
        assert arrays[var].shape == (len(entropies), n_days)
        assert np.shares_memory(arrays[var], out[..., j]) or n_days == 0, var
        assert arrays[var].tobytes() == expect[var].tobytes(), var


def test_stack_weather_rejects_an_out_of_another_shape():
    with pytest.raises(ValueError, match=r"out must have shape \(10, 2, 5\)"):
        stack_weather(default_model(), 10, [0, 1], out=np.empty((10, 2, 4)))


def test_each_variable_is_drawn_in_a_few_arrays():
    """A variable's 30-replication, 5-year draw peaks below 3.5 of its
    (replications, n_days) arrays, its own included: 2.4 to 2.5, and 3.0
    for relative humidity, whose streams also hold their look-ahead past
    its rejection-sampled months.  Mapping a copy of every normal day
    through ``ndtri`` at once, as ``oracles.whole_normal_days`` does, took
    7.5 to 8.0 for the variables with many normal days."""
    model, reps, n_days = default_model(), 30, 5 * 365
    stack_weather(model, 31, [0])  # the first draw's one-time set-up
    for var in VARIABLES:
        streams = [make_streams((0, 0, r)) for r in range(reps)]
        arrays, peak = traced_peak(lambda: generate_weather(model, n_days, streams, 1, (var,)))
        assert peak < 3.5 * arrays[var].nbytes, (var, peak / arrays[var].nbytes)


def test_model_spec_is_distribution_spec():
    spec = default_model().spec(1, "wind_speed")
    assert isinstance(spec, DistributionSpec)
    assert spec.family == "lognormal"
