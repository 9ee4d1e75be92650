"""Weather model: calendar, grid validation, persistence, sampling."""

import numpy as np
import pytest

from pvclean.distributions import DistributionSpec
from pvclean.weather import (CLAMPS, MONTH_LENGTHS, VARIABLES,
                             ModelFormatError, MonthlyWeatherModel,
                             default_model, generate_weather, load_model,
                             make_streams, month_of_day, sample_day,
                             save_model)


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


def test_generate_weather_matches_per_day_sampling():
    model = default_model()
    n_days = 400  # spans a year boundary
    arrays = generate_weather(model, n_days, make_streams(5))
    streams = make_streams(5)
    for d in range(n_days):
        day = sample_day(model, month_of_day(d), streams)
        for var in VARIABLES:
            assert arrays[var][d] == getattr(day, var)


def test_generate_weather_start_month():
    model = default_model()
    arrays = generate_weather(model, 60, make_streams(8), start_month=12)
    streams = make_streams(8)
    for d in range(60):
        day = sample_day(model, month_of_day(d, start_month=12), streams)
        for var in VARIABLES:
            assert arrays[var][d] == getattr(day, var)


def test_generate_weather_deterministic():
    model = default_model()
    a = generate_weather(model, 365, make_streams(3))
    b = generate_weather(model, 365, make_streams(3))
    for var in VARIABLES:
        np.testing.assert_array_equal(a[var], b[var])


def test_model_spec_is_distribution_spec():
    spec = default_model().spec(1, "wind_speed")
    assert isinstance(spec, DistributionSpec)
    assert spec.family == "lognormal"
