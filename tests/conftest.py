"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from pvclean import environment
from pvclean.weather import default_model, save_model


@pytest.fixture
def nan_rewards(monkeypatch):
    """Make every priced day NaN, so every reward and cumulative cost is NaN."""
    price = environment._Episode.price

    def nan_price(self, t0, t1):
        return tuple(np.full_like(v, np.nan) for v in price(self, t0, t1))

    monkeypatch.setattr(environment._Episode, "price", nan_price)


@pytest.fixture
def humidity_beta_model(tmp_path):
    """A function of ``shapes`` (such as ``"0.5;1e300"``) that writes a copy
    of the bundled weather model whose February relative humidity is
    beta(0, 100, ``shapes``) and returns its path."""
    def write(shapes):
        model = tmp_path / "model.csv"
        save_model(default_model(), model)
        model.write_text("".join(
            f"2,relative_humidity,beta,0;100;{shapes},1.0,100.0\n"
            if line.startswith("2,relative_humidity,") else line
            for line in model.read_text().splitlines(keepends=True)))
        return model

    return write
