"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from pvclean import environment


@pytest.fixture
def nan_rewards(monkeypatch):
    """Make every priced day NaN, so every reward and cumulative cost is NaN."""
    price = environment._Episode.price

    def nan_price(self, t0, t1):
        return tuple(np.full_like(v, np.nan) for v in price(self, t0, t1))

    monkeypatch.setattr(environment._Episode, "price", nan_price)
