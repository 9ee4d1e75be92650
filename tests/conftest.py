"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from pvclean.environment import CleaningEnv


@pytest.fixture
def nan_rewards(monkeypatch):
    """Make every ``CleaningEnv.step`` reward and cumulative cost NaN."""
    step = CleaningEnv.step

    def nan_reward(self, actions):
        res = step(self, actions)
        res.reward[:] = np.nan
        self.cumulative_cost[:] = np.nan
        return res

    monkeypatch.setattr(CleaningEnv, "step", nan_reward)
