"""Stochastic PV soiling simulation and cleaning-schedule optimization.

Subpackages:

* :mod:`pvclean.rng` — seeded, counted random streams
* :mod:`pvclean.distributions` — the eight weather distribution families
* :mod:`pvclean.weather` — the monthly weather model and day sampling
* :mod:`pvclean.soiling` — deposition, accumulation and efficiency physics
* :mod:`pvclean.environment` — the day-step cleaning MDP and scenario presets
* :mod:`pvclean.simopt` — fixed-interval simulation optimization
* :mod:`pvclean.nn` — minimal dense networks with exact gradients and Adam
* :mod:`pvclean.agents` — PPO and discrete SAC training / evaluation
* :mod:`pvclean.cli` — the experiment runner command line
"""

from .distributions import DistributionSpec, ParameterError
from .environment import CleaningEnv, ScenarioConfig, preset
from .rng import RandomStream
from .soiling import SoilingParams
from .weather import MonthlyWeatherModel, default_model

__all__ = [
    "DistributionSpec", "ParameterError", "CleaningEnv", "ScenarioConfig",
    "preset", "RandomStream", "SoilingParams", "MonthlyWeatherModel",
    "default_model",
]

__version__ = "0.1.0"
