"""Dust soiling physics and panel efficiency.

Pure functions implementing the daily deposition model, the humidity
calibration of wind removal, soiling accumulation with a residue floor,
age degradation, and the cubic soiling-to-efficiency map.  Each function
applies its operations directly to its inputs: the simulator passes
arrays, and scalar inputs give scalar or 0-d array results.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

import numpy as np

__all__ = ["SoilingParams", "daily_soiling", "calibrate", "accumulate",
           "degradation_factor", "efficiency"]


@dataclass(frozen=True)
class SoilingParams:
    """Physical constants of the soiling / efficiency model.

    ``humidity_k`` calibrates wind removal: the removal (negative) branch of
    the daily soiling is scaled by min(1, k / RH) with RH in percent, so high
    humidity nearly nullifies removal.  ``cubic`` are the coefficients
    (s^3, s^2, s^1) of the efficiency polynomial; its constant term is
    ``eff_max``, the clean-panel efficiency.  The cubic must keep
    efficiency at or below ``eff_max`` for every soiling level s >= 0, so
    that soiling never earns energy: c3 s^2 + c2 s + c1 <= 0 for s > 0,
    which holds iff c1 <= 0, c3 <= 0, and c2 <= 0 or c2^2 <= 4 c3 c1.
    """

    humidity_k: float = 0.06
    beta_residue: float = 0.01          # g/m2, minimum uncleaned residue
    annual_degradation: float = 0.05    # fraction per year
    eff_max: float = 0.192
    cubic: tuple = (-0.0026, 0.032, -0.1369)

    def __post_init__(self):
        if not _finite_number(self.humidity_k):
            raise ValueError(f"humidity_k must be a finite number: {self.humidity_k!r}")
        if not (isinstance(self.cubic, tuple) and len(self.cubic) == 3
                and all(map(_finite_number, self.cubic))):
            raise ValueError(f"cubic must be a tuple of three finite numbers: {self.cubic!r}")
        # Exact rationals, so that squares and products of large
        # coefficients neither overflow nor round.
        c3, c2, c1 = map(Fraction, self.cubic)
        if not (c1 <= 0 and c3 <= 0 and (c2 <= 0 or c2 * c2 <= 4 * c3 * c1)):
            raise ValueError(f"cubic must keep efficiency <= eff_max: {self.cubic!r}")
        if not (_finite_number(self.annual_degradation) and 0.0 <= self.annual_degradation < 1.0):
            raise ValueError(f"annual_degradation must be in [0, 1): {self.annual_degradation!r}")
        if not (_finite_number(self.beta_residue) and self.beta_residue > 0.0):
            raise ValueError(f"beta_residue must be finite and > 0: {self.beta_residue!r}")
        if not (_finite_number(self.eff_max) and 0.0 < self.eff_max <= 1.0):
            raise ValueError(f"eff_max must be in (0, 1]: {self.eff_max!r}")


def _finite_number(x) -> bool:
    # An exact comparison: a JSON integer past the float range is not
    # finite as a float, and math.isfinite would raise OverflowError on it.
    return isinstance(x, Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def daily_soiling(wind_speed, particulate_matter):
    """Daily dust deposition in g/m2/day; negative means net wind removal."""
    ws, pm = wind_speed, particulate_matter
    return 0.00144 * (10.6 - 4.99 * ws + 247.0 * pm - 73.4 * ws * pm)


def calibrate(deposition, relative_humidity, k: float = 0.06):
    """Scale the removal branch by the humidity factor min(1, k / RH).

    Positive deposition is untouched.  RH is in percent; the factor is
    clamped to [0, 1] for pathological RH < k.
    """
    f = np.clip(k / relative_humidity, 0.0, 1.0)
    return np.where(deposition >= 0.0, deposition, f * deposition)


def accumulate(previous, deposition, cleaned_today, beta: float = 0.01):
    """Next soiling level with cleaning and the residue floor.

    cleaned -> 0; uncleaned -> previous + deposition, floored at ``beta``
    (residues always remain unless the panel is cleaned).
    """
    return np.where(cleaned_today, 0.0, np.maximum(previous + deposition, beta))


def degradation_factor(years_elapsed, annual_degradation: float = 0.05):
    """Age factor (1 - rate) ** years, years = floor(day_index / 365)."""
    return (1.0 - annual_degradation) ** years_elapsed


def efficiency(soiling_level, tau=1.0, params: SoilingParams = SoilingParams()):
    """Panel efficiency: tau * cubic(soiling), floored at 0."""
    s = soiling_level
    c3, c2, c1 = params.cubic
    return np.maximum(tau * (c3 * s ** 3 + c2 * s ** 2 + c1 * s + params.eff_max), 0.0)
