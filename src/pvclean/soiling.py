"""Dust soiling physics and panel efficiency.

Pure functions implementing the daily deposition model, the humidity
calibration of wind removal, soiling accumulation with a residue floor,
age degradation, and the cubic soiling-to-efficiency map.  All operations
accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    ``eff_max``, the clean-panel efficiency.
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
        if not (_finite_number(self.annual_degradation) and 0.0 <= self.annual_degradation < 1.0):
            raise ValueError(f"annual_degradation must be in [0, 1): {self.annual_degradation!r}")
        if not (_finite_number(self.beta_residue) and self.beta_residue > 0.0):
            raise ValueError(f"beta_residue must be finite and > 0: {self.beta_residue!r}")
        if not (_finite_number(self.eff_max) and 0.0 < self.eff_max <= 1.0):
            raise ValueError(f"eff_max must be in (0, 1]: {self.eff_max!r}")


def _finite_number(x) -> bool:
    return isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x)


def daily_soiling(wind_speed, particulate_matter):
    """Daily dust deposition in g/m2/day; negative means net wind removal."""
    ws = np.asarray(wind_speed, dtype=float)
    pm = np.asarray(particulate_matter, dtype=float)
    d = 0.00144 * (10.6 - 4.99 * ws + 247.0 * pm - 73.4 * ws * pm)
    return float(d) if d.ndim == 0 else d


def calibrate(deposition, relative_humidity, k: float = 0.06):
    """Scale the removal branch by the humidity factor min(1, k / RH).

    Positive deposition is untouched.  RH is in percent; the factor is
    clamped to [0, 1] for pathological RH < k.
    """
    d = np.asarray(deposition, dtype=float)
    rh = np.asarray(relative_humidity, dtype=float)
    f = np.clip(k / rh, 0.0, 1.0)
    out = np.where(d >= 0.0, d, f * d)
    return float(out) if out.ndim == 0 else out


def accumulate(previous, deposition, cleaned_today, beta: float = 0.01):
    """Next soiling level with cleaning and the residue floor.

    cleaned -> 0; uncleaned -> previous + deposition, floored at ``beta``
    (residues always remain unless the panel is cleaned).
    """
    s = np.asarray(previous, dtype=float) + np.asarray(deposition, dtype=float)
    s = np.maximum(s, beta)
    out = np.where(cleaned_today, 0.0, s)
    return float(out) if out.ndim == 0 else out


def degradation_factor(years_elapsed, annual_degradation: float = 0.05):
    """Age factor (1 - rate) ** years, years = floor(day_index / 365)."""
    y = np.asarray(years_elapsed)
    out = (1.0 - annual_degradation) ** y
    return float(out) if out.ndim == 0 else out


def efficiency(soiling_level, tau=1.0, params: SoilingParams = SoilingParams()):
    """Panel efficiency: tau * cubic(soiling), floored at 0."""
    s = np.asarray(soiling_level, dtype=float)
    c3, c2, c1 = params.cubic
    e = tau * (c3 * s ** 3 + c2 * s ** 2 + c1 * s + params.eff_max)
    out = np.maximum(e, 0.0)
    return float(out) if out.ndim == 0 else out
