"""Fixed-interval simulation optimization.

Exhaustive search over cleaning intervals z: each candidate is scored by
the mean total cost over replicated Monte-Carlo episodes.  Replication r
always uses the same sub-seed regardless of z (common random numbers), so
the cost curve is smooth and bit-reproducible for a fixed base seed.

The evaluator scores one replication at a time, vectorized over its days,
in work arrays small enough to stay in cache.  It shares the per-day
deposition, price and age arrays (:func:`pvclean.environment.day_arrays`)
with ``CleaningEnv`` but accumulates soiling in closed form, so the two
routes agree to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .environment import ScenarioConfig, day_arrays
from .rng import replication_entropy
from .weather import stack_weather

__all__ = ["IntervalEvaluation", "evaluate_interval", "optimize",
           "precompute_weather", "calibrate_panel_area"]


@dataclass
class IntervalEvaluation:
    """Replicated-episode score of one cleaning interval."""

    z: int
    mean_total_cost: float
    costs: list                 # per-replication total cost, USD
    mean_cleanings: float
    mean_energy_loss_cost: float
    mean_cleaning_cost: float


def precompute_weather(config: ScenarioConfig, replications: int) -> dict:
    """Per-replication weather arrays, shaped (replications, n_days).

    Replication r uses the sub-seed (seed, replication-tag, r); identical
    across all intervals evaluated under the same config.
    """
    return stack_weather(config.weather_model(), config.n_days,
                         [replication_entropy(config.seed, r) for r in range(replications)],
                         config.start_month)


def _episode_costs(z: int, config: ScenarioConfig, weather: dict,
                   days: dict | None = None):
    """Fixed-interval episodes, one replication at a time, vectorized over days.

    Cleaning happens on mornings z, 2z, ... (days-since-clean reaches z),
    so each inter-cleaning segment starts from a fresh panel.  Within a
    segment the floored accumulation s_u = max(s_{u-1} + d_u, beta) has the
    closed form s_u = max(C_u, beta + C_u - min_{j<=u} C_j) with C the
    deposition prefix sum, which vectorizes across whole segments.

    A replication's (n_seg, z) arrays fit in cache, so its whole pass runs
    in three work arrays reused for every replication.  The operations,
    their operand order and the summation are those of the whole-array
    expression ``(price * max(tau * (c3*s**3 + c2*s**2 + c1*s + eff_max), 0))
    .sum(axis=(1, 2))`` over (replications, n_seg, z), which the tests keep
    as the reference, so every cost equals it bit for bit.
    """
    sp = config.soiling
    if days is None:
        days = day_arrays(config, weather)
    n_reps, n_days = days["d_cal"].shape
    n_seg = -(-n_days // z)
    shape = (n_seg, z)

    d = np.zeros(n_seg * z)
    price = np.zeros(n_seg * z)
    tau = np.pad(days["tau"], (0, n_seg * z - n_days)).reshape(shape)
    c3, c2, c1 = sp.cubic
    soil, poly, term = np.empty(shape), np.empty(shape), np.empty(shape)
    earned = np.empty(n_reps)
    for r in range(n_reps):
        d[:n_days] = days["d_cal"][r]
        price[:n_days] = days["price"][r]
        np.cumsum(d.reshape(shape), axis=1, out=soil)
        np.minimum.accumulate(soil, axis=1, out=term)
        np.add(sp.beta_residue, soil, out=poly)
        np.subtract(poly, term, out=poly)
        np.maximum(soil, poly, out=soil)

        np.power(soil, 3, out=poly)
        np.multiply(c3, poly, out=poly)
        np.square(soil, out=term)
        np.multiply(c2, term, out=term)
        np.add(poly, term, out=poly)
        np.multiply(c1, soil, out=term)
        np.add(poly, term, out=poly)
        np.add(poly, sp.eff_max, out=poly)
        np.multiply(tau, poly, out=poly)
        np.maximum(poly, 0.0, out=poly)
        np.multiply(price.reshape(shape), poly, out=poly)
        earned[r] = poly.reshape(1, n_seg, z).sum(axis=(1, 2))[0]
    energy_loss = days["clean_panel_loss"] - earned

    cleanings = n_seg - 1
    return energy_loss, cleanings * config.cleaning_cost, cleanings


def evaluate_interval(z: int, config: ScenarioConfig, replications: int = 30,
                      weather: dict | None = None,
                      days: dict | None = None) -> IntervalEvaluation:
    """Score cleaning interval ``z`` by ``replications`` common-seed episodes."""
    if z < 1:
        raise ValueError(f"cleaning interval must be >= 1, got {z}")
    if weather is None:
        weather = precompute_weather(config, replications)
    energy_loss, cleaning_cost, cleanings = _episode_costs(int(z), config, weather, days)
    totals = energy_loss + cleaning_cost
    return IntervalEvaluation(
        z=int(z),
        mean_total_cost=float(totals.mean()),
        costs=[float(c) for c in totals],
        mean_cleanings=float(cleanings),
        mean_energy_loss_cost=float(energy_loss.mean()),
        mean_cleaning_cost=float(cleaning_cost),
    )


def optimize(config: ScenarioConfig, z_min: int = 1, z_max: int = 120,
             replications: int = 30):
    """Exhaustive interval search; returns (z_star, full cost curve).

    Ties in mean total cost break toward the smaller interval.
    """
    if z_min > z_max:
        raise ValueError(f"z_min {z_min} > z_max {z_max}")
    weather = precompute_weather(config, replications)
    days = day_arrays(config, weather)
    curve = [evaluate_interval(z, config, replications, weather=weather, days=days)
             for z in range(z_min, z_max + 1)]
    best = min(curve, key=lambda e: (e.mean_total_cost, e.z))
    return best.z, curve


def calibrate_panel_area(config: ScenarioConfig, target_cost: float,
                         z_min: int = 1, z_max: int = 120,
                         replications: int = 30) -> float:
    """Panel area for which the optimal mean total cost equals ``target_cost``.

    For fixed seeds the per-interval cost is linear in the area
    (area * energy-loss-at-unit-area + cleaning cost), so the optimum cost
    as a function of area is an increasing piecewise-linear lower envelope;
    it is inverted by bisection.
    """
    base = replace(config, panel_area=1.0)
    _, curve = optimize(base, z_min, z_max, replications)
    e = np.array([c.mean_energy_loss_cost for c in curve])
    c = np.array([c.mean_cleaning_cost for c in curve])

    def best_cost(area: float) -> float:
        return float(np.min(area * e + c))

    lo, hi = 1e-6, 1.0
    while best_cost(hi) < target_cost:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if best_cost(mid) < target_cost:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
