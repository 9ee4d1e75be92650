"""Fixed-interval simulation optimization.

Exhaustive search over cleaning intervals z: each candidate is scored by
the mean total cost over replicated Monte-Carlo episodes.  Replication r
always uses the same sub-seed regardless of z (common random numbers), so
the cost curve is smooth and bit-reproducible for a fixed base seed.

The evaluator scores all intervals of a sweep in one pass per
replication.  Every segment start's row of per-day values is computed
once, vectorized in cache-sized blocks, out to the longest interval that
starts a segment there; each interval then sums its segments' leading
entries.  It shares the per-day deposition, price and age arrays
(:func:`pvclean.environment.day_arrays`) with ``CleaningEnv`` but
accumulates soiling in closed form, so the two routes agree to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .agents import NumericalError
from .environment import ScenarioConfig, cleaning_interval, day_arrays
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


# Intervals are swept in chunks whose per-interval work, the sum of
# n_seg * z, stays under this many elements, which bounds the row buffer
# for long interval ranges; z = 1..120 over 20 years is one chunk.
_CHUNK_ELEMENTS = 1 << 20
# Rows of one length are computed in blocks of at most this many elements,
# so the block and its two work arrays stay in cache.
_BLOCK_ELEMENTS = 1 << 15


def _chunks(zs, n_days):
    """Split ``zs`` into consecutive runs of at most ``_CHUNK_ELEMENTS`` work."""
    run, work = [], 0
    for z in zs:
        cost = -(-n_days // z) * z
        if run and work + cost > _CHUNK_ELEMENTS:
            yield run
            run, work = [], 0
        run.append(z)
        work += cost
    if run:
        yield run


def _energy_losses(zs, config: ScenarioConfig, days: dict) -> np.ndarray:
    """Energy-loss cost of fixed-interval episodes, shaped (len(zs), replications).

    Cleaning happens on mornings z, 2z, ... (days-since-clean reaches z),
    so each inter-cleaning segment starts from a fresh panel.  Within a
    segment the floored accumulation s_u = max(s_{u-1} + d_u, beta) has the
    closed form s_u = max(C_u, beta + C_u - min_{j<=u} C_j) with C the
    deposition prefix sum, which vectorizes across whole segments.

    Day s + u of a segment that starts on day s has a value that depends
    only on s and u, since ``cumsum`` and ``minimum.accumulate`` are
    sequential.  So each start's row is computed once per replication, out
    to the longest interval in ``zs`` that starts a segment there, and every
    z then copies the first z entries of its starts' rows into a contiguous
    (n_seg, z) array.  The operations, their operand order and the
    summation are those of the whole-array expression ``(price * max(tau *
    (c3*s**3 + c2*s**2 + c1*s + eff_max), 0)).sum(axis=(1, 2))`` over
    (replications, n_seg, z), which the tests keep as the reference, so
    every cost equals it bit for bit.
    """
    sp = config.soiling
    c3, c2, c1 = sp.cubic
    n_reps, n_days = days["d_cal"].shape
    earned = np.empty((len(zs), n_reps))
    row = 0
    for chunk in _chunks(zs, n_days):
        z_max = max(chunk)
        # The longest interval that starts a segment on each day, 0 if none.
        longest = np.zeros(n_days, dtype=np.intp)
        for z in chunk:
            np.maximum(longest[::z], z, out=longest[::z])
        # Rows are rounded up to a few lengths, each 2/3 of the next, so
        # they take a dozen length classes instead of one per distinct
        # length, for ~18 % more elementwise work at z = 1..120.
        lengths = [z_max]
        while lengths[-1] > 1:
            lengths.append(lengths[-1] * 2 // 3)
        lengths = np.array(lengths[::-1])
        used = np.flatnonzero(longest)
        length = lengths[np.searchsorted(lengths, longest[used])]

        # Days past the horizon hold zero deposition, price and age factor,
        # as in the padded last segment of the whole-array form.
        d = np.zeros(n_days + z_max)
        price = np.zeros(n_days + z_max)
        tau = np.zeros(n_days + z_max)
        tau[:n_days] = days["tau"]
        offset = np.zeros(n_days, dtype=np.intp)   # of each start's row in `rows`
        blocks, size = [], 0
        for n in np.unique(length):
            starts = used[length == n]
            offset[starts] = size + n * np.arange(starts.size)
            windows = (sliding_window_view(d, n), sliding_window_view(price, n),
                       sliding_window_view(tau, n))
            step = max(1, _BLOCK_ELEMENTS // n)
            blocks += [(starts[i:i + step], n, size + i * n, windows)
                       for i in range(0, starts.size, step)]
            size += starts.size * n
        rows = np.empty(size)
        largest = max(starts.size * n for starts, n, _, _ in blocks)
        soil_buf, term_buf = np.empty(largest), np.empty(largest)
        segments = [(sliding_window_view(rows, z), offset[::z]) for z in chunk]

        for r in range(n_reps):
            d[:n_days] = days["d_cal"][r]
            price[:n_days] = days["price"][r]
            for starts, n, at, (d_win, price_win, tau_win) in blocks:
                shape = (starts.size, n)
                poly = rows[at:at + starts.size * n].reshape(shape)
                soil = soil_buf[:poly.size].reshape(shape)
                term = term_buf[:poly.size].reshape(shape)
                np.cumsum(d_win[starts], axis=1, out=soil)
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
                np.multiply(tau_win[starts], poly, out=poly)
                np.maximum(poly, 0.0, out=poly)
                np.multiply(price_win[starts], poly, out=poly)
            for i, (window, offsets) in enumerate(segments):
                earned[row + i, r] = window[offsets][None].sum(axis=(1, 2))[0]
        row += len(chunk)
    return days["clean_panel_loss"] - earned


def evaluate_interval(z: int, config: ScenarioConfig, replications: int = 30,
                      days: dict | None = None,
                      energy_loss: np.ndarray | None = None) -> IntervalEvaluation:
    """Score cleaning interval ``z`` by ``replications`` common-seed episodes.

    ``days`` takes the :func:`~pvclean.environment.day_arrays` of weather
    already drawn, and ``energy_loss`` the per-replication energy-loss
    costs of ``z`` when a sweep over several intervals has computed them.
    Raises :class:`~pvclean.agents.NumericalError` if a cost is not finite.
    """
    z = cleaning_interval(z)
    if days is None:
        days = day_arrays(config, precompute_weather(config, replications))
    elif len(days["d_cal"]) != replications:
        raise ValueError(f"days holds {len(days['d_cal'])} replications, "
                         f"not {replications}")
    if energy_loss is None:
        energy_loss = _energy_losses([z], config, days)[0]
    elif np.shape(energy_loss) != (replications,):
        raise ValueError(f"energy_loss has shape {np.shape(energy_loss)}, "
                         f"not ({replications},)")
    cleanings = -(-days["d_cal"].shape[1] // z) - 1
    cleaning_cost = cleanings * config.cleaning_cost
    totals = energy_loss + cleaning_cost
    if not np.isfinite(totals).all():
        raise NumericalError(f"non-finite cost for interval {z}")
    return IntervalEvaluation(
        z=z,
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
    z_min, z_max = cleaning_interval(z_min), cleaning_interval(z_max)
    if z_min > z_max:
        raise ValueError(f"z_min {z_min} > z_max {z_max}")
    days = day_arrays(config, precompute_weather(config, replications))
    zs = range(z_min, z_max + 1)
    losses = _energy_losses(zs, config, days)
    curve = [evaluate_interval(z, config, replications, days=days, energy_loss=loss)
             for z, loss in zip(zs, losses)]
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
