"""Fixed-interval simulation optimization.

Exhaustive search over cleaning intervals z: each candidate is scored by
the mean total cost over replicated Monte-Carlo episodes.  Replication r
always uses the same sub-seed regardless of z (common random numbers), so
the cost curve is smooth and bit-reproducible for a fixed base seed.  Each
score is an :class:`~pvclean.environment.Evaluation` holding the costs and
cleanings of every replication, the record that
:func:`pvclean.agents.evaluate` returns for any policy on the same seeds.

The evaluator scores all intervals of a sweep in one pass per
replication.  Every segment start's row of per-day values is computed
once, vectorized in cache-sized blocks, out to the longest interval that
starts a segment there; each interval then sums its segments' leading
entries.  It shares the per-day deposition, price and age arrays
(:func:`pvclean.environment.day_arrays`) with ``CleaningEnv`` but
accumulates soiling in closed form, so the two routes agree to rounding.
Sim-Opt draws only the four weather variables those arrays read (wind
speed, particulate matter, irradiance and relative humidity); only
``CleaningEnv`` draws temperature, for its observation.  Each variable has
its own random stream, so every value drawn is the one the environment
draws for the same replication.  ``day_arrays`` consumes the drawn
weather, freeing each variable once the day array that reads it exists,
and computes a block of days at a time, so the full draw never sits
beside whole-array deposition and calibration temporaries.  A share of
more than ``_REPLICATION_BLOCK`` (32) replications is drawn, turned into
day arrays and priced 32 at a time on one plan of the sweep's chunks, so
its peak memory does not grow with the share.

A large sweep runs on every CPU this process may use
(``os.sched_getaffinity``, which ``taskset`` limits): the replications
split into one contiguous share per CPU, and each share is drawn, turned
into day arrays and priced in its own process, this one and a worker
forked for the sweep, so only each share's costs cross a pipe.  Rows are
independent, so the costs are those of one process bit for bit.

Costs are linear in the panel area for fixed seeds, so the area that
gives a target optimal cost (:func:`calibrate_panel_area`) is a closed
form over one unit-area sweep.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .environment import (DAY_VARIABLES, Evaluation, NumericalError, ScenarioConfig,
                          cleaning_interval, day_arrays)
from .rng import replication_entropy
from .weather import stack_weather

__all__ = ["evaluate_interval", "optimize", "precompute_weather", "calibrate_panel_area",
           "WorkerError"]


class WorkerError(RuntimeError):
    """A worker process of a sweep ended without returning its share."""


def precompute_weather(config: ScenarioConfig, replications: range) -> dict:
    """Weather of the replications ``replications`` (indices, such as
    ``range(30)``), shaped (len(replications), n_days).

    Holds the ``DAY_VARIABLES`` only, the four variables
    :func:`~pvclean.environment.day_arrays` reads: temperature, which no
    cost reads, is not drawn.  Replication r uses the sub-seed (seed,
    replication-tag, r); identical across all intervals evaluated under the
    same config, and equal to the same variables of ``CleaningEnv.reset``.
    """
    return stack_weather(config.weather_model(), config.n_days,
                         [replication_entropy(config.seed, r) for r in replications],
                         config.start_month, DAY_VARIABLES)


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


def _plan(zs, n_days: int) -> list:
    """The chunks of :func:`_energy_losses`' work on ``zs`` over ``n_days``
    days: what depends on the intervals and the horizon alone, so that the
    blocks of replications of a share reuse it.

    Each is a run of intervals (:func:`_chunks`), the blocks of segment
    starts whose rows it computes, each (starts, row length, offset of the
    first row), the size of its row buffer, and the offset of each
    interval's segment starts in that buffer.
    """
    plan = []
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
        offset = np.zeros(n_days, dtype=np.intp)   # of each start's row in the buffer
        blocks, size = [], 0
        for n in np.unique(length):
            starts = used[length == n]
            offset[starts] = size + n * np.arange(starts.size)
            step = max(1, _BLOCK_ELEMENTS // n)
            blocks += [(starts[i:i + step], n, size + i * n) for i in range(0, starts.size, step)]
            size += starts.size * n
        plan.append((chunk, blocks, size, [offset[::z].copy() for z in chunk]))
    return plan


def _energy_losses(zs, config: ScenarioConfig, days: dict, plan=None) -> np.ndarray:
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
    every cost equals it bit for bit.  ``plan`` is :func:`_plan` of ``zs``,
    made here if not given.
    """
    sp = config.soiling
    c3, c2, c1 = sp.cubic
    n_reps, n_days = days["d_cal"].shape
    earned = np.empty((len(zs), n_reps))
    row = 0
    for chunk, planned, size, offsets in _plan(zs, n_days) if plan is None else plan:
        z_max = max(chunk)
        # Days past the horizon hold zero deposition, price and age factor,
        # as in the padded last segment of the whole-array form.  One window
        # view of each buffer serves every length: a row of length n that
        # starts on day s is d_win[s, :n], and the first z entries of the
        # rows at `offsets` are rows_win[offsets, :z], so `rows` has z_max
        # spare entries for the last row's window.
        d = np.zeros(n_days + z_max)
        price = np.zeros(n_days + z_max)
        tau = np.zeros(n_days + z_max)
        tau[:n_days] = days["tau"]
        d_win, price_win, tau_win = (sliding_window_view(x, z_max) for x in (d, price, tau))
        rows = np.empty(size + z_max)
        rows_win = sliding_window_view(rows, z_max)
        # The age factor does not depend on the replication, so each block's
        # rows of it are gathered once.
        blocks = [(starts, n, at, tau_win[starts, :n]) for starts, n, at in planned]
        largest = max(starts.size * n for starts, n, *_ in blocks)
        soil_buf, term_buf = np.empty(largest), np.empty(largest)

        for r in range(n_reps):
            d[:n_days] = days["d_cal"][r]
            price[:n_days] = days["price"][r]
            for starts, n, at, tau_rows in blocks:
                shape = (starts.size, n)
                poly = rows[at:at + starts.size * n].reshape(shape)
                soil = soil_buf[:poly.size].reshape(shape)
                term = term_buf[:poly.size].reshape(shape)
                np.cumsum(d_win[starts, :n], axis=1, out=soil)
                # The running minimum stops at k, one past the latest low of
                # the block's rows: from its first argmin on, a row's running
                # minimum is the row's minimum, so columns k on subtract
                # column k - 1.  The sign of a zero minimum cannot reach
                # (beta + C) - M, since beta > 0 keeps beta + C from being -0.0.
                k = soil.argmin(axis=1).max() + 1
                np.minimum.accumulate(soil[:, :k], axis=1, out=term[:, :k])
                np.add(sp.beta_residue, soil, out=poly)
                np.subtract(poly[:, :k], term[:, :k], out=poly[:, :k])
                np.subtract(poly[:, k:], term[:, k - 1:k], out=poly[:, k:])
                np.maximum(soil, poly, out=soil)

                # soiling.efficiency's cubic, restated on the work buffers:
                # one efficiency() call here gives the same bits but costs
                # temporaries, and took the 20-year, 30-replication sweep of
                # z = 1..120 from 0.345 to 0.382 s (medians, slower in 8 of
                # 8 alternating in-process runs on a 2-vCPU host).
                np.power(soil, 3, out=poly)
                np.multiply(c3, poly, out=poly)
                np.square(soil, out=term)
                np.multiply(c2, term, out=term)
                np.add(poly, term, out=poly)
                np.multiply(c1, soil, out=term)
                np.add(poly, term, out=poly)
                np.add(poly, sp.eff_max, out=poly)
                np.multiply(tau_rows, poly, out=poly)
                np.maximum(poly, 0.0, out=poly)
                np.multiply(price_win[starts, :n], poly, out=poly)
            for i, (z, offset) in enumerate(zip(chunk, offsets)):
                earned[row + i, r] = rows_win[offset, :z][None].sum(axis=(1, 2))[0]
        row += len(chunk)
    return days["clean_panel_loss"] - earned


# Sweeps of fewer replication-days than this run in this process alone,
# where forking a worker costs more than its share saves.  Medians of 7
# in-process S3exp sweeps of z = 1..120, one process against two, on a
# 2-vCPU x86-64 host: 2 y x 20 (14,600 replication-days) 0.041 -> 0.062 s;
# 3 y x 20 (21,900) 0.046 -> 0.064 s and 0.074 -> 0.073 s, about even;
# 3 y x 30 (32,850) 0.068 -> 0.053 s; 5 y x 30 0.120 -> 0.086 s.
_FORK_REPLICATION_DAYS = 30_000


# A share of more replications than this is drawn, turned into day arrays
# and priced this many at a time, so that its peak memory does not grow
# with the share; the paper's 30-replication sweep is one block.
_REPLICATION_BLOCK = 32


def _share_losses(zs, config: ScenarioConfig, replications: range) -> np.ndarray:
    """``_energy_losses`` of ``zs`` over the replications ``replications``,
    drawn here ``_REPLICATION_BLOCK`` at a time; shaped (len(zs),
    len(replications)).  Rows are independent, so the costs are those of
    one block of all of them bit for bit.  The blocks share one
    :func:`_plan`."""
    step = _REPLICATION_BLOCK
    plan = _plan(zs, config.n_days)
    return np.concatenate(
        [_energy_losses(zs, config,
                        day_arrays(config, precompute_weather(config, replications[i:i + step])),
                        plan)
         for i in range(0, len(replications), step)], axis=1)


def _sweep(zs, config: ScenarioConfig, replications: int) -> np.ndarray:
    """``_energy_losses`` of ``zs`` over replications 0..replications-1,
    shaped (len(zs), replications), one contiguous share of them per CPU.

    This process prices the first share and a worker forked for the sweep
    each other one.  Each draws its own replications, a block of
    ``_REPLICATION_BLOCK`` at a time (:func:`_share_losses`), so the
    weather never crosses a pipe.  With one CPU, below ``_FORK_REPLICATION_DAYS``, or
    where ``os.sched_getaffinity`` (and with it ``fork``) is missing, the
    sweep is one share.  Raises ``WorkerError`` if a worker dies.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = min(cpus, replications)
    if k < 2 or replications * config.n_days < _FORK_REPLICATION_DAYS:
        return _share_losses(zs, config, range(replications))
    # Imported here: at module level they add 13-20 ms to every command's start.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    bounds = [replications * i // k for i in range(k + 1)]
    shares = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    # fork, not a start method that imports pvclean again in each worker.
    # The workers are forked at the first submit, before this process draws,
    # and leaving the block joins them, on a return or a raise.
    try:
        with ProcessPoolExecutor(k - 1, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_share_losses, zs, config, share) for share in shares[1:]]
            first = _share_losses(zs, config, shares[0])
            return np.concatenate([first, *(f.result() for f in futures)], axis=1)
    except BrokenProcessPool:
        raise WorkerError("a sweep worker process ended without its share") from None


def evaluate_interval(z: int, config: ScenarioConfig, replications: int = 30,
                      days: dict | None = None,
                      energy_loss: np.ndarray | None = None) -> Evaluation:
    """Score cleaning interval ``z`` by ``replications`` common-seed episodes.

    Returns the per-replication costs and cleanings as an
    :class:`~pvclean.environment.Evaluation`, entry r from replication r.
    ``days`` takes the :func:`~pvclean.environment.day_arrays` of weather
    already drawn, and ``energy_loss`` the per-replication energy-loss
    costs of ``z`` when a sweep over several intervals has computed them;
    with ``energy_loss``, ``days`` is not needed.  Without either, the
    replications are drawn and priced as :func:`optimize` does.
    Raises :class:`~pvclean.environment.NumericalError` if a cost is not finite.
    """
    z = cleaning_interval(z)
    if days is not None:
        n_reps, n_days = days["d_cal"].shape
        if n_reps != replications:
            raise ValueError(f"days holds {n_reps} replications, not {replications}")
        # The cleanings are counted over the config's horizon.
        if n_days != config.n_days:
            raise ValueError(f"days holds {n_days} days, not the config's {config.n_days}")
    if energy_loss is None:
        energy_loss = (_sweep([z], config, replications) if days is None
                       else _energy_losses([z], config, days))[0]
    elif np.shape(energy_loss) != (replications,):
        raise ValueError(f"energy_loss has shape {np.shape(energy_loss)}, "
                         f"not ({replications},)")
    cleanings = -(-config.n_days // z) - 1
    totals = energy_loss + cleanings * config.cleaning_cost
    if not np.isfinite(totals).all():
        raise NumericalError(f"non-finite cost for interval {z}")
    return Evaluation(totals, np.full(replications, cleanings))


def optimize(config: ScenarioConfig, z_min: int = 1, z_max: int = 120,
             replications: int = 30):
    """Exhaustive interval search; returns (z_star, full cost curve).

    ``curve[i]`` is the :class:`~pvclean.environment.Evaluation` of
    interval ``z_min + i``.  Ties in mean total cost break toward the
    smaller interval.
    """
    z_min, z_max = cleaning_interval(z_min), cleaning_interval(z_max)
    if z_min > z_max:
        raise ValueError(f"z_min {z_min} > z_max {z_max}")
    zs = range(z_min, z_max + 1)
    curve = [evaluate_interval(z, config, replications, energy_loss=loss)
             for z, loss in zip(zs, _sweep(zs, config, replications))]
    best = min(range(len(curve)), key=lambda i: curve[i].mean_total_cost)
    return zs[best], curve


def calibrate_panel_area(config: ScenarioConfig, target_cost: float,
                         z_min: int = 1, z_max: int = 120,
                         replications: int = 30) -> float:
    """Panel area for which the optimal mean total cost equals ``target_cost``.

    For fixed seeds the per-interval cost is linear in the area, A * e_z +
    c_z with e_z the energy-loss cost at unit area and c_z the cleaning
    cost, so the optimum min_z (A * e_z + c_z) reaches the target exactly
    when A >= (target - c_z) / e_z for every z: the area is the largest of
    those bounds.  This relies on every unit-area e_z being > 0.  The cubic
    check of :class:`~pvclean.soiling.SoilingParams` keeps it >= 0, and an
    e_z of 0 makes its bound infinite.  Raises ValueError unless the area
    is positive and finite, as when the target is not above the cheapest
    interval's cleaning cost.
    """
    # At unit area and no cleaning cost, an interval's cost is its energy loss
    # (e + 0.0 == e), so the sweep's means are the e_z exactly.
    _, curve = optimize(replace(config, panel_area=1.0, cleaning_cost=0.0), z_min, z_max,
                        replications)
    e, c = np.array([(ev.mean_total_cost, ev.mean_cleanings * config.cleaning_cost)
                     for ev in curve]).T
    with np.errstate(divide="ignore", invalid="ignore"):
        area = float(np.max((target_cost - c) / e))
    if not (np.isfinite(area) and area > 0.0):
        raise ValueError(f"no panel area gives an optimal cost of {target_cost!r}")
    return area
