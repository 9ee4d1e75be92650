"""Per-attempt reference samplers shared by the distribution and weather tests.

``pvclean.distributions.sample_many`` draws a gamma and a beta as a block:
it peeks at every stream, maps the blocks through the in-tree ``ndtri`` at
once, and lets numpy decide the accepted attempts and compute their draws,
with the C library's ``exp``, ``log`` and ``pow`` (``distributions._c``).
The oracles here draw one uniform at a time, take each normal from
``scipy.special.ndtri`` and run each attempt as scalar ``math`` code, so
the tests that compare against them stay independent of the block samplers
and of the kernel.  ``ndtri1`` is the kernel's scalar form, the same
operations on Python floats.  ``spec_is_invalid`` writes out
``DistributionSpec``'s parameter rules family by family, independently of
the family table that the class reads them from.

``dense_forward`` and ``dense_backward`` are ``DenseNet``'s passes as an
out-of-place chain, one new array per step, with the input gradient of
every layer computed; the network's in-place passes must equal them bit
for bit.

``priced_steps`` is ``CleaningEnv.step`` as it was when each step priced
its own day and kept a running total: the environment, which prices days
only when they are read, must equal it bit for bit.

``whole_normal_days`` is ``distributions.sample_days``' normal mapping as it
was before it mapped a block of days at a time in place: one ``ndtri`` call
over a copy of every normal day, here scipy's.

``reading_day_arrays`` is ``environment.day_arrays`` as it was before it
consumed its weather dict or computed a block of days at a time, and ``one_pass_total_cost`` is
``_Episode.total_cost`` as it was before it priced a block of days at a
time, one accumulation over every day played: the module's forms must
equal them bit for bit.

``traced_peak`` is not an oracle: it measures what a call holds, for the
tests that bound the memory of a draw, a reset or a sweep.
"""

import math
import tracemalloc

import numpy as np
from scipy.special import ndtri

from pvclean import soiling as phys
from pvclean.distributions import (_EXP_M2, _LOG4, _LOG5, _P0, _P1, _P2, _Q0, _Q1, _Q2,
                                   _SQRT_2PI, _TINY, _cheng_constants, _polevl, sample_many)
from pvclean.environment import day_arrays
from pvclean.weather import KMH_PER_MS, VARIABLES, stack_weather


def ndtri1(p: float) -> float:
    """``distributions.ndtri`` of one float in [0, 1]: the same operations on Python floats,
    with the central and first tail polynomials unrolled."""
    flip = p > 1.0 - _EXP_M2
    y = 1.0 - p if flip else p
    if y > _EXP_M2:
        t = y - 0.5
        t2 = t * t
        P, Q = _P0, _Q0
        n = (((P[0] * t2 + P[1]) * t2 + P[2]) * t2 + P[3]) * t2 + P[4]
        q = (((((((t2 + Q[1]) * t2 + Q[2]) * t2 + Q[3]) * t2 + Q[4]) * t2 + Q[5]) * t2
              + Q[6]) * t2 + Q[7]) * t2 + Q[8]
        return (t + t * (t2 * n / q)) * _SQRT_2PI
    if y == 0.0:
        return math.inf if flip else -math.inf
    r = math.sqrt(-2.0 * math.log(y))
    w = 1.0 / r
    if r < 8.0:
        P, Q = _P1, _Q1
        n = (((((((P[0] * w + P[1]) * w + P[2]) * w + P[3]) * w + P[4]) * w + P[5]) * w
              + P[6]) * w + P[7]) * w + P[8]
        q = (((((((w + Q[1]) * w + Q[2]) * w + Q[3]) * w + Q[4]) * w + Q[5]) * w + Q[6]) * w
             + Q[7]) * w + Q[8]
        r1 = w * n / q
    else:
        r1 = w * _polevl(w, _P2) / _polevl(w, _Q2)
    d = r - math.log(r) / r - r1
    return d if flip else -d


def cheng_accept(u1: float, u2: float, c: tuple) -> bool:
    """Whether Cheng BB accepts the attempt (u1, u2); each attempt takes 2 uniforms."""
    a0, b0, alpha, beta, gamma = c
    if u1 <= 0.0 or u1 >= 1.0:
        return False
    v = beta * math.log(u1 / (1.0 - u1))
    w = a0 * math.exp(v)
    z = u1 * u1 * u2
    r = gamma * v - _LOG4
    s = a0 + r - w
    if s + 1.0 + _LOG5 >= 5.0 * z:
        return True
    t = math.log(z) if z > 0.0 else -math.inf
    return s >= t or r + alpha * math.log(alpha / (b0 + w)) >= t


def cheng_value(u1: float, a: float, c: tuple) -> float:
    """The beta variate an accepted Cheng BB attempt with first uniform u1 returns."""
    a0, b0, _, beta, _ = c
    w = a0 * math.exp(beta * math.log(u1 / (1.0 - u1)))
    return w / (b0 + w) if a == a0 else b0 / (b0 + w)


def is_cheng(spec) -> bool:
    """Whether ``spec`` is a beta drawn by Cheng BB (both shapes > 1)."""
    return spec.family == "beta" and min(spec.params[2:]) > 1.0


def cheng_one_by_one(spec, stream, n: int, clamp: bool = True) -> np.ndarray:
    """``n`` draws of a Cheng-BB beta ``spec``, one two-uniform attempt at a time."""
    lo, hi, a, b = spec.params
    c = _cheng_constants(a, b)
    x = []
    while len(x) < n:
        u1 = stream.uniform()
        u2 = max(stream.uniform(), _TINY)
        if cheng_accept(u1, u2, c):
            x.append(cheng_value(u1, a, c))
    x = lo + (hi - lo) * np.array(x)
    return np.clip(x, spec.clamp_lo, spec.clamp_hi) if clamp else x


def gamma_variate(shape: float, stream) -> float:
    """One standard gamma draw, Marsaglia-Tsang squeeze, one uniform at a time."""
    if shape < 1.0:
        # Boost: G(a) = G(a+1) * U^(1/a)
        u = max(stream.uniform(), _TINY)
        return gamma_variate(shape + 1.0, stream) * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        z = float(ndtri(stream.uniform()))
        v = (1.0 + c * z) ** 3
        if v <= 0.0:
            continue
        u = max(stream.uniform(), _TINY)
        if u < 1.0 - 0.0331 * z ** 4:
            return d * v
        if math.log(u) < 0.5 * z * z + d * (1.0 - v + math.log(v)):
            return d * v


def gamma_one_by_one(spec, stream, n: int, clamp: bool = True) -> np.ndarray:
    """``n`` draws of a gamma ``spec``, one attempt at a time."""
    loc, scale, shape = spec.params
    x = loc + scale * np.array([gamma_variate(shape, stream) for _ in range(n)])
    return np.clip(x, spec.clamp_lo, spec.clamp_hi) if clamp else x


def johnk_variate(a: float, b: float, stream) -> float:
    """Standard beta draw by Johnk's method, for min(a, b) <= 1."""
    while True:
        u = max(stream.uniform(), _TINY)
        v = max(stream.uniform(), _TINY)
        x = u ** (1.0 / a)
        y = v ** (1.0 / b)
        if x + y <= 1.0:
            if x + y > 0.0:
                return x / (x + y)
            # Underflow: fall back to log-scale comparison.
            lx = math.log(u) / a
            ly = math.log(v) / b
            m = max(lx, ly)
            return math.exp(lx - m) / (math.exp(lx - m) + math.exp(ly - m))


def johnk_one_by_one(spec, stream, n: int, clamp: bool = True) -> np.ndarray:
    """``n`` draws of a Johnk beta ``spec``, one two-uniform attempt at a time."""
    lo, hi, a, b = spec.params
    x = lo + (hi - lo) * np.array([johnk_variate(a, b, stream) for _ in range(n)])
    return np.clip(x, spec.clamp_lo, spec.clamp_hi) if clamp else x


def one_by_one(spec, stream, n: int, clamp: bool = True) -> np.ndarray:
    """``n`` draws of a gamma or beta ``spec`` through the per-attempt oracle of its sampler."""
    if spec.family == "gamma":
        return gamma_one_by_one(spec, stream, n, clamp)
    draw = cheng_one_by_one if is_cheng(spec) else johnk_one_by_one
    return draw(spec, stream, n, clamp)


def sample_one(spec, stream) -> float:
    """One clamped draw of ``spec``; a gamma and a beta go through the oracles."""
    draw = one_by_one if spec.family in ("gamma", "beta") else sample_many
    return float(draw(spec, stream, 1)[0])


ARITY = {"normal": 2, "lognormal": 3, "triangular": 3, "weibull": 3, "gamma": 3,
          "loglogistic": 3, "beta": 4, "johnsonsb": 4}


def spec_is_invalid(family: str, params: tuple, clamp_lo: float, clamp_hi: float) -> bool:
    """Whether ``DistributionSpec(family, params, clamp_lo, clamp_hi)`` must
    raise ``ParameterError``, one family's rules at a time."""
    fam, p = family.lower(), tuple(float(v) for v in params)
    if fam not in ARITY or len(p) != ARITY[fam] or not all(math.isfinite(v) for v in p):
        return True
    if fam == "normal" and p[1] <= 0:
        return True
    if fam == "lognormal" and p[2] <= 0:
        return True
    if fam == "triangular":
        lo, hi, mode = p
        if not (lo < hi and lo <= mode <= hi):
            return True
    if fam == "weibull" and (p[1] <= 0 or p[2] <= 0):
        return True
    if fam == "gamma" and (p[1] <= 0 or p[2] <= 0):
        return True
    if fam == "loglogistic" and (p[1] <= 0 or p[2] <= 0):
        return True
    if fam == "beta":
        lo, hi, a, b = p
        if lo >= hi or a <= 0 or b <= 0:
            return True
        if min(a, b) > 1 and not math.isfinite(2.0 * a * b):
            return True
    if fam == "johnsonsb" and (p[1] <= 0 or p[3] <= 0):
        return True
    return not clamp_lo < clamp_hi


def dense_forward(net, x) -> tuple:
    """``net``'s output on the rows ``x`` (shape (n, in_dim)) and the list of
    activations, input first."""
    a = np.asarray(x, dtype=float)
    cache = [a]
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = a @ w.T + b
        if act == "relu":
            a = np.maximum(z, 0.0)
        elif act == "linear":
            a = z
        else:  # softmax
            z = z - z.max(axis=1, keepdims=True)
            e = np.exp(z)
            a = e / e.sum(axis=1, keepdims=True)
        cache.append(a)
    return a, cache


def dense_backward(net, cache, grad_out) -> list:
    """Parameter gradients, aligned with ``net.parameters()``, of a loss with
    dL/d(output) ``grad_out`` (shape (n, out_dim)) at the activations ``cache``."""
    g = np.asarray(grad_out, dtype=float)
    grads = []
    for w, act, a_in, a_out in reversed(list(zip(net.weights, net.activations,
                                                 cache, cache[1:]))):
        if act == "relu":
            dz = g * (a_out > 0.0)
        elif act == "linear":
            dz = g
        else:  # softmax jacobian: dz = p * (g - sum(g * p))
            dz = a_out * (g - (g * a_out).sum(axis=1, keepdims=True))
        grads[:0] = (dz.T @ a_in, dz.sum(axis=0))
        g = dz @ w
    return grads


def priced_steps(config, seeds, actions) -> tuple:
    """An episode of ``config`` on the replications ``seeds`` played with
    ``actions`` (shape (n_days, replications)), one day at a time, each day
    priced as it is played.  Returns the list of each day's reward, the
    list of each day's info dict, and the final cumulative cost and
    cumulative cleanings."""
    weather = stack_weather(config.weather_model(), config.n_days, seeds, config.start_month)
    days = day_arrays(config, dict(weather))
    d_cal, price, taus = days["d_cal"].T, days["price"].T, days["tau"]
    sp = config.soiling
    shape = (len(seeds),)
    soiling = np.zeros(shape)
    cumulative_cost = np.zeros(shape)
    cumulative_cleanings = np.zeros(shape, dtype=np.int64)
    rewards, infos = [], []
    for t, action in enumerate(actions):
        cleaned = np.asarray(action) == 1
        cleaning_cost_incurred = np.where(cleaned, config.cleaning_cost, 0.0)
        soiling = phys.accumulate(np.where(cleaned, 0.0, soiling), d_cal[t], False,
                                  sp.beta_residue)
        tau = taus[t]
        eff = phys.efficiency(soiling, tau, sp)
        energy_loss = price[t] * (tau * sp.eff_max - eff)
        day_cost = energy_loss + cleaning_cost_incurred
        cumulative_cost = cumulative_cost + day_cost
        cumulative_cleanings = cumulative_cleanings + cleaned
        done = t + 1 >= config.n_days
        if config.reward_mode == "per_step":
            rewards.append(-day_cost)
        else:
            rewards.append(-cumulative_cost if done else np.zeros(shape))
        day_weather = {var: weather[var][:, t] for var in VARIABLES}
        day_weather["wind_speed"] = day_weather["wind_speed"] / KMH_PER_MS
        infos.append({"day": t, **day_weather, "soiling": soiling, "efficiency": eff,
                      "energy_loss_cost": energy_loss,
                      "cleaning_cost_incurred": cleaning_cost_incurred})
    return rewards, infos, cumulative_cost, cumulative_cleanings


def whole_normal_days(x, normal) -> None:
    """Map the columns ``normal`` of ``x`` through ``ndtri``, all at once."""
    x[:, normal] = ndtri(x[:, normal])


def reading_day_arrays(config, weather) -> dict:
    """``day_arrays`` of ``weather``, read without popping any variable."""
    sp = config.soiling
    n_days = weather["wind_speed"].shape[1]
    ws = weather["wind_speed"] / KMH_PER_MS
    d_cal = phys.calibrate(phys.daily_soiling(ws, weather["particulate_matter"]),
                           weather["relative_humidity"], sp.humidity_k)
    price = config.tariff * config.panel_area * (weather["irradiance"] / 1000.0)
    tau = phys.degradation_factor(np.arange(n_days) // 365, sp.annual_degradation)
    return {"d_cal": d_cal, "price": price, "tau": tau,
            "clean_panel_loss": (price * (tau * sp.eff_max)).sum(axis=1)}


def one_pass_total_cost(episode, t1: int) -> np.ndarray:
    """The day costs of ``episode``'s days [0, t1) added day by day to 0.0, all
    days priced at once."""
    costs = np.zeros((t1 + 1, *episode.soiling.shape[1:]))
    costs[1:] = episode.price(0, t1)[3]
    return np.add.accumulate(costs, axis=0)[-1]


def traced_peak(f):
    """``f()`` and the peak bytes traced while it ran, over those at its start.

    numpy reports each array's data to ``tracemalloc``, so the peak is
    exact bytes on any host."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        result = f()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
