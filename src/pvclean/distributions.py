"""Parametric distribution families for the monthly weather model.

Eight families are supported, with parameter orders matching the fitted
weather table shipped with the package:

* ``normal(mu, sigma)`` — mu + sigma * Z
* ``lognormal(loc, mu, sigma)`` — loc + exp(mu + sigma * Z)
* ``triangular(min, max, mode)`` — inverse CDF on one uniform
* ``weibull(loc, shape, scale)`` — loc + scale * (-ln U) ** (1/shape)
* ``gamma(loc, scale, shape)`` — loc + scale * G(shape), Marsaglia-Tsang
* ``beta(min, max, a, b)`` — min + (max-min) * B(a, b); Cheng BB when
  min(a, b) > 1, where 2ab must be finite, Johnk otherwise (fixed choice)
* ``johnsonsb(loc, range, d, xi)`` — loc + range / (1 + exp(-(Z - d)/xi))
* ``loglogistic(loc, shape, scale)`` — loc + scale * (U/(1-U)) ** (1/shape)

One table (``_FAMILIES``) holds each family's parameter names, the ones
that must be positive, and how it draws.  Every normal Z is :func:`ndtri`
of one uniform: an in-tree port of cephes' ``ndtri``, equal bit for bit to
``scipy.special.ndtri``, so drawing needs numpy alone.  The
inverse-transform families consume exactly one uniform per draw.  Gamma
and beta are rejection samplers and consume a variable (but
deterministic, given the stream state) number of uniforms; every weather
variable owns its own stream, so this never perturbs the other
variables' draws.
:func:`sample_many` draws from one stream, or from a list of streams with
one row each.  A rejection sampler peeks at a block of every stream,
decides every attempt of all blocks in one numpy pass, computes the
accepted draws, and leaves each stream where drawing one uniform at a time
would.  :func:`sample_days` draws a run of days whose spec changes from
day to day, such as a month-indexed weather variable.

Exactness rule: numpy's vectorized ``exp``, ``log`` and ``**`` may differ
from ``math``'s (the C library's) by an ulp.  Wherever the per-attempt
algorithm calls the C library (the rejection tests and draws of gamma,
Cheng BB and Johnk, and the two logs of ``ndtri``'s tails, where cephes
calls the C ``log``), numpy computes the value through :func:`_c`, which
runs numpy's element-by-element loop over the C library's function and
so equals ``math`` bit for bit.  The inverse transforms stay numpy's.

Samples are clamped to the physical bounds carried by the spec.  Clamping
(rather than resampling) keeps stream alignment deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rng import RandomStream

__all__ = ["DistributionSpec", "ParameterError", "ndtri", "sample_many", "sample_days"]

# How a family draws one value: from ndtri of one uniform, from one uniform,
# or by a rejection sampler that takes a variable number of uniforms.
_NORMAL, _UNIFORM, _REJECTION = range(3)
# Each family's parameter names in file order, the names that must be > 0,
# and its draw kind.
_FAMILIES = {
    "normal": (("mu", "sigma"), ("sigma",), _NORMAL),
    "lognormal": (("loc", "mu", "sigma"), ("sigma",), _NORMAL),
    "triangular": (("min", "max", "mode"), (), _UNIFORM),
    "weibull": (("loc", "shape", "scale"), ("shape", "scale"), _UNIFORM),
    "gamma": (("loc", "scale", "shape"), ("scale", "shape"), _REJECTION),
    "loglogistic": (("loc", "shape", "scale"), ("shape", "scale"), _UNIFORM),
    "beta": (("min", "max", "a", "b"), ("a", "b"), _REJECTION),
    "johnsonsb": (("loc", "range", "d", "xi"), ("range", "xi"), _NORMAL),
}

_LOG4 = math.log(4.0)
_LOG5 = math.log(5.0)
_TINY = 5e-324  # smallest positive subnormal; guards log(0)


class ParameterError(ValueError):
    """Invalid distribution parameters (raised at spec construction)."""


@dataclass(frozen=True)
class DistributionSpec:
    """One parametric family plus its physical clamp range.

    ``params`` is the ordered parameter tuple exactly as listed in the
    module docstring for the given family.
    """

    family: str
    params: tuple
    clamp_lo: float = -math.inf
    clamp_hi: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "family", self.family.lower())
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        self._validate()

    def _validate(self):
        fam, p = self.family, self.params
        if fam not in _FAMILIES:
            raise ParameterError(f"unknown family {fam!r}")
        names, positive, _ = _FAMILIES[fam]
        if len(p) != len(names):
            raise ParameterError(f"{fam} takes {len(names)} parameters, got {len(p)}")
        if not all(math.isfinite(v) for v in p):
            raise ParameterError(f"{fam} parameters must be finite: {p}")
        bad = [name for name, v in zip(names, p) if name in positive and not v > 0]
        if bad:
            raise ParameterError(f"{fam} {' and '.join(bad)} must be > 0: {p}")
        if fam == "triangular" and not (p[0] < p[1] and p[0] <= p[2] <= p[1]):
            raise ParameterError(f"triangular needs min < max, min <= mode <= max: {p}")
        # Cheng BB (a, b > 1) divides by 2ab - a - b: with 2ab = inf its
        # constants are 1/0 or NaN, and a draw with NaN ones never finishes.
        if fam == "beta" and not (p[0] < p[1] and (min(p[2:]) <= 1.0
                                                   or math.isfinite(2.0 * p[2] * p[3]))):
            raise ParameterError(f"beta needs min < max, and 2ab finite if a, b > 1: {p}")
        if not self.clamp_lo < self.clamp_hi:
            raise ParameterError(
                f"clamp_lo must be < clamp_hi: [{self.clamp_lo}, {self.clamp_hi}]")

    # Closed-form moments (before clamping), where available.  Used by the
    # statistical test oracles.

    def mean(self) -> float:
        fam, p = self.family, self.params
        if fam == "normal":
            return p[0]
        if fam == "lognormal":
            return p[0] + math.exp(p[1] + p[2] ** 2 / 2)
        if fam == "triangular":
            return (p[0] + p[1] + p[2]) / 3
        if fam == "weibull":
            return p[0] + p[2] * math.gamma(1 + 1 / p[1])
        if fam == "gamma":
            return p[0] + p[1] * p[2]
        if fam == "beta":
            lo, hi, a, b = p
            return lo + (hi - lo) * a / (a + b)
        raise ValueError(f"no closed-form mean for {fam}")

    def variance(self) -> float:
        fam, p = self.family, self.params
        if fam == "normal":
            return p[1] ** 2
        if fam == "lognormal":
            s2 = p[2] ** 2
            return (math.exp(s2) - 1) * math.exp(2 * p[1] + s2)
        if fam == "triangular":
            a, b, c = p
            return (a * a + b * b + c * c - a * b - a * c - b * c) / 18
        if fam == "weibull":
            g1 = math.gamma(1 + 1 / p[1])
            g2 = math.gamma(1 + 2 / p[1])
            return p[2] ** 2 * (g2 - g1 ** 2)
        if fam == "gamma":
            return p[1] ** 2 * p[2]
        if fam == "beta":
            lo, hi, a, b = p
            return (hi - lo) ** 2 * a * b / ((a + b) ** 2 * (a + b + 1))
        raise ValueError(f"no closed-form variance for {fam}")

    def cdf(self, x) -> np.ndarray:
        """Closed-form CDF for the inverse-transform families (test oracle).

        Needs scipy (``ndtr``), which only the ``test`` extra installs.
        """
        from scipy.special import ndtr

        fam, p = self.family, self.params
        x = np.asarray(x, dtype=float)
        if fam == "lognormal":
            loc, mu, sigma = p
            y = np.maximum(x - loc, 0.0)
            with np.errstate(divide="ignore"):
                return np.where(y > 0, ndtr((np.log(np.maximum(y, _TINY)) - mu) / sigma), 0.0)
        if fam == "loglogistic":
            loc, shape, scale = p
            y = np.maximum(x - loc, 0.0)
            with np.errstate(divide="ignore"):
                return np.where(y > 0, 1.0 / (1.0 + (y / scale) ** (-shape)), 0.0)
        if fam == "johnsonsb":
            loc, rng, d, xi = p
            y = (x - loc) / rng
            out = np.zeros_like(y)
            inside = (y > 0) & (y < 1)
            out[y >= 1] = 1.0
            yi = y[inside]
            out[inside] = ndtr(d + xi * np.log(yi / (1 - yi)))
            return out
        raise ValueError(
            f"cdf oracle only provided for lognormal/johnsonsb/loglogistic, not {fam}")


# cephes ndtri.c (Moshier): rational approximations of the inverse normal
# CDF, with coefficients from highest power to constant.  A leading 1.0 in
# a Q table is cephes' p1evl, whose first step 1.0 * x + q is exact.
_EXP_M2 = 0.13533528323661269189     # exp(-2): the central branch lies above it
_SQRT_2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# For sqrt(-2 log y) in [2, 8), i.e. exp(-32) < y <= exp(-2).
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# For sqrt(-2 log y) >= 8.
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """cephes' ``polevl``: the polynomial ``coef`` at ``x`` by Horner's rule, in its order."""
    ans = coef[0] * x
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _overlapped(ufunc, x: np.ndarray, *args) -> np.ndarray:
    """``ufunc(x, *args)`` of a 1-D array, written one element behind its input.

    A trailing 1.0 makes output and input overlap even for one element.
    Each scalar argument is passed as an array: numpy's ``power`` computes
    a scalar exponent of 2, 0.5 or -1 as ``x * x``, ``sqrt(x)`` or
    ``1 / x``, which differ from the C library's ``pow``.
    """
    buf = np.empty(x.size + 2)
    buf[1:-1] = x
    buf[-1] = 1.0
    return ufunc(buf[1:], *[np.full(x.size + 1, a) for a in args], out=buf[:-1])[:-1]


# The C library function each ufunc that _c takes stands for.
_LIBM = {np.exp: math.exp, np.log: math.log, np.power: math.pow}


def _libm(ufunc, x: np.ndarray, args: tuple) -> np.ndarray:
    """:func:`_c` of a 1-D array through ``math``, one element at a time."""
    f = _LIBM[ufunc]
    out = []
    for v in x.tolist():
        try:
            out.append(f(v, *args))
        except (ValueError, OverflowError):  # where the C library returns inf or nan
            out.append(float(ufunc(v, *args)))
    return np.array(out, dtype=float)


@functools.cache
def _overlap_is_libm() -> bool:
    """Whether :func:`_overlapped` equals ``math`` on a fixed probe set.

    The probes include inputs where numpy's vectorized ``exp``, ``log``
    and ``power`` differ from the C library's.
    """
    x = np.arange(1, 1025) * 0.6180339887498949 % 1.0
    probes = [(np.exp, x * 60.0 - 30.0, ()), (np.log, x * 1e3, ()),
              (np.power, x * 8.0 - 4.0, (2.0,)), (np.power, x * 8.0 - 4.0, (3.0,)),
              (np.power, x, (1.0 / 1.06,))]
    return all(_overlapped(f, v, *a).tobytes() == _libm(f, v, a).tobytes()
               for f, v, a in probes)


def _c(ufunc, x, *args) -> np.ndarray:
    """``ufunc(x, *args)`` elementwise, equal bit for bit to the C library
    function that ``math`` calls: ``np.exp`` to ``math.exp``, ``np.log`` to
    ``math.log`` and ``np.power`` (with a scalar exponent) to Python's ``**``.

    numpy's vectorized loops for these differ from the C library's on up to
    a few inputs in 100.  When the output sits one element behind the input
    (:func:`_overlapped`), numpy runs its element-by-element loop over the C
    library's function instead: ~10 ns a value for ``exp`` and ``log`` and
    ~30 ns for ``power``, against ~100 ns for ``math``.  That is numpy
    behaviour, not documented API, so the first call checks it on a fixed
    probe set (:func:`_overlap_is_libm`); where it does not hold, every
    call takes the slower per-element ``math`` path, with the same bits.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    y = _overlapped(ufunc, flat, *args) if _overlap_is_libm() else _libm(ufunc, flat, args)
    return y.reshape(x.shape)


# ndtri works through blocks of at most this many values, so that its
# temporaries stay small: in cache, and reused by the allocator rather than
# mapped afresh (and page-faulted in) on every call.
_BLOCK = 1 << 15


def ndtri(p) -> np.ndarray:
    """Inverse of the standard normal CDF of each element of ``p``.

    Equal bit for bit to ``scipy.special.ndtri`` (cephes): -inf at 0, inf
    at 1, NaN outside [0, 1] and at NaN, with no warning.  numpy evaluates
    cephes' rational approximations in cephes' operation order, and the
    two logs of the tails, y <= exp(-2) from either end, are the C
    library's (:func:`_c`).
    """
    p = np.asarray(p, dtype=float)
    flat = p.ravel()
    x = np.empty(flat.shape)
    for i in range(0, flat.size, _BLOCK):
        x[i:i + _BLOCK] = _ndtri_block(flat[i:i + _BLOCK])
    return x.reshape(p.shape)


def _ndtri_block(p: np.ndarray) -> np.ndarray:
    """:func:`ndtri` of a 1-D array."""
    y = np.where(p > 1.0 - _EXP_M2, 1.0 - p, p)
    # The central branch of every value; the rest are overwritten below, so
    # their overflow or inf - inf is ignored.
    with np.errstate(all="ignore"):
        t = y - 0.5
        t2 = t * t
        x = (t + t * (t2 * _polevl(t2, _P0) / _polevl(t2, _Q0))) * _SQRT_2PI
    rest = np.flatnonzero(~(y > _EXP_M2))
    x.put(rest, _ndtri_tails(p.take(rest)))
    return x


def _ndtri_tails(p: np.ndarray) -> np.ndarray:
    """:func:`ndtri` of a 1-D array whose cephes y is not above exp(-2): the
    tails, 0 and 1, and the values outside [0, 1] and NaN."""
    flip = p > 1.0 - _EXP_M2
    y = np.where(flip, 1.0 - p, p)
    inside = y > 0.0                # 0 < p < 1; 0.5 stands in for the rest
    r = np.sqrt(-2.0 * _c(np.log, np.where(inside, y, 0.5)))
    w = 1.0 / r
    r1 = w * _polevl(w, _P1) / _polevl(w, _Q1)
    far = np.flatnonzero(r >= 8.0)  # y < exp(-32)
    if far.size:
        r1[far] = w[far] * _polevl(w[far], _P2) / _polevl(w[far], _Q2)
    d = r - _c(np.log, r) / r - r1
    d = np.where(flip, d, -d)
    return np.where(inside, d, np.where(y == 0.0, np.where(flip, np.inf, -np.inf), np.nan))


# A rejection draw gives up once a block of this many uniforms a draw still
# leaves a stream short.  Blocks double from a few uniforms a draw, so a
# spec fails when its attempts are accepted less often than about once in
# a few hundred (a Johnk beta with b huge, whose v^(1/b) rounds to 1,
# accepts next to none); fitted weather shapes take a few attempts a draw.
# Each short stream holds its block, so a month of 31 draws holds at most
# 254 KB a replication when it fails.
_MAX_UNIFORMS_PER_DRAW = 1024
# Uniforms decided at once: a block of many streams is split into groups of
# rows, so that its temporaries stay tens of MB.
_MAX_PEEK = 1 << 20


def _blockwise(streams: list, n: int, size: int, block) -> np.ndarray:
    """``n`` draws from each stream, shaped (len(streams), n), block by block.

    Peeks at ``size`` uniforms of every unfinished stream, and
    ``block(u)`` decides every attempt of all rows of ``u`` at once.  It
    returns which rows hold ``n`` draws, and for those rows the uniforms
    the draws use and the draws.  Each finished stream is skipped past the
    uniforms it used, so it ends where drawing one uniform at a time
    would; the rest are peeked again, twice as long.  Raises
    ``ParameterError`` once a block would exceed
    ``_MAX_UNIFORMS_PER_DRAW * n`` uniforms a stream.
    """
    x = np.empty((len(streams), n))
    todo = np.arange(len(streams) if n else 0)
    while todo.size:
        if size > _MAX_UNIFORMS_PER_DRAW * n:
            raise ParameterError(f"fewer than {n} draws in a block of {size // 2:,} "
                                 f"uniforms: it accepts too few attempts to draw")
        # Rows are decided independently, so any grouping gives the same draws.
        step = max(1, _MAX_PEEK // size)
        short = np.empty(todo.size, dtype=bool)
        for i in range(0, todo.size, step):
            rows = todo[i:i + step]
            done, used, draws = block(np.array([streams[r].peek(size) for r in rows]))
            for r, k in zip(rows[done].tolist(), used):
                streams[r].skip(k)
            x[rows[done]] = draws
            short[i:i + step] = ~done
        todo, size = todo[short], 2 * size
    return x


def _gamma_variates(shape: float, streams: list, n: int) -> np.ndarray:
    """``n`` standard gamma draws from each stream by the Marsaglia-Tsang
    squeeze method, shaped (len(streams), n).

    Each attempt takes a normal z, :func:`ndtri` of one uniform, and, unless
    v = (1 + c z)^3 <= 0, a second uniform w for the squeeze and log tests.
    For shape < 1 each draw first takes the uniform b of the boost G(a) =
    G(a + 1) * b^(1/a).  Every position of a block (:func:`_blockwise`) is
    decided in one numpy pass as if an attempt started there;
    :func:`_gamma_walk` then finds each stream's attempt boundaries.
    """
    boost = shape < 1.0
    d = (shape + 1.0 if boost else shape) - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)

    def block(u):
        z = ndtri(u)
        v = _c(np.power, 1.0 + c * z, 3.0)
        # An attempt at position i takes its w from position i + 1.
        z, vz, w = z[:, :-1], v[:, :-1], np.maximum(u[:, 1:], _TINY)
        live = vz > 0.0
        accept = live & (w < 1.0 - 0.0331 * _c(np.power, z, 4.0))
        log = live & ~accept
        zl, vl = z[log], vz[log]
        accept[log] = _c(np.log, w[log]) < 0.5 * zl * zl + d * (1.0 - vl + _c(np.log, vl))
        code = live.astype(np.int8)
        code += accept
        walks = [_gamma_walk(row, n, boost) for row in code.tolist()]
        done = np.array([walk is not None for walk in walks])
        walks = [walk for walk in walks if walk is not None]
        k = np.flatnonzero(done)[:, None]
        hits = np.array([walk[1] for walk in walks], dtype=np.intp).reshape(k.size, n)
        draws = d * v[k, hits]
        if boost:
            b = u[k, np.array([walk[2] for walk in walks], dtype=np.intp).reshape(k.size, n)]
            draws *= _c(np.power, np.maximum(b, _TINY), 1.0 / shape)
        return done, [walk[0] for walk in walks], draws

    return _blockwise(streams, n, (3 if boost else 2) * n + n // 4 + 8, block)


def _gamma_walk(code: list, n: int, boost: bool) -> tuple | None:
    """Walk ``n`` gamma draws through one block.

    ``code[i]`` says what the attempt starting at position i does: 0 if
    v <= 0 (it takes one uniform), 1 if it is rejected and 2 if accepted
    (two uniforms each).  Returns the uniforms used, the position of each
    draw's accepted normal, and the position of each draw's boost uniform
    (none unless ``boost``); or None when the block runs out.
    """
    i = 0
    hits, boosts = [], []
    try:
        for _ in range(n):
            if boost:
                boosts.append(i)
                i += 1
            while code[i] != 2:
                i += code[i] + 1
            hits.append(i)
            i += 2
    except IndexError:
        return None
    return i, hits, boosts


def _first_accepted(streams: list, n: int, attempts: int, attempt) -> np.ndarray:
    """``n`` draws from each stream of a sampler whose attempts each take two
    uniforms (u1, u2), shaped (len(streams), n).

    The first block holds ``attempts`` attempts a stream (:func:`_blockwise`),
    and ``attempt(u1, u2)`` returns, in one call for all blocks, whether each
    attempt is accepted and the draw it gives if it is.  A stream's draws are
    those of its first ``n`` accepted attempts.
    """
    def block(u):
        accept, draws = attempt(u[:, 0::2], u[:, 1::2])
        count = np.cumsum(accept, axis=1)
        done = count[:, -1] >= n
        last = np.argmax(count[done] >= n, axis=1)  # each stream's n-th acceptance
        draws = draws[done][accept[done] & (count[done] <= n)].reshape(-1, n)
        return done, (2 * last + 2).tolist(), draws

    return _blockwise(streams, n, 2 * attempts, block)


def _johnk_variates(a: float, b: float, streams: list, n: int) -> np.ndarray:
    """``n`` standard beta draws from each stream by Johnk's method, for min(a, b) <= 1.

    An attempt (u, v) gives x = u^(1/a) and y = v^(1/b), and is accepted
    when x + y <= 1.  The draw is x / (x + y), or, where x + y underflows
    to 0, the same ratio from logs.
    """
    def attempt(u1, u2):
        u, v = np.maximum(u1, _TINY), np.maximum(u2, _TINY)
        x, y = _c(np.power, u, 1.0 / a), _c(np.power, v, 1.0 / b)
        s = x + y
        with np.errstate(invalid="ignore"):
            draws = x / s
        under = s == 0.0
        if under.any():
            lx, ly = _c(np.log, u[under]) / a, _c(np.log, v[under]) / b
            m = np.maximum(lx, ly)
            e = _c(np.exp, lx - m)
            draws[under] = e / (e + _c(np.exp, ly - m))
        return s <= 1.0, draws

    return _first_accepted(streams, n, 2 * n + 2, attempt)


def _cheng_constants(a: float, b: float) -> tuple:
    """Cheng BB's (a0, b0, alpha, beta, gamma) for shapes min(a, b) > 1."""
    a0, b0 = min(a, b), max(a, b)
    alpha = a0 + b0
    beta = math.sqrt((alpha - 2.0) / (2.0 * a0 * b0 - alpha))
    return a0, b0, alpha, beta, a0 + 1.0 / beta


def _cheng_accepts(u1: np.ndarray, u2: np.ndarray, c: tuple) -> tuple:
    """Whether Cheng BB accepts each attempt (u1[i], u2[i]) of two
    same-shaped arrays, and the w = a0 (u1 / (1 - u1))^beta of each.

    The per-attempt expressions of Cheng (1978), with the C library's
    ``exp`` and ``log`` (:func:`_c`); the two log tests are evaluated only
    where the squeeze test rejects.  An attempt with u1 outside (0, 1) is
    rejected.
    """
    a0, b0, alpha, beta, gamma = c
    inside = (u1 > 0.0) & (u1 < 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = beta * _c(np.log, u1 / (1.0 - u1))
        w = a0 * _c(np.exp, v)
        z = u1 * u1 * u2
        r = gamma * v - _LOG4
        s = a0 + r - w
        accept = s + 1.0 + _LOG5 >= 5.0 * z
        rest = inside & ~accept
        t = _c(np.log, z[rest])
        accept[rest] = (s[rest] >= t) | (r[rest] + alpha * _c(np.log, alpha / (b0 + w[rest])) >= t)
    return accept & inside, w


def _cheng_variates(a: float, b: float, streams: list, n: int) -> np.ndarray:
    """``n`` standard Cheng-BB beta draws from each stream, shaped (len(streams), n).

    For shapes min(a, b) > 1.  Each attempt takes 2 uniforms (u1, u2) and
    is classified by :func:`_cheng_accepts`; the first block holds n + n // 3
    + 2 attempts a stream (:func:`_first_accepted`).  An accepted attempt's
    draw is w / (b0 + w), or b0 / (b0 + w) when a is the larger shape.
    """
    c = _cheng_constants(a, b)
    b0 = c[1]

    def attempt(u1, u2):
        accept, w = _cheng_accepts(u1, np.maximum(u2, _TINY), c)
        return accept, w / (b0 + w) if a == c[0] else b0 / (b0 + w)

    return _first_accepted(streams, n, n + n // 3 + 2, attempt)


def _inverse(spec: DistributionSpec, x: np.ndarray) -> np.ndarray:
    """Unclamped draws of an inverse-transform family, one per uniform u:
    ``x`` holds ``ndtri(u)`` for a family drawn from a normal, else u."""
    fam, p = spec.family, spec.params
    if fam == "normal":
        mu, sigma = p
        return mu + sigma * x
    if fam == "lognormal":
        loc, mu, sigma = p
        return loc + np.exp(mu + sigma * x)
    if fam == "johnsonsb":
        loc, rng, d, xi = p
        return loc + rng / (1.0 + np.exp(-(x - d) / xi))
    if fam == "triangular":
        lo, hi, mode = p
        c = (mode - lo) / (hi - lo)
        left = lo + np.sqrt(x * c) * (hi - lo)
        right = hi - np.sqrt((1.0 - x) * (1.0 - c)) * (hi - lo)
        return np.where(x < c, left, right)
    loc, shape, scale = p
    if fam == "weibull":
        return loc + scale * (-np.log(np.maximum(x, _TINY))) ** (1.0 / shape)
    return loc + scale * (x / (1.0 - x)) ** (1.0 / shape)  # loglogistic


def sample_many(spec: DistributionSpec, streams, n: int, clamp: bool = True) -> np.ndarray:
    """Draw ``n`` samples of ``spec`` in sequence, clamped unless ``clamp`` is false.

    ``streams`` is one :class:`~pvclean.rng.RandomStream`, giving shape
    (n,), or a list of them, giving (len(streams), n).  Row r then equals
    the draws from ``streams[r]`` alone, and leaves that stream where they
    would.  A gamma or beta draws every stream in one numpy pass, and
    raises ``ParameterError`` naming the spec when its attempts are
    accepted too rarely to draw (:func:`_blockwise`).
    """
    one = isinstance(streams, RandomStream)
    rows, n = [streams] if one else list(streams), int(n)
    p, kind = spec.params, _FAMILIES[spec.family][2]
    if kind != _REJECTION:
        u = np.array([s.uniforms(n) for s in rows]).reshape(len(rows), n)
        x = _inverse(spec, ndtri(u) if kind == _NORMAL else u)
    else:
        try:
            if spec.family == "gamma":
                x = p[0] + p[1] * _gamma_variates(p[2], rows, n)
            else:
                lo, hi, a, b = p
                draw = _cheng_variates if min(a, b) > 1.0 else _johnk_variates
                x = lo + (hi - lo) * draw(a, b, rows, n)
        except ParameterError as exc:
            raise ParameterError(f"{spec.family}{p}: {exc}") from None
    if clamp:
        x = np.clip(x, spec.clamp_lo, spec.clamp_hi)
    return x[0] if one else x


def sample_days(specs: list, index, streams: list) -> np.ndarray:
    """Clamped draws for a run of days, day i from ``specs[index[i]]``, one row per stream.

    Row r is draw-for-draw identical to drawing each day in order, one value
    at a time, from ``streams[r]``: the same values, and the stream left with
    the same ``counter`` and the same next uniform.  Each maximal stretch of
    inverse-transform days takes one ``uniforms`` call per stream, one
    :func:`ndtri` call maps the uniforms of every day drawn from a normal,
    and each spec's transform runs once over all rows; each stretch of days
    on one rejection spec takes one :func:`sample_many` call over all streams.
    """
    index = np.asarray(index, dtype=np.intp)
    kinds = np.array([_FAMILIES[spec.family][2] for spec in specs])
    rejection = kinds == _REJECTION
    # Stretch key: -1 on inverse-transform days, the spec's index on the
    # others, so consecutive inverse-transform days make one stretch.
    key = np.where(rejection[index], index, -1)
    starts = np.flatnonzero(np.diff(key, prepend=-2))
    # Inverse-transform days hold their uniforms until they are transformed.
    x = np.empty((len(streams), len(index)))
    for start, stop in zip(starts, [*starts[1:], len(index)]):
        if key[start] < 0:
            for row, stream in zip(x, streams):
                row[start:stop] = stream.uniforms(stop - start)
        else:
            x[:, start:stop] = sample_many(specs[key[start]], streams, stop - start)
    normal = np.flatnonzero((kinds == _NORMAL)[index])
    x[:, normal] = ndtri(x[:, normal])
    for i in np.flatnonzero(~rejection):
        spec = specs[i]
        days = np.flatnonzero(index == i)
        x[:, days] = np.clip(_inverse(spec, x[:, days]), spec.clamp_lo, spec.clamp_hi)
    return x
