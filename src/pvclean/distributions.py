"""Parametric distribution families for the monthly weather model.

Eight families are supported, with parameter orders matching the fitted
weather table shipped with the package:

* ``normal(mu, sigma)`` — mu + sigma * Z
* ``lognormal(loc, mu, sigma)`` — loc + exp(mu + sigma * Z)
* ``triangular(min, max, mode)`` — inverse CDF on one uniform
* ``weibull(loc, shape, scale)`` — loc + scale * (-ln U) ** (1/shape)
* ``gamma(loc, scale, shape)`` — loc + scale * G(shape), Marsaglia-Tsang
* ``beta(min, max, a, b)`` — min + (max-min) * B(a, b); Cheng BB when
  min(a, b) > 1, Johnk otherwise (fixed choice)
* ``johnsonsb(loc, range, d, x)`` — loc + range / (1 + exp(-(Z - d)/x))
* ``loglogistic(loc, shape, scale)`` — loc + scale * (U/(1-U)) ** (1/shape)

All normals come from the stream's inverse-CDF transform, so the inverse
transform families consume exactly one uniform per draw (:func:`transform`
maps uniforms to draws).  Gamma and beta are rejection samplers and consume
a variable (but deterministic, given the stream state) number of uniforms;
every weather variable owns its own stream, so this never perturbs the
other variables' draws.  :func:`sample_many` is the one sampler entry: it
draws a Cheng-BB beta as a block, with numpy deciding which attempts are
accepted, and leaves the stream where drawing one attempt at a time would.

Samples are clamped to the physical bounds carried by the spec.  Clamping
(rather than resampling) keeps stream alignment deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .rng import RandomStream

__all__ = ["DistributionSpec", "ParameterError", "FAMILY_ARITY", "INVERSE_FAMILIES",
           "transform", "sample_many"]

FAMILY_ARITY = {
    "normal": 2,
    "lognormal": 3,
    "triangular": 3,
    "weibull": 3,
    "gamma": 3,
    "loglogistic": 3,
    "beta": 4,
    "johnsonsb": 4,
}

# Families drawn by an inverse transform of exactly one uniform per value.
INVERSE_FAMILIES = frozenset(
    {"normal", "lognormal", "triangular", "weibull", "johnsonsb", "loglogistic"})

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
        if fam not in FAMILY_ARITY:
            raise ParameterError(f"unknown family {fam!r}")
        if len(p) != FAMILY_ARITY[fam]:
            raise ParameterError(
                f"{fam} takes {FAMILY_ARITY[fam]} parameters, got {len(p)}")
        if not all(math.isfinite(v) for v in p):
            raise ParameterError(f"{fam} parameters must be finite: {p}")
        if fam == "normal" and p[1] <= 0:
            raise ParameterError(f"normal sigma must be > 0, got {p[1]}")
        if fam == "lognormal" and p[2] <= 0:
            raise ParameterError(f"lognormal sigma must be > 0, got {p[2]}")
        if fam == "triangular":
            lo, hi, mode = p
            if not (lo < hi and lo <= mode <= hi):
                raise ParameterError(f"triangular needs min < max, min <= mode <= max: {p}")
        if fam == "weibull" and (p[1] <= 0 or p[2] <= 0):
            raise ParameterError(f"weibull shape and scale must be > 0: {p}")
        if fam == "gamma" and (p[1] <= 0 or p[2] <= 0):
            raise ParameterError(f"gamma scale and shape must be > 0: {p}")
        if fam == "loglogistic" and (p[1] <= 0 or p[2] <= 0):
            raise ParameterError(f"loglogistic shape and scale must be > 0: {p}")
        if fam == "beta":
            lo, hi, a, b = p
            if lo >= hi:
                raise ParameterError(f"beta needs min < max: {p}")
            if a <= 0 or b <= 0:
                raise ParameterError(f"beta shapes must be > 0: {p}")
        if fam == "johnsonsb" and (p[1] <= 0 or p[3] <= 0):
            raise ParameterError(f"johnsonsb range and shape-2 must be > 0: {p}")
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
        """Closed-form CDF for the inverse-transform families (test oracle)."""
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


def _gamma_variate(shape: float, stream: RandomStream) -> float:
    """Standard gamma draw, Marsaglia-Tsang squeeze method."""
    if shape < 1.0:
        # Boost: G(a) = G(a+1) * U^(1/a)
        u = max(stream.uniform(), _TINY)
        return _gamma_variate(shape + 1.0, stream) * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        z = stream.standard_normal()
        v = (1.0 + c * z) ** 3
        if v <= 0.0:
            continue
        u = max(stream.uniform(), _TINY)
        if u < 1.0 - 0.0331 * z ** 4:
            return d * v
        if math.log(u) < 0.5 * z * z + d * (1.0 - v + math.log(v)):
            return d * v


def _johnk_variate(a: float, b: float, stream: RandomStream) -> float:
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


def _cheng_constants(a: float, b: float) -> tuple:
    """Cheng BB's (a0, b0, alpha, beta, gamma) for shapes min(a, b) > 1."""
    a0, b0 = min(a, b), max(a, b)
    alpha = a0 + b0
    beta = math.sqrt((alpha - 2.0) / (2.0 * a0 * b0 - alpha))
    return a0, b0, alpha, beta, a0 + 1.0 / beta


def _cheng_accept(u1: float, u2: float, c: tuple) -> bool:
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


def _cheng_value(u1: float, a: float, c: tuple) -> float:
    """The beta variate an accepted Cheng BB attempt with first uniform u1 returns."""
    a0, b0, _, beta, _ = c
    w = a0 * math.exp(beta * math.log(u1 / (1.0 - u1)))
    return w / (b0 + w) if a == a0 else b0 / (b0 + w)


# numpy's exp and log may differ from math's by an ulp, which moves each
# term of a Cheng test by far less than this fraction of the terms' size.
_CHENG_MARGIN = 1e-9


def _cheng_accepts(u1: np.ndarray, u2: np.ndarray, c: tuple) -> np.ndarray:
    """:func:`_cheng_accept` of every attempt (u1[i], u2[i]), decided by numpy.

    numpy decides an attempt only when each of the three test margins is
    farther from 0 than ``_CHENG_MARGIN`` of the summed size of all terms;
    the rest, those with a non-finite margin or size among them, are
    decided by :func:`_cheng_accept`.
    """
    a0, b0, alpha, beta, gamma = c
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = beta * np.log(u1 / (1.0 - u1))
        w = a0 * np.exp(v)
        z = u1 * u1 * u2
        r = gamma * v - _LOG4
        s = a0 + r - w
        t = np.log(z)
        q = alpha * np.log(alpha / (b0 + w))
        m1, m2, m3 = s + 1.0 + _LOG5 - 5.0 * z, s - t, r + q - t
        size = ((a0 + alpha + 1.0 + _LOG4 + _LOG5) + np.abs(r) + w + np.abs(t)
                + np.abs(q) + 5.0 * z)
        # False for a NaN or infinite margin or size.
        sure = np.minimum(np.minimum(np.abs(m1), np.abs(m2)), np.abs(m3)) > _CHENG_MARGIN * size
    accept = (m1 >= 0.0) | (m2 >= 0.0) | (m3 >= 0.0)
    unsure = np.flatnonzero(~sure)
    accept[unsure] = [_cheng_accept(x, y, c)
                      for x, y in zip(u1[unsure].tolist(), u2[unsure].tolist())]
    return accept


def _cheng_variates(a: float, b: float, stream: RandomStream, n: int) -> np.ndarray:
    """``n`` standard Cheng-BB beta draws, for shapes min(a, b) > 1.

    Each attempt takes 2 uniforms (u1, u2) and is accepted by
    :func:`_cheng_accept`.  Peeks at a block of attempts (about 2.7 n + 4
    uniforms, doubled while it holds fewer than ``n`` acceptances), lets
    numpy find the first ``n`` accepted attempts, and skips the stream past
    the uniforms they used, so it ends where drawing one attempt at a time
    would leave it.  The variates come from the scalar expression
    :func:`_cheng_value`.
    """
    c = _cheng_constants(a, b)
    attempts = n + n // 3 + 2
    while True:
        u = stream.peek(2 * attempts)
        u1 = u[0::2]
        hits = np.flatnonzero(_cheng_accepts(u1, np.maximum(u[1::2], _TINY), c))[:n]
        if len(hits) == n:
            break
        attempts *= 2
    stream.skip(2 * int(hits[-1] + 1) if n else 0)
    return np.array([_cheng_value(v, a, c) for v in u1[hits].tolist()])


def transform(spec: DistributionSpec, u: np.ndarray) -> np.ndarray:
    """Unclamped draws of an inverse-transform family, one per uniform in ``u``."""
    fam, p = spec.family, spec.params
    if fam == "normal":
        mu, sigma = p
        return mu + sigma * ndtri(u)
    if fam == "lognormal":
        loc, mu, sigma = p
        return loc + np.exp(mu + sigma * ndtri(u))
    if fam == "triangular":
        lo, hi, mode = p
        c = (mode - lo) / (hi - lo)
        left = lo + np.sqrt(u * c) * (hi - lo)
        right = hi - np.sqrt((1.0 - u) * (1.0 - c)) * (hi - lo)
        return np.where(u < c, left, right)
    if fam == "weibull":
        loc, shape, scale = p
        return loc + scale * (-np.log(np.maximum(u, _TINY))) ** (1.0 / shape)
    if fam == "johnsonsb":
        loc, rng, d, xi = p
        return loc + rng / (1.0 + np.exp(-(ndtri(u) - d) / xi))
    if fam == "loglogistic":
        loc, shape, scale = p
        return loc + scale * (u / (1.0 - u)) ** (1.0 / shape)
    raise ParameterError(f"{fam} is not an inverse-transform family")


def _raw_samples(spec: DistributionSpec, stream: RandomStream, n: int) -> np.ndarray:
    fam, p = spec.family, spec.params
    if fam in INVERSE_FAMILIES:
        return transform(spec, stream.uniforms(n))
    if fam == "gamma":
        loc, scale, shape = p
        return loc + scale * np.array([_gamma_variate(shape, stream) for _ in range(n)])
    if fam == "beta":
        lo, hi, a, b = p
        x = (_cheng_variates(a, b, stream, n) if min(a, b) > 1.0
             else np.array([_johnk_variate(a, b, stream) for _ in range(n)]))
        return lo + (hi - lo) * x
    raise ParameterError(f"unknown family {fam!r}")  # pragma: no cover


def sample_many(spec: DistributionSpec, stream: RandomStream, n: int,
                clamp: bool = True) -> np.ndarray:
    """Draw ``n`` samples of ``spec`` in sequence, clamped unless ``clamp`` is false."""
    x = _raw_samples(spec, stream, int(n))
    if clamp:
        x = np.clip(x, spec.clamp_lo, spec.clamp_hi)
    return x
