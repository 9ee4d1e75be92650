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

Every normal Z is :func:`ndtri` of one uniform: an in-tree port of cephes'
``ndtri``, equal bit for bit to ``scipy.special.ndtri``, so drawing needs
numpy alone.  The inverse-transform families consume exactly one uniform
per draw (:func:`transform` maps uniforms to draws).  Gamma and beta are
rejection samplers and consume a variable (but deterministic, given the
stream state) number of uniforms; every weather variable owns its own
stream, so this never perturbs the other variables' draws.
:func:`sample_many` draws from one stream and :func:`sample_streams` from
several, one row each.  Gamma and Cheng-BB beta peek at a block of each
stream and leave it where drawing one uniform at a time would; for a
Cheng-BB beta numpy decides which attempts are accepted, for all streams
in one pass.

Exactness rule: numpy's ``exp``, ``log`` and ``**`` may differ from
``math``'s (the C library's) by an ulp, so a value that the C library
computes stays scalar ``math`` code.  That covers the rejection tests and
values, and the two logs of ``ndtri``'s tails, where cephes calls the C
``log``: :func:`ndtri` takes them from numpy's element-by-element loop
over the C library's ``log`` (:func:`_logs`), never its vectorized one.

Samples are clamped to the physical bounds carried by the spec.  Clamping
(rather than resampling) keeps stream alignment deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RandomStream

__all__ = ["DistributionSpec", "ParameterError", "FAMILY_ARITY", "INVERSE_FAMILIES",
           "ndtri", "transform", "sample_many", "sample_streams"]

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


def _logs(x: np.ndarray) -> np.ndarray:
    """The C library's ``log`` (the one ``math.log`` and cephes call) of each
    element of a 1-D array.

    numpy's ``log`` runs its vectorized loop, which differs from the C
    library's on a few inputs in 10^4, only when the output and the input
    do not partly overlap; with the output one element behind the input it
    runs its element-by-element loop over the C library's ``log``.  A
    trailing 1.0 makes the two overlap even for one element.  That is ~15
    times faster than ``math.log``, whose per-call cost would otherwise
    dominate the tails.  The tests compare :func:`ndtri` with
    ``scipy.special.ndtri`` and this function with ``math.log``, so a numpy
    that vectorizes this case too fails them.
    """
    buf = np.ones(x.size + 2)
    buf[1:-1] = x
    return np.log(buf[1:], out=buf[:-1])[:-1]


def ndtri(p) -> np.ndarray:
    """Inverse of the standard normal CDF of each element of ``p``.

    Equal bit for bit to ``scipy.special.ndtri`` (cephes): -inf at 0, inf
    at 1, NaN outside [0, 1] and at NaN, with no warning.  numpy evaluates
    cephes' rational approximations in cephes' operation order, and the
    two logs of the tails, y <= exp(-2) from either end, are the C
    library's (:func:`_logs`).
    """
    p = np.asarray(p, dtype=float)
    flat = p.ravel()
    y = np.where(flat > 1.0 - _EXP_M2, 1.0 - flat, flat)
    # The central branch of every value; the rest are overwritten below, so
    # their overflow or inf - inf is ignored.
    with np.errstate(all="ignore"):
        t = y - 0.5
        t2 = t * t
        x = (t + t * (t2 * _polevl(t2, _P0) / _polevl(t2, _Q0))) * _SQRT_2PI
    rest = np.flatnonzero(~(y > _EXP_M2))
    x.put(rest, _ndtri_tails(flat.take(rest)))
    return x.reshape(p.shape)


def _ndtri_tails(p: np.ndarray) -> np.ndarray:
    """:func:`ndtri` of a 1-D array whose cephes y is not above exp(-2): the
    tails, 0 and 1, and the values outside [0, 1] and NaN."""
    flip = p > 1.0 - _EXP_M2
    y = np.where(flip, 1.0 - p, p)
    inside = y > 0.0                # 0 < p < 1; 0.5 stands in for the rest
    r = np.sqrt(-2.0 * _logs(np.where(inside, y, 0.5)))
    w = 1.0 / r
    r1 = w * _polevl(w, _P1) / _polevl(w, _Q1)
    far = np.flatnonzero(r >= 8.0)  # y < exp(-32)
    if far.size:
        r1[far] = w[far] * _polevl(w[far], _P2) / _polevl(w[far], _Q2)
    d = r - _logs(r) / r - r1
    d = np.where(flip, d, -d)
    return np.where(inside, d, np.where(y == 0.0, np.where(flip, np.inf, -np.inf), np.nan))


def _ndtri1(p: float) -> float:
    """:func:`ndtri` of one float in [0, 1]: the same operations on Python floats,
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


def _gamma_variates(shape: float, stream: RandomStream, n: int) -> np.ndarray:
    """``n`` standard gamma draws by the Marsaglia-Tsang squeeze method.

    Each attempt takes a normal, :func:`ndtri` of one uniform, and, unless
    ``v <= 0``, a second uniform for the squeeze and log tests.  For shape
    < 1 each draw first takes the uniform U of the boost G(a) = G(a + 1) *
    U^(1/a).  Peeks at a block of the stream and walks it with the scalar
    code (:func:`_ndtri1` for the normals), doubling the block if it runs
    out; the stream is then skipped past the uniforms used, so it ends
    where drawing one uniform at a time would.
    """
    boost = shape < 1.0
    d = (shape + 1.0 if boost else shape) - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    size = (3 if boost else 2) * n + n // 4 + 8
    while True:
        u = stream.peek(size).tolist()
        x = []
        i = 0
        try:
            for _ in range(n):
                if boost:
                    b = max(u[i], _TINY)
                    i += 1
                while True:
                    z = _ndtri1(u[i])
                    v = (1.0 + c * z) ** 3
                    i += 1
                    if v <= 0.0:
                        continue
                    w = max(u[i], _TINY)
                    i += 1
                    if (w < 1.0 - 0.0331 * z ** 4
                            or math.log(w) < 0.5 * z * z + d * (1.0 - v + math.log(v))):
                        break
                x.append(d * v * b ** (1.0 / shape) if boost else d * v)
        except IndexError:          # the block ran out: walk one twice as long
            size *= 2
            continue
        stream.skip(i)
        return np.array(x)


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
    """:func:`_cheng_accept` of every attempt (u1[i], u2[i]) of two same-shaped arrays.

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
    unsure = ~sure
    accept[unsure] = [_cheng_accept(x, y, c)
                      for x, y in zip(u1[unsure].tolist(), u2[unsure].tolist())]
    return accept


def _cheng_variates(a: float, b: float, streams: list, n: int) -> np.ndarray:
    """``n`` standard Cheng-BB beta draws from each stream, shaped (len(streams), n).

    For shapes min(a, b) > 1.  Each attempt takes 2 uniforms (u1, u2) and
    is accepted by :func:`_cheng_accept`.  Peeks at a block of attempts of
    every stream (about 2.7 n + 4 uniforms each), lets numpy classify all
    blocks in one pass, and doubles the block of each stream whose block
    holds fewer than ``n`` acceptances.  Each stream is then skipped past
    the uniforms its first ``n`` accepted attempts used, so it ends where
    drawing one attempt at a time would leave it.  The variates come from
    the scalar expression :func:`_cheng_value`.
    """
    if n == 0:
        return np.empty((len(streams), 0))
    c = _cheng_constants(a, b)
    u1 = [None] * len(streams)  # per stream, the first uniforms of its accepted attempts
    todo = list(range(len(streams)))
    attempts = n + n // 3 + 2
    while todo:
        u = np.array([streams[r].peek(2 * attempts) for r in todo])
        first = u[:, 0::2]
        accept = _cheng_accepts(first, np.maximum(u[:, 1::2], _TINY), c)
        short = []
        for r, row, accepted in zip(todo, first, accept):
            hits = np.flatnonzero(accepted)[:n]
            if len(hits) < n:
                short.append(r)
                continue
            streams[r].skip(2 * int(hits[-1] + 1))
            u1[r] = row[hits].tolist()
        todo = short
        attempts *= 2
    return np.array([[_cheng_value(v, a, c) for v in row] for row in u1])


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


def _is_cheng(spec: DistributionSpec) -> bool:
    """Whether ``spec`` is a beta drawn by Cheng BB (both shapes > 1)."""
    return spec.family == "beta" and min(spec.params[2:]) > 1.0


def _raw_samples(spec: DistributionSpec, stream: RandomStream, n: int) -> np.ndarray:
    fam, p = spec.family, spec.params
    if fam in INVERSE_FAMILIES:
        return transform(spec, stream.uniforms(n))
    if fam == "gamma":
        loc, scale, shape = p
        return loc + scale * _gamma_variates(shape, stream, n)
    if fam == "beta":
        lo, hi, a, b = p
        x = (_cheng_variates(a, b, [stream], n)[0] if _is_cheng(spec)
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


def sample_streams(spec: DistributionSpec, streams: list, n: int) -> np.ndarray:
    """``sample_many(spec, streams[r], n)`` as row r of one (len(streams), n) array.

    A Cheng-BB beta classifies the attempts of all streams in one numpy
    pass; every other family is drawn one stream at a time.
    """
    n = int(n)
    if not _is_cheng(spec):
        return np.array([sample_many(spec, s, n) for s in streams]).reshape(len(streams), n)
    lo, hi, a, b = spec.params
    x = lo + (hi - lo) * _cheng_variates(a, b, streams, n)
    return np.clip(x, spec.clamp_lo, spec.clamp_hi)
