"""Per-attempt reference samplers shared by the distribution and weather tests.

``pvclean.distributions.sample_many`` draws a gamma and a Cheng-BB beta as
a block: it peeks at the stream, maps the block through the in-tree
``ndtri`` at once, and (for Cheng BB) lets numpy (``_cheng_accepts``) pick
the accepted attempts.  The oracles here draw one uniform at a time, take
each normal from ``scipy.special.ndtri`` and test each attempt with scalar
code, so the tests that compare against them stay independent of the
block samplers and of the kernel.
"""

import math

import numpy as np
from scipy.special import ndtri

from pvclean.distributions import (_TINY, _cheng_accept, _cheng_constants, _cheng_value,
                                   sample_many)


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
        if _cheng_accept(u1, u2, c):
            x.append(_cheng_value(u1, a, c))
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


def sample_one(spec, stream) -> float:
    """One clamped draw of ``spec``; a gamma and a Cheng-BB beta go through the oracles."""
    if spec.family == "gamma":
        draw = gamma_one_by_one
    elif is_cheng(spec):
        draw = cheng_one_by_one
    else:
        draw = sample_many
    return float(draw(spec, stream, 1)[0])
