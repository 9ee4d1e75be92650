"""Per-attempt reference samplers shared by the distribution and weather tests.

``pvclean.distributions.sample_many`` draws a Cheng-BB beta as a block and
lets numpy (``_cheng_accepts``) pick the accepted attempts.  The oracle
here draws one attempt at a time with the scalar acceptance test, so the
tests that compare against it stay independent of the numpy classifier.
"""

import numpy as np

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


def sample_one(spec, stream) -> float:
    """One clamped draw of ``spec``; a Cheng-BB beta goes through the oracle."""
    draw = cheng_one_by_one if is_cheng(spec) else sample_many
    return float(draw(spec, stream, 1)[0])
