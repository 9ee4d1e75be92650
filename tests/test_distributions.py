"""Distribution families: validation, formula oracles, and statistics.

Formula oracles replay the same stream through an independently written
inverse transform; statistical checks compare empirical moments against the
closed forms and KS distance against the CDF oracle.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from pvclean import distributions
from pvclean.distributions import (DistributionSpec, ParameterError, _cheng_accept,
                                   _cheng_accepts, _cheng_constants, sample_many)
from pvclean.rng import RandomStream
from pvclean.weather import VARIABLES, default_model

from oracles import cheng_one_by_one, is_cheng


def draws(spec, n, seed=0, clamp=False):
    return sample_many(spec, RandomStream(seed), n, clamp=clamp)


# -- validation ------------------------------------------------------------


def test_unknown_family_rejected():
    with pytest.raises(ParameterError):
        DistributionSpec("cauchy", (0.0, 1.0))


@pytest.mark.parametrize("family, params", [
    ("normal", (0.0,)),
    ("normal", (0.0, 1.0, 2.0)),
    ("lognormal", (0.0, 1.0)),
    ("beta", (0.0, 1.0, 2.0)),
])
def test_wrong_arity_rejected(family, params):
    with pytest.raises(ParameterError):
        DistributionSpec(family, params)


@pytest.mark.parametrize("family, params", [
    ("normal", (0.0, 0.0)),
    ("normal", (0.0, -1.0)),
    ("lognormal", (0.0, 1.0, -0.5)),
    ("triangular", (1.0, 0.0, 0.5)),       # min > max
    ("triangular", (0.0, 1.0, 2.0)),       # mode outside
    ("weibull", (0.0, -1.0, 1.0)),
    ("weibull", (0.0, 1.0, 0.0)),
    ("gamma", (0.0, 0.0, 1.0)),
    ("loglogistic", (0.0, 0.0, 1.0)),
    ("beta", (1.0, 1.0, 2.0, 2.0)),        # min == max
    ("beta", (0.0, 1.0, -1.0, 2.0)),
    ("johnsonsb", (0.0, -1.0, 0.0, 1.0)),
    ("johnsonsb", (0.0, 1.0, 0.0, 0.0)),
    ("normal", (float("nan"), 1.0)),
])
def test_invalid_parameters_rejected(family, params):
    with pytest.raises(ParameterError):
        DistributionSpec(family, params)


def test_invalid_clamp_rejected():
    with pytest.raises(ParameterError):
        DistributionSpec("normal", (0.0, 1.0), clamp_lo=1.0, clamp_hi=0.0)


def test_family_name_case_insensitive():
    assert DistributionSpec("Normal", (0.0, 1.0)).family == "normal"


# -- formula oracles (exact replay of the stream's uniforms) ----------------


def test_normal_formula():
    spec = DistributionSpec("normal", (3.0, 2.0))
    u = RandomStream(1).uniforms(100)
    np.testing.assert_array_equal(draws(spec, 100, seed=1), 3.0 + 2.0 * ndtri(u))


def test_lognormal_formula():
    spec = DistributionSpec("lognormal", (17.0, 1.16, 0.559))
    u = RandomStream(2).uniforms(100)
    np.testing.assert_array_equal(
        draws(spec, 100, seed=2), 17.0 + np.exp(1.16 + 0.559 * ndtri(u)))


def test_triangular_formula():
    lo, hi, mode = 18.0, 31.6, 22.2
    spec = DistributionSpec("triangular", (lo, hi, mode))
    u = RandomStream(3).uniforms(200)
    c = (mode - lo) / (hi - lo)
    expect = np.where(u < c,
                      lo + np.sqrt(u * c) * (hi - lo),
                      hi - np.sqrt((1 - u) * (1 - c)) * (hi - lo))
    np.testing.assert_array_equal(draws(spec, 200, seed=3), expect)


def test_weibull_formula():
    spec = DistributionSpec("weibull", (1.93e3, 4.79, 2.7e3))
    u = RandomStream(4).uniforms(100)
    np.testing.assert_array_equal(
        draws(spec, 100, seed=4), 1.93e3 + 2.7e3 * (-np.log(u)) ** (1 / 4.79))


def test_johnsonsb_formula():
    spec = DistributionSpec("johnsonsb", (0.0, 89.0, -0.606, 1.89))
    z = ndtri(RandomStream(5).uniforms(100))
    np.testing.assert_array_equal(
        draws(spec, 100, seed=5), 89.0 / (1 + np.exp(-(z + 0.606) / 1.89)))


def test_loglogistic_formula():
    spec = DistributionSpec("loglogistic", (0.0, 12.0, 61.7))
    u = RandomStream(6).uniforms(100)
    np.testing.assert_array_equal(
        draws(spec, 100, seed=6), 61.7 * (u / (1 - u)) ** (1 / 12.0))


def test_triangular_hits_both_branches_and_stays_in_range():
    spec = DistributionSpec("triangular", (0.0, 10.0, 2.0))
    x = draws(spec, 5000, seed=7)
    assert np.all((x >= 0.0) & (x <= 10.0))
    assert np.any(x < 2.0) and np.any(x > 2.0)


# -- moment checks against closed forms ------------------------------------

_MOMENT_SPECS = [
    DistributionSpec("normal", (34.9, 1.64)),
    DistributionSpec("lognormal", (3.77, 1.82, 0.672)),
    DistributionSpec("triangular", (18.0, 31.6, 22.2)),
    DistributionSpec("weibull", (1.93e3, 4.79, 2.7e3)),
    DistributionSpec("gamma", (0.0, 59.1, 1.06)),
    DistributionSpec("beta", (1.61e3, 6.7e3, 4.96, 2.23)),
]


@pytest.mark.parametrize("spec", _MOMENT_SPECS, ids=lambda s: s.family)
def test_empirical_moments_match_closed_form(spec):
    n = 100_000
    x = draws(spec, n, seed=11)
    se_mean = x.std(ddof=1) / math.sqrt(n)
    assert abs(x.mean() - spec.mean()) < 4 * se_mean
    m = x.mean()
    se_var = np.sqrt((((x - m) ** 2).var(ddof=1)) / n)
    assert abs(x.var(ddof=1) - spec.variance()) < 4 * se_var


@pytest.mark.parametrize("spec", [
    DistributionSpec("johnsonsb", (0.0, 80.4, -1.19, 1.48)),
    DistributionSpec("loglogistic", (0.0, 10.3, 45.2)),
], ids=lambda s: s.family)
def test_ks_distance_against_cdf_oracle(spec):
    n = 100_000
    x = np.sort(draws(spec, n, seed=13))
    cdf = spec.cdf(x)
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    ks = max(np.abs(cdf - empirical_hi).max(), np.abs(cdf - empirical_lo).max())
    assert ks <= 0.01


def test_gamma_small_shape_boost_path():
    spec = DistributionSpec("gamma", (0.0, 1.0, 0.5))
    x = draws(spec, 50_000, seed=17)
    assert np.all(x >= 0.0)
    assert abs(x.mean() - 0.5) < 4 * x.std(ddof=1) / math.sqrt(len(x))


def test_beta_johnk_path_small_shapes():
    spec = DistributionSpec("beta", (0.0, 1.0, 0.6, 0.9))
    x = draws(spec, 50_000, seed=19)
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert abs(x.mean() - 0.4) < 4 * x.std(ddof=1) / math.sqrt(len(x))


# -- clamping and reproducibility ------------------------------------------


def test_clamp_applied():
    spec = DistributionSpec("normal", (0.0, 1.0), clamp_lo=-0.5, clamp_hi=0.5)
    x = sample_many(spec, RandomStream(23), 1000)
    assert np.all((x >= -0.5) & (x <= 0.5))
    assert np.any(x == -0.5) and np.any(x == 0.5)


def test_unclamped_draws_exceed_clamp():
    spec = DistributionSpec("normal", (0.0, 1.0), clamp_lo=-0.5, clamp_hi=0.5)
    x = sample_many(spec, RandomStream(23), 1000, clamp=False)
    assert np.any(x < -0.5) and np.any(x > 0.5)


def test_sample_matches_sample_many():
    # Draws one at a time equal one block of draws, for each rejection sampler.
    for spec in (DistributionSpec("gamma", (1.0, 2.0, 3.0)),
                 DistributionSpec("beta", (0.0, 1.0, 0.6, 3.0)),
                 DistributionSpec("beta", (0.0, 1.0, 4.96, 2.23))):
        a = RandomStream(29)
        b = RandomStream(29)
        singles = np.concatenate([sample_many(spec, a, 1) for _ in range(32)])
        np.testing.assert_array_equal(singles, sample_many(spec, b, 32))
        assert a.counter == b.counter


def test_rejection_samplers_are_reproducible():
    for spec in (DistributionSpec("gamma", (0.0, 59.1, 1.06)),
                 DistributionSpec("beta", (0.0, 73.0, 5.98, 1.74))):
        np.testing.assert_array_equal(draws(spec, 500, seed=31),
                                      draws(spec, 500, seed=31))


# -- Cheng BB: numpy classification and speculative blocks ------------------

_MODEL = default_model()
_DEFAULT_CHENG = [_MODEL.spec(m, var) for m in range(1, 13) for var in VARIABLES
                  if is_cheng(_MODEL.spec(m, var))]
_TOP = 1.0 - 2.0 ** -53  # the largest uniform a stream returns


def test_default_model_has_five_cheng_cells():
    assert len(_DEFAULT_CHENG) == 5


def accept_boundary(c, u1):
    """The adjacent u2 floats between which _cheng_accept(u1, u2) turns false.

    Acceptance means z = u1*u1*u2 is small enough, so it is monotone in u2;
    bisect over the ordered bit patterns of the positive floats.
    """
    lo, hi = np.float64(5e-324).view(np.int64), np.float64(_TOP).view(np.int64)
    if not _cheng_accept(u1, float(lo.view(np.float64)), c) or _cheng_accept(u1, _TOP, c):
        return []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _cheng_accept(u1, float(mid.view(np.float64)), c):
            lo = mid
        else:
            hi = mid
    return [float(lo.view(np.float64)), float(hi.view(np.float64))]


@pytest.mark.parametrize("spec", _DEFAULT_CHENG, ids=lambda s: f"beta{s.params[2:]}")
def test_cheng_classifier_matches_scalar_accept(spec, monkeypatch):
    c = _cheng_constants(*spec.params[2:])
    u = RandomStream(41).uniforms(200_000)
    u1, u2 = list(u[0::2]), list(np.maximum(u[1::2], 5e-324))
    edges = [0.0, 5e-324, 2.0 ** -53, 0.5, _TOP]
    for x in edges:
        for y in edges[1:]:
            u1.append(x)
            u2.append(y)
    boundary = []
    for x in RandomStream(43).uniforms(50):
        boundary += [(float(x), y) for y in accept_boundary(c, float(x))]
    assert len(boundary) >= 20
    u1 += [x for x, _ in boundary]
    u2 += [y for _, y in boundary]
    expect = np.array([_cheng_accept(x, y, c) for x, y in zip(u1, u2)])
    assert expect.any() and not expect.all()

    rechecked = set()

    def scalar(x, y, c):
        rechecked.add((x, y))
        return _cheng_accept(x, y, c)

    monkeypatch.setattr(distributions, "_cheng_accept", scalar)
    got = _cheng_accepts(np.array(u1), np.array(u2), c)
    assert np.array_equal(got, expect)
    # Pairs one ulp either side of the decision are left to the scalar test,
    # and numpy decides nearly all the random ones itself.
    assert set(boundary) <= rechecked
    assert len(rechecked) <= len(boundary) + 4 * len(edges) + 10


@pytest.mark.parametrize("params", [(4.96, 2.23), (2.23, 4.96), (3.0, 3.0), (1.001, 1000.0)])
@pytest.mark.parametrize("n", [0, 1, 2, 31, 500])
def test_sample_cheng_equals_sample_many(params, n):
    """A Cheng-BB block from ``sample_many`` equals the per-attempt oracle."""
    spec = DistributionSpec("beta", (10.0, 90.0, *params), clamp_lo=12.0, clamp_hi=88.0)
    for seed in range(3):
        block, one_by_one = RandomStream(seed), RandomStream(seed)
        x = sample_many(spec, block, n)
        assert x.tobytes() == cheng_one_by_one(spec, one_by_one, n).tobytes()
        assert block.counter == one_by_one.counter
        assert block.uniform() == one_by_one.uniform()
        raw = sample_many(spec, RandomStream(seed), n, clamp=False)
        assert raw.tobytes() == cheng_one_by_one(spec, RandomStream(seed), n,
                                                 clamp=False).tobytes()


def test_sample_cheng_extends_a_short_block():
    # About two in three attempts are accepted here, so the first block of
    # 2 * (n + n // 3 + 2) uniforms often holds fewer than n acceptances.
    spec = DistributionSpec("beta", (0.0, 1.0, 1.001, 1000.0))
    extended = 0
    for n in (1, 300):
        for seed in range(20):
            block, one_by_one = RandomStream(seed), RandomStream(seed)
            x = sample_many(spec, block, n)
            assert x.tobytes() == cheng_one_by_one(spec, one_by_one, n).tobytes()
            assert block.counter == one_by_one.counter
            assert block.uniform() == one_by_one.uniform()
            extended += one_by_one.counter > 2 * (n + n // 3 + 2)
    assert extended >= 10
