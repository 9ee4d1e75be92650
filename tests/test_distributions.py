"""Distribution families: validation, formula oracles, and statistics.

Formula oracles replay the same stream through an independently written
inverse transform; statistical checks compare empirical moments against the
closed forms and KS distance against the CDF oracle.
"""

import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import pvclean
from pvclean import distributions
from pvclean.distributions import (_EXP_M2, DistributionSpec, ParameterError, _c,
                                   _cheng_accepts, _cheng_constants, _cheng_variates, sample_many)
from pvclean.rng import RandomStream
from pvclean.weather import VARIABLES, default_model

from oracles import (ARITY, cheng_accept, cheng_one_by_one, gamma_one_by_one, is_cheng,
                     johnk_one_by_one, ndtri1, one_by_one, spec_is_invalid)


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
    ("gamma", (0.0, 1.0, 0.0)),            # shape
    ("loglogistic", (0.0, 1.0, -1.0)),     # scale
    ("beta", (0.0, 1.0, 2.0, 0.0)),        # b
    ("beta", (0.0, 100.0, 1e155, 1e155)),  # Cheng BB with 2ab = inf
    ("beta", (0.0, 1.0, 1.5, 1e308)),
])
def test_invalid_parameters_rejected(family, params):
    with pytest.raises(ParameterError):
        DistributionSpec(family, params)


_CHENG_SHAPES = (st.floats(1.0, exclude_min=True, allow_infinity=False)
                 | st.sampled_from([1.0 + 2 ** -52, 9e153, 9.5e153, 1e154, 1e155, 1e308]))


@settings(max_examples=300, deadline=None)
@given(a=_CHENG_SHAPES, b=_CHENG_SHAPES)
def test_accepted_cheng_specs_have_finite_constants(a, b):
    """Every beta spec that ``DistributionSpec`` accepts with min(a, b) > 1
    gives Cheng BB finite constants with beta > 0; the rest have 2ab = inf."""
    try:
        DistributionSpec("beta", (0.0, 1.0, a, b))
    except ParameterError:
        assert not math.isfinite(2.0 * a * b)
        return
    constants = _cheng_constants(a, b)
    assert all(math.isfinite(c) for c in constants) and constants[3] > 0.0


_FAMILY_NAMES = [*ARITY, "cauchy"]
# Positive values come twice as often as each kind of bad one.
_PARAMETERS = st.sampled_from([0.5, 1.0, 2.0, 3.0] * 2 + [0.0, -0.0, -1.0, math.nan, math.inf,
                                                          -math.inf]) | st.floats()
_CLAMPS = st.sampled_from([(-math.inf, math.inf), (0.0, 1.0), (-1.0, 0.0), (1.0, 0.0), (0.0, 0.0),
                           (math.nan, math.inf)]) | st.tuples(st.floats(), st.floats())


@settings(max_examples=500, deadline=None)
@given(family=st.sampled_from(_FAMILY_NAMES), extra=st.sampled_from([0, 0, 0, 0, -1, 1]),
       clamps=_CLAMPS, data=st.data())
def test_spec_rejects_exactly_what_the_per_family_rules_reject(family, extra, clamps, data):
    """``DistributionSpec`` raises ``ParameterError`` exactly when the
    family-by-family rules of ``oracles.spec_is_invalid`` do: the eight
    families and an unknown one, arity +-1, 0, negatives, NaN, +-inf and
    clamps in both orders."""
    arity = ARITY.get(family, 3) + extra
    params = data.draw(st.lists(_PARAMETERS, min_size=arity, max_size=arity), label="params")
    invalid = spec_is_invalid(family, params, *clamps)
    try:
        DistributionSpec(family, params, *clamps)
    except ParameterError:
        assert invalid
    else:
        assert not invalid


def test_invalid_clamp_rejected():
    with pytest.raises(ParameterError):
        DistributionSpec("normal", (0.0, 1.0), clamp_lo=1.0, clamp_hi=0.0)


def test_family_name_case_insensitive():
    assert DistributionSpec("Normal", (0.0, 1.0)).family == "normal"


# -- ndtri: the in-tree kernel against scipy's ------------------------------


def assert_ndtri_is_scipys(p):
    """``distributions.ndtri(p)`` equals ``scipy.special.ndtri(p)`` bit for bit,
    NaN where scipy gives NaN, and raises no warning; so does the scalar
    path ``oracles.ndtri1`` on every element in [0, 1]."""
    p = np.asarray(p, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = distributions.ndtri(p)
    expect = np.asarray(ndtri(p))
    assert got.shape == expect.shape and got.dtype == expect.dtype
    nan = np.isnan(expect)
    assert np.array_equal(np.isnan(got), nan)
    bad = np.flatnonzero(got[~nan].view(np.int64) != expect[~nan].view(np.int64))
    assert bad.size == 0, (p[~nan][bad[:5]], got[~nan][bad[:5]], expect[~nan][bad[:5]])
    unit = (p >= 0.0) & (p <= 1.0)
    scalar = np.array([ndtri1(v) for v in p[unit].tolist()], dtype=float)
    assert scalar.tobytes() == expect[unit].tobytes()


def test_logs_are_the_c_librarys():
    # _c(np.log), _c(np.exp) and _c(np.power) at the samplers' exponents
    # equal math.log, math.exp and Python's ** on 10^6 inputs each, among
    # them the inputs where numpy's vectorized loop differs: for a whole
    # array, and for each such value alone and in a pair.
    u = RandomStream(7).uniforms(1_000_000)
    cases = [(np.log, u * _EXP_M2, (), math.log), (np.log, u * 1e3, (), math.log),
             (np.exp, u * 60.0 - 30.0, (), math.exp)]
    cases += [(np.power, u * 8.0 - 4.0, (e,), pow) for e in (2.0, 3.0, 4.0)]
    cases += [(np.power, u, (1.0 / a,), pow) for a in (1.06, 0.5, 0.05)]
    for ufunc, y, args, f in cases:
        expect = np.array([f(v, *args) for v in y.tolist()])
        assert _c(ufunc, y, *args).tobytes() == expect.tobytes(), (ufunc, args)
        differ = np.flatnonzero(ufunc(y, *args) != expect)
        for i in differ[:100]:
            assert _c(ufunc, y[i:i + 1], *args)[0] == expect[i]
            assert _c(ufunc, y[i - 1:i + 1], *args).tobytes() == expect[i - 1:i + 1].tobytes()
        assert _c(ufunc, y[:6].reshape(2, 3), *args).tobytes() == expect[:6].tobytes()
        assert _c(ufunc, np.empty(0), *args).shape == (0,)


def test_c_falls_back_to_math_when_the_overlap_trick_fails(monkeypatch):
    """A numpy whose overlapping loop is not the C library's sends every
    call of _c through math: the same bits, and the same draws."""
    def off_by_an_ulp(ufunc, x, *args):
        return np.nextafter(ufunc(x, *args), np.inf)

    monkeypatch.setattr(distributions, "_overlapped", off_by_an_ulp)
    distributions._overlap_is_libm.cache_clear()
    try:
        assert not distributions._overlap_is_libm()
        y = RandomStream(8).uniforms(20_000)
        assert _c(np.log, y).tobytes() == np.array([math.log(v) for v in y.tolist()]).tobytes()
        with np.errstate(divide="ignore", over="ignore"):
            assert _c(np.log, [0.0, 1.0])[0] == -np.inf
            assert _c(np.exp, [1e4])[0] == np.inf
        for spec in (DistributionSpec("beta", (0.0, 1.0, 4.96, 2.23)),
                     DistributionSpec("gamma", (0.0, 1.0, 0.5)),
                     DistributionSpec("beta", (0.0, 1.0, 0.6, 0.9))):
            block, alone = RandomStream(9), RandomStream(9)
            assert sample_many(spec, block, 200).tobytes() == one_by_one(spec, alone, 200).tobytes()
            assert block.counter == alone.counter
    finally:
        distributions._overlap_is_libm.cache_clear()


def test_ndtri_of_stream_uniforms():
    assert_ndtri_is_scipys(RandomStream(2026).uniforms(1_000_000))


_ULP = 2.0 ** -53  # the spacing of a stream's uniforms


@pytest.mark.parametrize("at", [0.0, 1.0, _EXP_M2, 1.0 - _EXP_M2, math.exp(-32.0)],
                         ids=["0", "1", "exp(-2)", "1-exp(-2)", "exp(-32)"])
def test_ndtri_next_to_a_branch_point(at):
    # Every uniform a stream can return within 20,000 steps of the point,
    # and the 20,000 floats either side of it.
    lattice = (round(at / _ULP) + np.arange(-20_000, 20_001)) * _ULP
    bits = np.float64(at).view(np.int64) + np.arange(-20_000, 20_001)
    floats = bits[bits >= 0].view(np.float64)
    p = np.concatenate([lattice, floats])
    assert_ndtri_is_scipys(p[(p >= 0.0) & (p <= 1.0)])


def test_ndtri_special_values():
    tiny = np.finfo(float).tiny
    assert_ndtri_is_scipys([0.0, -0.0, 1.0, 5e-324, 1e-310, tiny, np.nextafter(tiny, 0.0),
                            _ULP, 0.5, 1.0 - _ULP, np.nan, -np.nan, -5e-324, -1.0,
                            1.0 + 2.0 ** -52, 2.0, np.inf, -np.inf])
    assert distributions.ndtri(0.0) == -np.inf and distributions.ndtri(1.0) == np.inf


@pytest.mark.parametrize("shape", [(0,), (2, 0), (3, 4), (2, 3, 5), ()])
def test_ndtri_keeps_the_shape(shape):
    u = RandomStream(3).uniforms(math.prod(shape)).reshape(shape)
    u.flat[:2] = [0.0, 1.0][:u.size]
    assert_ndtri_is_scipys(u)


@settings(max_examples=200, deadline=None)
@given(p=st.lists(st.one_of(st.floats(0.0, 1.0),
                            st.integers(0, 2 ** 53).map(lambda k: k * _ULP)),
                  min_size=1, max_size=50))
def test_ndtri_equals_scipy_on_any_probability(p):
    assert_ndtri_is_scipys(p)


_B = distributions._BLOCK


@settings(max_examples=25, deadline=None)
@given(blocks=st.integers(1, 3), offset=st.integers(-3, 3), rows=st.sampled_from([1, 3, 30]),
       seed=st.integers(0, 2 ** 32), cuts=st.lists(st.integers(0, 3 * _B + 3), max_size=6),
       special=st.lists(st.sampled_from([0.0, 1.0, _EXP_M2, 1.0 - _EXP_M2, 5e-324]), max_size=4))
def test_ndtri_blocks_equal_per_element_results(blocks, offset, rows, seed, cuts, special):
    """ndtri works through blocks of _BLOCK values; across their edges every
    value equals scipy's per-element cephes result and ndtri of any split of
    the input, as when it was called once per month."""
    size = max(1, blocks * _B + offset)
    p = RandomStream(seed).uniforms(size)
    for k, v in enumerate(special):  # special values right at block edges
        p[min(size - 1, max(0, (k + 1) * _B - 1 + k % 2))] = v
    whole = distributions.ndtri(p.reshape(rows, -1) if size % rows == 0 else p).ravel()
    assert whole.tobytes() == ndtri(p).tobytes()
    edges = sorted({0, size, *[c for c in cuts if c < size]})
    pieces = [distributions.ndtri(p[a:b]) for a, b in zip(edges, edges[1:])]
    assert np.concatenate(pieces).tobytes() == whole.tobytes()


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


@pytest.mark.parametrize("shape", [0.05, 0.5, 0.99, 1.0, 1.06, 2.5, 30.0])
@pytest.mark.parametrize("n", [0, 1, 2, 31, 500])
def test_gamma_block_equals_per_attempt_oracle(shape, n):
    """A gamma block from ``sample_many`` equals drawing one uniform at a time."""
    spec = DistributionSpec("gamma", (1.0, 3.0, shape), clamp_lo=1.2, clamp_hi=9.0)
    for seed in range(3):
        block, one_by_one = RandomStream(seed), RandomStream(seed)
        x = sample_many(spec, block, n)
        assert x.tobytes() == gamma_one_by_one(spec, one_by_one, n).tobytes()
        assert block.counter == one_by_one.counter
        assert block.uniform() == one_by_one.uniform()
        raw = sample_many(spec, RandomStream(seed), n, clamp=False)
        assert raw.tobytes() == gamma_one_by_one(spec, RandomStream(seed), n,
                                                 clamp=False).tobytes()


@pytest.mark.parametrize("shape", [0.5, 1.06])
def test_gamma_block_extends_a_short_block(shape, monkeypatch):
    # The first block is rarely too short, so cut it to a quarter.
    peeks = []
    peek = RandomStream.peek

    def short_first_peek(self, n):
        peeks.append(n)
        u = peek(self, n)
        return u[:n // 4] if len(peeks) == 1 else u

    spec = DistributionSpec("gamma", (0.0, 1.0, shape))
    monkeypatch.setattr(RandomStream, "peek", short_first_peek)
    block = RandomStream(7)
    x = sample_many(spec, block, 40)
    monkeypatch.undo()
    one_by_one = RandomStream(7)
    assert x.tobytes() == gamma_one_by_one(spec, one_by_one, 40).tobytes()
    assert block.counter == one_by_one.counter
    assert block.uniform() == one_by_one.uniform()
    assert len(peeks) == 2 and peeks[1] == 2 * peeks[0]


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
    """The adjacent u2 floats between which cheng_accept(u1, u2) turns false.

    Acceptance means z = u1*u1*u2 is small enough, so it is monotone in u2;
    bisect over the ordered bit patterns of the positive floats.
    """
    lo, hi = np.float64(5e-324).view(np.int64), np.float64(_TOP).view(np.int64)
    if not cheng_accept(u1, float(lo.view(np.float64)), c) or cheng_accept(u1, _TOP, c):
        return []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cheng_accept(u1, float(mid.view(np.float64)), c):
            lo = mid
        else:
            hi = mid
    return [float(lo.view(np.float64)), float(hi.view(np.float64))]


@pytest.mark.parametrize("spec", _DEFAULT_CHENG, ids=lambda s: f"beta{s.params[2:]}")
def test_cheng_classifier_matches_scalar_accept(spec):
    # Random attempts, the edges of the unit interval, and pairs one ulp
    # either side of the decision: numpy decides each as the scalar test does.
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
    expect = np.array([cheng_accept(x, y, c) for x, y in zip(u1, u2)])
    assert expect.any() and not expect.all()
    assert np.array_equal(_cheng_accepts(np.array(u1), np.array(u2), c)[0], expect)
    got = _cheng_accepts(np.array(u1[-len(boundary):]).reshape(-1, 2),
                         np.array(u2[-len(boundary):]).reshape(-1, 2), c)[0]
    assert np.array_equal(got.ravel(), expect[-len(boundary):])


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


def assert_cheng_streams(a, b, seeds, n):
    """``_cheng_variates`` over ``seeds``' streams equals per-stream calls and
    the per-attempt oracle, row by row, and leaves each stream where they do."""
    spec = DistributionSpec("beta", (0.0, 1.0, a, b))
    streams = [RandomStream(s) for s in seeds]
    x = _cheng_variates(a, b, streams, n)
    assert x.shape == (len(seeds), n)
    for row, stream, seed in zip(x, streams, seeds):
        alone, one_by_one = RandomStream(seed), RandomStream(seed)
        assert row.tobytes() == _cheng_variates(a, b, [alone], n)[0].tobytes()
        assert row.tobytes() == cheng_one_by_one(spec, one_by_one, n, clamp=False).tobytes()
        assert stream.counter == alone.counter == one_by_one.counter
        assert stream.uniform() == alone.uniform() == one_by_one.uniform()


_SHAPE = st.one_of(st.floats(1.001, 30.0), st.sampled_from([1.001, 1000.0]))


@settings(max_examples=60, deadline=None)
@given(a=_SHAPE, b=_SHAPE, n=st.integers(0, 80),
       seeds=st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=6))
def test_cheng_variates_of_streams_equal_per_stream_calls(a, b, n, seeds):
    assert_cheng_streams(a, b, seeds, n)


@pytest.mark.parametrize("n", [2, 5, 10, 31])
def test_cheng_variates_doubles_only_the_short_streams(n):
    # About two in three attempts are accepted at (1.001, 1000), so some of
    # these streams need more than the first 2 * (n + n // 3 + 2) uniforms.
    seeds = list(range(12))
    used = []
    for seed in seeds:
        stream = RandomStream(seed)
        cheng_one_by_one(DistributionSpec("beta", (0.0, 1.0, 1.001, 1000.0)), stream, n)
        used.append(stream.counter)
    short = [u > 2 * (n + n // 3 + 2) for u in used]
    assert any(short) and not all(short)
    assert_cheng_streams(1.001, 1000.0, seeds, n)


@pytest.mark.parametrize("spec", [
    DistributionSpec("beta", (10.0, 90.0, 4.96, 2.23), clamp_lo=12.0, clamp_hi=88.0),
    DistributionSpec("beta", (0.0, 40.0, 0.6, 3.0)),
    DistributionSpec("gamma", (0.0, 59.1, 1.06), clamp_lo=1.0, clamp_hi=100.0),
    DistributionSpec("lognormal", (17.0, 1.16, 0.559)),
], ids=lambda s: s.family + str(s.params[-2:]))
@pytest.mark.parametrize("n", [0, 1, 40])
def test_sample_streams_rows_equal_sample_many(spec, n):
    # sample_many over a list of streams: row r is sample_many over streams[r] alone.
    streams = [RandomStream(s) for s in range(4)]
    x = sample_many(spec, streams, n)
    assert x.shape == (4, n)
    for seed, row, stream in zip(range(4), x, streams):
        alone = RandomStream(seed)
        assert row.tobytes() == sample_many(spec, alone, n).tobytes()
        assert stream.counter == alone.counter
        assert stream.uniform() == alone.uniform()


_REJECTION = st.one_of(
    st.tuples(st.floats(1.001, 30.0), st.floats(1.001, 30.0)).map(
        lambda ab: DistributionSpec("beta", (10.0, 90.0, *ab), clamp_lo=12.0, clamp_hi=88.0)),
    st.floats(0.05, 30.0).map(
        lambda a: DistributionSpec("gamma", (1.0, 3.0, a), clamp_lo=1.2, clamp_hi=9.0)),
    st.floats(0.05, 0.999).map(lambda a: DistributionSpec("gamma", (0.0, 1.0, a))),
    st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 20.0)).map(
        lambda ab: DistributionSpec("beta", (0.0, 40.0, *ab))),
    st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 1.0)).map(
        lambda ab: DistributionSpec("beta", (0.0, 40.0, *ab))))


@settings(max_examples=80, deadline=None)
@given(spec=_REJECTION, n=st.integers(0, 60),
       seeds=st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=5))
def test_sample_many_rows_equal_the_per_attempt_oracle(spec, n, seeds):
    """Each row of a gamma, Cheng-BB or Johnk draw over a list of streams
    equals that stream's per-attempt oracle draws: values, counter and the
    next uniform."""
    streams = [RandomStream(s) for s in seeds]
    x = sample_many(spec, streams, n)
    assert x.shape == (len(seeds), n)
    for row, stream, seed in zip(x, streams, seeds):
        alone = RandomStream(seed)
        assert row.tobytes() == one_by_one(spec, alone, n).tobytes()
        assert stream.counter == alone.counter
        assert stream.uniform() == alone.uniform()


class ListStream(RandomStream):
    """A stream that returns the uniforms of a list, then those of ``RandomStream(0)``."""

    def __init__(self, head):
        super().__init__(0)
        self.head = list(head)

    def peek(self, n):
        k = min(n, len(self.head))
        return np.concatenate([self.head[:k], super().peek(n - k)])

    def skip(self, n):
        k = min(n, len(self.head))
        del self.head[:k]
        super().skip(n - k)
        self.counter += k


def test_johnk_underflow_draws_from_logs():
    # u^(1/a) and v^(1/b) both underflow to 0, so the draw is the ratio of logs.
    spec = DistributionSpec("beta", (0.0, 1.0, 0.01, 0.01))
    head = [1e-10, 1.01e-10, 0.0, 1e-9, 0.9, 0.99]
    x = sample_many(spec, ListStream(head), 3, clamp=False)
    expect = johnk_one_by_one(spec, ListStream(head), 3, clamp=False)
    assert x.tobytes() == expect.tobytes()
    assert 0.0 < x[0] < 1.0


def test_rejection_draw_that_accepts_too_rarely_is_an_error():
    # Johnk with b = 1e300: v^(1/b) rounds to 1 for every 53-bit uniform, so
    # no attempt is accepted, and the block used to double until memory ran
    # out.  Run capped at 1.5 GB of address space and 60 s.
    code = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
        from pvclean.distributions import DistributionSpec, ParameterError, sample_many
        from pvclean.rng import RandomStream
        try:
            sample_many(DistributionSpec("beta", (0, 1, 0.5, 1e300)), RandomStream(0), 2)
        except ParameterError as exc:
            print(exc)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(pvclean.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("beta(0.0, 1.0, 0.5, 1e+300): fewer than 2 draws in a block of "
                           "1,536 uniforms: it accepts too few attempts to draw\n")
