"""calcheck's own special functions against their references: the standard
normal CDF against scipy's ``ndtr``, bit for bit; the chi-square CDF against
scipy's ``gammainc`` within stated bounds; Binomial tails against exact
rational sums.  scipy is a test dependency only: calcheck imports none of it."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc
from scipy.special import ndtr as scipy_ndtr

from calcheck.special import Binomial, chi2_cdf, ndtr

# Cephes' branch edges, in x / sqrt(2): 1/sqrt(2) (erf or erfc), 1 (1 - erf or
# erfc's own), 8 (its second approximation), 26.64 (erfc underflows to 0)
EDGES = np.array([0.5, 1.0, 2.0 ** 0.5, 8.0 * 2.0 ** 0.5, 37.67, 37.68, 38.5]) * [[1.0], [-1.0]]


def same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-40.0, 40.0) | st.floats(allow_nan=False), min_size=1, max_size=64))
def test_ndtr_equals_scipy_bit_for_bit(xs):
    x = np.array(xs)
    assert same_bits(ndtr(x), scipy_ndtr(x)), x


def test_ndtr_equals_scipy_at_every_branch_edge_and_the_ends():
    x = np.concatenate([EDGES.ravel(), np.nextafter(EDGES, 0.0).ravel(),
                        np.nextafter(EDGES, np.inf).ravel(),
                        [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308]])
    assert same_bits(ndtr(x), scipy_ndtr(x))
    assert np.isnan(ndtr(np.array([np.nan]))).all()
    rng = np.random.default_rng(20)
    for scale in (1.0, 3.0, 12.0):
        x = rng.normal(size=200_000) * scale
        assert same_bits(ndtr(x), scipy_ndtr(x)), scale


# The worst differences measured on 10**5 chi-square draws per d, 10**5
# log-uniform x down to 1e-320 and 10**4 x up to 10**6 were 4.8e-15 absolute
# and 1.1e-13 relative.  A tiny P is a prefactor exp(a log y - y - lgamma)
# whose exponent carries an error of about eps |a log y|; below 1e-300 both
# round into the subnormals, where only the absolute bound is held.
CHI2_ABS = 1e-14
CHI2_REL = 5e-13


@pytest.mark.parametrize("d", range(1, 9))
@settings(max_examples=60, deadline=None)
@given(xs=st.lists(st.floats(0.0, 1e-3) | st.floats(0.0, 60.0) | st.floats(0.0, 1e6),
                   min_size=1, max_size=32))
def test_chi2_cdf_holds_its_bounds_against_gammainc(d, xs):
    x = np.array(xs)
    mine, ref = chi2_cdf(x, d), gammainc(d / 2.0, x / 2.0)
    assert np.all(np.abs(mine - ref) <= CHI2_ABS), (d, x)
    normal = ref >= 1e-300
    assert np.all(np.abs(mine - ref)[normal] <= CHI2_REL * ref[normal]), (d, x)


def test_chi2_cdf_ends():
    for d in range(1, 9):
        assert chi2_cdf(np.array([0.0, np.inf]), d).tolist() == [0.0, 1.0]
        assert float(chi2_cdf(3.0, d)) == pytest.approx(float(gammainc(d / 2, 1.5)), rel=1e-14)


def exact_tails(n: int, p: float) -> tuple[list, list]:
    """``P(C <= k)`` and ``P(C > k)`` for k = 0..n, in rational arithmetic."""
    q, r = Fraction(p), 1 - Fraction(p)
    pmf = [math.comb(n, k) * q**k * r ** (n - k) for k in range(n + 1)]
    le = list(itertools.accumulate(pmf))
    return [float(v) for v in le], [float(1 - v) for v in le]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 120), st.floats(1e-4, 1.0 - 1e-4))
def test_binomial_tails_match_exact_sums(n, p):
    law = Binomial(n, p)
    le, gt = exact_tails(n, p)
    for k in range(-1, n + 2):
        want_le = 0.0 if k < 0 else 1.0 if k >= n else le[k]
        want_gt = 1.0 if k < 0 else 0.0 if k >= n else gt[k]
        for mine, want in ((law.cdf(k), want_le), (law.sf(k), want_gt)):
            assert abs(mine - want) <= 1e-13 * want or want < 1e-300, (k, mine, want)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**7), st.floats(1e-6, 1.0 - 1e-6))
def test_binomial_window_leaves_out_only_terms_below_the_smallest_float(n, p):
    # the log pmf just outside the window, from lgamma, is below log(5e-324)
    law = Binomial(n, p)
    hi = law.lo + law.pmf.size - 1

    def log_pmf(k):
        return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                + k * math.log(p) + (n - k) * math.log1p(-p))

    for k in (law.lo - 1, hi + 1):
        if 0 <= k <= n:
            assert log_pmf(k) < math.log(5e-324), (k, law.lo, hi)
