import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from calcheck import hyptest
from calcheck.errors import ConfigError
from calcheck.metric import CoverageCurve, LevelGrid, PitSample
from calcheck.hyptest import (
    ONE_SIDED,
    TWO_SIDED,
    HypothesisSpec,
    _holm_alphas,
    binom_directional_p,
    binom_lower_quantile,
    binom_test,
    binom_upper_quantile,
    coverage_binomial_report,
    ks_critical,
    ks_p_value,
    ks_statistic,
    ks_test,
)


# ---------------------------------------------------------------------------
# oracles: direct Binomial pmf summation, independent of scipy
# ---------------------------------------------------------------------------

def pmf(k, n, p):
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)

def cdf_sum(c, n, p):
    return sum(pmf(k, n, p) for k in range(0, c + 1))

def oracle_lower_quantile(n, p, a):
    for c in range(n + 1):
        if cdf_sum(c, n, p) >= a:
            return c
    return n

def oracle_upper_quantile(n, p, a):
    best = 0
    for c in range(n + 1):
        if sum(pmf(k, n, p) for k in range(c, n + 1)) >= a:
            best = c
    return best


# ---------------------------------------------------------------------------
# Binomial quantiles and p-values
# ---------------------------------------------------------------------------

def test_binom_adapter_matches_scipy_stats_bit_for_bit():
    adapter = hyptest._binom()
    rng = np.random.default_rng(20260)
    for _ in range(500):
        n = int(rng.integers(1, 50_001))
        p, q = rng.uniform(0.0, 1.0, 2)
        for k in (-1, 0, n - 1, n, int(rng.integers(-1, n + 2)), rng.uniform(-1, n + 1)):
            assert adapter.cdf(k, n, p) == binom.cdf(k, n, p), (k, n, p)
            assert adapter.sf(k, n, p) == binom.sf(k, n, p), (k, n, p)
        assert adapter.ppf(q, n, p) == binom.ppf(q, n, p), (q, n, p)
        assert adapter.isf(q, n, p) == binom.isf(q, n, p), (q, n, p)


def binomial_answers():
    rng = np.random.default_rng(20261)
    answers = []
    for _ in range(200):
        n = int(rng.integers(1, 5_001))
        p, a = rng.uniform(0.01, 0.99, 2)
        count = int(rng.integers(0, n + 1))
        spec = HypothesisSpec(TWO_SIDED if rng.uniform() < 0.5 else ONE_SIDED,
                              float(rng.uniform(0.0, min(p, 1.0 - p))))
        answers.append((binom_lower_quantile(n, p, a), binom_upper_quantile(n, p, a),
                        binom_directional_p(count, n, p, spec)))
    return answers


def test_binom_falls_back_to_scipy_stats_without_the_private_ufuncs(monkeypatch):
    expected = binomial_answers()
    assert hyptest._binom() is not binom
    # a scipy release without the private names: the loader's import fails,
    # while scipy.stats.binom keeps the ufunc module it bound at its import
    monkeypatch.setitem(sys.modules, "scipy.special._ufuncs",
                        types.ModuleType("scipy.special._ufuncs"))
    hyptest._binom.cache_clear()
    try:
        assert hyptest._binom() is binom
        assert binomial_answers() == expected
    finally:
        monkeypatch.undo()
        hyptest._binom.cache_clear()
    assert hyptest._binom() is not binom


def test_lower_quantile_tiny_cases():
    # n=1, p=0.5: P(C<=0)=0.5 < 0.6, P(C<=1)=1 >= 0.6
    assert binom_lower_quantile(1, 0.5, 0.6) == 1
    assert binom_lower_quantile(10, 0.5, 0.5) == 5
    assert binom_lower_quantile(10, 0.5, 1 - 1e-12) == 10


def test_quantiles_match_pmf_summation_oracle():
    rng = np.random.default_rng(2)
    for _ in range(120):
        n = int(rng.integers(1, 120))
        p = float(rng.uniform(0.05, 0.95))
        a = float(rng.uniform(0.001, 0.999))
        assert binom_lower_quantile(n, p, a) == oracle_lower_quantile(n, p, a)
        assert binom_upper_quantile(n, p, a) == oracle_upper_quantile(n, p, a)


def test_p_value_exact_values():
    # the one-sided decision p-value is the exact lower tail P(C <= count)
    def lower_tail(count, n, level):
        return binom_directional_p(count, n, level, HypothesisSpec(ONE_SIDED))

    assert lower_tail(7, 7, 0.3) == 1.0
    assert lower_tail(0, 1, 0.5) == pytest.approx(0.5, rel=1e-12)
    assert lower_tail(40, 100, 0.5) == pytest.approx(cdf_sum(40, 100, 0.5), rel=1e-10)
    assert lower_tail(40, 100, 0.5) == pytest.approx(0.0284, abs=2e-4)


# ---------------------------------------------------------------------------
# per-level Binomial test
# ---------------------------------------------------------------------------

def test_zero_tolerance_equals_exact_null_test():
    rng = np.random.default_rng(3)
    spec_plain = HypothesisSpec(TWO_SIDED, 0.0)
    for _ in range(50):
        n = int(rng.integers(5, 200))
        lam = float(rng.uniform(0.1, 0.9))
        count = int(rng.integers(0, n + 1))
        a = binom_test(count, n, lam, spec_plain, 0.05)
        b = binom_test(count, n, lam, HypothesisSpec(TWO_SIDED, 0.0), 0.05)
        assert (a.reject, a.lower_bound, a.upper_bound) == (
            b.reject, b.lower_bound, b.upper_bound,
        )


def test_one_sided_never_rejects_full_coverage():
    spec = HypothesisSpec(ONE_SIDED, 0.0)
    for n in (5, 50, 365):
        res = binom_test(n, n, 0.9, spec, 0.05)
        assert not res.reject
        assert res.upper_bound == n


def test_two_sided_bounds_match_oracle_n100():
    spec = HypothesisSpec(TWO_SIDED, 0.0)
    lo = oracle_lower_quantile(100, 0.8, 0.025)
    hi = oracle_upper_quantile(100, 0.8, 0.025)
    for count in range(101):
        res = binom_test(count, 100, 0.8, spec, 0.05)
        assert res.reject == (count < lo or count > hi)
        assert (res.lower_bound, res.upper_bound) == (lo, hi)


def test_tolerance_tests_against_shifted_nulls():
    spec = HypothesisSpec(TWO_SIDED, 0.05)
    res = binom_test(80, 100, 0.8, spec, 0.05)
    assert res.lower_bound == oracle_lower_quantile(100, 0.75, 0.025)
    assert res.upper_bound == oracle_upper_quantile(100, 0.85, 0.025)
    one = binom_test(80, 100, 0.8, HypothesisSpec(ONE_SIDED, 0.05), 0.05)
    assert one.lower_bound == oracle_lower_quantile(100, 0.75, 0.05)


def test_tolerance_shifting_level_out_of_range_errors():
    with pytest.raises(ValueError):
        binom_test(90, 100, 0.97, HypothesisSpec(TWO_SIDED, 0.05), 0.05)
    with pytest.raises(ValueError):
        binom_test(2, 100, 0.03, HypothesisSpec(ONE_SIDED, 0.05), 0.05)


def test_one_sided_rejection_monotone_in_count():
    spec = HypothesisSpec(ONE_SIDED, 0.0)
    for lam in (0.3, 0.8, 0.95):
        rejected = [binom_test(c, 150, lam, spec, 0.05).reject for c in range(151)]
        # once accepting, never rejects again as the count grows
        first_accept = rejected.index(False)
        assert not any(rejected[first_accept:])


def test_tolerance_monotonicity_never_flips_accept_to_reject():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = int(rng.integers(10, 200))
        lam = float(rng.uniform(0.2, 0.8))
        count = int(rng.integers(0, n + 1))
        side = ONE_SIDED if rng.random() < 0.5 else TWO_SIDED
        tols = [0.0, 0.02, 0.05, 0.1]
        results = [
            binom_test(count, n, lam, HypothesisSpec(side, t), 0.05).reject
            for t in tols
        ]
        for earlier, later in zip(results, results[1:]):
            assert not (later and not earlier)


@pytest.mark.parametrize("sidedness", [TWO_SIDED, ONE_SIDED])
@pytest.mark.parametrize("tolerance", [0.0, 0.02])
def test_exact_size_is_at_most_the_per_level_alpha(sidedness, tolerance):
    # the null pmf summed over binom_test's rejection region, exactly, at the
    # ends of the tolerated coverage band and at its centre
    spec = HypothesisSpec(sidedness, tolerance)
    levels = LevelGrid.default().levels
    for n in (10, 365, 2000):
        counts = np.arange(n + 1)
        for lam in levels:
            for a in (0.05 / levels.size, 0.05):  # Bonferroni's per-level alpha, and K = 1
                res = binom_test(0, n, float(lam), spec, a)
                reject = (counts < res.lower_bound) | (counts > res.upper_bound)
                for q in (lam - tolerance, lam, lam + tolerance):
                    size = math.fsum(binom.pmf(counts[reject], n, q))
                    assert size <= a, (n, lam, a, q, size)


# ---------------------------------------------------------------------------
# multiplicity corrections
# ---------------------------------------------------------------------------

def test_bonferroni_threshold_and_decisions():
    grid = LevelGrid.default()
    calibrated = CoverageCurve(levels=grid, counts=np.rint(grid.levels * 1000), n=1000)
    rep = coverage_binomial_report(calibrated, HypothesisSpec(), 0.05, "bonferroni")
    assert rep.threshold == pytest.approx(0.005)
    assert rep.decision == "accept"
    short = CoverageCurve(levels=grid, counts=[50, 150, 250, 350, 450, 550, 650, 750, 850, 900],
                          n=1000)
    rep = coverage_binomial_report(short, HypothesisSpec(), 0.05, "bonferroni")
    assert rep.decision == "reject"
    assert [r.reject for r in rep.per_level] == [False] * 9 + [True]


def holm_rejects(ps, alpha):
    ps = np.array(ps)
    return (ps < _holm_alphas(ps, alpha)).tolist()


def test_holm_hand_stepdown():
    assert holm_rejects([0.010, 0.026, 0.9], 0.05) == [True, False, False]
    assert holm_rejects([0.9, 0.010, 0.02], 0.05) == [False, True, True]


def test_holm_single_p_equals_plain_test():
    assert holm_rejects([0.04], 0.05) == [True]
    assert holm_rejects([0.06], 0.05) == [False]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.001, 0.005, 0.01, 0.0125, 0.02, 0.025, 0.05, 0.5]),
                min_size=1, max_size=12),
       st.sampled_from([0.05, 0.1]))
def test_holm_alphas_follow_the_stepdown_rank_by_rank(ps, alpha):
    # walk the sorted p-values (ties in input order): each rank is tested
    # at alpha / (k - rank) until the first that is not rejected, whose
    # threshold every later rank keeps
    k, want, step = len(ps), [0.0] * len(ps), 0
    for rank, idx in enumerate(sorted(range(k), key=ps.__getitem__)):
        want[idx] = alpha / (k - step)
        if step == rank and ps[idx] < want[idx]:
            step += 1
    assert _holm_alphas(np.array(ps), alpha).tolist() == want


@st.composite
def coverage_curves(draw):
    grid = LevelGrid.default()
    n = draw(st.integers(1, 2000))
    counts = sorted(draw(st.lists(st.integers(0, n), min_size=grid.k, max_size=grid.k)))
    return CoverageCurve(levels=grid, counts=counts, n=n)


@settings(max_examples=150, deadline=None)
@given(coverage_curves(), st.sampled_from([TWO_SIDED, ONE_SIDED]), st.sampled_from([0.0, 0.02]))
def test_holm_dominates_bonferroni(curve, sidedness, tolerance):
    # Holm tests each level at alpha / (k - step) >= alpha / k, and the
    # accepted-count bounds narrow as the per-level alpha grows
    spec = HypothesisSpec(sidedness, tolerance)
    bonf = coverage_binomial_report(curve, spec, 0.05, "bonferroni")
    holm = coverage_binomial_report(curve, spec, 0.05, "holm")
    for b, h in zip(bonf.per_level, holm.per_level, strict=True):
        assert b.lower_bound <= h.lower_bound and h.upper_bound <= b.upper_bound
        assert h.reject or not b.reject
    assert holm.rejected or not bonf.rejected


# ---------------------------------------------------------------------------
# KS statistic, critical values, p-values
# ---------------------------------------------------------------------------

def oracle_ks_two_sided(values):
    # direct sup over jump points of |ECDF - diagonal|, left and right limits
    v = np.sort(values)
    n = v.size
    best = 0.0
    for i, x in enumerate(v, start=1):
        best = max(best, abs(i / n - x), abs(x - (i - 1) / n))
    return best


def test_ks_statistic_uniform_grid():
    n = 40
    v = (2 * np.arange(1, n + 1) - 1) / (2 * n)
    s = PitSample(values=v, folded=True)
    assert ks_statistic(s, HypothesisSpec(TWO_SIDED)) == pytest.approx(1 / (2 * n))
    assert ks_statistic(s, HypothesisSpec(ONE_SIDED)) == pytest.approx(1 / (2 * n))


def test_ks_statistic_matches_oracle_on_random_samples():
    rng = np.random.default_rng(6)
    for _ in range(200):
        v = rng.uniform(size=int(rng.integers(1, 60)))
        s = PitSample(values=v, folded=True)
        assert ks_statistic(s, HypothesisSpec(TWO_SIDED)) == pytest.approx(
            oracle_ks_two_sided(v), abs=1e-15
        )


def test_ks_statistic_extreme_samples():
    all_ones = PitSample(values=np.ones(25), folded=True)
    assert ks_statistic(all_ones, HypothesisSpec(ONE_SIDED)) == pytest.approx(1.0)
    all_zeros = PitSample(values=np.zeros(25), folded=True)
    assert ks_statistic(all_zeros, HypothesisSpec(ONE_SIDED)) == 0.0


def test_ks_one_sided_requires_folded():
    s = PitSample(values=[0.2, 0.6], folded=False)
    with pytest.raises(ValueError):
        ks_statistic(s, HypothesisSpec(ONE_SIDED))


def test_ks_critical_closed_forms():
    assert ks_critical(365, 0.05, TWO_SIDED) == pytest.approx(0.0711, abs=5e-4)
    assert ks_critical(100, 0.05, TWO_SIDED) == pytest.approx(0.136, abs=5e-4)
    assert ks_critical(365, 0.05, ONE_SIDED) == pytest.approx(0.0641, abs=5e-4)
    assert ks_critical(100, 0.05, ONE_SIDED) == pytest.approx(0.122, abs=5e-4)


def test_ks_p_value_inverts_critical_value():
    for n in (50, 365):
        for side in (TWO_SIDED, ONE_SIDED):
            c = ks_critical(n, 0.05, side)
            assert ks_p_value(c, n, side) == pytest.approx(0.05, rel=1e-9)
    assert ks_p_value(0.0, 100, TWO_SIDED) == 1.0
    assert ks_p_value(0.12, 365, TWO_SIDED) == pytest.approx(5.4e-5, abs=1e-5)


def test_ks_test_decision_and_band_shift():
    rng = np.random.default_rng(7)
    v = rng.uniform(size=365)
    folded = PitSample(values=np.abs(2 * v - 1), folded=True)
    base = ks_test(folded, HypothesisSpec(ONE_SIDED, 0.0), 0.05)
    shifted = ks_test(folded, HypothesisSpec(ONE_SIDED, 0.02), 0.05)
    assert shifted.threshold == pytest.approx(base.threshold + 0.02)
    assert shifted.statistic == base.statistic


def test_ks_test_two_sided_tolerance_refused():
    s = PitSample(values=[0.1, 0.4, 0.8], folded=True)
    with pytest.raises(ConfigError):
        ks_test(s, HypothesisSpec(TWO_SIDED, 0.02), 0.05)


def test_ks_test_size_under_null():
    rng = np.random.default_rng(8)
    rejects = 0
    reps = 1000
    for _ in range(reps):
        u = rng.uniform(size=365)
        rejects += ks_test(PitSample(values=u), HypothesisSpec(), 0.05).rejected
    assert rejects / reps <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / reps)


# ---------------------------------------------------------------------------
# coverage-curve reports
# ---------------------------------------------------------------------------

def test_coverage_report_bonferroni_per_level_alpha():
    grid = LevelGrid([0.5, 0.9])
    curve = CoverageCurve(levels=grid, counts=[40, 87], n=100)
    rep = coverage_binomial_report(curve, HypothesisSpec(), 0.05)
    assert rep.threshold == pytest.approx(0.025)
    for row, lam in zip(rep.per_level, grid.levels):
        assert row.lower_bound == oracle_lower_quantile(100, lam, 0.025 / 2)
    # both counts sit inside their alpha/2-per-level bounds
    assert rep.decision == "accept"


def test_coverage_report_rejects_when_any_level_fails():
    grid = LevelGrid([0.5, 0.9])
    curve = CoverageCurve(levels=grid, counts=[20, 88], n=100)
    rep = coverage_binomial_report(curve, HypothesisSpec(), 0.05)
    assert rep.decision == "reject"
    assert rep.per_level[0].reject and not rep.per_level[1].reject


def test_coverage_report_holm_consistent_with_mask():
    grid = LevelGrid([0.3, 0.6, 0.9])
    curve = CoverageCurve(levels=grid, counts=[10, 50, 85], n=100)
    rep_b = coverage_binomial_report(curve, HypothesisSpec(), 0.05, "bonferroni")
    rep_h = coverage_binomial_report(curve, HypothesisSpec(), 0.05, "holm")
    if rep_b.rejected:
        assert rep_h.rejected
    accepted = [r for r in rep_h.per_level if not r.reject]
    for row in accepted:
        assert row.lower_bound <= row.count <= row.upper_bound
