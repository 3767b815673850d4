"""Offline hypothesis tests: exact Binomial, KS bands, multiplicity control.

Everything here turns a metric output into a single accept/reject decision
with a controlled false-rejection rate.  Two hypothesis refinements thread
through every test: a one-sided variant that only rejects over-confidence
(under-coverage), and a tolerance that widens the null by an engineering
margin so benign miscalibration survives large samples.

Binomial tail probabilities are computed through the regularized incomplete
beta function, never a normal approximation, so the integer quantiles are
exact at any sample size.  They come from the Boost ufuncs in
``scipy.special._ufuncs`` that ``scipy.stats.binom`` itself calls, behind a
small adapter that keeps ``binom``'s boundary rules.  The adapter is built on
the first Binomial tail, so importing this module loads no scipy and a run
that tests no count never does; where the private names are missing, the
first tail loads ``scipy.stats.binom`` instead.

KS critical values use the closed-form finite-sample-valid bounds rather
than the asymptotic Kolmogorov distribution; the slight conservatism is the
safe direction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .metric import CoverageCurve, PitSample

__all__ = [
    "TWO_SIDED",
    "ONE_SIDED",
    "HypothesisSpec",
    "BinomLevelResult",
    "TestReport",
    "binom_lower_quantile",
    "binom_upper_quantile",
    "binom_directional_p",
    "binom_test",
    "coverage_binomial_report",
    "ks_statistic",
    "ks_critical",
    "ks_p_value",
    "ks_test",
]

TWO_SIDED = "two_sided"
ONE_SIDED = "one_sided_overconfidence"
_SIDES = (TWO_SIDED, ONE_SIDED)


@dataclass(frozen=True)
class HypothesisSpec:
    """What counts as acceptable calibration.

    ``sidedness`` selects between the symmetric null and the safety-critical
    variant that rejects only under-coverage; ``tolerance`` widens the null
    by an explicit margin in coverage units.
    """

    sidedness: str = TWO_SIDED
    tolerance: float = 0.0

    def __post_init__(self):
        if self.sidedness not in _SIDES:
            raise ConfigError(f"unknown sidedness {self.sidedness!r}")
        if not 0.0 <= self.tolerance < 0.5:
            raise ConfigError(f"tolerance must lie in [0, 0.5), got {self.tolerance}")


@dataclass(frozen=True)
class BinomLevelResult:
    """Per-level verdict of an exact Binomial coverage test.

    ``lower_bound``/``upper_bound`` bracket the accepted counts inclusively;
    ``p_value`` is the decision-relevant tail probability at the (possibly
    tolerance-shifted) null.
    """

    level: float
    count: int
    n: int
    p_value: float
    lower_bound: int
    upper_bound: int
    reject: bool


@dataclass(frozen=True)
class TestReport:
    """A single accept/reject decision plus everything needed to audit it."""

    decision: str
    statistic: float
    threshold: float
    alpha: float
    per_level: tuple[BinomLevelResult, ...] | None = None
    p_value: float | None = None
    recipe_config: dict = field(default_factory=dict)

    @property
    def rejected(self) -> bool:
        return self.decision == "reject"


def _decision(reject: bool) -> str:
    return "reject" if reject else "accept"


# ---------------------------------------------------------------------------
# exact Binomial machinery
# ---------------------------------------------------------------------------

@functools.cache
def _binom():
    """The Binomial distribution every tail and quantile here reads, built on
    the first call: ``_BoostBinom`` over the Boost ufuncs that
    ``scipy.stats.binom`` itself calls, or ``scipy.stats.binom`` where those
    private names are missing."""
    try:
        from scipy.special._ufuncs import _binom_cdf, _binom_isf, _binom_ppf, _binom_sf
    except ImportError:  # private names, moved between scipy releases
        from scipy.stats import binom

        return binom

    class _BoostBinom:
        """``scipy.stats.binom``'s scalar ``cdf``, ``sf``, ``ppf`` and ``isf``
        for integer ``n >= 1`` and ``0 < p < 1``, bit for bit: the same Boost
        kernels, with ``rv_discrete``'s flooring of ``k``, its answers outside
        the support ``[0, n)`` and its clipping to [0, 1].  The quantiles take
        ``0 < q < 1``."""

        @staticmethod
        def cdf(k, n, p):
            if k < 0:
                return 0.0
            if k >= n:
                return 1.0
            return min(max(float(_binom_cdf(float(math.floor(k)), float(n), p)), 0.0), 1.0)

        @staticmethod
        def sf(k, n, p):
            if k < 0:
                return 1.0
            if k >= n:
                return 0.0
            return min(max(float(_binom_sf(float(math.floor(k)), float(n), p)), 0.0), 1.0)

        @staticmethod
        def ppf(q, n, p):
            return float(_binom_ppf(q, float(n), p))

        @staticmethod
        def isf(q, n, p):
            return float(_binom_isf(q, float(n), p))

    return _BoostBinom


def binom_lower_quantile(n: int, p: float, a: float) -> int:
    """Smallest integer c with P(C <= c) >= a for C ~ Binomial(n, p)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < p < 1.0 or not 0.0 < a < 1.0:
        raise ValueError("p and a must lie in (0, 1)")
    c = int(np.clip(_binom().ppf(a, n, p), 0, n))
    # scipy's ppf already implements this inverse; nudge across any
    # floating-point knife edge so the definition holds exactly.
    while c > 0 and _binom().cdf(c - 1, n, p) >= a:
        c -= 1
    while c < n and _binom().cdf(c, n, p) < a:
        c += 1
    return c


def binom_upper_quantile(n: int, p: float, a: float) -> int:
    """Largest integer c with P(C >= c) >= a, mirroring the lower quantile."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < p < 1.0 or not 0.0 < a < 1.0:
        raise ValueError("p and a must lie in (0, 1)")
    c = int(np.clip(_binom().isf(a, n, p), 0, n))
    while c < n and _binom().sf(c, n, p) >= a:  # P(C >= c+1) still >= a
        c += 1
    while c > 0 and _binom().sf(c - 1, n, p) < a:  # P(C >= c) < a
        c -= 1
    return c


def binom_directional_p(count: int, n: int, level: float, spec: HypothesisSpec) -> float:
    """Decision p-value at the (tolerance-shifted) null.

    One-sided: lower tail at ``level - tolerance``.  Two-sided: twice the
    smaller of the lower tail at ``level - tolerance`` and the upper tail at
    ``level + tolerance``, capped at 1.  With zero tolerance these are the
    classical exact-Binomial p-values.
    """
    lo_level, hi_level = _shifted_levels(level, spec)
    p_low = float(_binom().cdf(count, n, lo_level))
    if spec.sidedness == ONE_SIDED:
        return p_low
    p_high = float(_binom().sf(count - 1, n, hi_level))  # P(C >= count)
    return min(1.0, 2.0 * min(p_low, p_high))


def _shifted_levels(level: float, spec: HypothesisSpec) -> tuple[float, float]:
    lo = level - spec.tolerance
    hi = level + spec.tolerance
    if not 0.0 < lo < 1.0:
        raise ValueError(
            f"tolerance {spec.tolerance} shifts level {level} out of (0, 1)"
        )
    if spec.sidedness == TWO_SIDED and not 0.0 < hi < 1.0:
        raise ValueError(
            f"tolerance {spec.tolerance} shifts level {level} out of (0, 1)"
        )
    return lo, hi


def binom_test(
    count: int, n: int, level: float, spec: HypothesisSpec, alpha: float
) -> BinomLevelResult:
    """Exact Binomial coverage test at one level.

    Two-sided with zero tolerance reproduces the classical two-tailed test;
    one-sided rejects only when the count is too low; a positive tolerance
    tests against Binomials shifted by the tolerance instead of the exact
    null.  Rejection is by exact integer quantile bounds, so the accepted
    counts are exactly ``lower_bound <= count <= upper_bound``.
    """
    if not 0 <= count <= n:
        raise ValueError(f"count must lie in [0, {n}], got {count}")
    lo_level, hi_level = _shifted_levels(level, spec)
    if spec.sidedness == ONE_SIDED:
        lower = binom_lower_quantile(n, lo_level, alpha)
        upper = n
    else:
        lower = binom_lower_quantile(n, lo_level, alpha / 2.0)
        upper = binom_upper_quantile(n, hi_level, alpha / 2.0)
    reject = count < lower or count > upper
    return BinomLevelResult(
        level=level,
        count=count,
        n=n,
        p_value=binom_directional_p(count, n, level, spec),
        lower_bound=lower,
        upper_bound=upper,
        reject=reject,
    )


# ---------------------------------------------------------------------------
# multiplicity corrections
# ---------------------------------------------------------------------------

def _holm_mask(ps: np.ndarray, alpha: float) -> np.ndarray:
    """Boolean rejection mask of the step-down procedure, original order."""
    k = ps.size
    order = np.argsort(ps, kind="stable")
    mask = np.zeros(k, dtype=bool)
    for rank, idx in enumerate(order):  # rank 0 tests at alpha/k
        if ps[idx] < alpha / (k - rank):
            mask[idx] = True
        else:
            break
    return mask


def coverage_binomial_report(
    curve: CoverageCurve,
    spec: HypothesisSpec,
    alpha: float,
    correction: str = "bonferroni",
) -> TestReport:
    """Per-level exact Binomial tests over a coverage curve, jointly corrected.

    With ``correction="bonferroni"`` each level is tested at ``alpha / K``
    by exact quantile bounds and the family rejects when any level does.
    ``"holm"`` runs the step-down procedure on the decision p-values, which
    rejects at least as often; per-level bounds are then reported at each
    level's realized step threshold.
    """
    if correction not in ("bonferroni", "holm"):
        raise ConfigError(f"unknown correction {correction!r}")
    k = curve.levels.k
    n = curve.n
    counts = curve.counts
    if correction == "bonferroni":
        per_alpha = [alpha / k] * k
    else:
        ps = np.array(
            [
                binom_directional_p(int(c), n, float(lam), spec)
                for c, lam in zip(counts, curve.levels.levels)
            ]
        )
        mask = _holm_mask(ps, alpha)
        order = np.argsort(ps, kind="stable")
        stop = int(mask.sum())  # ranks [0, stop) rejected
        per_alpha = np.empty(k)
        for rank, idx in enumerate(order):
            step = rank if rank < stop else stop
            per_alpha[idx] = alpha / (k - step)
    rows = tuple(
        binom_test(int(c), n, float(lam), spec, a)
        for c, lam, a in zip(counts, curve.levels.levels, per_alpha)
    )
    any_reject = any(r.reject for r in rows)
    p_min = min(r.p_value for r in rows)
    return TestReport(
        decision=_decision(any_reject),
        statistic=p_min,
        threshold=alpha / k,
        alpha=alpha,
        per_level=rows,
        p_value=p_min,
        recipe_config={
            "test": f"binom_{correction}",
            "k": k,
            "n": n,
            "sidedness": spec.sidedness,
            "tolerance": spec.tolerance,
        },
    )


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov on PIT samples
# ---------------------------------------------------------------------------

def ks_statistic(sample: PitSample, spec: HypothesisSpec) -> float:
    """Exact KS statistic of a PIT sample against the uniform diagonal.

    Two-sided: ``sup |F_hat(t) - t|``.  One-sided: ``sup (t - F_hat(t))``,
    the deficit of the ECDF below the diagonal, which is the direction
    over-confidence pushes the folded PIT.  Both suprema are evaluated
    exactly from the order statistics.
    """
    v = np.sort(sample.values)
    n = v.size
    i = np.arange(1, n + 1)
    below = v - (i - 1) / n  # sup of (t - F_hat) approached left of each jump
    if spec.sidedness == ONE_SIDED:
        if not sample.folded:
            raise ValueError("the one-sided statistic is defined on folded samples")
        return float(max(below.max(), 0.0))
    above = i / n - v
    return float(max(below.max(), above.max()))


def ks_critical(n: int, alpha: float, sidedness: str = TWO_SIDED) -> float:
    """Closed-form finite-sample-valid KS critical value.

    ``sqrt(ln(2/alpha) / 2n)`` two-sided, ``sqrt(ln(1/alpha) / 2n)``
    one-sided.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if sidedness not in _SIDES:
        raise ConfigError(f"unknown sidedness {sidedness!r}")
    num = 2.0 if sidedness == TWO_SIDED else 1.0
    return math.sqrt(math.log(num / alpha) / (2.0 * n))


def ks_p_value(statistic: float, n: int, sidedness: str = TWO_SIDED) -> float:
    """P-value from the closed-form exponential bounds (inverse of the
    critical-value formulas)."""
    if not 0.0 <= statistic <= 1.0:
        raise ValueError("statistic must lie in [0, 1]")
    if sidedness not in _SIDES:
        raise ConfigError(f"unknown sidedness {sidedness!r}")
    tail = math.exp(-2.0 * n * statistic * statistic)
    return min(1.0, 2.0 * tail) if sidedness == TWO_SIDED else tail


def ks_test(sample: PitSample, spec: HypothesisSpec, alpha: float) -> TestReport:
    """KS calibration test with optional one-sided tolerance band.

    Two-sided: reject when the statistic exceeds the critical value.
    One-sided on the folded PIT: reject when the deficit exceeds the
    critical value plus the tolerance, i.e. the coverage curve drops below
    ``level - c_alpha - tolerance`` somewhere.  A two-sided tolerance band
    is not defined and is refused.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if spec.sidedness == TWO_SIDED and spec.tolerance > 0.0:
        raise ConfigError(
            "tolerance is only defined for the one-sided KS band; "
            "use sidedness=one_sided_overconfidence"
        )
    stat = ks_statistic(sample, spec)
    crit = ks_critical(sample.n, alpha, spec.sidedness)
    threshold = crit + spec.tolerance
    return TestReport(
        decision=_decision(stat > threshold),
        statistic=stat,
        threshold=threshold,
        alpha=alpha,
        p_value=ks_p_value(stat, sample.n, spec.sidedness),
        recipe_config={
            "test": "ks",
            "sidedness": spec.sidedness,
            "tolerance": spec.tolerance,
            "n": sample.n,
            "folded": sample.folded,
            "band_halfwidth": crit,
        },
    )
