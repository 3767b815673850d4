"""Offline hypothesis tests: exact Binomial, KS bands, multiplicity control.

Everything here turns a metric output into a single accept/reject decision
with a controlled false-rejection rate.  Two hypothesis refinements thread
through every test: a one-sided variant that only rejects over-confidence
(under-coverage), and a tolerance that widens the null by an engineering
margin so benign miscalibration survives large samples.

Binomial tail probabilities are exact sums of the pmf
(:class:`calcheck.special.Binomial`), never a normal approximation, so the
integer quantiles are exact at any sample size.  Each level's Binomial laws
are built once, and read for both its bounds and its p-value.

KS critical values use the closed-form finite-sample-valid bounds rather
than the asymptotic Kolmogorov distribution; the slight conservatism is the
safe direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .metric import CoverageCurve, PitSample
from .special import Binomial

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

def _check_quantile_args(n: int, p: float, a: float) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < p < 1.0 or not 0.0 < a < 1.0:
        raise ValueError("p and a must lie in (0, 1)")


def _lower_quantile(law: Binomial, a: float) -> int:
    c = law.ppf(a)
    # ppf already implements this inverse; nudge across any floating-point
    # knife edge so the definition holds exactly.
    while c > 0 and law.cdf(c - 1) >= a:
        c -= 1
    while c < law.n and law.cdf(c) < a:
        c += 1
    return c


def _upper_quantile(law: Binomial, a: float) -> int:
    c = law.isf(a)
    while c < law.n and law.sf(c) >= a:  # P(C >= c+1) still >= a
        c += 1
    while c > 0 and law.sf(c - 1) < a:  # P(C >= c) < a
        c -= 1
    return c


def binom_lower_quantile(n: int, p: float, a: float) -> int:
    """Smallest integer c with P(C <= c) >= a for C ~ Binomial(n, p)."""
    _check_quantile_args(n, p, a)
    return _lower_quantile(Binomial(n, p), a)


def binom_upper_quantile(n: int, p: float, a: float) -> int:
    """Largest integer c with P(C >= c) >= a, mirroring the lower quantile."""
    _check_quantile_args(n, p, a)
    return _upper_quantile(Binomial(n, p), a)


def _laws(n: int, level: float, spec: HypothesisSpec) -> tuple[Binomial, Binomial | None]:
    """The Binomial laws a level's count is tested against: at ``level -
    tolerance``, and two-sided at ``level + tolerance`` (None one-sided),
    each built once; with zero tolerance both are one law."""
    lo_level, hi_level = _shifted_levels(level, spec)
    low = Binomial(n, lo_level)
    if spec.sidedness == ONE_SIDED:
        return low, None
    return low, low if hi_level == lo_level else Binomial(n, hi_level)


def _directional_p(count: int, low: Binomial, high: Binomial | None) -> float:
    p_low = low.cdf(count)
    if high is None:
        return p_low
    return min(1.0, 2.0 * min(p_low, high.sf(count - 1)))  # P(C >= count)


def binom_directional_p(count: int, n: int, level: float, spec: HypothesisSpec) -> float:
    """Decision p-value at the (tolerance-shifted) null.

    One-sided: lower tail at ``level - tolerance``.  Two-sided: twice the
    smaller of the lower tail at ``level - tolerance`` and the upper tail at
    ``level + tolerance``, capped at 1.  With zero tolerance these are the
    classical exact-Binomial p-values.
    """
    return _directional_p(count, *_laws(n, level, spec))


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
    return _level_result(count, level, alpha, *_laws(n, level, spec))


def _level_result(count: int, level: float, alpha: float, low: Binomial,
                  high: Binomial | None, p_value: float | None = None) -> BinomLevelResult:
    """:func:`binom_test` on the level's laws (:func:`_laws`), with its
    p-value when it is already known."""
    if high is None:
        lower, upper = _lower_quantile(low, alpha), low.n
    else:
        lower, upper = _lower_quantile(low, alpha / 2.0), _upper_quantile(high, alpha / 2.0)
    return BinomLevelResult(
        level=level,
        count=count,
        n=low.n,
        p_value=_directional_p(count, low, high) if p_value is None else p_value,
        lower_bound=lower,
        upper_bound=upper,
        reject=count < lower or count > upper,
    )


# ---------------------------------------------------------------------------
# multiplicity corrections
# ---------------------------------------------------------------------------

def _holm_alphas(ps: np.ndarray, alpha: float) -> np.ndarray:
    """Each p-value's step-down threshold, in original order.

    The p-value of rank ``r`` (0 for the smallest, ties in input order) is
    tested at ``alpha / (k - r)`` until the first rank ``stop`` that is not
    rejected; from there on every rank is held at ``alpha / (k - stop)``.
    The procedure rejects exactly ``ps < _holm_alphas(ps, alpha)``.
    """
    k = ps.size
    order = np.argsort(ps, kind="stable")
    rank = np.empty(k, dtype=int)
    rank[order] = np.arange(k)
    passed = ps[order] < alpha / (k - np.arange(k))
    stop = k if passed.all() else int(passed.argmin())
    return alpha / (k - np.minimum(rank, stop))


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
    counts, levels = curve.counts.tolist(), curve.levels.levels.tolist()
    if correction == "bonferroni":  # one level's laws at a time
        rows = tuple(binom_test(c, n, lam, spec, alpha / k) for c, lam in zip(counts, levels))
    else:  # each level's laws and p-value serve both passes
        laws = [_laws(n, lam, spec) for lam in levels]
        ps = [_directional_p(c, *law) for c, law in zip(counts, laws)]
        rows = tuple(_level_result(c, lam, a, *law, p) for c, lam, a, law, p in
                     zip(counts, levels, _holm_alphas(np.array(ps), alpha).tolist(), laws, ps))
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
    exactly from the order statistics; values already in order, as the CLI
    hands them over, are read as they are, not sorted into a copy.
    """
    if spec.sidedness == ONE_SIDED and not sample.folded:
        raise ValueError("the one-sided statistic is defined on folded samples")
    v = sample.values
    if not (v[1:] >= v[:-1]).all():
        v = np.sort(v)
    n = v.size
    below = float((v - np.arange(n) / n).max())  # sup of (t - F_hat) left of each jump
    if spec.sidedness == ONE_SIDED:
        return max(below, 0.0)
    return max(below, float((np.arange(1, n + 1) / n - v).max()))


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
