"""The special functions the PITs and the Binomial tests read, in numpy alone.

* :func:`ndtr`, the standard normal CDF, is Cephes' ``ndtr`` (Moshier, after
  Cody's rational Chebyshev approximations of ``erf`` and ``erfc``) step for
  step, so it returns scipy's ``ndtr`` bit for bit: the same coefficients
  in Horner order, and ``exp`` from libm through :func:`math.exp`, since
  ``np.exp`` rounds differently on some inputs.
* :func:`chi2_cdf` is the chi-square CDF of integer degrees of freedom, the
  regularized lower incomplete gamma function ``P(d/2, x/2)``.
* :class:`Binomial` holds the tails and quantiles of one Binomial law, its
  pmf summed from each end.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["ndtr", "chi2_cdf", "Binomial"]

_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # past it, Cephes' erfc returns 0
# Cephes' numerators and denominators, highest power first: T/U for erf on
# |x| < 1, P/Q for erfc on 1 <= |x| < 8 and R/S beyond.  A denominator's
# leading 1 is what p1evl adds; leading zeros leave Horner's steps exact.
_NUM = [
    [9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
     7.00332514112805075473e3, 5.55923013010394962768e4],
    [2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2],
    [5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0],
]
_DEN = [
    [1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
     2.26290000613890934246e4, 4.92673942608635921086e4],
    [1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2],
    [1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878018e0, 3.36907645100081516050e0],
]
# (power, numerator or denominator, branch)
_COEF = np.array([[[0.0] * (9 - len(c)) + c for c in part] for part in (_NUM, _DEN)]
                 ).transpose(2, 0, 1).copy()


def ndtr(a) -> np.ndarray:
    """The standard normal CDF of each value of ``a``, as Cephes computes it.

    One Horner pass evaluates each value's numerator and denominator, their
    coefficients picked by its branch; ``exp(-x^2)`` is taken only where
    ``erfc`` reads it.  Cephes' ``erfc`` is ``(exp(-x^2) * p) / q``, in that
    order; ``exp(-x^2) * (p / q)`` rounds differently.
    """
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    near = z < _SQRT1_2  # 0.5 + 0.5 erf(x); beyond, 0.5 erfc(|x|), reflected for x > 0
    tail = z >= 1.0  # erfc by its own approximations; below 1, erfc is 1 - erf
    zc = np.minimum(z, 27.0)  # past sqrt(MAXLOG), erfc is 0 whatever p and q read
    v = np.where(tail, zc, zc * zc)
    coef = np.take(_COEF, tail.view(np.uint8) + (z >= 8.0).view(np.uint8), axis=2)
    pq = coef[0] * v
    for c in coef[1:-1]:
        pq += c
        pq *= v
    pq += coef[-1]
    m = np.where(near, x, z)
    vt = v[tail]
    t = -vt * vt
    e = np.fromiter(map(math.exp, t.tolist()), float, t.size)
    e[t < -_MAXLOG] = 0.0
    m[tail] = e
    r = m * pq[0] / pq[1]  # erf(x), erf(|x|) or erfc(|x|)
    half = 0.5 * np.where(tail, r, 1.0 - r)
    return np.where(near, 0.5 + 0.5 * r, np.where(x > 0.0, 1.0 - half, half))


def chi2_cdf(x, d: int) -> np.ndarray:
    """The chi-square CDF with ``d`` degrees of freedom at each value of ``x``:
    ``P(a, y)`` with ``a = d/2`` and ``y = x/2``.

    Below ``y = a + 1`` it sums the series ``y^a e^-y / Gamma(a+1) *
    sum_j y^j / ((a+1)...(a+j))``, whose terms fall geometrically there, so
    a small ``P`` keeps its relative accuracy.  From there on ``P >= 1/2``,
    and it is ``1 - Q`` with ``Q`` in closed form: the Poisson sum
    ``sum_s y^s e^-y / s!`` over ``s = a-1, a-2, ..., 0`` for even ``d``, and
    for odd ``d`` ``erfc(sqrt y)`` plus that sum over ``s = a-1, ..., 1/2``.
    """
    y = np.asarray(x, dtype=float) / 2.0
    a = d / 2.0
    out = np.empty_like(y)
    low = y < a + 1.0
    yl = y[low]
    term, total, j = np.ones_like(yl), np.ones_like(yl), 0
    while (term > 1e-17 * total).any():
        j += 1
        term *= yl / (a + j)
        total += term
    with np.errstate(divide="ignore"):  # y = 0: log 0 = -inf, and P = 0
        out[low] = np.exp(a * np.log(yl) - yl - math.lgamma(a + 1.0)) * total
    yu = np.minimum(y[~low], 1e300)  # Q underflows long before, and inf - inf is NaN
    s = a - np.arange(1.0, d // 2 + 1.0)
    lgam = np.array([math.lgamma(v + 1.0) for v in s])
    q = np.exp(s[:, None] * np.log(yu) - yu - lgam[:, None]).sum(axis=0)
    if d % 2:
        q += 2.0 * ndtr(-np.sqrt(2.0 * yu))  # erfc(sqrt y)
    out[~low] = 1.0 - q
    return out


class Binomial:
    """Binomial(n, p) for integer ``n >= 1`` and ``0 < p < 1``, its tails
    read from its pmf summed from each end.

    The pmf is held on the window ``np -+ t``, ``t = 250 + sqrt(62500 +
    1500 npq)``: by Bernstein's inequality every term outside it is below
    ``2 exp(-750)``, under the smallest float, so a tail summed over the
    window is the tail summed over all of ``0..n``.  From the mode outward,
    each term is the one before it times ``pmf(k+1) / pmf(k)``, and the
    terms are normalised by their sum: no ``lgamma`` of a large argument
    blurs them, and no sum of logs (which lost 3e-8 of a tail near 1e-280).
    """

    def __init__(self, n: int, p: float):
        t = 250.0 + math.sqrt(62500.0 + 1500.0 * n * p * (1.0 - p))
        self.n, self.lo = n, max(0, math.floor(n * p - t))
        hi = min(n, math.ceil(n * p + t))
        mode = min(max(math.floor((n + 1) * p), self.lo), hi) - self.lo
        # pmf(k+1) / pmf(k) = (n - k) / (k + 1) * odds, for k = lo..hi-1
        ratio = np.arange(n - self.lo, n - hi, -1.0) / np.arange(self.lo + 1.0, hi + 1.0)
        odds = p / (1.0 - p)
        self.pmf = np.empty(hi - self.lo + 1)
        self.pmf[mode] = 1.0
        np.cumprod(ratio[mode:] * odds, out=self.pmf[mode + 1:])
        np.cumprod((1.0 / odds) / ratio[:mode][::-1], out=self.pmf[:mode][::-1])

    @functools.cached_property
    def _le(self) -> np.ndarray:
        """``P(C <= lo + i)`` at index ``i``, times the pmf's sum, its last entry."""
        return np.cumsum(self.pmf)

    @functools.cached_property
    def _ge(self) -> np.ndarray:
        """``P(C >= hi - j)`` at index ``j``, times the pmf's sum, its last entry."""
        return np.cumsum(self.pmf[::-1])

    def cdf(self, k: int) -> float:
        """``P(C <= k)``."""
        i = k - self.lo  # below the window, 0; from its top on, 1
        return 0.0 if i < 0 else 1.0 if i >= self.pmf.size else float(self._le[i] / self._le[-1])

    def sf(self, k: int) -> float:
        """``P(C > k)``."""
        j = self.pmf.size - 2 - (k - self.lo)  # index of P(C >= k + 1) in _ge
        return 1.0 if j >= self.pmf.size else 0.0 if j < 0 else float(self._ge[j] / self._ge[-1])

    def ppf(self, q: float) -> int:
        """About the smallest ``c`` with ``P(C <= c) >= q``, for ``0 < q < 1``:
        one rounding of ``q`` times the sum may move it by one."""
        return self.lo + int(np.searchsorted(self._le, q * self._le[-1]))

    def isf(self, q: float) -> int:
        """About the largest ``c`` with ``P(C >= c) >= q``, for ``0 < q < 1``,
        as :meth:`ppf` is."""
        return self.lo + self.pmf.size - 1 - int(np.searchsorted(self._ge, q * self._ge[-1]))
