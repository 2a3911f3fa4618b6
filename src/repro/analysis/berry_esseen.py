"""Berry-Esseen machinery (Theorem 4, used in Claim 5 of the lower bound).

Claim 5 of the paper shows that when ``M >= Cn`` balls contact uniform
bins, *any* bin receives at least ``mu + 2 sqrt(mu)`` requests with
constant probability ``p0`` — the engine of the rejection lower bound.
The proof normalizes the load of one bin and applies the Berry-Esseen
inequality: the CDF of the normalized load is within
``c * rho / (sigma^3 sqrt(M))`` of the standard normal CDF.

This module provides:

* :func:`berry_esseen_bound` — the CDF-distance bound for i.i.d.
  Bernoulli(p) summands (the exact random variables of Claim 5);
* :func:`overload_probability_lower_bound` — the resulting *lower* bound
  on ``P[X >= mu + a sqrt(mu)]``, which experiments compare against the
  empirical overload frequency;
* :func:`binomial_upper_deviation_probability` — the exact binomial tail
  via the regularized incomplete beta function (scipy), used as ground
  truth in tests.

The Berry-Esseen constant ``c`` is not pinned down by the theorem; the
best published value is 0.4690 (Shevtsova 2011) for i.i.d. summands,
which we adopt as the default.
"""

from __future__ import annotations

import math

__all__ = [
    "BERRY_ESSEEN_CONSTANT",
    "berry_esseen_bound",
    "binomial_upper_deviation_probability",
    "overload_probability_lower_bound",
]

#: Best known universal constant for i.i.d. summands (Shevtsova 2011).
BERRY_ESSEEN_CONSTANT: float = 0.4690


def berry_esseen_bound(
    m_balls: int, p: float, *, constant: float = BERRY_ESSEEN_CONSTANT
) -> float:
    """The Berry-Esseen CDF-distance bound for a Binomial(M, p) load.

    For centered Bernoulli summands ``Y_j = X_j - p``:
    ``sigma^2 = p (1 - p)`` and ``rho = E|Y_j|^3
    = p (1 - p) (p^2 + (1-p)^2) <= p (1 - p) (1 - 2 p (1 - p))``.
    The theorem then bounds ``sup_s |F(s) - Phi(s)|`` by
    ``constant * rho / (sigma^3 sqrt(M))``.

    Parameters
    ----------
    m_balls:
        Number of summands ``M`` (balls contacting bins this round).
    p:
        Success probability of each summand (``1/n`` for uniform choice).
    constant:
        The universal constant ``c``.
    """
    if m_balls < 1:
        raise ValueError(f"m_balls must be >= 1, got {m_balls}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    sigma2 = p * (1.0 - p)
    # Exact third absolute moment of a centered Bernoulli(p):
    # E|X - p|^3 = p(1-p) * ((1-p)^2 + p^2).
    rho = sigma2 * ((1.0 - p) ** 2 + p**2)
    return constant * rho / (sigma2**1.5 * math.sqrt(m_balls))


def overload_probability_lower_bound(
    m_balls: int,
    n_bins: int,
    a: float = 2.0,
    *,
    constant: float = BERRY_ESSEEN_CONSTANT,
) -> float:
    """Lower bound on ``P[X >= mu + a * sqrt(mu)]`` for one bin's load.

    Follows the computation in Claim 5: with ``mu = M/n``,
    ``P[Y >= x sigma sqrt(M)] >= 1 - Phi(x) - BE`` where
    ``x sigma sqrt(M) = a sqrt(mu)`` requires
    ``x = a sqrt(mu) / (sigma sqrt(M)) = a / sqrt(1 - p)`` with
    ``p = 1/n``.  The returned value is clamped at 0 (the bound is vacuous
    when the Berry-Esseen error exceeds the normal tail, i.e. when
    ``M/n`` is too small — exactly the ``M >= Cn`` prerequisite).

    Returns
    -------
    float
        A number in ``[0, 1)``; positive iff the paper's constant-
        probability overload event is certified at these parameters.
    """
    # scipy is imported here, not at module level, so that importing
    # the package (every allocation path) does not load it.
    from scipy import stats

    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    p = 1.0 / n_bins
    x = a / math.sqrt(1.0 - p)
    tail = 1.0 - stats.norm.cdf(x)
    be = berry_esseen_bound(m_balls, p, constant=constant)
    return max(0.0, tail - be)


def binomial_upper_deviation_probability(
    m_balls: int, n_bins: int, a: float = 2.0
) -> float:
    """Exact ``P[X >= mu + a sqrt(mu)]`` for ``X ~ Binomial(M, 1/n)``.

    Used as the ground-truth comparator for
    :func:`overload_probability_lower_bound` in tests and experiment F3's
    sanity columns.  Computed via the survival function of the binomial
    distribution at the smallest integer ``>= mu + a sqrt(mu)``.
    """
    from scipy import stats

    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if m_balls < 0:
        raise ValueError(f"m_balls must be >= 0, got {m_balls}")
    p = 1.0 / n_bins
    mu = m_balls * p
    threshold = math.ceil(mu + a * math.sqrt(mu))
    # sf(k-1) = P[X >= k]
    return float(stats.binom.sf(threshold - 1, m_balls, p))
