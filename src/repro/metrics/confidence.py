"""Confidence intervals for trial aggregates.

The paper reports every data point as the mean of 10 trials with a 95%
confidence interval (vertical bars in the figures, ``±`` values in Table I),
and calls two measurements different only when their intervals are disjoint.
This module provides the same machinery: Student-t confidence intervals over
small samples, and the disjoint-interval comparison rule.

The Student-t critical value is computed here from the standard library alone
(:func:`t_critical_value`), so that no process of a sweep — CLI step, pool
worker, fleet worker — has to load scipy for one number; ``scipy.stats.t.ppf``
is the oracle the tests hold it to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

__all__ = [
    "ConfidenceInterval",
    "intervals_disjoint",
    "mean_confidence_interval",
    "significantly_greater",
    "t_critical_value",
]


@dataclass(frozen=True, slots=True)
class ConfidenceInterval:
    """A sample mean with its symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    sample_size: int

    @property
    def low(self) -> float:
        """Lower end of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper end of the interval."""
        return self.mean + self.half_width

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """True when the two intervals share any point (the paper's
        "statistically identical")."""
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"{self.mean:.3f} ± {self.half_width:.3f}"


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the incomplete beta function ``B_x(a, b)``
    (modified Lentz evaluation); converges fast for ``x < (a+1)/(a+b+2)``."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            if abs(c) < tiny:
                c = tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise ArithmeticError(f"incomplete beta fraction({a}, {b}, {x}) did not converge")


def _two_tail(t: float, df: int, norm: float) -> float:
    """``P(|T| > t)`` for Student's t: the regularised incomplete beta
    ``I_x(df/2, 1/2)`` at ``x = df / (df + t^2)``, taken through its
    complement when ``x`` is past the fraction's fast region."""
    a = 0.5 * df
    x = df / (df + t * t)
    y = t * t / (df + t * t)  # 1 - x, without the cancellation
    # x**a as exp(log1p): a rounding error in x itself would be amplified a-fold.
    front = norm * math.exp(-a * math.log1p(t * t / df)) * math.sqrt(y)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_fraction(a, 0.5, x) / a
    return 1.0 - 2.0 * front * _beta_fraction(0.5, a, y)


@lru_cache(maxsize=1024)
def t_critical_value(confidence: float, df: int) -> float:
    """The ``t`` with ``P(|T| <= t) = confidence`` for ``df`` degrees of freedom
    (``scipy.stats.t.ppf((1 + confidence) / 2, df)``, to ~1e-13 relative).

    Newton's iteration on the two-tail probability, started at zero: that
    function is convex and decreasing on ``t >= 0``, so every iterate stays
    below the root and the sequence climbs to it monotonically — no bracket
    needed.  Raises ``ValueError`` naming the argument for a ``confidence``
    outside (0, 1) or a ``df`` that is not a positive integer.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    if not isinstance(df, int) or df < 1:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    # Upper-tail probability of the quantile's argument; 1 - p is exact here.
    upper_tail = 1.0 - (1.0 + confidence) / 2.0
    # Gamma((df+1)/2) / (sqrt(pi) Gamma(df/2)) by its two-step recurrence from
    # df = 1 or 2: a difference of lgamma values loses ~1e-12 at df ~ 1000.
    norm = 1.0 / math.pi if df % 2 else 0.5
    for k in range(2 - df % 2, df, 2):
        norm *= (k + 1) / k
    t = 0.0
    for _ in range(500):
        density = norm / math.sqrt(df) * math.exp(
            -0.5 * (df + 1) * math.log1p(t * t / df)
        )
        step = (_two_tail(t, df, norm) - 2.0 * upper_tail) / (2.0 * density)
        t += step
        if abs(step) <= 1e-10 * t:  # quadratic convergence: t is now exact
            return t
    raise ArithmeticError(f"t quantile({confidence}, {df}) did not converge")


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval of the mean of ``values``.

    A single observation (or identical observations) yields a zero-width
    interval; an empty sample is rejected.
    """
    if not values:
        raise ValueError("cannot compute a confidence interval of no samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return ConfidenceInterval(mean, 0.0, confidence, n)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    std_error = math.sqrt(variance / n)
    t_critical = t_critical_value(confidence, n - 1)
    return ConfidenceInterval(mean, t_critical * std_error, confidence, n)


def intervals_disjoint(a: ConfidenceInterval, b: ConfidenceInterval) -> bool:
    """The paper's "better/worse" criterion: disjoint 95% intervals."""
    return not a.overlaps(b)


def significantly_greater(
    a: ConfidenceInterval, b: ConfidenceInterval, *, margin: float = 0.0
) -> bool:
    """True when ``a`` lies entirely above ``b`` by more than ``margin``.

    This is the paper's one-sided "better" criterion with an optional slack:
    the science gate uses ``margin`` to encode "matches" claims, so a
    hair's-breadth mean difference at single-trial scales (where intervals
    have zero width) does not read as a significant ordering.
    """
    return a.low > b.high + margin
