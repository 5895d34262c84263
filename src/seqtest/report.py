"""The normal approximation every test family is judged by, and the uniform
result record.

Each family rejects when its standardized statistic exceeds x_alpha, the
upper alpha quantile of N(0, 1), and its asymptotic type II error against a
signal is Phi(x_alpha - drift), where drift is the family's standardized
mean shift.  Both come from the standard library:

    x_alpha = -Phi^{-1}(alpha)           (``statistics.NormalDist.inv_cdf``)
    Phi(x)  = erfc(-x / sqrt(2)) / 2     (``math.erfc``)

The quantile is taken at alpha itself, not at 1 - alpha: the inverse is
defined on all of (0, 1), and forming 1 - alpha would round a tiny alpha
away (to 1.0 below about 1.1e-16, where the quantile is infinite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .errors import ConfigError

_STANDARD_NORMAL = NormalDist()


def upper_quantile(alpha: float) -> float:
    """x_alpha with P(N(0,1) > x_alpha) = alpha."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    return -_STANDARD_NORMAL.inv_cdf(alpha)


def normal_cdf(x: float) -> float:
    return math.erfc(-x / math.sqrt(2.0)) / 2.0


def normal_type2(drift: float, alpha: float) -> float:
    """Phi(x_alpha - drift): the type II error of a level-alpha test whose
    standardized statistic is N(drift, 1) under the alternative."""
    return normal_cdf(upper_quantile(alpha) - drift)


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test applied to one dataset.

    ``statistic`` is the raw family statistic, ``standardized`` the quantity
    compared against ``threshold``; ``reject``, whether it exceeds it, is the
    alpha-level decision.  ``predicted_type2`` is filled by ``minimax_test``,
    whose design fixes the signal it is tuned against; the other families
    leave it None, and their ``predicted_type2_*`` give it for a signal.
    """

    family: str
    statistic: float
    standardized: float
    threshold: float
    alpha: float
    n: int
    predicted_type2: float | None = None
    details: dict | None = None

    @property
    def reject(self) -> bool:
        return bool(self.standardized > self.threshold)
