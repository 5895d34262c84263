"""Uniform result record for every test family."""

from __future__ import annotations

from dataclasses import dataclass

from scipy.special import ndtr, ndtri

from .errors import ConfigError


def upper_quantile(alpha: float) -> float:
    """x_alpha with P(N(0,1) > x_alpha) = alpha."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    return float(ndtri(1.0 - alpha))


def normal_cdf(x: float) -> float:
    return float(ndtr(x))


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test applied to one dataset.

    ``statistic`` is the raw family statistic, ``standardized`` the quantity
    compared against ``threshold``; ``reject`` is the alpha-level decision.
    ``predicted_type2`` is filled when the caller supplies the signal needed
    for the family's error formula, else None.
    """

    family: str
    statistic: float
    standardized: float
    threshold: float
    alpha: float
    reject: bool
    n: int
    predicted_type2: float | None = None
    details: dict | None = None
