"""Exception taxonomy shared by the library and the CLI, and the one rule
for a number read from a config or a JSON file.

The CLI maps these onto its exit codes: ConfigError -> 2,
InfeasibleDesignError -> 3, NumericError -> 4; it also maps a MemoryError
(an array size no machine can allocate) -> 2.
"""

import math
import numbers


class SeqtestError(Exception):
    """Base class for library errors."""


class ConfigError(SeqtestError):
    """A configuration value is missing, malformed, or out of range."""


class InfeasibleDesignError(SeqtestError):
    """The requested detection design has no solution in the admissible range."""


class NumericError(SeqtestError):
    """A computed result fails a numeric check: a design's radius residual
    exceeds its rounding bound, or an output holds a number (inf, NaN) that
    JSON cannot represent."""


def finite_real(value, key: str) -> float:
    """``value`` as a float, if it is a real number (not a string or a
    boolean) that is finite as a float; a ConfigError naming ``key`` if not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key!r} must be finite, got {value!r}")
    return number
