"""Exception taxonomy shared by the library and the CLI, the one rule for a
number read from a config or a JSON file, and the one rule for a length.

The CLI maps these onto its exit codes: ConfigError -> 2,
InfeasibleDesignError -> 3, NumericError -> 4; it also maps a MemoryError
(an allocation that passes ``check_length`` and still fails) -> 2.
"""

import functools
import math
import numbers
import os


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


@functools.cache
def physical_floats() -> float:
    """The float64 values this machine's physical memory holds, read once;
    inf where the platform does not report its memory."""
    if not hasattr(os, "sysconf"):
        return math.inf
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 8


def check_length(key: str, length):
    """``length``, if it is at least 1 and a float64 array of that many
    values fits in this machine's physical memory; a ConfigError naming
    ``key`` if not (an infinite or NaN length included)."""
    if not length >= 1:
        raise ConfigError(f"{key!r} must give a length of at least 1, got {length}")
    if not length <= physical_floats():
        raise ConfigError(f"{key!r} asks for {length} float64 values, more than the "
                          f"{physical_floats()} this machine's memory holds")
    return length
