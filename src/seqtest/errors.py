"""Exception taxonomy shared by the library and the CLI.

The CLI maps these onto its exit codes: ConfigError -> 2,
InfeasibleDesignError -> 3, NumericError -> 4; it also maps a MemoryError
(an array size no machine can allocate) -> 2.
"""


class SeqtestError(Exception):
    """Base class for library errors."""


class ConfigError(SeqtestError):
    """A configuration value is missing, malformed, or out of range."""


class InfeasibleDesignError(SeqtestError):
    """The requested detection design has no solution in the admissible range."""


class NumericError(SeqtestError):
    """A computed result fails a numeric check: a design's radius residual
    exceeds its rounding bound, or an output holds a number (inf, NaN) that
    JSON cannot represent.  No iterative routine is left in the library."""
