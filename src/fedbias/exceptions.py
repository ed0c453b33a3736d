"""Error types shared across the package.

The CLI maps errors onto exit statuses: configuration problems exit 1,
data/parse problems (and OS errors on files) exit 2, and every other
``ValueError`` or ``ArithmeticError`` raised at runtime (a malformed
aggregation, an empty prediction log, a ``NumericError``) exits 3.
"""


class ConfigurationError(ValueError):
    """A config value, mode combination, or experiment setup is invalid."""


class DataFormatError(ValueError):
    """A data file could not be parsed. Messages name the offending line."""


class NumericError(ArithmeticError):
    """A computation received or produced non-finite values."""
