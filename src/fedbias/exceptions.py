"""Error types shared across the package, and dataclass fields with bounds.

The CLI maps errors onto exit statuses: configuration problems exit 1,
data/parse problems (and OS errors on files) exit 2, and every other
``ValueError`` or ``ArithmeticError`` raised at runtime (a malformed
aggregation, an empty prediction log, a ``NumericError``) exits 3.
"""

import math
import operator
from dataclasses import field, fields
from typing import Any


class ConfigurationError(ValueError):
    """A config value, mode combination, or experiment setup is invalid."""


class DataFormatError(ValueError):
    """A data file could not be parsed. Messages name the offending line."""


class NumericError(ArithmeticError):
    """A computation received or produced non-finite values."""


def bound(low: int, high: int | None = None, *, strict: bool = False) -> tuple:
    """The bound of a value that must be at least ``low`` and, if given, at
    most ``high``; ``strict`` excludes both ends. ``refusal`` reads it."""
    if high is None:
        text = f"{'>' if strict else '>='} {low}"
    else:
        text = f"in {'(' if strict else '['}{low}, {high}{')' if strict else ']'}"
    return text, low, high, strict


def bounded(low: int, high: int | None = None, *, strict: bool = False, **kwargs: Any) -> Any:
    """A dataclass field, ``field(**kwargs)``, held to ``bound(low, high,
    strict=strict)``, which ``check_bounds`` checks."""
    kwargs["metadata"] = {**kwargs.get("metadata", {}), "bound": bound(low, high, strict=strict)}
    return field(**kwargs)


def refusal(bound: tuple, value: Any) -> str | None:
    """Why ``bound`` refuses ``value``, as ``must be ...``, a float being
    finite too; None if it takes it."""
    text, low, high, strict = bound
    if isinstance(value, float) and not math.isfinite(value):
        return "must be finite"
    below = operator.lt if strict else operator.le
    if below(low, value) and (high is None or below(value, high)):
        return None
    return f"must be {text}"


def check_bound(name: str, bound: tuple, value: Any) -> None:
    """Refuse ``value`` if ``bound`` does, naming it: ``rounds must be >= 0``."""
    reason = refusal(bound, value)
    if reason:
        raise ConfigurationError(f"{name} {reason}")


def check_bounds(obj: Any) -> None:
    """Refuse the first field of dataclass ``obj`` whose bound refuses its
    value, naming the field."""
    for f in fields(obj):
        if "bound" in f.metadata:
            check_bound(f.name, f.metadata["bound"], getattr(obj, f.name))
