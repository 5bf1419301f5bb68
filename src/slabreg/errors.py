"""Exception hierarchy shared by the library and the CLI.

Exit codes: 2 configuration, 3 data, 4 numerical, 5 budget.
"""


class SlabregError(Exception):
    exit_code = 1


class ConfigError(SlabregError):
    """Invalid or incomplete configuration (missing constants, bad variant...)."""

    exit_code = 2


class DataError(SlabregError):
    """Malformed or out-of-domain input data."""

    exit_code = 3


class NumericalError(SlabregError):
    """Numerical failure: non-finite values, failed decompositions, iteration caps."""

    exit_code = 4


class BudgetError(SlabregError):
    """Wall-clock budget exceeded."""

    exit_code = 5


def json_number(value, field: str, kind=float):
    """``kind(value)`` for a number read from a JSON spec. A string, a boolean,
    a value ``kind`` rejects, or a fractional value read as an int is a
    ConfigError naming the field."""
    try:
        if isinstance(value, (str, bool)):
            raise TypeError
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{field} must be a number, got {value!r}") from None
    if kind is int and number != value:
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return number


def json_field(obj, key: str, where: str):
    """``obj[key]`` for an object read from a JSON spec. A missing key, or an
    ``obj`` that is not an object, is a ConfigError naming the key."""
    if not isinstance(obj, dict) or key not in obj:
        raise ConfigError(f"missing key {key!r} in {where}")
    return obj[key]
