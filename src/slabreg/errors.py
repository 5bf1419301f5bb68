"""Exception hierarchy shared by the library and the CLI, and the one reader
of config values.

Exit codes: 2 configuration, 3 data, 4 numerical, 5 budget.

A config value is checked once, where it is read: ``read(obj, table, where)``
reads a JSON object through a table of ``key -> (kind, default)``, which
declares every key the object may hold, and a kind is a function
``kind(value, name)`` that returns the checked value or raises a ConfigError
naming the key. The caps below bound every size a config can name, and are
checked before anything of that size is allocated.
"""

import json
import os
from math import isfinite, isqrt

# N, m, grid sizes, truth sizes, kernel PCA's top and loo_index entries.
SIZE_CAP = 1 << 18
# Haar dictionary and Besov truth levels (2 ** (levels + 1) and 2 ** levels terms).
LEVELS_CAP = 18
K_TEST_CAP = 64
REPLICATES_CAP = 100_000
N_SAMPLES_CAP = 1 << 24
# Coordinates of a Monte Carlo design point.
DIM_CAP = 64
THREADS_CAP = 16
# Bytes of a dense m x m Gram (Monte Carlo or Gram-file moments: m <= 16384) or kN x m test block.
GRAM_BYTES_CAP = 1 << 31

# The default of a key that must be present.
REQUIRED = object()


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


def read(obj, table: dict, where: str = "") -> dict:
    """``{key: kind(obj[key], where + key)}`` for every key of ``table``, a
    JSON object; an absent key takes its default, or is a ConfigError when
    that default is REQUIRED. The one check of a config object's keys: a key
    the table does not declare is a ConfigError naming it and its place, for
    an ignored key would still be echoed into the artifacts."""
    place = where.rstrip(". ") or "config"
    unknown = sorted(set(json_object(obj, place)).difference(table))
    if unknown:
        at, reader = (f" in {place}", place) if where else ("", "this command")
        known = ", ".join(sorted(table)) or "no keys"
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}{at}; {reader} reads {known}")
    values = {}
    for key, (kind, default) in table.items():
        if key in obj:
            values[key] = kind(obj[key], where + key)
        elif default is REQUIRED:
            raise ConfigError(f"missing key {key!r} in {place}")
        else:
            values[key] = default
    return values


def read_kind(obj, tables: dict, where: str, default=REQUIRED) -> tuple:
    """``obj``'s ``kind``, one of ``tables``' keys, and the rest of ``obj``
    read through that kind's table."""
    kinds = {"kind": (choice(*tables), default)}
    given = {"kind": obj["kind"]} if "kind" in json_object(obj, where.rstrip(". ") or "config") else {}
    kind = read(given, kinds, where)["kind"]
    values = read(obj, {**kinds, **tables[kind]}, where)
    del values["kind"]
    return kind, values


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


def _invalid(name: str, what: str, value) -> ConfigError:
    return ConfigError(f"{name} must be {what}, got {value!r}")


def number(value, name: str) -> float:
    """A finite float."""
    x = json_number(value, name)
    if not isfinite(x):
        raise _invalid(name, "finite", value)
    return x


def nonnegative(value, name: str) -> float:
    """A finite float >= 0."""
    x = number(value, name)
    if x < 0.0:
        raise _invalid(name, ">= 0", x)
    return x


def probability(value, name: str) -> float:
    """A float in (0, 1)."""
    p = number(value, name)
    if not 0.0 < p < 1.0:
        raise _invalid(name, "in (0, 1)", p)
    return p


def count(cap: int, low: int = 1):
    """The kind of an integer in low..cap."""

    def read_count(value, name: str) -> int:
        n = json_number(value, name, int)
        if not low <= n <= cap:
            raise _invalid(name, f"in {low}..{cap}", n)
        return n

    return read_count


def seed(value, name: str) -> int:
    """A non-negative integer (numpy's SeedSequence takes no other)."""
    n = json_number(value, name, int)
    if n < 0:
        raise _invalid(name, "a non-negative integer", n)
    return n


def text(value, name: str) -> str:
    if not isinstance(value, str):
        raise _invalid(name, "a string", value)
    return value


def boolean(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise _invalid(name, "true or false", value)
    return value


def choice(*options: str):
    """The kind of one of ``options``."""

    def read_choice(value, name: str) -> str:
        if not (isinstance(value, str) and value in options):
            raise _invalid(name, f"one of {', '.join(options)}", value)
        return value

    return read_choice


def path(value, name: str) -> str:
    """A string naming an existing file, or anything else one can open to
    read that is not a directory (a pipe, /dev/stdin)."""
    if not (isinstance(value, str) and os.path.exists(value) and not os.path.isdir(value)):
        raise _invalid(name, "an existing file", value)
    return value


def json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise _invalid(name, "a JSON object", value)
    return value


def spec_object(value, name: str) -> dict:
    """A JSON object, given as one or as a string holding one (an inline flag)."""
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{name} spec is not valid JSON: {exc}") from None
    return json_object(value, f"{name} spec")


def spec_of(read_spec):
    """The kind of a spec object (``spec_object``) read by ``read_spec``."""
    return lambda value, name: read_spec(spec_object(value, name))


def list_of(kind, least: int = 0):
    """The kind of a list of at least ``least`` values of ``kind``."""

    def read_list(value, name: str) -> list:
        if not isinstance(value, list) or len(value) < least:
            raise _invalid(name, f"a list of at least {least} values" if least else "a list", value)
        return [kind(item, name) for item in value]

    return read_list


def optional(kind):
    """The kind of null or a value of ``kind``."""
    return lambda value, name: None if value is None else kind(value, name)


def dense_block(rows: int, cols: int, what: str) -> None:
    """Check, before a dense rows x cols float array is allocated, that its
    rows * cols * 8 bytes are within ``GRAM_BYTES_CAP``; past it, a
    ConfigError that ``what`` opens and the bytes close."""
    if 8 * rows * cols > GRAM_BYTES_CAP:
        raise ConfigError(f"{what} would take {8 * rows * cols:,} bytes")


def dense_gram(m: int, name: str) -> None:
    """``dense_block`` for a dense m x m Gram; ``name`` is the key of m."""
    limit = f"at most {isqrt(GRAM_BYTES_CAP // 8)} (a dense m x m Gram of at most {GRAM_BYTES_CAP / 2**30:g} GiB)"
    dense_block(m, m, f"{name} must be {limit}, got {m}: its Gram")
