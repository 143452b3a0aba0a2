"""Exception taxonomy shared across the toolkit, and the number rule the
JSON artifacts' checks share.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""
import math


class PreictalError(Exception):
    pass


class ConfigError(PreictalError):
    """Invalid or inconsistent configuration."""


class DataError(PreictalError):
    """Malformed input data or violated data contract."""


class NumericError(PreictalError):
    """Numerical failure (divergence, NaN loss, degenerate scaling)."""


def is_json_number(value, kind: str) -> bool:
    """Whether a parsed JSON value fits a field of type kind ("int" or
    "float"): a bool is not an int, an int passes for a float, and a float
    must be finite."""
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return True
    return kind == "float" and isinstance(value, float) and math.isfinite(value)
