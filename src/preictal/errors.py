"""Exception taxonomy shared across the toolkit, and the one check of a parsed
JSON artifact against its declared keys and kinds (`check_json`).

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""
import math
from dataclasses import fields


class PreictalError(Exception):
    pass


class ConfigError(PreictalError):
    """Invalid or inconsistent configuration."""


class DataError(PreictalError):
    """Malformed input data or violated data contract."""


class NumericError(PreictalError):
    """Numerical failure (divergence, NaN loss, degenerate scaling)."""


def field_kinds(cls, names=None) -> dict[str, str]:
    """The type strings of a dataclass's fields (all, or those in names)."""
    return {f.name: f.type for f in fields(cls) if names is None or f.name in names}


def _fits(value, kind) -> bool:
    if isinstance(kind, tuple):   # one of these strings
        return isinstance(value, str) and value in kind
    if kind.endswith(" | None"):
        return value is None or _fits(value, kind.removesuffix(" | None"))
    if kind.endswith(" > 0"):
        return _fits(value, kind.removesuffix(" > 0")) and value > 0
    if kind.startswith("list["):
        return isinstance(value, list) and all(_fits(v, kind[5:-1]) for v in value)
    if kind in ("str", "dict"):
        return isinstance(value, str if kind == "str" else dict)
    if isinstance(value, bool) or kind not in ("int", "float"):   # a bool is not an int
        return False
    # an int passes for a float, and a float must be finite
    return isinstance(value, int) or (kind == "float" and isinstance(value, float)
                                      and math.isfinite(value))


def check_json(value, kinds: dict, at: str = "") -> dict:
    """The keys of kinds in value, a JSON object that must hold each with a
    value of that key's kind, else a DataError naming the key (`a.b`: key b of
    the object at key a); other keys are left out, so a reader sees only the
    declared ones.  A kind is a field type string ("str", "dict", "int",
    "float", "float | None", "list[float]"; "int > 0" and "float > 0" are
    positive), a tuple of the strings allowed, or a dict of a nested object's
    kinds."""
    if not isinstance(value, dict):
        raise DataError(f"holds a JSON {type(value).__name__}{' at ' + at[:-1] if at else ''}, "
                        f"not an object")
    checked = {}
    for key, kind in kinds.items():
        if key not in value:
            raise DataError(f"lacks {at}{key}")
        if isinstance(kind, dict):
            checked[key] = check_json(value[key], kind, f"{at}{key}.")
        elif _fits(value[key], kind):
            checked[key] = value[key]
        else:
            raise DataError(f"holds {at}{key} = {value[key]!r}, not "
                            + (f"one of {kind}" if isinstance(kind, tuple) else kind))
    return checked
