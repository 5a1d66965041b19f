"""brauerkit: Picard and Brauer groups of KO, TMF and number rings."""

import json
import os

_DATA_DIR = os.path.join(os.path.dirname(os.path.realpath(__file__)), "data")


def data_dir() -> str:
    """The curated data directory: `BRAUERKIT_DATA` if set, else the shipped one."""
    return os.environ.get("BRAUERKIT_DATA") or _DATA_DIR


_TYPES = {"int": int, "string": str, "bool": bool, "object": dict}
_ELEMENTS = {f"[{name}]": {t} for name, t in _TYPES.items()}  # element type of a plain list


def _has_kind(value, kind: str) -> bool:
    if type(value) is not list:
        return type(value) is _TYPES.get(kind)  # so an int is neither a bool nor a float
    elements = _ELEMENTS.get(kind)
    if elements is not None:  # the set of element types, built in one pass at C level
        return not value or {*map(type, value)} <= elements
    return kind[0] == "[" and all([_has_kind(row, kind[1:-1]) for row in value])


def take(obj, key: str, kind: str, default=None):
    """`obj[key]` from parsed JSON, of exactly the JSON type `kind`: "int",
    "string", "bool", "object", or "[kind]" for a list of those ("[[int]]"
    is a matrix), a list checked in one pass at C level, row by row for a
    matrix.  An absent key gives `default`, or is an error if that is None;
    each error is a `ValueError` naming the key.  Other keys are ignored."""
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object with the key {key!r}")
    if key not in obj:
        if default is None:
            raise ValueError(f"the key {key!r} is missing beside the keys {sorted(obj)}")
        return default
    value = obj[key]
    if type(value) is not _TYPES.get(kind) and not _has_kind(value, kind):
        raise ValueError(f"{key!r} must be of type {kind}, not {json.dumps(value)}")
    return value
