"""brauerkit: Picard and Brauer groups of KO, TMF and number rings."""

import json
import os

_DATA_DIR = os.path.join(os.path.dirname(os.path.realpath(__file__)), "data")


def data_dir() -> str:
    """The curated data directory: `BRAUERKIT_DATA` if set, else the shipped one."""
    return os.environ.get("BRAUERKIT_DATA") or _DATA_DIR


_TYPES = {"int": int, "string": str, "bool": bool, "object": dict}


def _has_kind(value, kind: str) -> bool:
    if kind[0] != "[":
        return type(value) is _TYPES[kind]  # so an int is neither a bool nor a float
    return type(value) is list and all([_has_kind(x, kind[1:-1]) for x in value])


def take(obj, key: str, kind: str, default=None):
    """`obj[key]` from parsed JSON, of exactly the JSON type `kind`: "int",
    "string", "bool", "object", or "[kind]" for a list of those ("[[int]]"
    is a matrix).  An absent key gives `default`, or is an error if that is
    None; each error is a `ValueError` naming the key.  Other keys are ignored."""
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
