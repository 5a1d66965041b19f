"""`brauerkit.take` with its recursive type check, kept as the oracle.

This is the reader from before lists were checked in one pass: every list
element, and every row of a matrix, goes through `has_kind` one call at a
time.  Its accept or refuse and its `ValueError` text are the reference
for the one-pass check.
"""

from __future__ import annotations

import json

TYPES = {"int": int, "string": str, "bool": bool, "object": dict}


def has_kind(value, kind: str) -> bool:
    if kind[0] != "[":
        return type(value) is TYPES[kind]  # so an int is neither a bool nor a float
    return type(value) is list and all([has_kind(x, kind[1:-1]) for x in value])


def take(obj, key: str, kind: str, default=None):
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object with the key {key!r}")
    if key not in obj:
        if default is None:
            raise ValueError(f"the key {key!r} is missing beside the keys {sorted(obj)}")
        return default
    value = obj[key]
    if type(value) is not TYPES.get(kind) and not has_kind(value, kind):
        raise ValueError(f"{key!r} must be of type {kind}, not {json.dumps(value)}")
    return value
