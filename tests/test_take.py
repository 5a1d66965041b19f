"""`brauerkit.take` against the recursive check it replaced
(`tests/take_oracle.py`): on seeded nested JSON values, both accept or
refuse alike and raise the same `ValueError` text.  The seeded part reads
DIFFERENTIAL_SEED when it is set.
"""

from __future__ import annotations

import json
import random

import take_oracle
from seeds import differential_seed
from brauerkit import take

KINDS = ("int", "string", "bool", "object", "[int]", "[string]", "[bool]", "[object]",
         "[[int]]", "[[string]]", "[[[int]]]")
# JSON values of other types than the kinds, and near misses of each kind
SCALARS = (None, True, False, 0, 1, -3, 2 ** 70, 0.0, 1.5, -2.0, "", "x", "1")


def _outcome(reader, obj, key, kind, default=None):
    try:
        value = reader(obj, key, kind, default)
    except ValueError as exc:
        return "refused", str(exc)
    return "accepted", type(value).__name__, json.dumps(value)


def _of_kind(rng, kind):
    """A value of exactly the JSON type `kind`."""
    if kind[0] == "[":
        return [_of_kind(rng, kind[1:-1]) for _ in range(rng.randint(0, 3))]
    return {"int": lambda: rng.choice((0, 1, -3, 2 ** 70)),
            "string": lambda: rng.choice(("", "x")),
            "bool": lambda: rng.choice((True, False)),
            "object": lambda: rng.choice(({}, {"a": 1}, {"b": [1, "x"]}))}[kind]()


def _any(rng, depth=0):
    """Any JSON value: scalars, ragged or empty lists, and nested objects."""
    roll = rng.random()
    if depth > 2 or roll < 0.5:
        return rng.choice(SCALARS)
    if roll < 0.65:
        return {rng.choice("abc"): _any(rng, depth + 1) for _ in range(rng.randint(0, 2))}
    return [_any(rng, depth + 1) for _ in range(rng.randint(0, 4))]


def _stray(rng, value):
    """`value` with one element, at some depth, replaced by any JSON value."""
    if type(value) is list and value and rng.random() < 0.7:
        i = rng.randrange(len(value))
        value[i] = _stray(rng, value[i])
        return value
    return _any(rng)


def test_take_matches_recursive_oracle():
    seed = differential_seed(20261019)
    rng = random.Random(seed)
    seen = set()
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.4:
            value = _of_kind(rng, rng.choice(KINDS))
        elif roll < 0.7:
            value = _stray(rng, _of_kind(rng, rng.choice(KINDS)))
        else:
            value = _any(rng)
        obj = {"k": value, "other": 1}
        for kind in KINDS:
            want = _outcome(take_oracle.take, obj, "k", kind)
            assert _outcome(take, obj, "k", kind) == want, (seed, value, kind)
            seen.add((kind, want[0]))
    # every kind was both accepted and refused at this seed
    assert seen == {(kind, verdict) for kind in KINDS for verdict in ("accepted", "refused")}


def test_absent_keys_defaults_and_non_objects_match_the_oracle():
    for obj in ({}, {"other": [1]}, [], None, "k", 3, [{"k": 1}]):
        for kind in KINDS:
            for default in (None, 0, False, "", ()):
                want = _outcome(take_oracle.take, obj, "k", kind, default)
                assert _outcome(take, obj, "k", kind, default) == want, (obj, kind, default)
