"""Brute-force extension resolution, kept as the oracle for `abelian._resolve`.

It lists every element and every subgroup of each candidate group, so it
is only usable for small orders.  `_resolve` has the signature and return
value of `brauerkit.abelian._resolve`, so it can stand in for it under
both public entry points.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import List, Optional, Sequence, Tuple

from brauerkit.abelian import (
    ExtensionTrace,
    ExtensionWitness,
    FgAbGroup,
    _diag,
    _from_columns,
    _snf_ext,
    _subquotient,
    abelian_groups_of_order,
)
from brauerkit.errors import AmbiguousExtension, NoExtension


def _element_order(vec, cyc) -> int:
    out = 1
    for a, c in zip(vec, cyc):
        out = out * (c // gcd(c, a)) // gcd(out, c // gcd(c, a))
    return out


def _closure(h: frozenset, e: tuple, cyc) -> frozenset:
    out = set(h)
    cur = e
    ordr = _element_order(e, cyc)
    for _ in range(ordr - 1):
        for x in h:
            out.add(tuple((a + b) % c for a, b, c in zip(x, cur, cyc)))
        cur = tuple((a + b) % c for a, b, c in zip(cur, e, cyc))
    return frozenset(out)


def _subgroups_of_order(cyc: Sequence[int], k: int) -> List[frozenset]:
    zero = tuple(0 for _ in cyc)
    if k == 1:
        return [frozenset({zero})]
    elements = [e for e in itertools.product(*(range(c) for c in cyc))
                if k % _element_order(e, cyc) == 0]
    seen = {frozenset({zero})}
    frontier = [frozenset({zero})]
    while frontier:
        h = frontier.pop()
        for e in elements:
            if e in h:
                continue
            h2 = _closure(h, e, cyc)
            if k % len(h2) == 0 and h2 not in seen:
                seen.add(h2)
                frontier.append(h2)
    return [h for h in seen if len(h) == k]


def _set_structure(h: frozenset, cyc: Sequence[int]) -> FgAbGroup:
    n = len(cyc)
    rel_cols = []
    for i, c in enumerate(cyc):
        col = [0] * n
        col[i] = c
        rel_cols.append(col)
    group, _ = _subquotient([list(v) for v in sorted(h)], rel_cols, n)
    return group


def _quotient_structure(h: frozenset, cyc: Sequence[int]) -> FgAbGroup:
    n = len(cyc)
    cols = [list(v) for v in sorted(h)]
    for i, c in enumerate(cyc):
        col = [0] * n
        col[i] = c
        cols.append(col)
    cols = [c for c in cols if any(c)]
    if not cols:
        return FgAbGroup.from_orders(cyc)
    X = _from_columns(cols, n)
    _, D, _, _, _ = _snf_ext(X)
    diag = _diag(D)
    orders = [diag[j] if j < len(diag) else 0 for j in range(n)]
    return FgAbGroup.from_orders([d for d in orders if d != 1])


def _coset_order(g: tuple, h: frozenset, cyc: Sequence[int]) -> int:
    cur = g
    k = 1
    while cur not in h:
        cur = tuple((a + b) % c for a, b, c in zip(cur, g, cyc))
        k += 1
    return k


def _candidate_matches(cand: FgAbGroup, sub: FgAbGroup, quot: Optional[FgAbGroup],
                       witness: Optional[ExtensionWitness]) -> Tuple[bool, str]:
    cyc = list(cand.invariant_factors)
    if witness is not None:
        elements = list(itertools.product(*(range(c) for c in cyc))) if cyc else [()]
        orders = {_element_order(e, cyc) for e in elements}
        if witness.witness_order not in orders:
            return False, f"no element of order {witness.witness_order}"
    sub_order = sub.order()
    need_generator = witness is not None and witness.maps_to_generator_of_quotient
    if need_generator and quot is not None and not quot.is_cyclic():
        raise ValueError("generator witness requires a cyclic quotient")
    for h in _subgroups_of_order(cyc, sub_order):
        if not _set_structure(h, cyc).same_structure(sub):
            continue
        if quot is not None and not _quotient_structure(h, cyc).same_structure(quot):
            continue
        if not need_generator:
            return True, "subgroup and quotient matched"
        qorder = (cand.order() // sub_order)
        for e in itertools.product(*(range(c) for c in cyc)):
            if _element_order(e, cyc) == witness.witness_order and _coset_order(e, h, cyc) == qorder:
                return True, "witness maps to a quotient generator"
    return False, "no subgroup with the required quotient"


def _resolve(sub: FgAbGroup, quot: Optional[FgAbGroup], total: int,
             witness: Optional[ExtensionWitness]):
    accepted, rejected = [], []
    for cand in abelian_groups_of_order(total):
        ok, why = _candidate_matches(cand, sub, quot, witness)
        if ok:
            accepted.append(cand)
        else:
            rejected.append((cand, why))
    trace = ExtensionTrace(total, tuple(accepted), tuple(rejected))
    if not accepted:
        raise NoExtension(f"no abelian group of order {total} satisfies the constraints")
    if len(accepted) > 1:
        raise AmbiguousExtension(
            f"{len(accepted)} isomorphism classes satisfy the constraints: "
            + ", ".join(str(g) for g in accepted))
    return accepted[0], trace

