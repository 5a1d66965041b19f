"""Brute-force extension resolution, kept as the oracle for `abelian._resolve`.

It lists every abelian group of the order (`abelian_groups_of_order`) and
every element and every subgroup of each, so it is only usable for small
orders.  `_resolve` has the signature of `brauerkit.abelian._resolve` and
returns the same group, with the rejected candidates and their reasons in
place of the trace, so it can stand in for it under both public entry
points.

For larger orders, `resolve_by_candidates` keeps the search `_resolve` made
before it went prime by prime: every group of the order, each tested with
the per-prime criteria.  `generator_types` is the enumeration
`abelian._generator_types` made before it walked only the ascending
witness images and read the types off minors: every image, with the others
skipped, each through a Smith form.  `partitions` is the recursion
`abelian._partitions` made before it went iterative.
`generator_types_by_images` is `abelian._generator_types` as it was before
it walked only Aut(H)-orbit representatives: every ascending image, each
type read off minors.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import List, Optional, Sequence, Tuple

import abelian_oracle
from brauerkit.abelian import (
    GROUPS_OF_ORDER_BOUND,
    ExtensionWitness,
    FgAbGroup,
    _contains,
    _factorize,
    _from_columns,
    _lr_positive,
    _p_type,
    _partition_count,
    _snf_ext,
    _valuation,
)
from brauerkit.errors import AmbiguousExtension, NoExtension


def partitions(k: int, most: Optional[int] = None):
    """The partitions of k into parts of at most `most`, descending lexicographically."""
    if k == 0:
        yield ()
    for first in range(min(k, most or k), 0, -1):
        for rest in partitions(k - first, first):
            yield (first,) + rest


def abelian_groups_of_order(n: int) -> List[FgAbGroup]:
    """All abelian groups of order n, deterministically ordered.

    There are ∏ p(e) of them over the prime powers p^e of n; more than
    GROUPS_OF_ORDER_BOUND raise ValueError before any is built.
    """
    if n < 1:
        raise ValueError("order must be positive")
    prime_powers = sorted(_factorize(n).items())
    count = 1
    for _, e in prime_powers:
        count *= _partition_count(e)
    if count > GROUPS_OF_ORDER_BOUND:
        raise ValueError(f"order {n} has {count} abelian groups, "
                         f"over the bound of {GROUPS_OF_ORDER_BOUND}")
    per_prime = [[[p ** x for x in part] for part in partitions(e)] for p, e in prime_powers]
    out = []
    for combo in itertools.product(*per_prime):
        # slot i multiplies the i-th largest prime power of every prime
        factors = [1] * max((len(block) for block in combo), default=0)
        for block in combo:
            for i, q in enumerate(block):
                factors[i] *= q
        out.append(FgAbGroup(0, tuple(reversed(factors))))
    out.sort(key=lambda g: g.invariant_factors)
    return out


def witness_matrices(p: int, mu: Tuple[int, ...], b: int, c: int):
    """The matrices (diag(p^μ_i) | (p^v_i, −p^b)) of `generator_types`: one
    per witness image h = Σ p^v_i·g_i, 0 ≤ v_i ≤ μ_i, that ascends along each
    run of equal μ_i and gives e the order p^c."""
    k = len(mu)
    for v in itertools.product(*(range(m + 1) for m in mu)):
        if any(mu[i] == mu[i + 1] and v[i] > v[i + 1] for i in range(k - 1)):
            continue
        if max((m - x for m, x in zip(mu, v)), default=0) != c - b:
            continue
        M = [[p ** m if j == i else 0 for j in range(k)] + [p ** x] for i, (m, x) in enumerate(zip(mu, v))]
        M.append([0] * k + [-p ** b])
        yield M


def generator_types(p: int, mu: Tuple[int, ...], b: int, c: int) -> set:
    """`abelian._generator_types` by the Smith form of every witness matrix."""
    return {_p_type(_snf_ext(M)[1], p) for M in witness_matrices(p, mu, b, c)}


def generator_types_by_images(p: int, mu: Tuple[int, ...], b: int, c: int) -> set:
    """`abelian._generator_types` over every witness image that ascends along
    each run of equal μ_i, each type read off the minors of its witness
    matrix by the same Δ formula."""
    k = len(mu)
    low = list(itertools.accumulate(reversed(mu), initial=0))  # low[j]: the j smallest μ_i
    out = set()
    for images in itertools.product(*(itertools.combinations_with_replacement(range(m + 1), len(list(run)))
                                      for m, run in itertools.groupby(mu))):
        v = sum(images, ())
        if max((m - x for m, x in zip(mu, v)), default=0) != c - b:
            continue
        delta = [0]
        for j in range(1, k + 1):
            delta.append(min(low[j], b + low[j - 1],
                             *(x + (low[j] - m if r >= k - j else low[j - 1]) for r, (m, x) in enumerate(zip(mu, v)))))
        delta.append(b + low[k])
        out.add(tuple(e for e in reversed([y - x for x, y in zip(delta, delta[1:])]) if e))
    return out


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
    group, _ = abelian_oracle._subquotient([list(v) for v in sorted(h)], rel_cols, n)
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
    _, diag, _, _, _ = _snf_ext(X)
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


def _decide(total: int, accepted: Sequence[FgAbGroup]) -> FgAbGroup:
    if not accepted:
        raise NoExtension(f"no abelian group of order {total} satisfies the constraints")
    if len(accepted) > 1:
        raise AmbiguousExtension(
            f"{len(accepted)} isomorphism classes satisfy the constraints: "
            + ", ".join(str(g) for g in accepted))
    return accepted[0]


def _resolve(sub: FgAbGroup, quot: Optional[FgAbGroup], total: int,
             witness: Optional[ExtensionWitness]):
    """The group and the rejected candidates, each with its reason."""
    accepted, rejected = [], []
    for cand in abelian_groups_of_order(total):
        ok, why = _candidate_matches(cand, sub, quot, witness)
        if ok:
            accepted.append(cand)
        else:
            rejected.append((cand, why))
    return _decide(total, accepted), tuple(rejected)


def resolve_by_candidates(sub: FgAbGroup, quot: Optional[FgAbGroup], total: int,
                          witness: Optional[ExtensionWitness]):
    """`abelian._resolve` as it was before it went prime by prime: every group
    of the order has the exponent test, then at each prime p of the order its
    p-type λ must pass `abelian._resolve`'s criterion, with the generator
    types from `generator_types`.  Returns what `_resolve` does; each
    criterion is set up before any group is listed."""
    generator = witness is not None and witness.maps_to_generator_of_quotient
    criteria = []
    for p, e in sorted(_factorize(total).items()):
        mu = _p_type(sub.invariant_factors, p)
        if generator:
            types = generator_types(p, mu, e - sum(mu), _valuation(witness.witness_order, p))
            criteria.append((p, types.__contains__))
        elif quot is not None:
            nu = _p_type(quot.invariant_factors, p)
            criteria.append((p, lambda lam, mu=mu, nu=nu: _lr_positive(lam, mu, nu)))
        else:
            criteria.append((p, lambda lam, mu=mu: _contains(lam, mu)))
    accepted, rejected = [], []
    for cand in abelian_groups_of_order(total):
        if witness is not None and cand.exponent() % witness.witness_order:
            rejected.append((cand, f"no element of order {witness.witness_order}"))
            continue
        if generator and quot is not None and not quot.is_cyclic():
            raise ValueError("generator witness requires a cyclic quotient")
        if all(ok(_p_type(cand.invariant_factors, p)) for p, ok in criteria):
            accepted.append(cand)
        else:
            rejected.append((cand, "no subgroup with the required quotient"))
    return _decide(total, accepted), tuple(rejected)
