"""`FgAbGroup.from_orders`, `_snf_ext` and `_subquotient` against the
oracle in `abelian_oracle`.

Seeded random order lists (0, 1, repeated prime powers and primes near
10^6-10^12) must normalise to the oracle's group.  Seeded random m×n
matrices with m, n ≤ 9 and many zero entries, 0-row and 1×n ones among
them, must give the oracle's D and, for every subset of tracked
transforms, exactly the oracle's U, V and U⁻¹, with [] for the rest.
Seeded random lattices L and R in Z^n, n ≤ 8, must give the group of the
three-Smith-form `_subquotient`, with generators that lie in L + R and
whose torsion orders take them into R.
"""

import itertools
import random

import abelian_oracle
from brauerkit.abelian import FgAbGroup, _snf_ext, _subquotient

BIG_PRIMES = (999983, 1000003, 1000000007, 999999999989, 1000000000039)
SMALL = (0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 27, 30, 32, 36, 60, 64, 81, 120)


def _random_orders(rng):
    orders = [rng.choice(SMALL) for _ in range(rng.randrange(0, 7))]
    if rng.random() < 0.15:
        orders.append(rng.choice(BIG_PRIMES) * rng.choice((1, 2, 4, 6)))
    rng.shuffle(orders)
    return orders


def test_from_orders_matches_trial_division():
    rng = random.Random(20050601)
    cases = [[], [0], [1], [1, 1, 0], [2] * 6, [8, 4, 2, 2], [6, 10, 15], [p * p for p in (2, 3)],
             [999983, 999983 * 2, 4], [1000000000039, 1000000000039]]
    cases += [_random_orders(rng) for _ in range(300)]
    for orders in cases:
        assert FgAbGroup.from_orders(orders) == abelian_oracle.from_orders(orders), orders


def _random_matrix(rng, m, n):
    return [[rng.choice((0, 0, 0, rng.randrange(-30, 31))) for _ in range(n)] for _ in range(m)]


def test_snf_ext_matches_full_tracking_for_every_subset():
    rng = random.Random(19870912)
    shapes = [(0, 0), (3, 0)] + [(1, n) for n in range(1, 10)]
    shapes += [(rng.randrange(1, 10), rng.randrange(1, 10)) for _ in range(300)]
    for m, n in shapes:
        M = _random_matrix(rng, m, n)
        U, D, V, Uinv, _ = abelian_oracle.snf_ext(M)
        for u, v, uinv in itertools.product((False, True), repeat=3):
            got = _snf_ext(M, u=u, v=v, uinv=uinv)
            want = (U if u else [], D, V if v else [], Uinv if uinv else [], None)
            assert got == want, (M, u, v, uinv)


def _in_lattice(v, cols, n):
    """Whether v is an integer combination of cols: with U*A*V = D, A*x = v
    is solvable iff D*y = U*v is."""
    if not any(v):
        return True
    cols = [c for c in cols if any(c)]
    if not cols:
        return False
    U, D, _, _, _ = abelian_oracle.snf_ext([[c[i] for c in cols] for i in range(n)])
    uv = [sum(a * x for a, x in zip(row, v)) for row in U]
    diag = [D[i][i] if i < len(cols) else 0 for i in range(n)]
    return all((x % d == 0) if d else x == 0 for x, d in zip(uv, diag))


def _random_lattices(rng, n, kind):
    """(L, R) in Z^n: "free" has no R; "torsion" puts a multiple of every
    column of L in R; "mixed" draws R at random, so R need not lie in L."""
    def vec():
        return [rng.choice((0, 0, rng.randrange(-9, 10))) for _ in range(n)]

    L = [vec() for _ in range(rng.randrange(0, 6))]
    L += [[0] * n for _ in range(rng.randrange(0, 2))]
    if kind == "free":
        R = []
    elif kind == "torsion":
        R = [[rng.choice((1, 2, 3, 4, 6)) * x for x in c] for c in L] + [vec() for _ in range(rng.randrange(0, 2))]
    else:
        R = [vec() for _ in range(rng.randrange(0, 6))]
    R += [[0] * n for _ in range(rng.randrange(0, 2))]
    rng.shuffle(L)
    rng.shuffle(R)
    return L, R


def test_subquotient_matches_three_smith_forms():
    rng = random.Random(19980301)
    seen = set()
    cases = [([], [], 3), ([[0, 0]], [[0, 0]], 2), ([[2, 0]], [[4, 0]], 2), ([[1, 0]], [[0, 1]], 2)]
    for _ in range(1000):
        n = rng.randrange(1, 9)
        kind = rng.choice(("free", "torsion", "mixed"))
        cases.append(_random_lattices(rng, n, kind) + (n,))
    for L, R, n in cases:
        group, gens = _subquotient(L, R, n)
        want, _ = abelian_oracle._subquotient(L, R, n)
        assert group == want, (L, R, n)
        assert len(gens) == group.num_generators
        for d, g in zip(group.generator_orders(), gens):
            assert len(g) == n and _in_lattice(g, L + R, n), (L, R, g)
            if d:
                assert _in_lattice([d * x for x in g], R, n), (L, R, g, d)
        seen.add("zero" if group.is_zero() else "free" if not group.invariant_factors
                 else "torsion" if group.is_finite() else "mixed")
    assert seen == {"zero", "free", "torsion", "mixed"}
