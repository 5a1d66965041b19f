"""`FgAbGroup.from_orders` and `_snf_ext` against the oracle in `abelian_oracle`.

Seeded random order lists (0, 1, repeated prime powers and primes near
10^6-10^12) must normalise to the oracle's group.  Seeded random m×n
matrices with m, n ≤ 9 and many zero entries, 0-row and 1×n ones among
them, must give the oracle's D and, for every subset of tracked
transforms, exactly the oracle's U, V and U⁻¹, with [] for the rest.
"""

import itertools
import random

import abelian_oracle
from brauerkit.abelian import FgAbGroup, _snf_ext

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
