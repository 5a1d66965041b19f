"""Direct count of the invariant kernel, kept as the oracle for the closed
formula in `numbrauer.brauer_localized_integers`."""

from __future__ import annotations

import itertools


def brute_force_invariant_kernel_order(n: int, m: int, r: int) -> int:
    """Order of the n-torsion of ker(⊕ invariants → Q/Z) by direct count.

    Full places contribute Z/n (elements a/n), half places contribute their
    n-torsion in Z/2 (trivial unless n is even); count the tuples whose
    invariants sum to zero in Q/Z.
    """
    half_vals = [0, n // 2] if n % 2 == 0 else [0]
    count = 0
    for full in itertools.product(range(n), repeat=m):
        for half in itertools.product(half_vals, repeat=r):
            if (sum(full) + sum(half)) % n == 0:
                count += 1
    return count
