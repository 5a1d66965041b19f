"""Trial-division normal form and fully tracked Smith normal form, kept as
the oracle for `abelian.FgAbGroup.from_orders` and `abelian._snf_ext`.

`from_orders` factors every order by trial division and rebuilds the
invariant factors prime by prime; `snf_ext` always carries U, U⁻¹ and V.
Both are the library code as it stood before the gcd/lcm normal form and
before transforms were tracked only on request.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from brauerkit.abelian import FgAbGroup


def _identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def snf_ext(M: Sequence[Sequence[int]]):
    """Smith normal form with tracked transforms and the inverse of U.

    Returns (U, D, V, Uinv, None) with U*M*V = D, U and V unimodular,
    and the diagonal of D a nonnegative dividing chain.  The fifth slot is
    always None and stays so that callers can unpack five values.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A = [list(row) for row in M]
    U, Uinv = _identity(m), _identity(m)
    V = _identity(n)

    def row_swap(i, k):
        A[i], A[k] = A[k], A[i]
        U[i], U[k] = U[k], U[i]
        for r in Uinv:
            r[i], r[k] = r[k], r[i]

    def row_add(i, k, q):
        # row i += q * row k
        for j in range(n):
            A[i][j] += q * A[k][j]
        for j in range(m):
            U[i][j] += q * U[k][j]
        for r in Uinv:
            r[k] -= q * r[i]

    def row_neg(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]
        for r in Uinv:
            r[i] = -r[i]

    def col_swap(j, k):
        for r in A:
            r[j], r[k] = r[k], r[j]
        for r in V:
            r[j], r[k] = r[k], r[j]

    def col_add(j, k, q):
        # col j += q * col k
        for r in A:
            r[j] += q * r[k]
        for r in V:
            r[j] += q * r[k]

    t = 0
    limit = min(m, n)
    while t < limit:
        # locate a pivot of minimal absolute value in the trailing block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = A[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        if i0 != t:
            row_swap(t, i0)
        if j0 != t:
            col_swap(t, j0)
        # clear row and column t
        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                q = A[i][t] // A[t][t]
                row_add(i, t, -q)
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // A[t][t]
                col_add(j, t, -q)
                if A[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        d = A[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        if d < 0:
            row_neg(t)
        t += 1

    D = [[A[i][j] if i == j else 0 for j in range(n)] for i in range(m)]
    return U, D, V, Uinv, None


def _factorize(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def from_orders(orders: Iterable[int]) -> FgAbGroup:
    """Normalize a list of cyclic orders (0 meaning Z) to invariant factors."""
    free = 0
    by_prime: dict = {}
    for d in orders:
        if d < 0:
            raise ValueError("orders must be nonnegative")
        if d == 0:
            free += 1
            continue
        for p, e in _factorize(d).items():
            by_prime.setdefault(p, []).append(e)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for slot in range(width):
        f = 1
        for p, exps in by_prime.items():
            exps_sorted = sorted(exps, reverse=True)
            if slot < len(exps_sorted):
                f *= p ** exps_sorted[slot]
        factors.append(f)
    factors = [f for f in factors if f > 1]
    factors.reverse()  # ascending dividing chain
    return FgAbGroup(free, tuple(factors))
