"""Trial-division normal form, fully tracked Smith normal form and the
three-Smith-form subquotient, kept as the oracle for
`abelian.FgAbGroup.from_orders`, `abelian._snf_ext` and the kernels and
homology of `abelian.hom_kernel` and `abelian.homology`.

`from_orders` factors every order by trial division and rebuilds the
invariant factors prime by prime; `snf_ext` always carries U, U⁻¹ and V;
`_subquotient` reduces L + R to a lattice basis (`_lattice_basis`), writes
R in that basis (`_solve_columns`) and takes the Smith form of the result;
`kernel` lifts ker(f) to Z^ns from one more Smith form (`_kernel_columns`)
and takes its subquotient.  They are the library code as it stood before
the gcd/lcm normal form, before transforms were tracked only on request,
and before a kernel came from two Smith forms.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from brauerkit.abelian import FgAbGroup, _from_columns


def _diag(D: Sequence[Sequence[int]]) -> List[int]:
    """The diagonal of the m×n matrix D, as `abelian._snf_ext` returns it."""
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


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


def _mat_vec(A: Sequence[Sequence[int]], v: Sequence[int]) -> List[int]:
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def _snf_ext(M: Sequence[Sequence[int]], **tracked):
    """The library's call shape on `snf_ext`: every transform comes back."""
    return snf_ext(M)


def _lattice_basis(cols: Sequence[Sequence[int]], n: int) -> List[List[int]]:
    """Reduce a generating set of columns to a lattice basis in Z^n."""
    cols = [c for c in cols if any(c)]
    if not cols:
        return []
    A = _from_columns(cols, n)
    _, D, _, Uinv, _ = _snf_ext(A, uinv=True)
    diag = _diag(D)
    basis = []
    for j, d in enumerate(diag):
        if d:
            basis.append([Uinv[i][j] * d for i in range(n)])
    return basis


def _solve_columns(B_cols: Sequence[Sequence[int]], C_cols: Sequence[Sequence[int]], n: int) -> List[List[int]]:
    """Solve B*X = C column-wise where the columns of B are independent.

    Raises ArithmeticError if some column of C is not in the column lattice.
    """
    r = len(B_cols)
    if r == 0:
        if any(any(c) for c in C_cols):
            raise ArithmeticError("inconsistent lattice containment")
        return [[] for _ in C_cols]
    B = _from_columns(B_cols, n)
    U, D, V, _, _ = _snf_ext(B, u=True, v=True)
    diag = _diag(D)
    xs = []
    for c in C_cols:
        uc = _mat_vec(U, c)
        y = []
        for j in range(r):
            d = diag[j] if j < len(diag) else 0
            if d == 0:
                if uc[j]:
                    raise ArithmeticError("inconsistent lattice containment")
                y.append(0)
            else:
                if uc[j] % d:
                    raise ArithmeticError("inconsistent lattice containment")
                y.append(uc[j] // d)
        for j in range(r, n):
            if uc[j]:
                raise ArithmeticError("inconsistent lattice containment")
        xs.append(_mat_vec(V, y))
    return xs  # list of columns of X (length r each)


def _subquotient(l_cols: Sequence[Sequence[int]], r_cols: Sequence[Sequence[int]], n: int):
    """Structure of (lattice spanned by l_cols+r_cols) / (lattice of r_cols).

    Returns (group, generator_vectors) with one ambient column vector in Z^n
    per cyclic summand of the quotient, ordered free-then-torsion.
    """
    basis = _lattice_basis(list(l_cols) + list(r_cols), n)
    r = len(basis)
    if r == 0:
        return FgAbGroup.zero(), []
    rel = [c for c in r_cols if any(c)]
    if rel:
        xcols = _solve_columns(basis, rel, n)
        X = _from_columns(xcols, r)
        _, D, _, U1inv, _ = _snf_ext(X, uinv=True)
        diag = _diag(D)
    else:
        U1inv = _identity(r)
        diag = []
    entries = []
    for j in range(r):
        d = diag[j] if j < len(diag) else 0
        if d == 1:
            continue
        gen = [sum(basis[k][i] * U1inv[k][j] for k in range(r)) for i in range(n)]
        entries.append((d, gen))
    # free summands first, then torsion ascending (SNF already ascending)
    entries.sort(key=lambda e: (e[0] != 0, e[0]))
    orders = [d for d, _ in entries]
    gens = [g for _, g in entries]
    return FgAbGroup.from_orders(orders), gens


def _kernel_columns(M: Sequence[Sequence[int]], ncols: int) -> List[List[int]]:
    """Basis of the integer kernel lattice of M, as columns of length ncols."""
    if not M or not M[0]:
        return _identity(ncols)
    _, D, V, _, _ = snf_ext(M)
    rank = sum(1 for d in _diag(D) if d)
    return [[V[i][j] for i in range(ncols)] for j in range(rank, ncols)]


def _relation_columns(orders: Sequence[int]) -> List[List[int]]:
    return [[d if i == j else 0 for i in range(len(orders))] for j, d in enumerate(orders) if d]


def kernel(f, denom: Sequence[Sequence[int]] = ()):
    """ker(f) modulo the lattice of the columns `denom` and the source
    relations, as (group, generator_vectors): the columns of Z^ns that f
    sends into the target relations, then `_subquotient`."""
    ns = f.source.num_generators
    rt = _relation_columns(f.target.generator_orders())
    A = [list(row) + [c[i] for c in rt] for i, row in enumerate(f.matrix)]
    lift = [c[:ns] for c in _kernel_columns(A, ns + len(rt))]
    return _subquotient(lift, list(denom) + _relation_columns(f.source.generator_orders()), ns)
