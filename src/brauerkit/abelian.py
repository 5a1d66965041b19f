"""Exact arithmetic of finitely generated abelian groups.

Groups are kept in normal form (free rank plus a dividing chain of
invariant factors), homomorphisms are integer matrices between chosen
generator bases, and every kernel/cokernel/extension question is reduced
to Smith normal form over arbitrary-precision integers.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from math import gcd

from .errors import AmbiguousExtension, NoExtension
from .record import record

# ---------------------------------------------------------------------------
# integer matrix helpers
# ---------------------------------------------------------------------------


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> list[list[int]]:
    if not A:
        return []
    cols = len(B[0]) if B else 0
    out = [[0] * cols for _ in range(len(A))]
    for i, row in enumerate(A):
        for k, a in enumerate(row):
            if a == 0:
                continue
            brow = B[k]
            orow = out[i]
            for j in range(cols):
                orow[j] += a * brow[j]
    return out


def _transpose(A: Sequence[Sequence[int]]) -> list[list[int]]:
    if not A:
        return []
    return [list(col) for col in zip(*A)]


def _from_columns(cols: Sequence[Sequence[int]], nrows: int) -> list[list[int]]:
    if not cols:
        return [[] for _ in range(nrows)]
    return [[col[i] for col in cols] for i in range(nrows)]


def _snf_ext(M: Sequence[Sequence[int]], u: bool = False, v: bool = False, uinv: bool = False):
    """Smith normal form, tracking only the transforms asked for.

    Returns (U, D, V, Uinv, None) with U*M*V = D, U and V unimodular, Uinv
    the inverse of U, and the diagonal of D a nonnegative dividing chain.
    A transform that is not tracked comes back as [].  The steps do not
    depend on what is tracked, so a tracked transform is the same whatever
    else is.  Callers track U and V (`smith_normal_form`), V
    (`_kernel_columns`), Uinv (`_subquotient`), U (`hom_cokernel`) or
    nothing (`_generator_types`).  The fifth slot is always None.

    The steps are a contract, as `tests/golden/snf_*.out` and
    `bench/digests.json` pin the bytes of U and V; only a deliberate change
    of output may alter them.  Pass t swaps to (t, t) the entry of least |a|
    in the trailing block, first by row then by column.  Then row i -= q *
    row t for each row below and col j -= q * col t for each column to the
    right, with floor quotients q, and the pass repeats while a remainder is
    left.  Else row t += the first row whose trailing block the pivot does
    not divide, and the pass repeats; if none, a negative pivot flips row t
    and t moves on.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A = [list(row) for row in M]
    U = _identity(m) if u else []
    # V and Uinv only ever see column operations: keep them transposed
    Vt = _identity(n) if v else []
    Uinvt = _identity(m) if uinv else []
    # rows and columns before the pivot t hold only their diagonal entry of A
    t = 0
    limit = min(m, n)
    while t < limit:
        # nothing beats an entry ±1, nor a later one ties with it
        best = 0
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                a = abs(row[j])
                if a and (a < best or not best):
                    best, i0, j0 = a, i, j
            if best == 1:
                break
        if not best:
            break
        if i0 != t:
            for T in (A, U, Uinvt):
                if T:
                    T[t], T[i0] = T[i0], T[t]
        rows = A[t:]
        if j0 != t:
            for row in rows:
                row[t], row[j0] = row[j0], row[t]
            if Vt:
                Vt[t], Vt[j0] = Vt[j0], Vt[t]
        At = A[t]
        p = At[t]
        tail = At[t:]
        dirty = False
        for i in range(t + 1, m):
            row = A[i]
            if row[t]:
                q = row[t] // p
                row[t:] = [a - q * b for a, b in zip(row[t:], tail)]
                if U:
                    U[i] = [a - q * b for a, b in zip(U[i], U[t])]
                if Uinvt:
                    Uinvt[t] = [a + q * b for a, b in zip(Uinvt[t], Uinvt[i])]
                dirty = dirty or row[t] != 0
        for j in range(t + 1, n):
            if At[j]:
                q = At[j] // p
                for row in rows:
                    row[j] -= q * row[t]
                if Vt:
                    Vt[j] = [a - q * b for a, b in zip(Vt[j], Vt[t])]
                dirty = dirty or At[j] != 0
        if dirty:
            continue
        # a unit pivot divides every entry, so only a larger one looks for a row
        for i in range(t + 1, m) if abs(p) > 1 else ():
            if any(x % p for x in A[i][t + 1:]):
                At[t:] = [a + b for a, b in zip(At[t:], A[i][t:])]
                if U:
                    U[t] = [a + b for a, b in zip(U[t], U[i])]
                if Uinvt:
                    Uinvt[i] = [a - b for a, b in zip(Uinvt[i], Uinvt[t])]
                break
        else:
            if p < 0:
                At[t] = -p
                for T in (U, Uinvt):
                    if T:
                        T[t] = [-x for x in T[t]]
            t += 1

    D = [[A[i][j] if i == j else 0 for j in range(n)] for i in range(m)]
    return U, D, _transpose(Vt), _transpose(Uinvt), None


def smith_normal_form(M: Sequence[Sequence[int]]):
    """Return (U, D, V) with U*M*V = D in Smith normal form."""
    U, D, V, _, _ = _snf_ext(M, u=True, v=True)
    return U, D, V


def _diag(D: Sequence[Sequence[int]]) -> list[int]:
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def _kernel_columns(M: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of the integer kernel lattice of M, as columns of length ncols."""
    if not M or not M[0]:
        return [list(col) for col in _identity(ncols)]
    _, D, V, _, _ = _snf_ext(M, v=True)
    diag = _diag(D)
    rank = sum(1 for d in diag if d)
    return [[V[i][j] for i in range(ncols)] for j in range(rank, ncols)]


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


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


@record
class FgAbGroup:
    """A finitely generated abelian group in invariant-factor normal form."""

    free_rank: int = 0
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        facs = tuple(self.invariant_factors)
        for d in facs:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(facs, facs[1:]):
            if b % a:
                raise ValueError("invariant factors must form a dividing chain")
        object.__setattr__(self, "invariant_factors", facs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "FgAbGroup":
        return FgAbGroup(0, ())

    @staticmethod
    def free(n: int) -> "FgAbGroup":
        return FgAbGroup(n, ())

    @staticmethod
    def cyclic(n: int) -> "FgAbGroup":
        if n < 0:
            raise ValueError("cyclic order must be nonnegative")
        if n == 0:
            return FgAbGroup(1, ())
        if n == 1:
            return FgAbGroup(0, ())
        return FgAbGroup(0, (n,))

    @staticmethod
    def from_orders(orders: Iterable[int]) -> "FgAbGroup":
        """Normalize a list of cyclic orders (0 meaning Z) to invariant factors.

        Z/a ⊕ Z/b ≅ Z/gcd(a, b) ⊕ Z/lcm(a, b), so after pass i entry i
        divides every later entry and nothing is factored: the pairwise case
        of Bernstein's coprime base (J. Algorithms 2005).
        """
        free = 0
        factors = []
        for d in orders:
            if d < 0:
                raise ValueError("orders must be nonnegative")
            if d == 0:
                free += 1
            else:
                factors.append(d)
        for i, a in enumerate(factors):
            for j in range(i + 1, len(factors)):
                g = gcd(a, factors[j])
                a, factors[j] = g, a // g * factors[j]
            factors[i] = a
        return FgAbGroup(free, tuple(d for d in factors if d > 1))

    # -- structure ---------------------------------------------------------

    @property
    def num_generators(self) -> int:
        return self.free_rank + len(self.invariant_factors)

    def generator_orders(self) -> list[int]:
        """Orders of the chosen generators; 0 stands for infinite order."""
        return [0] * self.free_rank + list(self.invariant_factors)

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def is_cyclic(self) -> bool:
        return self.num_generators <= 1

    def order(self) -> int | None:
        """Group order, or None for infinite groups."""
        if self.free_rank:
            return None
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def exponent(self) -> int | None:
        if self.free_rank:
            return None
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def torsion(self, n: int) -> "FgAbGroup":
        """The n-torsion subgroup (free part contributes nothing)."""
        return FgAbGroup.from_orders([gcd(d, n) for d in self.invariant_factors])

    def direct_sum(self, *others: "FgAbGroup") -> "FgAbGroup":
        orders = self.generator_orders()
        for g in others:
            orders += g.generator_orders()
        return FgAbGroup.from_orders(orders)

    def same_structure(self, other: "FgAbGroup") -> bool:
        return (self.free_rank, self.invariant_factors) == (other.free_rank, other.invariant_factors)

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " ⊕ ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "factors": list(self.invariant_factors)}

    @staticmethod
    def from_json(obj: dict) -> "FgAbGroup":
        return FgAbGroup(int(obj.get("free_rank", 0)), tuple(int(d) for d in obj.get("factors", ())))


def _reduce_matrix(matrix, target: FgAbGroup):
    orders = target.generator_orders()
    out = []
    for i, row in enumerate(matrix):
        d = orders[i]
        out.append(tuple(x % d if d else x for x in row))
    return tuple(out)


@record
class GroupHom:
    """Homomorphism of FgAbGroups as an integer matrix on generators.

    The matrix has one row per target generator and one column per source
    generator; entries are reduced modulo the target generator orders.
    """

    source: FgAbGroup
    target: FgAbGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        nt, ns = self.target.num_generators, self.source.num_generators
        mat = [list(row) for row in self.matrix]
        if len(mat) != nt or any(len(row) != ns for row in mat):
            raise ValueError(f"matrix must be {nt}x{ns}")
        mat = _reduce_matrix(mat, self.target)
        object.__setattr__(self, "matrix", mat)
        # columns must respect source relations
        src_orders = self.source.generator_orders()
        tgt_orders = self.target.generator_orders()
        for j, d in enumerate(src_orders):
            if d == 0:
                continue
            for i, e in enumerate(tgt_orders):
                v = d * self.matrix[i][j]
                if (v % e if e else v) != 0:
                    raise ValueError("matrix does not respect source relations")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_columns(source: FgAbGroup, target: FgAbGroup, cols: Sequence[Sequence[int]]) -> "GroupHom":
        return GroupHom(source, target, tuple(zip(*cols)) if cols else tuple(() for _ in range(target.num_generators)))

    @staticmethod
    def identity(g: FgAbGroup) -> "GroupHom":
        return GroupHom(g, g, tuple(tuple(r) for r in _identity(g.num_generators)))

    @staticmethod
    def scalar(g: FgAbGroup, c: int) -> "GroupHom":
        n = g.num_generators
        return GroupHom(g, g, tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n)))

    # -- algebra -----------------------------------------------------------

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        if other.target.num_generators != self.source.num_generators:
            raise ValueError("composition shape mismatch")
        return GroupHom(other.source, self.target, tuple(tuple(r) for r in _mat_mul(self.matrix, other.matrix)))

    def add(self, other: "GroupHom") -> "GroupHom":
        mat = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.matrix, other.matrix)]
        return GroupHom(self.source, self.target, tuple(tuple(r) for r in mat))

    def sub(self, other: "GroupHom") -> "GroupHom":
        mat = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.matrix, other.matrix)]
        return GroupHom(self.source, self.target, tuple(tuple(r) for r in mat))

    def power(self, k: int) -> "GroupHom":
        """self^k by repeated squaring: O(log k) compositions."""
        out, square = GroupHom.identity(self.source), self
        while k > 0:
            if k & 1:
                out = square.compose(out)
            k >>= 1
            if k:
                square = square.compose(square)
        return out

    def is_zero_hom(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.matrix)

    def equals(self, other: "GroupHom") -> bool:
        return (self.source.same_structure(other.source)
                and self.target.same_structure(other.target)
                and self.matrix == other.matrix)


def _relation_columns(g: FgAbGroup) -> list[list[int]]:
    n = g.num_generators
    cols = []
    for i, d in enumerate(g.generator_orders()):
        if d:
            col = [0] * n
            col[i] = d
            cols.append(col)
    return cols


def _subquotient(l_cols: Sequence[Sequence[int]], r_cols: Sequence[Sequence[int]], n: int):
    """Structure of (lattice spanned by l_cols+r_cols) / (lattice of r_cols).

    Returns (group, generator_vectors) with one ambient column vector in Z^n
    per cyclic summand of the quotient, ordered free-then-torsion.  The k
    nonzero columns of L generate the quotient, and x in Z^k is a relation
    iff Lx lies in the lattice of R, i.e. iff x is the head of a kernel
    vector of [L | R]; one Smith form U*X*V = D of those relations X gives
    the summands Z/d_j, generated by L times the columns of U⁻¹.
    """
    l_cols = [c for c in l_cols if any(c)]
    k = len(l_cols)
    if k == 0:
        return FgAbGroup.zero(), []
    r_cols = [c for c in r_cols if any(c)]
    rel = [c[:k] for c in _kernel_columns(_from_columns(l_cols + r_cols, n), k + len(r_cols))]
    _, D, _, Uinv, _ = _snf_ext(_from_columns(rel, k), uinv=True)
    diag = _diag(D)
    entries = []
    for j in range(k):
        d = diag[j] if j < len(diag) else 0
        if d == 1:
            continue
        gen = [sum(l_cols[c][i] * Uinv[c][j] for c in range(k)) for i in range(n)]
        entries.append((d, gen))
    # free summands first, then torsion ascending (SNF already ascending)
    entries.sort(key=lambda e: (e[0] != 0, e[0]))
    orders = [d for d, _ in entries]
    gens = [g for _, g in entries]
    return FgAbGroup.from_orders(orders), gens


def _kernel_lift(f: GroupHom) -> list[list[int]]:
    """Columns spanning the vectors of Z^ns that f sends into the target relations."""
    ns = f.source.num_generators
    if f.target.num_generators == 0:
        return [list(c) for c in _identity(ns)]
    rt = _relation_columns(f.target)
    A = [list(row) + [c[i] for c in rt] for i, row in enumerate(f.matrix)]
    return [c[:ns] for c in _kernel_columns(A, ns + len(rt))]


def hom_kernel(f: GroupHom):
    """Kernel of f with its inclusion into f.source."""
    group, gens = _subquotient(_kernel_lift(f), _relation_columns(f.source), f.source.num_generators)
    return group, GroupHom.from_columns(group, f.source, gens)


def hom_cokernel(f: GroupHom):
    """Cokernel of f with the projection from f.target."""
    nt = f.target.num_generators
    cols = _transpose(f.matrix) + _relation_columns(f.target)
    cols = [c for c in cols if any(c)]
    if not cols:
        group = FgAbGroup.from_orders(f.target.generator_orders())
        return group, GroupHom.identity(f.target)
    X = _from_columns(cols, nt)
    U1, D, _, _, _ = _snf_ext(X, u=True)
    diag = _diag(D)
    rows = []
    for j in range(nt):
        d = diag[j] if j < len(diag) else 0
        if d == 1:
            continue
        rows.append((d, U1[j]))
    rows.sort(key=lambda e: (e[0] != 0, e[0]))
    orders = [d for d, _ in rows]
    group = FgAbGroup.from_orders(orders)
    proj = GroupHom(f.target, group, tuple(tuple(r) for _, r in rows))
    return group, proj


def homology(f: GroupHom, g: GroupHom) -> FgAbGroup:
    """ker(f)/im(g) for composable maps with f∘g = 0."""
    if not f.compose(g).is_zero_hom():
        raise ValueError("homology requires f∘g = 0")
    denom = _transpose(g.matrix) + _relation_columns(f.source)
    group, _ = _subquotient(_kernel_lift(f), denom, f.source.num_generators)
    return group


# ---------------------------------------------------------------------------
# extension resolution by per-prime partition criteria
# ---------------------------------------------------------------------------


@record
class ExtensionWitness:
    witness_order: int
    maps_to_generator_of_quotient: bool = False

    def __post_init__(self):
        if self.witness_order < 1:
            raise ValueError("witness order must be positive")


@record
class ExtensionTrace:
    """Exhaustive search record certifying uniqueness."""

    order: int
    accepted: tuple[FgAbGroup, ...]
    rejected: tuple[tuple[FgAbGroup, str], ...]


def _partitions(k: int):
    if k == 0:
        yield ()
        return
    def rec(k, mx):
        if k == 0:
            yield ()
            return
        for first in range(min(k, mx), 0, -1):
            for rest in rec(k - first, first):
                yield (first,) + rest
    yield from rec(k, k)


# abelian groups of one order that may be listed: 2^40 has 37,338, which
# take about 0.8 s to build and test as extension candidates
GROUPS_OF_ORDER_BOUND = 100_000


def _partition_count(k: int) -> int:
    """p(k): ways[s] counts the partitions of s into the parts seen so far."""
    ways = [1] + [0] * k
    for part in range(1, k + 1):
        for s in range(part, k + 1):
            ways[s] += ways[s - part]
    return ways[k]


def abelian_groups_of_order(n: int) -> list[FgAbGroup]:
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
    per_prime = [[[p ** x for x in part] for part in _partitions(e)] for p, e in prime_powers]
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


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _p_type(orders: Iterable[int], p: int) -> tuple[int, ...]:
    """The partition λ with ⊕ Z/p^λ_i the p-primary part of ⊕ Z/d over orders."""
    return tuple(sorted((v for v in (_valuation(d, p) for d in orders) if v), reverse=True))


def _contains(lam: Sequence[int], mu: Sequence[int]) -> bool:
    return len(mu) <= len(lam) and all(m <= l for m, l in zip(mu, lam))


def _lr_positive(lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> bool:
    """Whether c^λ_{μν} > 0: search for one LR tableau of shape λ/μ and
    content ν.  A row is filled letter by letter; `ends[j]` is the column
    where its letters < j end, `above` that of the row above, and `done[j]`
    counts the letters j above (lattice word and content bounds)."""
    if not _contains(lam, mu):
        return False
    mu = tuple(mu) + (0,) * (len(lam) - len(mu))

    def fill(r, above, ends, done):
        j = len(ends) - 1
        if j == len(nu):
            if ends[-1] != lam[r]:
                return False
            done = [d + b - a for d, a, b in zip(done, ends, ends[1:])]
            if r + 1 == len(lam):
                return done == list(nu)
            return fill(r + 1, ends, [mu[r + 1]], done)
        hi = min(lam[r] - ends[-1], nu[j] - done[j])
        if j:
            hi = min(hi, done[j - 1] - done[j])
        if r:
            hi = min(hi, above[j] - ends[-1])
        return any(fill(r, above, ends + [ends[-1] + x], done) for x in range(hi, -1, -1))

    return fill(0, None, [mu[0]], [0] * len(nu))


def _generator_types(p: int, mu: tuple[int, ...], b: int, c: int) -> set:
    """Types of G ⊇ H of type μ with G/H ≅ Z/p^b generated by an e of order p^c.

    G = H ⊕ Ze / (p^b·e = h).  Up to Aut(H) (units on the cyclic summands
    g_i, swaps of equal ones) h = Σ p^v_i·g_i with 0 ≤ v_i ≤ μ_i, so e has
    order p^(b + max(μ_i − v_i)) and G = coker(diag(p^μ_i) | (p^v_i, −p^b)).
    """
    k = len(mu)
    out = set()
    for v in itertools.product(*(range(m + 1) for m in mu)):
        if any(mu[i] == mu[i + 1] and v[i] > v[i + 1] for i in range(k - 1)):
            continue
        if max((m - x for m, x in zip(mu, v)), default=0) != c - b:
            continue
        M = [[p ** m if j == i else 0 for j in range(k)] + [p ** x] for i, (m, x) in enumerate(zip(mu, v))]
        M.append([0] * k + [-p ** b])
        out.add(_p_type(_diag(_snf_ext(M)[1]), p))
    return out


def _candidate_test(sub: FgAbGroup, quot: FgAbGroup | None, total: int,
                    witness: ExtensionWitness | None):
    """cand -> None if accepted, else the reason; per-prime set-up runs once."""
    generator = witness is not None and witness.maps_to_generator_of_quotient
    criteria = []
    for p, e in sorted(_factorize(total).items()):
        mu = _p_type(sub.invariant_factors, p)
        if generator:
            types = _generator_types(p, mu, e - sum(mu), _valuation(witness.witness_order, p))
            criteria.append((p, types.__contains__))
        elif quot is not None:
            nu = _p_type(quot.invariant_factors, p)
            criteria.append((p, lambda lam, mu=mu, nu=nu: _lr_positive(lam, mu, nu)))
        else:
            criteria.append((p, lambda lam, mu=mu: _contains(lam, mu)))

    def rejection(cand: FgAbGroup) -> str | None:
        if witness is not None and cand.exponent() % witness.witness_order:
            return f"no element of order {witness.witness_order}"
        if generator and quot is not None and not quot.is_cyclic():
            raise ValueError("generator witness requires a cyclic quotient")
        if not all(ok(_p_type(cand.invariant_factors, p)) for p, ok in criteria):
            return "no subgroup with the required quotient"
        return None

    return rejection


def _resolve(sub: FgAbGroup, quot: FgAbGroup | None, total: int,
             witness: ExtensionWitness | None):
    """The unique abelian group of order `total` extending quot (None: any
    quotient of that order) by sub; the trace holds every candidate.

    The constraints split over the primes p of `total`.  With λ, μ, ν the
    types of the p-parts of candidate, sub and quot:
    - an element of order w exists iff w divides the exponent;
    - H ≅ μ with G/H ≅ ν exists iff c^λ_{μν} > 0 (Green–Klein; Macdonald,
      *Symmetric Functions and Hall Polynomials*, ch. II (4.3));
    - with the quotient order only, H ≅ μ exists iff μ ⊆ λ (Birkhoff);
    - with a generator witness, λ is a type from `_generator_types`, over
      Aut(H)-classes of elements (Dutta–Prasad, J. Group Theory 14, 2011).
    """
    rejection = _candidate_test(sub, quot, total, witness)
    accepted, rejected = [], []
    for cand in abelian_groups_of_order(total):
        why = rejection(cand)
        if why is None:
            accepted.append(cand)
        else:
            rejected.append((cand, why))
    trace = ExtensionTrace(total, tuple(accepted), tuple(rejected))
    if not accepted:
        raise NoExtension(f"no abelian group of order {total} satisfies the constraints")
    if len(accepted) > 1:
        raise AmbiguousExtension(
            f"{len(accepted)} isomorphism classes satisfy the constraints: "
            + ", ".join(str(g) for g in accepted),
            candidates=accepted)
    return accepted[0], trace


def resolve_extension(sub: FgAbGroup, quot: FgAbGroup,
                      witness: ExtensionWitness | None = None,
                      with_trace: bool = False):
    """The unique finite abelian extension of quot by sub passing the witness test."""
    if not sub.is_finite() or not quot.is_finite():
        raise ValueError("extension resolution requires finite groups")
    total = sub.order() * quot.order()
    if witness is not None and total % witness.witness_order:
        raise NoExtension(f"witness order {witness.witness_order} does not divide {total}")
    group, trace = _resolve(sub, quot, total, witness)
    return (group, trace) if with_trace else group


def resolve_extension_by_order(sub: FgAbGroup, quot_order: int,
                               witness: ExtensionWitness | None = None,
                               with_trace: bool = False):
    """Like resolve_extension but constraining only the order of the quotient."""
    if not sub.is_finite():
        raise ValueError("extension resolution requires finite groups")
    total = sub.order() * quot_order
    group, trace = _resolve(sub, None, total, witness)
    return (group, trace) if with_trace else group
