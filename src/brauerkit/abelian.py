"""Exact arithmetic of finitely generated abelian groups.

Groups are kept in normal form (free rank plus a dividing chain of
invariant factors), homomorphisms are integer matrices between chosen
generator bases, and every kernel/cokernel/extension question is reduced
to Smith normal form over arbitrary-precision integers.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from math import gcd, inf, prod

from . import take
from .errors import AmbiguousExtension, NoExtension
from .record import record

# ---------------------------------------------------------------------------
# integer matrix helpers
# ---------------------------------------------------------------------------


def _identity(n: int) -> list[list[int]]:
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


def _mat_mul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]], cols: int) -> list[list[int]]:
    """A·B with `cols` columns, which B cannot show when it has no rows."""
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
    return [list(col) for col in zip(*A)]


def _from_columns(cols: Sequence[Sequence[int]], nrows: int) -> list[list[int]]:
    return [[col[i] for col in cols] for i in range(nrows)]


def _snf_ext(M: Sequence[Sequence[int]], u: bool = False, v: bool = False, uinv: bool = False):
    """Smith normal form, tracking only the transforms asked for.

    Returns (U, diag, V, Uinv, None) with U*M*V = D, U and V unimodular,
    Uinv the inverse of U, and in slot 1 not D but its min(m, n) diagonal
    entries, a nonnegative dividing chain.  A transform that is not tracked
    comes back as [].  The steps do not depend on what is tracked, so a
    tracked transform is the same whatever else is.  Callers track U and V
    (`smith_normal_form`); U and, given source relations, Uinv, then Uinv
    (`hom_kernel`); U (`hom_cokernel`); or nothing (`cokernel`, and
    `homology`, which reads two diagonals by saturation).  The fifth slot is
    always None.

    The steps are a contract, as `tests/golden/snf_*.out` and
    `bench/digests.json` pin the bytes of U and V; only a deliberate change
    of output may alter them, and the diagonal in slot 1 left them as they
    were.  Pass t swaps to (t, t) the entry of least |a| in the trailing
    block, first by row then by column.  Then row i -= q * row t for each
    row below and col j -= q * col t for each column to the right, with
    floor quotients q, and the pass repeats while a remainder is left.  Else
    row t += the first row whose trailing block the pivot does not divide,
    and the pass repeats; if none, a negative pivot flips row t and t moves
    on.
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

    diag = [A[i][i] for i in range(limit)]
    return U, diag, _transpose(Vt) if v else [], _transpose(Uinvt) if uinv else [], None


def smith_normal_form(M: Sequence[Sequence[int]]):
    """Return (U, D, V) with U*M*V = D in Smith normal form."""
    U, diag, V, _, _ = _snf_ext(M, u=True, v=True)
    return U, [[diag[i] if i == j else 0 for j in range(len(V))] for i in range(len(U))], V


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


# the first 13 primes: as Miller-Rabin bases they decide primality exactly
# below 3.3 * 10^24 (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981

# trial division stops here; what is left above it must be a certified prime
TRIAL_DIVISION_BOUND = 1 << 20


def _is_prime(n: int) -> bool:
    """Strong probable-prime test to the bases `_MR_BASES`; no trial division."""
    if n < 2 or n in _MR_BASES:
        return n in _MR_BASES
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r with d odd
    d = (n - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _factorize(n: int) -> dict:
    """{p: e} with n = ∏ p^e, by trial division below TRIAL_DIVISION_BOUND.

    A cofactor left over is taken as one prime if `_is_prime` certifies it;
    otherwise ValueError, since factoring it could take days.
    """
    out = {}
    m, d = n, 2
    while d * d <= m and d < TRIAL_DIVISION_BOUND:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        if d * d <= m and not (m < _MR_EXACT_BELOW and _is_prime(m)):
            raise ValueError(f"cannot factor {n}: {m} has no prime factor below "
                             f"{TRIAL_DIVISION_BOUND} and is not a certified prime")
        out[m] = out.get(m, 0) + 1
    return out


# nonzero orders `from_orders` takes; its pairwise pass on 4,096 takes about 0.6 s
FROM_ORDERS_BOUND = 4096


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
        return FgAbGroup.from_orders([n])

    @staticmethod
    def from_orders(orders: Iterable[int]) -> "FgAbGroup":
        """Normalize a list of cyclic orders (0 meaning Z) to invariant factors.

        Z/a ⊕ Z/b ≅ Z/gcd(a, b) ⊕ Z/lcm(a, b), so after pass i entry i
        divides every later entry and nothing is factored: the pairwise case
        of Bernstein's coprime base (J. Algorithms 2005).  More than
        FROM_ORDERS_BOUND nonzero orders raise ValueError.
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
        if len(factors) > FROM_ORDERS_BOUND:
            raise ValueError(f"{len(factors)} nonzero orders, over the bound of {FROM_ORDERS_BOUND}")
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
        return None if self.free_rank else prod(self.invariant_factors)

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
        return FgAbGroup(take(obj, "free_rank", "int", 0), tuple(take(obj, "factors", "[int]", ())))


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
        if len(self.matrix) != nt or any([len(row) != ns for row in self.matrix]):
            raise ValueError(f"matrix must be {nt}x{ns}")
        orders = self.target.generator_orders()
        mat = tuple([tuple([x % e for x in row]) if e else tuple(row) for row, e in zip(self.matrix, orders)])
        # each row reduced modulo its target order must kill the source relations,
        # which sit on the torsion columns past the free ones
        free, facs = self.source.free_rank, self.source.invariant_factors
        if facs and any([d * x % e if e else x for row, e in zip(mat, orders) for d, x in zip(facs, row[free:])]):
            raise ValueError("matrix does not respect source relations")
        object.__setattr__(self, "matrix", mat)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_columns(source: FgAbGroup, target: FgAbGroup, cols: Sequence[Sequence[int]]) -> "GroupHom":
        return GroupHom(source, target, tuple(zip(*cols)) if cols else tuple(() for _ in range(target.num_generators)))

    # -- algebra -----------------------------------------------------------

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        if other.target != self.source:
            raise ValueError(f"composition mismatch: {other.target} is not {self.source}")
        product = _mat_mul(self.matrix, other.matrix, other.source.num_generators)
        return GroupHom(other.source, self.target, tuple(map(tuple, product)))

    def is_zero_hom(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.matrix)


def _relation_columns(g: FgAbGroup) -> list[list[int]]:
    n = g.num_generators
    cols = []
    for i, d in enumerate(g.invariant_factors, g.free_rank):
        col = [0] * n
        col[i] = d
        cols.append(col)
    return cols


def _summands(diag: list[int], k: int, vecs: Sequence = ()):
    """The group ⊕ Z/d over a Smith diagonal padded with zeros to k entries.

    The diagonal is 1s, then the rest of a dividing chain, then zeros, so
    in generator order the summands are the k - r free ones past its r
    nonzero entries, then the entries over 1.  Given one vector per entry,
    also returns those of the summands, in that order.
    """
    ones, r = diag.count(1), len(diag) - diag.count(0)
    group = FgAbGroup(k - r, tuple(diag[ones:r]))
    return group, vecs[r:] + vecs[ones:r] if vecs else []


def _lifts(f: GroupHom, cols: Sequence[Sequence[int]]):
    """Mᵀ, and each x of `cols` lifted to (x, −Mx/T) in the kernel K of [M | T],
    T the nonzero target orders on a diagonal, once Mx is 0 on the free target
    coordinates and T divides the rest, else "homology requires f∘g = 0"."""
    ns, free, facs = f.source.num_generators, f.target.free_rank, f.target.invariant_factors
    Mt = list(zip(*f.matrix)) or [() for _ in range(ns)]
    # the rows of Mᵀ give each Mx as a row
    mxs = _mat_mul(cols, Mt, free + len(facs))
    if any(any(mx[:free]) or any(y % e for y, e in zip(mx[free:], facs)) for mx in mxs):
        raise ValueError("homology requires f∘g = 0")
    return Mt, [[*x, *(-y // e for y, e in zip(mx[free:], facs))] for x, mx in zip(cols, mxs)]


def hom_kernel(f: GroupHom):
    """Kernel of f with its inclusion: a Smith form U·[M | T]ᵀ·V of rank r gives
    K the basis of the rows r… of U and the lifted source relations coordinates
    in it, the columns r… of U⁻¹; a second, their summands and generators."""
    ns = f.source.num_generators
    Mt, lifts = _lifts(f, _relation_columns(f.source))
    Pt = Mt + _relation_columns(f.target)
    U, diag, _, Uinv, _ = _snf_ext(Pt, u=True, uinv=bool(lifts))
    r = len(diag) - diag.count(0)
    k = len(Pt) - r
    rel = [c for c in _mat_mul(lifts, [row[r:] for row in Uinv], k) if any(c)]
    _, diag, _, W, _ = _snf_ext(_from_columns(rel, k), uinv=True)
    group, vecs = _summands(diag, k, _transpose(W))
    return group, GroupHom.from_columns(group, f.source, _mat_mul(vecs, [row[:ns] for row in U[r:]], ns))


def hom_cokernel(f: GroupHom):
    """Cokernel of f with the projection from f.target."""
    nt = f.target.num_generators
    cols = [c for c in zip(*f.matrix) if any(c)] + _relation_columns(f.target)
    U, diag, _, _, _ = _snf_ext(_from_columns(cols, nt), u=True)
    group, rows = _summands(diag, nt, U)
    return group, GroupHom(f.target, group, tuple(map(tuple, rows)))


def cokernel(f: GroupHom) -> FgAbGroup:
    """The group of `hom_cokernel(f)` alone, from a Smith form that tracks no transform."""
    nt = f.target.num_generators
    cols = [c for c in zip(*f.matrix) if any(c)] + _relation_columns(f.target)
    return _summands(_snf_ext(_from_columns(cols, nt))[1], nt)[0]


def homology(f: GroupHom, g: GroupHom | None = None) -> FgAbGroup:
    """ker(f)/im(g) for composable maps with f∘g = 0, or ker(f) when g is None.

    K ≅ {x ∈ Z^ns : f sends x into the target relations}, holding the lifts D̃
    of g's columns and the source relations, is saturated as a kernel lattice
    (Newman, *Integral Matrices*, ch. II), so H ≅ K/D̃ is the torsion of
    Z^(ns+t)/D̃ plus Z^(rank K − rank D̃), rank K = ns − rank of M's free rows:
    two Smith diagonals, no transform."""
    cols = _relation_columns(f.source)
    if g is not None:
        if g.target != f.source:
            raise ValueError(f"composition mismatch: {g.target} is not {f.source}")
        cols = _transpose(g.matrix) + cols
    _, lifts = _lifts(f, cols)
    top = f.matrix[:f.target.free_rank]
    diag = _snf_ext(top)[1] if any(map(any, top)) else []
    return _summands(_snf_ext(lifts)[1] if lifts else [], f.source.num_generators - len(diag) + diag.count(0))[0]


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
    """Search record certifying uniqueness: the accepted groups, and each
    type λ rejected at a prime p of the order as (p, λ, reason)."""

    order: int
    accepted: tuple[FgAbGroup, ...]
    rejected: tuple[tuple[int, tuple[int, ...], str], ...]


def _partitions(k: int):
    """The partitions of k, descending lexicographically.

    The next one takes 1 off the last part over 1, leaving m, and splits
    that 1 and the trailing 1s into parts of m and a remainder (Knuth,
    *TAOCP* 4A, 7.2.1.4).
    """
    part, ones = ([k], 0) if k > 1 else ([], k)  # the parts over 1, and how many 1s follow
    yield (*part, *(1,) * ones)
    while part:
        m = part.pop() - 1
        if m == 1:
            ones += 2
        else:
            q, ones = divmod(ones + 1, m)
            part += [m] * (q + 1)
            if ones > 1:
                part.append(ones)
                ones = 0
        yield (*part, *(1,) * ones)


# abelian groups of one order an extension problem may range over; 2^40 has 37,338
GROUPS_OF_ORDER_BOUND = 100_000


def _partition_count(k: int) -> int:
    """p(k): ways[s] counts the partitions of s into the parts seen so far."""
    ways = [1] + [0] * k
    for part in range(1, k + 1):
        for s in range(part, k + 1):
            ways[s] += ways[s - part]
    return ways[k]


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

    G = H ⊕ Ze / (p^b·e = h), whose type depends only on the Aut(H)-orbit of
    h = Σ p^v_i·g_i over the cyclic summands g_i, 0 ≤ v_i ≤ μ_i.  An orbit
    holds an h that is zero (v_i = μ_i) past the first g_i of each run of
    equal μ_i, and along whose nonzero coordinates, in descending μ_i, both
    v_i and μ_i − v_i strictly descend (Miller, Amer. J. Math. 27, 1905;
    Birkhoff, Proc. LMS 38, 1935; Dutta–Prasad, J. Group Theory 14, 2011).
    The first of those has the largest order, which e fixes at p^(c − b).
    G = coker(diag(p^μ_i) | (p^v_i, −p^b)), and a nonzero j×j minor of that
    matrix takes j diagonal columns, or j − 1 of them, the last column and
    one more row r, so it is ± one power of p.  The least exponent Δ_j is
    then the least of the j smallest μ_i, of b plus the j − 1 smallest, and
    over r of v_r plus the j − 1 smallest μ_i with i ≠ r; the type is
    (Δ_j − Δ_{j−1}) (Cohen, *A Course in Computational Algebraic Number
    Theory*, §2.4).
    """
    k, o = len(mu), c - b
    low = list(itertools.accumulate(reversed(mu), initial=0))  # low[j]: the j smallest μ_i
    walk = [((), inf, inf)]  # (v, and v_i and μ_i − v_i at its last nonzero coordinate)
    for m, run in itertools.groupby(mu):
        zeros = (m,) * (len(list(run)) - 1)
        walk = [(v + (m,) + zeros, lv, lo) for v, lv, lo in walk] + [
            (v + (x,) + zeros, x, m - x) for v, lv, lo in walk
            for x in (range(max(0, m - lo + 1), min(m, lv)) if lv < inf else (m - o,) if 0 < o <= m else ())]
    out = set()
    for v, lv, _ in walk:
        if lv == inf and o:  # h = 0 has order 1
            continue
        delta = [0]
        for j in range(1, k + 1):
            # μ is descending: μ_r is among the j smallest iff r ≥ k − j, and then
            # the j − 1 smallest with i ≠ r are the j smallest less μ_r
            delta.append(min(low[j], b + low[j - 1],
                             *(x + (low[j] - m if r >= k - j else low[j - 1]) for r, (m, x) in enumerate(zip(mu, v)))))
        delta.append(b + low[k])
        # the Smith diagonal divides down the chain, so its exponents ascend
        out.add(tuple(e for e in reversed([y - x for x, y in zip(delta, delta[1:])]) if e))
    return out


def _resolve(sub: FgAbGroup, quot: FgAbGroup | None, total: int,
             witness: ExtensionWitness | None):
    """The unique abelian group of order `total` extending quot (None: any
    quotient of that order) by sub; the trace holds every type tried.

    The constraints split over the primes p of `total`: the groups that pass
    are the products of the types λ ⊢ v_p(total) passing at each p.  With
    λ, μ, ν the types of the p-parts of candidate, sub and quot:
    - an element of order w exists iff λ_1 ≥ v_p(w) at every p;
    - H ≅ μ with G/H ≅ ν exists iff c^λ_{μν} > 0 (Green–Klein; Macdonald,
      *Symmetric Functions and Hall Polynomials*, ch. II (4.3));
    - with the quotient order only, H ≅ μ exists iff μ ⊆ λ (Birkhoff);
    - with a generator witness, λ is a type from `_generator_types`, over
      Aut(H)-orbit representatives of elements (Dutta–Prasad, J. Group
      Theory 14, 2011).
    """
    if total < 1:
        raise ValueError("order must be positive")
    prime_powers = sorted(_factorize(total).items())
    count = prod(_partition_count(e) for _, e in prime_powers)
    if count > GROUPS_OF_ORDER_BOUND:
        raise ValueError(f"order {total} has {count} abelian groups, "
                         f"over the bound of {GROUPS_OF_ORDER_BOUND}")
    w = witness.witness_order if witness is not None else 1
    if total % w:
        raise NoExtension(f"no abelian group of order {total} satisfies the constraints")
    generator = witness is not None and witness.maps_to_generator_of_quotient
    if generator and quot is not None and not quot.is_cyclic():
        raise ValueError("generator witness requires a cyclic quotient")
    survivors, rejected = [], []
    for p, e in prime_powers:
        mu, c = _p_type(sub.invariant_factors, p), _valuation(w, p)
        if generator:
            passes = _generator_types(p, mu, e - sum(mu), c).__contains__
        elif quot is not None:
            nu = _p_type(quot.invariant_factors, p)
            passes = lambda lam: _lr_positive(lam, mu, nu)
        else:
            passes = lambda lam: _contains(lam, mu)
        kept, too_small = [], f"no element of order {p ** c}"
        for lam in _partitions(e):
            if lam[0] < c:
                rejected.append((p, lam, too_small))
            elif passes(lam):
                kept.append([p ** x for x in lam])
            else:
                rejected.append((p, lam, "no subgroup with the required quotient"))
        survivors.append(kept)
    # slot i of a group multiplies the i-th largest prime power of every prime
    groups = (FgAbGroup(0, tuple(map(prod, itertools.zip_longest(*blocks, fillvalue=1)))[::-1])
              for blocks in itertools.product(*survivors))
    accepted = sorted(groups, key=lambda g: g.invariant_factors)
    if not accepted:
        raise NoExtension(f"no abelian group of order {total} satisfies the constraints")
    if len(accepted) > 1:
        raise AmbiguousExtension(
            f"{len(accepted)} isomorphism classes satisfy the constraints: "
            + ", ".join(str(g) for g in accepted))
    return accepted[0], ExtensionTrace(total, tuple(accepted), tuple(rejected))


def resolve_extension(sub: FgAbGroup, quot: FgAbGroup,
                      witness: ExtensionWitness | None = None) -> FgAbGroup:
    """The unique finite abelian extension of quot by sub passing the witness test."""
    if not sub.is_finite() or not quot.is_finite():
        raise ValueError("extension resolution requires finite groups")
    total = sub.order() * quot.order()
    if witness is not None and total % witness.witness_order:
        raise NoExtension(f"witness order {witness.witness_order} does not divide {total}")
    return _resolve(sub, quot, total, witness)[0]


def resolve_extension_by_order(sub: FgAbGroup, quot_order: int,
                               witness: ExtensionWitness | None = None) -> FgAbGroup:
    """Like resolve_extension but constraining only the order of the quotient."""
    if not sub.is_finite():
        raise ValueError("extension resolution requires finite groups")
    total = sub.order() * quot_order
    return _resolve(sub, None, total, witness)[0]
