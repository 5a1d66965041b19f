"""Kernels and cokernels of semilinear operators in characteristic 2 and 3.

An operator is a sum of terms c*j^k*x^(p^e) acting on a degree window of
F_p[j] or F_p[j^{±1}].  Everything is additive over F_p, so on coefficient
vectors each term sends the degree-d monomial to c*j^(k + d*p^e); kernels
and cokernels reduce to F_p linear algebra: over F_2 one column reduction on
int bitsets gives both, over F_3 a dense RREF gives the kernel and a dense
column echelon the cokernel.  A degree-growth (top-Frobenius dominance)
argument certifies when the window already sees the full answer.

The module also computes the Cech cohomology of punctured affine space on
the standard chart cover.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Sequence

from .errors import WindowTooSmall
from .record import record


# degrees a module may span: a polynomial window of 512 (where the dense F_3
# cokernel of x + 2*x^3 takes about 4 s on a 2-vCPU VM) or a Laurent one of ±256
WINDOW_DEGREE_BOUND = 513
# cokernel degrees [low_cut, prefix] a report may list, as many as the Cech
# bound; a Frobenius power or a power of j reaches past it on a small window
COKERNEL_DEGREE_BOUND = 100_000


@record
class TruncatedCharPModule:
    p: int
    window: tuple[int, int]
    laurent: bool = False

    def __post_init__(self):
        if self.p not in (2, 3):
            raise ValueError("only characteristics 2 and 3 are supported")
        if len(self.window) != 2:
            raise ValueError(f"'window' must be two degrees [lo, hi], not {list(self.window)}")
        lo, hi = self.window
        if not (lo <= 0 <= hi):
            raise ValueError("window must contain degree 0")
        if not self.laurent and lo != 0:
            raise ValueError("polynomial modules start at degree 0")
        if hi - lo + 1 > WINDOW_DEGREE_BOUND:
            raise ValueError(f"the window [{lo}, {hi}] has {hi - lo + 1} degrees, "
                             f"over the bound of {WINDOW_DEGREE_BOUND}")
        object.__setattr__(self, "window", (lo, hi))

    def degrees(self) -> range:
        return range(self.window[0], self.window[1] + 1)


@record
class SemilinearOperator:
    """x |-> sum of c * j^k * x^(p^e) terms."""

    p: int
    terms: tuple[tuple[int, int, int], ...]  # (c, k, e)

    def __post_init__(self):
        merged: dict[tuple[int, int], int] = {}
        for c, k, e in self.terms:
            if e < 0:
                raise ValueError("frobenius power must be nonnegative")
            merged[(k, e)] = (merged.get((k, e), 0) + c) % self.p
        terms = tuple(sorted((c, k, e) for (k, e), c in merged.items() if c))
        if not terms:
            raise ValueError("operator must have at least one nonzero term")
        object.__setattr__(self, "terms", terms)

    def __str__(self) -> str:
        parts = []
        for c, k, e in self.terms:
            bits = []
            if c != 1:
                bits.append(str(c))
            if k:
                bits.append("j" if k == 1 else f"j^{k}")
            bits.append("x" if e == 0 else f"x^{self.p ** e}")
            parts.append("*".join(bits))
        return " + ".join(parts)


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(?:j(?:\^(-?\d+))?\*?)?x(?:\^(\d+))?$")


def parse_operator(text: str, p: int) -> SemilinearOperator:
    """Parse strings like "x + j*x^2" or "x - x^3" into an operator."""
    if p not in (2, 3):
        raise ValueError("only characteristics 2 and 3 are supported")
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty operator")
    # split into signed terms; a '-' directly after '^' is a negative exponent
    chunks = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and cur and not cur.endswith("^"):
            chunks.append(cur)
            cur = ch
        else:
            cur += ch
    if cur:
        chunks.append(cur)
    terms = []
    for chunk in chunks:
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse operator term {chunk!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        k = int(m.group(2)) if m.group(2) else (1 if "j" in chunk else 0)
        power = int(m.group(3)) if m.group(3) else 1
        e = 0
        if power == 0:
            raise ValueError(f"exponent 0 is not a power of {p}")
        while power > 1:
            if power % p:
                raise ValueError(f"exponent {power} is not a power of {p}")
            power //= p
            e += 1
        terms.append(((sign * coeff) % p, k, e))
    return SemilinearOperator(p, tuple(terms))


# ---------------------------------------------------------------------------
# F_p linear algebra on degree-indexed vectors
# ---------------------------------------------------------------------------


def _operator_matrix(op: SemilinearOperator, degrees: Sequence[int]):
    """Columns indexed by input degrees, rows by every reachable output degree."""
    out_degrees = sorted({k + d * op.p ** e for d in degrees for _, k, e in op.terms})
    row_of = {d: i for i, d in enumerate(out_degrees)}
    cols = []
    for d in degrees:
        col = [0] * len(out_degrees)
        for c, k, e in op.terms:
            col[row_of[k + d * op.p ** e]] = (col[row_of[k + d * op.p ** e]] + c) % op.p
        cols.append(col)
    return cols, out_degrees


def _kernel_basis_fp(cols: list[list[int]], p: int) -> list[list[int]]:
    """Kernel of the matrix with the given columns, canonical RREF basis."""
    ncols = len(cols)
    if ncols == 0:
        return []
    nrows = len(cols[0])
    rows = [[cols[j][i] for j in range(ncols)] for i in range(nrows)]
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if rows[i][c] % p), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fcol in free:
        v = [0] * ncols
        v[fcol] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-rows[i][fcol]) % p
        basis.append(v)
    return basis


def _echelon_tops(cols: list[list[int]], p: int) -> set[int]:
    """Rows of the top entries of the column span, by a dense column echelon
    with each pivot at the highest nonzero entry of its column."""
    work = [list(c) for c in cols]
    pivot_rows = set()
    for _ in range(len(work)):
        # pick the unused column whose top nonzero entry has the largest degree
        best = None
        for idx, col in enumerate(work):
            top = next((i for i in range(len(col) - 1, -1, -1) if col[i] % p), None)
            if top is None:
                continue
            if top in pivot_rows:
                continue
            if best is None or top > best[1]:
                best = (idx, top)
        if best is None:
            break
        idx, top = best
        inv = pow(work[idx][top], -1, p)
        work[idx] = [(x * inv) % p for x in work[idx]]
        for jdx, col in enumerate(work):
            if jdx != idx and col[top] % p:
                f = col[top]
                work[jdx] = [(a - f * b) % p for a, b in zip(col, work[idx])]
        pivot_rows.add(top)
    return pivot_rows


def _reduce_f2(op: SemilinearOperator, degrees: Sequence[int]):
    """(kernel basis, image top degrees) of an F_2 operator on `degrees`.

    Int-bitset columns over the reachable output degrees are reduced left to
    right against a table top row -> (column, input combination), the
    persistence standard algorithm.  A column that reduces to zero gives a
    kernel vector; its combination takes in table columns only, so it is 0 on
    every other zero column and the basis is the RREF one of `_kernel_basis_fp`.
    """
    out_degrees = sorted({k + d * 2 ** e for d in degrees for _, k, e in op.terms})
    row_of = {d: i for i, d in enumerate(out_degrees)}
    table: dict[int, tuple[int, int]] = {}
    kernel = []
    for i, d in enumerate(degrees):
        col, combo = 0, 1 << i
        for _, k, e in op.terms:
            col ^= 1 << row_of[k + d * 2 ** e]
        while col:
            top = col.bit_length() - 1
            if top not in table:
                table[top] = (col, combo)
                break
            col ^= table[top][0]
            combo ^= table[top][1]
        else:
            kernel.append(tuple((degrees[j], 1) for j in range(i + 1) if combo >> j & 1))
    return kernel, {out_degrees[t] for t in table}


def _dominance_region(op: SemilinearOperator) -> tuple[int, int]:
    """Degree interval (lo, hi) that can support kernel elements.

    An operator that is plainly injective (a single Frobenius level) gets
    the empty interval (1, 0).
    """
    p = op.p
    e_star = max(e for _, _, e in op.terms)
    lower_terms = [(c, k, e) for c, k, e in op.terms if e < e_star]
    if not lower_terms:
        return (1, 0)  # injective: j^k-multiple of a Frobenius twist
    k_top = max(k for _, k, e in op.terms if e == e_star)
    k_bot = min(k for _, k, e in op.terms if e == e_star)
    his, los = [], []
    for _, k, e in lower_terms:
        delta = p ** e_star - p ** e
        his.append((k - k_top) // delta)  # floor: largest non-dominated top degree
        los.append(-((k_bot - k) // delta))  # ceil((k - k_bot)/delta): smallest non-dominated bottom degree
    return (min(los), max(his))


def _check_window(op: SemilinearOperator, m: TruncatedCharPModule) -> None:
    """Refuse a module of another characteristic, and a negative power of j
    on a polynomial module; raise WindowTooSmall unless the window holds the
    whole (nonempty) kernel support region."""
    if op.p != m.p:
        raise ValueError("operator and module characteristics differ")
    lo, hi = m.window
    rlo, rhi = _dominance_region(op)
    if not m.laurent:
        for term in op.terms:
            if term[1] < 0:
                raise ValueError(f"operator term '{SemilinearOperator(op.p, (term,))}' has a "
                                 "negative power of j, outside a polynomial module")
        rlo = max(rlo, 0)
    if rlo <= rhi and (rlo < lo or rhi > hi):
        raise WindowTooSmall(f"kernel support region [{rlo},{rhi}] exceeds window [{lo},{hi}]")


def operator_kernel(op: SemilinearOperator, m: TruncatedCharPModule):
    """(basis, stabilized): F_p-basis of the certified kernel on the window.

    Basis elements are lists of (degree, coefficient) pairs, increasing degree.
    Raises WindowTooSmall if the degree-growth analysis cannot confine all
    kernel elements to the window, so `stabilized` is always True.
    """
    _check_window(op, m)
    degrees = list(m.degrees())
    if op.p == 2:
        basis, _ = _reduce_f2(op, degrees)
    else:
        cols, _ = _operator_matrix(op, degrees)
        basis = [tuple((degrees[i], coef) for i, coef in enumerate(v) if coef)
                 for v in _kernel_basis_fp(cols, op.p)]
    return sorted(basis), True


def operator_cokernel_basis(op: SemilinearOperator, m: TruncatedCharPModule):
    """(monomial degrees, stable_prefix_degree) for coker(op).

    The returned degrees represent a basis of the cokernel in degrees up to
    the stable prefix, certified unchanged under window enlargement.  More
    than COKERNEL_DEGREE_BOUND certified degrees raise ValueError before any
    matrix is built.
    """
    _check_window(op, m)
    lo, hi = m.window
    p = op.p
    # a window-(hi+1) input can reach down to this output degree; below it the
    # image, hence the cokernel, can no longer change
    prefix = min(k + (hi + 1) * p ** e for _, k, e in op.terms) - 1
    if m.laurent:
        low_cut = max(k + (lo - 1) * p ** e for _, k, e in op.terms) + 1
    else:
        low_cut = 0
    if prefix < low_cut:
        raise WindowTooSmall("no certified cokernel prefix for this window")
    if prefix - low_cut + 1 > COKERNEL_DEGREE_BOUND:
        raise ValueError(f"the certified cokernel [{low_cut}, {prefix}] has {prefix - low_cut + 1} degrees, "
                         f"over the bound of {COKERNEL_DEGREE_BOUND}")
    degrees = list(m.degrees())
    if p == 2:
        _, tops = _reduce_f2(op, degrees)
    else:
        cols, out_degrees = _operator_matrix(op, degrees)
        tops = {out_degrees[i] for i in _echelon_tops(cols, p)}
    basis = [d for d in range(low_cut, prefix + 1) if d not in tops]
    return basis, prefix


# ---------------------------------------------------------------------------
# punctured affine space
# ---------------------------------------------------------------------------


@record
class PuncturedAffineCohomology:
    n_vars: int
    window: int
    degree: int  # cohomological degree n-1
    basis: tuple[tuple[int, ...], ...]
    affine: bool = False
    note: str = ""


# basis monomials a `cech` report may list: at n = 4 near the bound the CLI
# takes about 1 s and writes 3.5 MB of JSON
CECH_BASIS_BOUND = 100_000
# exponents it may write, n per monomial: at n = 4 the two bounds agree,
# and for large n this one keeps the JSON to a few MB
CECH_EXPONENT_BOUND = 400_000


def punctured_affine_cohomology(n_vars: int, window: int) -> PuncturedAffineCohomology:
    """Monomial basis of H^{n-1}(A^n \\ 0; O) down to total degree -window.

    For n >= 2 these are exactly the monomials with every exponent <= -1;
    A^1 \\ 0 is affine and has no higher cohomology.  The basis has
    sum_{t=n..window} C(t-1, n-1) = C(window, n) elements of n exponents
    each.  More than CECH_BASIS_BOUND = 100000 monomials, or more than
    CECH_EXPONENT_BOUND = 400000 exponents in all, raises ValueError before
    any is generated.
    """
    if n_vars < 1:
        raise ValueError("need at least one variable")
    if window < n_vars:
        raise ValueError("window must be at least the number of variables")
    if n_vars == 1:
        return PuncturedAffineCohomology(
            1, window, 0, (), affine=True,
            note="A^1 minus 0 is affine with coordinate ring F[x^{±1}]; only H^0 is nonzero")
    k = min(n_vars, window - n_vars)
    # C(window, k) >= 2^k, so a large k is over the bound without computing C
    size = math.comb(window, k) if k < 64 else None
    if size is None or size > CECH_BASIS_BOUND:
        count = f">= 2^{k}" if size is None else f"= {size}"
        raise ValueError(f"the basis has C({window}, {n_vars}) {count} monomials, "
                         f"over the bound of {CECH_BASIS_BOUND}")
    if size * n_vars > CECH_EXPONENT_BOUND:
        raise ValueError(f"the basis has C({window}, {n_vars}) = {size} monomials of "
                         f"{n_vars} exponents, {size * n_vars} in all, "
                         f"over the bound of {CECH_EXPONENT_BOUND}")
    basis = []
    for total in range(n_vars, window + 1):
        # exponent vectors a with a_i <= -1 and sum = -total
        for extra in _compositions(total - n_vars, n_vars):
            basis.append(tuple(-(1 + x) for x in extra))
    basis_sorted = tuple(sorted(basis, key=lambda a: (-sum(a), a)))
    return PuncturedAffineCohomology(n_vars, window, n_vars - 1, basis_sorted)


def _compositions(total: int, parts: int):
    """The `parts`-tuples of nonnegative integers summing to `total`, by stars
    and bars: `parts - 1` bars among `total + parts - 1` places."""
    places = total + parts - 1
    for bars in itertools.combinations(range(places), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (places,)))
