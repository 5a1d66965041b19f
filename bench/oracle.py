"""Independent arithmetic the benchmark uses to check brauerkit's answers.

Nothing here imports brauerkit: every expected value is computed from the
mathematics the library documents, so a wrong library answer cannot also
produce the matching expectation.
"""

from __future__ import annotations

import random
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# finite abelian groups as (free_rank, invariant factors)
# ---------------------------------------------------------------------------

Structure = Tuple[int, Tuple[int, ...]]


def _factor_small(n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def normal_form(orders: Sequence[int]) -> Structure:
    """Invariant-factor normal form of a sum of cyclic groups (0 means Z).

    Only used on small orders, so plain trial division is fine.
    """
    free = sum(1 for d in orders if d == 0)
    by_prime: Dict[int, List[int]] = {}
    for d in orders:
        if d > 1:
            for p, e in _factor_small(d).items():
                by_prime.setdefault(p, []).append(p ** e)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * width
    for powers in by_prime.values():
        for slot, q in enumerate(sorted(powers, reverse=True)):
            factors[slot] *= q
    return free, tuple(sorted(f for f in factors if f > 1))


def structure_str(s: Structure) -> str:
    free, factors = s
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{d}" for d in factors)
    return " ⊕ ".join(parts) if parts else "0"


def structure_json(s: Structure) -> Dict:
    return {"free_rank": s[0], "factors": list(s[1])}


def torsion(s: Structure, n: int) -> Structure:
    return normal_form([gcd(d, n) for d in s[1]])


def mod_n(s: Structure, n: int) -> Structure:
    """G / nG."""
    return normal_form([n] * s[0] + [gcd(d, n) for d in s[1]])


def cyclic_cohomology_row(s: Structure, n: int, action: str, s_max: int) -> List[Structure]:
    """H^0..H^s_max of C_n acting trivially, or (n = 2) by -1, on the group."""
    if action == "trivial":
        h0, odd, even = s, torsion(s, n), mod_n(s, n)
    else:  # sign, n = 2: sigma - 1 = -2 and the norm N = 1 + sigma = 0
        h0, odd, even = torsion(s, 2), mod_n(s, 2), torsion(s, 2)
    return [h0] + [odd if k % 2 else even for k in range(1, s_max + 1)]


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------


def mat_mul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> List[List[int]]:
    cols = list(zip(*B)) if B else []
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


_CHECK_PRIMES = (2305843009213693951, 4611686018427387847,
                 9223372036854775783, 1152921504606846883)


def det_mod(A: Sequence[Sequence[int]], p: int) -> int:
    n = len(A)
    M = [[x % p for x in row] for row in A]
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det = det * M[c][c] % p
        inv = pow(M[c][c], -1, p)
        for r in range(c + 1, n):
            f = M[r][c] * inv % p
            if f:
                M[r] = [(a - f * b) % p for a, b in zip(M[r], M[c])]
    return det % p


def is_unimodular(A: Sequence[Sequence[int]]) -> bool:
    """det(A) = ±1, tested modulo four 61-63-bit primes with one common sign."""
    if any(len(row) != len(A) for row in A):
        return False
    if not A:
        return True
    signs = set()
    for p in _CHECK_PRIMES:
        d = det_mod(A, p)
        if d == 1:
            signs.add(1)
        elif d == p - 1:
            signs.add(-1)
        else:
            return False
    return len(signs) == 1


def snf_failure(M, U, D, V) -> Optional[str]:
    m, n = len(M), len(M[0])
    if len(U) != m or len(V) != n or len(D) != m or any(len(r) != n for r in D):
        return "transform shapes"
    if not (is_unimodular(U) and is_unimodular(V)):
        return "transform not unimodular"
    if mat_mul(mat_mul(U, M), V) != D:
        return "U*M*V != D"
    diag = []
    for i in range(m):
        for j in range(n):
            if i != j and D[i][j]:
                return "D not diagonal"
        if i < n:
            diag.append(D[i][i])
    for a, b in zip(diag, diag[1:]):
        if a < 0 or b < 0 or (a == 0 and b != 0) or (a and b % a):
            return "diagonal is not a dividing chain"
    if diag and diag[-1] < 0:
        return "negative diagonal entry"
    return None


def random_unimodular(rng: random.Random, n: int, steps: int) -> Tuple[List[List[int]], List[List[int]]]:
    """A random unimodular T and its inverse, from elementary row operations."""
    T = [[int(i == j) for j in range(n)] for i in range(n)]
    Tinv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, k = rng.sample(range(n), 2)
        q = rng.choice((-1, 1))
        T[i] = [a + q * b for a, b in zip(T[i], T[k])]          # row i += q row k
        for row in Tinv:                                         # col k -= q col i
            row[k] -= q * row[i]
    return T, Tinv


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


# ---------------------------------------------------------------------------
# semilinear operators over F_p
# ---------------------------------------------------------------------------


def apply_operator(terms: Sequence[Tuple[int, int, int]], p: int,
                   poly: Sequence[Tuple[int, int]]) -> Dict[int, int]:
    """Image of sum(a_d j^d) under x -> sum c j^k x^(p^e); coefficients lie
    in F_p, which Frobenius fixes, so x^(p^e) = sum a_d j^(d p^e)."""
    out: Dict[int, int] = {}
    for c, k, e in terms:
        for d, a in poly:
            deg = k + d * p ** e
            out[deg] = (out.get(deg, 0) + c * a) % p
    return {d: v for d, v in out.items() if v}


def dominance_region(terms: Sequence[Tuple[int, int, int]], p: int) -> Tuple[int, int]:
    """Degrees where a kernel element can live; (1, 0) when the operator is
    injective (a single Frobenius level)."""
    e_top = max(e for _, _, e in terms)
    lower = [(k, e) for _, k, e in terms if e < e_top]
    if not lower:
        return (1, 0)
    k_top = max(k for _, k, e in terms if e == e_top)
    k_bot = min(k for _, k, e in terms if e == e_top)
    his = [(k - k_top) // (p ** e_top - p ** e) for k, e in lower]
    los = [-((k_bot - k) // (p ** e_top - p ** e)) for k, e in lower]
    return (min(los), max(his))


def operator_text(terms: Sequence[Tuple[int, int, int]], p: int) -> str:
    parts = []
    for c, k, e in terms:
        bits = [] if c == 1 else [str(c)]
        if k:
            bits.append("j" if k == 1 else f"j^{k}")
        bits.append("x" if e == 0 else f"x^{p ** e}")
        parts.append("*".join(bits))
    return " + ".join(parts)


def parse_poly(text: str) -> List[Tuple[int, int]]:
    """Inverse of the CLI's polynomial printing ("j^3 + 2*j^5", "1", "j")."""
    out = []
    for mono in text.split(" + "):
        coeff = 1
        if "*" in mono:
            c, mono = mono.split("*")
            coeff = int(c)
        if mono == "1":
            deg = 0
        elif mono == "j":
            deg = 1
        else:
            deg = int(mono[2:])
        out.append((deg, coeff))
    return out


# ---------------------------------------------------------------------------
# spectral-sequence pages
# ---------------------------------------------------------------------------


def bott_power(s: int, t: int) -> Optional[int]:
    if t % 2 or (t - 2 * s) % 4:
        return None
    return (t - 2 * s) // 4


def ku_pages_expected(s_max: int, t_lo: int, t_hi: int):
    """(E2, E4) of the additive C_2 sequence of KU as {(s, t): (structure, index)}.

    E2 is H^s(C_2; Z) with trivial action for t = 0 mod 4 and sign action for
    t = 2 mod 4; d_3 out of eta^s beta^k (k odd) is an isomorphism for s >= 1
    and the surjection Z -> Z/2 (index two) for s = 0.
    """
    e2 = {}
    for t in range(t_lo, t_hi + 1):
        if t % 2:
            continue
        for s in range(s_max + 1):
            if t % 4 == 0:
                st = (1, ()) if s == 0 else ((0, ()) if s % 2 else (0, (2,)))
            else:
                st = (0, ()) if s % 2 == 0 else (0, (2,))
            if st != (0, ()):
                e2[(s, t)] = (st, 1)
    def has_rule(pos):
        k = bott_power(*pos)
        return pos in e2 and k is not None and k % 2 == 1
    e4 = {}
    for (s, t), (st, index) in e2.items():
        if has_rule((s - 3, t - 2)):
            continue  # hit by an isomorphism or by the surjection onto Z/2
        if has_rule((s, t)):
            if s >= 1:
                continue
            index = 2
        e4[(s, t)] = (st, index)
    return e2, e4


def turn_page_expected(entries: Dict[Tuple[int, int], Dict], rules: Dict[Tuple[int, int], Dict], r: int):
    """Next page for pages whose entries are cyclic groups Z/a (a = 0: Z) and
    whose rules are zero, iso, unresolved or 1x1 matrices "times c".

    Rules only start at positions that no rule points into, so no entry is
    both the source and the target of a matrix rule.
    Returns {(s, t): (structure, label, index, assumed)}.
    """
    killed = set()
    out = {}
    for (s, t), e in sorted(entries.items()):
        a, label, index, assumed = e["order"], e["label"], e["index"], tuple(e["assumed"])
        group = normal_form([a])
        src = (s - r, t - r + 1)
        rin = rules.get(src) if src in entries else None
        rout = rules.get((s, t))
        if rin is not None and rin["kind"] == "iso":
            continue
        if rin is not None and rin["kind"] == "unresolved":
            assumed += (rin["name"],)
        if rin is not None and rin["kind"] == "matrix":
            group = normal_form([gcd(a, rin["c"])])      # Z/a / <c>, a = b here
        if rout is None or rout["kind"] == "zero":
            out[(s, t)] = (group, label, index, assumed)
        elif rout["kind"] == "iso":
            killed.add((s + r, t + r - 1))
        elif rout["kind"] == "unresolved":
            out[(s, t)] = (group, label, index, assumed + (rout["name"],))
        else:  # x -> c x from Z/a (or Z) onto Z/b
            b, c = rout["b"], rout["c"]
            image = b // gcd(b, c)
            kernel = normal_form([0] if a == 0 else [a // image])
            out[(s, t)] = (kernel, rout.get("relabel") or label, index * image, assumed)
    return {pos: v for pos, v in out.items() if pos not in killed and v[0] != (0, ())}
