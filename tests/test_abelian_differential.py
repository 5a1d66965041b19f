"""`FgAbGroup.from_orders`, `_factorize`, `_snf_ext`, `hom_kernel` and
`homology` against the oracle in `abelian_oracle`.

Seeded random order lists (0, 1, repeated prime powers and primes near
10^6-10^12) must normalise to the oracle's group, and seeded orders
below 10^9 and multiples of those primes must factor as the oracle's full
trial division does.  Seeded random m×n matrices with m, n ≤ 9 and many
zero entries, 0-row and 1×n ones among them, must give the diagonal of the
oracle's D and, for every subset of tracked transforms, exactly the
oracle's U, V and U⁻¹, with [] for the rest, and `smith_normal_form` its
U, D and V; so must the benchmark's dense shapes up to 30×30,
rank-deficient and sparse ones and the witness matrices of the extension
shapes, at the seed in DIFFERENTIAL_SEED when it is set.
Seeded homs between free, torsion, mixed and zero groups, and composable
pairs f, g with f∘g = 0 (free ones drawn as the benchmark's homology
requests, torsion ones through a cokernel), must give the oracle's group
from `hom_kernel` and `homology`; the inclusion must send its generators,
and the oracle's, to the same subgroup of the source.  So must `homology`
on seeded A → B → C with free and torsion parts, g through the inclusion
of ker f, f zero, g absent and zero groups among A, B and C.
Homs of every shape (zero maps into Z^n, maps out of and into the zero
group, torsion targets, and seeded homs drawn as the benchmark's algebra
workload draws them) must give the same groups from `hom_kernel` and
`homology`, and from `hom_cokernel` and `cokernel`; an inclusion that lands
in the kernel, a projection onto the cokernel that kills the image, and
|ker|·|target| = |source|·|coker| when both ends are finite.
"""

import itertools
import random
from math import gcd

import pytest

import abelian_oracle
import resolve_oracle
from seeds import differential_seed
from brauerkit import abelian
from brauerkit.abelian import (
    FgAbGroup,
    GroupHom,
    _snf_ext,
    cokernel,
    hom_cokernel,
    hom_kernel,
    homology,
    smith_normal_form,
)

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


def test_factorize_matches_full_trial_division():
    # 999999999989 and 1000000000039 are past the trial-division bound: the
    # primality test certifies them
    rng = random.Random(19)
    cases = list(range(1, 2000)) + [rng.randrange(1, 10 ** 9) for _ in range(300)]
    cases += [p * k for p in BIG_PRIMES for k in (1, 2, 12)]
    for n in cases:
        assert abelian._factorize(n) == abelian_oracle._factorize(n), n
    p = 100000000000000000001027
    assert abelian._factorize(12 * p) == {2: 2, 3: 1, p: 1}


def test_factorize_refuses_what_it_cannot_certify():
    # two primes past the bound 2^20, a square of one, and a prime past the
    # range where the primality test is exact
    for n in (1048583 * 1048589, 2 * 1048583 ** 2, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=f"cannot factor {n}: .* below 1048576"):
            abelian._factorize(n)


def _random_matrix(rng, m, n):
    return [[rng.choice((0, 0, 0, rng.randrange(-30, 31))) for _ in range(n)] for _ in range(m)]


def test_snf_ext_matches_full_tracking_for_every_subset():
    rng = random.Random(19870912)
    shapes = [(0, 0), (3, 0)] + [(1, n) for n in range(1, 10)]
    shapes += [(rng.randrange(1, 10), rng.randrange(1, 10)) for _ in range(300)]
    for m, n in shapes:
        M = _random_matrix(rng, m, n)
        U, D, V, Uinv, _ = abelian_oracle.snf_ext(M)
        diag = abelian_oracle._diag(D)
        for u, v, uinv in itertools.product((False, True), repeat=3):
            got = _snf_ext(M, u=u, v=v, uinv=uinv)
            want = (U if u else [], diag, V if v else [], Uinv if uinv else [], None)
            assert got == want, (M, u, v, uinv)
        assert smith_normal_form(M) == (U, D, V), M


def _generator_type_matrices():
    """The witness matrices of the extension shapes of the algebra benchmark
    and a few larger ones."""
    return [M for p, mu, b in ((2, (3,), 1), (2, (2, 1), 2), (2, (3, 1), 2), (2, (6,), 1), (3, (2,), 2),
                               (2, (3, 2, 1), 2), (3, (2, 2, 1), 1), (5, (2, 1), 1))
            for M in resolve_oracle.witness_matrices(p, mu, b, mu[0] + b)]


def test_snf_ext_matches_full_tracking_at_benchmark_sizes():
    seed = differential_seed(20260418)
    rng = random.Random(seed)

    def dense(m, n):
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]

    # the algebra workload's shapes, whose transforms reach hundreds of digits
    cases = [dense(m, n) for m, n in ((8, 8), (12, 12), (16, 16), (20, 20), (10, 14), (24, 18), (30, 30))]
    # rank r < min(m, n): a product of m×r and r×n
    for m, n, r in ((12, 12, 7), (16, 10, 3), (9, 20, 5), (14, 14, 1)):
        cases.append(abelian._mat_mul(dense(m, r), dense(r, n), n))
    for m, n in ((20, 20), (14, 25), (25, 14)):
        cases.append([[x if rng.random() < 0.1 else 0 for x in row] for row in dense(m, n)])
    cases += _generator_type_matrices()
    for M in cases:
        U, D, V, Uinv, _ = abelian_oracle.snf_ext(M)
        diag = abelian_oracle._diag(D)
        for u, v, uinv in itertools.product((False, True), repeat=3):
            got = _snf_ext(M, u=u, v=v, uinv=uinv)
            want = (U if u else [], diag, V if v else [], Uinv if uinv else [], None)
            assert got == want, f"seed {seed}: first differing matrix {M} (u={u}, v={v}, uinv={uinv})"
        assert smith_normal_form(M) == (U, D, V), f"seed {seed}: first differing matrix {M}"


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


ORDERS = (0, 2, 3, 4, 6, 8, 9, 12, 16)  # the cyclic orders of bench/workloads.py


def _hom_between(rng, S, T):
    """A hom S → T whose every column respects the order of its source generator."""
    cols = [[rng.randrange(-5, 6) if d == 0 else 0 if e == 0 else e // gcd(e, d) * rng.randrange(0, 6)
             for e in T.generator_orders()] for d in S.generator_orders()]
    return GroupHom.from_columns(S, T, cols)


def _random_hom(rng, n_src, n_tgt, tgt_orders=ORDERS):
    """A hom drawn as the benchmark's `_random_hom` draws one."""
    S = FgAbGroup.from_orders([rng.choice(ORDERS) for _ in range(n_src)])
    T = FgAbGroup.from_orders([rng.choice(tgt_orders) for _ in range(n_tgt)])
    return _hom_between(rng, S, T)


def _free_pair(rng):
    """Z^a --g--> Z^b --f--> Z^c with f∘g = 0, drawn as the benchmark's
    homology requests: g hits the first k coordinates through diag(d), f is
    injective on the rest, and a unimodular T scrambles the middle basis."""
    k, rest = rng.randrange(1, 4), rng.randrange(1, 3)
    b, a = k + rest, k + rng.randrange(0, 2)
    d = [rng.choice((0, 1, 2, 3, 4, 6)) for _ in range(k)]
    G = [[d[i] if i == j else 0 for j in range(a)] for i in range(k)] + [[0] * a for _ in range(rest)]
    F = [[0] * k + [int(i == j) for j in range(rest)] for i in range(rest)]
    F.append([0] * k + [rng.randrange(-3, 4) for _ in range(rest)])
    T = [[int(i == j) for j in range(b)] for i in range(b)]
    Tinv = [row[:] for row in T]
    for _ in range(6):
        i, j = rng.sample(range(b), 2)
        q = rng.choice((-1, 1))
        T[i] = [x + q * y for x, y in zip(T[i], T[j])]
        for row in Tinv:
            row[j] -= q * row[i]
    g = GroupHom(FgAbGroup.free(a), FgAbGroup.free(b), tuple(map(tuple, abelian._mat_mul(T, G, a))))
    f = GroupHom(FgAbGroup.free(b), FgAbGroup.free(len(F)), tuple(map(tuple, abelian._mat_mul(F, Tinv, b))))
    return f, g


def _torsion_pair(rng, ends):
    """f∘g = 0 through the cokernel of g: f is a random hom out of coker(g)
    after the projection onto it."""
    g = _hom_between(rng, rng.choice(ends), rng.choice(ends))
    cok, proj = hom_cokernel(g)
    h = _hom_between(rng, cok, rng.choice(ends))
    return h.compose(proj), g


def test_kernel_and_homology_match_three_smith_forms():
    seed = differential_seed(19980301)
    rng = random.Random(seed)
    ends = [FgAbGroup.zero(), FgAbGroup.free(1), FgAbGroup.free(2), FgAbGroup.cyclic(2), FgAbGroup(1, (6,)),
            FgAbGroup(0, (2, 4)), FgAbGroup(2, (3,)), FgAbGroup(0, (3, 9, 9))]
    cases = [(_hom_between(rng, S, T), None) for S in ends for T in ends]
    cases += [(_random_hom(rng, rng.randrange(0, 4), rng.randrange(0, 4)), None) for _ in range(200)]
    cases += [_free_pair(rng) for _ in range(100)]
    cases += [_torsion_pair(rng, ends) for _ in range(200)]
    seen = set()
    for f, g in cases:
        denom = _columns(g.matrix, g.source.num_generators) if g else []
        want, want_gens = abelian_oracle.kernel(f, denom)
        assert homology(f, g) == want, f"seed {seed}: {f}, {g}"
        seen.add("zero" if want.is_zero() else "free" if not want.invariant_factors
                 else "torsion" if want.is_finite() else "mixed")
        if g is not None:
            continue
        ker, incl = hom_kernel(f)
        assert ker == want and incl.source == ker and incl.target == f.source, f"seed {seed}: {f}"
        ns, tgt = f.source.num_generators, f.target.generator_orders()
        gens = _columns(incl.matrix, ker.num_generators)
        rel = [[d if i == j else 0 for i in range(ns)] for j, d in enumerate(f.source.generator_orders())]
        for col in gens:
            assert not any(_apply(f.matrix, col, tgt)), f"seed {seed}: {f}"
        # a well-defined map onto a kernel of its own structure is an isomorphism
        for col in want_gens:
            assert _in_lattice(col, gens + rel, ns), f"seed {seed}: {f}"
    assert seen == {"zero", "free", "torsion", "mixed"}


def _with_row_added(rng, f, i):
    """f plus a random row φ on its target coordinate i, still a hom: φ_j·d_j
    is 0 modulo the order of coordinate i for each source order d_j."""
    e = f.target.generator_orders()[i]
    phi = [rng.randrange(-4, 5) if d == 0 else 0 if e == 0 else e // gcd(e, d) * rng.randrange(0, 4)
           for d in f.source.generator_orders()]
    rows = [list(row) for row in f.matrix]
    rows[i] = [a + b for a, b in zip(rows[i], phi)]
    return GroupHom(f.source, f.target, tuple(map(tuple, rows)))


def test_homology_refuses_a_composite_off_one_coordinate(monkeypatch):
    # (f + e_i·φ)∘g = e_i·(φ·g) for a pair with f∘g = 0: nonzero on a free
    # coordinate i, or on a torsion one whose order does not divide it, must
    # raise before any Smith form; zero, it must give the oracle's group
    seed = differential_seed(20261101)
    rng = random.Random(seed)
    ends = [FgAbGroup.free(1), FgAbGroup.free(2), FgAbGroup(1, (6,)), FgAbGroup(0, (2, 4)),
            FgAbGroup(2, (3,)), FgAbGroup(0, (3, 9, 9))]
    pairs = [_torsion_pair(rng, ends) for _ in range(200)] + [_free_pair(rng) for _ in range(100)]
    snf_calls = []
    snf = abelian._snf_ext
    monkeypatch.setattr(abelian, "_snf_ext", lambda M, **tracked: snf_calls.append(1) or snf(M, **tracked))
    seen = set()
    for f, g in pairs:
        i = rng.randrange(f.target.num_generators)
        f = _with_row_added(rng, f, i)
        tgt, gcols = f.target.generator_orders(), _columns(g.matrix, g.source.num_generators)
        fg = [_apply(f.matrix, col, tgt) for col in gcols]
        off = {j for col in fg for j, x in enumerate(col) if x}
        assert off <= {i}, f"seed {seed}: {f}, {g}"
        snf_calls.clear()
        if off:
            seen.add("torsion" if tgt[i] else "free")
            with pytest.raises(ValueError, match="^homology requires f∘g = 0$"):
                homology(f, g)
            assert not snf_calls, f"seed {seed}: {f}, {g}"
        else:
            seen.add("zero")
            assert homology(f, g) == abelian_oracle.kernel(f, gcols)[0], f"seed {seed}: {f}, {g}"
    assert seen == {"zero", "free", "torsion"}, f"seed {seed}"


def test_homology_matches_three_smith_forms_on_random_triples():
    # A --g--> B --f--> C with free and torsion parts: g through the inclusion
    # of ker f, f zero, g absent, and the zero group at every place
    seed = differential_seed(20261021)
    rng = random.Random(seed)
    zero = FgAbGroup.zero()

    def group():
        return zero if rng.random() < 0.15 else FgAbGroup.from_orders(
            [rng.choice(ORDERS + (0, 0)) for _ in range(rng.randrange(1, 5))])

    seen = set()
    for i in range(400):
        A, B, C = group(), group(), group()
        f = _hom_between(rng, B, C)
        if i % 4 == 0:
            f = GroupHom.from_columns(B, C, [[0] * C.num_generators] * B.num_generators)
        if i % 5 == 0:
            g = None
        elif i % 4 == 0:
            g = _hom_between(rng, A, B)
        else:
            ker, incl = hom_kernel(f)
            g = incl.compose(_hom_between(rng, A, ker))
        denom = _columns(g.matrix, A.num_generators) if g else []
        want = abelian_oracle.kernel(f, denom)[0]
        assert homology(f, g) == want, f"seed {seed}: {f}, {g}"
        seen.add("zero" if want.is_zero() else "free" if not want.invariant_factors
                 else "torsion" if want.is_finite() else "mixed")
    assert seen == {"zero", "free", "torsion", "mixed"}, f"seed {seed}"


def _apply(matrix, vec, orders):
    return [(x % d if d else x) for x, d in
            zip((sum(a * v for a, v in zip(row, vec)) for row in matrix), orders)]


def _columns(matrix, n):
    return [[row[j] for row in matrix] for j in range(n)]


def test_hom_layer_on_every_shape():
    rng = random.Random(differential_seed(20261020))
    zero, z = FgAbGroup.zero(), FgAbGroup.free(1)
    sources = [zero, z, FgAbGroup.free(2), FgAbGroup.cyclic(2), FgAbGroup(1, (6,))]
    homs = [GroupHom.from_columns(S, FgAbGroup.free(n), [[0] * n] * S.num_generators)
            for n in (1, 2, 3) for S in sources]
    ends = sources + [FgAbGroup(0, (2, 4)), FgAbGroup(2, (3,))]
    homs += [GroupHom.from_columns(zero, T, []) for T in ends]
    homs += [GroupHom.from_columns(S, zero, [[]] * S.num_generators) for S in ends]
    homs += [_random_hom(rng, rng.randrange(0, 4), rng.randrange(1, 4), ORDERS[1:]) for _ in range(100)]
    homs += [_random_hom(rng, rng.randrange(1, 4), rng.randrange(1, 4)) for _ in range(200)]
    for f in homs:
        src, tgt = f.source.generator_orders(), f.target.generator_orders()
        (ker, incl), (cok, proj) = hom_kernel(f), hom_cokernel(f)
        assert cokernel(f) == cok and homology(f) == ker, f
        assert incl.source == ker and incl.target == f.source, f
        assert proj.source == f.target and proj.target == cok, f
        for col in _columns(incl.matrix, ker.num_generators):
            assert not any(_apply(f.matrix, col, tgt)), f
        for col in _columns(f.matrix, len(src)):
            assert not any(_apply(proj.matrix, col, cok.generator_orders())), f
        # onto: every generator of the cokernel is an image, modulo its relations
        k = cok.num_generators
        spans = _columns(proj.matrix, len(tgt)) + [
            [d if i == j else 0 for i in range(k)] for j, d in enumerate(cok.generator_orders())]
        for j in range(k):
            assert _in_lattice([int(i == j) for i in range(k)], spans, k), f
        if f.source.is_finite() and f.target.is_finite():
            assert ker.order() * f.target.order() == f.source.order() * cok.order(), f
