import itertools
import math
import random
import time

import pytest

from seeds import differential_seed
from brauerkit import charp
from brauerkit.charp import (
    PuncturedAffineCohomology,
    SemilinearOperator,
    TruncatedCharPModule,
    operator_cokernel_basis,
    operator_kernel,
    parse_operator,
    punctured_affine_cohomology,
)
from brauerkit.errors import WindowTooSmall


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def apply_op(op, poly, p):
    """poly is a dict degree -> coeff; returns op(poly) exactly."""
    out = {}
    for c, k, e in op.terms:
        q = p ** e
        for d, a in poly.items():
            deg = k + d * q
            out[deg] = (out.get(deg, 0) + c * a) % p
    return {d: a for d, a in out.items() if a}

def exhaustive_kernel(op, degrees, p):
    """Brute force over all window polynomials (small windows only)."""
    kernel = []
    for coeffs in itertools.product(range(p), repeat=len(degrees)):
        poly = {d: c for d, c in zip(degrees, coeffs) if c}
        if not apply_op(op, poly, p):
            kernel.append(poly)
    return kernel


def in_image(op, target, degrees, p):
    for coeffs in itertools.product(range(p), repeat=len(degrees)):
        poly = {d: c for d, c in zip(degrees, coeffs) if c}
        if apply_op(op, poly, p) == target:
            return True
    return False


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_operators():
    op = parse_operator("x + j*x^2", 2)
    assert op.terms == ((1, 0, 0), (1, 1, 1))
    op = parse_operator("x - x^3", 3)
    assert op.terms == ((1, 0, 0), (2, 0, 1))
    op = parse_operator("x + x^2", 2)
    assert op.terms == ((1, 0, 0), (1, 0, 1))
    op = parse_operator("j^-1*x + x^4", 2)
    assert op.terms == ((1, -1, 0), (1, 0, 2))


def test_parse_rejects_non_frobenius_power():
    with pytest.raises(ValueError):
        parse_operator("x^5", 2)
    with pytest.raises(ValueError):
        parse_operator("", 2)


def test_parse_refuses_a_dangling_sign():
    # a trailing '+' was once dropped, so "x +" parsed as x while "x -" was refused
    for text in ("x+", "x + ", "x + j*x^2 +", "x-", "x - ", "x + + j*x^2"):
        with pytest.raises(ValueError, match=r"^cannot parse operator term ''$"):
            parse_operator(text, 2)


def test_parse_rejects_zero_exponent_and_other_variables():
    with pytest.raises(ValueError, match="exponent 0"):
        parse_operator("x^0 + x^2", 2)
    with pytest.raises(ValueError, match="'y'"):
        parse_operator("y + j*y^2", 2)
    with pytest.raises(ValueError):
        parse_operator("x + j*z^2", 2)


@pytest.mark.parametrize("p", [0, 5])
def test_parse_refuses_other_characteristics_before_the_exponents(p):
    # p = 5 once read as "exponent 2 is not a power of 5", p = 0 as ZeroDivisionError
    with pytest.raises(ValueError, match="only characteristics 2 and 3 are supported"):
        parse_operator("x + j*x^2", p)


def test_module_window_is_two_degrees():
    for window in ((0,), (), (0, 4, 8)):
        with pytest.raises(ValueError, match="'window' must be two degrees"):
            TruncatedCharPModule(2, window)


def test_operator_str_roundtrip():
    op = parse_operator("x + j*x^2", 2)
    assert parse_operator(str(op), 2).terms == op.terms


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_kernel_x_plus_x2_constants():
    op = parse_operator("x + x^2", 2)
    m = TruncatedCharPModule(2, (0, 16))
    basis, stabilized = operator_kernel(op, m)
    assert stabilized
    assert basis == [((0, 1),)]  # the constant 1; kernel of order 2


def test_kernel_x_plus_jx2_laurent():
    op = parse_operator("x + j*x^2", 2)
    m = TruncatedCharPModule(2, (-8, 16), laurent=True)
    basis, stabilized = operator_kernel(op, m)
    assert stabilized
    assert basis == [((-1, 1),)]  # x = 1/j


def test_kernel_z_minus_z3_residue_field():
    op = parse_operator("x - x^3", 3)  # z - z^3; operators are written in x
    m = TruncatedCharPModule(3, (0, 0))
    basis, stabilized = operator_kernel(op, m)
    assert stabilized
    assert basis == [((0, 1),)]  # constants: kernel has 3 elements


def test_kernel_x_plus_jx2_polynomial_empty():
    op = parse_operator("x + j*x^2", 2)
    m = TruncatedCharPModule(2, (0, 16))
    basis, stabilized = operator_kernel(op, m)
    assert stabilized
    assert basis == []


def test_kernels_match_brute_force():
    cases = [
        ("x + x^2", 2, TruncatedCharPModule(2, (0, 8))),
        ("x + j*x^2", 2, TruncatedCharPModule(2, (-4, 8), laurent=True)),
        ("x - x^3", 3, TruncatedCharPModule(3, (0, 4))),
        ("x + j^2*x^2", 2, TruncatedCharPModule(2, (-4, 8), laurent=True)),
    ]
    for text, p, m in cases:
        op = parse_operator(text, p)
        basis, _ = operator_kernel(op, m)
        # brute force over a small subwindow containing the certified region
        lo, hi = m.window
        degs = list(range(lo, min(hi, lo + 8) + 1))
        brute = exhaustive_kernel(op, degs, p)
        assert len(brute) == p ** len(basis)
        for vec in basis:
            assert not apply_op(op, dict(vec), p)


def test_artin_schreier_prime_field_count():
    # x - x^q on F_q itself has exactly q kernel elements
    for p in (2, 3):
        op = parse_operator(f"x - x^{p}", p)
        basis, _ = operator_kernel(op, TruncatedCharPModule(p, (0, 4)))
        assert p ** len(basis) == p


def test_module_over_the_degree_bound_is_refused():
    # 513 degrees: a polynomial window of 512 or a Laurent one of ±256
    for window, laurent in (((0, 512), False), ((-256, 256), True), ((-12, 500), True)):
        assert len(TruncatedCharPModule(2, window, laurent=laurent).degrees()) == 513
    for window, laurent in (((0, 513), False), ((-256, 257), True), ((-10 ** 12, 10 ** 12), True)):
        with pytest.raises(ValueError, match="degrees, over the bound of 513"):
            TruncatedCharPModule(3, window, laurent=laurent)


def test_window_too_small_raises(capsys):
    from brauerkit.cli import main
    op = parse_operator("x + j*x^2", 2)
    for fn in (operator_kernel, operator_cokernel_basis):
        with pytest.raises(WindowTooSmall, match=r"region \[-1,-1\] exceeds window \[0,0\]"):
            fn(op, TruncatedCharPModule(2, (0, 0), laurent=True))
        with pytest.raises(ValueError, match="characteristics differ"):
            fn(op, TruncatedCharPModule(3, (0, 8)))
    assert main(["artin-schreier", "--p", "2", "--op", "x + j*x^2", "--laurent",
                 "--window", "0", "--cokernel"]) == 3
    assert "exceeds window" in capsys.readouterr().err


def test_polynomial_module_refuses_a_negative_power_of_j(capsys):
    # j^-1*x + x^2 sends 1 to j^-1 + 1, outside F_2[j]; the cokernel was
    # once reported as j, j^3, j^5, j^7
    from brauerkit.cli import main
    op = parse_operator("j^-1*x + x^2", 2)
    for fn in (operator_kernel, operator_cokernel_basis):
        with pytest.raises(ValueError, match=r"operator term 'j\^-1\*x' has a negative power of j"):
            fn(op, TruncatedCharPModule(2, (0, 8)))
        fn(op, TruncatedCharPModule(2, (-8, 8), laurent=True))
    assert main(["artin-schreier", "--p", "2", "--op", "j^-1*x + x^2", "--window", "8",
                 "--cokernel"]) == 2
    assert "operator term 'j^-1*x' has a negative power of j" in capsys.readouterr().err


def test_rank_nullity():
    from brauerkit.charp import _kernel_basis_fp, _operator_matrix
    for text, p, m in [("x + x^2", 2, TruncatedCharPModule(2, (0, 12))),
                       ("x + j*x^2 + j^2*x^4", 2, TruncatedCharPModule(2, (-6, 6), laurent=True)),
                       ("x - x^3", 3, TruncatedCharPModule(3, (0, 6)))]:
        op = parse_operator(text, p)
        degrees = list(m.degrees())
        cols, _ = _operator_matrix(op, degrees)
        kernel = _kernel_basis_fp(cols, p)
        # the F_p span of the columns, enumerated: it has p^rank elements
        span = {(0,) * len(cols[0])}
        for col in cols:
            span = {tuple((v + a * c) % p for v, c in zip(vec, col))
                    for vec in span for a in range(p)}
        rank = round(math.log(len(span), p))
        assert len(span) == p ** rank
        assert len(kernel) == len(degrees) - rank
        assert len(operator_kernel(op, m)[0]) == len(degrees) - rank


def _dense_f2(op, degrees):
    """What `_reduce_f2` returns, from the dense F_p path that p = 3 runs."""
    cols, out_degrees = charp._operator_matrix(op, degrees)
    kernel = [tuple((degrees[i], c) for i, c in enumerate(v) if c)
              for v in charp._kernel_basis_fp(cols, 2)]
    return kernel, {out_degrees[r] for r in charp._echelon_tops(cols, 2)}


def test_f2_reduction_matches_the_dense_path(monkeypatch):
    # polynomial and Laurent windows [lo, lo + w] with 4 <= w <= 40, operators
    # of 1-4 terms j^k*x^(2^e) with e <= 2 and k >= 0 on polynomial modules
    seed = differential_seed(20261022)
    rng = random.Random(seed)
    cases = []
    while len(cases) < 300:
        laurent = rng.random() < 0.5
        width = rng.randint(4, 40)
        lo = -rng.randint(1, width - 1) if laurent else 0
        m = TruncatedCharPModule(2, (lo, lo + width), laurent=laurent)
        terms = [(1, rng.randint(-4 if laurent else 0, 4), rng.randint(0, 2))
                 for _ in range(rng.randint(1, 4))]
        try:
            op = SemilinearOperator(2, tuple(terms))
            sparse = operator_kernel(op, m), operator_cokernel_basis(op, m)
        except (ValueError, WindowTooSmall):  # the terms cancel, or the window is too small
            continue
        degrees = list(m.degrees())
        assert charp._reduce_f2(op, degrees) == _dense_f2(op, degrees), f"seed {seed}: {op} on {m}"
        cases.append((op, m, sparse))
    # the draws above have kernels of rank 0 or 1, where any basis is the RREF
    # one; x^4 + (u^2 + uv + v^2)*x^2 + uv(u + v)*x has the kernel span{u, v}
    for text, window, laurent, kernel in (
            ("x^4 + x^2 + j^3*x^2 + j^4*x^2 + j^2*x + j^5*x", (0, 24), False,
             [((0, 1), (1, 1)), ((2, 1),)]),  # u = 1 + j, v = j^2
            ("x^4 + j^-2*x^2 + x^2 + j^2*x^2 + j*x + j^-1*x", (-12, 12), True,
             [((-1, 1),), ((1, 1),)])):  # u = j^-1, v = j
        op, m = parse_operator(text, 2), TruncatedCharPModule(2, window, laurent=laurent)
        sparse = operator_kernel(op, m), operator_cokernel_basis(op, m)
        assert sparse[0] == (kernel, True)
        assert charp._reduce_f2(op, list(m.degrees())) == _dense_f2(op, list(m.degrees()))
        cases.append((op, m, sparse))
    assert {m.laurent for _, m, _ in cases} == {False, True}
    monkeypatch.setattr(charp, "_reduce_f2", _dense_f2)
    for op, m, sparse in cases:
        assert (operator_kernel(op, m), operator_cokernel_basis(op, m)) == sparse, f"seed {seed}: {op} on {m}"


def test_f2_kernel_and_cokernel_at_the_degree_bound_take_under_a_second():
    # x + j*x^2 on the largest modules, a polynomial window of 512 and a
    # Laurent one of ±256, where the dense O(w^3) elimination takes seconds
    op = parse_operator("x + j*x^2", 2)
    start = time.perf_counter()
    poly = TruncatedCharPModule(2, (0, 512))
    laurent = TruncatedCharPModule(2, (-256, 256), laurent=True)
    results = [(operator_kernel(op, m), operator_cokernel_basis(op, m)) for m in (poly, laurent)]
    assert time.perf_counter() - start < 1.0
    assert results[0] == (([], True), (list(range(0, 513, 2)), 512))
    assert results[1][0] == ([((-1, 1),)], True)


def test_kernel_window_doubling_stable():
    cases = [
        ("x + x^2", 2, TruncatedCharPModule(2, (0, 16))),
        ("x + j*x^2", 2, TruncatedCharPModule(2, (-8, 16), laurent=True)),
        ("x - x^3", 3, TruncatedCharPModule(3, (0, 8))),
    ]
    for text, p, m in cases:
        op = parse_operator(text, p)
        b1, _ = operator_kernel(op, m)
        lo, hi = m.window
        doubled = TruncatedCharPModule(p, (lo - hi if m.laurent else 0, 2 * hi), m.laurent)
        b2, _ = operator_kernel(op, doubled)
        assert b1 == b2


# ---------------------------------------------------------------------------
# cokernels
# ---------------------------------------------------------------------------


def test_cokernel_x_plus_jx2_even_monomials():
    op = parse_operator("x + j*x^2", 2)
    basis, prefix = operator_cokernel_basis(op, TruncatedCharPModule(2, (0, 32)))
    assert prefix == 32
    assert basis == [d for d in range(0, 33) if d % 2 == 0]
    # j^2, j^4, ... are genuinely not in the image (top-degree parity):
    assert {2, 4, 6, 8} <= set(basis)


def test_cokernel_x_plus_x2():
    op = parse_operator("x + x^2", 2)
    basis, prefix = operator_cokernel_basis(op, TruncatedCharPModule(2, (0, 16)))
    assert prefix == 16
    assert basis == [0] + [d for d in range(1, 17) if d % 2 == 1]


def test_cokernel_identity_empty():
    op = parse_operator("x", 2)
    basis, prefix = operator_cokernel_basis(op, TruncatedCharPModule(2, (0, 10)))
    assert basis == []
    assert prefix == 10


def test_cokernel_matches_brute_force():
    # every reported representative is outside the image; window small enough
    # for exhaustive search
    op = parse_operator("x + j*x^2", 2)
    m = TruncatedCharPModule(2, (0, 8))
    basis, prefix = operator_cokernel_basis(op, m)
    degs = list(m.degrees())
    for d in basis:
        assert not in_image(op, {d: 1}, degs, 2)


def test_cokernel_window_doubling_stable():
    op = parse_operator("x + j*x^2", 2)
    b1, p1 = operator_cokernel_basis(op, TruncatedCharPModule(2, (0, 16)))
    b2, p2 = operator_cokernel_basis(op, TruncatedCharPModule(2, (0, 32)))
    assert p2 >= p1
    assert [d for d in b2 if d <= p1] == b1


def test_cokernel_over_the_degree_bound_is_refused():
    # j^k*x on a window of 16 certifies the degrees [0, k + 16]
    m = TruncatedCharPModule(2, (0, 16))
    basis, prefix = operator_cokernel_basis(parse_operator("j^99983*x", 2), m)
    assert prefix == 99_999 and len(basis) == 100_000 - 17
    with pytest.raises(ValueError, match=r"^the certified cokernel \[0, 100000\] has 100001 degrees, "
                                         r"over the bound of 100000$"):
        operator_cokernel_basis(parse_operator("j^99984*x", 2), m)
    # a Laurent window certifies down to low_cut as well
    with pytest.raises(ValueError, match=r"\[-131071, 131071\] has 262143 degrees"):
        operator_cokernel_basis(parse_operator("x^65536", 2), TruncatedCharPModule(2, (-1, 1), laurent=True))


# ---------------------------------------------------------------------------
# punctured affine space
# ---------------------------------------------------------------------------


def cech_top_cohomology_dim(n, multidegree):
    """Exact top Cech cohomology at one multidegree on the standard cover.

    The degree-(n-1) term is the full Laurent ring (always contains the
    multidegree); the degree-(n-2) terms omit one variable from the cover and
    require that exponent to be nonnegative.  The top cohomology at the
    multidegree is 1 - rank(differential) with a one-dimensional target.
    """
    sources = [i for i in range(n) if multidegree[i] >= 0]
    # each source maps isomorphically onto the target; cokernel is nonzero
    # exactly when there are no sources
    return 0 if sources else 1


def test_cech_n4_all_negative():
    ans = punctured_affine_cohomology(4, 6)
    assert ans.degree == 3
    assert all(all(a <= -1 for a in mono) for mono in ans.basis)
    assert (-1, -1, -1, -1) in ans.basis
    assert (-2, -1, -1, -2) in ans.basis
    expected = {mono for mono in itertools.product(range(-3, 0), repeat=4)
                if -6 <= sum(mono)}
    assert set(ans.basis) == expected


def test_cech_n1_affine():
    ans = punctured_affine_cohomology(1, 4)
    assert ans.affine
    assert ans.basis == ()


def test_cech_n2_window4():
    ans = punctured_affine_cohomology(2, 4)
    got = list(ans.basis)
    assert got[:3] == [(-1, -1), (-2, -1), (-1, -2)]
    assert set(got) == {(a, b) for a in range(-3, 0) for b in range(-3, 0) if a + b >= -4}


def test_cech_against_alternating_sum_oracle():
    # explicit Cech kernel/image computation on the cover, multidegree by
    # multidegree, for n = 2 and n = 3
    for n, window in [(2, 5), (3, 5)]:
        ans = punctured_affine_cohomology(n, window)
        reported = set(ans.basis)
        for multidegree in itertools.product(range(-window, 3), repeat=n):
            if not (-window <= sum(multidegree)):
                continue
            dim = cech_top_cohomology_dim(n, multidegree)
            assert (multidegree in reported) == (dim == 1)
