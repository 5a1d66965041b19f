"""End-to-end acceptance suite: every headline group identity the toolkit
is responsible for, checked at zero tolerance (structural equality of
normal forms), plus the cross-cutting property suites."""

import json
import os
import random

import pytest

from brauerkit import data_dir
from brauerkit.abelian import (
    ExtensionWitness,
    FgAbGroup,
    smith_normal_form,
)
from brauerkit.charp import (
    TruncatedCharPModule,
    operator_cokernel_basis,
    operator_kernel,
    parse_operator,
    punctured_affine_cohomology,
)
from brauerkit.cyccoh import group_cohomology, sign, trivial
from brauerkit.kofam import (
    SHIPPED_RINGS,
    ku_additive_d3_rules,
    ku_additive_pages,
    lbr_ko,
    pic_ko,
)
from brauerkit.numbrauer import PlaceSpec, brauer_laurent, brauer_localized_integers
from brauerkit.ssengine import assemble_abutment
from brauerkit.tmffam import (
    TmfPageData,
    lbr_m_o,
    lbr_tmf,
    pic_tmf_c4inv,
    pic_tmf_global,
    run_pic_tmf,
)
from lbr_ko_covers import lbr_ko_splitting_check
from numbrauer_oracle import brute_force_invariant_kernel_order

Z2 = FgAbGroup.cyclic(2)


# ---------------------------------------------------------------------------
# 1. Pic(KO_R)
# ---------------------------------------------------------------------------


def test_criterion_1_pic_ko_z():
    assert pic_ko(SHIPPED_RINGS["Z"]).group.same_structure(FgAbGroup.cyclic(8))


def test_criterion_1_pic_ko_residue_degrees_1_1():
    got = pic_ko(SHIPPED_RINGS["Z[w][1/17]"]).group
    assert got.same_structure(FgAbGroup.from_orders([8, 2]))


def test_criterion_1_pic_ko_two_inverted():
    got = pic_ko(SHIPPED_RINGS["Z[1/2,zeta4]"]).group
    assert got.same_structure(FgAbGroup.cyclic(4))


# ---------------------------------------------------------------------------
# 2. LBr(KO)
# ---------------------------------------------------------------------------


def test_criterion_2_lbr_ko_is_z2():
    rep = lbr_ko()
    assert rep.exact and rep.lbr.same_structure(Z2)


def test_criterion_2_splitting_check():
    rep = lbr_ko_splitting_check([SHIPPED_RINGS["Z[1/2,zeta4]"],
                                  SHIPPED_RINGS["Z[1/3,zeta3]"]])
    assert rep.splits is True


# ---------------------------------------------------------------------------
# 3. Brauer groups of number-ring localizations
# ---------------------------------------------------------------------------


def test_criterion_3_br_z_is_zero():
    assert brauer_localized_integers([PlaceSpec("real")]).is_zero()


def test_criterion_3_br_z_one_sixth():
    desc = brauer_localized_integers([
        PlaceSpec("real"), PlaceSpec("finite", "2"), PlaceSpec("finite", "3")])
    assert desc.qz_copies == 1
    assert desc.finite_part.same_structure(Z2)
    assert str(desc) == "Q/Z ⊕ Z/2"


def test_criterion_3_cyclotomic_single_place():
    # a totally imaginary field with a single finite place inverted
    assert brauer_localized_integers([PlaceSpec("finite", "17")]).is_zero()


def test_criterion_3_kernel_formula_vs_brute_force():
    for n in range(1, 13):
        for m in range(0, 4):
            for r in range(0, 3):
                places = [PlaceSpec("finite", str(100 + i)) for i in range(m)]
                places += [PlaceSpec("real") for _ in range(r)]
                formula = brauer_localized_integers(places).n_torsion(n).order()
                brute = brute_force_invariant_kernel_order(n, m, r)
                assert formula == brute, (n, m, r)


# ---------------------------------------------------------------------------
# 4. Brauer group of the Laurent ring
# ---------------------------------------------------------------------------


def test_criterion_4_br_laurent_z_is_zero():
    assert brauer_laurent([PlaceSpec("real")], set()).is_zero()


# ---------------------------------------------------------------------------
# 5. Artin-Schreier suite, against exhaustive row reduction
# ---------------------------------------------------------------------------


def _image_contains(op, module, target_poly):
    """Exhaustive F_p row reduction: is the polynomial (a degree->coeff map) hit?"""
    p = module.p
    degrees = list(module.degrees())
    out_degrees = sorted({k + d * p ** e for d in degrees for _, k, e in op.terms})
    row = {d: i for i, d in enumerate(out_degrees)}
    cols = []
    for d in degrees:
        v = [0] * len(out_degrees)
        for c, k, e in op.terms:
            v[row[k + d * p ** e]] = (v[row[k + d * p ** e]] + c) % p
        cols.append(v)
    if any(d not in row for d in target_poly):
        return False
    rhs = [0] * len(out_degrees)
    for d, c in target_poly.items():
        rhs[row[d]] = c % p
    # Gaussian elimination on the augmented system over F_p
    aug = [list(col) for col in cols]
    n_rows = len(out_degrees)
    pivots = {}
    for ci in range(len(aug)):
        col = aug[ci]
        piv = next((i for i in range(n_rows) if col[i] % p and i not in pivots), None)
        if piv is None:
            continue
        inv = pow(col[piv], -1, p)
        aug[ci] = [(x * inv) % p for x in col]
        for cj in range(len(aug)):
            if cj != ci and aug[cj][piv] % p:
                f = aug[cj][piv]
                aug[cj] = [(a - f * b) % p for a, b in zip(aug[cj], aug[ci])]
        if rhs[piv] % p:
            f = rhs[piv]
            rhs = [(a - f * b) % p for a, b in zip(rhs, aug[ci])]
        pivots[piv] = ci
    return all(x % p == 0 for x in rhs)


def _brute_force_kernel(op, module):
    """All kernel polynomials by exhaustive enumeration over small windows."""
    p = module.p
    degrees = list(module.degrees())
    sols = []
    # enumerate all p^len(degrees) vectors only for tiny windows
    assert len(degrees) <= 12
    for mask in range(p ** len(degrees)):
        coeffs, m = [], mask
        for _ in degrees:
            coeffs.append(m % p)
            m //= p
        if not any(coeffs):
            continue
        out = {}
        for d, c0 in zip(degrees, coeffs):
            if not c0:
                continue
            for c, k, e in op.terms:
                key = k + d * p ** e
                out[key] = (out.get(key, 0) + c0 ** (p ** e) * c) % p
        if all(v == 0 for v in out.values()):
            sols.append(tuple((d, c) for d, c in zip(degrees, coeffs) if c))
    return sorted(sols)


def test_criterion_5_kernel_x_plus_x2_polynomial():
    op = parse_operator("x + x^2", 2)
    m = TruncatedCharPModule(2, (0, 8))
    basis, _ = operator_kernel(op, m)
    assert basis == [((0, 1),)]  # the constants: a Z/2
    assert _brute_force_kernel(op, m) == [((0, 1),)]


def test_criterion_5_kernel_x_plus_jx2_laurent():
    op = parse_operator("x + j*x^2", 2)
    m = TruncatedCharPModule(2, (-5, 5), laurent=True)
    basis, _ = operator_kernel(op, m)
    assert basis == [((-1, 1),)]  # {0, j^-1}
    assert _brute_force_kernel(op, m) == [((-1, 1),)]


def test_criterion_5_kernel_z_minus_z3_over_f3():
    op = parse_operator("x + 2*x^3", 3)  # z - z^3 in characteristic 3
    m = TruncatedCharPModule(3, (0, 0))
    basis, _ = operator_kernel(op, m)
    assert len(basis) == 1  # one F_3-line of constants: kernel Z/3
    assert basis == [((0, 1),), ]
    brute = _brute_force_kernel(op, m)
    assert len(brute) == 2  # the two nonzero constants


def test_criterion_5_cokernel_even_monomials():
    op = parse_operator("x + j*x^2", 2)
    m = TruncatedCharPModule(2, (0, 32))
    basis, prefix = operator_cokernel_basis(op, m)
    evens = [d for d in range(2, prefix + 1, 2)]
    assert evens and set(evens) <= set(basis)
    # exhaustive row-reduction oracle: no even monomial lies in the image
    for d in evens:
        assert not _image_contains(op, m, {d: 1})
    # ... while the oracle does recognize genuine image elements
    assert _image_contains(op, m, {0: 1, 1: 1})  # op(1) = 1 + j
    assert _image_contains(op, m, {1: 1, 3: 1})  # op(j) = j + j^3


# ---------------------------------------------------------------------------
# 6. Punctured affine space
# ---------------------------------------------------------------------------


def test_criterion_6_h3_of_punctured_a4():
    got = punctured_affine_cohomology(4, 7)
    assert got.degree == 3
    assert got.basis  # nonempty within the window
    for vec in got.basis:
        assert len(vec) == 4 and all(e <= -1 for e in vec)
    # completeness: every all-negative vector in the window appears
    expected = set()
    for a in range(-4, 0):
        for b in range(-4, 0):
            for c in range(-4, 0):
                for d in range(-4, 0):
                    if a + b + c + d >= -7:
                        expected.add((a, b, c, d))
    assert expected <= set(got.basis)


def test_criterion_6_punctured_a1_is_affine():
    got = punctured_affine_cohomology(1, 8)
    assert got.affine and got.basis == ()


# ---------------------------------------------------------------------------
# 7. the Picard sheaf filtration of TMF
# ---------------------------------------------------------------------------


def test_criterion_7_run_pic_tmf_items_0_to_7():
    stages = run_pic_tmf(TmfPageData.load())
    rows = {}
    for g in stages:
        rows.setdefault(g.s, []).append(g)
    assert set(rows) == {0, 1, 3, 5, 7}  # gr^{>7} = 0 and gr^2=gr^4=gr^6=0
    assert rows[0][0].display().startswith("Z/2")
    assert rows[1][0].symbol.__class__.__name__ == "R1jGm"
    assert rows[3][0].symbol.__class__.__name__ == "KStarVShriek"
    fives = {g.local: g for g in rows[5]}
    assert fives[2].symbol.__class__.__name__ == "SheafExtension"
    assert fives[3].symbol.group.same_structure(FgAbGroup.cyclic(3))
    assert rows[7][0].symbol.canonical_name == "O/(2,j)"


# ---------------------------------------------------------------------------
# 8. Pic(TMF) localizations
# ---------------------------------------------------------------------------


def test_criterion_8_pic_tmf_global():
    out = pic_tmf_global(TmfPageData.load())
    assert out[2].same_structure(FgAbGroup.cyclic(64))
    assert out[3].same_structure(FgAbGroup.cyclic(9))


def test_criterion_8_pic_tmf_c4inv():
    assert pic_tmf_c4inv(TmfPageData.load()).same_structure(FgAbGroup.from_orders([2, 8]))


# ---------------------------------------------------------------------------
# 9. local Brauer groups of TMF and the sheaf-level theory
# ---------------------------------------------------------------------------


def test_criterion_9_lbr_tmf():
    rep = lbr_tmf(32)
    assert rep.three_torsion.same_structure(FgAbGroup.cyclic(3))
    assert rep.p_gt_3_torsion.is_zero()
    assert rep.two_local_basis[:3] == ("j^2", "j^4", "j^6")
    assert rep.certified_prefix == 32


def test_criterion_9_lbr_mo():
    rep = lbr_m_o(32)
    assert rep.two_local_kernel_order == 8
    assert rep.three_local.same_structure(lbr_tmf(32).three_torsion)
    assert rep.iso_after_inverting_2


# ---------------------------------------------------------------------------
# 10. property suites
# ---------------------------------------------------------------------------


def test_criterion_10_snf_identities_1000_random_matrices():
    rng = random.Random(0)
    for _ in range(1000):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(m)
        # U*M*V == D
        um = [[sum(u[i][k] * m[k][j] for k in range(rows)) for j in range(cols)]
              for i in range(rows)]
        umv = [[sum(um[i][k] * v[k][j] for k in range(cols)) for j in range(cols)]
               for i in range(rows)]
        assert umv == d
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a != 0 and b % a == 0
        assert all(x >= 0 for x in diag)


def test_criterion_10_cyclic_cohomology_two_periodicity():
    for orders in ([2], [0], [4, 6], [0, 3]):
        g = FgAbGroup.from_orders(orders)
        for mod in (trivial(g), sign(g)):
            for s in range(1, 6):
                assert group_cohomology(mod, s).same_structure(
                    group_cohomology(mod, s + 2))


def test_criterion_10_d_squared_zero_all_shipped_rule_tables():
    # additive KU rules: no rule's target coincides with another rule's source
    e3 = ku_additive_pages(SHIPPED_RINGS["Z"])[1]
    rules = ku_additive_d3_rules(e3)
    sources = {r.source for r in rules}
    for rule in rules:
        s, t = rule.source
        assert (s + rule.r, t + rule.r - 1) not in sources
    # curated rule table: distinct (r, source) pairs, so no composable pair
    with open(os.path.join(data_dir(), "tmf_pages.json")) as fh:
        curated = json.load(fh)
    seen = set()
    for rule in curated["special_rules"]:
        key = (rule["r"], rule["s"], rule["t"], rule.get("local", 0))
        assert key not in seen
        seen.add(key)
        target = (rule["r"], rule["s"] + rule["r"], rule["t"] + rule["r"] - 1,
                  rule.get("local", 0))
        assert target not in seen


def test_criterion_10_filtration_orders_multiply_to_abutment_order():
    examples = [
        ([(0, Z2), (1, Z2), (3, Z2)], ExtensionWitness(8, True)),
        ([(0, FgAbGroup.cyclic(3)), (1, FgAbGroup.cyclic(3))], ExtensionWitness(9, True)),
        ([(0, FgAbGroup.cyclic(4))], ExtensionWitness(4, True)),
    ]
    for gr, witness in examples:
        total = assemble_abutment(gr, witness)
        product = 1
        for _, g in gr:
            product *= g.order()
        assert total.order() == product
    # the shipped KO runs satisfy the same identity
    for r in SHIPPED_RINGS.values():
        res = pic_ko(r)
        product = 1
        for _, g in res.graded:
            product *= g.order()
        assert res.sections.order() == product


def test_criterion_10_window_doubling_stability():
    cases = [
        ("x + x^2", 2, False),
        ("x + j*x^2", 2, False),
        ("x + j*x^2", 2, True),
        ("x + 2*x^3", 3, False),
    ]
    for text, p, laurent in cases:
        op = parse_operator(text, p)
        for window in (8, 16):
            w1 = (-window, window) if laurent else (0, window)
            w2 = (-2 * window, 2 * window) if laurent else (0, 2 * window)
            m1 = TruncatedCharPModule(p, w1, laurent=laurent)
            m2 = TruncatedCharPModule(p, w2, laurent=laurent)
            k1, _ = operator_kernel(op, m1)
            k2, _ = operator_kernel(op, m2)
            assert k1 == k2
            c1, prefix1 = operator_cokernel_basis(op, m1)
            c2, _ = operator_cokernel_basis(op, m2)
            assert c1 == [d for d in c2 if d <= prefix1]
