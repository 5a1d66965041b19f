import pytest

from brauerkit.abelian import FgAbGroup
from brauerkit.numbrauer import (
    DivisibleGroupDescriptor,
    PlaceSpec,
    brauer_laurent,
    brauer_localized_integers,
    h1_qz,
    h1_qz_report,
    places_from_json,
)
from numbrauer_oracle import brute_force_invariant_kernel_order

REAL = PlaceSpec("real")
COMPLEX = PlaceSpec("complex")


def finite(p):
    return PlaceSpec("finite", str(p))


def zero():
    return DivisibleGroupDescriptor.zero()


def contains_summand(big: DivisibleGroupDescriptor, small: DivisibleGroupDescriptor) -> bool:
    """Componentwise comparison: is `small` a direct summand of `big`?
    (Finite parts compare by invariant factors.)"""
    if small.qz_copies > big.qz_copies or (small.infinite_f2 and not big.infinite_f2):
        return False
    primes = list(big.qpzp_primes)
    factors = list(big.finite_part.invariant_factors)
    for pool, wanted in ((primes, small.qpzp_primes),
                         (factors, small.finite_part.invariant_factors)):
        for x in wanted:
            if x not in pool:
                return False
            pool.remove(x)
    return small.finite_part.free_rank <= big.finite_part.free_rank


# ---------------------------------------------------------------------------
# places and descriptors
# ---------------------------------------------------------------------------


def test_place_local_brauer_tags():
    assert finite(2).local_brauer == "full"
    assert REAL.local_brauer == "half"
    assert COMPLEX.local_brauer == "zero"
    with pytest.raises(ValueError):
        PlaceSpec("padic")
    with pytest.raises(ValueError):
        PlaceSpec("finite")


def test_places_json():
    got = places_from_json('{"places": [{"kind":"finite","label":"2"},{"kind":"real"}]}')
    assert got == [finite(2), REAL]


def test_descriptor_display_and_json():
    d = DivisibleGroupDescriptor(1, (2,), FgAbGroup.cyclic(2))
    assert str(d) == "Q/Z ⊕ Q_2/Z_2 ⊕ Z/2"
    assert str(zero()) == "0"
    assert d.to_json() == {"qz_copies": 1, "qpzp_primes": [2], "infinite_f2": False,
                           "finite_part": {"free_rank": 0, "factors": [2]}}


def test_descriptor_n_torsion():
    d = DivisibleGroupDescriptor(2, (2, 3), FgAbGroup.cyclic(2))
    t = d.n_torsion(6)
    # (Z/6)^2 from the Q/Z copies, Z/2 from Q_2/Z_2, Z/3 from Q_3/Z_3, Z/2
    assert t.order() == 36 * 2 * 3 * 2
    assert d.n_torsion(5).order() == 25


# ---------------------------------------------------------------------------
# Brauer groups of localized integers
# ---------------------------------------------------------------------------


def test_brauer_z_is_zero():
    assert brauer_localized_integers([REAL]).is_zero()


def test_brauer_z_one_sixth():
    d = brauer_localized_integers([finite(2), finite(3), REAL])
    assert d.qz_copies == 1
    assert d.finite_part.same_structure(FgAbGroup.cyclic(2))
    assert str(d) == "Q/Z ⊕ Z/2"


def test_brauer_cyclotomic_single_finite_place():
    # Z[1/p, zeta]: one finite place above p, no real places
    assert brauer_localized_integers([finite(2)]).is_zero()


def test_brauer_z_one_half():
    d = brauer_localized_integers([finite(2), REAL])
    assert d.qz_copies == 0
    assert d.finite_part.same_structure(FgAbGroup.cyclic(2))


def test_brauer_no_places():
    assert brauer_localized_integers([COMPLEX]).is_zero()


def test_brauer_monotone_in_places():
    base = [REAL]
    prev = brauer_localized_integers(base)
    for extra in [finite(2), finite(3), REAL]:
        base = base + [extra]
        cur = brauer_localized_integers(base)
        assert contains_summand(cur, prev)
        prev = cur


def test_kernel_formula_vs_brute_force():
    for n in range(1, 13):
        for m in range(4):
            for r in range(3):
                formula = brauer_localized_integers(
                    [finite(p) for p in [2, 3, 5][:m]] + [REAL] * r)
                assert formula.n_torsion(n).order() == \
                    brute_force_invariant_kernel_order(n, m, r)


# ---------------------------------------------------------------------------
# H^1(S; Q/Z)
# ---------------------------------------------------------------------------


def test_h1_qz_single_primes():
    d = h1_qz({5})
    assert d.qpzp_primes == (5,)
    assert d.finite_part.same_structure(FgAbGroup.cyclic(4))
    d = h1_qz({2})
    assert d.finite_part.same_structure(FgAbGroup.cyclic(2))


def test_h1_qz_empty():
    assert h1_qz(set()).is_zero()


def test_h1_qz_two_three_discrepancy():
    report = h1_qz_report({2, 3})
    assert report.discrepancy
    assert report.computed.finite_part.same_structure(FgAbGroup.from_orders([2, 2]))
    assert report.stated.finite_part.same_structure(FgAbGroup.from_orders([2, 2, 2]))
    assert report.computed.qpzp_primes == report.stated.qpzp_primes == (2, 3)
    clean = h1_qz_report({5})
    assert not clean.discrepancy and clean.stated is None


# ---------------------------------------------------------------------------
# Laurent ring
# ---------------------------------------------------------------------------


def test_brauer_laurent_z():
    assert brauer_laurent([REAL], set()).is_zero()


def test_brauer_laurent_z_one_sixth():
    d = brauer_laurent([finite(2), finite(3), REAL], {2, 3})
    expected = brauer_localized_integers([finite(2), finite(3), REAL]) \
        .direct_sum(h1_qz({2, 3}))
    assert d == expected
    assert d.qz_copies == 1 and d.qpzp_primes == (2, 3)


def test_brauer_laurent_z_one_half():
    d = brauer_laurent([finite(2), REAL], {2})
    assert d.qz_copies == 0
    assert d.qpzp_primes == (2,)
    assert d.finite_part.same_structure(FgAbGroup.from_orders([2, 2]))


def test_brauer_laurent_contains_base_summand():
    # injectivity on descriptors: Br(S) is a summand of the output
    places = [finite(2), finite(3), REAL]
    base = brauer_localized_integers(places)
    assert contains_summand(brauer_laurent(places, {2, 3}), base)


def test_brauer_laurent_mismatched_primes():
    with pytest.raises(ValueError):
        brauer_laurent([finite(2), REAL], {3})
