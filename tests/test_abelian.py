import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from brauerkit import abelian
from brauerkit.abelian import (
    ExtensionWitness,
    FgAbGroup,
    GroupHom,
    abelian_groups_of_order,
    hom_cokernel,
    hom_kernel,
    homology,
    resolve_extension,
    resolve_extension_by_order,
    smith_normal_form,
)
from brauerkit.errors import AmbiguousExtension, NoExtension


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def det(M):
    """Exact determinant via fraction-free expansion (small matrices)."""
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * det(minor)
    return total


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def elements(group):
    assert group.is_finite()
    return list(itertools.product(*(range(d) for d in group.invariant_factors)))


def apply_hom(f, vec):
    orders = f.target.generator_orders()
    out = []
    for i, row in enumerate(f.matrix):
        v = sum(a * x for a, x in zip(row, vec))
        out.append(v % orders[i] if orders[i] else v)
    return tuple(out)


def image_order(f):
    return len({apply_hom(f, e) for e in elements(f.source)})


def kernel_order(f):
    zero = tuple(0 for _ in range(f.target.num_generators))
    return sum(1 for e in elements(f.source) if apply_hom(f, e) == zero)


# ---------------------------------------------------------------------------
# smith normal form
# ---------------------------------------------------------------------------


def check_snf(M):
    U, D, V = smith_normal_form(M)
    assert matmul(matmul(U, M), V) == D
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    for i in range(len(D)):
        for j in range(len(D[0])):
            if i != j:
                assert D[i][j] == 0
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    # zeros, if any, come after the nonzero chain
    assert diag[:len(nonzero)] == nonzero
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return diag


def test_snf_identity():
    diag = check_snf([[1, 0], [0, 1]])
    assert diag == [1, 1]


def test_snf_hand_example():
    # row/column reduction by hand gives diag(2, 4)
    diag = check_snf([[2, 4], [6, 8]])
    assert diag == [2, 4]


def test_snf_zero():
    diag = check_snf([[0]])
    assert diag == [0]


def test_snf_rectangular_and_random():
    rng = random.Random(7)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        check_snf(M)


@given(st.lists(st.lists(st.integers(-50, 50), min_size=1, max_size=4), min_size=1, max_size=4)
       .filter(lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=60, deadline=None)
def test_snf_property(rows):
    check_snf(rows)


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


def test_normal_form_regroups_primes():
    g = FgAbGroup.from_orders([2, 3])
    assert g.same_structure(FgAbGroup.cyclic(6))
    g = FgAbGroup.from_orders([4, 6])
    assert g.invariant_factors == (2, 12)
    g = FgAbGroup.from_orders([0, 8, 2, 0])
    assert g.free_rank == 2 and g.invariant_factors == (2, 8)


def test_invalid_factors_rejected():
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))


def test_display_and_json_roundtrip():
    g = FgAbGroup(1, (2, 4))
    assert str(g) == "Z ⊕ Z/2 ⊕ Z/4"
    assert str(FgAbGroup.zero()) == "0"
    assert FgAbGroup.from_json(g.to_json()).same_structure(g)


def test_torsion_and_primary_parts():
    g = FgAbGroup.from_orders([8, 3])
    assert g.torsion(2).same_structure(FgAbGroup.cyclic(2))
    # for a finite group the p-primary part is its p^k-torsion for large k
    assert g.torsion(8).same_structure(FgAbGroup.cyclic(8))
    assert g.torsion(5 ** 3).is_zero()


# ---------------------------------------------------------------------------
# kernels and cokernels
# ---------------------------------------------------------------------------


def test_kernel_times_two_on_z():
    f = GroupHom(FgAbGroup.free(1), FgAbGroup.free(1), ((2,),))
    ker, incl = hom_kernel(f)
    assert ker.is_zero()
    assert incl.source.is_zero()


def test_kernel_times_two_on_z4():
    z4 = FgAbGroup.cyclic(4)
    f = GroupHom(z4, z4, ((2,),))
    ker, incl = hom_kernel(f)
    assert ker.same_structure(FgAbGroup.cyclic(2))
    # enumerate all 4 elements: kernel is {0, 2}
    assert kernel_order(f) == 2
    # the inclusion really lands in the kernel
    gen = tuple(incl.matrix[i][0] for i in range(1))
    assert apply_hom(f, gen) == (0,)


def test_kernel_to_zero():
    f = GroupHom(FgAbGroup.cyclic(2), FgAbGroup.zero(), ())
    ker, _ = hom_kernel(f)
    assert ker.same_structure(FgAbGroup.cyclic(2))


def test_cokernel_times_two_on_z():
    f = GroupHom(FgAbGroup.free(1), FgAbGroup.free(1), ((2,),))
    cok, proj = hom_cokernel(f)
    assert cok.same_structure(FgAbGroup.cyclic(2))
    assert proj.source.same_structure(FgAbGroup.free(1))


def test_cokernel_from_zero():
    f = GroupHom(FgAbGroup.zero(), FgAbGroup.cyclic(8), ((),))
    cok, _ = hom_cokernel(f)
    assert cok.same_structure(FgAbGroup.cyclic(8))


def test_cokernel_into_zero():
    f = GroupHom(FgAbGroup.cyclic(2), FgAbGroup.zero(), ())
    cok, proj = hom_cokernel(f)
    assert cok.is_zero()
    assert proj == GroupHom(FgAbGroup.zero(), FgAbGroup.zero(), ())


def test_cokernel_of_a_20_digit_prime():
    p = 15564440312192434177
    f = GroupHom(FgAbGroup.free(1), FgAbGroup.free(1), ((p,),))
    cok, proj = hom_cokernel(f)
    assert cok.same_structure(FgAbGroup.cyclic(p)) and str(cok) == f"Z/{p}"
    assert proj.matrix == ((1,),)


def test_cokernel_diag_2_3():
    z2 = FgAbGroup.free(2)
    f = GroupHom(z2, z2, ((2, 0), (0, 3)))
    cok, _ = hom_cokernel(f)
    # SNF oracle gives diag(1, 6)
    assert cok.same_structure(FgAbGroup.cyclic(6))


def random_finite_hom(rng):
    src = FgAbGroup.from_orders([rng.choice([2, 3, 4, 6, 8]) for _ in range(rng.randint(1, 2))])
    tgt = FgAbGroup.from_orders([rng.choice([2, 3, 4, 6, 8]) for _ in range(rng.randint(1, 2))])
    src_orders = src.generator_orders()
    tgt_orders = tgt.generator_orders()
    mat = []
    for e in tgt_orders:
        row = []
        for d in src_orders:
            step = e // gcd(e, d)
            row.append(step * rng.randint(0, 8))
        mat.append(tuple(row))
    return GroupHom(src, tgt, tuple(mat))


def test_order_bookkeeping_random():
    rng = random.Random(2024)
    for _ in range(120):
        f = random_finite_hom(rng)
        ker, _ = hom_kernel(f)
        cok, _ = hom_cokernel(f)
        im = image_order(f)
        assert ker.order() * im == f.source.order()
        assert cok.order() * im == f.target.order()
        assert kernel_order(f) == ker.order()


def test_homology_of_exact_pair_vanishes():
    # Z --2--> Z --proj--> Z/2 is exact at the middle
    z = FgAbGroup.free(1)
    z2 = FgAbGroup.cyclic(2)
    g = GroupHom(z, z, ((2,),))
    f = GroupHom(z, z2, ((1,),))
    assert homology(f, g).is_zero()


def test_homology_nontrivial():
    # Z --4--> Z --proj--> Z/2: homology is 2Z/4Z = Z/2
    z = FgAbGroup.free(1)
    z2 = FgAbGroup.cyclic(2)
    g = GroupHom(z, z, ((4,),))
    f = GroupHom(z, z2, ((1,),))
    assert homology(f, g).same_structure(FgAbGroup.cyclic(2))


# ---------------------------------------------------------------------------
# extension resolution
# ---------------------------------------------------------------------------


def test_enumeration_of_abelian_groups():
    got = {tuple(g.invariant_factors) for g in abelian_groups_of_order(8)}
    assert got == {(8,), (2, 4), (2, 2, 2)}
    assert len(abelian_groups_of_order(36)) == 4


def test_enumeration_matches_from_orders_construction():
    # the construction used before invariant factors were built directly
    def from_orders_groups(n):
        per_prime = [[[p ** x for x in part] for part in abelian._partitions(e)]
                     for p, e in sorted(abelian._factorize(n).items())]
        out = [FgAbGroup.from_orders([q for block in combo for q in block])
               for combo in itertools.product(*per_prime)]
        return sorted(out, key=lambda g: g.invariant_factors)

    for n in range(1, 2001):
        assert abelian_groups_of_order(n) == from_orders_groups(n), n


def test_resolve_order8_cyclic():
    g = resolve_extension(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4),
                          ExtensionWitness(8, maps_to_generator_of_quotient=True))
    assert g.same_structure(FgAbGroup.cyclic(8))


def test_resolve_z8_plus_z2():
    sub = FgAbGroup.from_orders([2, 2])
    g = resolve_extension(sub, FgAbGroup.cyclic(4),
                          ExtensionWitness(8, maps_to_generator_of_quotient=True))
    assert g.same_structure(FgAbGroup.from_orders([8, 2]))


def test_resolve_trivial_subgroup():
    g = resolve_extension(FgAbGroup.zero(), FgAbGroup.cyclic(4), ExtensionWitness(4))
    assert g.same_structure(FgAbGroup.cyclic(4))


def test_resolve_ambiguous_without_strong_witness():
    with pytest.raises(AmbiguousExtension):
        resolve_extension(FgAbGroup.cyclic(2), FgAbGroup.cyclic(2), ExtensionWitness(2))


def test_resolve_no_extension():
    with pytest.raises(NoExtension):
        resolve_extension(FgAbGroup.cyclic(2), FgAbGroup.cyclic(2), ExtensionWitness(8))


def test_resolve_trace_is_exhaustive():
    g, trace = resolve_extension(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4),
                                 ExtensionWitness(8), with_trace=True)
    assert g.same_structure(FgAbGroup.cyclic(8))
    assert len(trace.accepted) + len(trace.rejected) == len(abelian_groups_of_order(8))


def test_resolve_by_order():
    g = resolve_extension_by_order(FgAbGroup.cyclic(8), 2, ExtensionWitness(16))
    assert g.same_structure(FgAbGroup.cyclic(16))


def test_resolve_order_2_pow_20():
    sub = FgAbGroup.cyclic(2 ** 19)
    witness = ExtensionWitness(2 ** 20, maps_to_generator_of_quotient=True)
    want = FgAbGroup.cyclic(2 ** 20)
    assert resolve_extension(sub, FgAbGroup.cyclic(2), witness).same_structure(want)
    assert resolve_extension_by_order(sub, 2, witness).same_structure(want)


def test_resolve_counts_candidates_before_building_them():
    # p(40) = 37338 groups of order 2^40 are under the bound of 100000
    sub = FgAbGroup.cyclic(2 ** 39)
    witness = ExtensionWitness(2 ** 40, maps_to_generator_of_quotient=True)
    group, trace = resolve_extension(sub, FgAbGroup.cyclic(2), witness, with_trace=True)
    assert group.same_structure(FgAbGroup.cyclic(2 ** 40))
    assert len(trace.accepted) + len(trace.rejected) == 37338
    # p(50) = 204226 and p(30)^2 = 31404816 are over it
    with pytest.raises(ValueError, match="204226 abelian groups, over the bound of 100000"):
        resolve_extension(FgAbGroup.cyclic(2 ** 49), FgAbGroup.cyclic(2), ExtensionWitness(2))
    with pytest.raises(ValueError, match="31404816 abelian groups"):
        resolve_extension_by_order(FgAbGroup.cyclic(2 ** 30), 3 ** 30)
    assert [abelian._partition_count(k) for k in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


def test_resolve_mixed_2_pow_6_3_pow_4():
    want = FgAbGroup.from_orders([2 ** 5, 2, 3 ** 3, 3])
    # generator witness: the p^b·e = h relations leave one type per prime
    sub = FgAbGroup.from_orders([8, 2, 9, 3])
    witness = ExtensionWitness(2 ** 5 * 3 ** 3, maps_to_generator_of_quotient=True)
    assert resolve_extension(sub, FgAbGroup.cyclic(12), witness).same_structure(want)
    assert resolve_extension_by_order(sub, 12, witness).same_structure(want)
    # known quotient, plain witness: Pieri leaves (5,1),(4,2),(4,1,1),(3,2,1) at
    # 2 and (3,1),(2,2),(2,1,1) at 3; the witness exponent keeps the first of each
    sub = FgAbGroup.from_orders([4, 2, 9, 3])
    quot = FgAbGroup.from_orders([8, 3])
    g, trace = resolve_extension(sub, quot, ExtensionWitness(2 ** 5 * 3 ** 3), with_trace=True)
    assert g.same_structure(want)
    assert len(trace.rejected) == len(abelian_groups_of_order(2 ** 6 * 3 ** 4)) - 1
    # exponent 2^4·3^2 keeps three types at each prime
    with pytest.raises(AmbiguousExtension) as exc:
        resolve_extension(sub, quot, ExtensionWitness(2 ** 4 * 3 ** 2))
    assert len(exc.value.candidates) == 3 * 3


def test_resolve_generator_witness_needs_cyclic_quotient():
    sub, quot = FgAbGroup.cyclic(2), FgAbGroup.from_orders([2, 2])
    # raised once some candidate has an element of the witness order ...
    with pytest.raises(ValueError):
        resolve_extension(sub, quot, ExtensionWitness(2, maps_to_generator_of_quotient=True))
    # ... and never when none has
    with pytest.raises(NoExtension):
        resolve_extension(sub, quot, ExtensionWitness(16, maps_to_generator_of_quotient=True))
    with pytest.raises(NoExtension):
        abelian._resolve(sub, quot, 8, ExtensionWitness(16, maps_to_generator_of_quotient=True))


def test_resolve_output_order_invariant():
    rng = random.Random(5)
    for _ in range(20):
        sub = FgAbGroup.from_orders([rng.choice([1, 2, 3, 4])])
        quot = FgAbGroup.from_orders([rng.choice([2, 3, 4])])
        total = sub.order() * quot.order()
        try:
            g = resolve_extension(sub, quot, ExtensionWitness(total))
        except (AmbiguousExtension, NoExtension):
            continue
        assert g.order() == total
