import random

import pytest

import cyccoh_oracle as oracle
from seeds import differential_seed
from brauerkit import abelian
from brauerkit.abelian import FgAbGroup, GroupHom
from brauerkit.cyccoh import CyclicModule, cohomology_row, group_cohomology, sign, trivial
from brauerkit.errors import NotAnAction


Z = FgAbGroup.free(1)
Z2 = FgAbGroup.cyclic(2)


def test_trivial_action_on_z():
    m = trivial(Z)
    # N = 2, sigma - 1 = 0
    expected = [Z, FgAbGroup.zero(), Z2, FgAbGroup.zero()]
    for s, e in enumerate(expected):
        assert group_cohomology(m, s).same_structure(e)


def test_sign_action_on_z():
    m = sign(Z)
    # N = 0, sigma - 1 = -2
    expected = [FgAbGroup.zero(), Z2, FgAbGroup.zero(), Z2]
    for s, e in enumerate(expected):
        assert group_cohomology(m, s).same_structure(e)


def test_trivial_action_on_z2():
    m = trivial(Z2)
    for s in range(6):
        assert group_cohomology(m, s).same_structure(Z2)


def test_row_units_plus_minus_one():
    row = cohomology_row(trivial(Z2), 4)
    assert all(g.same_structure(Z2) for g in row)


def test_row_sign():
    row = cohomology_row(sign(Z), 2)
    assert [str(g) for g in row] == ["0", "Z/2", "0"]


def test_row_zero_module():
    row = cohomology_row(trivial(FgAbGroup.zero()), 3)
    assert all(g.is_zero() for g in row)


def test_not_an_action_rejected():
    with pytest.raises(NotAnAction, match="sigma must act by 1 or -1"):
        CyclicModule(Z, 2, 2)
    # 2 squares to 1 on Z/3, and True and 1.0 equal 1, yet only the ints 1 and -1 are taken
    for group, sigma in ((FgAbGroup.cyclic(3), 2), (Z, True), (Z, 1.0)):
        with pytest.raises(NotAnAction, match="sigma must act by 1 or -1"):
            CyclicModule(group, sigma, 2)


def test_c3_permutation_action():
    # the oracle takes any sigma: C_3 permuting the coordinates of Z^3
    # cyclically is the regular representation, whose invariants are the
    # diagonal and whose higher cohomology dies
    g = FgAbGroup.free(3)
    sigma = GroupHom(g, g, ((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    m = oracle.CyclicModule(g, sigma, 3)
    assert oracle.group_cohomology(m, 0).same_structure(Z)
    assert oracle.group_cohomology(m, 1).is_zero()
    assert oracle.group_cohomology(m, 2).is_zero()
    # the augmentation quotient Z with trivial action has H^2 = Z/3
    assert oracle.group_cohomology(oracle.trivial(Z, 3), 2).same_structure(FgAbGroup.cyclic(3))
    with pytest.raises(NotAnAction, match="sigma\\^2 is not the identity"):
        oracle.CyclicModule(g, sigma, 2)


def random_c2_module(rng):
    g = FgAbGroup.from_orders([rng.choice([2, 3, 4, 8, 9]) for _ in range(rng.randint(1, 2))])
    choice = rng.choice(["trivial", "sign"])
    return trivial(g) if choice == "trivial" else sign(g)


def test_two_periodicity_random():
    rng = random.Random(11)
    for _ in range(40):
        m = random_c2_module(rng)
        for s in (1, 2):
            a = group_cohomology(m, s)
            b = group_cohomology(m, s + 2)
            assert a.same_structure(b)


def test_herbrand_quotient_one_for_finite_modules():
    rng = random.Random(13)
    for _ in range(40):
        m = random_c2_module(rng)
        h_odd = group_cohomology(m, 1).order()
        h_even = group_cohomology(m, 2).order()
        assert h_odd == h_even


def test_trivial_action_invertible_order_vanishes():
    # trivial C_2-action on Z/9: multiplication by 2 is invertible
    m = trivial(FgAbGroup.cyclic(9))
    for s in range(1, 5):
        assert group_cohomology(m, s).is_zero()


def test_cohomology_row_matches_degree_by_degree():
    # every action and row length the grid names, each on random groups
    seed = differential_seed(20260419)
    rng = random.Random(seed)
    for action in (trivial, sign):
        for n in range(1, 7):
            for s_max in range(7):
                while True:
                    orders = [rng.choice((0, 2, 3, 4, 6, 8)) for _ in range(rng.randint(1, 3))]
                    try:
                        m = action(FgAbGroup.from_orders(orders), n)
                        break
                    except NotAnAction:  # -1 has order n only on 2-torsion when n is odd
                        assert action is sign and n % 2, (seed, orders, n)
                want = [group_cohomology(m, s) for s in range(s_max + 1)]
                assert cohomology_row(m, s_max) == want, (seed, action.__name__, orders, n, s_max)



def test_closed_form_matches_resolution_oracle():
    # trivial and sign actions of C_0 ... C_8 on up to three cyclic summands,
    # the zero group included: the same group in each degree and in each row,
    # or the same refusal
    seed = differential_seed(20261019)
    rng = random.Random(seed)
    for fast, slow in ((trivial, oracle.trivial), (sign, oracle.sign)):
        for n in range(9):
            for _ in range(6):
                orders = [rng.choice((0, 1, 2, 3, 4, 6, 8, 9, 12)) for _ in range(rng.randint(0, 3))]
                group = FgAbGroup.from_orders(orders)
                where = (seed, fast.__name__, orders, n)
                try:
                    want = oracle.cohomology_row(slow(group, n), 6)
                except NotAnAction as exc:
                    with pytest.raises(NotAnAction) as got:
                        fast(group, n)
                    assert str(got.value) == str(exc), where
                    continue
                m = fast(group, n)
                assert [group_cohomology(m, s) for s in range(7)] == want, where
                for s_max in range(7):
                    assert cohomology_row(m, s_max) == want[:s_max + 1], where + (s_max,)
                with pytest.raises(ValueError):
                    group_cohomology(m, -1)
                with pytest.raises(ValueError):
                    cohomology_row(m, -1)


def test_rows_run_no_smith_form(monkeypatch):
    calls = []
    snf = abelian._snf_ext
    monkeypatch.setattr(abelian, "_snf_ext", lambda *a, **k: calls.append(1) or snf(*a, **k))
    oracle.cohomology_row(oracle.sign(Z), 2)
    assert calls, "the spy sees the resolution's Smith forms"
    calls.clear()
    for action in (trivial, sign):
        for orders in ([0], [2, 4], [0, 2, 6], [3, 9]):
            cohomology_row(action(FgAbGroup.from_orders(orders)), 6)
    assert calls == []
