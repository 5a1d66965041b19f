import pytest

import ssengine_oracle
from lbr_ko_covers import lbr_ko_splitting_check
from brauerkit.abelian import FgAbGroup
from brauerkit.cyccoh import group_cohomology, sign, trivial
from brauerkit.kofam import (
    SHIPPED_RINGS,
    EtaleRingDescriptor,
    _bott_power,
    ku_additive_d3_rules,
    ku_additive_pages,
    lbr_ko,
    omni_assemble,
    pic_ko,
)
from brauerkit.ssengine import Entry, SSPage, page_to_json

Z2 = FgAbGroup.cyclic(2)
ZERO = FgAbGroup.zero()


# ---------------------------------------------------------------------------
# ring descriptors
# ---------------------------------------------------------------------------


def test_descriptor_invariant_two_inverted():
    with pytest.raises(ValueError):
        EtaleRingDescriptor("bad", Z2, ZERO, (1,), inverted_primes=(2,))


def test_descriptor_json_roundtrip():
    r = SHIPPED_RINGS["Z[w][1/17]"]
    assert EtaleRingDescriptor.from_json(r.to_json()) == r


def test_descriptor_file_with_the_dropped_keys_still_loads():
    data = SHIPPED_RINGS["Z"].to_json()
    assert "h1_z2" not in data and "h2_gm" not in data
    old = dict(data, h1_z2=Z2.to_json(), h2_gm=ZERO.to_json())
    assert EtaleRingDescriptor.from_json(old) == SHIPPED_RINGS["Z"]


# ---------------------------------------------------------------------------
# additive sequence
# ---------------------------------------------------------------------------


def test_additive_einf_matches_ko_homotopy():
    pages = ku_additive_pages(SHIPPED_RINGS["Z"], s_max=10, t_range=(0, 12))
    einf = pages[-1]  # E_4 = E_inf: the pattern has no d_r past r = 3

    def column(page, k):
        return [(s, e) for (s, t), e in sorted(page.entries.items()) if t - s == k]

    # column 1: pi_1 KO = Z/2 (eta)
    col1 = column(einf, 1)
    assert len(col1) == 1 and col1[0][1].value.same_structure(Z2)
    assert col1[0][1].label == "η"
    # column 2: pi_2 KO = Z/2 (eta^2)
    col2 = column(einf, 2)
    assert len(col2) == 1 and col2[0][1].value.same_structure(Z2)
    # column 4: the index-two class 2-beta ("2□")
    col4 = column(einf, 4)
    assert len(col4) == 1
    entry = col4[0][1]
    assert entry.value.same_structure(FgAbGroup.free(1))
    assert entry.index == 2 and entry.label == "2□"
    # columns -1 and -2 vanish
    assert column(einf, -1) == []
    assert column(einf, -2) == []
    # column 0 and 8: a full copy of Z survives
    col0 = column(einf, 0)
    assert [e.value.free_rank for _, e in col0][0] == 1


def test_additive_d3_rules_pass_d_squared():
    pages = ku_additive_pages(SHIPPED_RINGS["Z"])
    e3 = pages[1]
    rules = ku_additive_d3_rules(e3)
    # parity alternation: no rule's target is another rule's source
    sources = {r.source for r in rules}
    for rule in rules:
        s, t = rule.source
        assert (s + 3, t + 2) not in sources


def _class_label(s, k):
    """The label of eta^s beta^k as the E_2 builder wrote it for each position."""
    if k is None:
        return ""
    eta = "" if s == 0 else ("η" if s == 1 else f"η^{s}")
    beta = "" if k == 0 else ("β" if k == 1 else f"β^{k}")
    return (eta + beta) or "1"


def test_additive_pages_match_per_position_cohomology():
    # E_2 built the way it was before the 2-periodic rows: one H^s(C_2; pi_t KU)
    # per position, turned by the linear-scan oracle
    entries = {}
    for t in range(0, 81, 2):
        module = trivial(FgAbGroup.free(1)) if t % 4 == 0 else sign(FgAbGroup.free(1))
        for s in range(41):
            h = group_cohomology(module, s)
            if not h.is_zero():
                entries[(s, t)] = Entry(h, label=_class_label(s, _bott_power(s, t)))
    e2 = SSPage(2, entries)
    e3 = ssengine_oracle.turn_page(e2, [])
    want = [e2, e3, ssengine_oracle.turn_page(e3, ku_additive_d3_rules(e3))]
    for ring in SHIPPED_RINGS.values():
        got = ku_additive_pages(ring, 40, (0, 80))
        assert [page_to_json(p) for p in got] == [page_to_json(p) for p in want]
    assert ku_additive_pages(SHIPPED_RINGS["Z"], -1, (0, 8))[0].entries == {}


def test_additive_page_turn_shrinks():
    e2, e3, e4 = ku_additive_pages(SHIPPED_RINGS["Z"])
    assert set(e4.entries) <= set(e3.entries) <= set(e2.entries)


# ---------------------------------------------------------------------------
# pic_ko
# ---------------------------------------------------------------------------


def test_pic_ko_z():
    res = pic_ko(SHIPPED_RINGS["Z"])
    assert res.group.same_structure(FgAbGroup.cyclic(8))
    assert res.witness_order == 8
    assert dict(res.graded)[3].same_structure(Z2)


def test_pic_ko_z_omega_1_17():
    res = pic_ko(SHIPPED_RINGS["Z[w][1/17]"])
    assert res.group.same_structure(FgAbGroup.from_orders([8, 2]))


def test_pic_ko_two_inverted():
    res = pic_ko(SHIPPED_RINGS["Z[1/2,zeta4]"])
    assert res.group.same_structure(FgAbGroup.cyclic(4))
    assert res.witness_order == 4


def test_pic_ko_insensitive_to_d3_21():
    for name in SHIPPED_RINGS:
        a = pic_ko(SHIPPED_RINGS[name], d3_21="zero")
        b = pic_ko(SHIPPED_RINGS[name], d3_21="nonzero")
        c = pic_ko(SHIPPED_RINGS[name], d3_21="unknown")
        assert a.group.same_structure(b.group)
        assert a.group.same_structure(c.group)
        assert any("unaffected" in n for n in c.notes)


def test_pic_ko_order_formula():
    for r in SHIPPED_RINGS.values():
        res = pic_ko(r)
        expected = max(r.pic.order(), 1) * (2 ** (r.d + 2) if r.d >= 1 else 4)
        assert res.group.order() == expected
        # an order-8 element exists whenever d >= 1
        if r.d >= 1:
            assert res.group.exponent() % 8 == 0


def test_pic_ko_quotient_by_pic_and_gr3_is_z4():
    # second exact sequence: Pic(KO_R)/(Pic(R) + (Z/2)^d) = Z/4
    for r in SHIPPED_RINGS.values():
        res = pic_ko(r)
        assert res.sections.order() // (2 ** r.d) == 4


def test_pic_ko_nonzero_odd_pic_splits():
    r = EtaleRingDescriptor("toy", Z2, FgAbGroup.cyclic(3), (1,))
    res = pic_ko(r)
    assert res.group.same_structure(FgAbGroup.from_orders([3, 8]))


# ---------------------------------------------------------------------------
# LBr(KO)
# ---------------------------------------------------------------------------


def test_lbr_ko_is_z2():
    rep = lbr_ko()
    assert rep.exact
    assert rep.lbr.same_structure(Z2)


def test_omni_assemble_cases():
    # finite-field style input: Br = 0, H^1 = Z/2
    rep = omni_assemble(ZERO, Z2, ZERO, Z2, ZERO)
    assert rep.lbr.same_structure(Z2)
    # nonzero H^2(Gm) with vanishing kernel side
    rep = omni_assemble(ZERO, ZERO, Z2, ZERO, ZERO)
    assert rep.lbr.same_structure(Z2)
    # both sides nonzero: undecided
    rep = omni_assemble(ZERO, ZERO, Z2, Z2, ZERO)
    assert rep.lbr is None and not rep.exact


def test_splitting_check_pair_is_true():
    rep = lbr_ko_splitting_check([SHIPPED_RINGS["Z[1/2,zeta4]"],
                                  SHIPPED_RINGS["Z[1/3,zeta3]"]])
    assert rep.splits and rep.faithful and not rep.partial
    assert dict(rep.kills_per_cover) == {"Z[1/2,zeta4]": True, "Z[1/3,zeta3]": True}


def test_splitting_check_identity_cover_fails():
    rep = lbr_ko_splitting_check([SHIPPED_RINGS["Z"]])
    assert not rep.splits and not rep.partial
    assert rep.kills_per_cover == (("Z", False),)


def test_splitting_check_single_cover_partial():
    rep = lbr_ko_splitting_check([SHIPPED_RINGS["Z[1/2,zeta4]"]])
    assert not rep.splits and rep.partial
    assert "faithful" in rep.note
