import json
import os
import shutil

import pytest

from brauerkit import data_dir, tmffam
from brauerkit.abelian import FgAbGroup
from brauerkit.kofam import SHIPPED_RINGS, EtaleRingDescriptor
from brauerkit.record import replace
from brauerkit.sheaftab import (
    ClosedPush,
    KStarVShriek,
    QuasiCoherent,
    SheafExtension,
)
from brauerkit.tmffam import (
    UNRESOLVED_NAMES,
    TmfPageData,
    lbr_m_o,
    lbr_tmf,
    pic_tmf_c4inv,
    pic_tmf_global,
    pic_tmf_r,
    run_pic_tmf,
)

Z2 = FgAbGroup.cyclic(2)


@pytest.fixture(scope="module")
def data():
    return TmfPageData.load()


# ---------------------------------------------------------------------------
# data validation
# ---------------------------------------------------------------------------


def test_data_citations_present():
    with open(os.path.join(data_dir(), "tmf_pages.json")) as fh:
        raw = json.load(fh)
    for item in raw["column0"]:
        assert item["citation"]
    for rule in raw["special_rules"]:
        assert rule["citation"]


def test_data_unresolved_set(data):
    assert set(data.unresolved) == set(UNRESOLVED_NAMES)


def _edited_data(tmp_path, monkeypatch, edit):
    """`TmfPageData.load()` from a copy of the data directory whose page file
    `edit` has changed."""
    copy = tmp_path / "data"
    shutil.copytree(data_dir(), copy)
    raw = json.loads((copy / "tmf_pages.json").read_text())
    edit(raw)
    (copy / "tmf_pages.json").write_text(json.dumps(raw))
    monkeypatch.setenv("BRAUERKIT_DATA", str(copy))
    return TmfPageData.load()


def test_data_rejects_missing_citation(tmp_path, monkeypatch):
    def edit(raw):
        raw["column0"][0]["citation"] = ""

    with pytest.raises(ValueError, match="citation"):
        _edited_data(tmp_path, monkeypatch, edit)


def test_data_rejects_nonzero_d11(tmp_path, monkeypatch):
    def edit(raw):
        for rule in raw["special_rules"]:
            if rule["name"] == "d11_77":
                rule["kind"] = "iso"

    with pytest.raises(ValueError, match="fixed to zero"):
        _edited_data(tmp_path, monkeypatch, edit)


def test_data_rejects_a_kind_the_drivers_do_not_apply(tmp_path, monkeypatch):
    def edit(raw):
        next(r for r in raw["special_rules"] if r["name"] == "d9_55")["kind"] = "iso"

    with pytest.raises(ValueError, match="rule d9_55: 'kind' must be operator or zero, not 'iso'"):
        _edited_data(tmp_path, monkeypatch, edit)


def test_data_rejects_two_operator_rules_from_one_source(tmp_path, monkeypatch):
    def edit(raw):
        rule = next(r for r in raw["special_rules"] if r["name"] == "d5_55")
        raw["special_rules"].append({**rule, "name": "d7_55", "r": 7})

    with pytest.raises(ValueError, match=r"two operator rules out of \(5, 5, 2\)"):
        _edited_data(tmp_path, monkeypatch, edit)


def test_data_rejects_a_witness_order_below_one(tmp_path, monkeypatch):
    # an order of 0 once sent pic_tmf_global's _valuation into an endless loop
    with pytest.raises(ValueError, match="witness order must be positive"):
        _edited_data(tmp_path, monkeypatch, lambda raw: raw["pic_witness"].update(order=0))


def test_replaced_unresolved_values_are_checked(data):
    with pytest.raises(ValueError, match="'d23_row7' must be \"zero\" or \"iso\""):
        replace(data, unresolved={**data.unresolved, "d23_row7": "Iso"})


def test_data_is_read_into_typed_values(data):
    by_s = {(s, local): (symbol, rule) for s, local, symbol, rule in data.column0}
    symbol, rule = by_s[3, 2]
    assert symbol == QuasiCoherent("O/2") and str(rule.operator) == "x + j*x^2"
    assert by_s[7, 2] == (QuasiCoherent("O/(2,j)"), None)
    assert data.c4inv == (FgAbGroup.cyclic(8), Z2, True)
    assert data.lbr_mo[0] == 8 and data.lbr_mo[2] == (6, 18, 30)
    assert data.citations == tuple(sorted(set(data.citations))) and len(data.citations) == 10


# ---------------------------------------------------------------------------
# column-0 filtration
# ---------------------------------------------------------------------------


def test_run_pic_tmf_stages(data):
    stages = run_pic_tmf(data)
    by_s = {}
    for g in stages:
        by_s.setdefault(g.s, []).append(g)
    assert set(by_s) == {0, 1, 3, 5, 7}
    # gr^0 = Z/2, gr^1 = R^1j_*G_m
    assert "Z/2" in by_s[0][0].display()
    assert by_s[1][0].symbol.__class__.__name__ == "R1jGm"
    # gr^3 = k_*v_!Z/2 (kernel of the twisted Artin-Schreier d3)
    assert isinstance(by_s[3][0].symbol, KStarVShriek)
    # gr^5: 2-local extension of the skyscraper by O/(2,j), 3-local skyscraper Z/3
    fives = {g.local: g for g in by_s[5]}
    assert isinstance(fives[2].symbol, SheafExtension)
    assert isinstance(fives[3].symbol, ClosedPush)
    assert fives[3].symbol.group.same_structure(FgAbGroup.cyclic(3))
    # gr^7 is only an upper bound pending the open d23
    seven = by_s[7][0]
    assert isinstance(seven.symbol, QuasiCoherent) and not seven.exact
    assert "d23_row7" in seven.assumed


def test_run_pic_tmf_nothing_above_row_7(data):
    stages = run_pic_tmf(data)
    assert max(g.s for g in stages) == 7


def _set_open(data, **values):
    """`data` with the given open differentials set to "zero" or "iso"."""
    return replace(data, unresolved={**data.unresolved, **values})


def test_run_pic_tmf_iso_config_kills_row_7(data):
    stages = run_pic_tmf(_set_open(data, d23_row7="iso"))
    seven = [g for g in stages if g.s == 7][0]
    assert seven.symbol is None and seven.exact


def test_run_pic_tmf_assumed_markers(data):
    stages = run_pic_tmf(data)
    five = [g for g in stages if g.s == 5 and g.local == 2][0]
    assert set(five.assumed) == {"d13_row5", "d25_row5"}
    assert not five.exact
    assert "assuming" in five.display()


def test_run_pic_tmf_reads_defaults_from_the_data(tmp_path, monkeypatch):
    edited = _edited_data(tmp_path, monkeypatch, lambda raw: raw["unresolved"].update(d23_row7="iso"))
    seven = [g for g in run_pic_tmf(edited) if g.s == 7][0]
    assert seven.symbol is None and seven.exact
    assert lbr_tmf(16, data=edited).assumed == ("d13_row5", "d25_row5")
    # a copy of the record with another value overrides the file's default
    seven = [g for g in run_pic_tmf(_set_open(edited, d23_row7="zero")) if g.s == 7][0]
    assert seven.assumed == ("d23_row7",)


def test_run_pic_tmf_row_without_an_operator_rule_stays_unkerneled(tmp_path, monkeypatch):
    def edit(raw):
        raw["special_rules"] = [r for r in raw["special_rules"] if r["name"] != "d3_33"]
        raw["column0"].append({**raw["column0"][-1], "s": 9, "t": 9})

    stages = run_pic_tmf(_edited_data(tmp_path, monkeypatch, edit))
    three = [g for g in stages if g.s == 3][0]
    assert three.symbol == QuasiCoherent("O/2") and three.exact
    nine = [g for g in stages if g.s == 9][0]
    assert nine.symbol == QuasiCoherent("O/(2,j)") and nine.exact and not nine.assumed


# ---------------------------------------------------------------------------
# global Picard groups
# ---------------------------------------------------------------------------


def test_pic_tmf_global_values(data):
    out = pic_tmf_global(data)
    assert out[2].same_structure(FgAbGroup.cyclic(64))
    assert out[3].same_structure(FgAbGroup.cyclic(9))
    assert out[5].is_zero()


def test_pic_tmf_global_hands_over_the_orders_deepest_first(monkeypatch, data):
    # assemble_abutment_by_orders builds upward from its first entry, the
    # deepest stage; the stages run (0,0), (1,0), (3,0), (5,2), (5,3), (7,2)
    handed = {}

    def capture(orders, witness):
        handed[witness.witness_order] = list(orders)
        return FgAbGroup.zero()

    monkeypatch.setattr(tmffam, "assemble_abutment_by_orders", capture)
    pic_tmf_global(data)
    assert handed == {64: [2, 1, 4, 1, 4, 2], 9: [1, 3, 1, 1, 3, 1], 1: [1] * 6}


def test_pic_tmf_global_locality_knobs(data):
    # the open 2-local differentials do not touch the 3-local answer
    base = pic_tmf_global(data)
    for name in ("d13_row5", "d25_row5", "d23_row7"):
        tweaked = pic_tmf_global(_set_open(data, **{name: "iso"}))
        assert tweaked[3].same_structure(base[3])
    # ... and flipping them changes (only) the 2-local order
    all_iso = pic_tmf_global(_set_open(data, d13_row5="iso", d25_row5="iso", d23_row7="iso"))
    assert all_iso[2].order() < base[2].order()
    assert all_iso[3].same_structure(base[3])


def test_pic_tmf_c4inv(data):
    got = pic_tmf_c4inv(data)
    assert got.same_structure(FgAbGroup.from_orders([2, 8]))


def test_pic_tmf_r_integers(data):
    rep = pic_tmf_r(SHIPPED_RINGS["Z"], data)
    assert rep.quotient.same_structure(FgAbGroup.cyclic(24))
    assert rep.h0_ideal_order == 24
    assert rep.sections_order == 576
    assert rep.total_order == 576
    # consistency with the assembled global groups
    out = pic_tmf_global(data)
    assert rep.total_order == out[2].order() * out[3].order()


def test_pic_tmf_r_z_one_sixth(data):
    r = EtaleRingDescriptor("Z[1/6]", Z2, FgAbGroup.zero(), (), inverted_primes=(2, 3))
    rep = pic_tmf_r(r, data)
    assert rep.h0_ideal_order == 1
    assert rep.sections_order == 24
    assert len(rep.notes) == 2


def test_pic_tmf_r_pic_contributes(data):
    r = EtaleRingDescriptor("toy", Z2, FgAbGroup.cyclic(5), (1,))
    rep = pic_tmf_r(r, data)
    assert rep.total_order == 5 * 576


# ---------------------------------------------------------------------------
# local Brauer groups
# ---------------------------------------------------------------------------


def test_lbr_tmf_structure():
    rep = lbr_tmf(32)
    assert rep.three_torsion.same_structure(FgAbGroup.cyclic(3))
    assert rep.p_gt_3_torsion.is_zero()
    assert rep.split_surjection and rep.kernel_finite
    assert rep.kernel_order_bound == 2
    assert rep.br_pi0_zero
    assert len(rep.two_local_basis) >= 15
    assert rep.two_local_basis[0] == "j^2"
    assert set(rep.assumed) == {"d13_row5", "d25_row5", "d23_row7"}


def test_lbr_tmf_window_doubling_extends_prefix():
    a = lbr_tmf(16)
    b = lbr_tmf(32)
    assert b.two_local_basis[:len(a.two_local_basis)] == a.two_local_basis
    assert len(b.two_local_basis) > len(a.two_local_basis)
    assert a.three_torsion.same_structure(b.three_torsion)


def test_lbr_tmf_rejects_tiny_window():
    with pytest.raises(ValueError):
        lbr_tmf(4)


def test_lbr_mo_structure():
    rep = lbr_m_o(32)
    assert rep.two_local_kernel_order == 8
    assert "exactly 8" in rep.kernel_footnote
    assert rep.three_local.same_structure(FgAbGroup.cyclic(3))
    assert rep.iso_after_inverting_2
    assert rep.cokernel_order_bound == 8
    assert rep.injection_distinct
    assert rep.assumed == ("d9_lbr_row6",)


def test_lbr_mo_matches_lbr_tmf_away_from_2():
    a = lbr_tmf(16)
    b = lbr_m_o(16)
    assert a.three_torsion.same_structure(b.three_local)
    assert a.two_local_basis == b.two_local_basis


def test_lbr_window_invariance_of_finite_parts():
    for n in (8, 16, 32):
        rep = lbr_m_o(n)
        assert rep.two_local_kernel_order == 8
        assert rep.cokernel_order_bound == 8
