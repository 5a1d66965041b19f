import json
import os
import shutil

import pytest

from brauerkit import data_dir
from brauerkit.abelian import ExtensionWitness, FgAbGroup, resolve_extension
from brauerkit.errors import NoFact
from brauerkit.numbrauer import DivisibleGroupDescriptor
from brauerkit.sheaftab import (
    ClosedPush,
    Constant,
    DirectSum,
    KStarVShriek,
    QuasiCoherent,
    R1jGm,
    SheafExtension,
    Unknown,
    canonical_r1jgm,
    cohomology,
    cohomology_order,
    default_fact_table,
    kstar_vshriek_h1_basis,
    sheaf_display,
    sheaf_from_json,
    sheaf_to_json,
)

Z2 = FgAbGroup.cyclic(2)
Z3 = FgAbGroup.cyclic(3)


def push_f2(group=Z2):
    return ClosedPush("(2,j)", group, "SpecF2")


# ---------------------------------------------------------------------------
# rules R1/R2: pushforwards and finite fields
# ---------------------------------------------------------------------------


def test_closed_push_f2_h1():
    ans = cohomology(push_f2(), 1, "SpecZ")
    assert ans.group().same_structure(Z2)


def test_finite_field_cohomology_degrees():
    f = Constant(FgAbGroup.cyclic(5))
    assert cohomology(f, 0, "SpecF2").group().same_structure(FgAbGroup.cyclic(5))
    assert cohomology(f, 1, "SpecF2").group().same_structure(FgAbGroup.cyclic(5))
    assert cohomology(f, 2, "SpecF2").group().is_zero()
    assert cohomology(f, 7, "SpecF3").group().is_zero()


# ---------------------------------------------------------------------------
# rule R3: constant sheaves on Spec Z and the affine line
# ---------------------------------------------------------------------------


def test_constant_on_spec_z():
    f = Constant(FgAbGroup.cyclic(4))
    assert cohomology(f, 0, "SpecZ").group().same_structure(FgAbGroup.cyclic(4))
    assert cohomology(f, 1, "SpecZ").group().is_zero()
    assert cohomology(f, 1, "A1").group().is_zero()


def test_constant_fact_table_bounded():
    # the fact table only covers moduli up to 24
    f = Constant(FgAbGroup.cyclic(25))
    ans = cohomology(f, 1, "SpecZ")
    assert isinstance(ans.value, Unknown) and ans.value.rule == "R3"


def test_constant_h1_reads_the_facts_value(tmp_path, monkeypatch):
    # a data directory in which H^1(Spec Z; Z/2) reads Z/2: R3 returns the
    # looked-up values summed over the summands, not 0 for their presence
    import brauerkit.sheaftab as sheaftab
    data = shutil.copytree(data_dir(), tmp_path / "data")
    facts = json.loads((data / "sheaf_facts.json").read_text())
    for e in facts:
        if (e["sheaf"], e["site"], e["degree"]) == ("Z/2", "SpecZ", 1):
            e["value"] = {"factors": [2]}
    (data / "sheaf_facts.json").write_text(json.dumps(facts))
    monkeypatch.setenv("BRAUERKIT_DATA", str(data))
    monkeypatch.setattr(sheaftab, "_DEFAULT_TABLE", None)
    assert cohomology(Constant(Z2), 1, "SpecZ").group() == Z2
    assert cohomology(Constant(FgAbGroup(0, (2, 6))), 1, "SpecZ").group() == Z2
    assert cohomology(Constant(Z2), 1, "A1").group().is_zero()
    monkeypatch.delenv("BRAUERKIT_DATA")
    monkeypatch.setattr(sheaftab, "_DEFAULT_TABLE", None)
    assert cohomology(Constant(Z2), 1, "SpecZ").group().is_zero()


# ---------------------------------------------------------------------------
# rules R4/R5: quasi-coherent sheaves and the Artin-Schreier kernel
# ---------------------------------------------------------------------------


def test_quasi_coherent_no_higher_cohomology():
    for name in ("O", "O/2", "O/(2,j)", "omega2"):
        assert cohomology(QuasiCoherent(name), 2, "A1").group().is_zero()
        assert cohomology(QuasiCoherent(name), 1, "A1").group().is_zero()


def test_quasi_coherent_sections_facts():
    assert cohomology(QuasiCoherent("O/(2,j)"), 0, "A1").group().same_structure(Z2)
    assert cohomology(QuasiCoherent("O/(3,j)"), 0, "A1").group().same_structure(Z3)
    # no finite answer recorded for O itself
    ans = cohomology(QuasiCoherent("O"), 0, "A1")
    assert isinstance(ans.value, Unknown)


def test_omega2_is_alias_for_o_mod_2():
    assert QuasiCoherent("omega2").canonical_name == "O/2"


def test_kstar_vshriek():
    assert cohomology(KStarVShriek(), 0, "A1").group().is_zero()
    h1 = cohomology(KStarVShriek(), 1, "A1").value
    assert isinstance(h1, DivisibleGroupDescriptor) and h1.infinite_f2
    assert h1.infinite_f2_basis.startswith("j^2, j^4")


def test_kstar_basis_even_degrees_no_constant():
    basis, prefix = kstar_vshriek_h1_basis(32)
    assert basis == list(range(2, 33, 2)) and prefix == 32
    assert len(basis) >= 15
    # doubling the window only extends the list
    assert kstar_vshriek_h1_basis(64)[0][:len(basis)] == basis


# ---------------------------------------------------------------------------
# rule R6: extensions and the long exact sequence
# ---------------------------------------------------------------------------


def test_extension_with_vanishing_quotient_side():
    f = SheafExtension(push_f2(Z3), QuasiCoherent("O/2"), witness=None)
    # H^1(quot) = 0 (R4) and H^0(quot) infinite -> but H^1 case: H^1(sub)=Z/3
    ans = cohomology(f, 1, "A1")
    # H^0(quot) is unknown, so the connecting map into H^1(sub) is undecided
    assert isinstance(ans.value, Unknown)


def test_extension_short_exact_with_witness():
    # sub quasi-coherent: H^1(sub) = 0, so H^0 is a genuine short exact piece
    f = SheafExtension(QuasiCoherent("O/(2,j)"), Constant(Z2),
                       witness=ExtensionWitness(4))
    got = cohomology(f, 0, "A1").group()
    assert got.same_structure(FgAbGroup.cyclic(4))


def test_extension_short_exact_without_witness_is_unknown_but_has_order():
    f = SheafExtension(QuasiCoherent("O/(2,j)"), Constant(Z2), witness=None)
    ans = cohomology(f, 0, "A1")
    assert isinstance(ans.value, Unknown) and ans.value.rule == "R6"
    assert cohomology_order(f, 0, "A1") == 4


def test_cohomology_order_evaluates_each_outer_term_once(monkeypatch):
    import brauerkit.sheaftab as sheaftab
    calls = []
    coh = sheaftab._coh

    def counted(f, s, base):
        calls.append((f, s, base))
        return coh(f, s, base)

    monkeypatch.setattr(sheaftab, "_coh", counted)
    sub, quot = QuasiCoherent("O/(2,j)"), Constant(Z2)
    assert cohomology_order(SheafExtension(sub, quot, witness=None), 0, "A1") == 4
    assert len(calls) == 3 and set(calls) == {(sub, 0, "A1"), (quot, 0, "A1"), (sub, 1, "A1")}


def test_cohomology_order_undecided_raises():
    with pytest.raises(NoFact):
        cohomology_order(QuasiCoherent("O"), 0, "A1")


def test_push_commutes_with_extension():
    # pushforward of a resolved extension equals the extension of pushforwards
    w = ExtensionWitness(4)
    resolved = resolve_extension(Z2, Z2, w)
    lhs = cohomology(ClosedPush("(2,j)", resolved, "SpecF2"), 0, "A1").group()
    rhs = cohomology(SheafExtension(push_f2(), push_f2(), witness=w), 0, "A1").group()
    assert lhs.same_structure(rhs)


def test_direct_sum_additivity():
    f = DirectSum((push_f2(Z3), Constant(Z2)))
    for s in (0, 1):
        total = cohomology(f, s, "SpecZ").value
        parts = [cohomology(g, s, "SpecZ").value for g in f.summands]
        combined = FgAbGroup.zero()
        for p in parts:
            combined = combined.direct_sum(p)
        assert total.same_structure(combined)


# ---------------------------------------------------------------------------
# R^1 j_* G_m
# ---------------------------------------------------------------------------


def test_r1jgm_global_sections():
    # pic-tmf --ring reads H^0 = Z/12 as the gr^1 sections
    assert cohomology(R1jGm(), 0, "A1").group().same_structure(FgAbGroup.cyclic(12))
    assert cohomology(R1jGm(), 1, "A1").group().is_zero()


def test_r1jgm_symbol_cohomology_matches():
    assert cohomology(R1jGm(), 0, "A1").group().same_structure(FgAbGroup.cyclic(12))
    assert cohomology(canonical_r1jgm(), 1, "A1").group().is_zero()


# ---------------------------------------------------------------------------
# fact table and serialization
# ---------------------------------------------------------------------------


def test_fact_table_has_citations():
    with open(os.path.join(data_dir(), "sheaf_facts.json")) as fh:
        facts = json.load(fh)
    keys = {(e["sheaf"], e["site"], e["degree"]) for e in facts}
    assert {("Z/12", "SpecZ", 1), ("O/(2,j)", "A1", 0)} <= keys
    assert all(e["citation"] for e in facts)


def test_kernel_facts():
    table = default_fact_table()
    k = table.kernel_sheaf("x + x^2", "O/2")
    assert isinstance(k, ClosedPush) and k.group.same_structure(Z2)
    assert isinstance(table.kernel_sheaf("x + j*x^2", "O/2"), KStarVShriek)
    with pytest.raises(NoFact):
        table.kernel_sheaf("x + x^4", "O/2")


def test_sheaf_json_roundtrip():
    symbols = [
        Constant(Z2),
        push_f2(Z3),
        QuasiCoherent("O/(3,j)"),
        KStarVShriek(),
        R1jGm(),
        DirectSum((Constant(Z2), KStarVShriek())),
        canonical_r1jgm(),
    ]
    for f in symbols:
        assert sheaf_from_json(sheaf_to_json(f)) == f
        assert sheaf_display(f)
