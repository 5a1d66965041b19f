"""Pic(TMF), Pic of its localizations, and the local Brauer groups of TMF
and of the sheaf-level moduli theory, run from curated page data.

The sheafy descent spectral sequence over the affine j-line ships as a data
file (data/tmf_pages.json): column-0 entries, the out-of-range differential
rules (Artin-Schreier operators evaluated through `charp` and the sheaf
fact table), the fixed-zero d11 on row 7, and the four open differentials.
The column is read from the rule positions and the `unresolved` map: an
operator rule out of an entry's (s, t, local) turns it into the kernel
sheaf, and each open differential takes its `unresolved` value, "zero" or
"iso".  Every affected output line carries an explicit `assumed` marker; no
report silently depends on a guess.
"""

from __future__ import annotations

import json
import os
from math import prod

from . import data_dir, take
from .abelian import ExtensionWitness, FgAbGroup, _valuation, resolve_extension
from .errors import NoFact
from .numbrauer import PlaceSpec, brauer_laurent, brauer_localized_integers
from .record import record
from .sheaftab import (
    KStarVShriek,
    QuasiCoherent,
    R1jGm,
    SheafSymbol,
    cohomology,
    cohomology_order,
    kstar_vshriek_h1_basis,
    sheaf_display,
    sheaf_from_json,
)
from .ssengine import (DifferentialRule, Entry, _operator_kernel_entry, _rule_from_json,
                       assemble_abutment_by_orders)

UNRESOLVED_NAMES = ("d13_row5", "d25_row5", "d23_row7", "d9_lbr_row6")

# the open differentials that could still shrink the column-0 stage (s, local)
OPEN_AT_STAGE = {(5, 2): ("d13_row5", "d25_row5"), (7, 2): ("d23_row7",)}


@record
class TmfPageData:
    # (s, local, entry, the operator rule out of its (s, t, local) or None)
    column0: tuple[tuple[int, int, SheafSymbol, DifferentialRule | None], ...]
    unresolved: dict[str, str]
    pic_witness: ExtensionWitness  # the suspension class; an order of 0 would hang _valuation
    c4inv: tuple[FgAbGroup, FgAbGroup, bool]  # H^0(u_*Q), the k_* sections, split
    lbr_mo: tuple[int, str, tuple[int, ...]]  # 2-local kernel order, its footnote, O/(2,j) rows
    citations: tuple[str, ...]  # of the column-0 entries and the rules, sorted
    c4inv_citation: str
    lbr_mo_citation: str

    def __post_init__(self):
        if set(self.unresolved) != set(UNRESOLVED_NAMES):
            raise ValueError(f"unresolved set must be exactly {UNRESOLVED_NAMES}")
        for name, value in self.unresolved.items():
            if value not in ("zero", "iso"):
                raise ValueError(f"{name!r} must be \"zero\" or \"iso\", not {json.dumps(value)}")

    @classmethod
    def load(cls) -> "TmfPageData":
        """Read and check data/tmf_pages.json.  Rules are read by `ssengine._rule_from_json`;
        only operator and zero rules apply, at most one operator rule leaves each source,
        and no two rules share (r, s, t, local): d∘d = 0 is vacuous."""
        def cited(obj: dict, what: str) -> str:
            if not take(obj, "citation", "string"):
                raise ValueError(f"{what} lacks a citation")
            return obj["citation"]

        with open(os.path.join(data_dir(), "tmf_pages.json")) as fh:
            raw = json.load(fh)
        positions, operators, names, citations = set(), {}, set(), set()
        for obj in take(raw, "special_rules", "[object]"):
            name = take(obj, "name", "string")
            cited(obj, f"rule {name}")
            rule = _rule_from_json(obj, {}, "citation")
            citations.add(rule.provenance)
            if name == "d11_77" and rule.kind != "zero":
                raise ValueError("d11 on row 7 is fixed to zero")
            if rule.kind not in ("operator", "zero"):
                raise ValueError(f"rule {name}: 'kind' must be operator or zero, not {rule.kind!r}")
            names.add(name)
            source = rule.source + (take(obj, "local", "int", 0),)
            key = (rule.r,) + source
            if key in positions:
                raise ValueError(f"duplicate rule at {key}")
            positions.add(key)
            if rule.kind == "operator":
                if source in operators:
                    raise ValueError(f"two operator rules out of {source}")
                operators[source] = rule
        if "d11_77" not in names:
            raise ValueError("the fixed-zero d11 on row 7 must be present")
        column0 = []
        for item in take(raw, "column0", "[object]"):
            s, t = take(item, "s", "int"), take(item, "t", "int")
            local = take(item, "local", "int", 0)
            citations.add(cited(item, f"column-0 entry at ({s},{t})"))
            column0.append((s, local, sheaf_from_json(take(item, "entry", "object")),
                            operators.get((s, t, local))))
        c4inv, lbr_mo = take(raw, "c4inv", "object"), take(raw, "lbr_mo", "object")
        pic_witness = take(raw, "pic_witness", "object")
        cited(pic_witness, "pic_witness")
        return cls(tuple(column0), dict(take(raw, "unresolved", "object")),
                   ExtensionWitness(take(pic_witness, "order", "int"), True),
                   (FgAbGroup.from_json(take(c4inv, "h0_u_q", "object")),
                    FgAbGroup.from_json(take(c4inv, "kstar_h0", "object")),
                    take(c4inv, "split", "bool", False)),
                   (take(lbr_mo, "two_local_kernel_order", "int"),
                    take(lbr_mo, "kernel_footnote", "string"),
                    tuple(take(lbr_mo, "rows_o2j", "[int]"))),
                   tuple(sorted(citations)), cited(c4inv, "c4inv"), cited(lbr_mo, "lbr_mo"))


# ---------------------------------------------------------------------------
# column-0 filtration (the pi_0 Picard sheaf)
# ---------------------------------------------------------------------------


@record
class GrStage:
    s: int
    symbol: SheafSymbol | None  # upper bound; None means zero
    local: int  # 0 = integral, 2/3 = p-local piece
    exact: bool  # False when an unresolved differential could shrink it
    assumed: tuple[str, ...] = ()

    def display(self) -> str:
        body = "0" if self.symbol is None else sheaf_display(self.symbol)
        if not self.exact:
            body = f"⊆ {body}"
        if self.assumed:
            body += " [assuming " + ", ".join(self.assumed) + " = 0]"
        if self.local:
            body += f" ({self.local}-local)"
        return body


def run_pic_tmf(data: TmfPageData) -> tuple[GrStage, ...]:
    """The column-0 filtration of the Picard sheaf of TMF over the j-line, as
    its stages sorted by (s, local).

    gr^0 = Z/2, gr^1 = R^1j_*G_m, gr^3 = k_*v_!Z/2, gr^5 = b_*Z/3 plus (a
    subgroup of) the extension A of a_*Z/2 by O/(2,j), gr^7 ⊆ O/(2,j), and
    gr^s = 0 for s > 7.  The open differentials of `OPEN_AT_STAGE` shrink
    the row-5 and row-7 pieces only; each affected stage is marked, and one
    set to "iso" in `data.unresolved` kills its stage.
    """
    stages: list[GrStage] = []
    for s, local, symbol, rule in data.column0:
        if rule is not None:
            symbol = _operator_kernel_entry(Entry(symbol), rule).value
        open_here = OPEN_AT_STAGE.get((s, local), ())
        killed = any(data.unresolved[n] == "iso" for n in open_here)
        stages.append(GrStage(s, None if killed else symbol, local, exact=killed or not open_here,
                              assumed=tuple(n for n in open_here if data.unresolved[n] != "iso")))
    return tuple(sorted(stages, key=lambda g: (g.s, g.local)))


# ---------------------------------------------------------------------------
# global Picard groups
# ---------------------------------------------------------------------------


def _stage_section_order(stage: GrStage, p: int) -> int:
    """p-part of the order of H^0(A1; gr^s)."""
    if stage.symbol is None or stage.local not in (0, p):
        return 1
    return p ** _valuation(cohomology_order(stage.symbol, 0, "A1"), p)


def pic_tmf_global(data: TmfPageData) -> dict[int, FgAbGroup]:
    """Pic(TMF) localized at 2, 3 and 5, assembled from the column-0
    global-section orders with the order-576 suspension witness.

    2-locally the section orders along the filtration are 2, 4, 1, 4, 2 and
    the witness makes every stage cyclic, giving Z/64; 3-locally the orders
    3, 3 give Z/9; there is no 5-torsion anywhere in the column.  The
    assembly starts from the deepest stage, so the orders go in by
    descending s.
    """
    stages = run_pic_tmf(data)
    out: dict[int, FgAbGroup] = {}
    for p in (2, 3, 5):
        orders = [_stage_section_order(g, p) for g in reversed(stages)]
        witness = ExtensionWitness(p ** _valuation(data.pic_witness.witness_order, p),
                                   maps_to_generator_of_quotient=True)
        out[p] = assemble_abutment_by_orders(orders, witness)
    return out


def pic_tmf_c4inv(data: TmfPageData) -> FgAbGroup:
    """Pic of TMF with the modular form c4 inverted: Z/2 ⊕ Z/8.

    Over the punctured j-line the Brauer and Picard obstructions of the base
    vanish (Br(Z[j^{±1}]) = 0 from the Laurent formula and Pic(Z[j^{±1}]) =
    0), the quotient sheaf contributes global sections Z/8, the k_* piece a
    Z/2, and the suspension class splits the extension.
    """
    if not brauer_laurent([PlaceSpec("real")], set()).is_zero():
        raise NoFact("Br of the Laurent base ring unexpectedly nonzero")
    h0_q, kstar, split = data.c4inv
    if not split:
        return resolve_extension(kstar, h0_q,
                                 ExtensionWitness(h0_q.order(), True))
    return kstar.direct_sum(h0_q)


@record
class PicTmfRReport:
    ring: str
    pic_r: FgAbGroup
    quotient: FgAbGroup  # the constant Z/24 quotient of the section sheaf
    h0_ideal_order: int  # sections of the positive-filtration piece
    sections_order: int
    total_order: int
    notes: tuple[str, ...] = ()


def pic_tmf_r(r, data: TmfPageData) -> PicTmfRReport:
    """The two exact sequences computing Pic(TMF_R) for étale R over Z, given
    as a `kofam.EtaleRingDescriptor`:
    0 → Pic(R) → Pic(TMF_R) → H^0(A^1_R; pi_0 pic) → 0 and
    0 → H^0(A^1_R; I) → H^0(A^1_R; pi_0 pic) → Z/24 → 0,
    where I is the filtration-positive part supported at (2,j) and (3,j).
    """
    if not r.connected:
        raise ValueError("'connected' is false: pic_tmf_r handles connected rings; sum components")
    # the quotient: gr^1 sections Z/12 extended by gr^0 = Z/2 with the
    # order-24 witness (the 24-periodicity of the suspension over R)
    gr1_sections = cohomology(R1jGm(), 0, "A1").group()
    quotient = resolve_extension(gr1_sections, FgAbGroup.cyclic(2),
                                 ExtensionWitness(24, True))
    notes: list[str] = []
    stages = run_pic_tmf(data)
    h0_ideal = 1
    for p, support in ((2, "the (2,j)-supported pieces vanish"),
                       (3, "the (3,j)-supported piece vanishes")):
        if p in r.inverted_primes:
            notes.append(f"{p} is invertible in R: {support}")
            continue
        for g in stages:
            if g.s >= 3:
                h0_ideal *= _stage_section_order(g, p)
    sections_order = h0_ideal * quotient.order()
    total = r.pic.order() * sections_order
    return PicTmfRReport(r.name, r.pic, quotient, h0_ideal,
                         sections_order, total, tuple(notes))


# ---------------------------------------------------------------------------
# local Brauer groups
# ---------------------------------------------------------------------------


@record
class LbrTmfReport:
    window: int
    three_torsion: FgAbGroup
    p_gt_3_torsion: FgAbGroup
    two_local_basis: tuple[str, ...]
    certified_prefix: int
    split_surjection: bool
    kernel_finite: bool
    kernel_order_bound: int
    br_pi0_zero: bool
    assumed: tuple[str, ...] = ()


def _lbr_common(window: int, data: TmfPageData) -> tuple:
    """What lbr_tmf and lbr_m_o share, read off the stages of `run_pic_tmf`: the sum G of
    H^1(A^1; gr^s) over all stages but k_*v_!Z/2, the monomial basis j^2, j^4, ... of that
    one's H^1 up to the window's certified prefix, the prefix, and the stages' assumed names."""
    if window < 8:
        raise ValueError("window must be at least 8")
    stages = run_pic_tmf(data)
    h1 = FgAbGroup.zero().direct_sum(*(cohomology(g.symbol, 1, "A1").group() for g in stages
                                      if g.symbol and not isinstance(g.symbol, KStarVShriek)))
    degrees, prefix = kstar_vshriek_h1_basis(window)
    return (h1, tuple(f"j^{d}" for d in degrees), prefix,
            tuple(n for g in stages for n in g.assumed))


def lbr_tmf(window: int = 32, data: TmfPageData | None = None) -> LbrTmfReport:
    """Structure of the local Brauer group of TMF.

    2-locally there is a split surjection onto an infinite F_2-space with certified
    independent monomial basis j^2, j^4, ... (truncated at the window).  The rest is G of
    `_lbr_common`: its 3-primary part is the 3-torsion, its part prime to 6 the p-torsion
    for p > 3, and its 2-primary part bounds the kernel.
    Br(pi_0 TMF) = Br(Z[j]) = 0 enters as the base-ring input.
    """
    h1, basis, prefix, assumed = _lbr_common(window, data or TmfPageData.load())
    n = prod(h1.invariant_factors)
    two, three = 2 ** _valuation(n, 2), 3 ** _valuation(n, 3)
    return LbrTmfReport(
        window=window,
        three_torsion=h1.torsion(three),
        p_gt_3_torsion=h1.torsion(n // (two * three)),
        two_local_basis=basis,
        certified_prefix=prefix,
        split_surjection=True,
        kernel_finite=h1.is_finite(),
        kernel_order_bound=two,
        # Br(Z[j]) = Br(Z): Spec Z[1/p] is dense in Spec Z for every p, so
        # the affine-line comparison Br(S) = Br(S[x]) holds prime by prime
        br_pi0_zero=brauer_localized_integers([PlaceSpec("real")]).is_zero(),
        assumed=assumed,
    )


@record
class LbrMOReport:
    window: int
    two_local_kernel_order: int
    kernel_footnote: str
    two_local_basis: tuple[str, ...]
    three_local: FgAbGroup
    iso_after_inverting_2: bool
    cokernel_order_bound: int
    generator_map: tuple[tuple[str, str], ...]
    injection_distinct: bool
    assumed: tuple[str, ...] = ()


def lbr_m_o(window: int = 32, data: TmfPageData | None = None) -> LbrMOReport:
    """The local Brauer group of the sheaf-level theory and its comparison
    with lbr_tmf: surjection onto the truncated F_2-space with 2-local
    kernel of order 8, Z/3 3-locally, and an isomorphism after inverting 2;
    the 2-local cokernel of the reverse injection is bounded by the O/(2,j)
    entries in rows 6, 18 and 30, pending the open d9 on row 6.
    """
    data = data or TmfPageData.load()
    h1, basis, _, _ = _lbr_common(window, data)
    kernel_order, footnote, rows = data.lbr_mo
    # cokernel bound: each O/(2,j) row contributes sections of order 2
    per_row = cohomology_order(QuasiCoherent("O/(2,j)"), 0, "A1")
    cokernel_bound = per_row ** len(rows)
    generator_map = tuple((g, g) for g in basis)
    distinct = len({img for _, img in generator_map}) == len(generator_map)
    assumed = ("d9_lbr_row6",) if data.unresolved["d9_lbr_row6"] == "zero" else ()
    return LbrMOReport(
        window=window,
        two_local_kernel_order=kernel_order,
        kernel_footnote=footnote,
        two_local_basis=basis,
        three_local=h1.torsion(3 ** _valuation(prod(h1.invariant_factors), 3)),
        iso_after_inverting_2=True,
        cokernel_order_bound=cokernel_bound,
        generator_map=generator_map,
        injection_distinct=distinct,
        assumed=assumed,
    )
