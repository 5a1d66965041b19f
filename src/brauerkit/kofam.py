"""Pic(KO_R) and LBr(KO) for étale Z-algebras via C_2 fixed-point spectral
sequences.

The additive sequence has E_2^{s,t} = H^s(C_2; pi_t KU) with pi_t the Bott
classes (trivial action for t ≡ 0 mod 4, sign action for t ≡ 2 mod 4, zero
in odd degrees) and a d_3 pattern that is an isomorphism on the torsion
classes eta^s beta^k with k odd and a surjection with kernel 2Z when s = 0.
The Picard sequence shares that data one degree up, has the universal
Artin-Schreier differential d_3(x) = x + x^2 on R/2 in position (3,3), and
abuts to Pic(KO_R) through a filtration with graded pieces Z/2, units[2],
and (Z/2)^d where d is the number of residue factors of R/2; the suspension
class of order 8 (order 4 when d = 0) resolves all extensions.
"""

from __future__ import annotations

from . import take
from .abelian import (
    _MR_EXACT_BELOW,
    ExtensionWitness,
    FgAbGroup,
    GroupHom,
    _is_prime,
    resolve_extension,
)
from .cyccoh import cohomology_row, group_cohomology, sign, trivial
from .numbrauer import DivisibleGroupDescriptor, PlaceSpec, brauer_localized_integers
from .record import record
from .sheaftab import ClosedPush, Constant, cohomology
from .ssengine import (
    DifferentialRule,
    Entry,
    SSPage,
    assemble_abutment,
    turn_page,
)


@record
class EtaleRingDescriptor:
    """Arithmetic data of an étale Z-algebra R used by the KO drivers."""

    name: str
    units: FgAbGroup
    pic: FgAbGroup
    residue_field_degrees_at_2: tuple[int, ...]  # R/2 = prod F_{2^m_i}
    connected: bool = True
    inverted_primes: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.pic.is_finite():
            raise ValueError(f"'pic' must be finite, as a class group is, not {self.pic}")
        if any(m < 1 for m in self.residue_field_degrees_at_2):
            raise ValueError("'residue_field_degrees_at_2' must list degrees of at least 1, "
                             f"not {list(self.residue_field_degrees_at_2)}")
        ps = self.inverted_primes
        if len(set(ps)) != len(ps) or not all(p < _MR_EXACT_BELOW and _is_prime(p) for p in ps):
            raise ValueError(f"'inverted_primes' must list distinct primes below {_MR_EXACT_BELOW}")
        if 2 in self.inverted_primes and self.residue_field_degrees_at_2:
            raise ValueError("a ring with 2 inverted has no residue fields at 2")
        object.__setattr__(self, "residue_field_degrees_at_2",
                           tuple(self.residue_field_degrees_at_2))
        object.__setattr__(self, "inverted_primes", tuple(sorted(self.inverted_primes)))

    @property
    def d(self) -> int:
        return len(self.residue_field_degrees_at_2)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "units": self.units.to_json(),
            "pic": self.pic.to_json(),
            "residue_field_degrees_at_2": list(self.residue_field_degrees_at_2),
            "connected": self.connected,
            "inverted_primes": list(self.inverted_primes),
        }

    @classmethod
    def from_json(cls, data: dict) -> "EtaleRingDescriptor":
        return cls(
            take(data, "name", "string"),
            FgAbGroup.from_json(take(data, "units", "object")),
            FgAbGroup.from_json(take(data, "pic", "object")),
            tuple(take(data, "residue_field_degrees_at_2", "[int]", ())),
            take(data, "connected", "bool", True),
            tuple(take(data, "inverted_primes", "[int]", ())),
        )


SHIPPED_RINGS: dict[str, EtaleRingDescriptor] = {
    "Z": EtaleRingDescriptor(
        "Z", units=FgAbGroup.cyclic(2), pic=FgAbGroup(), residue_field_degrees_at_2=(1,)),
    # w = (1+√17)/2 in K = Q(√17); 17 ≡ 1 mod 8, so 2 splits and the residue
    # degrees at 2 are (1, 1); the units are ±1, a fundamental unit and √17
    "Z[w][1/17]": EtaleRingDescriptor(
        "Z[w][1/17]", units=FgAbGroup(2, (2,)), pic=FgAbGroup(),
        residue_field_degrees_at_2=(1, 1), inverted_primes=(17,)),
    "Z[1/2,zeta4]": EtaleRingDescriptor(
        "Z[1/2,zeta4]", units=FgAbGroup(1, (4,)), pic=FgAbGroup(),
        residue_field_degrees_at_2=(), inverted_primes=(2,)),
    "Z[1/3,zeta3]": EtaleRingDescriptor(
        "Z[1/3,zeta3]", units=FgAbGroup(1, (6,)), pic=FgAbGroup(),
        residue_field_degrees_at_2=(2,), inverted_primes=(3,)),
}


# ---------------------------------------------------------------------------
# the additive sequence
# ---------------------------------------------------------------------------


def _bott_power(s: int, t: int) -> int | None:
    """k with eta^s beta^k in position (s, t), or None if no class sits there."""
    if t % 2 or (t - 2 * s) % 4:
        return None
    return (t - 2 * s) // 4


def ku_additive_pages(r: EtaleRingDescriptor, s_max: int = 10,
                      t_range: tuple[int, int] = (0, 12)) -> list[SSPage]:
    """[E_2, E_3, E_4] of the additive C_2 fixed-point sequence for KO_r.

    Only the rank-one (Z-span) Bott pattern is encoded; étale descriptors
    enter through the Picard driver, not here.
    """
    if not r.connected:
        raise ValueError("additive pages are built componentwise")
    entries: dict[tuple[int, int], Entry] = {}
    # H^s(C_2; pi_t KU) depends only on t mod 4 (trivial or sign action): each
    # row's nonzero groups and eta powers are found once; (s, t) holds eta^s beta^k, 4k = t - 2s
    rows = {k: [(s, h, _power("η", s))
                for s, h in enumerate(cohomology_row(action(FgAbGroup.free(1)), s_max))
                if not h.is_zero()] if s_max >= 0 else []
            for k, action in ((0, trivial), (2, sign))}
    t_lo, t_hi = t_range
    for t in range(t_lo + t_lo % 2, t_hi + 1, 2):  # odd t carry nothing
        for s, h, eta in rows[t % 4]:
            entries[(s, t)] = Entry(h, eta + _power("β", (t - 2 * s) // 4) or "1", 1, ())
    e2 = SSPage(2, entries)
    e3 = turn_page(e2, [])  # d_2 vanishes: no odd rows
    rules = ku_additive_d3_rules(e3)
    e4 = turn_page(e3, rules)
    return [e2, e3, e4]


def _power(symbol: str, n: int) -> str:
    return "" if n == 0 else symbol if n == 1 else f"{symbol}^{n}"


def ku_additive_d3_rules(e3: SSPage) -> list[DifferentialRule]:
    """The d_3 pattern: d_3(eta^s beta^k) = k * eta^{s+3} beta^{k-1}.

    Nonzero exactly when k is odd; an isomorphism for s >= 1 and a
    surjection Z -> Z/2 with kernel 2Z (the index-two class) for s = 0.
    Composites vanish automatically because k drops parity.
    """
    onto = GroupHom(FgAbGroup.free(1), FgAbGroup.cyclic(2), ((1,),))  # every s = 0 rule's hom
    rules = []
    # fields by position: r, source, kind, hom, operator, surjective, name, provenance, relabel
    for (s, t) in e3.entries:
        k = _bott_power(s, t)
        if k is None or k % 2 == 0:
            continue
        if s == 0:
            rules.append(DifferentialRule(
                3, (s, t), "matrix", onto, None, False, "",
                "Bott-pattern d3 on beta^k, k odd: surjection with kernel 2Z",
                "2□" if k == 1 else f"2β^{k}"))
        else:
            rules.append(DifferentialRule(
                3, (s, t), "iso", None, None, False, "",
                "Bott-pattern d3 on eta^s beta^k, k odd: isomorphism", ""))
    return rules


# ---------------------------------------------------------------------------
# the Picard sequence
# ---------------------------------------------------------------------------


@record
class PicKOResult:
    group: FgAbGroup
    graded: tuple[tuple[int, FgAbGroup], ...]
    sections: FgAbGroup  # H^0(Spec R; pi_0 pic), the column-0 abutment
    witness_order: int
    notes: tuple[str, ...] = ()


def pic_ko(r: EtaleRingDescriptor, d3_21: str = "zero") -> PicKOResult:
    """Pic(KO_r) from the Picard fixed-point sequence.

    Column 0 of the abutment carries gr^0 = Z/2, gr^1 = H^1(C_2; units)
    (trivial action, so the 2-torsion of the units), and gr^3 = (Z/2)^d cut
    out by d_3(x) = x + x^2 on R/2; the suspension class of order 8 (4 when
    d = 0) resolves the extensions, and Pic(R) splits off.  The d3_21 knob
    never reaches column 0: it leaves the answer as it is, and "unknown"
    adds a note saying so.
    """
    if d3_21 not in ("zero", "nonzero", "unknown"):
        raise ValueError("d3_21 must be 'zero', 'nonzero', or 'unknown'")
    if not r.connected:
        raise ValueError("'connected' is false: pic_ko handles connected rings; sum components")
    gr0 = FgAbGroup.cyclic(2)
    gr1 = group_cohomology(trivial(r.units), 1)
    # x^2 = x has exactly the solutions F_2 in every residue field F_{2^m}
    gr3 = FgAbGroup.from_orders([2] * r.d)
    graded = [(0, gr0), (1, gr1), (3, gr3)]
    witness_order = 8 if r.d >= 1 else 4
    witness = ExtensionWitness(witness_order, maps_to_generator_of_quotient=True)
    sections = assemble_abutment([(s, g) for s, g in graded if not g.is_zero()], witness)
    notes = []
    if d3_21 == "unknown":
        notes.append("d3_21 left unresolved; column 0 is disjoint from its "
                     "source and target, so the answer is unaffected")
    if r.pic.is_zero():
        total = sections
    elif r.pic.order() % 2:
        total = r.pic.direct_sum(sections)  # odd-order kernel splits off
        notes.append("Pic(R) has odd order and splits off the 2-power part")
    else:
        total = resolve_extension(r.pic, sections, ExtensionWitness(witness_order))
    return PicKOResult(total, tuple((s, g) for s, g in graded), sections,
                       witness_order, tuple(notes))


# ---------------------------------------------------------------------------
# LBr(KO)
# ---------------------------------------------------------------------------


@record
class OmniReport:
    """The six-term exact-sequence data H^1(Gm) -> ... -> H^3(Gm) with the
    local Brauer group extracted when the connecting data is decided."""

    terms: tuple[tuple[str, FgAbGroup | DivisibleGroupDescriptor], ...]
    lbr: FgAbGroup | None
    exact: bool
    notes: tuple[str, ...] = ()


def omni_assemble(h1_gm, h0_pi1, h2_gm, h1_pi1, h3_gm) -> OmniReport:
    """Assemble 0 -> H^2(Gm) -> LBr -> ker(d2: H^1(pi_1) -> H^3(Gm)) -> 0.

    The Picard sheaf map is surjective and d2 vanishes, so the kernel term
    is all of H^1(pi_1).  LBr is returned exactly when one outer term
    vanishes, otherwise symbolically as the two outer terms.
    """
    terms = (("H1(Gm)", h1_gm), ("H0(pi1)", h0_pi1), ("H2(Gm)", h2_gm),
             ("H1(pi1)", h1_pi1), ("H3(Gm)", h3_gm))
    lbr = h1_pi1 if h2_gm.is_zero() else h2_gm if h1_pi1.is_zero() else None
    exact = lbr is not None
    return OmniReport(terms, lbr, exact,
                      () if exact else ("both outer terms nonzero; extension undecided",))


def lbr_ko() -> OmniReport:
    """LBr(KO) = Z/2: H^2(Spec Z; Gm) = Br(Z) = 0 and the kernel term is
    H^1(Spec Z; i_*Z/2) = H^1(Spec F_2; Z/2) = Z/2 with vanishing d2.
    H^1(Gm) is Pic(Z) and H^0(pi_1) the sections of the constant Z/2."""
    h1_pi1 = cohomology(ClosedPush("(2)", FgAbGroup.cyclic(2), "SpecF2"),
                        1, "SpecZ").group()
    return omni_assemble(h1_gm=SHIPPED_RINGS["Z"].pic,
                         h0_pi1=cohomology(Constant(FgAbGroup.cyclic(2)), 0, "SpecZ").group(),
                         h2_gm=brauer_localized_integers([PlaceSpec("real")]),
                         h1_pi1=h1_pi1, h3_gm=FgAbGroup.zero())
