"""Symbolic étale sheaves on Spec Z, Spec F_p, and the affine j-line.

Cohomology is evaluated by a small rule set backed by a versioned fact table
(data/sheaf_facts.json), never by computing on actual sites:

  R1  closed pushforwards compute on the residue site;
  R2  H^s(Spec F_q; A) = A for s in {0, 1} and 0 above (trivial action);
  R3  H^1 of a constant finite sheaf on Spec Z (or the affine line over it)
      is the sum of the fact table's values for its cyclic summands (all 0);
  R4  quasi-coherent sheaves on affines have no higher cohomology;
  R5  the Artin-Schreier kernel sheaf k_*v_!Z/2 has H^0 = 0 and H^1 an
      infinite F_2-space with truncated monomial basis, both via `charp`;
  R6  extensions assemble through the long exact sequence when vanishing (or a
      witness) decides the connecting maps; a short exact one gives the order.

Whenever no rule applies the answer is Unknown(reason) — never a guess.
"""

from __future__ import annotations

import json
import os

from . import data_dir, take
from .abelian import ExtensionWitness, FgAbGroup, resolve_extension
from .charp import TruncatedCharPModule, operator_cokernel_basis, operator_kernel, parse_operator
from .errors import AmbiguousExtension, NoFact
from .numbrauer import DivisibleGroupDescriptor
from .record import record


# ---------------------------------------------------------------------------
# sheaf symbols
# ---------------------------------------------------------------------------


class SheafSymbol:
    """Base class of the tagged union; each concrete symbol is a frozen
    `record` whose fields are its data."""


@record
class Constant(SheafSymbol):
    group: FgAbGroup


@record
class ClosedPush(SheafSymbol):
    """Pushforward of a constant sheaf from a closed point or closed copy
    of Spec Z; `residue_site` says where the fibre cohomology happens."""

    point: str
    group: FgAbGroup
    residue_site: str

    def __post_init__(self):
        if self.residue_site not in ("SpecF2", "SpecF3", "SpecZ"):
            raise ValueError(f"unknown residue site {self.residue_site!r}")


_QC_NAMES = ("O", "O/2", "O/(2,j)", "O/(3,j)", "omega2")


@record
class QuasiCoherent(SheafSymbol):
    name: str

    def __post_init__(self):
        if self.name not in _QC_NAMES:
            raise ValueError(f"unknown quasi-coherent symbol {self.name!r}")

    @property
    def canonical_name(self) -> str:
        # omega2 is isomorphic to O/2 (square-zero Witt story out of scope)
        return "O/2" if self.name == "omega2" else self.name


@record
class KStarVShriek(SheafSymbol):
    """k_*v_!Z/2 on the affine j-line in characteristic 2."""


@record
class R1jGm(SheafSymbol):
    """First derived pushforward of G_m along the coarse map to the j-line."""


@record
class DirectSum(SheafSymbol):
    summands: tuple[SheafSymbol, ...]


@record
class SheafExtension(SheafSymbol):
    sub: SheafSymbol
    quot: SheafSymbol
    nontrivial: bool = False
    witness: ExtensionWitness | None = None


def canonical_r1jgm() -> SheafExtension:
    """R^1j_*G_m presented as an extension of the constant sheaf Z/2 by
    skyscrapers Z/3 at j = 0 and Z/2 at j = 1728 (pushed from Spec Z)."""
    sub = DirectSum((
        ClosedPush("j=0", FgAbGroup.cyclic(3), "SpecZ"),
        ClosedPush("j=1728", FgAbGroup.cyclic(2), "SpecZ"),
    ))
    return SheafExtension(sub, Constant(FgAbGroup.cyclic(2)), nontrivial=True,
                          witness=ExtensionWitness(12, maps_to_generator_of_quotient=True))


# --- JSON (used by spectral-sequence page files) ---------------------------


def sheaf_to_json(f: SheafSymbol) -> dict:
    if isinstance(f, Constant):
        return {"type": "constant", "group": f.group.to_json()}
    if isinstance(f, ClosedPush):
        return {"type": "closed_push", "point": f.point,
                "group": f.group.to_json(), "residue_site": f.residue_site}
    if isinstance(f, QuasiCoherent):
        return {"type": "quasi_coherent", "name": f.name}
    if isinstance(f, KStarVShriek):
        return {"type": "kstar_vshriek"}
    if isinstance(f, R1jGm):
        return {"type": "r1jgm"}
    if isinstance(f, DirectSum):
        return {"type": "direct_sum", "summands": [sheaf_to_json(g) for g in f.summands]}
    if isinstance(f, SheafExtension):
        out: dict = {"type": "extension", "sub": sheaf_to_json(f.sub),
                     "quot": sheaf_to_json(f.quot), "nontrivial": f.nontrivial}
        if f.witness is not None:
            out["witness"] = {"order": f.witness.witness_order,
                              "generates_quotient": f.witness.maps_to_generator_of_quotient}
        return out
    raise TypeError(f"not a sheaf symbol: {f!r}")


def sheaf_from_json(data: dict) -> SheafSymbol:
    t = take(data, "type", "string")
    if t == "constant":
        return Constant(FgAbGroup.from_json(take(data, "group", "object")))
    if t == "closed_push":
        return ClosedPush(take(data, "point", "string"), FgAbGroup.from_json(take(data, "group", "object")),
                          take(data, "residue_site", "string"))
    if t == "quasi_coherent":
        return QuasiCoherent(take(data, "name", "string"))
    if t == "kstar_vshriek":
        return KStarVShriek()
    if t == "r1jgm":
        return R1jGm()
    if t == "direct_sum":
        return DirectSum(tuple(sheaf_from_json(g) for g in take(data, "summands", "[object]")))
    if t == "extension":
        w = take(data, "witness", "object", {})
        witness = ExtensionWitness(
            take(w, "order", "int"), take(w, "generates_quotient", "bool", False)) if w else None
        return SheafExtension(sheaf_from_json(take(data, "sub", "object")),
                              sheaf_from_json(take(data, "quot", "object")),
                              take(data, "nontrivial", "bool", False), witness)
    raise ValueError(f"unknown sheaf symbol type {t!r}")


def sheaf_display(f: SheafSymbol) -> str:
    if isinstance(f, Constant):
        return str(f.group)
    if isinstance(f, ClosedPush):
        return f"i[{f.point}]_*({f.group})"
    if isinstance(f, QuasiCoherent):
        return f.name
    if isinstance(f, KStarVShriek):
        return "k_*v_!Z/2"
    if isinstance(f, R1jGm):
        return "R1j_*Gm"
    if isinstance(f, DirectSum):
        return " ⊕ ".join(sheaf_display(g) for g in f.summands)
    if isinstance(f, SheafExtension):
        tag = "!" if f.nontrivial else ""
        return f"ext{tag}({sheaf_display(f.sub)}; {sheaf_display(f.quot)})"
    return repr(f)


# ---------------------------------------------------------------------------
# fact table
# ---------------------------------------------------------------------------


class FactTable:
    """Cohomology facts by (sheaf, site, degree): a sheaf symbol for `ker(...)`, else a group."""

    def __init__(self, entries: list):
        self._groups: dict[tuple[str, str, int], FgAbGroup] = {}
        self._kernels: dict[tuple[str, str, int], SheafSymbol] = {}
        for e in entries:
            key = (take(e, "sheaf", "string"), take(e, "site", "string"), take(e, "degree", "int"))
            if not take(e, "citation", "string"):
                raise ValueError(f"fact {key} lacks a citation")
            value = take(e, "value", "int" if e.get("value") == 0 else "object")
            if key[0].startswith("ker("):
                self._kernels[key] = sheaf_from_json(take(value, "symbol", "object"))
            else:
                self._groups[key] = FgAbGroup.from_json(value or {})

    @classmethod
    def load(cls) -> "FactTable":
        with open(os.path.join(data_dir(), "sheaf_facts.json")) as fh:
            return cls(json.load(fh))

    def lookup(self, sheaf: str, site: str, degree: int) -> FgAbGroup | None:
        """Group-valued fact, or None if absent."""
        return self._groups.get((sheaf, site, degree))

    def kernel_sheaf(self, operator_text: str, sheaf_name: str) -> SheafSymbol:
        """Sheaf-level kernel of a semilinear operator, from the fact table."""
        symbol = self._kernels.get((f"ker({operator_text} | {sheaf_name})", "A1", 0))
        if symbol is None:
            raise NoFact(f"no kernel fact for {operator_text} on {sheaf_name}")
        return symbol


_DEFAULT_TABLE: FactTable | None = None


def default_fact_table() -> FactTable:
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = FactTable.load()
    return _DEFAULT_TABLE


# ---------------------------------------------------------------------------
# cohomology evaluation
# ---------------------------------------------------------------------------


@record
class Unknown:
    reason: str
    rule: str = ""


Value = FgAbGroup | DivisibleGroupDescriptor | Unknown


@record
class CohomologyAnswer:
    value: Value

    def group(self) -> FgAbGroup:
        if not isinstance(self.value, FgAbGroup):
            raise NoFact(f"answer is not a finite group: {self.value}")
        return self.value


def _sum_values(values: list[Value]) -> Value:
    for v in values:
        if isinstance(v, Unknown):
            return v
    group = FgAbGroup.zero()
    descriptor = DivisibleGroupDescriptor.zero()
    infinite = False
    for v in values:
        if isinstance(v, FgAbGroup):
            group = group.direct_sum(v)
        else:
            descriptor = descriptor.direct_sum(v)
            infinite = True
    if not infinite:
        return group
    return descriptor.direct_sum(DivisibleGroupDescriptor(finite_part=group))


def cohomology(f: SheafSymbol, s: int, base: str) -> CohomologyAnswer:
    """H^s(base; F) by the rules R1-R6; Unknown carries the failing rule."""
    if s < 0:
        raise ValueError("degree must be nonnegative")
    default_fact_table()  # loaded even when no rule reads it: no data, no answer
    return CohomologyAnswer(_coh(f, s, base))


def _coh(f: SheafSymbol, s: int, base: str) -> Value:
    if isinstance(f, DirectSum):
        return _sum_values([_coh(g, s, base) for g in f.summands])
    if isinstance(f, ClosedPush):  # R1
        return _coh(Constant(f.group), s, f.residue_site)
    if isinstance(f, Constant):
        return _constant_cohomology(f.group, s, base)
    if isinstance(f, QuasiCoherent):  # R4
        if s > 0:
            return FgAbGroup.zero()
        fact = default_fact_table().lookup(f.canonical_name, base, 0)
        if fact is None:
            return Unknown(f"no global-sections fact for {f.name} on {base}", rule="R4")
        return fact
    if isinstance(f, KStarVShriek):  # R5
        return _kstar_vshriek_cohomology(s)
    if isinstance(f, R1jGm):
        return _coh(canonical_r1jgm(), s, base)
    if isinstance(f, SheafExtension):  # R6
        return _extension_cohomology(f, s, base)[0]
    raise TypeError(f"not a sheaf symbol: {f!r}")


def _constant_cohomology(group: FgAbGroup, s: int, base: str) -> Value:
    if base in ("SpecF2", "SpecF3"):  # R2: Galois group Z-hat, trivial action
        if not group.is_finite():
            return Unknown("infinite coefficients over a finite field", rule="R2")
        return group if s in (0, 1) else FgAbGroup.zero()
    if s == 0:  # all shipped sites are connected
        return group
    if base in ("SpecZ", "A1") and s == 1 and group.is_finite():  # R3
        facts = [default_fact_table().lookup(f"Z/{m}", base, 1) for m in group.invariant_factors]
        if None not in facts:
            return FgAbGroup.zero().direct_sum(*facts)
        return Unknown(f"H^1({base}; {group}) not in the fact table", rule="R3")
    return Unknown(f"no rule for H^{s} of a constant sheaf on {base}",
                   rule="R3" if s == 1 else "R2")


_KSTAR_WINDOW = 32


def _kstar_vshriek_cohomology(s: int) -> Value:
    op = parse_operator("x + j*x^2", 2)
    m = TruncatedCharPModule(2, (0, _KSTAR_WINDOW))
    if s == 0:
        basis, _ = operator_kernel(op, m)
        return FgAbGroup.zero() if not basis else Unknown("unexpected kernel", rule="R5")
    if s == 1:
        degrees, _ = kstar_vshriek_h1_basis(_KSTAR_WINDOW)
        return DivisibleGroupDescriptor(
            infinite_f2=True,
            infinite_f2_basis=", ".join(f"j^{d}" for d in degrees[:4]) + ", …")
    return FgAbGroup.zero()


def kstar_vshriek_h1_basis(window: int) -> tuple[list[int], int]:
    """The certified independent monomial degrees {2k : k >= 1} in H^1 and their prefix.

    The polynomial cokernel of x + jx^2 contains the even monomials; the
    constant class is supported at j = 0 and dies after the extension by
    zero, so the shipped basis starts at j^2.
    """
    op = parse_operator("x + j*x^2", 2)
    basis, prefix = operator_cokernel_basis(op, TruncatedCharPModule(2, (0, window)))
    return [d for d in basis if 1 <= d <= prefix], prefix


def _value_zero(v: Value) -> bool | None:
    return None if isinstance(v, Unknown) else v.is_zero()


def _extension_cohomology(f: SheafExtension, s: int, base: str) -> tuple[Value, int | None]:
    """H^s(base; F) by R6, and |H^s(sub)|·|H^s(quot)| where the value may
    not be a finite group but the long exact sequence is short exact on
    finite groups (H^{s-1}(quot) = H^{s+1}(sub) = 0); else None."""
    stalk = None
    # an extension concentrated at one closed point is the pushforward of the
    # resolved extension of stalks (pushforward along a closed immersion is
    # exact), so compute it on the residue site; if that stays undecided, the
    # outer terms below still decide the order
    if (isinstance(f.sub, ClosedPush) and isinstance(f.quot, ClosedPush) and f.witness is not None
            and (f.sub.point, f.sub.residue_site) == (f.quot.point, f.quot.residue_site)
            and f.sub.group.is_finite() and f.quot.group.is_finite()):
        try:
            resolved = resolve_extension(f.sub.group, f.quot.group, f.witness)
            stalk = _coh(ClosedPush(f.sub.point, resolved, f.sub.residue_site), s, base)
        except AmbiguousExtension:
            stalk = Unknown("witness does not pin down the stalk extension", rule="R6")
        if isinstance(stalk, FgAbGroup):
            return stalk, None
    a_s, b_s = _coh(f.sub, s, base), _coh(f.quot, s, base)
    if stalk is None and _value_zero(a_s) and _value_zero(b_s):
        return FgAbGroup.zero(), None
    if stalk is None and _value_zero(b_s):
        # ... -> H^{s-1}(quot) -> H^s(sub) -> H^s(F) -> 0
        if s == 0 or _value_zero(_coh(f.quot, s - 1, base)):
            return a_s, None
        return Unknown("connecting map into the sub-term undecided", rule="R6"), None
    if stalk is None and _value_zero(a_s):
        # 0 -> H^s(F) -> H^s(quot) -> H^{s+1}(sub)
        if _value_zero(_coh(f.sub, s + 1, base)):
            return b_s, None
        return Unknown("connecting map out of the quotient-term undecided", rule="R6"), None
    if not ((s == 0 or _value_zero(_coh(f.quot, s - 1, base)))
            and _value_zero(_coh(f.sub, s + 1, base))):
        return stalk or Unknown("long exact sequence does not collapse", rule="R6"), None
    if not all(isinstance(v, FgAbGroup) and v.is_finite() for v in (a_s, b_s)):
        return stalk or Unknown("short exact with an infinite term", rule="R6"), None
    order = a_s.order() * b_s.order()
    if stalk is not None or f.witness is None:
        return stalk or Unknown("short exact but no witness to resolve the extension",
                                rule="R6"), order
    try:
        return resolve_extension(a_s, b_s, f.witness), order
    except AmbiguousExtension:
        return Unknown("witness does not pin down the extension", rule="R6"), order


def cohomology_order(f: SheafSymbol, s: int, base: str) -> int:
    """Order of H^s even when the group structure stays ambiguous.

    For an extension whose long exact sequence collapses to a short exact
    sequence of finite groups, the order is the product of the outer orders
    regardless of the unresolved extension class.
    """
    default_fact_table()  # loaded even when no rule reads it: no data, no answer
    ans, order = (_extension_cohomology(f, s, base) if isinstance(f, SheafExtension)
                  else (_coh(f, s, base), None))
    if isinstance(ans, FgAbGroup) and ans.is_finite():
        return ans.order()
    if order is not None:
        return order
    raise NoFact(f"order of H^{s}({base}; {sheaf_display(f)}) is not decided")
