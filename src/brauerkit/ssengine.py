"""Bigraded spectral-sequence pages with rule-driven differentials.

Pages use Adams indexing: an entry sits at (s, t), charts are drawn in the
(t - s, s)-plane, and the page-r differential goes (s, t) -> (s+r, t+r-1).
Entries are finitely generated abelian groups, symbolic sheaves, or
truncated characteristic-p modules; differentials are declared as rules
(zero, isomorphism, explicit matrix, semilinear operator, or unresolved)
and `turn_page` replaces each entry by kernel-mod-image.  A turn recomputes
only the entries its differentials touch, with one computation per distinct
hom per turn; every other entry passes through as the same immutable
object, so beyond building the new page a turn's work grows with its
distinct differentials, not with the page.
Everything absent from the sparse entry map is zero.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from . import take
from .abelian import (
    ExtensionWitness,
    FgAbGroup,
    GroupHom,
    cokernel,
    homology,
    resolve_extension,
    resolve_extension_by_order,
)
from .charp import SemilinearOperator, TruncatedCharPModule, operator_kernel, parse_operator
from .errors import AmbiguousExtension, NoFact, UnmatchedRule
from .record import record, replace
from .sheaftab import (
    SheafSymbol,
    default_fact_table,
    sheaf_display,
    sheaf_from_json,
    sheaf_to_json,
)


@record
class CharPRef:
    """An operator-module pair standing in for a characteristic-p entry."""

    name: str
    module: TruncatedCharPModule


EntryValue = FgAbGroup | SheafSymbol | CharPRef


@record
class Entry:
    """A page entry with bookkeeping for index-two classes ("2□") and for
    unresolved differentials assumed to vanish."""

    value: EntryValue
    label: str = ""
    index: int = 1
    assumed: tuple[str, ...] = ()

    def is_zero(self) -> bool:
        return isinstance(self.value, FgAbGroup) and self.value.is_zero()

    def display(self) -> str:
        if isinstance(self.value, FgAbGroup):
            body = str(self.value)
        elif isinstance(self.value, CharPRef):
            body = self.value.name
        else:
            body = sheaf_display(self.value)
        if self.label:
            body = f"{self.label} = {body}" if self.index == 1 else f"{self.label}"
        if self.index != 1:
            body = f"{body} (index {self.index})"
        if self.assumed:
            body += " [assuming " + ", ".join(self.assumed) + " = 0]"
        return body


@record
class SSPage:
    """Page r with its nonzero entries by position.  The builders keep zero
    entries out (`turn_page` drops them, `page_from_json` skips them), so
    the page stores `entries` as given; a zero entry passed in stays."""

    r: int
    entries: dict[tuple[int, int], Entry]

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("pages start at r = 2")

    def entry(self, s: int, t: int) -> Entry | None:
        return self.entries.get((s, t))

    def target_of(self, s: int, t: int) -> tuple[int, int]:
        return (s + self.r, t + self.r - 1)


@record
class DifferentialRule:
    """A declared d_r out of one source position (s, t).

    kind: zero | iso | matrix | operator | unresolved.  Matrix rules carry a
    GroupHom; operator rules a SemilinearOperator plus a surjectivity flag
    that removes the target entry; unresolved rules name the open
    differential, which is then assumed zero with a visible marker.
    """

    r: int
    source: tuple[int, int]
    kind: str
    hom: GroupHom | None = None
    operator: SemilinearOperator | None = None
    surjective: bool = False
    name: str = ""
    provenance: str = ""
    relabel: str = ""

    def __post_init__(self):
        if self.kind not in ("zero", "iso", "matrix", "operator", "unresolved"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind == "matrix" and self.hom is None:
            raise ValueError("matrix rules need a GroupHom")
        if self.kind == "operator" and self.operator is None:
            raise ValueError("operator rules need a SemilinearOperator")
        if self.kind == "unresolved" and not self.name:
            raise ValueError("unresolved rules need a 'name'")
        if not self.provenance:
            raise ValueError("every rule carries provenance")

    def matches(self, s: int, t: int) -> bool:
        return self.source == (s, t)


def _validate_rules(page: SSPage, rules: Sequence[DifferentialRule]) -> None:
    for rule in rules:
        if rule.r != page.r:
            raise ValueError(f"rule for page {rule.r} applied to page {page.r}")
        if page.entry(*rule.source) is None:
            raise UnmatchedRule(f"rule source {rule.source} is a zero entry")
        if rule.kind == "matrix":  # into the group at its target, if the page has one there
            pos = page.target_of(*rule.source)
            target = page.entry(*pos)
            if target and isinstance(target.value, FgAbGroup) and target.value != rule.hom.target:
                raise ValueError(f"matrix rule at {rule.source} maps into {rule.hom.target}, "
                                 f"not the entry {target.value} at {pos}")
    # d∘d = 0: a matrix rule chained after another matrix rule must compose
    # to the zero map (same-page composites vanish positionally, so only
    # check explicitly provided homs that happen to chain)
    explicit = {rule.source: rule for rule in rules if rule.kind == "matrix"}
    for (s, t), rule in explicit.items():
        nxt = explicit.get((s + rule.r, t + rule.r - 1))
        if nxt is not None and not nxt.hom.compose(rule.hom).is_zero_hom():
            raise ValueError(f"d∘d ≠ 0 at ({s},{t}) on page {rule.r}")


def turn_page(page: SSPage, rules: Sequence[DifferentialRule]) -> SSPage:
    """Replace every entry by ker(outgoing d_r)/im(incoming d_r).

    Only the sources of `rules` and the entries they hit are recomputed, in
    ascending (s, t) order, so an error surfaces where a sweep over every
    entry would meet it first.  Any other entry, and a recomputed one that
    the turn leaves as it was, passes through as the same immutable
    `Entry`: beyond copying the entry map and building the page, a turn
    costs time in proportion to its differentials.  A memo for the one call,
    keyed by the hom records, computes each distinct hom's `cokernel` once
    and its `homology` once per incoming hom, however many rules carry it.
    """
    _validate_rules(page, rules)
    default_fact_table()  # loaded even when no rule reads it: no data, no page
    r = page.r
    index: dict[tuple[int, int], DifferentialRule] = {}
    repeated = set()  # sources of more than one rule: an error where the sweep meets them
    for rule in rules:
        if rule.source in index:
            repeated.add(rule.source)
        index[rule.source] = rule
    entries = page.entries
    touched = set(index)  # every rule source is an entry: _validate_rules checked
    for s, t in index:
        if (s + r, t + r - 1) in entries:
            touched.add((s + r, t + r - 1))
    killed: set = set()
    memo: dict = {}
    new_entries = dict(entries)
    for pos in sorted(touched):
        src = (pos[0] - r, pos[1] - r + 1)
        for s, t in (pos, src) if repeated else ():
            if (s, t) in repeated:
                raise ValueError(f"multiple rules match ({s},{t})")
        new = _evolve_entry(page, entries[pos], pos, index.get(pos), index.get(src), killed, memo)
        if new is None or new.is_zero():
            del new_entries[pos]
        else:
            new_entries[pos] = new
    for pos in killed:
        new_entries.pop(pos, None)
    return SSPage(r + 1, new_entries)


def _once(memo: dict, fn, *args):
    """fn(*args), computed on its first use in a turn: `memo` holds each
    result by the function and its arguments, the hom records."""
    key = (fn, *args)
    value = memo.get(key)
    if value is None:
        value = memo[key] = fn(*args)
    return value


def _evolve_entry(page, entry, pos, out_rule, in_rule, killed, memo):
    s, t = pos
    assumed = entry.assumed
    # incoming differential
    if in_rule is not None and in_rule.kind == "iso":
        return None  # killed by the incoming isomorphism
    if in_rule is not None and in_rule.kind == "unresolved":
        assumed = assumed + (in_rule.name,)
    if in_rule is not None and in_rule.kind != "matrix":
        in_rule = None  # a zero or unresolved d_r has no image
    # outgoing differential
    if out_rule is None or out_rule.kind == "zero":
        return _mod_image(entry, in_rule, assumed, memo)
    if out_rule.kind == "iso":
        killed.add(page.target_of(s, t))
        return None
    if out_rule.kind == "unresolved":
        return _mod_image(entry, in_rule, assumed + (out_rule.name,), memo)
    if out_rule.kind == "operator":
        new = _operator_kernel_entry(entry, out_rule)
        if out_rule.surjective:
            killed.add(page.target_of(s, t))
        return replace(new, assumed=assumed)
    # matrix rule
    if not isinstance(entry.value, FgAbGroup):
        raise NoFact(f"matrix rule on a non-group entry at ({s},{t})")
    hom = out_rule.hom
    if not hom.source.same_structure(entry.value):
        raise ValueError(f"rule at ({s},{t}) does not match the entry group")
    value = _once(memo, homology, hom, in_rule and in_rule.hom)
    index = entry.index
    if hom.target.is_finite():  # times the order of the image
        index *= hom.target.order() // _once(memo, cokernel, hom).order()
    return Entry(value, out_rule.relabel or entry.label, index, assumed)


def _mod_image(entry: Entry, in_rule: DifferentialRule | None, assumed: tuple[str, ...],
               memo: dict) -> Entry:
    """The entry modulo the image of an incoming matrix rule, if any."""
    if in_rule is None:
        return entry if assumed == entry.assumed else replace(entry, assumed=assumed)
    if not isinstance(entry.value, FgAbGroup):
        raise NoFact("matrix image hitting a non-group entry")
    return Entry(_once(memo, cokernel, in_rule.hom), entry.label, entry.index, assumed)


def _operator_kernel_entry(entry: Entry, rule: DifferentialRule) -> Entry:
    op = rule.operator
    if isinstance(entry.value, CharPRef):
        basis, _ = operator_kernel(op, entry.value.module)
        group = FgAbGroup.from_orders([op.p] * len(basis))
        return Entry(group, entry.label, entry.index)
    if isinstance(entry.value, SheafSymbol):
        kernel = default_fact_table().kernel_sheaf(str(op), sheaf_display(entry.value))
        return Entry(kernel, entry.label, entry.index)
    raise NoFact("operator rule on a plain group entry")


# ---------------------------------------------------------------------------
# abutments
# ---------------------------------------------------------------------------


def assemble_abutment(gr: Sequence[tuple[int, FgAbGroup]],
                      witness: ExtensionWitness) -> FgAbGroup:
    """Iterated extension resolution of a finite column, from gr^0 down.

    The filtration is decreasing: gr^0 is the top quotient of the abutment
    and the running total G/fil^s grows downward, so resolution starts at
    the lowest s and each deeper stage enters as the subgroup of the next
    extension.  At each stage the witness order is clamped to the running
    group order (the witness element's image in a quotient cannot have
    larger order).
    """
    if not gr:
        return FgAbGroup.zero()
    stages = sorted(gr, key=lambda se: se[0])
    total = stages[0][1]
    for s, group in stages[1:]:
        clamp = min(witness.witness_order, total.order() * group.order())
        try:
            total = resolve_extension(
                group, total, ExtensionWitness(clamp, witness.maps_to_generator_of_quotient))
        except AmbiguousExtension as exc:
            raise AmbiguousExtension(f"stage s = {s}: {exc}") from exc
    return total


def assemble_abutment_by_orders(orders_deepest_first: Sequence[int],
                                witness: ExtensionWitness) -> FgAbGroup:
    """Order-chain assembly when only the orders of the stages are known.

    The running subgroup fil^s grows upward from the zero group: each stage,
    deepest first, adds its order as the quotient of the next extension
    (`resolve_extension_by_order`), with the witness order clamped to the
    running group order, so the witness also decides a deepest stage of
    composite order.
    """
    total = FgAbGroup.zero()
    for n in orders_deepest_first:
        if n != 1:
            clamp = min(witness.witness_order, total.order() * n)
            total = resolve_extension_by_order(
                total, n, ExtensionWitness(clamp, witness.maps_to_generator_of_quotient))
    return total


# ---------------------------------------------------------------------------
# serialization and charts
# ---------------------------------------------------------------------------


def _entry_value_to_json(v: EntryValue) -> dict:
    if isinstance(v, FgAbGroup):
        return {"kind": "group", "group": v.to_json()}
    if isinstance(v, CharPRef):
        lo, hi = v.module.window
        return {"kind": "charp", "name": v.name, "p": v.module.p,
                "window": [lo, hi], "laurent": v.module.laurent}
    return {"kind": "sheaf", "sheaf": sheaf_to_json(v)}


def _group_from_json(d: dict, groups: dict) -> FgAbGroup:
    """The group `d` names, built once per distinct (free_rank, factors) in `groups`."""
    key = (take(d, "free_rank", "int", 0), tuple(take(d, "factors", "[int]", ())))
    group = groups.get(key)
    if group is None:
        group = groups[key] = FgAbGroup(*key)
    return group


def _entry_value_from_json(d: dict, groups: dict) -> EntryValue:
    kind = take(d, "kind", "string")
    if kind == "group":
        return _group_from_json(take(d, "group", "object"), groups)
    if kind == "charp":
        return CharPRef(take(d, "name", "string"), TruncatedCharPModule(
            take(d, "p", "int"), tuple(take(d, "window", "[int]")), take(d, "laurent", "bool")))
    if kind == "sheaf":
        return sheaf_from_json(take(d, "sheaf", "object"))
    raise ValueError(f"'kind' must be group, charp or sheaf, not {kind!r}")


def _rule_from_json(d: dict, groups: dict, provenance_key: str = "provenance") -> DifferentialRule:
    """A rule from JSON; a matrix rule's groups come from `groups` as in
    `_group_from_json`, and GroupHom normalises the rows of its matrix."""
    kind = take(d, "kind", "string")
    hom = operator = None
    if kind == "matrix":
        hom = GroupHom(_group_from_json(take(d, "source_group", "object"), groups),
                       _group_from_json(take(d, "target_group", "object"), groups),
                       take(d, "matrix", "[[int]]"))
    if kind == "operator":
        operator = parse_operator(take(d, "operator", "string"), take(d, "p", "int"))
    return DifferentialRule(take(d, "r", "int"), (take(d, "s", "int"), take(d, "t", "int")), kind,
                            hom, operator, take(d, "surjective", "bool", False),
                            take(d, "name", "string", ""), take(d, provenance_key, "string"),
                            take(d, "relabel", "string", ""))


def page_to_dict(page: SSPage) -> dict:
    """The page as a JSON object; a turned page has no rules, so `"rules"` is empty."""
    # each distinct entry value is converted once; the page holds them all, so ids are stable
    written = {id(e.value): e.value for e in page.entries.values()}
    written = {key: _entry_value_to_json(value) for key, value in written.items()}
    return {
        "r": page.r,
        "entries": [{"s": s, "t": t, "entry": written[id(e.value)],
                     "label": e.label, "index": e.index, "assumed": e.assumed}
                    for (s, t), e in sorted(page.entries.items())],
        "rules": [],
    }


def page_to_json(page: SSPage) -> str:
    return json.dumps(page_to_dict(page), sort_keys=True, separators=(",", ":"))


def page_from_json(text: str) -> tuple[SSPage, list[DifferentialRule]]:
    """A page and its rules from JSON, each key read with its type by
    `take`; an entry's index is positive and each (s, t) carries one entry.
    Each distinct group is built and validated once per call, and every
    entry and rule that names it shares that one value."""
    data = json.loads(text)
    groups: dict = {}
    entries = {}
    for item in take(data, "entries", "[object]"):
        pos = (take(item, "s", "int"), take(item, "t", "int"))
        if pos in entries:
            raise ValueError(f"entry position {pos} is listed twice")
        index = take(item, "index", "int", 1)
        if index < 1:
            raise ValueError(f"'index' must be positive, not {index}")
        entries[pos] = Entry(
            _entry_value_from_json(take(item, "entry", "object"), groups),
            take(item, "label", "string", ""), index, tuple(take(item, "assumed", "[string]", ())))
    rules = [_rule_from_json(d, groups) for d in take(data, "rules", "[object]", ())]
    # user JSON may list zero entries; no other page builder makes them, and
    # every zero group entry shares the page's one zero group
    zero = groups.get((0, ()))
    nonzero = {pos: e for pos, e in entries.items() if e.value is not zero}
    return SSPage(take(data, "r", "int"), nonzero), rules


_LEGEND = [
    ("■", "finitely generated abelian group"),
    ("□", "index-two class inside a copy of Z"),
    ("◆", "quasi-coherent sheaf"),
    ("●", "closed-point pushforward"),
    ("▲", "Artin-Schreier kernel sheaf k_*v_!Z/2"),
    ("◇", "R^1j_*G_m"),
    ("✦", "extension of sheaves"),
]

# grid cells a chart may draw: 10,000 make about 0.75 MB of SVG
CHART_CELLS_BOUND = 10_000


def chart_svg(page: SSPage) -> str:
    """Deterministic SVG chart of a page in the (t-s, s)-plane.

    The grid spans the entries and the origin; more than CHART_CELLS_BOUND
    cells raise ValueError before any line is built.
    """
    if page.entries:
        xs = [t - s for (s, t) in page.entries]
        ys = [s for (s, _) in page.entries]
        x0, x1 = min(xs + [0]), max(xs + [0])
        y0, y1 = min(ys + [0]), max(ys + [0])
    else:
        x0 = y0 = 0
        x1 = y1 = 1
    cells = (x1 - x0 + 1) * (y1 - y0 + 1)
    if cells > CHART_CELLS_BOUND:
        raise ValueError(f"a chart spanning t-s in [{x0}, {x1}] and s in [{y0}, {y1}] has "
                         f"{cells} cells, over the bound of {CHART_CELLS_BOUND}")
    cell = 90
    pad = 40
    width = (x1 - x0 + 1) * cell + 2 * pad
    height = (y1 - y0 + 1) * cell + 2 * pad + 20 * len(_LEGEND) + 30
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="11">',
        f'<text x="{pad}" y="20">E_{page.r} page ((t-s, s)-plane)</text>',
    ]
    def cx(x):
        return pad + (x - x0) * cell + cell // 2
    def cy(y):
        return pad + (y1 - y) * cell + cell // 2
    for x in range(x0, x1 + 1):
        for y in range(y0, y1 + 1):
            lines.append(f'<rect x="{cx(x) - cell // 2}" y="{cy(y) - cell // 2}" '
                         f'width="{cell}" height="{cell}" fill="none" stroke="#ccc"/>')
    for (s, t), e in sorted(page.entries.items()):
        lines.append(f'<text x="{cx(t - s)}" y="{cy(s)}" text-anchor="middle">'
                     f'{_escape(e.display())}</text>')
    ly = pad + (y1 - y0 + 1) * cell + pad
    lines.append(f'<text x="{pad}" y="{ly}">legend:</text>')
    for i, (glyph, meaning) in enumerate(_LEGEND):
        lines.append(f'<text x="{pad}" y="{ly + 20 * (i + 1)}">{glyph} {_escape(meaning)}</text>')
    lines.append("</svg>")
    return "\n".join(lines)


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
