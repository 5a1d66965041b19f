"""Page turning entry by entry, and page reading key by key, kept as the
oracles for `ssengine.turn_page` and `ssengine.page_from_json`; and the
writer of pages with rules, which the test fixtures read.

The turn is the engine's code from before rule indexing, pass-through
entries and memoised kernels and cokernels: every entry of the page is
evolved in ascending (s, t) order, rules are found by a linear scan, and
each use of a matrix rule's kernel or cokernel computes it again.  The
reader is the engine's code from before groups were shared: it builds and
validates one group per entry and per rule side, and reads every key with
the recursive `take_oracle.take`.  Their results (or the exceptions they
raise) are the reference for the fast paths.  The oracles use only the
page and rule types and the layers below the engine, none of the engine's
helpers; `page_to_json` adds rules to what `ssengine.page_to_json` writes.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from brauerkit.abelian import FgAbGroup, GroupHom, hom_cokernel, hom_kernel, homology
from brauerkit.charp import TruncatedCharPModule, operator_kernel, parse_operator
from brauerkit.errors import NoFact, UnmatchedRule
from brauerkit.record import replace
from brauerkit.sheaftab import SheafSymbol, default_fact_table, sheaf_display, sheaf_from_json
from brauerkit import ssengine
from brauerkit.ssengine import CharPRef, DifferentialRule, Entry, SSPage
from take_oracle import take


def rule_for(rules: Sequence[DifferentialRule], s: int, t: int) -> Optional[DifferentialRule]:
    found = [rule for rule in rules if rule.matches(s, t)]
    if len(found) > 1:
        raise ValueError(f"multiple rules match ({s},{t})")
    return found[0] if found else None


def validate_rules(page: SSPage, rules: Sequence[DifferentialRule]) -> None:
    for rule in rules:
        if rule.r != page.r:
            raise ValueError(f"rule for page {rule.r} applied to page {page.r}")
        if page.entry(*rule.source) is None:
            raise UnmatchedRule(f"rule source {rule.source} is a zero entry")
        pos = (rule.source[0] + page.r, rule.source[1] + page.r - 1)
        target = page.entry(*pos)
        if rule.kind == "matrix" and target is not None and isinstance(target.value, FgAbGroup) \
                and target.value != rule.hom.target:
            raise ValueError(f"matrix rule at {rule.source} maps into {rule.hom.target}, "
                             f"not the entry {target.value} at {pos}")
    explicit = {rule.source: rule for rule in rules if rule.kind == "matrix"}
    for (s, t), rule in explicit.items():
        nxt = explicit.get((s + rule.r, t + rule.r - 1))
        if nxt is not None and not nxt.hom.compose(rule.hom).is_zero_hom():
            raise ValueError(f"d∘d ≠ 0 at ({s},{t}) on page {rule.r}")


def turn_page(page: SSPage, rules: Sequence[DifferentialRule]) -> SSPage:
    validate_rules(page, rules)
    default_fact_table()
    killed: set = set()
    new_entries: Dict[Tuple[int, int], Entry] = {}
    for (s, t), entry in sorted(page.entries.items()):
        out_rule = rule_for(rules, s, t)
        in_pos = (s - page.r, t - page.r + 1)
        in_rule = rule_for(rules, *in_pos) if page.entry(*in_pos) else None
        new = evolve_entry(page, entry, (s, t), out_rule, in_rule, killed)
        if new is not None and not new.is_zero():
            new_entries[(s, t)] = new
    for pos in killed:
        new_entries.pop(pos, None)
    return SSPage(page.r + 1, new_entries)


def evolve_entry(page, entry, pos, out_rule, in_rule, killed):
    s, t = pos
    target = (s + page.r, t + page.r - 1)
    assumed = entry.assumed
    if in_rule is not None and in_rule.kind == "iso":
        return None
    if in_rule is not None and in_rule.kind == "unresolved":
        assumed = assumed + (in_rule.name,)
    in_hom = in_rule.hom if in_rule is not None and in_rule.kind == "matrix" else None
    if out_rule is None or out_rule.kind == "zero":
        return mod_image(entry, in_hom, assumed)
    if out_rule.kind == "iso":
        killed.add(target)
        return None
    if out_rule.kind == "unresolved":
        return mod_image(entry, in_hom, assumed + (out_rule.name,))
    if out_rule.kind == "operator":
        new = operator_kernel_entry(entry, out_rule)
        if out_rule.surjective:
            killed.add(target)
        return replace(new, assumed=assumed)
    if not isinstance(entry.value, FgAbGroup):
        raise NoFact(f"matrix rule on a non-group entry at ({s},{t})")
    hom = out_rule.hom
    if not hom.source.same_structure(entry.value):
        raise ValueError(f"rule at ({s},{t}) does not match the entry group")
    if in_hom is not None:
        value = homology(hom, in_hom)
    else:
        value, _ = hom_kernel(hom)
    index = entry.index * index_multiplier(hom)
    label = out_rule.relabel or entry.label
    return Entry(value, label, index, assumed)


def index_multiplier(hom: GroupHom) -> int:
    if not hom.target.is_finite():
        return 1
    cok, _ = hom_cokernel(hom)
    return hom.target.order() // cok.order()


def mod_image(entry: Entry, in_hom: Optional[GroupHom], assumed: Tuple[str, ...]) -> Entry:
    if in_hom is None:
        return replace(entry, assumed=assumed)
    if not isinstance(entry.value, FgAbGroup):
        raise NoFact("matrix image hitting a non-group entry")
    cok, _ = hom_cokernel(in_hom)
    return Entry(cok, entry.label, entry.index, assumed)


def operator_kernel_entry(entry: Entry, rule: DifferentialRule) -> Entry:
    op = rule.operator
    if isinstance(entry.value, CharPRef):
        basis, _ = operator_kernel(op, entry.value.module)
        group = FgAbGroup.from_orders([op.p] * len(basis))
        return Entry(group, label=entry.label, index=entry.index)
    if isinstance(entry.value, SheafSymbol):
        kernel = default_fact_table().kernel_sheaf(str(op), sheaf_display(entry.value))
        return Entry(kernel, label=entry.label, index=entry.index)
    raise NoFact("operator rule on a plain group entry")


def group_from_json(obj: dict) -> FgAbGroup:
    return FgAbGroup(take(obj, "free_rank", "int", 0), tuple(take(obj, "factors", "[int]", ())))


def entry_value_from_json(d: dict):
    kind = take(d, "kind", "string")
    if kind == "group":
        return group_from_json(take(d, "group", "object"))
    if kind == "charp":
        return CharPRef(take(d, "name", "string"), TruncatedCharPModule(
            take(d, "p", "int"), tuple(take(d, "window", "[int]")), take(d, "laurent", "bool")))
    if kind == "sheaf":
        return sheaf_from_json(take(d, "sheaf", "object"))
    raise ValueError(f"'kind' must be group, charp or sheaf, not {kind!r}")


def rule_from_json(d: dict) -> DifferentialRule:
    kind = take(d, "kind", "string")
    hom = operator = None
    if kind == "matrix":
        hom = GroupHom(group_from_json(take(d, "source_group", "object")),
                       group_from_json(take(d, "target_group", "object")),
                       tuple(tuple(row) for row in take(d, "matrix", "[[int]]")))
    if kind == "operator":
        operator = parse_operator(take(d, "operator", "string"), take(d, "p", "int"))
    return DifferentialRule(take(d, "r", "int"), (take(d, "s", "int"), take(d, "t", "int")), kind,
                            hom=hom, operator=operator,
                            surjective=take(d, "surjective", "bool", False),
                            name=take(d, "name", "string", ""),
                            provenance=take(d, "provenance", "string"),
                            relabel=take(d, "relabel", "string", ""))


def page_from_json(text: str) -> Tuple[SSPage, List[DifferentialRule]]:
    data = json.loads(text)
    entries = {}
    for item in take(data, "entries", "[object]"):
        pos = (take(item, "s", "int"), take(item, "t", "int"))
        if pos in entries:
            raise ValueError(f"entry position {pos} is listed twice")
        index = take(item, "index", "int", 1)
        if index < 1:
            raise ValueError(f"'index' must be positive, not {index}")
        entries[pos] = Entry(
            entry_value_from_json(take(item, "entry", "object")), take(item, "label", "string", ""),
            index, tuple(take(item, "assumed", "[string]", ())))
    rules = [rule_from_json(d) for d in take(data, "rules", "[object]", ())]
    nonzero = {pos: e for pos, e in entries.items() if not e.is_zero()}
    return SSPage(take(data, "r", "int"), nonzero), rules


def rule_to_json(rule: DifferentialRule) -> dict:
    out: dict = {"r": rule.r, "s": rule.source[0], "t": rule.source[1],
                 "kind": rule.kind, "provenance": rule.provenance}
    if rule.kind == "operator":
        out["operator"] = str(rule.operator)
        out["p"] = rule.operator.p
        out["surjective"] = rule.surjective
    if rule.kind == "matrix":
        out["matrix"] = [list(row) for row in rule.hom.matrix]
        out["source_group"] = rule.hom.source.to_json()
        out["target_group"] = rule.hom.target.to_json()
    if rule.kind == "unresolved":
        out["name"] = rule.name
    if rule.relabel:
        out["relabel"] = rule.relabel
    return out


def page_to_json(page: SSPage, rules: Sequence[DifferentialRule] = ()) -> str:
    """The page as `ssengine.page_to_json` writes it, with `rules` in its
    `"rules"` list: the document `ss-run` reads."""
    data = dict(json.loads(ssengine.page_to_json(page)), rules=[rule_to_json(rule) for rule in rules])
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
