"""Linear-scan rule lookup, kept as the oracle for the indexed lookup in
`ssengine.turn_page`.

Each function is the engine's code from before the index, so its result
(or the exception it raises) is the reference for the fast path.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from brauerkit.ssengine import (
    DifferentialRule,
    Entry,
    SSPage,
    _evolve_entry,
    _validate_rules,
)


def rule_for(rules: Sequence[DifferentialRule], s: int, t: int) -> Optional[DifferentialRule]:
    found = [rule for rule in rules if rule.matches(s, t)]
    if len(found) > 1:
        raise ValueError(f"multiple rules match ({s},{t})")
    return found[0] if found else None


def turn_page(page: SSPage, rules: Sequence[DifferentialRule]) -> SSPage:
    _validate_rules(page, rules)
    killed: set = set()
    new_entries: Dict[Tuple[int, int], Entry] = {}
    for (s, t), entry in sorted(page.entries.items()):
        out_rule = rule_for(rules, s, t)
        in_pos = page.source_of(s, t)
        in_rule = rule_for(rules, *in_pos) if page.entry(*in_pos) else None
        new = _evolve_entry(page, entry, (s, t), out_rule, in_rule, killed)
        if new is not None and not new.is_zero():
            new_entries[(s, t)] = new
    for pos in killed:
        new_entries.pop(pos, None)
    return SSPage(page.r + 1, new_entries)
