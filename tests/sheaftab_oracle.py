"""Two-pass extension cohomology, kept as the oracle for `sheaftab`'s R6.

This is the evaluator from before `sheaftab._extension_cohomology` returned
an extension's order beside its value: the value comes from one pass, and
`cohomology_order` of an extension whose value is not a finite group runs
a second pass that decides again whether the long exact sequence collapses
to a short exact sequence of finite groups.  A `terms` dict, keyed by
(symbol, degree), keeps the second pass from evaluating an H^d twice.  The
rules R1-R5 are `sheaftab`'s own; every extension, nested or inside a
direct sum, goes through this file's R6.
"""

from __future__ import annotations

from brauerkit import sheaftab
from brauerkit.abelian import FgAbGroup, resolve_extension
from brauerkit.errors import AmbiguousExtension, NoFact
from brauerkit.sheaftab import (
    ClosedPush,
    Constant,
    DirectSum,
    KStarVShriek,
    QuasiCoherent,
    R1jGm,
    SheafExtension,
    SheafSymbol,
    Unknown,
    Value,
    canonical_r1jgm,
    default_fact_table,
    sheaf_display,
)


def cohomology(f: SheafSymbol, s: int, base: str) -> Value:
    """H^s(base; F), as `sheaftab.cohomology(f, s, base).value`."""
    if s < 0:
        raise ValueError("degree must be nonnegative")
    default_fact_table()
    return _coh(f, s, base)


def _coh(f: SheafSymbol, s: int, base: str) -> Value:
    if isinstance(f, DirectSum):
        return sheaftab._sum_values([_coh(g, s, base) for g in f.summands])
    if isinstance(f, ClosedPush):
        return _coh(Constant(f.group), s, f.residue_site)
    if isinstance(f, Constant):
        return sheaftab._constant_cohomology(f.group, s, base)
    if isinstance(f, QuasiCoherent):
        if s > 0:
            return FgAbGroup.zero()
        fact = default_fact_table().lookup(f.canonical_name, base, 0)
        if fact is None:
            return Unknown(f"no global-sections fact for {f.name} on {base}", rule="R4")
        return fact
    if isinstance(f, KStarVShriek):
        return sheaftab._kstar_vshriek_cohomology(s)
    if isinstance(f, R1jGm):
        return _coh(canonical_r1jgm(), s, base)
    if isinstance(f, SheafExtension):
        return _extension_cohomology(f, s, base)
    raise TypeError(f"not a sheaf symbol: {f!r}")


def _value_zero(v: Value) -> bool | None:
    return None if isinstance(v, Unknown) else v.is_zero()


def _term(terms: dict, g: SheafSymbol, d: int, base: str) -> Value:
    if (g, d) not in terms:
        terms[g, d] = _coh(g, d, base)
    return terms[g, d]


def _extension_cohomology(f: SheafExtension, s: int, base: str,
                          terms: dict | None = None) -> Value:
    terms = {} if terms is None else terms
    if (isinstance(f.sub, ClosedPush) and isinstance(f.quot, ClosedPush)
            and f.sub.point == f.quot.point
            and f.sub.residue_site == f.quot.residue_site
            and f.witness is not None
            and f.sub.group.is_finite() and f.quot.group.is_finite()):
        try:
            resolved = resolve_extension(f.sub.group, f.quot.group, f.witness)
        except AmbiguousExtension:
            return Unknown("witness does not pin down the stalk extension", rule="R6")
        return _coh(ClosedPush(f.sub.point, resolved, f.sub.residue_site), s, base)
    a_s = _term(terms, f.sub, s, base)
    b_s = _term(terms, f.quot, s, base)
    if _value_zero(a_s) and _value_zero(b_s):
        return FgAbGroup.zero()
    if _value_zero(b_s):
        if s == 0 or _value_zero(_term(terms, f.quot, s - 1, base)):
            return a_s
        return Unknown("connecting map into the sub-term undecided", rule="R6")
    if _value_zero(a_s):
        if _value_zero(_term(terms, f.sub, s + 1, base)):
            return b_s
        return Unknown("connecting map out of the quotient-term undecided", rule="R6")
    why = _not_short_exact(f, s, base, terms)
    if why is not None:
        return Unknown(why, rule="R6")
    if f.witness is None:
        return Unknown("short exact but no witness to resolve the extension", rule="R6")
    try:
        return resolve_extension(a_s, b_s, f.witness)
    except AmbiguousExtension:
        return Unknown("witness does not pin down the extension", rule="R6")


def _not_short_exact(f: SheafExtension, s: int, base: str, terms: dict) -> str | None:
    """None if H^{s-1}(quot) and H^{s+1}(sub) vanish and H^s(sub), H^s(quot)
    are finite groups; else why not."""
    if not ((s == 0 or _value_zero(_term(terms, f.quot, s - 1, base)))
            and _value_zero(_term(terms, f.sub, s + 1, base))):
        return "long exact sequence does not collapse"
    if not all(isinstance(v, FgAbGroup) and v.is_finite()
               for v in (_term(terms, f.sub, s, base), _term(terms, f.quot, s, base))):
        return "short exact with an infinite term"
    return None


def cohomology_order(f: SheafSymbol, s: int, base: str) -> int:
    """Order of H^s, as `sheaftab.cohomology_order`."""
    default_fact_table()
    extension, terms = isinstance(f, SheafExtension), {}
    ans = _extension_cohomology(f, s, base, terms) if extension else _coh(f, s, base)
    if isinstance(ans, FgAbGroup) and ans.is_finite():
        return ans.order()
    if extension:
        a_s, b_s = _term(terms, f.sub, s, base), _term(terms, f.quot, s, base)
        if _not_short_exact(f, s, base, terms) is None:
            return a_s.order() * b_s.order()
    raise NoFact(f"order of H^{s}({base}; {sheaf_display(f)}) is not decided")
