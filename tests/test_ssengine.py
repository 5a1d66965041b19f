import copy
import json
import math
import random

import pytest

import brauerkit.ssengine as ssengine
import ssengine_oracle
from seeds import differential_seed
from brauerkit.abelian import ExtensionWitness, FgAbGroup, GroupHom
from brauerkit.charp import TruncatedCharPModule, parse_operator
from brauerkit.errors import AmbiguousExtension, UnmatchedRule
from brauerkit.sheaftab import ClosedPush, KStarVShriek, QuasiCoherent
from brauerkit.ssengine import (
    CharPRef,
    DifferentialRule,
    Entry,
    SSPage,
    assemble_abutment,
    assemble_abutment_by_orders,
    chart_svg,
    page_from_json,
    page_to_json,
    turn_page,
)

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.cyclic(2)


def group_entry(g):
    return Entry(g)


def zero_rule(r, s, t):
    return DifferentialRule(r, (s, t), "zero", provenance="declared zero")


# ---------------------------------------------------------------------------
# page turning
# ---------------------------------------------------------------------------


def test_iso_rule_kills_source_and_target():
    page = SSPage(2, {(0, 0): group_entry(Z2), (2, 1): group_entry(Z2)})
    rule = DifferentialRule(2, (0, 0), "iso", provenance="both entries Z/2, map onto")
    nxt = turn_page(page, [rule])
    assert nxt.r == 3
    assert nxt.entries == {}


def test_matrix_rule_kernel_and_cokernel():
    # d_2: Z --(x2)--> Z at (0,0) -> (2,1): kernel 0, cokernel Z/2
    hom = GroupHom(Z, Z, ((2,),))
    page = SSPage(2, {(0, 0): group_entry(Z), (2, 1): group_entry(Z)})
    rule = DifferentialRule(2, (0, 0), "matrix", hom=hom, provenance="multiplication by 2")
    nxt = turn_page(page, [rule])
    assert (0, 0) not in nxt.entries
    assert nxt.entries[(2, 1)].value.same_structure(Z2)


def test_matrix_rule_index_bookkeeping():
    # Z --onto--> Z/2: kernel is 2Z, abstractly Z with index 2
    hom = GroupHom(Z, Z2, ((1,),))
    page = SSPage(3, {(0, 4): Entry(Z, label="β"), (3, 6): group_entry(Z2)})
    rule = DifferentialRule(3, (0, 4), "matrix", hom=hom,
                            provenance="reduction onto the torsion class", relabel="2β")
    nxt = turn_page(page, [rule])
    survivor = nxt.entries[(0, 4)]
    assert survivor.value.same_structure(Z) and survivor.index == 2
    assert survivor.label == "2β"
    assert (3, 6) not in nxt.entries


def test_matrix_rule_must_map_into_its_target_entry():
    # Z --onto--> Z/2 aimed at a Z/4 entry: refused, where it dropped the Z/4
    rule = DifferentialRule(2, (0, 0), "matrix", hom=GroupHom(Z, Z2, ((1,),)), provenance="onto")
    page = SSPage(2, {(0, 0): group_entry(Z), (2, 1): group_entry(FgAbGroup.cyclic(4))})
    with pytest.raises(ValueError, match=r"^matrix rule at \(0, 0\) maps into Z/2, "
                                         r"not the entry Z/4 at \(2, 1\)$"):
        turn_page(page, [rule])
    # no entry at the target, as past a truncated page: the kernel 2Z has index 2
    assert turn_page(SSPage(2, {(0, 0): group_entry(Z)}), [rule]).entries[(0, 0)].index == 2


def test_each_matrix_cokernel_is_computed_once(monkeypatch):
    calls = []
    original = ssengine.cokernel
    monkeypatch.setattr(ssengine, "cokernel", lambda f: calls.append(f) or original(f))
    # Z --(x2)--> Z/4: the source's index and the target's image read one cokernel
    hom = GroupHom(Z, FgAbGroup.cyclic(4), ((2,),))
    page = SSPage(3, {(0, 4): Entry(Z), (3, 6): group_entry(FgAbGroup.cyclic(4))})
    nxt = turn_page(page, [DifferentialRule(3, (0, 4), "matrix", hom=hom, provenance="x2")])
    assert nxt.entries[(0, 4)].index == 2
    assert nxt.entries[(3, 6)].value.same_structure(Z2)
    assert calls == [hom]


def test_unmatched_rule_raises():
    page = SSPage(2, {(0, 0): group_entry(Z2)})
    with pytest.raises(UnmatchedRule):
        turn_page(page, [zero_rule(2, 5, 5)])


def test_d_squared_validation():
    bad = GroupHom(Z2, Z2, ((1,),))
    page = SSPage(2, {(0, 0): group_entry(Z2), (2, 1): group_entry(Z2),
                      (4, 2): group_entry(Z2)})
    rules = [
        DifferentialRule(2, (0, 0), "matrix", hom=bad, provenance="test"),
        DifferentialRule(2, (2, 1), "matrix", hom=bad, provenance="test"),
    ]
    with pytest.raises(ValueError, match="d∘d"):
        turn_page(page, rules)


def test_operator_rule_on_charp_entry():
    mod = CharPRef("R/2", TruncatedCharPModule(2, (0, 16)))
    page = SSPage(3, {(3, 3): Entry(mod)})
    rule = DifferentialRule(3, (3, 3), "operator",
                            operator=parse_operator("x + x^2", 2),
                            surjective=True, provenance="Artin-Schreier differential")
    nxt = turn_page(page, [rule])
    assert nxt.entries[(3, 3)].value.same_structure(Z2)


def test_operator_rule_on_sheaf_entry():
    page = SSPage(3, {(3, 3): Entry(QuasiCoherent("O/2"))})
    rule = DifferentialRule(3, (3, 3), "operator",
                            operator=parse_operator("x + j*x^2", 2),
                            surjective=True, provenance="Artin-Schreier differential")
    nxt = turn_page(page, [rule])
    assert isinstance(nxt.entries[(3, 3)].value, KStarVShriek)


def test_unresolved_rule_marks_assumption():
    page = SSPage(9, {(5, 5): group_entry(Z2), (14, 13): group_entry(Z2)})
    rule = DifferentialRule(9, (5, 5), "unresolved", name="d9_row5",
                            provenance="open differential, assumed zero")
    nxt = turn_page(page, [rule])
    assert nxt.entries[(5, 5)].assumed == ("d9_row5",)
    assert "d9_row5" in nxt.entries[(5, 5)].display()


def test_page_turning_never_grows_entries():
    hom = GroupHom(FgAbGroup.cyclic(4), Z2, ((1,),))
    page = SSPage(2, {(0, 0): group_entry(FgAbGroup.cyclic(4)), (2, 1): group_entry(Z2)})
    rule = DifferentialRule(2, (0, 0), "matrix", hom=hom, provenance="projection")
    nxt = turn_page(page, [rule])
    for pos, e in nxt.entries.items():
        assert e.value.order() <= page.entries[pos].value.order()


def test_rule_registration_order_irrelevant():
    hom = GroupHom(Z, Z, ((2,),))
    page = SSPage(2, {(0, 0): group_entry(Z), (2, 1): group_entry(Z),
                      (5, 5): group_entry(Z2)})
    rules = [DifferentialRule(2, (0, 0), "matrix", hom=hom, provenance="x2"),
             zero_rule(2, 5, 5)]
    a = turn_page(page, rules)
    b = turn_page(page, list(reversed(rules)))
    assert page_to_json(a) == page_to_json(b)


# ---------------------------------------------------------------------------
# abutments
# ---------------------------------------------------------------------------


def test_assemble_z8_from_three_z2s():
    got = assemble_abutment([(0, Z2), (1, Z2), (3, Z2)], ExtensionWitness(8, True))
    assert got.same_structure(FgAbGroup.cyclic(8))


def test_assemble_ambiguous_reports_stage():
    gr = [(0, Z2), (1, Z2)]
    with pytest.raises(AmbiguousExtension, match="^stage s = 1: 2 isomorphism classes"):
        assemble_abutment(gr, ExtensionWitness(2))


def test_assemble_single_stage_and_empty():
    assert assemble_abutment([(0, FgAbGroup.cyclic(4))], ExtensionWitness(1)) \
        .same_structure(FgAbGroup.cyclic(4))
    assert assemble_abutment([], ExtensionWitness(1)).is_zero()


def test_assemble_by_orders_chain():
    got = assemble_abutment_by_orders([2, 4, 1, 4, 2], ExtensionWitness(64, True))
    assert got.same_structure(FgAbGroup.cyclic(64))
    got = assemble_abutment_by_orders([3, 3], ExtensionWitness(9, True))
    assert got.same_structure(FgAbGroup.cyclic(9))
    assert assemble_abutment_by_orders([], ExtensionWitness(1)).is_zero()


def test_assemble_by_orders_lets_the_witness_decide_a_composite_deepest_stage():
    # the 2-local column with row 7 killed: orders 4, 4, 2 from the deepest up
    got = assemble_abutment_by_orders([1, 4, 1, 4, 2], ExtensionWitness(64, True))
    assert got.same_structure(FgAbGroup.cyclic(32))
    with pytest.raises(AmbiguousExtension, match="^2 isomorphism classes"):
        assemble_abutment_by_orders([4], ExtensionWitness(2))


def test_filtration_orders_multiply_to_abutment_order():
    gr = [(0, Z2), (1, Z2), (3, Z2)]
    total = assemble_abutment(gr, ExtensionWitness(8, True))
    product = 1
    for _, g in gr:
        product *= g.order()
    assert total.order() == product


# ---------------------------------------------------------------------------
# serialization and charts
# ---------------------------------------------------------------------------


def test_page_json_roundtrip():
    page = SSPage(2, {
        (0, 0): group_entry(Z2),
        (3, 3): Entry(QuasiCoherent("O/2"), label="w"),
        (5, 5): Entry(CharPRef("R/2", TruncatedCharPModule(2, (0, 8)))),
    })
    rules = [
        zero_rule(2, 0, 0),
        DifferentialRule(2, (3, 3), "operator", operator=parse_operator("x + x^2", 2),
                         surjective=True, provenance="Artin-Schreier"),
        DifferentialRule(2, (5, 5), "unresolved", name="d2_open", provenance="open"),
    ]
    text = ssengine_oracle.page_to_json(page, rules)
    page2, rules2 = page_from_json(text)
    assert ssengine_oracle.page_to_json(page2, rules2) == text
    assert page2.entries == page.entries


def test_page_from_json_drops_zero_entries_that_a_built_page_keeps():
    zero = group_entry(FgAbGroup.zero())
    page = SSPage(2, {(0, 0): group_entry(Z2), (1, 1): zero})
    assert page.entries[(1, 1)] is zero  # SSPage stores the entries it is given
    page2, _ = page_from_json(page_to_json(page))
    assert page2.entries == {(0, 0): group_entry(Z2)}


def test_chart_svg_deterministic_and_has_legend():
    page = SSPage(2, {(0, 0): group_entry(Z2), (1, 1): Entry(Z, label="u")})
    svg = chart_svg(page)
    assert svg == chart_svg(page)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "legend:" in svg and "k_*v_!Z/2" in svg


# ---------------------------------------------------------------------------
# page turning against the entry-by-entry oracle
# ---------------------------------------------------------------------------


_GROUPS = [Z, Z2, FgAbGroup.cyclic(4), FgAbGroup.cyclic(3), FgAbGroup(1, (2,))]
_NON_GROUPS = [CharPRef("R/2", TruncatedCharPModule(2, (0, 8))), QuasiCoherent("O/2")]
_OPERATORS = ["x + x^2", "x + j*x^2"]


def _turned(turn, page, rules):
    """(page, None) or (None, (type, message)): the oracle must raise the
    same type with the same message."""
    try:
        return turn(page, rules), None
    except Exception as exc:
        return None, (type(exc).__name__, str(exc))


def _random_hom(rng, source, target):
    for _ in range(4):
        matrix = tuple(tuple(rng.randint(-2, 2) for _ in range(source.num_generators))
                       for _ in range(target.num_generators))
        try:
            return GroupHom(source, target, matrix)
        except ValueError:
            pass
    return GroupHom(source, target, ((0,) * source.num_generators,) * target.num_generators)


def _random_page(rng, r):
    """Group, char-p and sheaf entries, some already assuming open
    differentials; about half the chosen cells also fill the cell their
    d_r would hit, so entries are often both a source and a target."""
    cells = [(s, t) for s in range(7) for t in range(9)]
    chosen = set(rng.sample(cells, rng.randint(1, 12)))
    for s, t in sorted(chosen):
        if rng.random() < 0.5:
            chosen.add((s + r, t + r - 1))
    entries = {}
    for pos in sorted(chosen):
        value = rng.choice(_GROUPS) if rng.random() < 0.8 else rng.choice(_NON_GROUPS)
        assumed = tuple(rng.sample(["d5_a", "d7_b"], rng.randint(1, 2))) if rng.random() < 0.2 else ()
        entries[pos] = Entry(value, label=rng.choice(["", "a", "b"]), assumed=assumed)
    return SSPage(r, entries)


def _random_rules(rng, page):
    r = page.r
    positions = sorted(page.entries)
    rules = []
    for pos in rng.sample(positions, rng.randint(0, len(positions))):
        source = page.entries[pos].value
        if isinstance(source, FgAbGroup):  # rarely an operator: NoFact
            kind = rng.choice(["zero", "iso", "unresolved", "matrix", "matrix",
                               "operator" if rng.random() < 0.1 else "matrix"])
        else:  # rarely a matrix: NoFact
            kind = rng.choice(["zero", "iso", "unresolved", "operator", "operator",
                               "matrix" if rng.random() < 0.1 else "operator"])
        if kind == "matrix":
            # a target that is no group gets a group-valued image: NoFact
            target = page.entry(*page.target_of(*pos))
            target_group = (target.value if target and isinstance(target.value, FgAbGroup)
                            else rng.choice(_GROUPS))
            if target and rng.random() < 0.05:  # maybe not the group at the target: ValueError
                target_group = rng.choice(_GROUPS)
            source_group = source if isinstance(source, FgAbGroup) else rng.choice(_GROUPS)
            hom = _random_hom(rng, source_group, target_group)
            rules.append(DifferentialRule(r, pos, "matrix", hom=hom, provenance="random",
                                          relabel=rng.choice(["", "2a"])))
        elif kind == "operator":
            rules.append(DifferentialRule(r, pos, "operator",
                                          operator=parse_operator(rng.choice(_OPERATORS), 2),
                                          surjective=rng.random() < 0.5, provenance="random"))
        else:
            rules.append(DifferentialRule(r, pos, kind, name=f"d{r}_{pos[0]}_{pos[1]}",
                                          provenance="random"))
    if rules and rng.random() < 0.1:  # two position rules on one source
        rules.append(zero_rule(r, *rng.choice(rules).source))
    if rng.random() < 0.03:
        rules.append(zero_rule(r + 1, *positions[0]))  # wrong page
    if rng.random() < 0.03:
        rules.append(zero_rule(r, 40, 40))  # zero source
    rng.shuffle(rules)
    return rules


def test_turn_page_matches_linear_scan_oracle():
    seed = differential_seed(20260418)
    rng = random.Random(seed)
    errors = ("multiple rules match", "rule for page", "rule source", "d∘d ≠ 0",
              "matrix rule at", "matrix rule on a non-group entry", "matrix image hitting a non-group entry",
              "operator rule on a plain group entry")
    outcomes = set()
    for _ in range(800):
        r = rng.randint(2, 4)
        page = _random_page(rng, r)
        rules = _random_rules(rng, page)
        got, got_error = _turned(turn_page, page, rules)
        want, want_error = _turned(ssengine_oracle.turn_page, page, rules)
        assert got_error == want_error, (seed, page, rules)
        if got is None:
            outcomes.update(e for e in errors if got_error[1].startswith(e))
            continue
        assert page_to_json(got) == page_to_json(want), (seed, page, rules)
        sources = {rule.source for rule in rules}
        for (s, t), entry in page.entries.items():
            if (s, t) not in sources and (s - r, t - r + 1) not in sources:
                assert got.entries[s, t] is entry  # no differential in or out
        outcomes.add("page")
        outcomes.update("assumed" for e in page.entries.values() if e.assumed)
        for rule in rules:
            value = page.entries[rule.source].value
            if rule.kind == "operator" and not isinstance(value, FgAbGroup):
                outcomes.add(f"operator on {type(value).__name__}")
            if rule.kind != "zero" and page.target_of(*rule.source) in sources:
                outcomes.add("source and target")
    # the seeded pages reach a turned page with each feature and every error
    assert outcomes == {"page", "assumed", "operator on CharPRef", "operator on QuasiCoherent",
                        "source and target", *errors}


def test_turn_page_looks_position_rules_up_without_scanning(monkeypatch):
    calls = []
    original = DifferentialRule.matches

    def counted(rule, s, t):
        calls.append((s, t))
        return original(rule, s, t)

    monkeypatch.setattr(DifferentialRule, "matches", counted)
    entries = {(s, 2 * s + t): group_entry(Z2) for s in range(10) for t in range(10)}
    rules = [zero_rule(2, *pos) for pos in entries]
    turn_page(SSPage(2, entries), rules)
    assert calls == []


# ---------------------------------------------------------------------------
# memoised kernels and cokernels
# ---------------------------------------------------------------------------


def _counting(monkeypatch, name):
    calls = []
    original = getattr(ssengine, name)
    monkeypatch.setattr(ssengine, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_turn_page_computes_each_shared_hom_once_per_turn(monkeypatch):
    kernels, cokernels = _counting(monkeypatch, "homology"), _counting(monkeypatch, "cokernel")
    # three equal Z -> Z/2 rules, as the KU pages have: one kernel, one cokernel
    entries = {}
    rules = []
    for t in (4, 12, 20):
        entries[0, t] = Entry(Z, label=f"b{t}")
        entries[3, t + 2] = group_entry(Z2)
        rules.append(DifferentialRule(3, (0, t), "matrix", hom=GroupHom(Z, Z2, ((1,),)),
                                      provenance="onto"))
    page = SSPage(3, entries)
    turned = turn_page(page, rules)
    assert (len(kernels), len(cokernels)) == (1, 1)
    assert [turned.entries[0, t].index for t in (4, 12, 20)] == [2, 2, 2]
    assert all((3, t + 2) not in turned.entries for t in (4, 12, 20))
    # no state survives the call: a second turn computes both again
    assert page_to_json(turn_page(page, rules)) == page_to_json(turned)
    assert (len(kernels), len(cokernels)) == (2, 2)


def test_turn_page_keys_a_kernel_by_its_incoming_hom(monkeypatch):
    kernels = _counting(monkeypatch, "homology")
    z4 = FgAbGroup.cyclic(4)
    times2 = GroupHom(z4, z4, ((2,),))
    # d(0,0) and d(3,2) share the hom x2 on Z/4, but only (3,2) is hit by (0,0)
    page = SSPage(3, {(0, 0): group_entry(z4), (3, 2): group_entry(z4), (6, 4): group_entry(z4)})
    rules = [DifferentialRule(3, (0, 0), "matrix", hom=times2, provenance="x2"),
             DifferentialRule(3, (3, 2), "matrix", hom=times2, provenance="x2")]
    turned = turn_page(page, rules)
    assert kernels == [(times2, None), (times2, times2)]
    assert (3, 2) not in turned.entries  # ker(x2)/im(x2) on Z/4 is 2Z/4 mod 2Z/4
    assert page_to_json(turned) == page_to_json(ssengine_oracle.turn_page(page, rules))


# ---------------------------------------------------------------------------
# page reading against the key-by-key oracle
# ---------------------------------------------------------------------------


WRONG = (None, True, 1, 1.5, "x", [], {})


def _bench_doc(rng, s_max=12, t_max=30, density=0.4):
    """A page-3 document shaped like the benchmark's: cyclic entries, and
    zero, iso, unresolved and matrix rules from even s."""
    def group(a):
        return {"free_rank": 1, "factors": []} if a == 0 else {"free_rank": 0, "factors": [a]}

    orders = {(s, t): rng.choice((0, 2, 3, 4, 6, 8, 9, 12, 16))
              for s in range(s_max + 1) for t in range(t_max + 1) if rng.random() < density}
    rules = []
    for (s, t), a in sorted(orders.items()):
        if s % 2 or rng.random() < 0.4:
            continue
        rule = {"r": 3, "s": s, "t": t, "provenance": "seeded page",
                "kind": rng.choice(("zero", "iso", "unresolved", "matrix", "matrix"))}
        if rule["kind"] == "matrix":
            b = rng.choice((2, 3, 4, 6, 8, 12))
            orders[s + 3, t + 2] = b
            step = b // math.gcd(b, a) if a else 1
            rule.update(matrix=[[step * rng.randrange(4)]], source_group=group(a),
                        target_group=group(b))
            if rng.random() < 0.3:
                rule["relabel"] = "y"
        if rule["kind"] == "unresolved":
            rule["name"] = f"d3_{s}_{t}"
        rules.append(rule)
    entries = [{"s": s, "t": t, "entry": {"kind": "group", "group": group(a)},
                "label": f"x{s}_{t}" if rng.random() < 0.5 else "", "index": 1, "assumed": []}
               for (s, t), a in sorted(orders.items())]
    return {"r": 3, "entries": entries, "rules": rules}


def _mixed_doc(rng):
    """A small page of group, char-p and sheaf entries with rules of every kind."""
    page = _random_page(rng, rng.randint(2, 4))
    return json.loads(ssengine_oracle.page_to_json(page, _random_rules(rng, page)))


def _key_paths(doc, prefix=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for step, value in items:
        if isinstance(doc, dict):
            yield prefix + (step,)
        yield from _key_paths(value, prefix + (step,))


def _set(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is _set:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _read(reader, doc):
    """(page, rules) or the type and message of what the reader raised."""
    try:
        return reader(json.dumps(doc))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _assert_reads_alike(doc, context):
    got, want = _read(page_from_json, doc), _read(ssengine_oracle.page_from_json, doc)
    assert got == want, context
    if isinstance(got[0], SSPage):
        assert ssengine_oracle.page_to_json(*got) == ssengine_oracle.page_to_json(*want), context
    return got


def _shares_groups(page, rules):
    groups = [e.value for e in page.entries.values() if isinstance(e.value, FgAbGroup)]
    groups += [g for rule in rules if rule.hom for g in (rule.hom.source, rule.hom.target)]
    distinct = {(g.free_rank, g.invariant_factors) for g in groups}
    return len({id(g) for g in groups}) == len(distinct)


def _edit(rng, doc):
    """`doc` with one key given another JSON value or dropped, one entry moved
    onto another's position, or one entry's index made 0, -1 or 2."""
    items = doc.get("entries")
    roll = rng.random()
    if roll < 0.6 or not (isinstance(items, list) and items
                          and all(isinstance(item, dict) for item in items)):
        paths = list(_key_paths(doc))
        return _set(doc, rng.choice(paths), rng.choice(WRONG + (_set,))) if paths else doc
    a, b = rng.randrange(len(items)), rng.randrange(len(items))
    if roll < 0.8:
        for key in ("s", "t"):
            if key in items[a]:
                doc = _set(doc, ("entries", b, key), items[a][key])
        return doc
    return _set(doc, ("entries", b, "index"), rng.choice((0, -1, 2)))


def test_page_from_json_matches_reader_oracle():
    seed = differential_seed(20261019)
    rng = random.Random(seed)
    outcomes = set()
    for i in range(60):
        doc = _bench_doc(rng) if i % 2 else _mixed_doc(rng)
        got = _assert_reads_alike(doc, (seed, i))
        assert isinstance(got[0], SSPage) and _shares_groups(*got), (seed, i)
        for _ in range(4):  # 1 to 3 edits at once
            edited = doc
            for _ in range(rng.randint(1, 3)):
                edited = _edit(rng, edited)
            got = _assert_reads_alike(edited, (seed, i, edited))
            outcomes.add(got[0] if isinstance(got[0], str) else "page")
    assert {"page", "ValueError"} <= outcomes


def test_page_from_json_matches_reader_oracle_on_every_key():
    # every key of a small mixed page, given every other JSON type or dropped
    rng = random.Random(7)
    docs = [_mixed_doc(rng) for _ in range(3)] + [_bench_doc(rng, 3, 6, 0.5)]
    for n, doc in enumerate(docs):
        for path in _key_paths(doc):
            for value in WRONG + (_set,):
                _assert_reads_alike(_set(doc, path, value), (n, path, value))
