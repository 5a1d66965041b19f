"""No literal passes as a computed result unless it waits on `PENDING` for
the data-file key it will move to.

The AST of `kofam`, `tmffam`, `numbrauer` and `cli` is walked for the
values given
- as a field of a report record (a record class of those modules that is
  not one of `INPUTS`) or as an argument of a function annotated to return
  one;
- as a value of a report dict that a `cli` verb handler builds;
- as the order of an `ExtensionWitness`.
Each value is followed through conditional expressions, tuples, lists,
record constructors and the names its function assigns exactly once.  A
literal is a bool, an int, `FgAbGroup.zero()`, `FgAbGroup.cyclic`,
`FgAbGroup.from_orders` or `FgAbGroup(...)` of literals, or a tuple or list
of literals.  It is named `module.function: Callee.field = literal`, or
`module.function: report[key] = literal` for a report dict.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "brauerkit"
MODULES = ("kofam", "tmffam", "numbrauer", "cli")
# records of these modules that are read as input or are values, not reports
INPUTS = {"EtaleRingDescriptor", "TmfPageData", "PlaceSpec", "DivisibleGroupDescriptor"}

# literal result -> the data-file key it will move to (ROADMAP direction 15)
_KO_PAGES = "the KO page file of ROADMAP direction 12"
_H1_QZ_STATED = "sheaf_facts.json: a cited stated fact (Q/Z, SpecZ[1/6], 1)"
PENDING = {
    "tmffam.lbr_tmf: LbrTmfReport.split_surjection = True":
        "tmf_pages.json: lbr_tmf.split_surjection",
    "tmffam.lbr_m_o: LbrMOReport.iso_after_inverting_2 = True":
        "tmf_pages.json: lbr_mo.iso_after_inverting_2",
    "tmffam.pic_tmf_r: ExtensionWitness.witness_order = 24":
        "tmf_pages.json: pic_tmf_r.quotient_witness.order",
    "kofam.pic_ko: ExtensionWitness.witness_order = 8": f"{_KO_PAGES}: pic_witness.order",
    "kofam.pic_ko: ExtensionWitness.witness_order = 4": f"{_KO_PAGES}: pic_witness.order_d0",
    "kofam.pic_ko: PicKOResult.witness_order = 8": f"{_KO_PAGES}: pic_witness.order",
    "kofam.pic_ko: PicKOResult.witness_order = 4": f"{_KO_PAGES}: pic_witness.order_d0",
    "kofam.lbr_ko: omni_assemble.h3_gm = FgAbGroup.zero()":
        "sheaf_facts.json: a cited fact (Gm, SpecZ, 3)",
    "numbrauer.h1_qz_report: H1QzReport.stated = (2, 3)": _H1_QZ_STATED,
    "numbrauer.h1_qz_report: H1QzReport.stated = FgAbGroup.from_orders([2, 2, 2])": _H1_QZ_STATED,
}

# the fields that are computed, never pending
DERIVED = ("three_torsion", "p_gt_3_torsion", "kernel_finite", "kernel_order_bound",
           "certified_prefix", "assumed", "three_local", "h1_gm", "h0_pi1", "h2_gm", "exact",
           "discrepancy")

_GROUP_BUILDERS = {"zero", "cyclic", "from_orders"}


def _is_literal(node) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) in (bool, int)
    if isinstance(node, (ast.Tuple, ast.List)):
        return bool(node.elts) and all(_is_literal(e) for e in node.elts)
    if isinstance(node, ast.Call) and not node.keywords:
        func = node.func
        group_call = (isinstance(func, ast.Name) and func.id == "FgAbGroup") or (
            isinstance(func, ast.Attribute) and func.attr in _GROUP_BUILDERS
            and isinstance(func.value, ast.Name) and func.value.id == "FgAbGroup")
        return group_call and all(_is_literal(a) for a in node.args)
    return False


def _single_assignments(function) -> dict:
    """{name: value} for the names `function` binds exactly once, by a plain `name = value`."""
    counts, values = {}, {}
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            counts[node.id] = counts.get(node.id, 0) + 1
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            values[node.targets[0].id] = node.value
    return {name: value for name, value in values.items() if counts[name] == 1}


class _Walker:
    def __init__(self, params: dict, reporters: set):
        self.params, self.reporters = params, reporters  # callee -> its field or parameter names
        self.found: set = set()

    def arguments(self, call: ast.Call):
        """(label, value) for each argument of a call to a record or a reporter."""
        callee = call.func.id
        names = self.params[callee]
        for i, arg in enumerate(call.args):
            yield f"{callee}.{names[i] if i < len(names) else i}", arg
        for k in call.keywords:
            yield f"{callee}.{k.arg}", k.value

    def value(self, node, label: str, names: dict, seen: frozenset = frozenset()):
        """Record each literal that `node`, given as `label`, carries."""
        if _is_literal(node):
            self.found.add(f"{label} = {ast.unparse(node)}")
        elif isinstance(node, ast.IfExp):
            self.value(node.body, label, names, seen)
            self.value(node.orelse, label, names, seen)
        elif isinstance(node, (ast.Tuple, ast.List)):
            for e in node.elts:
                self.value(e, label, names, seen)
        elif isinstance(node, ast.Name) and node.id in names and node.id not in seen:
            self.value(names[node.id], label, names, seen | {node.id})
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in self.params:
            for _, arg in self.arguments(node):
                self.value(arg, label, names, seen)

    def function(self, function, where: str, handler: bool):
        names = _single_assignments(function)
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in self.params:
                for label, arg in self.arguments(node):
                    if node.func.id in self.reporters or label == "ExtensionWitness.witness_order":
                        self.value(arg, f"{where}: {label}", names)
            elif handler and isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if key is not None:
                        self.value(value, f"{where}: report[{ast.unparse(key)}]", names)
            elif handler and isinstance(node, ast.Assign) \
                    and isinstance(node.targets[0], ast.Subscript):
                self.value(node.value, f"{where}: {ast.unparse(node.targets[0])}", names)


def _is_record(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "record" for d in cls.decorator_list)


def _fields(cls: ast.ClassDef) -> list:
    return [n.target.id for n in cls.body
            if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]


def report_literals(sources: dict | None = None) -> set:
    """`module.function: Callee.field = literal` (or `report[key] = literal`)
    for every literal given as a result; `sources` replaces the text of
    modules by name."""
    sources = sources or {}
    trees = {path.stem: ast.parse(sources.get(path.stem) or path.read_text())
             for path in SRC.glob("*.py")}
    params, reports = {}, set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_record(node):
                params[node.name] = _fields(node)
                if module in MODULES and node.name not in INPUTS:
                    reports.add(node.name)
    reporters = set(reports)
    for module in MODULES:
        for node in trees[module].body:
            if isinstance(node, ast.FunctionDef) and isinstance(node.returns, ast.Name) \
                    and node.returns.id in reports:
                params[node.name] = [a.arg for a in node.args.args]
                reporters.add(node.name)
    walker = _Walker(params, reporters)
    for module in MODULES:
        for node in ast.walk(trees[module]):
            if isinstance(node, ast.FunctionDef):
                handler = module == "cli" and node.name.startswith("_cmd_")
                walker.function(node, f"{module}.{node.name}", handler)
    return walker.found


def test_every_literal_result_is_pending():
    found = report_literals()
    assert sorted(found - PENDING.keys()) == [], "literal results not on PENDING"
    assert sorted(PENDING.keys() - found) == [], "stale entries in PENDING"
    assert all(key.strip() for key in PENDING.values())


def test_no_derived_field_is_pending():
    fields = {entry.split(": ", 1)[1].split(" = ")[0].split(".")[-1] for entry in PENDING}
    assert fields.isdisjoint(DERIVED)


@pytest.mark.parametrize("module, derived, literal, expected", [
    ("tmffam", "kernel_finite=h1.is_finite()", "kernel_finite=True",
     "tmffam.lbr_tmf: LbrTmfReport.kernel_finite = True"),
    ("tmffam", "three_torsion=h1.torsion(three)", "three_torsion=FgAbGroup.cyclic(3)",
     "tmffam.lbr_tmf: LbrTmfReport.three_torsion = FgAbGroup.cyclic(3)"),
    ("kofam", 'h1_gm=SHIPPED_RINGS["Z"].pic', "h1_gm=FgAbGroup.zero()",
     "kofam.lbr_ko: omni_assemble.h1_gm = FgAbGroup.zero()"),
    ("cli", '"exact": rep.exact', '"exact": True', "cli._cmd_lbr_ko: report['exact'] = True"),
])
def test_the_gate_sees_a_constant_put_back(module, derived, literal, expected):
    source = (SRC / f"{module}.py").read_text()
    assert source.count(derived) == 1
    assert report_literals({module: source.replace(derived, literal)}) - PENDING.keys() \
        == {expected}
