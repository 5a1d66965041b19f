"""Every function and method in `src/brauerkit` is called by the golden
corpus, or is on `ALLOWED` with the reason it exists; and every field of a
`@record` class is read somewhere, or is on `ALLOWED_FIELDS`.

The corpus (`golden_corpus.CASES`, one of its `USAGE_CASES`, which only the
argparse parser reads, and `column_dump`) runs in a fresh
interpreter under `sys.setprofile`, so code that runs at import time, and
the fact table that a process loads once, count exactly when a report
needs them.  Run this file directly to print the names the corpus reaches.

A reason in `ALLOWED` or `ALLOWED_FIELDS` names a use that the corpus does
not make: a benchmark or tracer call, user input the corpus does not give,
a check a test makes, or a debugging aid.  A plan is no use: code kept for
a planned caller comes back with that caller, so no reason names ROADMAP
or one of its directions, at its start or anywhere else.

A field counts as read when `src/` or `bench/` reads an attribute of that
name outside its own class's `to_json`, `from_json` and `__post_init__`,
which only carry a field through or check it, or when a golden report
(`tests/golden/*.out`) shows a top-level key of that name: the CLI writes a
driver's record through `vars()`, which reads no attribute.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = SRC.parent / "bench"
GOLDEN = SRC.parent / "tests" / "golden"

ALLOWED = {
    "kofam.ku_additive_pages":
        "benchmark entry point: the algebra workload turns the KU pages",
    "kofam.ku_additive_d3_rules":
        "benchmark entry point: the algebra workload turns the KU pages",
    "kofam._bott_power": "benchmark entry point: the d3 rules of the KU pages",
    "kofam._power": "benchmark entry point: labels of the KU pages",
    "cyccoh.cohomology_row": "benchmark entry point: the algebra workload and the KU E2 page",
    "abelian.FgAbGroup.free": "benchmark entry point: the Z coefficients of the KU pages",
    "abelian.hom_kernel":
        "benchmark entry point: the algebra workload's hom requests; turn_page reads "
        "the kernel group alone, through homology",
    "abelian.hom_cokernel":
        "benchmark entry point: the algebra workload's hom requests; turn_page reads "
        "the cokernel group alone, through cokernel",
    "abelian.GroupHom.from_columns": "benchmark entry point: the inclusion hom_kernel returns",
    "ssengine.page_to_json":
        "benchmark entry point: the algebra workload writes each turned page through it; "
        "ss-run returns the page_to_dict it dumps, which the report writer encodes",
    "ssengine.DifferentialRule.matches":
        "tracer hook: bench/tracing.py patches it to count rule matches, and "
        "tests/ssengine_oracle.py scans rules through it; turn_page looks rules up by source",
    "numbrauer.DivisibleGroupDescriptor.n_torsion":
        "paper check: test_acceptance.py compares it with the brute-force kernel count",
    "abelian.FgAbGroup.exponent":
        "benchmark check: bench/workloads.py checks a resolved extension's exponent; cyccoh "
        "reaches it only by user input, a sign action of odd n",
    "kofam.EtaleRingDescriptor.to_json":
        "other half of a (de)serializer: from_json reads --ring descriptor files",
    "abelian._lr_positive":
        "reached only by user input: pic-ko --ring <file> when Pic(R) has even order",
    "abelian._contains": "reached only by user input: the containment test of _lr_positive",
    "record._repr": "debugging aid: tests/test_record.py checks the Name(field=value) form",
    "record._frozen":
        "immutability guard: tests/test_record.py assigns and deletes fields, which no report does",
}

ALLOWED_FIELDS = {
    "sheaftab.Unknown.reason":
        "shown to the user: a NoFact message carries the Unknown's repr",
    "sheaftab.Unknown.rule": "shown to the user: a NoFact message carries the Unknown's repr",
    "tmffam.LbrMOReport.generator_map":
        "benchmark digest: bench/workloads.py canonicalises lbr_m_o through vars()",
}

# a record's own (de)serializer and check carry its fields without using them
_CARRIERS = ("to_json", "from_json", "__post_init__")


def defined() -> dict:
    """{code object: "module.name" or "module.Class.name"} for every function
    and method written in src/brauerkit."""
    import brauerkit

    out = {}
    for info in pkgutil.iter_modules(brauerkit.__path__):
        mod = importlib.import_module(f"brauerkit.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[inspect.unwrap(obj).__code__] = f"{info.name}.{name}"
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    if isinstance(raw, (staticmethod, classmethod)):
                        raw = raw.__func__
                    elif isinstance(raw, property):
                        raw = raw.fget
                    if inspect.isfunction(raw) and raw.__code__.co_filename == mod.__file__:
                        out[raw.__code__] = f"{info.name}.{name}.{attr}"
    return out


def reached() -> list:
    """Names of the functions and methods the golden corpus calls."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        from golden_corpus import CASES, USAGE_CASES, cli_output, column_dump, usage_output
        for argv in CASES.values():
            cli_output(argv)
        usage_output(USAGE_CASES["snf_no_matrix"])
        column_dump()
    finally:
        sys.setprofile(None)
    return sorted(name for code, name in defined().items() if code in seen)


def record_fields() -> dict:
    """{(module, class): field names} for every record class in src/brauerkit."""
    import brauerkit

    out = {}
    for info in pkgutil.iter_modules(brauerkit.__path__):
        mod = importlib.import_module(f"brauerkit.{info.name}")
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__ and "_fields" in vars(obj):
                out[info.name, name] = obj._fields
    return out


def attribute_reads() -> set:
    """(attribute, module, class, method) for every attribute read in src/ and
    bench/; class and method name the enclosing class and its method, or are
    None outside a class."""
    reads = set()

    def walk(node, module, cls, method):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, module, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and method is None:
                walk(child, module, cls, child.name if cls else None)
            else:
                if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                    reads.add((child.attr, module, cls, method))
                walk(child, module, cls, method)

    for path in sorted((SRC / "brauerkit").glob("*.py")) + sorted(BENCH.glob("*.py")):
        module = path.stem if path.parent.name == "brauerkit" else None
        walk(ast.parse(path.read_text(), str(path)), module, None, None)
    return reads


def report_keys() -> set:
    """The top-level keys of the golden JSON reports; an SVG chart has none."""
    keys = set()
    for path in GOLDEN.glob("*.out"):
        text = path.read_text()
        if text.startswith("{"):
            keys.update(json.loads(text))
    return keys


def unread_fields() -> list:
    """`module.Class.field` for each record field that nothing reads and no
    report shows."""
    reads, shown = attribute_reads(), report_keys()
    out = []
    for (module, cls), fields in record_fields().items():
        for field in fields:
            if field not in shown and not any(attr == field and not (m == module and c == cls and f in _CARRIERS)
                       for attr, m, c, f in reads):
                out.append(f"{module}.{cls}.{field}")
    return sorted(out)


def test_every_record_field_is_read_or_allowed():
    unread = unread_fields()
    assert sorted(set(unread) - ALLOWED_FIELDS.keys()) == [], "neither read nor allowed"
    assert sorted(ALLOWED_FIELDS.keys() - set(unread)) == [], "stale entries in ALLOWED_FIELDS"
    assert all(reason.strip() for reason in ALLOWED_FIELDS.values())


def test_every_function_is_reached_or_allowed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    child = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                           env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    called = set(json.loads(child.stdout))
    names = set(defined().values())
    assert sorted(names - called - ALLOWED.keys()) == [], "neither reached nor allowed"
    assert sorted(ALLOWED.keys() - (names - called)) == [], "stale entries in ALLOWED"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_allowed_reason_names_a_use_not_a_plan():
    reasons = {**ALLOWED, **ALLOWED_FIELDS}
    plans = [name for name, reason in reasons.items() if re.search(r"ROADMAP|\bdirections? \d", reason)]
    assert plans == [], "kept for a plan, not for a use"


if __name__ == "__main__":
    print(json.dumps(reached()))
