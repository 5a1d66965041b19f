"""The JSON boundary: every malformed page file, ring descriptor, `--places`
list, JSON flag and curated data file is an input error (exit 2) that names
the key it broke.

For each key of the golden page files, of the golden ring descriptor and of
a `--places` list, each value of another JSON type is put in its place, and
separately the key is dropped; `cli.main` runs in process on the result.
The curated data files get the same treatment in a copy of the data
directory that `BRAUERKIT_DATA` points at: every key of `tmf_pages.json`,
and every key of one fact of each value shape in `sheaf_facts.json`, read
by the TMF and KO verbs that load the file.  The seeded parts make 1 to 3
substitutions per document at once; they read DIFFERENTIAL_SEED when it is
set.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random

import pytest

import brauerkit.sheaftab as sheaftab
from brauerkit import data_dir
from brauerkit.cli import main
from golden_corpus import CASES, CHAIN_PAGE, PAGE, RING_FILE
from seeds import differential_seed

WRONG = (None, True, 1, 1.5, "x", [], {})
PLACES = [{"kind": "real"}, {"kind": "finite", "label": "2"}]
# keys a reader may go without; dropping one of them is no input error by itself
OPTIONAL = {"rules", "label", "index", "assumed", "free_rank", "factors", "surjective",
            "relabel", "name", "residue_field_degrees_at_2", "connected", "inverted_primes"}
DOCS = {"page": json.loads(PAGE.read_text()), "page_chain": json.loads(CHAIN_PAGE.read_text()),
        "ring": json.loads(RING_FILE.read_text()), "places": {"places": PLACES}}


def _json_type(value) -> str:
    return "null" if value is None else type(value).__name__


def _key_paths(doc, prefix=()):
    """The path of every key of every object in `doc`, outer keys first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for step, value in items:
        if isinstance(doc, dict):
            yield prefix + (step,)
        yield from _key_paths(value, prefix + (step,))


_DROP = object()


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _edited(doc, edits):
    """A deep copy of `doc` with each (path, value) set, or the key dropped
    when the value is `_DROP`."""
    doc = copy.deepcopy(doc)
    for path, value in edits:
        parent = _at(doc, path[:-1])
        if value is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def _main(argv):
    """Exit code, stdout and stderr of `cli.main(argv)` in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run(name, doc, tmp_path):
    """Exit code, stdout and stderr of the verb that reads the document `name`."""
    if name == "places":
        return _main(["br-number-ring", "--places", json.dumps(doc)])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return _main(["pic-ko", "--ring", str(path)] if name == "ring" else ["ss-run", "--page", str(path)])


def _refusal_naming(result, keys) -> str | None:
    """None when `result` is exit 2 with no output and one of `keys` quoted in
    the error, otherwise what went wrong."""
    code, out, err = result
    if code == 2 and out == "" and any(f"'{key}'" in err for key in keys):
        return None
    return f"exit {code}, stdout {out[:40]!r}, stderr {err.strip()!r}"


def test_the_fixtures_are_accepted(tmp_path):
    for name, doc in DOCS.items():
        code, out, err = _run(name, doc, tmp_path)
        assert code == 0 and out and err == "", (name, err)


@pytest.mark.parametrize("name", sorted(DOCS))
def test_each_key_refuses_every_other_json_type(name, tmp_path):
    doc, failures = DOCS[name], []
    for path in _key_paths(doc):
        for value in WRONG:
            if _json_type(value) == _json_type(_at(doc, path)):
                continue
            problem = _refusal_naming(_run(name, _edited(doc, [(path, value)]), tmp_path),
                                      [path[-1]])
            if problem:
                failures.append(f"{path} = {json.dumps(value)}: {problem}")
    assert failures == []


@pytest.mark.parametrize("name", sorted(DOCS))
def test_each_required_key_is_named_when_dropped(name, tmp_path):
    doc, failures = DOCS[name], []
    for path in _key_paths(doc):
        code, out, err = result = _run(name, _edited(doc, [(path, _DROP)]), tmp_path)
        if path[-1] in OPTIONAL:
            # the document stays well formed: any declared outcome but a traceback
            problem = None if code != 1 and (out == "") == (code != 0) else f"exit {code}: {err}"
        else:
            problem = _refusal_naming(result, [path[-1]])
        if problem:
            failures.append(f"without {path}: {problem}")
    assert failures == []


def _seeded_edits(rng, doc, paths):
    """1 to 3 substitutions of a value of another JSON type, none inside another."""
    chosen = []
    for path in rng.sample(paths, rng.randint(1, 3)):
        if not any(path[:len(p)] == p or p[:len(path)] == path for p, _ in chosen):
            wrong = [v for v in WRONG if _json_type(v) != _json_type(_at(doc, path))]
            chosen.append((path, rng.choice(wrong)))
    return chosen


def _seed() -> int:
    return differential_seed(20261019)


def test_seeded_nested_substitutions(tmp_path):
    rng = random.Random(_seed())
    failures = []
    for _ in range(60):
        for name, doc in DOCS.items():
            chosen = _seeded_edits(rng, doc, list(_key_paths(doc)))
            problem = _refusal_naming(_run(name, _edited(doc, chosen), tmp_path),
                                      [path[-1] for path, _ in chosen])
            if problem:
                failures.append(f"{name} {chosen}: {problem}")
    assert failures == []


@pytest.mark.parametrize("flag, argv", [
    ("--matrix", ["snf", "--matrix"]),
    ("--orders", ["cohomology", "--s", "1", "--orders"]),
    ("--primes", ["h1-qz", "--primes"]),
    ("--places", ["br-number-ring", "--places"]),
])
def test_each_json_flag_refuses_every_other_json_type(capsys, flag, argv):
    needle = "'places'" if flag == "--places" else f"'{flag}'"  # --places may be an object
    for value in WRONG:
        if value == []:
            continue
        assert main(argv + [json.dumps(value)]) == 2, value
        out = capsys.readouterr()
        assert out.out == "" and needle in out.err, (value, out.err)


def _page_with(tmp_path, source, edit):
    doc = json.loads(source.read_text())
    edit(doc)
    path = tmp_path / "page.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _assert_refused(capsys, argv, *needles):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and all(n in out.err for n in needles), out.err
    return out.err


def test_ring_with_inverted_primes_as_a_string(capsys, tmp_path):
    # tuple("37") once read as the primes "3" and "7" and reported total_order 576
    ring = dict(json.loads(RING_FILE.read_text()), inverted_primes="37")
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring))
    for verb in ("pic-tmf", "pic-ko"):
        _assert_refused(capsys, [verb, "--ring", str(path)], "'inverted_primes'")


@pytest.mark.parametrize("rule, matrix", [(2, [[0.5]]), (0, [[2.5]]), (2, [[True]])],
                         ids=["zero-rule-half", "first-rule-two-and-a-half", "zero-rule-true"])
def test_rule_matrix_entries_must_be_integers(capsys, tmp_path, rule, matrix):
    # a float matrix once reached the Smith form: "matrix must be 0x1" or "d∘d ≠ 0"
    page = _page_with(tmp_path, CHAIN_PAGE, lambda d: d["rules"][rule].update(matrix=matrix))
    err = _assert_refused(capsys, ["ss-run", "--page", page], "'matrix'", "[[int]]")
    assert "0x1" not in err and "d∘d" not in err


def test_entry_that_is_a_list(capsys, tmp_path):
    page = _page_with(tmp_path, CHAIN_PAGE, lambda d: d.update(entries=[[0, 0]]))
    _assert_refused(capsys, ["ss-run", "--page", page], "'entries'")


def test_assumed_that_is_a_string(capsys, tmp_path):
    # tuple("ab") once became the markers a and b
    page = _page_with(tmp_path, CHAIN_PAGE, lambda d: d["entries"][0].update(assumed="ab"))
    _assert_refused(capsys, ["ss-run", "--page", page], "'assumed'")


def test_entry_of_an_unknown_kind(capsys, tmp_path):
    # once reported as a missing 'sheaf' key
    page = _page_with(tmp_path, CHAIN_PAGE, lambda d: d["entries"][0]["entry"].update(kind="nope"))
    err = _assert_refused(capsys, ["ss-run", "--page", page], "'kind'", "'nope'")
    assert "'sheaf'" not in err


@pytest.mark.parametrize("index", [0, -1])
def test_entry_index_must_be_positive(capsys, tmp_path, index):
    page = _page_with(tmp_path, PAGE, lambda d: d["entries"][1].update(index=index))
    _assert_refused(capsys, ["ss-chart", "--page", page], "'index'")


@pytest.mark.parametrize("verb", ["ss-run", "ss-chart"])
def test_page_path_that_is_missing_or_a_directory(capsys, tmp_path, verb):
    missing = str(tmp_path / "missing.json")
    _assert_refused(capsys, [verb, "--page", missing], missing)
    _assert_refused(capsys, [verb, "--page", str(tmp_path)], str(tmp_path))


@pytest.mark.parametrize("verb", ["pic-ko", "pic-tmf"])
def test_ring_path_that_is_a_directory(capsys, tmp_path, verb):
    _assert_refused(capsys, [verb, "--ring", str(tmp_path)], str(tmp_path))


def test_output_into_a_missing_directory(capsys, tmp_path):
    target = str(tmp_path / "no" / "such" / "dir" / "x.json")
    first = {}
    for argv in CASES.values():
        first.setdefault(argv[0], argv)
    for verb, argv in sorted(first.items()):
        err = _assert_refused(capsys, argv + ["--output", target], target)
        assert err.startswith("error: cannot write"), verb


# ---------------------------------------------------------------------------
# the curated data files, through BRAUERKIT_DATA
# ---------------------------------------------------------------------------


def _shipped(name):
    with open(os.path.join(data_dir(), name)) as fh:
        return json.load(fh)


CURATED = {name: _shipped(name) for name in ("tmf_pages.json", "sheaf_facts.json")}
# one fact of each value shape: 0, a group, and the sheaf symbol of a kernel
FACT_SHAPES = {("Z/2", "SpecZ", 1), ("O/(2,j)", "A1", 0),
               ("ker(x + x^2 | ext!(O/(2,j); O/(2,j)))", "A1", 0)}
CURATED_PATHS = {
    "tmf_pages.json": list(_key_paths(CURATED["tmf_pages.json"])),
    "sheaf_facts.json": [(i,) + path for i, fact in enumerate(CURATED["sheaf_facts.json"])
                         if (fact["sheaf"], fact["site"], fact["degree"]) in FACT_SHAPES
                         for path in _key_paths(fact)],
}
# the verbs that load each file (pic-ko loads neither, pic-tmf-c4inv no fact)
CURATED_VERBS = {
    "tmf_pages.json": (["pic-tmf"], ["pic-tmf-c4inv"], ["lbr-tmf", "--window", "8"],
                       ["lbr-mo", "--window", "8"]),
    "sheaf_facts.json": (["pic-tmf"], ["lbr-tmf", "--window", "8"], ["lbr-mo", "--window", "8"],
                         ["lbr-ko"]),
}
# keys the loaders do not read, and keys with a default that may be dropped
UNREAD = {"window", "s_max", "t_max"}
DEFAULTED = {"local", "split", "free_rank", "factors", "nontrivial", "surjective"}


def _accepted(path, value) -> bool:
    """Whether the edit leaves a well-formed data file: an unread key, a
    dropped key with a default, or {} (the zero group) as a fact's value."""
    return (path[-1] in UNREAD or (value is _DROP and path[-1] in DEFAULTED) or (path[-1] == "value" and value == {}))


@pytest.fixture
def curated(tmp_path, monkeypatch):
    """`run(name, doc, argv)`: exit code, stdout and stderr of `argv` with
    BRAUERKIT_DATA at a copy of the curated data whose file `name` is `doc`."""
    monkeypatch.setenv("BRAUERKIT_DATA", str(tmp_path))
    monkeypatch.setattr(sheaftab, "_DEFAULT_TABLE", None)
    shipped = {name: json.dumps(doc) for name, doc in CURATED.items()}

    def run(name, doc, argv):
        for file, text in shipped.items():
            (tmp_path / file).write_text(json.dumps(doc) if file == name else text)
        sheaftab._DEFAULT_TABLE = None  # the table of the previous run came from other data
        return _main(argv)
    return run


def _curated_problem(result, edits) -> str | None:
    """None when `result` is what the edits call for: any exit but 1 for
    accepted edits, otherwise exit 2 naming a key that was broken."""
    code, out, err = result
    broken = [path[-1] for path, value in edits if not _accepted(path, value)]
    if broken:
        return _refusal_naming(result, broken)
    return None if code in (0, 2, 3) and (out == "") == (code != 0) else f"exit {code}: {err}"


@pytest.mark.parametrize("name", sorted(CURATED))
def test_each_curated_key_refuses_other_json_types_and_its_absence(name, curated):
    doc, verbs, failures = CURATED[name], CURATED_VERBS[name], []
    cases = [[(path, value)] for path in CURATED_PATHS[name]
             for value in (*WRONG, _DROP) if _json_type(value) != _json_type(_at(doc, path))]
    for i, edits in enumerate(cases):
        problem = _curated_problem(curated(name, _edited(doc, edits), verbs[i % len(verbs)]), edits)
        if problem:
            failures.append(f"{edits}: {problem}")
    assert failures == []


def test_seeded_curated_substitutions(curated):
    rng, failures = random.Random(_seed()), []
    for _ in range(60):
        for name, doc in CURATED.items():
            edits = _seeded_edits(rng, doc, CURATED_PATHS[name])
            argv = rng.choice(CURATED_VERBS[name])
            problem = _curated_problem(curated(name, _edited(doc, edits), argv), edits)
            if problem:
                failures.append(f"{name} {argv} {edits}: {problem}")
    assert failures == []


@pytest.mark.parametrize("name, edit, argv, needle", [
    ("tmf_pages.json", lambda d: d["column0"][0].pop("s"), ["pic-tmf"], "'s'"),
    ("tmf_pages.json", lambda d: d["special_rules"][0].update(p="2"), ["pic-tmf"], "'p'"),
    ("sheaf_facts.json", lambda d: next(f for f in d if f["sheaf"] == "ker(x + j*x^2 | O/2)")
     ["value"].pop("symbol"), ["pic-tmf"], "'symbol'"),
    ("tmf_pages.json", lambda d: d["lbr_mo"].update(rows_o2j=3), ["lbr-mo"], "'rows_o2j'"),
    ("tmf_pages.json", lambda d: d["unresolved"].update(d23_row7="Iso"), ["pic-tmf"], "'d23_row7'"),
    ("tmf_pages.json", lambda d: d["unresolved"].update(d23_row7="Iso"), ["lbr-tmf"], "'d23_row7'"),
    ("tmf_pages.json", lambda d: d["special_rules"][0].update(p=5), ["pic-tmf"],
     "only characteristics 2 and 3 are supported"),
    ("sheaf_facts.json", lambda d: d[0].update(citation=""), ["lbr-ko"], "lacks a citation"),
    ("tmf_pages.json", lambda d: d["pic_witness"].update(citation=""), ["pic-tmf"],
     "pic_witness lacks a citation"),
    ("tmf_pages.json", lambda d: d["pic_witness"].pop("citation"), ["pic-tmf"], "'citation'"),
], ids=["column0-entry-without-s", "operator-p-a-string", "kernel-fact-without-symbol",
        "rows_o2j-an-int", "d23_row7-Iso-pic-tmf", "d23_row7-Iso-lbr-tmf", "operator-p-5",
        "fact-with-an-empty-citation", "pic-witness-with-an-empty-citation",
        "pic-witness-without-a-citation"])
def test_malformed_curated_data(curated, name, edit, argv, needle):
    # each once ended in a traceback (exit 1), for "Iso" in two reports that
    # disagree on whether d23_row7 is assumed zero, or for an empty fact
    # citation or an empty or missing pic_witness citation in exit 0
    doc = copy.deepcopy(CURATED[name])
    edit(doc)
    code, out, err = curated(name, doc, argv)
    assert (code, out) == (2, "") and needle in err, err
    assert "not a power" not in err


def test_a_missing_rule_key_is_named_beside_the_files_own_keys(curated):
    # the rule was once read with a "provenance" key added, which the message listed
    doc = copy.deepcopy(CURATED["tmf_pages.json"])
    rule = next(r for r in doc["special_rules"] if r["name"] == "d9_55")
    rule["kind"] = "matrix"
    code, out, err = curated("tmf_pages.json", doc, ["pic-tmf"])
    assert (code, out) == (2, "")
    assert f"the key 'source_group' is missing beside the keys {sorted(rule)}" in err, err


def _kernel_at_3_on_spec_f5(d):
    fact = next(f for f in d if f["sheaf"] == "ker(x + 2*x^3 | O/(3,j))")
    fact["value"]["symbol"]["residue_site"] = "SpecF5"


@pytest.mark.parametrize("argv", [["pic-tmf"], ["lbr-tmf", "--window", "8"],
                                  ["lbr-mo", "--window", "8"]], ids=lambda argv: argv[0])
@pytest.mark.parametrize("name, edit, value", [
    *(("tmf_pages.json", lambda d, i=i: d["special_rules"][i].update(kind="Operator"), "Operator")
      for i in range(4)),
    ("sheaf_facts.json", _kernel_at_3_on_spec_f5, "SpecF5"),
], ids=[*(f"rule-{i}-kind-Operator" for i in range(4)), "kernel-residue-site-SpecF5"])
def test_curated_values_the_drivers_cannot_apply(curated, name, edit, value, argv):
    # "Operator" on d9_55 once dropped the differential and pic-tmf reported the
    # 3-local gr^5 as O/(3,j); SpecF5 left every report as it was, with exit 0
    doc = copy.deepcopy(CURATED[name])
    edit(doc)
    code, out, err = curated(name, doc, argv)
    assert (code, out) == (2, "") and f"'{value}'" in err, err


@pytest.mark.parametrize("directory", [False, True], ids=["missing", "a-directory"])
@pytest.mark.parametrize("name, argv", [("tmf_pages.json", ["pic-tmf-c4inv"]),
                                        ("sheaf_facts.json", ["lbr-ko"])])
def test_unreadable_curated_file(curated, tmp_path, name, argv, directory):
    assert curated(name, CURATED[name], argv)[0] == 0
    (tmp_path / name).unlink()
    if directory:
        (tmp_path / name).mkdir()
    sheaftab._DEFAULT_TABLE = None
    code, out, err = _main(argv)
    assert (code, out) == (3, "") and name in err


def test_charp_entry_window_of_one_degree(capsys, tmp_path):
    # once "not enough values to unpack (expected 2, got 1)"
    charp = {"kind": "charp", "name": "M", "p": 2, "window": [0], "laurent": False}
    page = _page_with(tmp_path, PAGE, lambda d: d["entries"].append({"s": 9, "t": 9, "entry": charp}))
    err = _assert_refused(capsys, ["ss-run", "--page", page], "'window'")
    assert "unpack" not in err


@pytest.mark.parametrize("p", [5, 0])
def test_operator_rule_of_another_characteristic(capsys, tmp_path, p):
    # p = 5 was refused as "exponent 2 is not a power of 5", p = 0 ended in
    # ZeroDivisionError
    def edit(doc):
        next(r for r in doc["rules"] if r["kind"] == "operator").update(p=p)

    page = _page_with(tmp_path, PAGE, edit)
    err = _assert_refused(capsys, ["ss-run", "--page", page], "only characteristics 2 and 3")
    assert "not a power" not in err
