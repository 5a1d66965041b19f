"""The JSON boundary: every malformed page file, ring descriptor, `--places`
list and JSON flag is an input error (exit 2) that names the key it broke.

For each key of the golden page files, of the golden ring descriptor and of
a `--places` list, each value of another JSON type is put in its place, and
separately the key is dropped; `cli.main` runs in process on the result.
The seeded part makes 1 to 3 substitutions per document at once; it reads
JSON_BOUNDARY_SEED when it is set.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random

import pytest

from brauerkit.cli import main
from golden_corpus import CASES, CHAIN_PAGE, PAGE, RING_FILE

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


def _run(name, doc, tmp_path):
    """Exit code, stdout and stderr of the verb that reads the document `name`."""
    if name == "places":
        argv = ["br-number-ring", "--places", json.dumps(doc)]
    else:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv = ["pic-ko", "--ring", str(path)] if name == "ring" else ["ss-run", "--page", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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


def test_seeded_nested_substitutions(tmp_path):
    rng = random.Random(int(os.environ.get("JSON_BOUNDARY_SEED", "20261019")))
    failures = []
    for _ in range(60):
        for name, doc in DOCS.items():
            paths = list(_key_paths(doc))
            chosen = []
            for path in rng.sample(paths, rng.randint(1, 3)):
                if not any(path[:len(p)] == p or p[:len(path)] == path for p, _ in chosen):
                    wrong = [v for v in WRONG if _json_type(v) != _json_type(_at(doc, path))]
                    chosen.append((path, rng.choice(wrong)))
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
