"""Every CLI report and the column-0 dump in `tests/golden/` must come out
byte for byte the same (see `golden_corpus.py`), and so must the help,
usage and error output of the front door."""

import json
import sys

import pytest

from golden_corpus import (
    CASES,
    CHAIN_PAGE,
    GOLDEN,
    PAGE,
    RING_FILE,
    USAGE_CASES,
    USAGE_PYTHON,
    cli_output,
    column_dump,
    usage_output,
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name):
    code, out = cli_output(CASES[name])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


def test_column0_configs_match_golden():
    assert column_dump().encode("utf-8") == (GOLDEN / "column0_configs.json").read_bytes()


@pytest.mark.parametrize("name", sorted(USAGE_CASES))
def test_usage_and_errors_match_golden(name):
    got = usage_output(USAGE_CASES[name])
    want = (GOLDEN / f"usage_{name}.json").read_bytes()
    assert json.loads(got)["exit"] == json.loads(want)["exit"]
    if sys.version_info[:2] != USAGE_PYTHON:
        pytest.skip("the files hold argparse's wording on Python %d.%d" % USAGE_PYTHON)
    assert got.encode("utf-8") == want


def test_golden_holds_only_what_the_corpus_writes():
    # a file whose case was removed would stay behind and never be compared
    written = {f"{name}.out" for name in CASES} | {f"usage_{name}.json" for name in USAGE_CASES}
    fixtures = {PAGE.name, CHAIN_PAGE.name, RING_FILE.name}
    assert {p.name for p in GOLDEN.iterdir()} == written | fixtures | {"column0_configs.json"}
