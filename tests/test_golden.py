"""Every CLI report and the column-0 dump in `tests/golden/` must come out
byte for byte the same (see `golden_corpus.py`)."""

import pytest

from golden_corpus import CASES, GOLDEN, cli_output, column_dump


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name):
    code, out = cli_output(CASES[name])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


def test_column0_configs_match_golden():
    assert column_dump().encode("utf-8") == (GOLDEN / "column0_configs.json").read_bytes()
