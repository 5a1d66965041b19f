import json
import os
import subprocess
import sys
import time

import pytest

from brauerkit.cli import main
from golden_corpus import CASES, PAGE, USAGE_CASES, usage_output
from brauerkit.ssengine import DifferentialRule, Entry, SSPage, page_to_json
from brauerkit.abelian import FgAbGroup, GroupHom


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


# ---------------------------------------------------------------------------
# basic verbs
# ---------------------------------------------------------------------------


def test_snf(capsys):
    rep = run_json(capsys, "snf", "--matrix", "[[2,4],[6,8]]")
    assert rep["diagonal"] == [2, 4]


def test_cohomology(capsys):
    rep = run_json(capsys, "cohomology", "--orders", "[0]", "--action", "sign", "--s", "1")
    assert rep["group"] == "Z/2"


def test_artin_schreier_example(capsys):
    rep = run_json(capsys, "artin-schreier", "--p", "2", "--op", "x + j*x^2",
                   "--laurent", "--window", "16")
    assert rep["kernel"] == ["j^-1"]


def test_artin_schreier_cokernel(capsys):
    rep = run_json(capsys, "artin-schreier", "--p", "2", "--op", "x + j*x^2",
                   "--window", "32", "--cokernel")
    assert "j^2" in rep["cokernel_basis"] and "j^4" in rep["cokernel_basis"]


def test_cech(capsys):
    rep = run_json(capsys, "cech", "--n-vars", "4", "--window", "6")
    assert rep["degree"] == 3
    assert [-1, -1, -1, -1] in rep["basis"]
    assert all(all(e <= -1 for e in v) for v in rep["basis"])


def test_br_number_ring_z(capsys):
    rep = run_json(capsys, "br-number-ring", "--places", '[{"kind":"real"}]')
    assert rep["group"] == "0"


def test_br_number_ring_z_one_sixth(capsys):
    places = json.dumps([{"kind": "real"}, {"kind": "finite", "label": "2"},
                         {"kind": "finite", "label": "3"}])
    rep = run_json(capsys, "br-number-ring", "--places", places)
    assert rep["group"] == "Q/Z ⊕ Z/2"


def test_h1_qz_discrepancy_flagged(capsys):
    rep = run_json(capsys, "h1-qz", "--primes", "[2,3]")
    assert rep["discrepancy"] is True
    assert "stated" in rep and rep["stated"] != rep["computed"]


def test_br_laurent_z(capsys):
    rep = run_json(capsys, "br-laurent")
    assert rep["group"] == "0"


# ---------------------------------------------------------------------------
# KO and TMF verbs
# ---------------------------------------------------------------------------


def test_pic_ko_default(capsys):
    rep = run_json(capsys, "pic-ko")
    assert rep["group"] == "Z/8"


def test_pic_ko_ring_file(capsys, tmp_path):
    from brauerkit.kofam import SHIPPED_RINGS
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(SHIPPED_RINGS["Z[w][1/17]"].to_json()))
    rep = run_json(capsys, "pic-ko", "--ring", str(path))
    assert rep["group"] == "Z/2 ⊕ Z/8"


def test_lbr_ko(capsys):
    rep = run_json(capsys, "lbr-ko")
    assert rep["group"] == "Z/2" and rep["exact"]


def test_pic_tmf(capsys):
    rep = run_json(capsys, "pic-tmf")
    assert rep["local_groups"] == {"2": "Z/64", "3": "Z/9", "5": "0"}
    assert rep["gr_above_7"] == 0
    assert max(item["s"] for item in rep["column0"]) == 7
    assert rep["citations"]


def test_pic_tmf_ring(capsys, tmp_path):
    from brauerkit.kofam import SHIPPED_RINGS
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(SHIPPED_RINGS["Z"].to_json()))
    rep = run_json(capsys, "pic-tmf", "--ring", str(path))
    assert rep["total_order"] == 576


def test_pic_tmf_c4inv(capsys):
    rep = run_json(capsys, "pic-tmf-c4inv")
    assert rep["group"] == "Z/2 ⊕ Z/8"


def test_lbr_tmf(capsys):
    rep = run_json(capsys, "lbr-tmf", "--window", "16")
    assert rep["three_torsion"] == "Z/3"
    assert rep["two_local_basis"][0] == "j^2"
    assert rep["assumed"]


def test_lbr_mo(capsys):
    rep = run_json(capsys, "lbr-mo", "--window", "16")
    assert rep["two_local_kernel_order"] == 8
    assert rep["three_local"] == "Z/3"


# ---------------------------------------------------------------------------
# spectral sequence files
# ---------------------------------------------------------------------------


@pytest.fixture()
def page_file(tmp_path):
    page = SSPage(2, {(0, 0): Entry(FgAbGroup.cyclic(2)),
                      (2, 1): Entry(FgAbGroup.cyclic(2))})
    rules = [DifferentialRule(2, (0, 0), "iso", provenance="test page")]
    path = tmp_path / "page.json"
    path.write_text(page_to_json(page, rules))
    return path


def test_ss_run(capsys, page_file):
    rep = run_json(capsys, "ss-run", "--page", str(page_file))
    assert rep["r"] == 3 and rep["entries"] == []


def test_ss_chart_svg(capsys, page_file):
    code, out = run(capsys, "ss-chart", "--page", str(page_file))
    assert code == 0
    assert out.startswith("<svg") and "legend:" in out


# ---------------------------------------------------------------------------
# exit codes, determinism, data-file records
# ---------------------------------------------------------------------------


def test_exit_2_on_unknown_flag(capsys):
    assert main(["lbr-ko", "--bogus"]) == 2


def test_exit_2_on_bad_operator(capsys):
    assert main(["artin-schreier", "--p", "2", "--op", "x + @@"]) == 2


def test_exit_2_on_zero_exponent_or_other_variable(capsys):
    assert main(["artin-schreier", "--p", "2", "--op", "x^0 + x^2"]) == 2
    assert main(["artin-schreier", "--p", "2", "--op", "y + j*y^2"]) == 2
    assert capsys.readouterr().out == ""


def test_exit_2_on_non_integer_snf_entries(capsys):
    for matrix in ("[[1.5]]", "[[true, 2]]", '[["1"]]', "[[1, 2], [3]]", "5"):
        assert main(["snf", "--matrix", matrix]) == 2, matrix
    assert capsys.readouterr().out == ""
    assert run_json(capsys, "snf", "--matrix", "[]")["diagonal"] == []


def test_exit_2_on_non_integer_orders(capsys):
    for orders in ("[4.5]", "[2.0]", "[true, 4]", "[-1]", "4", '["2"]'):
        assert main(["cohomology", "--orders", orders, "--s", "1"]) == 2, orders
    assert capsys.readouterr().out == ""


def test_exit_2_on_a_cech_basis_over_the_bound(capsys):
    # C(41, 4) = 101270 is the first n = 4 basis over the bound of 100000
    assert main(["cech", "--n-vars", "4", "--window", "41"]) == 2
    err = capsys.readouterr().err
    assert "C(41, 4) = 101270" in err and "100000" in err
    assert main(["cech", "--n-vars", "400", "--window", "10000"]) == 2
    assert "C(10000, 400) >= 2^400" in capsys.readouterr().err
    assert len(run_json(capsys, "cech", "--n-vars", "4", "--window", "40")["basis"]) == 91390


def test_exit_2_at_once_on_a_charp_window_over_the_bound(capsys):
    for argv, degrees in ((["lbr-tmf", "--window", "100000"], 100001),
                          (["artin-schreier", "--p", "2", "--op", "x + j*x^2", "--window", "2000",
                            "--cokernel"], 2001)):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr()
        assert out.out == "" and f"{degrees} degrees, over the bound of 513" in out.err


def test_exit_2_on_an_extension_with_too_many_candidates(capsys, tmp_path):
    # Pic(R) = Z/2^48 against sections of order 8: p(51) = 239943 groups of order 2^51
    from brauerkit.kofam import SHIPPED_RINGS
    ring = dict(SHIPPED_RINGS["Z"].to_json(), pic={"free_rank": 0, "factors": [2 ** 48]})
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring))
    assert main(["pic-ko", "--ring", str(path)]) == 2
    assert "239943 abelian groups, over the bound of 100000" in capsys.readouterr().err


def test_cech_with_many_variables_builds_its_one_monomial(capsys):
    # C(1200, 1200) = 1 monomial: the composition of 0 into 1200 parts
    assert run_json(capsys, "cech", "--n-vars", "1200", "--window", "1200")["basis"] == [[-1] * 1200]


def test_exit_2_on_a_cech_basis_over_the_exponent_bound(capsys):
    # C(901, 900) = 901 monomials is under the monomial bound, but 901 * 900 exponents are not
    assert main(["cech", "--n-vars", "900", "--window", "901"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "810900" in out.err and "400000" in out.err


def test_exit_2_on_non_prime_primes(capsys):
    for primes in ("[4]", "[1]", "[0]", "[-3]", "[true]", "[2.0]", "[3215031751]", "3"):
        assert main(["h1-qz", "--primes", primes]) == 2, primes
    assert main(["br-laurent", "--places", '[{"kind":"finite","label":"4"}]',
                 "--primes", "[4]"]) == 2
    assert capsys.readouterr().out == ""


def test_exit_2_when_sigma_is_not_an_action(capsys):
    # -1 on Z has order 2, so it is no action of C_3; C_0 is no group
    for n in ("3", "0"):
        argv = ["cohomology", "--orders", "[0]", "--action", "sign", "--n", n, "--s", "1"]
        assert main(argv) == 2, n
    assert capsys.readouterr().out == ""


def test_large_n_costs_logarithmically_many_compositions(capsys, monkeypatch):
    calls = []
    compose = GroupHom.compose
    monkeypatch.setattr(GroupHom, "compose",
                        lambda self, other: calls.append(1) or compose(self, other))
    n = 10 ** 6  # even, so each module below has the cohomology it has for n = 2
    for orders, action in (("[2]", "trivial"), ("[0]", "sign"), ("[0,2]", "sign")):
        for s in ("0", "1", "2"):
            argv = ("cohomology", "--orders", orders, "--action", action, "--s", s)
            small = run_json(capsys, *argv, "--n", "2")
            calls.clear()
            big = run_json(capsys, *argv, "--n", str(n))
            assert len(calls) <= 4 * n.bit_length(), (orders, action, s)
            assert big["structure"] == small["structure"], (orders, action, s)


def test_exit_2_on_a_place_listed_twice(capsys):
    twice = '[{"kind":"finite","label":"2"},{"kind":"finite","label":"2"},{"kind":"real"}]'
    assert main(["br-number-ring", "--places", twice]) == 2
    assert "listed twice" in capsys.readouterr().err
    assert main(["br-laurent", "--places", twice, "--primes", "[2]"]) == 2
    assert "listed twice" in capsys.readouterr().err
    # a number field can have several real and several complex places
    places = '[{"kind":"real"},{"kind":"real"},{"kind":"complex"},{"kind":"complex"}]'
    assert run_json(capsys, "br-number-ring", "--places", places)["group"] == "Z/2"


def test_exit_2_on_a_prime_listed_twice(capsys):
    assert main(["h1-qz", "--primes", "[2,2]"]) == 2
    assert main(["br-laurent", "--places", '[{"kind":"finite","label":"3"}]',
                 "--primes", "[3,3]"]) == 2
    assert capsys.readouterr().out == ""


def test_twenty_digit_prime_is_accepted_at_once(capsys):
    p = 27 * 2 ** 59 + 1  # 15564440312192434177, a prime with smooth p - 1
    rep = run_json(capsys, "h1-qz", "--primes", f"[{p}]")
    assert rep["primes"] == [p] and f"Q_{p}/Z_{p}" in rep["computed"]


def test_h1_qz_of_a_24_digit_prime_needs_no_factoring(capsys):
    p = 100000000000000000001027  # (p - 1) / 2 is prime too
    start = time.perf_counter()
    rep = run_json(capsys, "h1-qz", "--primes", f"[{p}]")
    assert time.perf_counter() - start < 2
    assert f"Z/{p - 1}" in rep["computed"]


def test_is_prime_matches_trial_division():
    from brauerkit.cli import _is_prime

    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert all(_is_prime(n) == trial(n) for n in range(-2, 20000))
    # strong pseudoprimes to the bases 2..7 and to every prime base up to 37
    assert not _is_prime(3215031751) and not _is_prime(3825123056546413051)
    assert _is_prime(2 ** 127 - 1) and not _is_prime((2 ** 61 - 1) * (2 ** 89 - 1))


def test_exit_2_on_missing_key_in_user_json(capsys, tmp_path):
    assert main(["br-number-ring", "--places", '[{"label":"2"}]']) == 2
    assert "'kind'" in capsys.readouterr().err
    assert main(["br-laurent", "--places", '{"sites": []}']) == 2
    assert "'places'" in capsys.readouterr().err
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"name": "toy"}))
    assert main(["pic-ko", "--ring", str(ring)]) == 2
    assert main(["pic-tmf", "--ring", str(ring)]) == 2
    assert "'units'" in capsys.readouterr().err
    page = tmp_path / "page.json"
    page.write_text(json.dumps({"r": 2}))
    for verb in ("ss-run", "ss-chart"):
        assert main([verb, "--page", str(page)]) == 2
        assert "'entries'" in capsys.readouterr().err


NON_STRING_LABELS = tuple(f'[{{"kind": "finite", "label": {label}}}]'
                          for label in ("[2]", "2.5", "2"))


def test_exit_2_on_malformed_places(capsys):
    for places in ('{"places": "real"}', '"real"', '["real"]', '[["finite", "2"]]',
                   '[{"label": "2"}]', '[{"kind": 2}]', '[{"kind": null}]') + NON_STRING_LABELS:
        assert main(["br-number-ring", "--places", places]) == 2, places
        assert "place" in capsys.readouterr().err


def test_br_laurent_exit_2_on_malformed_places(capsys):
    for places in ('3', '["real"]', '[{"kind": ["finite"], "label": "2"}]',
                   '[{"kind": "finite", "label": "abc"}]') + NON_STRING_LABELS:
        assert main(["br-laurent", "--places", places, "--primes", "[2]"]) == 2, places
        assert "place" in capsys.readouterr().err


def test_other_key_errors_surface_as_tracebacks():
    from brauerkit import cli
    import unittest.mock as mock

    def bug(args):
        raise KeyError("internal")

    args = cli.build_parser().parse_args(["lbr-ko"])
    args.handler = bug
    with mock.patch.object(cli, "build_parser") as fake:
        fake.return_value = mock.Mock(parse_args=lambda argv: args)
        with pytest.raises(KeyError):
            cli.main(["lbr-ko"])


def test_exit_3_on_missing_fact(capsys):
    # no shipped ring by that name and no such file
    assert main(["pic-ko", "--ring", "no-such-ring"]) == 3


def test_exit_4_on_ambiguity(capsys, tmp_path):
    # an E_infty page whose column cannot be assembled is simulated at the
    # library level; the CLI surface for ambiguity is exercised through the
    # error mapping directly
    from brauerkit import cli
    from brauerkit.errors import AmbiguousExtension

    def boom(args):
        raise AmbiguousExtension("cannot decide")

    parser = cli.build_parser()
    args = parser.parse_args(["lbr-ko"])
    args.handler = boom
    import unittest.mock as mock
    with mock.patch.object(cli, "build_parser") as fake:
        fake.return_value = mock.Mock(parse_args=lambda argv: args)
        assert cli.main(["lbr-ko"]) == 4


def test_byte_identical_reruns(capsys):
    _, a = run(capsys, "pic-tmf")
    _, b = run(capsys, "pic-tmf")
    assert a == b
    _, c = run(capsys, "lbr-tmf", "--window", "16")
    _, d = run(capsys, "lbr-tmf", "--window", "16")
    assert c == d


def test_reports_record_data_files(capsys):
    rep = run_json(capsys, "lbr-ko")
    assert "sheaf_facts.json" in rep["data_files"]
    assert "tmf_pages.json" in rep["data_files"]


def test_output_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout = run(capsys, "br-laurent", "--output", str(out))
    assert code == 0 and stdout == ""
    assert json.loads(out.read_text())["group"] == "0"


def test_brauerkit_data_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BRAUERKIT_DATA", str(tmp_path))
    import brauerkit.sheaftab as sheaftab
    monkeypatch.setattr(sheaftab, "_DEFAULT_TABLE", None)
    assert main(["lbr-ko"]) == 3  # empty data dir: the needed fact is gone
    monkeypatch.delenv("BRAUERKIT_DATA")
    monkeypatch.setattr(sheaftab, "_DEFAULT_TABLE", None)
    rep = run_json(capsys, "lbr-ko")
    assert rep["group"] == "Z/2"


# ---------------------------------------------------------------------------
# the front door: one subparser per run, and only the verb's layers
# ---------------------------------------------------------------------------


def _full_parser_output(argv):
    """Exit code, stdout and stderr of parsing `argv` with every subparser."""
    import contextlib
    import io
    from brauerkit.cli import build_parser
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    raise AssertionError(f"{argv} parses")


@pytest.mark.parametrize("name", sorted(USAGE_CASES))
def test_help_usage_and_errors_are_the_full_parsers(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = _full_parser_output(USAGE_CASES[name])
    assert json.loads(usage_output(USAGE_CASES[name])) == dict(zip(("exit", "stdout", "stderr"),
                                                                    want))


def test_one_subparser_reads_what_the_full_parser_reads():
    from brauerkit.cli import build_parser
    for argv in CASES.values():
        assert vars(build_parser(argv[0]).parse_args(argv)) == vars(
            build_parser().parse_args(argv)), argv


def test_data_file_digests_list_the_json_files(tmp_path, monkeypatch):
    import hashlib
    from pathlib import Path
    from brauerkit import data_dir
    from brauerkit.cli import data_file_versions
    want = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:12]
            for p in sorted(Path(data_dir()).glob("*.json"))}
    assert data_file_versions() == want and list(want) == ["sheaf_facts.json", "tmf_pages.json"]
    monkeypatch.setenv("BRAUERKIT_DATA", str(tmp_path / "missing"))
    assert data_file_versions() == {}


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# modules no report may load, and the layers each lighter verb must do without
NEVER = {"typing", "pathlib", "dataclasses", "inspect"}
HEAVY = {"brauerkit.charp", "brauerkit.sheaftab", "brauerkit.ssengine", "brauerkit.kofam",
         "brauerkit.tmffam"}
GUARD = {
    "snf": (["--matrix", "[[2,4],[6,8]]"], HEAVY),
    "cohomology": (["--orders", "[2]", "--s", "1"], HEAVY),
    "h1-qz": (["--primes", "[2,3]"], HEAVY),
    "br-number-ring": (["--places", '[{"kind":"real"}]'], HEAVY),
    "br-laurent": ([], HEAVY),
    "artin-schreier": (["--p", "2", "--op", "x + j*x^2"], HEAVY - {"brauerkit.charp"}),
    "cech": (["--n-vars", "2", "--window", "4"], HEAVY - {"brauerkit.charp"}),
    "pic-ko": ([], set()),
    "lbr-ko": ([], set()),
    "pic-tmf": ([], set()),
    "pic-tmf-c4inv": ([], set()),
    "lbr-tmf": (["--window", "8"], set()),
    "lbr-mo": (["--window", "8"], set()),
    "ss-run": (["--page", str(PAGE)], set()),
    "ss-chart": (["--page", str(PAGE)], set()),
}


@pytest.mark.parametrize("verb", sorted(GUARD))
def test_a_report_loads_only_its_verbs_layers(verb):
    # -S: a site-packages hook may import typing or pathlib before brauerkit runs
    args, absent = GUARD[verb]
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "brauerkit.cli",
                            verb, *args], capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in child.stderr.splitlines()
              if line.startswith("import time:") and "|" in line}
    assert "brauerkit.errors" in loaded  # -m runs the cli itself as __main__
    assert not loaded & (NEVER | absent), sorted(loaded & (NEVER | absent))
    if verb in ("artin-schreier", "cech"):
        assert "brauerkit.charp" in loaded
