import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

from brauerkit import abelian, data_dir
from brauerkit.cli import main
from golden_corpus import CASES, PAGE, USAGE_CASES, usage_output
from seeds import differential_seed
from brauerkit.ssengine import DifferentialRule, Entry, SSPage
from ssengine_oracle import page_to_json
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


def test_pic_tmf_counts_the_nonzero_stages_above_row_7(capsys, tmp_path, monkeypatch):
    data = shutil.copytree(data_dir(), tmp_path / "data")
    pages = json.loads((data / "tmf_pages.json").read_text())
    pages["column0"].append({"s": 9, "t": 9, "local": 3, "citation": "a row-9 stage",
                             "entry": {"type": "quasi_coherent", "name": "O/(3,j)"}})
    (data / "tmf_pages.json").write_text(json.dumps(pages))
    monkeypatch.setenv("BRAUERKIT_DATA", str(data))
    assert run_json(capsys, "pic-tmf")["gr_above_7"] == 1


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


def test_exit_2_on_a_chart_over_the_cell_bound(capsys, tmp_path):
    # one entry at (s, t): the grid spans t - s in [0, t - s] and s in [0, s]
    def page(s, t):
        path = tmp_path / f"page_{s}_{t}.json"
        path.write_text(page_to_json(SSPage(2, {(s, t): Entry(FgAbGroup.cyclic(2))})))
        return str(path)

    code, out = run(capsys, "ss-chart", "--page", page(99, 198))
    assert code == 0 and out.count("<rect") == 100 * 100
    for s, cells in ((100, 101 * 101), (200, 201 * 201)):
        assert main(["ss-chart", "--page", page(s, 2 * s)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and (f"t-s in [0, {s}] and s in [0, {s}] has {cells} cells, "
                                  "over the bound of 10000") in out.err


def _edited_page(page_file, edit):
    doc = json.loads(page_file.read_text())
    doc = edit(doc) or doc
    page_file.write_text(json.dumps(doc))
    return str(page_file)


def _assert_refused(capsys, page, message):
    for verb in ("ss-run", "ss-chart"):
        assert main([verb, "--page", page]) == 2, verb
        out = capsys.readouterr()
        assert out.out == "" and message in out.err, (verb, out.err)


def test_exit_2_on_a_position_listed_twice(capsys, page_file):
    z4 = {"kind": "group", "group": {"free_rank": 0, "factors": [4]}}
    page = _edited_page(page_file, lambda d: d["entries"].append(dict(d["entries"][0], entry=z4)))
    _assert_refused(capsys, page, "(0, 0) is listed twice")


@pytest.mark.parametrize("key, value", [("s", "0"), ("t", "1"), ("index", "x"), ("t", True),
                                        ("index", 1.0)])
def test_exit_2_on_a_non_integer_entry_key(capsys, page_file, key, value):
    page = _edited_page(page_file, lambda d: d["entries"][1].update({key: value}))
    _assert_refused(capsys, page, f"{key!r} must be of type int")


@pytest.mark.parametrize("key", ["r", "s", "t"])
def test_exit_2_on_a_non_integer_rule_key(capsys, page_file, key):
    page = _edited_page(page_file, lambda d: d["rules"][0].update({key: "2"}))
    _assert_refused(capsys, page, f"{key!r} must be of type int")


@pytest.mark.parametrize("value", ["3", 3.0, True])
def test_exit_2_on_a_non_integer_page_number(capsys, page_file, value):
    page = _edited_page(page_file, lambda d: d.update(r=value))
    _assert_refused(capsys, page, "'r' must be of type int")


def test_exit_2_on_a_page_file_that_is_not_an_object(capsys, page_file):
    page = _edited_page(page_file, lambda d: [d])
    _assert_refused(capsys, page, "expected a JSON object")


@pytest.mark.parametrize("group", [{"free_rank": True}, {"free_rank": 1.0},
                                   {"factors": [2.5]}, {"factors": ["2"]}, {"factors": 2}])
def test_exit_2_on_a_non_integer_group_in_a_page(capsys, page_file, group):
    entry = {"kind": "group", "group": group}
    page = _edited_page(page_file, lambda d: d["entries"][0].update(entry=entry))
    _assert_refused(capsys, page, "must be of type")


def test_exit_2_on_a_matrix_rule_into_another_group_than_its_target(capsys, tmp_path):
    # d_2: Z -> Z/2 at a Z/4 entry once dropped the Z/4 and gave Z index 2, with exit 0
    z, z2, z4 = FgAbGroup.free(1), FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)
    rule = DifferentialRule(2, (0, 0), "matrix", hom=GroupHom(z, z2, ((1,),)), provenance="onto Z/2")
    path = tmp_path / "page.json"
    path.write_text(page_to_json(SSPage(2, {(0, 0): Entry(z), (2, 1): Entry(z4)}), [rule]))
    assert main(["ss-run", "--page", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "matrix rule at (0, 0) maps into Z/2, not the entry Z/4 at (2, 1)" in out.err


# ---------------------------------------------------------------------------
# exit codes, determinism, data-file records
# ---------------------------------------------------------------------------


def test_exit_2_on_unknown_flag(capsys):
    assert main(["lbr-ko", "--bogus"]) == 2


def test_exit_2_on_bad_operator(capsys):
    assert main(["artin-schreier", "--p", "2", "--op", "x + @@"]) == 2
    assert main(["artin-schreier", "--p", "2", "--op", "x + j*x^2 +"]) == 2
    assert capsys.readouterr().out == ""


def test_exit_2_on_zero_exponent_or_other_variable(capsys):
    assert main(["artin-schreier", "--p", "2", "--op", "x^0 + x^2"]) == 2
    assert main(["artin-schreier", "--p", "2", "--op", "y + j*y^2"]) == 2
    assert capsys.readouterr().out == ""


def test_exit_2_on_non_integer_snf_entries(capsys):
    for matrix in ("[[1.5]]", "[[true, 2]]", '[["1"]]', "[[1, 2], [3]]", "5"):
        assert main(["snf", "--matrix", matrix]) == 2, matrix
    assert capsys.readouterr().out == ""
    assert run_json(capsys, "snf", "--matrix", "[]")["diagonal"] == []


def _random_matrix(n, lo, hi):
    rng = random.Random(0)
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("matrix, work", [
    (_random_matrix(60, -9, 9), "3600 cells × 1 digits"),  # U and V would reach 5,052 digits
    (_random_matrix(10, -10 ** 99, 10 ** 100), "100 cells × 100 digits"),  # 15 s of work
    (_random_matrix(100, -9, 9), "10000 cells × 1 digits"),  # 207 s of work
    (_random_matrix(2, -10 ** 149, 10 ** 150), "4 cells × 150 digits"),  # U and V would pass the integer-string limit
])
def test_exit_2_at_once_on_an_snf_matrix_over_the_work_bound(capsys, matrix, work):
    from brauerkit.cli import SNF_WORK_BOUND
    start = time.perf_counter()
    assert main(["snf", "--matrix", json.dumps(matrix)]) == 2
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert out.out == "" and f"{work} of its largest entry exceed snf's bound of " \
        f"{SNF_WORK_BOUND}" in out.err


def test_snf_takes_a_50_by_50_matrix_of_digits(capsys):
    rep = run_json(capsys, "snf", "--matrix", json.dumps(_random_matrix(50, -9, 9)))
    assert len(rep["diagonal"]) == 50


def test_exit_2_on_a_report_integer_over_the_string_conversion_limit(capsys):
    start = time.perf_counter()
    orders = json.dumps([10 ** 2200 + 1, 10 ** 2200 + 3])
    assert main(["cohomology", "--orders", orders, "--s", "0"]) == 2
    assert time.perf_counter() - start < 5.0
    out = capsys.readouterr()
    assert out.out == ""
    assert f"an integer of more than {sys.get_int_max_str_digits()} digits" in out.err


def test_exit_2_on_non_integer_orders(capsys):
    for orders in ("[4.5]", "[2.0]", "[true, 4]", "[-1]", "4", '["2"]'):
        assert main(["cohomology", "--orders", orders, "--s", "1"]) == 2, orders
    assert capsys.readouterr().out == ""


def test_exit_2_on_more_orders_than_the_bound(capsys):
    start = time.perf_counter()
    assert main(["cohomology", "--orders", json.dumps([2] * 4097), "--s", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert out.out == "" and "4097 nonzero orders, over the bound of 4096" in out.err
    # copies of Z do not enter the pairwise pass
    rep = run_json(capsys, "cohomology", "--orders", json.dumps([0] * 5000 + [2]), "--s", "0")
    assert rep["group"] == "Z^5000 ⊕ Z/2"


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


def test_exit_2_at_once_on_a_cokernel_over_the_bound(capsys):
    # a Frobenius power or a power of j stretches the certified degrees
    # [0, prefix] far past a window of 16; each once ended in MemoryError
    for op, degrees in (("x^1048576", 17 * 2 ** 20), ("j^100000000*x", 10 ** 8 + 17)):
        start = time.perf_counter()
        assert main(["artin-schreier", "--p", "2", "--op", op, "--window", "16", "--cokernel"]) == 2
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr()
        assert out.out == "" and f"{degrees} degrees, over the bound of 100000" in out.err


def _ring_with_pic(tmp_path, order):
    """A descriptor file for Z with Pic replaced by Z/order."""
    from brauerkit.kofam import SHIPPED_RINGS
    ring = dict(SHIPPED_RINGS["Z"].to_json(), pic={"free_rank": 0, "factors": [order]})
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring))
    return str(path)


@pytest.mark.parametrize("verb", ["pic-ko", "pic-tmf"])
@pytest.mark.parametrize("edit, key", [
    ({"pic": {"free_rank": 1}}, "pic"),
    ({"residue_field_degrees_at_2": [0]}, "residue_field_degrees_at_2"),
    ({"residue_field_degrees_at_2": [-3]}, "residue_field_degrees_at_2"),
    ({"inverted_primes": [4]}, "inverted_primes"),
    ({"inverted_primes": [0]}, "inverted_primes"),
    ({"inverted_primes": [2, 2], "residue_field_degrees_at_2": []}, "inverted_primes"),
    ({"connected": False}, "connected"),
], ids=["infinite-pic", "degree-0", "degree-minus-3", "prime-4", "prime-0", "prime-2-twice",
        "disconnected"])
def test_exit_2_on_a_ring_no_etale_z_algebra_has(capsys, tmp_path, verb, edit, key):
    from brauerkit.kofam import SHIPPED_RINGS
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(dict(SHIPPED_RINGS["Z"].to_json(), **edit)))
    assert main([verb, "--ring", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"'{key}'" in out.err, out.err


@pytest.mark.parametrize("units", [{"free_rank": 1, "factors": [2.5]},
                                   {"free_rank": True, "factors": [2]},
                                   {"free_rank": 1, "factors": [True]}])
def test_exit_2_on_a_non_integer_group_in_a_ring_file(capsys, tmp_path, units):
    from brauerkit.kofam import SHIPPED_RINGS
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(dict(SHIPPED_RINGS["Z"].to_json(), units=units)))
    for verb in ("pic-ko", "pic-tmf"):
        assert main([verb, "--ring", str(path)]) == 2, verb
        out = capsys.readouterr()
        assert out.out == "" and "must be of type" in out.err, verb


def test_exit_2_on_an_extension_with_too_many_candidates(capsys, tmp_path):
    # Pic(R) = Z/2^48 against sections of order 8: p(51) = 239943 groups of order 2^51
    assert main(["pic-ko", "--ring", _ring_with_pic(tmp_path, 2 ** 48)]) == 2
    assert "239943 abelian groups, over the bound of 100000" in capsys.readouterr().err


@pytest.mark.parametrize("degrees,code", [([], 0), ([1], 3)])
def test_pic_ko_with_many_2_torsion_units_exits_in_time(tmp_path, degrees, code):
    # H^1 = (Z/2)^40 has 2^40 witness images, in 41 classes up to automorphism
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"name": "R", "units": {"factors": [2] * 40}, "pic": {},
                                "residue_field_degrees_at_2": degrees}))
    child = subprocess.run([sys.executable, "-m", "brauerkit.cli", "pic-ko", "--ring", str(path)],
                           capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
                           timeout=30)
    assert child.returncode == code, child.stderr
    if code:
        assert f"no abelian group of order {2 ** 41} satisfies" in child.stderr


def test_pic_ko_with_a_24_digit_prime_in_pic_needs_no_long_factoring(capsys, tmp_path):
    # as for a small prime p, Z/(2p) by the sections leaves two candidates: exit 4
    small = main(["pic-ko", "--ring", _ring_with_pic(tmp_path, 2 * 1000003)])
    assert small == 4 and "ambiguous extension" in capsys.readouterr().err
    p = 100000000000000000001027
    start = time.perf_counter()
    assert main(["pic-ko", "--ring", _ring_with_pic(tmp_path, 2 * p)]) == small
    assert time.perf_counter() - start < 2
    assert f"Z/{8 * p}" in capsys.readouterr().err


def test_exit_2_at_once_on_an_order_with_two_large_prime_factors(capsys, tmp_path):
    # Z/2n with n a product of two primes just above the trial-division bound
    # 2^20: an odd Pic splits off without an extension problem
    n = 1048583 * 1048589
    start = time.perf_counter()
    assert main(["pic-ko", "--ring", _ring_with_pic(tmp_path, 2 * n)]) == 2
    assert time.perf_counter() - start < 2
    assert "no prime factor below 1048576" in capsys.readouterr().err


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


def test_large_n_takes_no_smith_form(capsys, monkeypatch):
    # the closed forms of cyccoh build no matrix, so n costs no elimination
    calls = []
    snf = abelian._snf_ext
    monkeypatch.setattr(abelian, "_snf_ext", lambda M, **tracked: calls.append(1) or snf(M, **tracked))
    n = 10 ** 6  # even, so each module below has the cohomology it has for n = 2
    for orders, action in (("[2]", "trivial"), ("[0]", "sign"), ("[0,2]", "sign")):
        for s in ("0", "1", "2"):
            argv = ("cohomology", "--orders", orders, "--action", action, "--s", s)
            small = run_json(capsys, *argv, "--n", "2")
            calls.clear()
            big = run_json(capsys, *argv, "--n", str(n))
            assert calls == [], (orders, action, s)
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


def test_primes_from_the_certified_bound_on_exit_2(capsys):
    from brauerkit.abelian import _MR_EXACT_BELOW
    # the least strong pseudoprime to all 13 bases is the bound itself
    for verb in ("h1-qz", "br-laurent"):
        assert main([verb, "--primes", f"[2, {_MR_EXACT_BELOW}]"]) == 2
        assert f"primes below {_MR_EXACT_BELOW}" in capsys.readouterr().err
    p = 100000000000000000001027  # a 24-digit prime below the bound
    assert main(["h1-qz", "--primes", f"[{p}]"]) == 0
    assert f"Q_{p}/Z_{p}" in capsys.readouterr().out


def test_is_prime_matches_trial_division():
    from brauerkit.abelian import _is_prime

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

    with mock.patch.dict(cli._VERBS, {"lbr-ko": (bug, "", [])}):
        with pytest.raises(KeyError):
            cli.main(["lbr-ko"])


def test_a_record_in_a_report_is_a_type_error():
    # the report encoder writes groups as strings and refuses anything else,
    # so a record never reaches stdout as its repr
    script = ("import sys; from brauerkit import cli; from brauerkit.numbrauer import PlaceSpec; "
              "cli._VERBS['lbr-ko'] = (lambda args: {'place': PlaceSpec('real')}, '', []); "
              "sys.exit(cli.main(['lbr-ko']))")
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert (child.returncode, child.stdout) == (1, "")
    assert "TypeError: a report cannot hold a PlaceSpec" in child.stderr, child.stderr


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

    import unittest.mock as mock
    with mock.patch.dict(cli._VERBS, {"lbr-ko": (boom, "", [])}):
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


def _full_namespace(parser, argv):
    """vars() of the full parser's namespace for `argv`, or None when it exits."""
    import contextlib
    import io
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def _flag_shape(verb, arguments):
    """`verb` followed by each of `arguments` with a value the full parser accepts."""
    argv = [verb]
    for flag, options in arguments:
        argv.append(flag)
        if options.get("action") != "store_true":
            argv.append(str(options["choices"][-1]) if "choices" in options
                        else "7" if options.get("type") is int else "v")
    return argv


def _flag_shapes():
    """Per verb: its required flags alone, and all its flags with --output in
    the order of `_VERBS` and reversed."""
    from brauerkit.cli import _VERBS
    for verb, (_, _, arguments) in _VERBS.items():
        every = arguments + [("--output", {})]
        yield _flag_shape(verb, [a for a in arguments if a[1].get("required")])
        yield _flag_shape(verb, every)
        yield _flag_shape(verb, every[::-1])


# argv the fast path leaves to the full parser, which reads some of them
# (a negative value, a repeated flag) and refuses the rest
DECLINED = [
    ["lbr-tmf", "--win", "8"],
    ["lbr-tmf", "--window=8"],
    ["lbr-tmf", "-h"],
    ["lbr-tmf", "--window", "-5"],
    ["lbr-tmf", "--window", "8", "--window", "16"],
    ["lbr-ko", "--bogus", "1"],
    ["lbr-tmf", "--window"],
    ["cohomology", "--orders", "[2]", "--s", "1", "--n", "x"],
    ["artin-schreier", "--p", "5", "--op", "x"],
    ["lbr-tmf", "--window", "8", "stray"],
]


def test_fast_path_reads_what_the_full_parser_reads():
    from brauerkit.cli import _fast_args, build_parser
    parser = build_parser()
    for argv in list(CASES.values()) + list(_flag_shapes()):
        fast = _fast_args(argv)
        assert fast is not None, argv
        assert vars(fast) == _full_namespace(parser, argv), argv


def test_fast_path_declines_help_usage_errors_and_inexact_flags():
    from brauerkit.cli import _fast_args
    for argv in list(USAGE_CASES.values()) + DECLINED:
        assert _fast_args(argv) is None, argv


def _mutated(rng, argv):
    """`argv` after one to three edits: a flag abbreviated or joined to its
    value by "=", a flag repeated, a value made negative or empty, or a value
    dropped."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        flags = [i for i, a in enumerate(argv) if a.startswith("--")]
        if not flags:
            break
        i = rng.choice(flags)
        valued = i + 1 < len(argv) and not argv[i + 1].startswith("--")
        edit = rng.choice(("abbreviate", "equals", "repeat", "negative", "empty", "drop"))
        if edit == "abbreviate" and len(argv[i]) > 3:
            argv[i] = argv[i][:rng.randint(3, len(argv[i]) - 1)]
        elif edit == "repeat":
            argv += argv[i:i + 1 + valued]
        elif edit == "equals" and valued:
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        elif edit == "negative" and valued:
            argv[i + 1] = "-" + argv[i + 1]
        elif edit == "empty" and valued:
            argv[i + 1] = ""
        elif edit == "drop" and valued:
            del argv[i + 1]
    return argv


def test_seeded_argv_mutations_agree_with_the_full_parser_or_decline():
    import random
    from brauerkit.cli import _fast_args, build_parser
    rng = random.Random(differential_seed(20261019))
    parser, golden, failures, declined = build_parser(), list(CASES.values()), [], 0
    for _ in range(600):
        argv = _mutated(rng, rng.choice(golden))
        fast, full = _fast_args(argv), _full_namespace(parser, argv)
        declined += fast is None
        if fast is not None and vars(fast) != full:
            failures.append(argv)
    assert failures == []
    assert 0 < declined < 600  # the edits reach both sides of the fast path


def test_data_file_digests_list_the_json_files(tmp_path, monkeypatch):
    import hashlib
    from pathlib import Path
    from brauerkit.cli import data_file_versions
    want = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:12]
            for p in sorted(Path(data_dir()).glob("*.json"))}
    assert data_file_versions() == want and list(want) == ["sheaf_facts.json", "tmf_pages.json"]
    monkeypatch.setenv("BRAUERKIT_DATA", str(tmp_path / "missing"))
    assert data_file_versions() == {}


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# modules no well-formed report may load, and the layers each lighter verb
# must do without
NEVER = {"typing", "pathlib", "dataclasses", "inspect", "argparse", "gettext", "locale",
         "hashlib", "_hashlib", "contextlib"}
HEAVY = {"brauerkit.charp", "brauerkit.sheaftab", "brauerkit.ssengine", "brauerkit.kofam",
         "brauerkit.tmffam"}
# the KO layers, which a TMF verb loads only to read a --ring
KO = {"brauerkit.kofam", "brauerkit.cyccoh"}
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
    "pic-tmf": ([], KO),
    "pic-tmf-c4inv": ([], KO),
    "lbr-tmf": (["--window", "8"], KO),
    "lbr-mo": (["--window", "8"], KO),
    "ss-run": (["--page", str(PAGE)], set()),
    "ss-chart": (["--page", str(PAGE)], set()),
}


def _loaded(argv):
    """The modules a `brauerkit` process imports to answer `argv`.  The child
    starts the way the installed `brauerkit` script does, not through
    `python -m`, whose runpy imports contextlib before the CLI runs; -S keeps
    a site-packages hook from importing typing or pathlib first."""
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.run([sys.executable, "-S", "-X", "importtime", "-c",
                            "import sys; from brauerkit.cli import main; sys.exit(main())",
                            *argv], capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in child.stderr.splitlines()
              if line.startswith("import time:") and "|" in line}
    assert "brauerkit.cli" in loaded
    return loaded


@pytest.mark.parametrize("verb", sorted(GUARD))
def test_a_report_loads_only_its_verbs_layers(verb):
    args, absent = GUARD[verb]
    loaded = _loaded([verb, *args])
    assert not loaded & (NEVER | absent), sorted(loaded & (NEVER | absent))
    if verb in ("artin-schreier", "cech"):
        assert "brauerkit.charp" in loaded


def test_help_is_argparses():
    assert "argparse" in _loaded(["--help"])
