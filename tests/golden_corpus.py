"""The golden corpus: CLI reports and the TMF column-0 dump, byte for byte.

`CASES` names every CLI invocation in the corpus; `cli_output` runs one in
process and returns its exit code and stdout.  `USAGE_CASES` names the
invocations that end in argparse's help, usage or an error; `usage_output`
records exit code, stdout and stderr of one.  `column_dump` renders the
column-0 stages of `run_pic_tmf`, `pic_tmf_global`, the `assumed` markers
of `lbr_tmf`/`lbr_m_o` and the fields `lbr_tmf` reads off the stages for
all 16 zero/iso settings of the four open differentials, each given as the
`unresolved` map of the page data.
`tests/test_golden.py` compares both with the files in `tests/golden/`.
A deliberate output change regenerates them with

    PYTHONPATH=src python tests/golden_corpus.py

and says why in the same change.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
from pathlib import Path
from unittest import mock

GOLDEN = Path(__file__).parent / "golden"
PAGE = GOLDEN / "page.json"
# chained matrix differentials: an entry with a matrix d_r both in and out,
# and a zero matrix
CHAIN_PAGE = GOLDEN / "page_chain.json"
# a --ring descriptor file, read through EtaleRingDescriptor.from_json; its
# Pic(R) is zero, so no extension by Pic(R) is resolved
RING_FILE = GOLDEN / "ring_Zsqrtm7.json"

RINGS = {"Z": "Z", "Zw17": "Z[w][1/17]", "Zhalf_i": "Z[1/2,zeta4]",
         "Zthird_w": "Z[1/3,zeta3]"}
OPERATORS = {"as2": ("x + x^2", 2), "as2j": ("x + j*x^2", 2), "as3": ("x + 2*x^3", 3)}
OPEN = ("d13_row5", "d25_row5", "d23_row7", "d9_lbr_row6")


def _cases():
    yield "snf_2x2", ["snf", "--matrix", "[[2,4],[6,8]]"]
    yield "snf_3x3", ["snf", "--matrix", "[[1,2,3],[4,5,6],[7,8,10]]"]
    yield "snf_empty", ["snf", "--matrix", "[]"]
    yield "cohomology_z_sign_s1", ["cohomology", "--orders", "[0]", "--action", "sign", "--s", "1"]
    yield "cohomology_z2_s0", ["cohomology", "--orders", "[2]", "--s", "0"]
    yield "cohomology_z4z6_n4_s2", ["cohomology", "--orders", "[4,6]", "--n", "4", "--s", "2"]
    yield "cohomology_zz3_sign_s3", ["cohomology", "--orders", "[0,3]", "--action", "sign",
                                     "--s", "3"]
    for name, (op, p) in OPERATORS.items():
        yield f"artin-schreier_{name}", ["artin-schreier", "--p", str(p), "--op", op]
    for window in (16, 32, 64):
        for name, (op, p) in OPERATORS.items():
            yield (f"artin-schreier_{name}_cokernel_w{window}",
                   ["artin-schreier", "--p", str(p), "--op", op, "--window", str(window),
                    "--cokernel"])
        yield (f"artin-schreier_as2j_laurent_cokernel_w{window}",
               ["artin-schreier", "--p", "2", "--op", "x + j*x^2", "--laurent",
                "--window", str(window), "--cokernel"])
    # an F_3 Laurent cokernel, with the kernel j^10 on the region [10, 10]
    yield ("artin-schreier_as3_laurent_j10_cokernel_w16",
           ["artin-schreier", "--p", "3", "--op", "j^-8*x^3 + 2*j^12*x", "--laurent",
            "--window", "16", "--cokernel"])
    # the kernel j^-200 + j^200 on a region of 401 of the 513 window degrees
    yield ("artin-schreier_as2_laurent_j200_w256",
           ["artin-schreier", "--p", "2", "--op", "x^2 + j^-200*x + j^200*x", "--laurent",
            "--window", "256"])
    yield "cech_n2_w4", ["cech", "--n-vars", "2", "--window", "4"]
    yield "cech_n3_w5", ["cech", "--n-vars", "3", "--window", "5"]
    yield "br-number-ring_z", ["br-number-ring", "--places", '[{"kind":"real"}]']
    yield "br-number-ring_z_sixth", ["br-number-ring", "--places",
                                     '[{"kind":"real"},{"kind":"finite","label":"2"},'
                                     '{"kind":"finite","label":"3"}]']
    yield "h1-qz_none", ["h1-qz", "--primes", "[]"]
    yield "h1-qz_2_3", ["h1-qz", "--primes", "[2,3]"]
    yield "h1-qz_5", ["h1-qz", "--primes", "[5]"]
    yield "br-laurent_default", ["br-laurent"]
    yield "br-laurent_half", ["br-laurent", "--places",
                              '[{"kind":"real"},{"kind":"finite","label":"2"}]',
                              "--primes", "[2]"]
    for name, ring in RINGS.items():
        for d3 in ("zero", "nonzero", "unknown"):
            yield f"pic-ko_{name}_{d3}", ["pic-ko", "--ring", ring, "--d3-21", d3]
    yield "pic-ko_file_Zsqrtm7", ["pic-ko", "--ring", str(RING_FILE)]
    yield "lbr-ko", ["lbr-ko"]
    yield "pic-tmf", ["pic-tmf"]
    for name, ring in RINGS.items():
        yield f"pic-tmf_{name}", ["pic-tmf", "--ring", ring]
    yield "pic-tmf-c4inv", ["pic-tmf-c4inv"]
    for window in (16, 32, 64):
        yield f"lbr-tmf_w{window}", ["lbr-tmf", "--window", str(window)]
        yield f"lbr-mo_w{window}", ["lbr-mo", "--window", str(window)]
    yield "ss-run", ["ss-run", "--page", str(PAGE)]
    yield "ss-chart", ["ss-chart", "--page", str(PAGE)]
    yield "ss-run_chain", ["ss-run", "--page", str(CHAIN_PAGE)]


CASES = dict(_cases())

# help, usage and error bytes of the front door; argparse may word these
# differently on another Python version, so the files hold the bytes of
# USAGE_PYTHON
USAGE_CASES = {
    "help": ["--help"],
    "no_verb": [],
    "unknown_verb": ["bogus"],
    "snf_help": ["snf", "--help"],
    "snf_no_matrix": ["snf"],
    "artin-schreier_bad_choice": ["artin-schreier", "--p", "5", "--op", "x"],
    "cohomology_bad_int": ["cohomology", "--orders", "[1]", "--s", "x"],
    "lbr-ko_unrecognized": ["lbr-ko", "--bogus"],
}
USAGE_PYTHON = (3, 11)


def cli_output(argv):
    from brauerkit.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def usage_output(argv) -> str:
    """Exit code, stdout and stderr of one in-process run as a JSON document,
    with argparse's line width pinned to 80 columns."""
    from brauerkit.cli import main
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(list(argv))
    return json.dumps({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()},
                      ensure_ascii=False, indent=1) + "\n"


def column_dump() -> str:
    from brauerkit.record import replace
    from brauerkit.tmffam import TmfPageData, lbr_m_o, lbr_tmf, pic_tmf_global, run_pic_tmf
    shipped = TmfPageData.load()
    rows = []
    for values in itertools.product(("zero", "iso"), repeat=len(OPEN)):
        config = dict(zip(OPEN, values))
        data = replace(shipped, unresolved=config)
        lbr = lbr_tmf(8, data)
        rows.append({
            "config": config,
            "column0": [{"s": g.s, "local": g.local, "display": g.display(),
                         "exact": g.exact, "assumed": list(g.assumed)}
                        for g in run_pic_tmf(data)],
            "global": {str(p): str(g) for p, g in pic_tmf_global(data).items()},
            "lbr_tmf_assumed": list(lbr.assumed),
            "lbr_mo_assumed": list(lbr_m_o(8, data).assumed),
            "lbr_tmf_three_torsion": str(lbr.three_torsion),
            "lbr_tmf_p_gt_3_torsion": str(lbr.p_gt_3_torsion),
            "lbr_tmf_kernel_finite": lbr.kernel_finite,
            "lbr_tmf_kernel_order_bound": lbr.kernel_order_bound,
            "lbr_tmf_certified_prefix": lbr.certified_prefix,
        })
    return json.dumps(rows, ensure_ascii=False, indent=1) + "\n"


def _write_page() -> None:
    from brauerkit.abelian import FgAbGroup, GroupHom
    from brauerkit.charp import parse_operator
    from brauerkit.sheaftab import QuasiCoherent
    from brauerkit.ssengine import DifferentialRule, Entry, SSPage
    from ssengine_oracle import page_to_json
    z2, z4 = FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)
    page = SSPage(3, {
        (0, 0): Entry(FgAbGroup(1, ()), label="x"),
        (3, 2): Entry(z4),
        (1, 1): Entry(z2),
        (4, 3): Entry(z2),
        (2, 4): Entry(QuasiCoherent("O/2")),
        (5, 6): Entry(z2),
        (6, 9): Entry(FgAbGroup.cyclic(3)),
    })
    rules = [
        DifferentialRule(3, (0, 0), "matrix", hom=GroupHom(FgAbGroup(1, ()), z4, ((2,),)),
                         provenance="fixture: Z -> Z/4 by 2", relabel="2x"),
        DifferentialRule(3, (1, 1), "iso", provenance="fixture: iso onto row 4"),
        DifferentialRule(3, (2, 4), "operator", operator=parse_operator("x + j*x^2", 2),
                         surjective=True, provenance="fixture: twisted Artin-Schreier"),
        DifferentialRule(3, (6, 9), "unresolved", name="d3_fixture",
                         provenance="fixture: open differential"),
    ]
    PAGE.write_text(page_to_json(page, rules) + "\n")


def _write_chain_page() -> None:
    from brauerkit.abelian import FgAbGroup, GroupHom
    from brauerkit.ssengine import DifferentialRule, Entry, SSPage
    from ssengine_oracle import page_to_json
    z, z2 = FgAbGroup.free(1), FgAbGroup.cyclic(2)
    page = SSPage(3, {(0, 0): Entry(z, label="x"), (3, 2): Entry(z), (6, 4): Entry(z2),
                      (1, 0): Entry(z, label="y"), (4, 2): Entry(z)})
    rules = [
        DifferentialRule(3, (0, 0), "matrix", hom=GroupHom(z, z, ((2,),)),
                         provenance="fixture: Z -> Z by 2"),
        DifferentialRule(3, (3, 2), "matrix", hom=GroupHom(z, z2, ((1,),)),
                         provenance="fixture: Z -> Z/2 by 1, after Z -> Z by 2"),
        DifferentialRule(3, (1, 0), "matrix", hom=GroupHom(z, z, ((0,),)),
                         provenance="fixture: the zero map Z -> Z"),
    ]
    CHAIN_PAGE.write_text(page_to_json(page, rules) + "\n")


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    if not PAGE.exists():
        _write_page()
    if not CHAIN_PAGE.exists():
        _write_chain_page()
    for name, argv in CASES.items():
        code, out = cli_output(argv)
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            return 1
        (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
    if sys.version_info[:2] == USAGE_PYTHON:
        for name, argv in USAGE_CASES.items():
            (GOLDEN / f"usage_{name}.json").write_bytes(usage_output(argv).encode("utf-8"))
    (GOLDEN / "column0_configs.json").write_bytes(column_dump().encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
