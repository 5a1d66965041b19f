"""Command-line front end: parse flags, dispatch to the library drivers,
emit deterministic JSON reports and SVG charts.

A well-formed command, a verb followed only by that verb's flags, each given
once and in full, is read straight from `_VERBS` without importing argparse;
anything else (help, abbreviations, `--flag=value`, a repeated flag, a value
that starts with "-", a bad value, a missing or unknown flag) goes to the
argparse parser, so help, usage and error output are argparse's own.

A verb that runs a driver reports that driver's record: the report's keys
are the record's fields plus `citations` and `data_files`, and every group
in it is written as its display string.  Every JSON report carries the
short digests of the curated data files it could have consumed, so a run
is reproducible against a pinned data directory (overridable through the
BRAUERKIT_DATA environment variable).
Exit codes: 2 for parse/input errors, 3 when a needed fact is missing or a
computation stays undecided, 4 when an extension problem is ambiguous.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import data_dir, take
from .errors import (
    AmbiguousExtension,
    NoExtension,
    NoFact,
    NotAnAction,
    UnmatchedRule,
    WindowTooSmall,
)

EXIT_PARSE = 2
EXIT_NOFACT = 3
EXIT_AMBIGUOUS = 4

_NOFACT_ERRORS = (NoFact, UnmatchedRule, WindowTooSmall, NoExtension, OSError)

try:  # the builtin SHA-256 loads without OpenSSL, which hashlib loads
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256


def data_file_versions() -> dict:
    """Short content digests of the curated data files in force."""
    directory = data_dir()
    try:
        names = os.listdir(directory)
    except OSError:  # no data directory: no data files
        return {}
    out = {}
    for name in sorted(n for n in names if n.endswith(".json")):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = sha256(fh.read()).hexdigest()[:12]
    return out


# the values a report writes as their display string, named rather than
# imported so that writing a report loads no layer its verb did not
_DISPLAYED = {("brauerkit.abelian", "FgAbGroup"),
              ("brauerkit.numbrauer", "DivisibleGroupDescriptor")}


def _display(value) -> str:
    """The `default` of the report's `json.dumps`: a group as its display
    string; anything else, a record included, is a TypeError."""
    cls = type(value)
    if (cls.__module__, cls.__qualname__) not in _DISPLAYED:
        raise TypeError(f"a report cannot hold a {cls.__qualname__}: {value!r}")
    return str(value)


def _monomial(degree: int, coeff: int) -> str:
    base = "1" if degree == 0 else ("j" if degree == 1 else f"j^{degree}")
    return base if coeff == 1 else f"{coeff}*{base}"


def _poly_str(poly) -> str:
    return " + ".join(_monomial(d, c) for d, c in poly)


# ---------------------------------------------------------------------------
# verb handlers (each returns a report dict for `main` to write and imports
# only the layers its verb runs)
# ---------------------------------------------------------------------------


def _json_flag(flag: str, text: str, kind):
    """The JSON value given to `flag`, which must be of type `kind`."""
    return take({flag: json.loads(text)}, flag, kind)


def _primes(text: str) -> list:
    """--primes: a JSON list of distinct primes below `_MR_EXACT_BELOW`, the
    bound under which `_is_prime` is exact."""
    from .abelian import _MR_EXACT_BELOW, _is_prime
    primes = _json_flag("--primes", text, "[int]")
    if len(set(primes)) != len(primes) or not all(
            p < _MR_EXACT_BELOW and _is_prime(p) for p in primes):
        raise ValueError(f"--primes must list distinct primes below {_MR_EXACT_BELOW}")
    return primes


def _user_file(path: str) -> str:
    """The text of a file named on the command line; an unreadable path is an input error."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None


# the most work `snf` takes on, as cells × the squared digits of the largest |entry|: U and
# V grow with the square of the digits (about 4,100 digits for a 2×2 matrix of 100-digit
# entries, past Python's integer-string limit from 150), and at the bound stay under 2,700
# digits; a 50×50 matrix in [-9, 9] takes 0.3 s on a 2-vCPU VM (Python 3.11)
SNF_WORK_BOUND = 2500


def _cmd_snf(args) -> dict:
    from .abelian import smith_normal_form
    matrix = _json_flag("--matrix", args.matrix, "[[int]]")
    if len({len(row) for row in matrix}) > 1:
        raise ValueError("the --matrix rows must have equal length")
    cells = sum(map(len, matrix))
    digits = len(str(max((abs(x) for row in matrix for x in row), default=0)))
    if cells * digits * digits > SNF_WORK_BOUND:
        raise ValueError(f"the --matrix's {cells} cells × {digits} digits of its largest entry "
                         f"exceed snf's bound of {SNF_WORK_BOUND} on cells × digits²")
    u, d, v = smith_normal_form(matrix)
    return {"U": u, "D": d, "V": v, "diagonal": [d[i][i] for i in range(min(len(u), len(v)))]}


def _cmd_cohomology(args) -> dict:
    from .abelian import FgAbGroup
    from .cyccoh import group_cohomology, sign, trivial
    group = FgAbGroup.from_orders(_json_flag("--orders", args.orders, "[int]"))
    module = (sign if args.action == "sign" else trivial)(group, args.n)
    value = group_cohomology(module, args.s)
    return {"group": value, "structure": value.to_json(), "s": args.s, "action": args.action}


def _cmd_artin_schreier(args) -> dict:
    from .charp import (
        TruncatedCharPModule, operator_cokernel_basis, operator_kernel, parse_operator)
    op = parse_operator(args.op, args.p)
    window = (-args.window, args.window) if args.laurent else (0, args.window)
    module = TruncatedCharPModule(args.p, window, laurent=args.laurent)
    basis, stabilized = operator_kernel(op, module)
    report = {
        "operator": str(op), "p": args.p, "laurent": args.laurent,
        "window": list(window),
        "kernel": [_poly_str(poly) for poly in basis],
        "kernel_rank": len(basis),
        "stabilized": stabilized,
    }
    if args.cokernel:
        degrees, prefix = operator_cokernel_basis(op, module)
        report["cokernel_basis"] = [_monomial(d, 1) for d in degrees]
        report["cokernel_prefix"] = prefix
    return report


def _cmd_cech(args) -> dict:
    from .charp import punctured_affine_cohomology
    return {**vars(punctured_affine_cohomology(args.n_vars, args.window))}


def _cmd_br_number_ring(args) -> dict:
    from .numbrauer import brauer_localized_integers, places_from_json
    places = places_from_json(args.places)
    desc = brauer_localized_integers(places)
    return {"group": desc, "descriptor": desc.to_json(),
            "places": [{"kind": p.kind, "label": p.label} for p in places]}


def _cmd_h1_qz(args) -> dict:
    from .numbrauer import h1_qz_report
    primes = _primes(args.primes)
    report = {**vars(h1_qz_report(primes)), "primes": sorted(primes)}
    if report["stated"] is None:
        del report["stated"]
    return report


def _cmd_br_laurent(args) -> dict:
    from .numbrauer import brauer_laurent, places_from_json
    places = places_from_json(args.places)
    primes = _primes(args.primes)
    desc = brauer_laurent(places, primes)
    return {"group": desc, "descriptor": desc.to_json(),
            "inverted_primes": sorted(primes)}


def _load_ring(spec: str):
    """A shipped `kofam.EtaleRingDescriptor` by name, or one read from a file."""
    from .kofam import SHIPPED_RINGS, EtaleRingDescriptor
    if spec in SHIPPED_RINGS:
        return SHIPPED_RINGS[spec]
    if not os.path.exists(spec):
        raise NoFact(f"no shipped ring or descriptor file named {spec!r}")
    return EtaleRingDescriptor.from_json(json.loads(_user_file(spec)))


def _cmd_pic_ko(args) -> dict:
    from .kofam import pic_ko
    r = _load_ring(args.ring)
    res = pic_ko(r, d3_21=args.d3_21)
    return {**vars(res), "ring": r.name, "structure": res.group.to_json(),
            "graded": [{"s": s, "group": g} for s, g in res.graded]}


def _cmd_lbr_ko(args) -> dict:
    from .kofam import lbr_ko
    rep = lbr_ko()
    return {"group": rep.lbr, "structure": rep.lbr.to_json(), "exact": rep.exact,
            "terms": [{"name": name, "value": v} for name, v in rep.terms], "notes": rep.notes}


def _cmd_pic_tmf(args) -> dict:
    from .tmffam import TmfPageData, pic_tmf_global, pic_tmf_r, run_pic_tmf
    data = TmfPageData.load()
    if args.ring:
        return {**vars(pic_tmf_r(_load_ring(args.ring), data)), "citations": data.citations}
    stages = run_pic_tmf(data)
    return {
        "column0": [{"s": g.s, "local": g.local, "value": g.display(),
                     "exact": g.exact, "assumed": g.assumed} for g in stages],
        "gr_above_7": sum(1 for g in stages if g.s > 7 and g.symbol is not None),
        "local_groups": pic_tmf_global(data=data),  # JSON writes the primes as strings
        "citations": data.citations,
    }


def _cmd_pic_tmf_c4inv(args) -> dict:
    from .tmffam import TmfPageData, pic_tmf_c4inv
    data = TmfPageData.load()
    group = pic_tmf_c4inv(data=data)
    return {"group": group, "structure": group.to_json(),
            "citations": [data.c4inv_citation]}


def _cmd_lbr_tmf(args) -> dict:
    from .tmffam import TmfPageData, lbr_tmf
    data = TmfPageData.load()
    return {**vars(lbr_tmf(args.window, data=data)), "citations": data.citations}


def _cmd_lbr_mo(args) -> dict:
    from .tmffam import TmfPageData, lbr_m_o
    data = TmfPageData.load()
    report = {**vars(lbr_m_o(args.window, data=data)), "citations": [data.lbr_mo_citation]}
    del report["generator_map"]  # read by the benchmark, not shown
    return report


def _cmd_ss_run(args) -> dict:
    from .ssengine import page_from_json, page_to_dict, turn_page
    return page_to_dict(turn_page(*page_from_json(_user_file(args.page))))


def _cmd_ss_chart(args) -> str:
    from .ssengine import chart_svg, page_from_json
    page, _ = page_from_json(_user_file(args.page))
    return chart_svg(page)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


# verb -> (handler, help text, arguments), in the order `--help` lists them;
# each argument is a flag and the keywords of `add_argument`, and every verb
# also takes --output
_VERBS = {
    "snf": (_cmd_snf, "Smith normal form of an integer matrix", [
        ("--matrix", dict(required=True, help="JSON list of rows"))]),
    "cohomology": (_cmd_cohomology, "cyclic group cohomology H^s(C_n; M)", [
        ("--orders", dict(required=True, help="JSON cyclic orders of M (0 for Z)")),
        ("--action", dict(choices=["trivial", "sign"], default="trivial")),
        ("--n", dict(type=int, default=2, help="order of the acting cyclic group")),
        ("--s", dict(type=int, required=True))]),
    "artin-schreier": (_cmd_artin_schreier,
                       "kernel (and cokernel) of a semilinear operator on F_p[j] or F_p[j^±1]", [
        ("--p", dict(type=int, required=True, choices=[2, 3])),
        ("--op", dict(required=True, help='operator text, e.g. "x + j*x^2"')),
        ("--laurent", dict(action="store_true")),
        ("--window", dict(type=int, default=16)),
        ("--cokernel", dict(action="store_true"))]),
    "cech": (_cmd_cech, "cohomology of punctured affine space", [
        ("--n-vars", dict(type=int, required=True)),
        ("--window", dict(type=int, required=True))]),
    "br-number-ring": (_cmd_br_number_ring,
                       "Brauer group of a number-ring localization from its places", [
        ("--places", dict(required=True, help="JSON list of place specs"))]),
    "h1-qz": (_cmd_h1_qz, "H^1(-; Q/Z) of a localization of Spec Z", [
        ("--primes", dict(required=True, help="JSON list of inverted primes"))]),
    "br-laurent": (_cmd_br_laurent, "Brauer group of S[j^±1]", [
        ("--places", dict(default='[{"kind":"real"}]')),
        ("--primes", dict(default="[]"))]),
    "pic-ko": (_cmd_pic_ko, "Picard group of KO over an étale Z-algebra", [
        ("--ring", dict(default="Z", help="shipped ring name or descriptor file")),
        ("--d3-21", dict(choices=["zero", "nonzero", "unknown"], default="zero"))]),
    "lbr-ko": (_cmd_lbr_ko, "local Brauer group of KO", []),
    "pic-tmf": (_cmd_pic_tmf, "Picard sheaf filtration and Pic(TMF) localizations", [
        ("--ring", dict(help="shipped ring name or descriptor file"))]),
    "pic-tmf-c4inv": (_cmd_pic_tmf_c4inv, "Pic of TMF with c4 inverted", []),
    "lbr-tmf": (_cmd_lbr_tmf, "local Brauer group of TMF", [
        ("--window", dict(type=int, default=32))]),
    "lbr-mo": (_cmd_lbr_mo, "local Brauer group of the sheaf-level theory", [
        ("--window", dict(type=int, default=32))]),
    "ss-run": (_cmd_ss_run, "turn one page of a serialized spectral sequence", [
        ("--page", dict(required=True, help="page JSON file (entries + rules)"))]),
    "ss-chart": (_cmd_ss_chart, "SVG chart of a serialized page", [
        ("--page", dict(required=True, help="page JSON file"))]),
}


def build_parser():
    """The argparse parser with every verb's subparser."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="brauerkit",
        description="Picard and Brauer group computations for KO, TMF and number rings.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (handler, help_text, arguments) in _VERBS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--output", help="write the report to this path instead of stdout")
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _fast_args(argv):
    """The namespace `build_parser` would make of `argv`, read from `_VERBS`
    when `argv` is a verb followed by its flags, each once and in full, with a
    value not starting with "-" after each one that is not a store_true flag;
    None for anything else, including what argparse would refuse."""
    if not argv or argv[0] not in _VERBS:
        return None
    handler, _, arguments = _VERBS[argv[0]]
    options = {"--output": {}, **dict(arguments)}
    given, rest = {}, iter(argv[1:])
    for flag in rest:
        spec = options.get(flag)
        if spec is None or flag in given:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(rest, "-")
        if text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    values = {"verb": argv[0], "handler": handler}
    for flag, spec in options.items():
        if spec.get("required") and flag not in given:
            return None
        default = spec.get("default", False if spec.get("action") == "store_true" else None)
        values[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _fast_args(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        report = args.handler(args)
    except AmbiguousExtension as exc:
        print(f"error: ambiguous extension: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except _NOFACT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOFACT
    except (ValueError, NotAnAction) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if not isinstance(report, str):  # an SVG artifact is written as it is
        report["data_files"] = data_file_versions()
        try:
            report = json.dumps(report, sort_keys=True, indent=1, default=_display) + "\n"
        except ValueError as exc:  # an integer past the interpreter's limit for writing one
            print(f"error: the report holds an integer of more than "
                  f"{sys.get_int_max_str_digits()} digits: {exc}", file=sys.stderr)
            return EXIT_PARSE
    if not args.output:
        sys.stdout.write(report)
        return 0
    try:
        with open(args.output, "w") as fh:
            fh.write(report)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE
    return 0


if __name__ == "__main__":
    sys.exit(main())
