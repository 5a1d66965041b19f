"""Seeded request rounds for the three workloads, with a checker per request.

A round is a fixed list of request kinds at fixed sizes; the seed only
changes the contents (operators, matrices, groups, places), so every run of
a workload measures the same mix.  Round i uses the inputs of round
i mod PERIOD, which bounds the reference-digest file.

Each request's `check` returns None when the output is right, or a reason;
it may also return a deferred check (a thunk) for work too slow to do
between timed requests, such as recomputing a cokernel one window up.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from math import gcd
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import oracle

PERIOD = 8

SHIPPED_PIC_KO = {"Z": "Z/8", "Z[w][1/17]": "Z/2 ⊕ Z/8", "Z[1/2,zeta4]": "Z/4",
                  "Z[1/3,zeta3]": "Z/8"}
RING_INVERTED = {"Z": (), "Z[w][1/17]": (17,), "Z[1/2,zeta4]": (2,), "Z[1/3,zeta3]": (3,)}
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


@dataclass
class Request:
    key: str
    kind: str
    check: Callable[[Any], Any]
    canon: Callable[[Any], bytes]                  # output bytes behind the reference digest
    call: Optional[Callable[[], Any]] = None       # in-process workloads
    argv: Optional[List[str]] = None               # cli-cold
    post: Callable[[Any], Any] = lambda r: r       # untimed, turns the raw result into the output


def _fail(cond: bool, reason: str) -> Optional[str]:
    return None if cond else reason


def _group(g) -> oracle.Structure:
    return g.free_rank, tuple(g.invariant_factors)


def _evens(window: int) -> Tuple[str, ...]:
    return tuple(f"j^{d}" for d in range(2, window + 1, 2))


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------


def random_operator(rng: random.Random, p: int, window: int, laurent: bool,
                    n_terms: int) -> List[Tuple[int, int, int]]:
    """One Frobenius term c*j^k*x^p plus n_terms - 1 linear terms, such that
    the kernel region and the certified cokernel prefix fit the window.

    A single top term keeps the elimination cost within about 20% of the
    shipped operators'; two top terms can double it through fill-in.
    """
    while True:
        terms = [(rng.randrange(1, p), rng.randrange(0, 3), 1)]
        terms += [(rng.randrange(1, p), k, 0) for k in rng.sample(range(4), n_terms - 1)]
        ts = sorted(terms)
        lo, hi = (-window, window) if laurent else (0, window)
        rlo, rhi = oracle.dominance_region(ts, p)
        if not laurent:
            rlo = max(rlo, 0)
        if rlo <= rhi and (rlo < lo or rhi > hi):
            continue
        prefix = min(k + (hi + 1) * p ** e for _, k, e in ts) - 1
        low_cut = max(k + (lo - 1) * p ** e for _, k, e in ts) + 1 if laurent else 0
        if prefix >= low_cut:
            return ts


def _cyclic_order(rng: random.Random) -> int:
    return rng.choice((0, 2, 3, 4, 6, 8, 9, 12, 16))


def random_page(rng: random.Random, s_max: int, t_max: int, density: float) -> Tuple[str, Dict, Dict]:
    """A page-3 JSON document with cyclic entries and rules of every kind.

    Rules start only at even s and go to odd s (r = 3), so no entry is both
    a source and a target.  Returns (text, entries, rules) for the oracle.
    """
    r = 3
    entries: Dict[Tuple[int, int], Dict] = {}
    for s in range(s_max + 1):
        for t in range(t_max + 1):
            if rng.random() < density:
                a = _cyclic_order(rng)
                entries[(s, t)] = {"order": a, "label": f"x{s}_{t}" if rng.random() < 0.5 else "",
                                   "index": 1, "assumed": []}
    rules: Dict[Tuple[int, int], Dict] = {}
    for (s, t), e in sorted(entries.items()):
        if s % 2 or rng.random() < 0.4:
            continue
        kind = rng.choice(("zero", "iso", "unresolved", "matrix", "matrix"))
        tgt = (s + r, t + r - 1)
        if kind == "matrix":
            a = e["order"]
            b = rng.choice((2, 3, 4, 6, 8, 12))
            step = b // gcd(b, a) if a else 1
            c = step * rng.randrange(0, 4)
            entries[tgt] = {"order": b, "label": "", "index": 1, "assumed": []}
            rules[(s, t)] = {"kind": "matrix", "b": b, "c": c,
                             "relabel": "y" if rng.random() < 0.3 else ""}
        elif kind == "unresolved":
            rules[(s, t)] = {"kind": kind, "name": f"d3_{s}_{t}"}
        else:
            rules[(s, t)] = {"kind": kind}
    doc_entries = []
    for (s, t), e in sorted(entries.items()):
        a = e["order"]
        group = {"free_rank": 1, "factors": []} if a == 0 else {"free_rank": 0, "factors": [a]}
        doc_entries.append({"s": s, "t": t, "entry": {"kind": "group", "group": group},
                            "label": e["label"], "index": 1, "assumed": []})
    doc_rules = []
    for (s, t), rule in sorted(rules.items()):
        d = {"r": r, "s": s, "t": t, "kind": rule["kind"], "provenance": "seeded benchmark page"}
        if rule["kind"] == "matrix":
            a = entries[(s, t)]["order"]
            d["matrix"] = [[rule["c"]]]
            d["source_group"] = ({"free_rank": 1, "factors": []} if a == 0
                                 else {"free_rank": 0, "factors": [a]})
            d["target_group"] = {"free_rank": 0, "factors": [rule["b"]]}
            if rule["relabel"]:
                d["relabel"] = rule["relabel"]
        if rule["kind"] == "unresolved":
            d["name"] = rule["name"]
        doc_rules.append(d)
    text = json.dumps({"r": r, "entries": doc_entries, "rules": doc_rules}, sort_keys=True)
    return text, entries, rules


def check_turned_page(text: str, entries: Dict, rules: Dict) -> Optional[str]:
    try:
        doc = json.loads(text)
    except ValueError:
        return "turned page is not JSON"
    if doc.get("r") != 4:
        return "turned page has the wrong page number"
    got = {}
    for item in doc["entries"]:
        ent = item["entry"]
        if ent.get("kind") != "group":
            return "non-group entry on the turned page"
        g = ent["group"]
        got[(item["s"], item["t"])] = ((g["free_rank"], tuple(g["factors"])), item["label"],
                                       item["index"], tuple(item["assumed"]))
    want = oracle.turn_page_expected(entries, rules, 3)
    return _fail(got == want, "turned page differs from the expected page")


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def _places(rng: random.Random) -> Tuple[List[Dict], List[int]]:
    primes = sorted(rng.sample(SMALL_PRIMES, rng.randrange(0, 4)))
    places = [{"kind": "finite", "label": str(p)} for p in primes]
    places += [{"kind": "real"}] * rng.randrange(0, 3) + [{"kind": "complex"}] * rng.randrange(0, 2)
    rng.shuffle(places)
    return places, primes


def _brauer_expected(places: List[Dict]) -> Tuple[int, Tuple[int, ...]]:
    """(Q/Z copies, invariant factors of the finite part) of Br(O_S)."""
    m = sum(1 for p in places if p["kind"] == "finite")
    r = sum(1 for p in places if p["kind"] == "real")
    if m >= 1:
        return m - 1, oracle.normal_form([2] * r)[1]
    return 0, oracle.normal_form([2] * (r - 1))[1] if r else ()


def _h1_expected(primes: Sequence[int]) -> Dict:
    finite = oracle.normal_form([2 if p == 2 else p - 1 for p in primes])
    return {"qpzp_primes": sorted(primes), "finite_part": oracle.structure_json(finite)}


def _cli_json(result) -> Tuple[Optional[Dict], Optional[str]]:
    code, out, err = result
    if code != 0:
        return None, f"exit code {code}: {err[-300:]!r}"
    try:
        return json.loads(out), None
    except ValueError:
        return None, "report is not JSON"


def _check_pic_ko(ring):
    def check(rep):
        return _fail(rep["ring"] == ring and rep["group"] == SHIPPED_PIC_KO[ring],
                     f"Pic(KO_{ring}) = {rep.get('group')}")
    return check


def _check_pic_tmf(rep):
    return _fail(rep["local_groups"] == {"2": "Z/64", "3": "Z/9", "5": "0"},
                 f"Pic(TMF) localizations {rep.get('local_groups')}")


def _check_pic_tmf_ring(ring):
    inverted = RING_INVERTED[ring]
    h0 = (1 if 2 in inverted else 8) * (1 if 3 in inverted else 3)

    def check(rep):
        return _fail(rep["quotient"] == "Z/24" and rep["h0_ideal_order"] == h0
                     and rep["sections_order"] == h0 * 24 and rep["total_order"] == h0 * 24,
                     "Pic(TMF_R) orders")
    return check


def _check_lbr_tmf(window):
    def check(rep):
        return _fail(rep["three_torsion"] == "Z/3" and rep["p_gt_3_torsion"] == "0"
                     and tuple(rep["two_local_basis"]) == _evens(window),
                     "LBr(TMF) 3-torsion or 2-local basis")
    return check


def _check_lbr_mo(window):
    def check(rep):
        return _fail(rep["three_local"] == "Z/3" and rep["two_local_kernel_order"] == 8
                     and tuple(rep["two_local_basis"]) == _evens(window), "LBr(M_O) report")
    return check


def _check_snf_report(matrix):
    def check(rep):
        diag = [rep["D"][i][i] for i in range(min(len(matrix), len(matrix[0])))]
        if rep["diagonal"] != diag:
            return "diagonal field disagrees with D"
        return oracle.snf_failure(matrix, rep["U"], rep["D"], rep["V"])
    return check


def _check_cohomology(orders, action, n, s):
    want = oracle.cyclic_cohomology_row(oracle.normal_form(orders), n, action, s)[s]

    def check(rep):
        return _fail(rep["structure"] == oracle.structure_json(want)
                     and rep["group"] == oracle.structure_str(want), "cyclic cohomology")
    return check


def _check_cech(n, w):
    from math import comb
    count = sum(comb(t - 1, n - 1) for t in range(n, w + 1))

    def check(rep):
        basis = rep["basis"]
        ok = (len(basis) == count and len({tuple(v) for v in basis}) == count
              and all(len(v) == n and all(x <= -1 for x in v) and n <= -sum(v) <= w for v in basis))
        return _fail(ok and rep["degree"] == n - 1, "cech basis")
    return check


def _check_as_report(terms, p, window, laurent):
    """Checks an artin-schreier report; the cokernel is compared with a run
    one window up (deferred, it costs as much as the request)."""
    def check(rep):
        kernel = [oracle.parse_poly(text) for text in rep["kernel"]]
        if any(oracle.apply_operator(terms, p, poly) for poly in kernel):
            return "kernel vector with nonzero image"
        if len(kernel) != rep["kernel_rank"]:
            return "kernel rank disagrees with the basis"
        degrees = [d for d, _ in (oracle.parse_poly(m)[0] for m in rep["cokernel_basis"])]
        return None, lambda: compare_next_window(terms, p, window, laurent, kernel, degrees,
                                                 rep["cokernel_prefix"])
    return check


def compare_next_window(terms, p, window, laurent, kernel, degrees, prefix) -> Optional[str]:
    from brauerkit import charp
    op = charp.SemilinearOperator(p, tuple(terms))
    lo, hi = (-window - 1, window + 1) if laurent else (0, window + 1)
    module = charp.TruncatedCharPModule(p, (lo, hi), laurent=laurent)
    basis2, _ = charp.operator_kernel(op, module)
    degrees2, prefix2 = charp.operator_cokernel_basis(op, module)
    if [list(v) for v in basis2] != [list(v) for v in kernel]:
        return "kernel changes one window up"
    low = max(k + (-window - 1) * p ** e for _, k, e in terms) + 1 if laurent else 0
    top = min(prefix, prefix2)
    if [d for d in degrees if d <= top] != [d for d in degrees2 if low <= d <= top]:
        return "cokernel changes one window up"
    return None


def cli_cold_round(seed: int, index: int, workdir: str) -> List[Request]:
    rng = random.Random(f"cli-cold:{seed}:{index % PERIOD}")
    reqs: List[Tuple[str, List[str], Callable]] = []
    for ring in SHIPPED_PIC_KO:
        reqs.append(("pic-ko", ["pic-ko", "--ring", ring, "--d3-21",
                                rng.choice(("zero", "nonzero", "unknown"))], _check_pic_ko(ring)))
    reqs.append(("pic-tmf", ["pic-tmf"], _check_pic_tmf))
    ring = rng.choice(sorted(SHIPPED_PIC_KO))
    reqs.append(("pic-tmf", ["pic-tmf", "--ring", ring], _check_pic_tmf_ring(ring)))
    reqs.append(("pic-tmf-c4inv", ["pic-tmf-c4inv"],
                 lambda rep: _fail(rep["group"] == "Z/2 ⊕ Z/8", "c4-inverted Pic")))
    reqs.append(("lbr-ko", ["lbr-ko"], lambda rep: _fail(rep["group"] == "Z/2", "LBr(KO)")))
    reqs.append(("lbr-tmf", ["lbr-tmf", "--window", "32"], _check_lbr_tmf(32)))
    reqs.append(("lbr-mo", ["lbr-mo", "--window", "32"], _check_lbr_mo(32)))

    places, _ = _places(rng)
    want = _brauer_expected(places)
    reqs.append(("br-number-ring", ["br-number-ring", "--places", json.dumps(places)],
                 lambda rep, want=want: _fail(
                     rep["descriptor"]["qz_copies"] == want[0]
                     and rep["descriptor"]["finite_part"] == oracle.structure_json((0, want[1])),
                     "Br of the localized integers")))
    places, primes = _places(rng)
    if rng.random() < 0.3:  # the shipped identity Br(Z[j^{±1}]) = 0
        places, primes = [{"kind": "real"}], []
    br, h1 = _brauer_expected(places), _h1_expected(primes)
    finite = oracle.normal_form([2] * len(br[1]) + h1["finite_part"]["factors"])
    shipped = places == [{"kind": "real"}] and not primes

    def check_laurent(rep, br=br, h1=h1, finite=finite, shipped=shipped):
        d = rep["descriptor"]
        ok = (d["qz_copies"] == br[0] and d["qpzp_primes"] == h1["qpzp_primes"]
              and d["finite_part"] == oracle.structure_json(finite))
        return _fail(ok and (rep["group"] == "0" or not shipped), "Br of the Laurent ring")
    reqs.append(("br-laurent", ["br-laurent", "--places", json.dumps(places),
                                "--primes", json.dumps(primes)], check_laurent))
    primes = sorted(rng.sample(SMALL_PRIMES, rng.randrange(1, 5)))
    h1 = _h1_expected(primes)
    reqs.append(("h1-qz", ["h1-qz", "--primes", json.dumps(primes)],
                 lambda rep, h1=h1: _fail(rep["primes"] == h1["qpzp_primes"] and rep["computed"]
                                          == _descriptor_str(h1), "H^1(-; Q/Z)")))
    orders = [_cyclic_order(rng) for _ in range(rng.randrange(1, 4))]
    action = rng.choice(("trivial", "sign"))
    n = 2 if action == "sign" else rng.randrange(2, 7)
    s = rng.randrange(0, 5)
    reqs.append(("cohomology", ["cohomology", "--orders", json.dumps(orders), "--action", action,
                                "--n", str(n), "--s", str(s)], _check_cohomology(orders, action, n, s)))
    rows, cols = rng.randrange(2, 6), rng.randrange(2, 6)
    matrix = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
    reqs.append(("snf", ["snf", "--matrix", json.dumps(matrix)], _check_snf_report(matrix)))
    p = rng.choice((2, 3))
    laurent = rng.random() < 0.5
    terms = random_operator(rng, p, 16, laurent, rng.randrange(2, 5))
    argv = ["artin-schreier", "--p", str(p), "--op", oracle.operator_text(terms, p),
            "--window", "16", "--cokernel"] + (["--laurent"] if laurent else [])
    reqs.append(("artin-schreier", argv, _check_as_report(terms, p, 16, laurent)))
    n = rng.randrange(2, 4)
    w = rng.randrange(n, 9)
    reqs.append(("cech", ["cech", "--n-vars", str(n), "--window", str(w)], _check_cech(n, w)))
    text, entries, rules = random_page(rng, 6, 14, 0.35)
    path = os.path.join(workdir, f"page-{index % PERIOD}.json")
    with open(path, "w") as fh:
        fh.write(text)
    reqs.append(("ss-run", ["ss-run", "--page", path],
                 lambda rep, e=entries, r=rules: check_turned_page(json.dumps(rep), e, r)))
    n_entries = len(entries)
    reqs.append(("ss-chart", ["ss-chart", "--page", path], None))

    out = []
    for i, (kind, argv, check) in enumerate(reqs):
        key = f"{index}.{i}"
        if kind == "ss-chart":
            out.append(Request(key, kind, _svg_check(n_entries), argv=argv,
                               canon=lambda r: r[1]))
        else:
            out.append(Request(key, kind, _json_check(check), argv=argv, canon=lambda r: r[1]))
    return out


def _descriptor_str(h1: Dict) -> str:
    parts = [f"Q_{p}/Z_{p}" for p in h1["qpzp_primes"]]
    finite = oracle.structure_str((0, tuple(h1["finite_part"]["factors"])))
    if finite != "0":
        parts.append(finite)
    return " ⊕ ".join(parts) if parts else "0"


def _json_check(check):
    def run(result):
        rep, err = _cli_json(result)
        if err:
            return err
        try:
            return check(rep)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed report: {exc!r}"
    return run


def _svg_check(n_entries):
    def run(result):
        code, out, err = result
        if code != 0:
            return f"exit code {code}"
        text = out.decode()
        cells = text.count('text-anchor="middle"')
        return _fail(text.startswith("<svg") and text.rstrip().endswith("</svg>")
                     and cells == n_entries, "chart does not show every entry")
    return run


# ---------------------------------------------------------------------------
# charp-windows
# ---------------------------------------------------------------------------

SHIPPED_OPS = {2: [(1, 0, 0), (1, 1, 1)], 3: [(1, 0, 0), (2, 0, 1)]}

# Slots (source, p, window, laurent, terms).  "shipped" is x + j*x^2 over
# F_2 or x + 2*x^3 over F_3; "seeded" draws an operator with that many
# terms (more terms vary the cost more, so they go to the small windows);
# "lbr_tmf"/"lbr_m_o" run the local Brauer drivers; "cli" runs
# `artin-schreier --cokernel --output` in process.  Sizes are fixed so each
# round has three cost plateaus: small (~0.03 s), medium (~0.1 s) and heavy
# (~0.8 s, windows near 256 or +-128).  The plateaus are interleaved so a
# partial last round keeps the mix.
CHARP_SLOTS = [
    ("shipped", 2, 256, False, 2), ("shipped", 2, 128, False, 2), ("shipped", 2, 64, False, 2),
    ("lbr_tmf", 2, 248, False, 2), ("shipped", 2, 64, True, 2), ("seeded", 3, 32, True, 4),
    ("shipped", 2, 128, True, 2), ("seeded", 2, 128, False, 2), ("seeded", 2, 32, True, 3),
    ("lbr_m_o", 2, 264, False, 2), ("seeded", 3, 128, False, 2), ("shipped", 3, 128, False, 2),
    ("cli", 3, 256, False, 2), ("cli", 2, 128, False, 2),
]


def charp_round(seed: int, index: int, workdir: str, modules) -> List[Request]:
    rng = random.Random(f"charp-windows:{seed}:{index % PERIOD}")
    charp, tmffam, cli = modules["charp"], modules["tmffam"], modules["cli"]
    out: List[Request] = []
    for source, p, window, laurent, n_terms in CHARP_SLOTS:
        key = f"{index}.{len(out)}"
        if source in ("lbr_tmf", "lbr_m_o"):
            w = window + 2 * rng.randrange(0, 5)
            out.append(Request(key, source, _lbr_check(w, source),
                               call=lambda w=w, source=source: getattr(tmffam, source)(w),
                               canon=_lbr_canon))
            continue
        terms = (SHIPPED_OPS[p] if source == "shipped"
                 else random_operator(rng, p, window, laurent, n_terms))
        if source == "cli":
            path = os.path.join(workdir, f"as-{index}-{len(out)}.json")
            argv = ["artin-schreier", "--p", str(p), "--op", oracle.operator_text(terms, p),
                    "--window", str(window), "--cokernel", "--output", path]
            argv += ["--laurent"] if laurent else []
            out.append(Request(
                key, "cli.artin-schreier", _json_check(_check_as_report(terms, p, window, laurent)),
                call=lambda argv=argv: cli.main(argv),
                post=lambda code, path=path: _read_output(code, path), canon=lambda r: r[1]))
            continue
        op = charp.parse_operator(oracle.operator_text(terms, p), p)
        module = charp.TruncatedCharPModule(p, (-window if laurent else 0, window), laurent=laurent)
        out.append(Request(
            key, f"charp.p{p}{'L' if laurent else ''}.w{window}", _charp_check(terms, p, window, laurent),
            call=lambda op=op, m=module: (charp.operator_kernel(op, m),
                                          charp.operator_cokernel_basis(op, m)),
            canon=lambda r: json.dumps([r[0][0], r[1][0], r[1][1]]).encode()))
    return out


def _read_output(code, path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
    except OSError:
        data = b""
    return code, data, b""


def _charp_check(terms, p, window, laurent):
    def check(result):
        (basis, stabilized), (degrees, prefix) = result
        for vec in basis:
            if not vec or oracle.apply_operator(terms, p, vec):
                return "kernel vector with nonzero image"
        if stabilized is not True:
            return "kernel not certified"
        return None, lambda: compare_next_window(terms, p, window, laurent,
                                                 [list(v) for v in basis], list(degrees), prefix)
    return check


def _lbr_check(window, which):
    def check(rep):
        three = rep.three_torsion if which == "lbr_tmf" else rep.three_local
        ok = _group(three) == (0, (3,)) and tuple(rep.two_local_basis) == _evens(window)
        if which == "lbr_m_o":
            ok = ok and rep.two_local_kernel_order == 8
        return _fail(ok, "local Brauer report")
    return check


def _lbr_canon(rep) -> bytes:
    fields = {k: (str(v) if hasattr(v, "invariant_factors") else v) for k, v in vars(rep).items()}
    return json.dumps(fields, sort_keys=True, default=str).encode()


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


# Resolution slots: (label, shape options).  A shape is a list of (p, mu, b):
# sub of type mu (largest part a), cyclic quotient of order p^b and a
# witness of order p^(a+b) mapping to a quotient generator, which forces the
# type (a+b, mu_2, ...).  Options within a slot cost about the same, since
# exhaustive enumeration is very sensitive to the shape.
# The third field fixes resolve_extension_by_order (True) or
# resolve_extension (False); None lets the seed choose.  The three order-128
# slots hold the p95, so their mix is fixed.
RESOLVE_SLOTS = [
    ("o16", [[(2, (3,), 1)], [(2, (2,), 2)], [(2, (1, 1), 2)]], None),
    ("o32", [[(2, (4,), 1)], [(2, (3,), 2)], [(2, (2, 1), 2)]], None),
    ("o64", [[(2, (5,), 1)], [(2, (3, 1), 2)]], None),
    ("o128", [[(2, (6,), 1)]], False),
    ("o128", [[(2, (6,), 1)]], True),
    ("o128", [[(2, (6,), 1)]], False),
    ("o72", [[(2, (2,), 1), (3, (1,), 1)], [(2, (1,), 2), (3, (1,), 1)]], None),
    ("o108", [[(2, (1,), 1), (3, (2,), 1)]], None),
    ("o81", [[(3, (3,), 1)], [(3, (2,), 2)]], None),
]


def _resolve_request(rng, abelian, shape, by_order: bool):
    sub_orders, want = [], []
    quot = wit = 1
    for p, mu, b in shape:
        sub_orders += [p ** e for e in mu]
        quot *= p ** b
        wit *= p ** (mu[0] + b)
        want += [p ** (mu[0] + b)] + [p ** e for e in mu[1:]]
    sub = abelian.FgAbGroup.from_orders(sub_orders)
    witness = abelian.ExtensionWitness(wit, maps_to_generator_of_quotient=True)
    expected = oracle.normal_form(want)
    if by_order:
        call = lambda: abelian.resolve_extension_by_order(sub, quot, witness)
    else:
        q = abelian.FgAbGroup.cyclic(quot)
        call = lambda: abelian.resolve_extension(sub, q, witness)
    order = sub.order() * quot

    def check(g):
        if _group(g) != expected:
            return f"extension {g} != {oracle.structure_str(expected)}"
        return _fail(g.order() == order and g.exponent() % wit == 0, "extension order/exponent")
    return call, check


def _random_hom(rng, abelian, n_src: int, n_tgt: int):
    src = [_cyclic_order(rng) for _ in range(n_src)]
    tgt = [_cyclic_order(rng) for _ in range(n_tgt)]
    S, T = abelian.FgAbGroup.from_orders(src), abelian.FgAbGroup.from_orders(tgt)
    so, to = S.generator_orders(), T.generator_orders()
    cols = []
    for d in so:
        col = []
        for e in to:
            if d == 0:
                col.append(rng.randrange(-5, 6))
            elif e == 0:
                col.append(0)
            else:
                col.append((e // gcd(e, d)) * rng.randrange(0, 6))
        cols.append(col)
    return abelian.GroupHom.from_columns(S, T, cols)


def _apply(matrix, vec, orders):
    out = []
    for row, d in zip(matrix, orders):
        v = sum(a * x for a, x in zip(row, vec))
        out.append(v % d if d else v)
    return out


def _hom_check(f):
    import itertools
    src, tgt = f.source.generator_orders(), f.target.generator_orders()

    def check(result):
        (ker, incl), (cok, proj) = result
        for j in range(ker.num_generators):
            col = [row[j] for row in incl.matrix]
            if any(_apply(f.matrix, col, tgt)):
                return "kernel generator not in the kernel"
        for j in range(len(src)):
            col = [row[j] for row in f.matrix]
            if any(_apply(proj.matrix, col, cok.generator_orders())):
                return "image not killed by the cokernel projection"
        if ker.free_rank - cok.free_rank != src.count(0) - tgt.count(0):
            return "rank identity fails"
        if f.source.is_finite() and f.target.is_finite():
            if ker.order() * f.target.order() != f.source.order() * cok.order():
                return "order identity fails"
            if f.source.order() <= 4096:
                zeros = sum(1 for x in itertools.product(*(range(d) for d in src))
                            if not any(_apply(f.matrix, x, tgt)))
                return _fail(zeros == ker.order(), "kernel order differs from a brute count")
        return None
    return check


def _homology_request(rng, abelian):
    """Z^a --g--> Z^b --f--> Z^c with f g = 0 and known homology: the middle
    basis is scrambled by a unimodular T, g hits the first k coordinates
    through diag(d) and f is injective on the rest."""
    k, rest = rng.randrange(1, 4), rng.randrange(1, 3)
    b, a = k + rest, k + rng.randrange(0, 2)
    d = [rng.choice((0, 1, 2, 3, 4, 6)) for _ in range(k)]
    G1 = [[d[i] if i == j else 0 for j in range(a)] for i in range(k)]
    F2 = [[int(i == j) for j in range(rest)] for i in range(rest)]
    F2 += [[rng.randrange(-3, 4) for _ in range(rest)]]
    T, Tinv = oracle.random_unimodular(rng, b, 6)
    g = oracle.mat_mul(T, G1 + [[0] * a for _ in range(rest)])
    f = oracle.mat_mul([[0] * k + row for row in F2], Tinv)
    Za, Zb, Zc = (abelian.FgAbGroup.free(n) for n in (a, b, len(F2)))
    gh = abelian.GroupHom(Za, Zb, tuple(map(tuple, g)))
    fh = abelian.GroupHom(Zb, Zc, tuple(map(tuple, f)))
    want = oracle.normal_form(d)
    return (lambda: abelian.homology(fh, gh),
            lambda h: _fail(_group(h) == want, f"homology {h} != {oracle.structure_str(want)}"))


def algebra_round(seed: int, index: int, workdir: str, modules) -> List[Request]:
    rng = random.Random(f"algebra:{seed}:{index % PERIOD}")
    abelian, cyccoh, kofam, ssengine = (modules[m] for m in ("abelian", "cyccoh", "kofam", "ssengine"))
    items: List[Tuple[str, Callable, Callable, Callable]] = []
    group_canon = lambda g: str(g).encode()

    for label, shapes, by_order in RESOLVE_SLOTS:
        if by_order is None:
            by_order = rng.random() < 0.5
        call, check = _resolve_request(rng, abelian, rng.choice(shapes), by_order)
        items.append((f"resolve.{label}", call, check, group_canon))
    for rows, cols in ((8, 8), (12, 12), (16, 16), (20, 20), (10, 14), (24, 18), (30, 30)):
        M = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        items.append((f"snf.{rows}x{cols}", lambda M=M: abelian.smith_normal_form(M),
                      lambda r, M=M: oracle.snf_failure(M, *r),
                      lambda r: json.dumps(r).encode()))
    for _ in range(11):
        f = _random_hom(rng, abelian, rng.randrange(1, 4), rng.randrange(1, 4))
        items.append(("hom", lambda f=f: (abelian.hom_kernel(f), abelian.hom_cokernel(f)),
                      _hom_check(f), lambda r: f"{r[0][0]}|{r[1][0]}".encode()))
    for _ in range(4):
        call, check = _homology_request(rng, abelian)
        items.append(("homology", call, check, group_canon))
    for lo, hi in ((10 ** 10, 10 ** 11), (10 ** 11, 10 ** 12)):
        p = oracle.next_prime(rng.randrange(lo, hi))
        Z = abelian.FgAbGroup.free(1)
        f = abelian.GroupHom(Z, Z, ((p,),))
        items.append(("hom.bigprime", lambda f=f: abelian.hom_cokernel(f),
                      lambda r, p=p: _fail(_group(r[0]) == (0, (p,)), "cokernel of [[p]]"),
                      lambda r: str(r[0]).encode()))
    # ten rows of one shape: their near-equal cost holds the median report
    for _ in range(10):
        orders = [rng.choice((2, 3, 4, 6)) for _ in range(2)]
        action = rng.choice(("trivial", "sign"))
        n = 2 if action == "sign" else rng.randrange(2, 5)
        s_max = rng.randrange(3, 7)
        want = oracle.cyclic_cohomology_row(oracle.normal_form(orders), n, action, s_max)

        def call(orders=orders, action=action, n=n, s_max=s_max):
            g = abelian.FgAbGroup.from_orders(orders)
            module = cyccoh.trivial(g, n) if action == "trivial" else cyccoh.sign(g, n)
            return cyccoh.cohomology_row(module, s_max)
        items.append(("cyccoh.row", call,
                      lambda row, want=want: _fail([_group(g) for g in row] == want, "cohomology row"),
                      lambda row: " | ".join(map(str, row)).encode()))
    ring = kofam.SHIPPED_RINGS[rng.choice(("Z", "Z[w][1/17]", "Z[1/3,zeta3]"))]
    items.append(("ku_pages.40x80", lambda: kofam.ku_additive_pages(ring, 40, (0, 80)),
                  _ku_check(40, 0, 80), _pages_canon))
    for _ in range(2):
        text, entries, rules = random_page(rng, 12, 30, 0.4)

        def call(text=text):
            page, rs = ssengine.page_from_json(text)
            return ssengine.page_to_json(ssengine.turn_page(page, rs))
        items.append(("turn_page", call,
                      lambda out, e=entries, r=rules: check_turned_page(out, e, r),
                      lambda out: out.encode()))
    for _ in range(2):
        p = rng.choice((2, 3))
        orders = [p] + [p ** rng.randrange(0, 3) for _ in range(rng.randrange(2, 5))]
        while _prod(orders) > 128:
            orders.pop()
        total = _prod(orders)
        witness = abelian.ExtensionWitness(total, maps_to_generator_of_quotient=True)
        items.append(("assemble", lambda o=orders, w=witness: ssengine.assemble_abutment_by_orders(o, w),
                      lambda g, total=total: _fail(_group(g) == oracle.normal_form([total]),
                                                   "assembled abutment"), group_canon))
    return [Request(f"{index}.{i}", kind, check, call=call, canon=canon)
            for i, (kind, call, check, canon) in enumerate(items)]


def _prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def _page_map(page):
    return {pos: ((e.value.free_rank, tuple(e.value.invariant_factors)), e.index)
            for pos, e in page.entries.items()}


def _ku_check(s_max, t_lo, t_hi):
    e2, e4 = oracle.ku_pages_expected(s_max, t_lo, t_hi)

    def check(pages):
        if len(pages) != 3 or [pg.r for pg in pages] != [2, 3, 4]:
            return "expected pages E2, E3, E4"
        if _page_map(pages[0]) != e2 or _page_map(pages[1]) != e2:
            return "E2/E3 differ from H^s(C_2; pi_t KU)"
        return _fail(_page_map(pages[2]) == e4, "E4 differs from the d3 Bott pattern")
    return check


def _pages_canon(pages) -> bytes:
    return json.dumps([[[s, t, str(e.value), e.label, e.index] for (s, t), e in
                        sorted(pg.entries.items())] for pg in pages]).encode()


def build_round(workload: str, seed: int, index: int, workdir: str, modules) -> List[Request]:
    if workload == "cli-cold":
        return cli_cold_round(seed, index, workdir)
    if workload == "charp-windows":
        return charp_round(seed, index, workdir, modules)
    return algebra_round(seed, index, workdir, modules)
