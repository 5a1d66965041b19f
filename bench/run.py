"""brauerkit benchmark: seeded closed-loop workloads with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --write-digests     # regenerate bench/digests.json

One client, one request in flight, one process and no threads.  Each
request's output is checked (shipped identities, invariants computed by
bench/oracle.py, and for the default seed a reference sha256); a wrong
output, unexpected exit code, exception or timeout counts as failed.

--trace 0 prints the end-to-end metrics.  --trace 1 replays a fixed set of
requests untraced and then traced, measures the per-layer scaling probes and
the import cost, and prints the per-layer metrics.  The last line of stdout
is the JSON result; earlier lines record the environment and notes.
Scratch files live under .bench_build/ and are removed at exit, except the
spans of a traced run (.bench_build/spans-<workload>-seed<seed>.json).
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import oracle
import tracing
import workloads

WORKLOADS = ("cli-cold", "charp-windows", "algebra")
DEFAULT_SEED = 1
SETUP_REPS = 9
CAL_REF_S = 0.010             # nominal time of one calibration loop
CAL_EVERY_S = 0.2             # measured seconds between calibration samples
CAL_NEAREST = 6               # samples around a request that set its speed factor
WARMUP_REQUESTS = 3
REQUEST_TIMEOUT_S = 20.0
RUN_BUDGET_S = 160.0          # every run must exit well within 180 s
TAIL_PCT = {"cli-cold": 75, "charp-windows": 75, "algebra": 95}
TRACE_ROUNDS = {"cli-cold": 1, "charp-windows": 1, "algebra": 2}
IMPORT_PROBES = 5
PROBE_REPS = 3
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

# brauerkit compiled from source in a fresh process; the stdlib modules it
# needs are imported first so only brauerkit misses the bytecode cache
SETUP_CODE = """
import sys, argparse, dataclasses, hashlib, itertools, json, os, pathlib, re, typing
sys.pycache_prefix = sys.argv[1]
import brauerkit.cli, brauerkit.sheaftab, brauerkit.tmffam
brauerkit.sheaftab.default_fact_table()
brauerkit.tmffam.TmfPageData.load()
"""


def calibration_loop() -> list:
    """Fixed benchmark-owned work shaped like brauerkit's inner loops: row
    operations mod 3 over lists large enough to leave the CPU caches busy.
    Its time tracks the speed of a shared machine, which drifts by tens of
    percent within a minute."""
    rows = [[(i * j + 1) % 3 for j in range(700)] for i in range(40)]
    for r in range(40):
        pivot = rows[r]
        for i in range(40):
            f = rows[i][r]
            if i != r and f:
                rows[i] = [(a - f * b) % 3 for a, b in zip(rows[i], pivot)]
    return rows


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout()


class Bench:
    """State of one benchmark process: paths, child environment, records."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.root, self.workload, self.seed, self.work = root, workload, seed, work
        self.src = root / "src"
        self.t_start = time.perf_counter()
        self.cache = work / "pycache"
        self.max_child_rss_kb = 0
        self.failures: List[Tuple[str, str]] = []
        self.wrong = 0
        self.deferred: List[Tuple[str, Any]] = []
        self.digests = self._load_digests() if seed == DEFAULT_SEED else None
        self.modules: Dict[str, Any] = {}
        self.last_child_rss_kb = 0

    # -- environment ----------------------------------------------------------

    def _load_digests(self) -> Optional[Dict[str, str]]:
        if not DIGESTS.is_file():
            return None
        return json.loads(DIGESTS.read_text()).get(self.workload)

    def child_env(self, cache: Optional[Path], write: bool = False) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items()
               if k not in ("BRAUERKIT_DATA", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
        env["PYTHONPATH"] = str(self.src)
        if cache is not None:
            env["PYTHONPYCACHEPREFIX"] = str(cache)
        if not write:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.t_start)

    def run_child(self, cmd: List[str], env: Dict[str, str],
                  timeout: float = REQUEST_TIMEOUT_S) -> Tuple[Optional[int], bytes, bytes, float]:
        """(exit code or None on timeout, stdout, stderr, wall seconds)."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        timeout = max(0.5, min(timeout, self.remaining()))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=self.root)
            status = None
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except RequestTimeout:
                pass
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            timed_out = status is None
            if timed_out:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.last_child_rss_kb = usage.ru_maxrss
        return (None if timed_out else code), out_path.read_bytes(), err_path.read_bytes(), wall

    # -- set-up ---------------------------------------------------------------

    def fill_cache(self) -> float:
        """Run one report in a fresh process that writes brauerkit's entries
        into the bytecode cache; the stdlib entries are written first,
        untimed, as an installed Python already has them."""
        cmd = [sys.executable, "-m", "brauerkit.cli", "lbr-mo", "--window", "8"]
        env = self.child_env(self.cache, write=True)
        if not self.cache.is_dir():
            self._setup_child(cmd, env)
        shutil.rmtree(self.package_cache(self.cache), ignore_errors=True)
        return self._setup_child(cmd, env)

    def package_cache(self, cache: Path) -> Path:
        return cache / str(self.src.resolve()).lstrip("/") / "brauerkit"

    def warm_traced_child(self) -> None:
        """Add the traced child's own imports (tracing, inspect) to the cache."""
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(self.work / "warm.json"), "lbr-ko"]
        self._setup_child(cmd, self.child_env(self.cache, write=True))

    def _setup_child(self, cmd, env) -> float:
        code, _, err, wall = self.run_child(cmd, env)
        if code != 0:
            raise SystemExit(f"set-up failed: {err.decode(errors='replace')[-500:]}")
        return wall

    def measure_setup(self, reps: int) -> List[float]:
        """Wall time of fresh processes doing this workload's set-up.

        cli-cold fills the bytecode cache its requests read; the in-process
        workloads import brauerkit from source and load the data tables.
        """
        times = []
        for i in range(reps):
            if self.workload == "cli-cold":
                times.append(self.fill_cache())
            else:
                empty = self.work / f"empty-{i}"
                empty.mkdir()
                times.append(self._setup_child([sys.executable, "-c", SETUP_CODE, str(empty)],
                                               self.child_env(None)))
        return times

    def import_library(self) -> None:
        sys.dont_write_bytecode = True
        sys.pycache_prefix = str(self.work / "self-pycache")
        sys.path.insert(0, str(self.src))
        import importlib
        for layer in tracing.LAYERS:
            self.modules[layer] = importlib.import_module(f"brauerkit.{layer}")
        self.modules["sheaftab"].default_fact_table()

    # -- requests -------------------------------------------------------------

    def execute(self, req: workloads.Request, traced_spans: Optional[Path] = None):
        """Run one request; returns (output or None, seconds, error or None).

        Only the call itself (or the child process) is timed.
        """
        if req.argv is not None:
            if traced_spans is None:
                cmd = [sys.executable, "-m", "brauerkit.cli"] + req.argv
            else:
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(traced_spans)] + req.argv
            code, out, err, wall = self.run_child(cmd, self.child_env(self.cache))
            self.max_child_rss_kb = max(self.max_child_rss_kb, self.last_child_rss_kb)
            if code is None:
                return None, wall, "timeout"
            return (code, out, err), wall, None
        timeout = max(0.5, min(REQUEST_TIMEOUT_S, self.remaining()))
        signal.setitimer(signal.ITIMER_REAL, timeout)
        t0 = time.perf_counter()
        try:
            raw = req.call()
            wall = time.perf_counter() - t0
        except RequestTimeout:
            return None, time.perf_counter() - t0, "timeout"
        except Exception as exc:  # a library exception is a failed request
            return None, time.perf_counter() - t0, f"exception {exc!r}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return req.post(raw), wall, None

    def verify(self, req: workloads.Request, output, digests: bool = True) -> Optional[str]:
        """Immediate checks; slow ones are queued on self.deferred."""
        try:
            verdict = req.check(output)
        except Exception as exc:  # a malformed output must not stop the run
            return f"check raised {exc!r}"
        if isinstance(verdict, tuple):
            verdict, thunk = verdict
            if verdict is None:
                self.deferred.append((req.key, thunk))
        if verdict is None and digests and self.digests is not None:
            want = self.digests.get(req.key)
            got = hashlib.sha256(req.canon(output)).hexdigest()
            if want is not None and want != got:
                verdict = "output differs from the reference digest"
        return verdict

    def attempt(self, req, traced_spans=None) -> Tuple[float, Any, bool]:
        output, wall, error = self.execute(req, traced_spans)
        if error is None:
            error = self.verify(req, output)
            if error is not None:
                self.wrong += 1
        elif error != "timeout":
            self.wrong += 1
        if error is not None:
            self.failures.append((req.key, error))
        return wall, output, error is None

    def run_deferred(self) -> None:
        for key, thunk in self.deferred:
            if self.remaining() <= 1.0:
                self.failures.append((key, "not verified within the run budget"))
                continue
            signal.setitimer(signal.ITIMER_REAL, max(0.5, min(REQUEST_TIMEOUT_S, self.remaining())))
            try:
                error = thunk()
            except RequestTimeout:
                error = "verification timed out"
            except Exception as exc:
                error = f"verification raised {exc!r}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if error is not None:
                self.failures.append((key, error))
                self.wrong += 1
        self.deferred.clear()


# ---------------------------------------------------------------------------
# self-test: a deliberately wrong output must be caught
# ---------------------------------------------------------------------------


def mutants(workload: str, rounds) -> List[Tuple[workloads.Request, Any]]:
    reqs = rounds[0]
    out = []
    if workload == "cli-cold":
        req = next(r for r in reqs if r.kind == "pic-ko")
        rep = {"ring": "Z", "group": "Z/4"}
        out.append((req, (0, json.dumps(rep).encode(), b"")))
        req = next(r for r in reqs if r.kind == "ss-chart")
        out.append((req, (0, b"<svg></svg>", b"")))
    elif workload == "charp-windows":
        req = reqs[0]   # x + j x^2 on F_2[j], window 64: the kernel is zero
        out.append((req, (([((0, 1),)], True), ([0, 2, 4], 64))))   # bogus kernel vector
        out.append((req, (([], True), ([0, 4, 6], 64))))            # one cokernel degree dropped
    else:  # same order, other structure
        req = next(r for r in reqs if r.kind.startswith("resolve"))
        group = req.call()
        n = group.order()
        fake = type(group).from_orders([n] if len(group.invariant_factors) > 1 else [2, n // 2])
        out.append((req, fake))
        req = next(r for r in reqs if r.kind.startswith("snf"))
        U, D, V = req.call()
        D = [row[:] for row in D]
        D[0][0] += 1
        out.append((req, (U, D, V)))
    return out


def self_test(bench: Bench, rounds) -> bool:
    """True when every mutated output is reported as failed."""
    caught = []
    for req, wrong in mutants(bench.workload, rounds):
        saved = bench.deferred
        bench.deferred = []
        verdict = bench.verify(req, wrong, digests=False)
        if verdict is None:
            for _, thunk in bench.deferred:
                verdict = verdict or thunk()
        bench.deferred = saved
        caught.append(verdict is not None)
    return all(caught)


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


def tail(durations: List[float], pct: int) -> Tuple[float, int]:
    """Value at the workload's tail percentile, lowered until at least ten
    samples lie beyond it."""
    n = len(durations)
    while pct > 50 and n * (100 - pct) / 100 < 10:
        pct = {99: 95, 95: 90, 90: 75, 75: 50}[pct]
    if n < 2:
        return durations[0], pct
    return statistics.quantiles(durations, n=100, method="inclusive")[pct - 1], pct


def timed_run(bench: Bench, rounds, seconds: float) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    durations: List[float] = []
    starts: List[float] = []
    flat = [req for rnd in rounds for req in rnd]
    for req in flat[-WARMUP_REQUESTS:]:   # grow the heap; outputs unused
        bench.execute(req)
    # child processes (cli-cold) do not track the calibration loop
    calibrated = bench.workload != "cli-cold"
    cal: List[float] = []
    cal_times: List[float] = []
    measured = next_cal = 0.0
    while measured < seconds and bench.remaining() > REQUEST_TIMEOUT_S:
        if calibrated and measured >= next_cal:
            cal_times.append(time.perf_counter())
            calibration_loop()
            cal.append(time.perf_counter() - cal_times[-1])
            next_cal = measured + CAL_EVERY_S
        starts.append(time.perf_counter())
        wall, _, _ = bench.attempt(flat[len(durations) % len(flat)])
        durations.append(wall)
        measured += wall
    if calibrated:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scaled = [d / local_slowdown(cal, cal_times, t) for d, t in zip(durations, starts)]
    else:
        rss_mb = bench.max_child_rss_kb / 1024
        scaled = durations
    bench.run_deferred()
    attempted = len(durations)
    failed = len(bench.failures)
    value, pct = tail(scaled, TAIL_PCT[bench.workload])
    metrics = {
        "report_s.p50": (statistics.median(scaled), "s"),
        "report_s.tail": (value, "s"),
        "reports_per_s": ((attempted - failed) / sum(scaled), "1/s"),
        "success_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {"tail_percentile": pct, "samples": attempted, "rounds": attempted / len(rounds[0]),
             "calibrations": len(cal),
             "unscaled": {"report_s.p50": statistics.median(durations),
                          "report_s.tail": tail(durations, pct)[0],
                          "reports_per_s": (attempted - failed) / sum(durations)}}
    return metrics, notes


def local_slowdown(cal: List[float], cal_times: List[float], t: float) -> float:
    """Median of the CAL_NEAREST calibration samples taken around time t, over
    the nominal calibration time."""
    i = bisect.bisect(cal_times, t)
    lo = max(0, min(i - CAL_NEAREST // 2, len(cal) - CAL_NEAREST))
    return statistics.median(cal[lo:lo + CAL_NEAREST]) / CAL_REF_S


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def scaling_probes(bench: Bench, tracer: tracing.Tracer) -> Dict[str, float]:
    """Curve points: the median over PROBE_REPS of one traced call per size."""
    import random
    m = bench.modules
    charp, abelian = m["charp"], m["abelian"]
    rng = random.Random(f"probe:{bench.seed}")
    x2 = charp.parse_operator("x + j*x^2", 2)
    x3 = charp.parse_operator("x + 2*x^3", 3)

    def module(p, w, laurent=False):
        return charp.TruncatedCharPModule(p, (-w if laurent else 0, w), laurent=laurent)
    evens = lambda w: lambda r: r[0] == list(range(0, w + 1, 2))   # coker(x + j x^2) on F_2[j]
    probes = {}   # name -> (calls, check of one output or None)
    for w in (64, 128, 256):
        probes[f"charp.cokernel_s.p2.w{w}"] = (
            lambda w=w: charp.operator_cokernel_basis(x2, module(2, w)), evens(w))
    for w in (32, 64, 128):
        probes[f"charp.cokernel_s.p2laurent.w{w}"] = (
            lambda w=w: charp.operator_cokernel_basis(x2, module(2, w, True)), None)
    probes["charp.cokernel_s.p3.w128"] = (
        lambda: charp.operator_cokernel_basis(x3, module(3, 128)), None)
    probes["charp.kernel_s.p2.w256"] = (
        lambda: charp.operator_kernel(x2, module(2, 256)), lambda r: r[0] == [])
    for n in (10, 20, 30):
        mats = [[[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)] for _ in range(PROBE_REPS)]
        probes[f"abelian.snf_s.n{n}"] = (
            [lambda M=M: (M, abelian.smith_normal_form(M)) for M in mats],
            lambda r: oracle.snf_failure(r[0], *r[1]) is None)
    for k in (4, 5, 6, 7):
        sub, quot = abelian.FgAbGroup.cyclic(2 ** (k - 1)), abelian.FgAbGroup.cyclic(2)
        witness = abelian.ExtensionWitness(2 ** k, maps_to_generator_of_quotient=True)
        probes[f"abelian.resolve_s.o{2 ** k}"] = (
            lambda s=sub, q=quot, w=witness: abelian.resolve_extension(s, q, w),
            lambda g, k=k: g.invariant_factors == (2 ** k,) and g.free_rank == 0)
    out = {}
    for name, (fn, check) in probes.items():
        calls = fn if isinstance(fn, list) else [fn] * PROBE_REPS
        times = []
        for rep, call in enumerate(calls):
            if bench.remaining() < REQUEST_TIMEOUT_S:
                break
            tracer.request = f"probe:{name}:{rep}"
            signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
            try:
                result = call()
            except RequestTimeout:
                bench.failures.append((tracer.request, "probe timeout"))
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(tracing.top_level_duration(tracer.spans, tracer.request))
            if check is not None and not check(result):
                bench.failures.append((tracer.request, "wrong probe output"))
                bench.wrong += 1
        out[name] = tracing.median_or_zero(times)
    return out


def import_probes(bench: Bench) -> Dict[str, float]:
    """`import brauerkit.cli` with the filled bytecode cache and with a copy of
    it that lacks brauerkit's entries, plus the data-table load time."""
    nocache = bench.work / "pycache-nobrauerkit"
    shutil.rmtree(nocache, ignore_errors=True)
    shutil.copytree(bench.cache, nocache)
    shutil.rmtree(bench.package_cache(nocache), ignore_errors=True)
    results = {"warm": [], "cold": [], "load": []}
    for label, cache in (("warm", bench.cache), ("cold", nocache)):
        for i in range(IMPORT_PROBES):
            spans_path = bench.work / f"import-{label}-{i}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), "lbr-ko"]
            code, _, err, _ = bench.run_child(cmd, bench.child_env(cache))
            if code != 0:
                bench.failures.append((f"import-probe:{label}", f"exit {code}"))
                continue
            data = json.loads(spans_path.read_text())
            results[label].append(data["import_s"])
            if label == "warm":
                results["load"] += [s[tracing.END] - s[tracing.START] for s in data["spans"]
                                    if s[tracing.NAME] == "load" and s[tracing.LAYER] == "sheaftab"]
    return {"cli.import_s": tracing.median_or_zero(results["warm"]),
            "cli.import_nocache_s": tracing.median_or_zero(results["cold"]),
            "sheaftab.load_s": tracing.median_or_zero(results["load"])}


def traced_run(bench: Bench, rounds) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Each request runs untraced and then traced, back to back, so the
    machine's drift largely cancels out of trace.overhead_frac."""
    reqs = [req for rnd in rounds[:TRACE_ROUNDS[bench.workload]] for req in rnd]
    tracer = tracing.Tracer()
    output_bytes = 0
    untraced = traced = interp = import_time = 0.0
    for req in reqs:
        untraced += bench.attempt(req)[0]
        if bench.workload == "cli-cold":
            path = bench.work / f"spans-{req.key}.json"
            wall, output, _ = bench.attempt(req, traced_spans=path)
            traced += wall
            if output is None or not path.is_file():
                continue
            data = json.loads(path.read_text())
            interp += wall - data["script_s"]
            import_time += data["import_s"]
            offset = len(tracer.spans)
            for s in data["spans"]:
                s[tracing.PARENT] += offset if s[tracing.PARENT] >= 0 else 0
                s[tracing.REQUEST] = req.key
                tracer.spans.append(s)
            tracer.rule_matches += data["rule_matches"]
        else:
            tracer.request = req.key
            tracer.install()
            try:
                wall, output, _ = bench.attempt(req)
            finally:
                tracer.uninstall()
            traced += wall
            if req.kind != "cli.artin-schreier" or output is None:
                continue
        output_bytes += len(output[1])
    bench.run_deferred()
    spans, rule_matches = tracer.spans[:], tracer.rule_matches
    tracer.spans.clear()
    tracer.install()
    try:
        curves = scaling_probes(bench, tracer)
    finally:
        tracer.uninstall()
    spans_path = scratch_dir(bench.root) / f"spans-{bench.workload}-seed{bench.seed}.json"
    spans_path.write_text(json.dumps({"fields": ["name", "layer", "start", "end", "parent",
                                                 "request", "info", "excluded"],
                                      "workload": spans, "probes": tracer.spans}))
    metrics = tracing.layer_metrics(spans, rule_matches)
    accounted = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) + import_time + interp
    metrics.update(curves)
    metrics.update(import_probes(bench))
    metrics["cli.output_bytes"] = output_bytes
    metrics["trace.overhead_frac"] = traced / untraced - 1 if untraced else 0.0
    metrics["trace.report_s"] = traced
    metrics["trace.interp_start_s"] = interp
    metrics["trace.accounted_frac"] = accounted / traced if traced else 0.0
    notes = {"traced_requests": len(reqs), "untraced_report_s": untraced,
             "unattributed_s": traced - accounted, "spans_file": str(spans_path.relative_to(bench.root))}
    return {k: (v, unit_of(k)) for k, v in metrics.items()}, notes


def unit_of(name: str) -> str:
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "frac"
    if name.endswith("_digits"):
        return "digits"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def environment(bench: Bench) -> Dict[str, Any]:
    data = bench.src / "brauerkit" / "data"
    src_digest = hashlib.sha256()
    for path in sorted((bench.src / "brauerkit").glob("*.py")):
        src_digest.update(path.name.encode() + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "bytecode_cache": ("cli children read a cache filled during set-up (PYTHONPYCACHEPREFIX)"
                           if bench.workload == "cli-cold"
                           else "brauerkit compiled from source, stdlib from the installed cache"),
        "git_commit": commit,
        "source_sha256": src_digest.hexdigest()[:16],
        "data_files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:12]
                       for p in sorted(data.glob("*.json"))},
    }


def write_digests(root: Path) -> int:
    out = {}
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=scratch_dir(root)) as tmp:
            bench = Bench(root, workload, DEFAULT_SEED, Path(tmp))
            bench.digests = None
            bench.import_library()
            bench.fill_cache()
            rounds = make_rounds(bench)
            digests = {}
            for req in (r for rnd in rounds for r in rnd):
                _, output, good = bench.attempt(req)
                if good:
                    digests[req.key] = hashlib.sha256(req.canon(output)).hexdigest()
            bench.run_deferred()
            if bench.failures:
                print(f"{workload}: {bench.failures[:5]}", file=sys.stderr)
                return 1
            out[workload] = digests
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def scratch_dir(root: Path) -> Path:
    path = root / ".bench_build"
    path.mkdir(exist_ok=True)
    return path


def make_rounds(bench: Bench):
    return [workloads.build_round(bench.workload, bench.seed, i, str(bench.work), bench.modules)
            for i in range(workloads.PERIOD)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "brauerkit" / "cli.py").is_file():
        print("error: src/brauerkit not found; run from the repository root", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.write_digests:
        return write_digests(root)
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_dir(root)))
    try:
        bench = Bench(root, args.workload, args.seed, work)
        if args.trace:
            bench.fill_cache()
            bench.warm_traced_child()
        else:
            setup = bench.measure_setup(SETUP_REPS)
        bench.import_library()
        rounds = make_rounds(bench)
        selftest_ok = self_test(bench, rounds)
        if args.trace:
            metrics, notes = traced_run(bench, rounds)
            wanted = spec["per_layer"]
        else:
            metrics, notes = timed_run(bench, rounds, args.seconds)
            metrics["setup_s"] = (statistics.median(setup), "s")
            notes["setup_s"] = setup
            wanted = spec["end_to_end"]
        if sorted(metrics) != sorted(m["name"] for m in wanted) or \
                any(metrics[m["name"]][1] != m["unit"] for m in wanted):
            print("error: metric names or units differ from BENCHMARK.json: "
                  f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}", file=sys.stderr)
            return 1
        attempted = notes.get("samples") or 2 * notes["traced_requests"]
        notes.update({"workload": args.workload, "seed": args.seed, "self_test_caught_wrong_output":
                      selftest_ok, "failures": bench.failures[:20]})
        print(json.dumps({"env": environment(bench)}, ensure_ascii=False))
        print(json.dumps({"notes": notes}, ensure_ascii=False))
        print(json.dumps({
            "correct": bench.wrong == 0 and selftest_ok,
            "attempted": attempted,
            "failed": len([f for f in bench.failures if not f[0].startswith(("probe:", "import-"))]),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
