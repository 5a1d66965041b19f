"""Traced child process for one CLI report.

Times `import brauerkit.cli`, runs `cli.main(argv)` with every layer wrapped
in spans, and writes the spans as JSON.  The parent takes interpreter start
as the process wall time minus `script_s`.

Usage (PYTHONPATH must reach src/):
    python bench/cli_child.py <spans.json> <verb> [args ...]
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t = time.perf_counter()
    import brauerkit.cli as cli
    import_s = time.perf_counter() - t
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    tracer.request = "child"
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    script_s = time.perf_counter() - T0
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "script_s": script_s, "spans": tracer.spans,
                   "rule_matches": tracer.rule_matches}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
