"""Run ``dwsplit.cli`` once with spans recorded around every module call.

Usage: python3 bench/traced_cli.py OUT.json TRACE_ID CLI-ARGS...

Behaves like ``python3 -m dwsplit.cli CLI-ARGS...`` (same stdout, same exit
code) and also writes the spans and per-layer counts of the process to
OUT.json.  The import of ``dwsplit.cli`` is timed before anything else is
imported, so modules it shares with the tracer are not preloaded.
"""

import sys
import time

start = time.perf_counter_ns()
import dwsplit.cli  # noqa: E402
import_ns = time.perf_counter_ns() - start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    out_path, trace_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.trace_id = trace_id
    undo = tracing.install(tracer)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = dwsplit.cli.main(argv)
    finally:
        undo()
    text = buf.getvalue()
    tracer.stats["cli.import_ns"] = import_ns
    tracer.stats["cli.output_bytes"] = len(text.encode())
    with open(out_path, "w") as fh:
        json.dump({"stats": tracer.stats, "spans": tracer.spans}, fh)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
