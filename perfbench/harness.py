"""One ``arest`` command in a child process, timed from the inside.

Usage::

    python3 perfbench/harness.py --meta META.json --mark MODULE:ATTR \\
        [--mark ...] [--report REPORT.json] [--trace TRACE.json] \\
        -- <arest arguments>

The benchmark starts this script (with ``src`` on ``PYTHONPATH``) once
per command it measures.  ``--mark`` names the call that begins the
command's work: its first call is the end of set-up.  META.json gets
that instant and the instant the command returned, both on the
system-wide monotonic clock, plus the exit code.  ``--report`` writes
the first marked call's return value (``as_dict()``) for the output
checks.  ``--trace`` wraps every layer entry point (see ``layers``) and
writes the recorder's totals.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import layers


def _first_call(state: dict, fn):
    @functools.wraps(fn)
    def marked(*args, **kwargs):
        if state["first_work"] is None:
            state["first_work"] = time.monotonic()
            result = fn(*args, **kwargs)
            state["result"] = result
            return result
        return fn(*args, **kwargs)

    return marked


def main() -> int:
    parser = argparse.ArgumentParser(prog="harness")
    parser.add_argument("--meta", required=True)
    parser.add_argument("--mark", action="append", required=True)
    parser.add_argument("--report")
    parser.add_argument("--trace")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    recorder = None
    missing: list[str] = []
    if opts.trace:
        recorder = layers.Recorder()
        missing = layers.install(recorder)
    state: dict = {"first_work": None, "result": None}
    marked = [
        target
        for target in opts.mark
        if layers.patch(target, functools.partial(_first_call, state))
    ]
    if not marked:
        print(f"harness: no work entry point among {opts.mark}",
              file=sys.stderr)
        return 2

    from repro.cli import main as arest

    code = arest(argv)
    end = time.monotonic()
    with open(opts.meta, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "first_work": state["first_work"],
                "end": end,
                "exit_code": code,
                "missing_entry_points": missing,
            },
            fh,
        )
    if opts.report and state["result"] is not None:
        with open(opts.report, "w", encoding="utf-8") as fh:
            json.dump(state["result"].as_dict(), fh, indent=2)
    if recorder is not None:
        with open(opts.trace, "w", encoding="utf-8") as fh:
            json.dump(recorder.as_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
