#!/usr/bin/env python3
"""Layered end-to-end benchmark of the AReST reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scale-deep --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures with tracing off: it repeats the workload's pass
(at least twice) until ``--seconds`` have gone by, checks every pass's
outputs, and prints the end-to-end metrics.  ``--trace 1`` runs a
traced pass between two untraced ones (plus, for ``scale-deep``, a
traced pooled pass with program telemetry) and prints the per-layer
metrics.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from workloads import WORKLOADS, Check, Command, Workload, tree_bytes

ROOT = Path(__file__).resolve().parent.parent
#: every child must end before this many seconds from our start
_BUDGET_S = 170.0
_STARTED = time.monotonic()

END_TO_END_UNITS = {
    "traces_per_s": "1/s",
    "cpu_s_per_ktrace": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "disk_bytes": "bytes",
}


@dataclass
class CommandRun:
    setup_s: float
    work_s: float
    cpu_s: float
    rss_mib: float
    exit_code: int
    trace: dict | None = None


@dataclass
class Pass:
    check: Check
    runs: list[CommandRun] = field(default_factory=list)
    disk_bytes: int = 0
    spill_bytes: int = 0
    checkpoint_bytes: int = 0

    @property
    def work_s(self) -> float:
        return sum(run.work_s for run in self.runs)


class Timeout(RuntimeError):
    pass


def _reap(proc: subprocess.Popen) -> tuple[int, object]:
    """Wait for ``proc`` (killing its process group past the budget)."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() - _STARTED > _BUDGET_S:
                os.killpg(proc.pid, signal.SIGKILL)
                _, status, _ = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                raise Timeout(f"command still running after {_BUDGET_S:.0f} s")
            time.sleep(0.05)
    finally:
        # forked workers share the child's process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run_command(
    command: Command, out: Path, meta: Path, index: int, env: dict,
    traced: bool,
) -> CommandRun:
    files = {
        kind: meta / f"{index}.{kind}.json"
        for kind in ("meta", "report", "trace")
    }
    argv = [sys.executable, str(ROOT / "perfbench" / "harness.py"),
            "--meta", str(files["meta"])]
    for mark in command.marks:
        argv += ["--mark", mark]
    if command.report:
        argv += ["--report", str(files["report"])]
    if traced:
        argv += ["--trace", str(files["trace"])]
    argv += ["--", *command.argv]
    with (out / command.stdout).open("wb") as stdout, \
            (meta / f"{index}.stderr").open("wb") as stderr:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            argv, stdout=stdout, stderr=stderr, cwd=ROOT, env=env,
            start_new_session=True,
        )
        code, usage = _reap(proc)
    cpu_s = usage.ru_utime + usage.ru_stime
    rss_mib = usage.ru_maxrss / 1024.0
    if code != 0 or not files["meta"].is_file():
        tail = (meta / f"{index}.stderr").read_text(errors="replace")[-2000:]
        print(f"command failed (exit {code}): {' '.join(command.argv)}\n{tail}",
              file=sys.stderr)
        return CommandRun(0.0, 0.0, cpu_s, rss_mib, code or 1)
    timing = json.loads(files["meta"].read_text())
    for target in timing["missing_entry_points"]:
        print(f"entry point no longer in the program: {target}")
    trace = json.loads(files["trace"].read_text()) if traced else None
    first = timing["first_work"] if timing["first_work"] else spawned
    return CommandRun(
        setup_s=first - spawned,
        work_s=timing["end"] - first,
        cpu_s=cpu_s,
        rss_mib=rss_mib,
        exit_code=timing["exit_code"],
        trace=trace,
    )


def run_pass(
    workload: Workload, index: int, jobs: int, traced: bool = False,
    telemetry: Path | None = None,
) -> Pass:
    out = workload.work / "out"
    meta = workload.work / "meta" / str(index)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    meta.mkdir(parents=True)
    runs = [
        run_command(command, out, meta, i, workload.env, traced)
        for i, command in enumerate(workload.commands(out, jobs, telemetry))
    ]
    check = workload.check(out, meta)
    if any(run.exit_code != 0 for run in runs):
        check.fail("a command exited non-zero")
    spills = out / "spills"
    checkpoint = out / "checkpoint.jsonl"
    return Pass(
        check=check,
        runs=runs,
        disk_bytes=tree_bytes(out),
        spill_bytes=tree_bytes(spills) if spills.is_dir() else 0,
        checkpoint_bytes=tree_bytes(checkpoint) if checkpoint.is_file() else 0,
    )


def compare_digests(passes: list[Pass]) -> None:
    """Outputs of one seed must be byte-identical across passes."""
    first = passes[0].check.digests
    for other in passes[1:]:
        for name, digest in other.check.digests.items():
            if first.get(name) != digest:
                other.check.fail(f"{name} differs from the first pass")


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    shown = f"{value:.6g}" if value != int(value) else str(int(value))
    print(f"  {name:<30} {shown:>14} {unit:<6} {note}".rstrip())


def timed_run(workload: Workload, seconds: int) -> tuple[list[Pass], dict]:
    passes: list[Pass] = []
    start = time.monotonic()
    while len(passes) < 2 or time.monotonic() - start < seconds:
        done = run_pass(workload, len(passes), workload.jobs)
        passes.append(done)
        print(f"  pass {len(passes)}: {done.check.traces} traces in "
              f"{done.work_s:.3f} s of work")
    compare_digests(passes)
    ok = [p for p in passes if not p.check.problems]
    values = {
        "traces_per_s": [p.check.traces / p.work_s for p in ok],
        "cpu_s_per_ktrace": [
            sum(r.cpu_s for r in p.runs) / (p.check.traces / 1000.0) for p in ok
        ],
        "setup_s": [r.setup_s for p in ok for r in p.runs],
        "peak_rss_mib": [max(r.rss_mib for r in p.runs) for p in ok],
        "disk_bytes": [p.disk_bytes for p in ok],
    }
    metrics = {
        name: {
            "value": statistics.median(samples) if samples else 0.0,
            "unit": END_TO_END_UNITS[name],
        }
        for name, samples in values.items()
    }
    print("input " + json.dumps(workload.identity, sort_keys=True))
    print(f"{workload.name}: {len(passes)} passes, tracing off")
    for name, metric in metrics.items():
        _print_metric(name, metric["value"], metric["unit"],
                      f"median of {len(values[name])}")
    return passes, metrics


def _merge_traces(runs: list[CommandRun]) -> dict:
    merged: dict = {"self_s": {}, "calls": {}, "samples": {}, "counts": {}}
    for run in runs:
        for table in ("self_s", "calls", "counts"):
            for key, value in run.trace[table].items():
                merged[table][key] = merged[table].get(key, 0) + value
        for key, value in run.trace["samples"].items():
            merged["samples"].setdefault(key, []).extend(value)
    return merged


def _telemetry_stage_seconds(directory: Path, env: dict) -> dict[str, float]:
    """``arest telemetry --json`` stage seconds, summed over scopes."""
    shown = subprocess.run(
        [sys.executable, "-m", "repro.cli", "telemetry", str(directory),
         "--json"],
        env=env, cwd=ROOT, capture_output=True, check=True, timeout=60,
    )
    totals: dict[str, float] = {}
    for stages in json.loads(shown.stdout)["stage_seconds"].values():
        for stage, seconds in stages.items():
            totals[stage] = totals.get(stage, 0.0) + seconds
    return totals


def traced_run(workload: Workload) -> tuple[list[Pass], dict]:
    jobs = 1
    # untraced passes on both sides of the traced one, so a drift in
    # machine speed shifts both sides of the overhead ratio alike
    before = run_pass(workload, 0, jobs)
    traced = run_pass(workload, 1, jobs, traced=True)
    after = run_pass(workload, 2, jobs)
    passes = [before, traced, after]
    executor = traced
    telemetry = None
    if workload.jobs != jobs:
        # The pooled workers are forked with the wrappers but their
        # spans stay in the workers, so the layers come from the
        # in-process pass and only the supervisor's executor metrics
        # from this pooled one.
        telemetry = workload.work / "telemetry"
        executor = run_pass(workload, 3, workload.jobs, traced=True,
                            telemetry=telemetry)
        passes.append(executor)
    compare_digests(passes)
    if any(p.check.problems for p in passes):
        return passes, {}
    trace = _merge_traces(traced.runs)
    metrics = layers.layer_metrics(
        trace,
        _merge_traces(executor.runs),
        traced_wall_s=traced.work_s,
        untraced_wall_s=(before.work_s + after.work_s) / 2,
        spill_bytes=traced.spill_bytes,
        checkpoint_bytes=traced.checkpoint_bytes,
    )
    attributed = traced.work_s - metrics["obs.unattributed_s"]["value"]
    print("input " + json.dumps(workload.identity, sort_keys=True))
    print(f"{workload.name}: traced pass at --jobs {jobs} (layers in "
          f"process), work window {traced.work_s:.3f} s; named layers "
          f"cover {attributed / traced.work_s:.1%}")
    if executor is not traced:
        print(f"  executor metrics from the traced --jobs {workload.jobs} "
              f"pass (supervisor side only)")
    samples = trace["samples"].get("probing.trace", [])
    for name, metric in metrics.items():
        note = ""
        if name == "probing.trace_p99_us" and samples:
            used, _ = layers.tail_percentile(samples, 99)
            note = f"p{used:g} of {len(samples)} spans"
        _print_metric(name, metric["value"], metric["unit"], note)
    if telemetry is not None:
        stages = _telemetry_stage_seconds(telemetry, workload.env)
        print(f"  program telemetry (--jobs {workload.jobs}) stage seconds "
              f"beside benchmark layer self seconds (--jobs {jobs}):")
        for stage, seconds in sorted(stages.items()):
            print(f"    telemetry {stage:<14} {seconds:10.3f} s")
        for span, seconds in sorted(trace["self_s"].items()):
            print(f"    benchmark {span:<26} {seconds:10.3f} s")
        print(f"    benchmark unattributed{'':<15} "
              f"{metrics['obs.unattributed_s']['value']:10.3f} s")
    return passes, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work, env)
    try:
        work.mkdir(parents=True)
        workload.prepare()
        if args.trace:
            passes, metrics = traced_run(workload)
        else:
            passes, metrics = timed_run(workload, args.seconds)
    except Timeout as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = sum(p.check.units for p in passes)
    failed = sum(p.check.failed_units for p in passes)
    problems = [problem for p in passes for problem in p.check.problems]
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    _print_metric("failed_share", failed / attempted, "ratio",
                  f"{failed} of {attempted} units")
    correct = not problems and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
