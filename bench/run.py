"""End-to-end and per-layer benchmark of the FOCAL reproduction.

Run from the repository root::

    python bench/run.py                         # all four workloads
    python bench/run.py --workload sweep_stock --seed 3
    python bench/run.py --workload cli --trace  # per-layer metrics + spans

Each workload runs in fresh processes: several that only set up (their
median is ``setup_s``), one that computes the oracles, and one that
times the operations. Every metric is printed by name with its unit;
the last line of output is one JSON object per workload with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the
whole invocation goes to ``out/bench/<stamp>.json``; traced runs also
write their spans to ``out/bench/trace-<workload>.json``. See
``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from workloads import (
    CLASSES,
    ROOT,
    SRC,
    WORKLOADS,
    child_env,
    cli_percentiles,
    run_rounds,
    summarize,
)

OUT = ROOT / "out" / "bench"
RUN_PY = Path(__file__).resolve()

#: Seconds one run measures when ``--seconds`` is not given.
DEFAULT_SECONDS = 20
#: Fresh processes timed for ``setup_s`` (after one untimed warm-up
#: that fills the bytecode and page caches).
SETUP_REPS = 5
#: Wall-clock cap for one workload, set-up and oracles included.
WORKLOAD_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _run_child(command: list[str], env: dict, deadline: float) -> str:
    """Run one benchmark phase in its own process group and return its
    stdout; past *deadline* (``time.monotonic``) the whole group (pool
    workers, CLI calls) is killed and reaped."""
    label = f"{command[command.index('--workload') + 1]} {command[-1]} phase"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {label}")
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{label} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{label} exited {proc.returncode}")
    return stdout


def _clock() -> float:
    """A clock every process on the host shares (``CLOCK_MONOTONIC``),
    so a child can time itself from the moment its parent started it."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure(name: str, args: argparse.Namespace) -> dict:
    """Run one workload in fresh processes; its result record."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    workdir = OUT / f"work-{os.getpid()}-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env(workdir)
    phase = [
        sys.executable,
        str(RUN_PY),
        "--workload",
        name,
        "--seed",
        str(args.seed),
        "--scale",
        str(args.scale),
        "--workdir",
        str(workdir),
    ]
    try:
        setup = []
        if not args.trace:
            reps = SETUP_REPS if args.scale >= 1 else 2
            for _ in range(reps + 1):
                started = ["--started", repr(_clock()), "--phase", "setup"]
                setup.append(float(_run_child(phase + started, env, deadline)))
            setup = setup[1:]
        _run_child(phase + ["--phase", "oracle"], env, deadline)
        timing = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        stdout = _run_child(phase + timing + ["--phase", "run"], env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(stdout.strip().splitlines()[-1])
    if setup:
        result["metrics"] = {"setup_s": statistics.median(setup), **result["metrics"]}
        result["setup_samples"] = setup
    result["correct"] = result["failed"] == 0 and all(result["checks"].values())
    return result


# ----------------------------------------------------------------------
# Phases (run in child processes)
# ----------------------------------------------------------------------
def _workload(args: argparse.Namespace):
    return CLASSES[args.workload](args.seed, args.scale, Path(args.workdir))


def phase_setup(args: argparse.Namespace) -> None:
    workload = _workload(args)
    print(_clock() - args.started, flush=True)
    workload.close()


def phase_oracle(args: argparse.Namespace) -> None:
    workload = _workload(args)
    try:
        reference = workload.compute_oracle()
    finally:
        workload.close()
    (Path(args.workdir) / "oracle.json").write_text(json.dumps(reference))


def phase_run(args: argparse.Namespace) -> None:
    workload = _workload(args)
    workload.ref = json.loads((Path(args.workdir) / "oracle.json").read_text())
    try:
        if args.trace:
            out = _traced(workload, args)
        else:
            rounds = run_rounds(workload, args.seconds)
            metrics, named = summarize(rounds)
            if workload.name == "cli":
                named.update(cli_percentiles(rounds))
            # cli's operations run in child processes; every other
            # workload's run in this one.
            who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
            metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
            out = {
                "attempted": rounds.attempted,
                "failed": rounds.failed,
                "checks": workload.ref["checks"],
                "metrics": metrics,
                "named": named,
                "timeline": [dataclasses.astuple(op) for op in rounds.ops],
                "calibrations": rounds.calibrations,
                "rounds": len(rounds.round_totals()),
            }
    finally:
        workload.close()
    print(json.dumps(out))


def _traced(workload, args: argparse.Namespace) -> dict:
    """The traced run: rounds alternate untraced and traced (every
    layer's public entry points wrapped in spans) for the tracing
    overhead, then the layer probe measures every per-layer metric.
    Both sets of spans go to ``out/bench/trace-<workload>.json``."""
    from layers import SpanRecorder, instrument, probe_layers

    traced_rounds, probe = SpanRecorder(), SpanRecorder()
    restore = []

    def before(index: int) -> None:
        if index % 2:
            restore.append(instrument(traced_rounds))

    def after(index: int) -> None:
        while restore:
            restore.pop()()

    def around(index: int, kind: str):
        return traced_rounds.span(f"op.{kind}") if index % 2 else nullcontext()

    rounds = run_rounds(
        workload,
        args.seconds,
        min_rounds=4,
        before_round=before,
        after_round=after,
        around_op=around,
    )
    metrics, checks = probe_layers(args.seed, args.scale, Path(args.workdir), probe)
    untraced, traced = (rounds.round_totals(parity=p) for p in (0, 1))
    metrics["obs.trace_overhead_pct"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    ) * 100
    document = {
        "workload": workload.name,
        "seed": args.seed,
        "rounds": traced_rounds.export(),
        "probe": probe.export(),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"trace-{workload.name}.json").write_text(json.dumps(document) + "\n")
    return {
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "checks": {**workload.ref["checks"], **checks},
        "metrics": metrics,
        "named": traced_rounds.self_time_by_name(),
        "rounds": len(rounds.round_totals()),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def declared_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for this
    kind of run; a run must measure exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def host_signature() -> dict:
    """The machine the numbers were measured on (``node_roster`` minus
    the host name)."""
    from repro.obs.manifest import node_roster

    roster = node_roster()
    roster.pop("hostname", None)
    return roster


def report(name: str, result: dict, trace: bool) -> dict:
    """Print one workload's metrics; return its result line (``correct``,
    ``attempted``, ``failed``, ``metrics``)."""
    unit_of = declared_units(trace)
    if set(result["metrics"]) != set(unit_of):
        raise BenchError(
            f"{name} measured {sorted(result['metrics'])}, BENCHMARK.json "
            f"declares {sorted(unit_of)}"
        )
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(
        f"== {name}: {result['rounds']} clean rounds, {result['attempted']} ops, "
        f"{result['failed']} failed, {verdict}"
    )
    failed_checks = [k for k, ok in result["checks"].items() if not ok]
    if failed_checks:
        print(f"   failed oracle checks: {', '.join(failed_checks)}")
    metrics = {}
    for metric, unit in unit_of.items():
        value = result["metrics"][metric]
        metrics[metric] = {"value": value, "unit": unit}
        print(f"   {metric:34s} {value:14.6g} {unit}")
    if trace:
        print("   self time of the traced rounds, by span:")
        for span, seconds in list(result["named"].items())[:10]:
            print(f"   {'(' + span + ')':34s} {seconds:14.6g} s")
    else:
        for metric, value in result["named"].items():
            unit = "ms" if metric.endswith("_ms") else "s"
            print(f"   {'(' + metric + ')':34s} {value:14.6g} {unit}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=DEFAULT_SECONDS,
        help="how long each workload measures (default %(default)s)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="report per-layer metrics instead of end-to-end ones",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink every input by this factor (smoke tests only)",
    )
    parser.add_argument("--phase", choices=("setup", "oracle", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 < args.scale <= 1:
        parser.error("--scale must be in (0, 1]")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.phase:
        {"setup": phase_setup, "oracle": phase_oracle, "run": phase_run}[
            args.phase
        ](args)
        return 0
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = {name: measure(name, args) for name in names}
        lines = [report(name, results[name], bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    record = {
        "stamp": stamp,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "host": host_signature(),
        "workloads": results,
    }
    path = OUT / f"{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
