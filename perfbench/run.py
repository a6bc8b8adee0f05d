"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lr_online --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root (the program is imported from ``src/``).
Workloads are ``lr_online``, ``bert_batch`` and ``cv_fit`` (see
``workloads.py`` and ``README.md``); ``all`` runs each in a fresh child
process, one after another.

``--trace 0`` measures the end-to-end metrics with tracing off.  Set-up
is timed in three fresh processes (two children plus this one), import
included, and reported as the median.  ``--trace 1`` is a separate
traced run: it alternates untraced and traced windows, prints a
per-layer self-time table, writes the spans to
``.perfbench_out/spans-<workload>-<seed>.jsonl`` and reports the
per-layer metrics.

Every run checks the program's outputs (online answers against an
in-process oracle, ``cv_fit`` accuracies against the paper protocol's
exact values).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1
when an output was wrong and 2 when the program cannot be imported.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up is timed from before any import

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import measure  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lr_online", "bert_batch", "cv_fit")
#: Set-ups per run, each in a fresh process; ``setup_s`` is their median.
SETUPS = 3
CHILD_TIMEOUT_S = 175


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # One timed set-up in this process, for a parent's median.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_workloads():
    """The workloads module, or exit 2 if the program is not importable."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as error:
        where = ROOT / "src"
        print(f"cannot import the program from {where}: {error}", file=sys.stderr)
        raise SystemExit(2) from None
    return workloads


def child(args: argparse.Namespace, *extra: str, timeout: float, ok=(0,)) -> str:
    """Run this script for ``args.workload`` in a fresh interpreter."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload]
    command += ["--seed", str(args.seed), *extra]
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode not in ok:
        raise SystemExit(f"{command} failed ({proc.returncode}):\n{proc.stderr}")
    return proc.stdout


def report(args: argparse.Namespace, outcome, wl) -> int:
    names = wl.PER_LAYER if args.trace else wl.END_TO_END
    print(f"== {args.workload}  seed {args.seed}  {args.seconds:g} s", end="")
    print(f"  trace {args.trace}")
    print(f"{'metric':<40}{'value':>14}  {'unit':<7}{'n':>7}  note")
    shown = [*names, *(n for n in outcome.metrics if n not in names)]
    for name in shown:
        metric = outcome.metrics[name]
        if name in names and metric.unit != names[name][0]:
            raise ValueError(f"{name} is in {metric.unit}, not {names[name][0]}")
        print(
            f"{name:<40}{metric.value:>14.4f}  {metric.unit:<7}"
            f"{metric.samples:>7}  {metric.note}"
        )
    for line in outcome.lines:
        print(line)
    for problem in outcome.problems:
        print(f"WRONG OUTPUT: {problem}")
    result = measure.result_line(
        correct=not outcome.problems,
        attempted=outcome.attempted,
        failed=outcome.failed,
        metrics={n: (outcome.metrics[n].value, outcome.metrics[n].unit) for n in names},
    )
    print(result, flush=True)
    return 1 if outcome.problems else 0


def run_one(args: argparse.Namespace) -> int:
    wl = import_workloads()
    import_s = time.perf_counter() - _STARTED
    work_dir = ROOT / ".perfbench_out"
    work_dir.mkdir(exist_ok=True)
    workload = wl.WORKLOADS[args.workload](args.seed, work_dir)

    if args.setup_only:
        started = time.perf_counter()
        workload.setup()
        setup_s = import_s + time.perf_counter() - started
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        tracer = wl.Tracer()
        tracer.install()
        try:
            workload.setup()
        finally:
            tracer.uninstall()
        try:
            workload.prepare()
            outcome = workload.measure_traced(args.seconds, tracer, len(tracer.spans))
        finally:
            workload.close()
        tracer.dump(work_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        return report(args, outcome, wl)

    setups = []
    for _ in range(SETUPS - 1):
        out = child(args, "--setup-only", timeout=CHILD_TIMEOUT_S)
        setups.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    started = time.perf_counter()
    workload.setup()
    setups.append(import_s + time.perf_counter() - started)
    try:
        workload.prepare()
        outcome = workload.measure(args.seconds)
    finally:
        workload.close()
    outcome.metrics["setup_s"] = wl.Metric(
        measure.median(setups),
        "s",
        len(setups),
        "median of fresh-process set-ups, import included",
    )
    outcome.metrics["peak_rss_mb"] = wl.Metric(wl.peak_rss_mb(), "MB", 1, "ru_maxrss")
    return report(args, outcome, wl)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh child process, so set-up and RSS are its own."""
    results = {}
    for name in WORKLOADS:
        args.workload = name
        out = child(
            args,
            *("--seconds", str(args.seconds), "--trace", str(args.trace)),
            timeout=3 * CHILD_TIMEOUT_S,
            ok=(0, 1),  # 1: ran, but an output was wrong
        )
        sys.stdout.write(out)
        results[name] = json.loads(out.strip().splitlines()[-1])
    print(json.dumps(results), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
