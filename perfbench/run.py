"""The benchmark of the exact engine: one command, four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: relations, relations-jobs2, characters, contours (see
perfbench/README.md for what each runs and why).

With ``--trace 0`` the run first times ``import ypa.cli`` in several fresh
interpreters (``setup_s``, their median), then runs untraced passes of the
workload, each in its own interpreter with cold memo tables, until the next
pass would end after ``--seconds``; it reports the median pass.  All three
times are normalised to a nominal machine speed by the reference slices of
``metronome.py``, run interleaved with each pass and right after each
import; the raw seconds are printed in the run's detail line.  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer figures of the traced one and ``trace.overhead_ratio``.

Every pass checks its own results (see workloads.py).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; any failed item makes the exit code 1.  Outside a checkout of
the engine (no ``src/ypa``) the run exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("relations", "relations-jobs2", "characters", "contours")
SEEDED = ("contours",)
SETUP_PROBES_FIRST = 5
SETUP_PROBES_PER_PASS = 1
HARD_LIMIT_S = 170.0
# The import is timed first, so the reference's own imports (fractions,
# statistics, ...) are not loaded ahead of it.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import ypa.cli; "
    "dt = time.perf_counter() - t; sys.path.insert(0, {here!r}); "
    "import metronome; print(dt, metronome.normalise_seconds(dt))"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A pass could not be run or did not report."""


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_ratio") or metric.endswith(".utilization"):
        return "ratio"
    return "s"


def machine_facts(root: Path) -> dict:
    commit = "unknown: not a git checkout"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": commit,
        "loadavg_before": list(os.getloadavg()),
        "note": f"jobs above nproc = {nproc} measure scheduling, not speed-up",
    }


class Runner:
    """Runs child interpreters under the run's deadline."""

    def __init__(self, root: Path):
        self.root = root
        self.started = time.monotonic()
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def child(self, argv: list[str]) -> str:
        """Run argv to completion; its whole process group dies on timeout."""
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("out of time before starting a child")
        proc = subprocess.Popen(
            argv,
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"child timed out: {argv}")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}: {argv}\n{err[-2000:]}")
        return out

    def setup_time(self) -> tuple[float, float]:
        """Time to ``import ypa.cli`` in a fresh interpreter: (raw, normalised).

        The clock runs inside the child, around the import alone, so the
        figure is the engine's own start-up, not the interpreter's.  The
        normalised figure scales it by reference slices run right after.
        """
        out = self.child([sys.executable, "-c", IMPORT_PROBE.format(here=str(HERE))])
        raw, normalised = out.split()
        return float(raw), float(normalised)

    def one_pass(self, workload: str, seed: int, pass_id: int, trace=None, tiny=False) -> dict:
        argv = [
            sys.executable,
            str(HERE / "one_pass.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--pass-id",
            str(pass_id),
        ]
        if trace is not None:
            argv += ["--trace", str(trace)]
        if tiny:
            argv.append("--tiny")
        out = self.child(argv)
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise BenchError(f"pass printed no result: {out[-500:]!r}") from exc


def measure(runner: Runner, args) -> tuple[list[dict], dict]:
    """Untraced passes until the next one would overrun --seconds.

    At least one pass is run.  The set-up probes are spread over the run,
    a few before the first pass and one after each pass, so their median
    samples the same machine state as the passes.  The first probe writes
    the bytecode caches and is not counted.
    """
    runner.setup_time()
    setup = [runner.setup_time() for _ in range(SETUP_PROBES_FIRST)]
    passes: list[dict] = []
    durations: list[float] = []
    t0 = time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(runner.one_pass(args.workload, args.seed, len(passes), tiny=args.tiny))
        durations.append(time.monotonic() - t)
        setup += [runner.setup_time() for _ in range(SETUP_PROBES_PER_PASS)]
        elapsed = time.monotonic() - t0
        if elapsed + statistics.median(durations) > args.seconds:
            break
        if runner.remaining() < 2 * max(durations):
            break
    metrics = {
        "setup_s": statistics.median(n for _, n in setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    detail = {
        "passes": len(passes),
        "setup_s_all": [n for _, n in setup],
        "raw_setup_s_all": [r for r, _ in setup],
        "wall_s_all": [p["wall_s"] for p in passes],
        "raw_wall_s_all": [p["raw_wall_s"] for p in passes],
        "typical_slice_cpu_s_all": [p["typical_slice_cpu_s"] for p in passes],
        "slices_all": [p["slices"] for p in passes],
        "fork_slices_all": [p["fork_slices"] for p in passes],
    }
    return passes, {"metrics": metrics, "detail": detail}


def trace(runner: Runner, args) -> tuple[list[dict], dict]:
    """One untraced and one traced pass; per-layer figures of the latter."""
    sys.path.insert(0, str(HERE))
    from tracer import summarize

    out_dir = runner.root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    prefix = out_dir / f"trace-{args.workload}-seed{args.seed}"
    plain = runner.one_pass(args.workload, args.seed, 0, tiny=args.tiny)
    traced = runner.one_pass(args.workload, args.seed, 1, trace=prefix, tiny=args.tiny)
    metrics = summarize(prefix)
    metrics["trace.overhead_ratio"] = traced["raw_wall_s"] / plain["raw_wall_s"]
    detail = {
        "untraced_wall_s": plain["raw_wall_s"],
        "traced_wall_s": traced["raw_wall_s"],
        "spans": str(prefix) + ".spans",
        "limitation": (
            "jobs > 1: only parent-side spans and the pool's rusage are visible"
            if args.workload == "relations-jobs2"
            else None
        ),
    }
    return [plain, traced], {"metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test only: the tiny sizes.
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ypa" / "__init__.py").is_file():
        print("perfbench: run from the root of a ypa checkout (no src/ypa here)", file=sys.stderr)
        return 2
    facts = machine_facts(root)
    runner = Runner(root)
    try:
        if args.trace:
            passes, result = trace(runner, args)
        else:
            passes, result = measure(runner, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    facts["loadavg_after"] = list(os.getloadavg())
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    notes = sorted({n for p in passes for n in p["notes"]})
    seed_note = "seed used" if args.workload in SEEDED else "seed ignored: fixed exhaustive set"
    print(json.dumps({"machine": facts, "workload": args.workload, "seed_note": seed_note}))
    print(json.dumps({"detail": result["detail"], "notes": notes}))
    for name, value in sorted(result["metrics"].items()):
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(f"fail_ratio = {failed / attempted if attempted else 1.0:.6g} ({failed}/{attempted} items)")
    metrics = {
        name: {"value": value, "unit": unit_of(name)}
        for name, value in result["metrics"].items()
    }
    correct = attempted > 0 and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
