"""One workload pass in a fresh interpreter, with cold memo tables.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/one_pass.py --workload NAME --seed N [--trace PREFIX]
        [--pass-id K] [--tiny]

Prints one JSON object: wall and CPU time of the pass (CPU counts reaped
pool workers), peak RSS of this process and of its largest child, and the
items attempted and failed.  Untraced, the times are normalised to a nominal
machine speed by the interleaved reference of ``metronome.py`` (``wall_s``,
``cpu_s``); ``raw_wall_s`` and ``raw_cpu_s`` are this machine's seconds with
the reference's own slices taken out.  With ``--trace`` the layers are
traced, the spans written to ``PREFIX.spans`` / ``PREFIX.json`` after the
pass, and only the raw times are given.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from metronome import Metronome  # noqa: E402


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--pass-id", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    size = workloads.TINY if args.tiny else workloads.FULL
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.pass_id)
        tracer.install()
    # The traced pass is only read for its spans and counts; the untraced
    # one is sampled against the machine-speed reference.
    metronome = None
    if tracer is None:
        metronome = Metronome()
        metronome.follow_forks(Path(".bench_out") / f"slices-{os.getpid()}")
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if metronome is not None:
        metronome.start()
    try:
        attempted, failed, notes = workloads.run_pass(args.workload, args.seed, size)
    finally:
        if metronome is not None:
            metronome.stop()
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = _cpu(self1) - _cpu(self0) + _cpu(kids)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(args.trace))
        times = {"raw_wall_s": wall, "raw_cpu_s": cpu}
    else:
        times = metronome.normalise(wall, cpu)
    print(
        json.dumps(
            {
                **times,
                # ru_maxrss is in KiB on Linux.
                "peak_rss_mb": max(self1.ru_maxrss, kids.ru_maxrss) / 1024,
                "attempted": attempted,
                "failed": failed,
                "notes": notes[:20],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
