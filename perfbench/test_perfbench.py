"""Self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metronome  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, seed: int = 3) -> tuple[int, dict]:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.stdout.strip(), f"no result; stderr:\n{proc.stderr[-3000:]}"
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    code, result = run_bench(workload, trace=0)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(range(1000))


def test_the_metronome_takes_its_slices_out_and_scales_by_their_cpu_time():
    m = metronome.Metronome(period=0.005)
    m.start()
    _spin(0.2)
    m.stop()
    assert len(m.walls) >= 5 and len(m.walls) == len(m.cpus)
    times = m.normalise(1.0 + sum(m.walls), 2.0 + sum(m.cpus))
    scale = metronome.NOMINAL_SLICE_S / metronome.typical(m.cpus)
    assert times["raw_wall_s"] == pytest.approx(1.0)
    assert times["wall_s"] == pytest.approx(scale)
    assert times["cpu_s"] == pytest.approx(2.0 * scale)


def test_forked_workers_run_slices_the_parent_collects(tmp_path):
    m = metronome.Metronome(period=0.005)
    m.follow_forks(tmp_path / "slices")
    m.start()
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        list(pool.map(_spin, [0.2]))
    m.stop()
    times = m.normalise(1.0 + sum(m.walls), 1.0 + sum(m.cpus) + 0.5)
    assert times["fork_slices"] >= 5 and len(m.fork_cpus) == times["fork_slices"]
    assert times["raw_cpu_s"] == pytest.approx(1.5 - sum(m.fork_cpus))
    assert not (tmp_path / "slices").exists()


@pytest.mark.parametrize("workload", ["relations", "contours"])
def test_traced_counts_repeat_exactly(workload):
    runs = [run_bench(workload, trace=1) for _ in range(2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for code, result in runs:
        assert code == 0 and result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    (_, first), (_, second) = runs

    def exact(result):
        return {
            k: v["value"]
            for k, v in result["metrics"].items()
            if k.endswith((".calls", ".hit_ratio", ".repeat_ratio"))
        }

    assert exact(first) == exact(second)
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_traced_run_sees_the_layers_it_should():
    _, result = run_bench("relations", trace=1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["tangle.evaluate.calls"] > 0 and m["surd.mul.calls"] > 0
    assert m["heisenberg.cross.calls"] > 0
    assert m["frobenius.calls"] == 0 and m["ratfun.calls"] == 0
    _, result = run_bench("relations-jobs2", trace=1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # Workers run untraced: only the parent-side sweep spans are seen.
    assert m["tangle.evaluate.calls"] == 0 and m["heisenberg.pool.cpu_s"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_the_gate_trips_on_a_wrong_pinned_count(workload):
    attempted, failed, notes = workloads.run_pass(workload, 3, workloads.TINY)
    assert failed == 0 and attempted > 0, notes
    pinned = dict(workloads.TINY.pinned)
    group = {"relations": "ybe", "relations-jobs2": "ybe", "characters": "kerov"}.get(
        workload, "contour"
    )
    pinned[group] += 1
    wrong = dataclasses.replace(workloads.TINY, pinned=pinned)
    attempted, failed, notes = workloads.run_pass(workload, 3, wrong)
    assert failed >= pinned[group]
    assert any("pinned" in n for n in notes)


def test_a_sweep_that_checks_nothing_fails():
    # No ybe loop has a base of weight <= 2: the sweep is vacuous.
    small = dataclasses.replace(workloads.TINY, relation_weight=2)
    attempted, failed, notes = workloads.run_pass("relations", 3, small)
    assert "ybe: no loops checked" in notes
    assert failed >= workloads.TINY.pinned["ybe"]


def test_outside_a_checkout_the_run_fails_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "relations",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
