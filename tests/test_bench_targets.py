"""The benchmark's tracer targets and workloads must work against ``ypa``.

``perfbench/tracer.py`` and ``perfbench/workloads.py`` are loaded by file
path and left as they are.  A refactor that drops or renames a traced
function, or an engine change that fails a workload's gate, fails here
instead of midway through a benchmark pass.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load("_bench_tracer", PERFBENCH / "tracer.py")
workloads = _load("_bench_workloads", PERFBENCH / "workloads.py")


def _resolve(mod: str, attr: str):
    owner = importlib.import_module(f"ypa.{mod}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        # The tracer patches the class's own dict, so inherited is not enough.
        assert meth in vars(cls), f"{attr} is not defined on ypa.{mod}.{cls_name}"
        return getattr(cls, meth)
    return getattr(owner, attr)


@pytest.mark.parametrize("mod, attr, name", tracer.TARGETS)
def test_traced_name_resolves(mod, attr, name):
    assert mod in tracer.LAYERS and name.startswith(f"{mod}.")
    assert callable(_resolve(mod, attr))


@pytest.mark.parametrize("mod, attr, name", tracer.CACHED)
def test_cached_name_has_cache_info(mod, attr, name):
    assert callable(_resolve(mod, attr).cache_info)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_at_tiny_size(name):
    # relations-jobs2 starts a two-worker process pool.
    attempted, failed, notes = workloads.run_pass(name, 3, workloads.TINY)
    assert attempted > 0
    assert (failed, notes) == (0, [])
