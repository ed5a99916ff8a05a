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


def test_the_tracer_installs_and_uninstalls_around_a_pass():
    # install rebinds the fn and value fields of the frozen records that
    # hold a traced function (through object.__setattr__) and the methods in
    # FactoredRatFun's own dict; uninstall puts every one back.
    import ypa.heisenberg as hs
    import ypa.plancherel as pl
    from ypa.ratfun import FactoredRatFun
    from ypa.young import diagrams_up_to, enumerate_loops

    cross, f_pl, mul = hs.cross, pl.f_pl, vars(FactoredRatFun)["__mul__"]
    cross_hash = hash(hs.CROSS)
    traced = tracer.Tracer()
    traced.install()
    try:
        assert hs.CROSS.fn is not cross and hs.CROSS.fn.__wrapped__ is cross
        assert pl.PLANCHEREL.value is not f_pl and pl.PLANCHEREL.value.__wrapped__ is f_pl
        assert vars(FactoredRatFun)["__mul__"] is not mul
        attempted, failed, notes = workloads.run_pass("relations", 3, workloads.TINY)
    finally:
        traced.uninstall()
    assert attempted > 0 and (failed, notes) == (0, [])
    seen = {traced.names[i] for i in set(traced.span_name)}
    assert {"tangle.evaluate", "heisenberg.cross", "plancherel.f_pl"} <= seen
    # Every side program of every loop is one evaluate span: a relation
    # check that went round evaluate would empty the tracer's tangle layer.
    evaluated = traced.names.index("tangle.evaluate")
    programs = sum(
        len(sides.lhs) + len(sides.rhs)
        for sides in hs.RELATIONS.values()
        for base in diagrams_up_to(workloads.TINY.relation_weight)
        for _ in enumerate_loops(base, sides.signature)
    )
    assert list(traced.span_name).count(evaluated) == programs == 187
    assert hs.cross is cross and hs.CROSS.fn is cross and hash(hs.CROSS) == cross_hash
    assert pl.f_pl is f_pl and pl.PLANCHEREL.value is f_pl
    assert vars(FactoredRatFun)["__mul__"] is mul and vars(FactoredRatFun)["__rmul__"] is mul
