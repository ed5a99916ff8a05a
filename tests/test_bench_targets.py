"""Every name the benchmark tracer patches must exist in ``ypa``.

``perfbench/tracer.py`` is loaded by file path and left as it is; a
refactor that drops or renames a traced function fails here instead of
midway through a traced benchmark pass.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


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
