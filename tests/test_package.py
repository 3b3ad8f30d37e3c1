"""The package namespace is the union of its modules' ``__all__`` lists."""

import pkgutil

import dyadica
from dyadica import analysis, cli, dyadic, errors, fracops, grid, haar, paracomm, weights

MODULES = (errors, grid, dyadic, haar, fracops, weights, analysis, paracomm, cli)


def test_package_exports_each_module_api_once():
    names = {m.name for m in pkgutil.iter_modules(dyadica.__path__)} - {"__main__"}
    assert names == {module.__name__.rsplit(".", 1)[1] for module in MODULES}
    exported = dyadica.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == {name for module in MODULES for name in module.__all__}
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(dyadica, name) is obj
            # a module lists what it defines, not what it imports
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name



def test_benchmark_names_are_live_layer_functions(monkeypatch):
    # the benchmark reads its per-layer metrics by these names; a deleted or
    # aliased one would raise KeyError there, not here
    import importlib
    import sys
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        run, tracer = importlib.import_module("run"), importlib.import_module("tracer")
    finally:
        sys.modules.pop("run", None), sys.modules.pop("tracer", None)
    for qname in run.SELF_S + run.CALLS + run.CACHES + list(tracer.PER_CALL):
        layer, attr = qname.split(".")
        assert layer in tracer.LAYERS, qname
        module = importlib.import_module(f"dyadica.{layer}")
        obj = vars(module).get(attr)
        assert callable(obj) and not isinstance(obj, type), qname
        assert obj.__module__ == module.__name__, qname
        assert qname not in run.CACHES or hasattr(obj, "cache_info"), qname
    assert run.SUITES == cli.SUITES
