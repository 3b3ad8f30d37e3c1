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
