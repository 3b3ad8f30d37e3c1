"""The package namespace is the union of its modules' ``__all__`` lists,
``import dyadica`` loads the one-parameter core only, every module-level
definition outside those lists is read somewhere, and the verifier reads
every public name and every member of a public class, or a list says why."""

import ast
import dataclasses
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dyadica
from dyadica import analysis, cli, dyadic, errors, fracops, grid, haar, paracomm, weights

MODULES = (errors, grid, dyadic, haar, fracops, weights, analysis, paracomm, cli)
UPPER = ("dyadica.weights", "dyadica.analysis", "dyadica.paracomm", "dyadica.cli")


def _fresh(code):
    """What ``code`` prints as JSON, run in a new interpreter on this tree."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED = "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"


def test_import_of_the_core_loads_no_upper_layer():
    loaded = set(_fresh("import dyadica.fracops" + LOADED))
    assert "dyadica.haar" in loaded
    assert not loaded & {*UPPER, "argparse", "csv", "concurrent.futures"}


def test_import_of_the_cli_loads_every_layer_and_no_rare_path_module():
    loaded = set(_fresh("import dyadica.cli" + LOADED))
    assert set(UPPER) <= loaded
    assert not loaded & {"concurrent.futures", "traceback"}


def test_star_import_binds_the_union_of_the_module_lists():
    code = "import json\nbefore = set(globals())\nfrom dyadica import *\n"
    code += "print(json.dumps(sorted(set(globals()) - before - {'before'})))"
    assert _fresh(code) == sorted(name for module in MODULES for name in module.__all__)


@pytest.mark.parametrize(
    "first_use",
    [
        "import dyadica, sys; ok = dyadica.cli is sys.modules['dyadica.cli']",
        "import dyadica; w = dyadica.Weight; from dyadica.weights import Weight; ok = w is Weight",
        "from dyadica import strong_maximal as s; from dyadica.analysis import strong_maximal;"
        " ok = s is strong_maximal",
    ],
)
def test_an_upper_layer_name_resolves_to_its_defining_module(first_use):
    assert _fresh(first_use + "\nimport json; print(json.dumps(ok))") is True


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dyadica.no_such_name
    assert not hasattr(dyadica, "no_such_name")


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



def test_the_library_reads_no_environment_variable():
    # a knob read from the environment selects code paths that the tests and
    # the benchmark must then cover twice, once per setting; the library takes
    # its settings from its arguments and the experiment config alone
    reads = []
    for path in sorted(Path(dyadica.__file__).resolve().parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                name = f"{node.value.id}.{node.attr}"
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                name = ", ".join(f"os.{alias.name}" for alias in node.names)
            else:
                continue
            if "os.environ" in name or "os.getenv" in name:
                reads.append(f"{path.name}:{node.lineno}: {name}")
    assert reads == []


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


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(path):
    """(name, the module-level definition it sits in or None) for every name
    the file reads, as a ``Name`` or as an ``Attribute``."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = top.name if isinstance(top, _DEFINITIONS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


def test_every_private_module_level_definition_is_reached():
    # a function or class outside its module's __all__ must be read somewhere
    # in the library, the tests or the benchmark, outside its own body; names
    # are matched as AST nodes, so a word in a docstring does not count
    root = Path(__file__).resolve().parents[1]
    readers = {}
    for path in (p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py")):
        for name, owner in _reads(path):
            readers.setdefault(name, set()).add((path, owner))
    unreached = []
    for module in MODULES:
        path = Path(module.__file__).resolve()
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, _DEFINITIONS) and top.name not in module.__all__:
                if not readers.get(top.name, set()) - {(path, top.name)}:
                    unreached.append(f"{module.__name__}.{top.name}")
    assert unreached == []


# public names that no suite or criterion reads, each kept for its reason
_UNREAD_PUBLIC = {
    "haar.haar_matrix": "the benchmark names it (perfbench run.SELF_S and run.CACHES)",
    "haar.level_average": "the benchmark names it (perfbench run.CALLS)",
    "haar.level_difference": "the benchmark names it (perfbench run.CALLS)",
    "analysis.bmo_prod_rect_norm": "the benchmark names it (perfbench run.SELF_S)",
    "cli.load_config": "the benchmark reads its all-L6 config file with it (perfbench "
    "workload._setup_all); main merges flags first",
}


def _verifier_reach():
    """Every name the verifier reads: those read by the ``dyadica`` command
    (``__main__``), by the acceptance criteria and by the library modules'
    top-level statements, closed under the names that the bodies of the
    library's module-level definitions so named read."""
    root = Path(__file__).resolve().parents[1]
    bodies, todo = {}, []
    for module in MODULES:
        for name, owner in _reads(Path(module.__file__).resolve()):
            if owner is None:
                todo.append(name)
            else:
                bodies.setdefault(owner, set()).add(name)
    for path in (root / "src" / "dyadica" / "__main__.py", root / "tests" / "test_acceptance.py"):
        todo.extend(name for name, _ in _reads(path))
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(bodies.get(name, ()))
    return reached


def test_every_public_name_is_read_by_a_suite_or_a_criterion():
    # by the static name walk of the private-definition guard above; a
    # public name nothing reads is either on the list, with its reason, or
    # goes, and a listed name that a suite or criterion now reads leaves it
    reached = _verifier_reach()
    unread = {
        f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        for module in MODULES
        for name in module.__all__
        if name not in reached
    }
    assert unread == set(_UNREAD_PUBLIC)


# class members that no suite or criterion reads, each kept for its reason
_COMPUTED = "computed content that tests check against oracles; removing it would save no work"
_UNREAD_MEMBERS = {
    "fracops.RepresentationReport.class_counts": _COMPUTED,
    "paracomm.CommutatorExpansion.paraproduct_terms": _COMPUTED,
}
# a static name walk cannot see an operator applied to an object
_OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__neg__"
}


def test_every_member_of_a_public_class_is_read_by_a_suite_or_a_criterion():
    # the guard above, one level down: each method, property, dataclass field
    # and class attribute of a class in a module's __all__, dunders aside, is
    # read by name or is on the list with its reason, and no public class
    # defines an operator
    reached = _verifier_reach()
    unread, operators = set(), []
    for module in MODULES:
        for name in module.__all__:
            cls = getattr(module, name)
            if not isinstance(cls, type):
                continue
            members = set(vars(cls))
            if dataclasses.is_dataclass(cls):
                members |= {field.name for field in dataclasses.fields(cls)}
            qualified = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
            operators += sorted(f"{qualified}.{op}" for op in members & _OPERATORS)
            unread |= {
                f"{qualified}.{member}"
                for member in members
                if not (member.startswith("__") and member.endswith("__"))
                and member not in reached
            }
    assert (sorted(unread), operators) == (sorted(_UNREAD_MEMBERS), [])
