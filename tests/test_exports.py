"""Every name a module exports must exist, and must be used outside the tests.

Tools outside the test suite look exported names up with ``getattr`` (a
tracer wraps each one), so a name dropped from a module but left in its
``__all__`` breaks them while every other test still passes.  A public name
that only the tests call is a wrapper to delete or a function to make
private.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import types
from dataclasses import fields

import amsdetect
from amsdetect import bench, cli, cluster, earlydetect, inject, waveforms


def _modules():
    yield amsdetect
    for info in pkgutil.walk_packages(amsdetect.__path__, "amsdetect."):
        yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    modules = list(_modules())
    assert "amsdetect.cluster.model" in {m.__name__ for m in modules}
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _trees_outside_tests():
    """(path, parsed module) of each source file of the package and the benchmark."""
    for path in [*(ROOT / "src" / "amsdetect").rglob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _names_used_outside_tests() -> set[str]:
    """Names the package and the benchmark read, as a variable or an attribute.

    Definitions, assignments, ``__all__`` entries and imports are not uses,
    so a name exported and re-exported but never called still counts as unused.
    """
    used = set()
    for _, tree in _trees_outside_tests():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_name_is_used_outside_the_tests():
    used = _names_used_outside_tests()
    unused = [f"{m.__name__}.{name}" for m in _modules()
              for name in getattr(m, "__all__", ()) if name not in used]
    assert unused == []


def test_traced_bindings_stay():
    """The benchmark checks that its tracer wraps a function at each of
    these bindings, some of which the module itself never calls."""
    assert bench.simulate_vref is waveforms.simulate_vref
    assert inject.vref_output_block is waveforms.vref_output_block
    assert earlydetect.assign_many is cluster.assign_many
    assert callable(cli.main)


def test_every_literal_config_key_names_a_key():
    """An error's ``config_key`` is a key a user can set: a field of
    ExperimentConfig, a ``vref_params`` key (a field of VrefConfig), or a
    suite file's ``defaults`` or ``experiments``.  Keys built at run time
    are not literals and are not checked here."""
    known = ({f.name for f in fields(bench.ExperimentConfig)}
             | {f.name for f in fields(waveforms.VrefConfig)}
             | {"defaults", "experiments"})
    unknown = []
    for path in (ROOT / "src" / "amsdetect").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.keyword) and node.arg == "config_key"
                    and isinstance(node.value, ast.Constant)
                    and node.value.value not in known):
                unknown.append(f"{path.name}:{node.lineno} {node.value.value}")
    assert unknown == []


def test_waveforms_imports_nothing_from_inject():
    """``inject`` builds on ``waveforms``, never the other way round: no
    import of ``inject`` in ``waveforms``, at module level or in a function."""
    found = []
    for node in ast.walk(ast.parse(pathlib.Path(waveforms.__file__).read_text(
            encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            paths = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            paths = [a.name for a in node.names]
        else:
            continue
        if any("inject" in path.split(".") for path in paths):
            found.append(node.lineno)
    assert found == []


def _exported_callables() -> dict:
    """Qualified name -> (called name, parameters as a caller passes them)
    of each function in a module's ``__all__`` and each public method of an
    exported class; an instance method's ``self`` is dropped (a bound
    classmethod has no ``cls``)."""
    found = {}
    for m in _modules():
        for name in getattr(m, "__all__", ()):
            obj = getattr(m, name)
            if inspect.isfunction(obj):
                found[name] = (name, list(inspect.signature(obj).parameters.values()))
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    if attr.startswith("_") or not isinstance(
                            raw, (types.FunctionType, classmethod, staticmethod)):
                        continue
                    params = list(inspect.signature(getattr(obj, attr)).parameters.values())
                    if isinstance(raw, types.FunctionType):
                        params = params[1:]
                    found[f"{name}.{attr}"] = (attr, params)
    return found


def _passed_arguments():
    """What calls outside the tests pass, by called name: keywords (None for
    a ``**`` mapping) and how many positional arguments (all, after a
    ``*``); and each parameter perfbench reads off a signature by name."""
    keywords: dict[str, set] = {}
    positions: dict[str, int] = {}
    read_by_name = set()
    for path, tree in _trees_outside_tests():
        for node in ast.walk(tree):
            if (path.parent.name == "perfbench" and isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "parameters"
                    and isinstance(node.slice, ast.Constant)):
                read_by_name.add(node.slice.value)
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = (func.id if isinstance(func, ast.Name) else
                      func.attr if isinstance(func, ast.Attribute) else None)
            if called is None:
                continue
            keywords.setdefault(called, set()).update(k.arg for k in node.keywords)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            reach = float("inf") if starred else len(node.args)
            positions[called] = max(positions.get(called, 0), reach)
    return keywords, positions, read_by_name


def test_every_default_is_passed_outside_the_tests():
    """A parameter with a default that nothing outside the tests passes is an
    option only the tests use: each one must be passed, by keyword or at its
    position, by some call in the package or the benchmark, or be read off a
    signature by name in the benchmark (its tracer reads ``max_iter``'s
    default).  Calls are matched by the called name alone."""
    keywords, positions, read_by_name = _passed_arguments()
    unset = []
    for qual, (called, params) in _exported_callables().items():
        for index, p in enumerate(params):
            if p.default is inspect.Parameter.empty or p.name in read_by_name:
                continue
            kw = keywords.get(called, set())
            by_position = (p.kind is not p.KEYWORD_ONLY
                           and positions.get(called, 0) > index)
            if p.name not in kw and None not in kw and not by_position:
                unset.append(f"{qual}.{p.name}")
    assert unset == []
