"""Every name a module exports must exist, and must be used outside the tests.

Tools outside the test suite look exported names up with ``getattr`` (a
tracer wraps each one), so a name dropped from a module but left in its
``__all__`` breaks them while every other test still passes.  A public name
that only the tests call is a wrapper to delete or a function to make
private.
"""

import ast
import importlib
import pathlib
import pkgutil

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


def _names_used_outside_tests() -> set[str]:
    """Names the package and the benchmark read, as a variable or an attribute.

    Definitions, assignments, ``__all__`` entries and imports are not uses,
    so a name exported and re-exported but never called still counts as unused.
    """
    root = pathlib.Path(__file__).resolve().parents[1]
    used = set()
    for path in [*(root / "src" / "amsdetect").rglob("*.py"),
                 *(root / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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
