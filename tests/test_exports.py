"""Every name a module exports must exist.

Tools outside the test suite look exported names up with ``getattr`` (a
tracer wraps each one), so a name dropped from a module but left in its
``__all__`` breaks them while every other test still passes.
"""

import importlib
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


def test_traced_bindings_stay():
    """The benchmark checks that its tracer wraps a function at each of
    these bindings, some of which the module itself never calls."""
    assert bench.simulate_vref is waveforms.simulate_vref
    assert inject.vref_output_block is waveforms.vref_output_block
    assert earlydetect.assign_many is cluster.assign_many
    assert callable(cli.main)
