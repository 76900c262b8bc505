"""The functions the benchmark's layer tracer wraps exist where it looks."""

import importlib
import importlib.util
import pathlib

import pytest

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


TARGETS = sorted(_targets().items())


@pytest.mark.parametrize("module, names", TARGETS,
                         ids=[module for module, _ in TARGETS])
def test_every_traced_name_resolves(module, names):
    # bench/layers.py patches semibs.<module>.<name>; a name moved out of
    # its module would fail the traced benchmark run instead of here
    home = importlib.import_module(f"semibs.{module}")
    assert [n for n in names if not callable(getattr(home, n, None))] == []
