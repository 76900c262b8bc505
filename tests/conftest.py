import numpy as np
import pytest

from semibs import wronlab
from semibs.symbols import EnergyWindow, builtin


@pytest.fixture(scope="session")
def harmonic():
    return builtin("harmonic")


@pytest.fixture(scope="session")
def quartic():
    return builtin("quartic")


@pytest.fixture(scope="session")
def window():
    # chosen so no harmonic level h(2n+1), h in {0.2, 0.1, 0.05, 0.025},
    # falls exactly on a window edge
    return EnergyWindow(0.08, 1.02)


@pytest.fixture()
def rng():
    return np.random.default_rng(20230817)


@pytest.fixture()
def refuse_large_grids(monkeypatch):
    """np.linspace fails, instead of allocating, above the grid limit, so a
    test can ask for an oversized grid without building it."""
    linspace = np.linspace

    def guarded(start, stop, num=50, **kwargs):
        assert num <= wronlab.MAX_GRID_POINTS, f"allocating {num} points"
        return linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", guarded)
