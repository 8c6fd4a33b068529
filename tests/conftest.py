import sys

import pytest

from lpflow import Grid, default_bank, fields


@pytest.fixture(scope="session")
def grid64():
    return Grid(64, 2)


@pytest.fixture(scope="session")
def bank64(grid64):
    return default_bank(grid64.n, grid64.d)


@pytest.fixture(scope="session")
def grid16_3d():
    return Grid(16, 3)


@pytest.fixture(scope="session")
def bank16_3d(grid16_3d):
    return default_bank(grid16_3d.n, grid16_3d.d)


@pytest.fixture()
def inverse_transforms(monkeypatch) -> list:
    """One entry per real inverse transform, counted under every lpflow import of it."""
    calls, real = [], fields._from_half_spectrum

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("lpflow") and getattr(mod, "_from_half_spectrum", None) is real:
            monkeypatch.setattr(mod, "_from_half_spectrum", spy)
    return calls
