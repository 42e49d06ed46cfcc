import numpy as np
import pytest
from hypothesis import settings

from mirrorslit import Apparatus
from mirrorslit.wavemodel import fringe_spacing

# property tests draw the same examples on every run
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps ``module.name`` for the test and
    returns the list each call appends its arguments to."""

    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


@pytest.fixture
def app():
    """Standard bench apparatus (700 nm, 100 um slits, 10 cm throw, 5 m arms)."""
    return Apparatus()


@pytest.fixture
def f_s(app):
    return fringe_spacing(app)


@pytest.fixture
def scan_grid(f_s):
    return np.linspace(-3 * f_s, 3 * f_s, 41)


def pytest_runtest_logreport(report):
    """One PASS/FAIL line per acceptance criterion in the terminal output."""
    if "test_acceptance" in report.nodeid and report.when == "call":
        name = report.nodeid.split("::")[-1]
        print(f"[acceptance] {name}: {'PASS' if report.passed else 'FAIL'}")
