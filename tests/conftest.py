"""Hypothesis runs derandomized, so the property tests draw the same examples on every run.  The report header
names the directory ``kgconformal`` was imported from: ``pyproject.toml`` puts the checkout's own ``src`` first, so
``PYTHONPATH`` cannot point a run at another tree."""

from pathlib import Path

try:
    from hypothesis import settings
except ImportError:  # test_properties.py skips itself
    pass
else:
    settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
    settings.load_profile("deterministic")


def pytest_report_header(config):
    import kgconformal

    return f"kgconformal imported from {Path(kgconformal.__file__).parent}"
