"""Hypothesis runs derandomized, so the property tests draw the same examples on every run."""

try:
    from hypothesis import settings
except ImportError:  # test_properties.py skips itself
    pass
else:
    settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
    settings.load_profile("deterministic")
