"""Shared test settings: every run of the suite draws the same examples."""

from hypothesis import settings

settings.register_profile("suite", derandomize=True, deadline=None)
settings.load_profile("suite")
