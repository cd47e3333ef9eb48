"""Shared test configuration.

Property tests draw their examples from a derandomized hypothesis profile,
so every run of the suite checks the same cases and writes no example
database.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
