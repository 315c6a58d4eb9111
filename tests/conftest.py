"""Shared test configuration: one deterministic hypothesis profile.

Derandomized, so every run draws the same examples and a failure repeats;
no deadline, because timings on a shared machine vary; a bounded example
count keeps the tier-1 suite fast; no example database, so a run leaves no
files behind.
"""

from hypothesis import settings

settings.register_profile(
    "tropeci", derandomize=True, deadline=None, max_examples=150, database=None)
settings.load_profile("tropeci")
