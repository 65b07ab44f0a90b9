"""Test-suite settings: every Hypothesis test draws the same examples on every run.

With `derandomize=True` each test's draws are seeded from the test itself,
so a tier-1 run gives the same pass list on unchanged code.  Search further
by raising `max_examples` on one test in a working copy.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
