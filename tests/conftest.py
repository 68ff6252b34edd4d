"""Settings shared by the whole suite."""

from hypothesis import settings

# Property tests replay the same examples on every run and machine: no example
# database, derandomized draws, and no per-example deadline on a loaded machine.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
