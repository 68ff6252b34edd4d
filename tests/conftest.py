"""Settings shared by the whole suite."""

import warnings

from hypothesis import settings

# Property tests replay the same examples on every run and machine: no example
# database, derandomized draws, and no per-example deadline on a loaded machine.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

# When a property fails, Hypothesis's pytest plugin imports this module to
# suggest a patch. Through libcst it can raise a DeprecationWarning, which the
# suite's filters turn into an error that ends the session; import it once here
# with that warning ignored. Without libcst the module is not needed.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass
