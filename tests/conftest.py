"""Test-suite settings: one hypothesis profile, loaded before any test module.

Every property test runs the same examples on every run (``derandomize``),
keeps no example database between runs, and has no per-example deadline,
since a single steady solve or propagation can take longer than the default
200 ms.  A test's own ``@settings`` sets only how many examples it draws.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
